//! Re-blesses the determinism probe: rewrites
//! `crates/bench/tests/fixtures/probe/` from [`SECTIONS`] — one
//! `<name>.txt` per section, and no other file. Run it only after a
//! deliberate behaviour change; the `probe_golden` test then holds the
//! new bytes at 1 and 4 threads.

use phoenix_bench::probe::{fixtures_dir, SECTIONS};

fn main() -> std::io::Result<()> {
    let dir = fixtures_dir();
    std::fs::create_dir_all(&dir)?;
    for entry in std::fs::read_dir(&dir)? {
        let path = entry?.path();
        if !SECTIONS.iter().any(|s| s.fixture() == path) {
            std::fs::remove_file(&path)?;
            eprintln!("removed {}", path.display());
        }
    }
    for section in SECTIONS {
        std::fs::write(section.fixture(), section.render())?;
    }
    eprintln!("wrote {} sections to {}", SECTIONS.len(), dir.display());
    Ok(())
}
