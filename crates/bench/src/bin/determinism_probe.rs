//! Re-blesses the determinism probe: rewrites
//! `crates/bench/tests/fixtures/probe/` from [`SECTIONS`] — one
//! `<name>.txt` per section, and no other file. Run it only after a
//! deliberate behaviour change; the `probe_golden` test then holds the
//! new bytes at 1 and 4 threads. It takes no arguments.

use phoenix_bench::probe::{fixtures_dir, SECTIONS};
use phoenix_bench::Flags;

const FLAGS: Flags = Flags {
    switches: &[],
    valued: &[],
    names: false,
};

fn main() -> std::io::Result<()> {
    FLAGS.from_env();
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
