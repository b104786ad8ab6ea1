//! Golden contract for `phoenix_bench::probe`: each section, run under
//! `with_threads(1)` and `with_threads(4)`, equals its checked-in
//! `tests/fixtures/probe/<name>.txt`, with exactly one file per section.
//! Re-bless: `cargo run -p phoenix-bench --bin determinism_probe`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use phoenix_bench::probe::{fixtures_dir, SECTIONS};

/// Fails naming every section whose output at `threads` differs from its
/// fixture, with the first differing line.
fn assert_sections_match_fixtures(threads: usize) {
    let mut drift = String::new();
    for section in SECTIONS {
        let want = std::fs::read_to_string(section.fixture()).unwrap_or_default();
        let got = phoenix_exec::with_threads(threads, || section.render());
        if got != want {
            // Newline-inclusive, so a lost trailing newline differs too.
            let (mut w, mut g) = (want.split_inclusive('\n'), got.split_inclusive('\n'));
            let (line, w, g) = (1..)
                .map(|n| (n, w.next(), g.next()))
                .find(|(_, w, g)| w != g)
                .expect("unequal texts differ on some line");
            let name = section.name;
            drift += &format!("\n  section {name}, line {line}: fixture {w:?}, got {g:?}");
        }
    }
    assert!(
        drift.is_empty(),
        "determinism probe drifted at {threads} thread(s); re-bless only for a deliberate \
         behaviour change (`cargo run -p phoenix-bench --bin determinism_probe`):{drift}"
    );
}

#[test]
fn sections_match_fixtures_sequential() {
    assert_sections_match_fixtures(1);
}

#[test]
fn sections_match_fixtures_at_four_threads() {
    assert_sections_match_fixtures(4);
}

#[test]
fn one_fixture_file_per_section() {
    let files: BTreeSet<PathBuf> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures dir readable")
        .map(|e| e.expect("fixture entry").path())
        .collect();
    let sections: BTreeSet<PathBuf> = SECTIONS.iter().map(|s| s.fixture()).collect();
    assert_eq!(sections.len(), SECTIONS.len(), "duplicate section names");
    let orphans: Vec<_> = files.difference(&sections).collect();
    let missing: Vec<_> = sections.difference(&files).collect();
    assert!(
        orphans.is_empty() && missing.is_empty(),
        "fixture files without a section: {orphans:?}; sections without a fixture: {missing:?}"
    );
}
