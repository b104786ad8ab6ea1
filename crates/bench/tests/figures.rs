//! Every entry of `phoenix_bench::figures::FIGURES` runs at smoke scale
//! and reproduces the paper's claims it reports, and the bench binaries
//! refuse a command line they cannot read instead of running without it.

use std::process::{Command, Output};

use phoenix_bench::figures::{Scale, FIGURES};

/// Claims that do not hold at smoke scale: (figure, claim, why).
const SKIP: &[(&str, &str, &str)] = &[(
    "ablation_adversarial",
    "at 90% failure both Phoenix rows' liar gain < the priority row's",
    "on 10 surviving nodes the lie gains the priority row nothing (0.000), so no row is below it",
)];

#[test]
fn every_figure_reproduces_its_claims_at_smoke_scale() {
    // One thread per figure: the figures are independent, and their
    // output does not depend on how many threads run them.
    let rendered: Vec<_> = std::thread::scope(|s| {
        let runs: Vec<_> = FIGURES
            .iter()
            .map(|f| s.spawn(move || (f, f.render(Scale::Smoke, None))))
            .collect();
        runs.into_iter()
            .map(|r| r.join().expect("figure ran"))
            .collect()
    });
    let mut wrong = Vec::new();
    for (figure, (out, claims)) in rendered {
        assert!(!out.is_empty(), "{} printed nothing", figure.name);
        for claim in claims {
            let skipped = SKIP
                .iter()
                .any(|&(f, what, _)| f == figure.name && what == claim.what);
            if claim.holds == skipped {
                let verdict = if skipped {
                    "holds now: unskip it"
                } else {
                    "does not hold"
                };
                wrong.push(format!("{}: {} {verdict}", figure.name, claim.what));
            }
        }
    }
    assert!(wrong.is_empty(), "claims:\n{}", wrong.join("\n"));
}

/// Runs `line`, a bench binary's name and its arguments.
fn run(line: &str) -> Output {
    let mut words = line.split_whitespace();
    let bin = match words.next() {
        Some("figures") => env!("CARGO_BIN_EXE_figures"),
        Some("scenario_hunt") => env!("CARGO_BIN_EXE_scenario_hunt"),
        Some("scenario_matrix") => env!("CARGO_BIN_EXE_scenario_matrix"),
        _ => env!("CARGO_BIN_EXE_obs_report"),
    };
    Command::new(bin).args(words).output().expect("binary runs")
}

#[test]
fn bad_command_lines_exit_one_with_an_error() {
    for (line, error) in [
        ("figures --seed 6x", "invalid value '6x' for --seed"),
        ("figures --nodes 100", "unknown flag --nodes"),
        ("figures nosuch", "unknown figure 'nosuch'"),
        ("figures --threads two", "invalid value 'two' for --threads"),
        ("scenario_hunt --no-persit", "unknown flag --no-persit"),
        ("scenario_matrix --json", "missing value for --json"),
        ("obs_report --rounds -1", "invalid value '-1' for --rounds"),
    ] {
        let out = run(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {error}")),
            "{line}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{line} ran anyway");
    }
}

#[test]
fn the_binary_prints_what_the_table_renders() {
    let out = run("figures fig9_resource_breakdown");
    assert!(out.status.success());
    let fig9 = FIGURES.iter().find(|f| f.name == "fig9_resource_breakdown");
    let (expected, _) = fig9.expect("fig9 is a figure").render(Scale::Default, None);
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}
