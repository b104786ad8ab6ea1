//! `phoenix-cli` end to end: the built binary rejects out-of-range
//! numbers with `error: invalid value '<v>' for --<flag> (…)` and exit 1,
//! and the documented happy path (`export`, then `plan`) exits 0.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_phoenix-cli"))
        .args(args)
        .output()
        .expect("phoenix-cli runs")
}

/// Exports the Overleaf workload to `<tmp>/<name>.json` via the CLI itself.
fn exported_workload(name: &str) -> String {
    let out = cli(&["export", "--app", "overleaf"]);
    assert!(out.status.success(), "export failed: {out:?}");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
    std::fs::write(&path, &out.stdout).expect("write exported workload");
    path.to_str().expect("utf-8 tmp path").to_string()
}

#[test]
fn documented_plan_happy_path_exits_zero() {
    let workload = exported_workload("cli_happy_path");
    let out = cli(&[
        "plan",
        "--workload",
        &workload,
        "--nodes",
        "8",
        "--cap",
        "8",
        "--fail",
        "0.5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("planned in"));
}

#[test]
fn out_of_range_numbers_exit_one_naming_the_flag() {
    let workload = exported_workload("cli_out_of_range");
    let cases = [
        ("plan", "--cap", "-1"),
        ("plan", "--cap", "NaN"),
        ("plan", "--cap", "inf"),
        ("plan", "--fail", "NaN"),
        ("plan", "--fail", "-1"),
        ("plan", "--fail", "1.5"),
        ("plan", "--nodes", "0"),
        ("plan", "--nodes", "1000000000"),
        ("drill", "--nodes", "0"),
        ("drill", "--trials", "0"),
    ];
    for (command, flag, value) in cases {
        let mut args = vec![command, flag, value];
        if command == "plan" {
            args.extend(["--workload", workload.as_str()]);
        }
        let out = cli(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: invalid value '{value}' for {flag} (")),
            "{args:?}: {stderr}"
        );
    }
}
