//! `phoenix-cli` end to end: the built binary rejects out-of-range
//! numbers with `error: invalid value '<v>' for --<flag> (…)`, a flag
//! without a value with `error: missing value for --<flag>`, a flag the
//! command does not declare with `error: unknown flag --<flag>`, a
//! repeated flag with `error: --<flag> given twice`, and a
//! workload service with a bad `criticality` / `cpu` / `mem` with an
//! error naming the field, all with exit 1 (never a panic's 101); the
//! documented happy path (`export`, then `plan`) exits 0 and prints one
//! line per planned action, a closed stdout is not a panic, and the help
//! text says what `drill` is.

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

/// `plan` prints the policy's own task list: one line per action, as many
/// of each kind as its summary line counts.
#[test]
fn plan_prints_one_line_per_counted_action() {
    let workload = exported_workload("cli_plan_actions");
    let out = cli(&["plan", "--workload", &workload, "--fail", "0.5"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout
        .lines()
        .find(|l| l.ends_with(" starts:"))
        .unwrap_or_else(|| panic!("no action summary in:\n{stdout}"));
    let counted: Vec<usize> = summary
        .split(", ")
        .map(|part| part.split(' ').next().unwrap().parse().unwrap())
        .collect();
    let printed: Vec<usize> = ["  Delete", "  Migrate", "  Start"]
        .iter()
        .map(|kind| stdout.lines().filter(|l| l.starts_with(kind)).count())
        .collect();
    assert_eq!(printed, counted, "{stdout}");
    assert!(
        counted.iter().sum::<usize>() > 0,
        "a 50% failure replans nothing"
    );
    let actions = stdout.lines().filter(|l| l.starts_with("  ")).count();
    assert_eq!(actions, counted.iter().sum::<usize>(), "{stdout}");
}

/// A plan that serves nothing earns revenue 0.0, not the -0.0 of an
/// empty float sum: an empty workload, and Overleaf on one failed node.
#[test]
fn plan_serving_nothing_prints_zero_revenue() {
    let empty = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_empty_workload.json");
    std::fs::write(&empty, r#"{"version":1,"apps":[]}"#).expect("write empty workload");
    let empty = empty.to_str().expect("utf-8 tmp path").to_string();
    let overleaf = exported_workload("cli_zero_revenue");
    for args in [
        vec!["plan", "--workload", &empty],
        vec![
            "plan",
            "--workload",
            &overleaf,
            "--nodes",
            "1",
            "--cap",
            "8",
            "--fail",
            "1",
        ],
    ] {
        let out = cli(&args);
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("; revenue 0.0\n"), "{args:?}:\n{stdout}");
    }
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

/// Writes a one-service workload whose service carries `fields`.
fn workload_with(name: &str, fields: &str) -> String {
    let json = format!(
        r#"{{"version": 1, "apps": [{{"name": "shop", "services": [{{"name": "web", {fields}}}]}}]}}"#
    );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
    std::fs::write(&path, json).expect("write workload");
    path.to_str().expect("utf-8 tmp path").to_string()
}

#[test]
fn bad_service_numbers_exit_one_naming_the_field() {
    let cases = [
        (
            "cli_criticality_zero",
            r#""cpu": 1, "criticality": 0"#,
            "invalid criticality 0",
        ),
        ("cli_cpu_negative", r#""cpu": -1"#, "invalid cpu -1"),
        ("cli_cpu_overflow", r#""cpu": 1e999"#, "invalid cpu inf"),
    ];
    for (name, fields, want) in cases {
        let workload = workload_with(name, fields);
        for command in ["plan", "tag-audit"] {
            let out = cli(&[command, "--workload", &workload]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} {fields}: {stderr}");
            assert!(
                stderr.starts_with(&format!("error: {want} for service 'web' of app 'shop'")),
                "{command} {fields}: {stderr}"
            );
        }
    }
}

#[test]
fn flag_without_a_value_exits_one_naming_the_flag() {
    let workload = exported_workload("cli_missing_value");
    let cases: [(&[&str], &str); 7] = [
        (
            &["plan", "--workload", &workload, "--objective"],
            "--objective",
        ),
        (&["plan", "--workload", &workload, "--nodes"], "--nodes"),
        (&["plan", "--workload", "--nodes", "4"], "--workload"),
        (&["plan", "--cap", "--workload", &workload], "--cap"),
        (&["tag-audit", "--workload"], "--workload"),
        (&["audit", "--app"], "--app"),
        (&["drill", "--trials", "--nodes", "4"], "--trials"),
    ];
    for (args, flag) in cases {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: missing value for {flag}"),
            "{args:?}"
        );
    }
}

#[test]
fn undeclared_flags_and_stray_arguments_exit_one_naming_them() {
    let workload = exported_workload("cli_undeclared");
    let cases: [(&[&str], &str); 5] = [
        (
            &["plan", "--workload", &workload, "--nodse", "3"],
            "unknown flag --nodse",
        ),
        (
            &["plan", "--workload", &workload, "--fial", "0.9"],
            "unknown flag --fial",
        ),
        (
            &["audit", "--app", "overleaf", "extra"],
            "unexpected argument 'extra'",
        ),
        (
            &["export", "--app", "overleaf", "--nodes", "3"],
            "unknown flag --nodes",
        ),
        (
            &["drill", "--nodes", "4", "--fail", "0.5"],
            "unknown flag --fail",
        ),
    ];
    for (args, want) in cases {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: {want}"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
}

/// A repeated flag is an error naming it, not a silent first-value-wins.
#[test]
fn repeated_flags_exit_one_naming_them() {
    let workload = exported_workload("cli_repeated");
    let cases: [(&[&str], &str); 3] = [
        (
            &[
                "plan",
                "--workload",
                &workload,
                "--nodes",
                "3",
                "--nodes",
                "5",
            ],
            "--nodes given twice",
        ),
        (
            &["plan", "--workload", &workload, "--workload", &workload],
            "--workload given twice",
        ),
        (
            &["audit", "--app", "hr", "--app", "overleaf"],
            "--app given twice",
        ),
    ];
    for (args, want) in cases {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: {want}"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
}

/// A reader that closes early (`phoenix-cli export | head -c 80`) ends the
/// run quietly instead of panicking on the failed write.
#[test]
fn closed_stdout_is_not_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_phoenix-cli"))
        .args(["export", "--app", "overleaf"])
        .stdout(writer)
        .output()
        .expect("phoenix-cli runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// The help text says `drill` grades plans and never simulates a
/// recovery.
#[test]
fn help_says_drill_is_a_plans_only_sweep() {
    let out = cli(&["--help"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let drill = stdout
        .lines()
        .find(|l| l.contains("phoenix-cli drill"))
        .expect("usage lists drill");
    assert!(
        drill.contains("plans-only AdaptLab availability sweep")
            && drill.contains("never runs the simulator"),
        "{drill}"
    );
}
