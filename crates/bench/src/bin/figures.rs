//! Regenerates the paper's figures and tables:
//!
//! ```text
//! figures [name…] [--smoke|--full] [--seed N] [--threads N]
//! ```
//!
//! With no names it runs every entry of [`FIGURES`] in table order.
//! Each figure's tables go to stdout; its name and claims go to stderr.
//! `--seed N` replaces the default seed of the figures that draw one;
//! `--threads N` sizes the worker pool and never changes an output
//! byte. The claims are reported, not enforced: the tier-1 `figures`
//! test is what holds them.

use phoenix_bench::figures::{Scale, FIGURES};
use phoenix_bench::{init_threads, or_exit, Flags};

const FLAGS: Flags = Flags {
    switches: &["smoke", "full"],
    valued: &["seed", "threads"],
    names: true,
};

fn main() {
    let cli = FLAGS.from_env();
    let scale = match (cli.has("smoke"), cli.has("full")) {
        (true, true) => or_exit(Err("--smoke and --full exclude each other".into())),
        (true, false) => Scale::Smoke,
        (false, true) => Scale::Full,
        (false, false) => Scale::Default,
    };
    let seed = or_exit(cli.get::<u64>("seed"));
    let selected: Vec<_> = if cli.names.is_empty() {
        FIGURES.iter().collect()
    } else {
        let find = |n: &String| FIGURES.iter().find(|f| f.name == n);
        or_exit(
            cli.names
                .iter()
                .map(|n| find(n).ok_or(format!("unknown figure '{n}'")))
                .collect(),
        )
    };
    init_threads();
    for figure in selected {
        eprintln!("== {} ({}, {scale:?})", figure.name, figure.paper);
        let (out, claims) = figure.render(scale, seed);
        print!("{out}");
        for claim in claims {
            let verdict = if claim.holds {
                "holds"
            } else {
                "DOES NOT HOLD"
            };
            eprintln!("   claim {verdict}: {}", claim.what);
        }
    }
}
