//! Chaos-testing criticality tags before production (§5): audit the
//! as-shipped HotelReservation, watch it fail (the frontend crashes when
//! `user` is off), apply the paper's error-handling patch, and pass.
//!
//! ```sh
//! cargo run --example chaos_tagging
//! ```

use phoenix::apps::hotel::{hotel, HotelVariant};
use phoenix::chaos::audit_tags;

fn main() {
    println!("auditing HotelReservation (as shipped from DeathStarBench)…");
    let shipped = hotel("hr", HotelVariant::Reserve, 1.0);
    let report = audit_tags(&shipped);
    print_report(&report);

    println!("\napplying the §5 error-handling patch (reserve-as-guest)…");
    let patched = shipped.patched();
    let report = audit_tags(&patched);
    print_report(&report);
}

fn print_report(report: &phoenix::chaos::ChaosReport) {
    println!(
        "  {} — {}",
        report.app,
        if report.passed() { "PASSED" } else { "FAILED" }
    );
    for d in &report.degrees {
        println!(
            "    degree {:>4.0}%: critical {}  harvest {:.2}  ({} services off)",
            d.degree * 100.0,
            if d.critical_retained {
                "retained"
            } else {
                "LOST"
            },
            d.utility_score,
            d.killed.len(),
        );
    }
    for v in &report.violations {
        println!(
            "    VIOLATION: service {} tagged {} breaks '{}' when shed",
            v.service, v.tag, v.broken_request
        );
    }
}
