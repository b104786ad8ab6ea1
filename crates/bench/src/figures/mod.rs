//! The paper's figures and tables as one table.
//!
//! [`FIGURES`] holds one entry per figure, named after the binary that
//! used to regenerate it. The `figures` binary runs any of them at any
//! [`Scale`]; the tier-1 `figures` test runs every entry at
//! [`Scale::Smoke`] and checks the [`Claim`]s it reports against the
//! paper. A figure writes its text tables into a `String`, so the same
//! bytes reach the terminal and the test.

mod adaptlab;
mod alibaba;
mod cloudlab;
mod fig8b;

/// How big a figure's experiment is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The smallest size at which every figure still exercises its code
    /// path: AdaptLab figures at 100 nodes and 1 trial, no ILP rows.
    Smoke,
    /// Laptop scale: seconds to minutes on one core.
    Default,
    /// The paper's scale (Fig. 7 and Fig. 8b at 100 000 nodes).
    Full,
}

impl Scale {
    /// The value for this scale.
    fn pick<T>(self, smoke: T, default: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

/// One statement of the paper a figure run either reproduces or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// The statement, e.g. "detection < 120 s after the failure".
    pub what: &'static str,
    /// Whether this run reproduced it.
    pub holds: bool,
}

/// One figure or table of the paper.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The figure's command-line name (`fig7_adaptlab_scale`, …).
    pub name: &'static str,
    /// Where in the paper the figure is.
    pub paper: &'static str,
    /// Appends the figure's output and returns its claims; `seed`
    /// replaces the figure's default seed where it has one.
    pub run: fn(Scale, Option<u64>, &mut String) -> Vec<Claim>,
}

impl Figure {
    /// The figure's output and claims.
    pub fn render(&self, scale: Scale, seed: Option<u64>) -> (String, Vec<Claim>) {
        let mut out = String::new();
        let claims = (self.run)(scale, seed, &mut out);
        (out, claims)
    }
}

/// Every figure, in paper order, then the ablations.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    Figure { name: "fig5_cloudlab", paper: "Fig. 5", run: cloudlab::fig5 },
    Figure { name: "fig6_timeseries", paper: "Fig. 6", run: cloudlab::fig6 },
    Figure { name: "fig7_adaptlab_scale", paper: "Fig. 7", run: adaptlab::fig7 },
    Figure { name: "fig8a_trace_replay", paper: "Fig. 8a", run: adaptlab::fig8a },
    Figure { name: "fig8b_time_overheads", paper: "Fig. 8b", run: fig8b::fig8b },
    Figure { name: "fig8c_utilization", paper: "Fig. 8c", run: adaptlab::fig8c },
    Figure { name: "fig9_resource_breakdown", paper: "Fig. 9", run: cloudlab::fig9 },
    Figure { name: "fig10_16_standalone", paper: "Figs. 10-16", run: adaptlab::fig10_16 },
    Figure { name: "fig17_alibaba_analysis", paper: "Fig. 17, §3.2", run: alibaba::fig17 },
    Figure { name: "table1_latency", paper: "Table 1", run: cloudlab::table1 },
    Figure { name: "inference_quality", paper: "§3.2", run: alibaba::inference_quality },
    Figure { name: "ablations", paper: "Algs. 1-2 design choices", run: adaptlab::ablations },
    Figure { name: "ablation_adversarial", paper: "§7 adversarial tags", run: adaptlab::adversarial },
    Figure { name: "ablation_degradation_modes", paper: "§7 degradation modes", run: cloudlab::degradation_modes },
    Figure { name: "ablation_monitor_period", paper: "§5 monitor cadence", run: cloudlab::monitor_period },
    Figure { name: "ablation_stateful", paper: "§1/§7 stateful workloads", run: adaptlab::stateful },
];
