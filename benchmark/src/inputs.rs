//! Seeded input generation. Everything the program under test receives
//! that varies with `--seed` is made here, as plain data with no
//! `phoenix` types, so "same seed ⇒ identical inputs" is testable
//! without building a cluster.
//!
//! The environment itself (cluster shape + AdaptLab workload) is fixed
//! per workload size ([`crate::sizes::ENV_SEED`]): the seed draws the
//! *failures* injected into it, not the system under test.

/// SplitMix64 — the whole harness needs a few thousand draws, and owning
/// the generator keeps the one-dependency rule (no `rand`).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; lanes keep independent consumers
    /// (failure sets, each tick lane, drill scenarios) from shifting each
    /// other's draws.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `count` distinct ids out of `0..n`, ascending.
    pub fn pick(&mut self, n: u32, count: usize) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..n).collect();
        let count = count.min(ids.len());
        for i in 0..count {
            let j = i + (self.next_u64() % (ids.len() - i) as u64) as usize;
            ids.swap(i, j);
        }
        ids.truncate(count);
        ids.sort_unstable();
        ids
    }
}

/// `sets` independent failure sets, each `frac` of `nodes` (storm).
pub fn failure_sets(seed: u64, nodes: u32, frac: f64, sets: usize) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed, 1);
    let count = ((f64::from(nodes) * frac).round() as usize).max(1);
    (0..sets).map(|_| rng.pick(nodes, count)).collect()
}

/// One step of the monitor-loop script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TickStep {
    /// These healthy nodes fail before the tick.
    Fail(Vec<u32>),
    /// These failed nodes come back before the tick.
    Restore(Vec<u32>),
}

/// The seeded monitor-loop script of one tick lane: every step fails or
/// restores 1–3 nodes. With nothing down it fails; at the `max_down` cap
/// it restores; in between it fails two times out of three, so restores
/// are exercised from the first few ticks and the cluster hovers below
/// the cap instead of ratcheting up to it.
#[derive(Debug, Clone)]
pub struct TickScript {
    rng: Rng,
    nodes: u32,
    max_down: usize,
    down: Vec<u32>,
}

impl TickScript {
    /// Script for `lane` of a `nodes`-node cluster.
    pub fn new(seed: u64, lane: u64, nodes: u32, max_down: usize) -> TickScript {
        TickScript {
            rng: Rng::new(seed, 2 + lane),
            nodes,
            max_down: max_down.clamp(1, nodes.saturating_sub(1).max(1) as usize),
            down: Vec::new(),
        }
    }

    /// Nodes currently failed.
    pub fn down(&self) -> &[u32] {
        &self.down
    }
}

impl Iterator for TickScript {
    type Item = TickStep;

    fn next(&mut self) -> Option<TickStep> {
        let k = self.rng.range(1, 3) as usize;
        let restore = if self.down.is_empty() {
            false
        } else if self.down.len() >= self.max_down {
            true
        } else {
            self.rng.range(0, 2) == 0
        };
        if restore {
            let mut back = Vec::new();
            for _ in 0..k.min(self.down.len()) {
                let i = (self.rng.next_u64() % self.down.len() as u64) as usize;
                back.push(self.down.swap_remove(i));
            }
            back.sort_unstable();
            return Some(TickStep::Restore(back));
        }
        let mut failed = Vec::new();
        while failed.len() < k && self.down.len() + 1 < self.nodes as usize {
            let n = (self.rng.next_u64() % u64::from(self.nodes)) as u32;
            if !self.down.contains(&n) {
                self.down.push(n);
                failed.push(n);
            }
        }
        failed.sort_unstable();
        Some(TickStep::Fail(failed))
    }
}

/// One timed event of a drill scenario (the fields mirror the scenario
/// DSL; unused ones stay zero/empty).
#[derive(Debug, Clone, PartialEq)]
pub struct DrillEvent {
    /// Fire time, simulated milliseconds.
    pub at_ms: u64,
    /// DSL event kind slug.
    pub kind: &'static str,
    /// Explicit target nodes.
    pub nodes: Vec<u32>,
    /// Zone/rack count and the index hit.
    pub zones: u32,
    /// Zone/rack index.
    pub zone: u32,
    /// Capacity factor for `capacity_degrade`.
    pub factor: f64,
    /// Flap dwell times, cycle count and jitter.
    pub down_ms: u64,
    /// Flap serving dwell.
    pub up_ms: u64,
    /// Flap rounds.
    pub cycles: u32,
    /// Flap jitter.
    pub jitter_ms: u64,
}

impl DrillEvent {
    fn new(at_ms: u64, kind: &'static str) -> DrillEvent {
        DrillEvent {
            at_ms,
            kind,
            nodes: Vec::new(),
            zones: 0,
            zone: 0,
            factor: 1.0,
            down_ms: 0,
            up_ms: 0,
            cycles: 0,
            jitter_ms: 0,
        }
    }
}

/// One drill scenario: a name and its event script.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillScenario {
    /// Scenario name.
    pub name: &'static str,
    /// Timed events.
    pub events: Vec<DrillEvent>,
}

/// The four drill scenarios (zone outage + restore, rack outage, kubelet
/// stop to half capacity, flap + capacity degrade). The seed picks which
/// zone/rack/nodes are hit and jitters the failure time; the shapes stay.
pub fn drill_scenarios(seed: u64, nodes: u32, horizon_ms: u64) -> Vec<DrillScenario> {
    // One stream for the failure times, one for the node picks, so adding
    // a pick never shifts a time.
    let mut times = Rng::new(seed, 7);
    let mut fail_at = || times.range(45, 75) * 1000;
    let mut picks = Rng::new(seed, 8);

    let mut outage = DrillEvent::new(fail_at(), "zone_outage");
    outage.zones = 3;
    outage.zone = (seed % 3) as u32;
    let mut restore = DrillEvent::new(horizon_ms * 2 / 3, "zone_restore");
    restore.zones = 3;
    restore.zone = outage.zone;
    let zone = DrillScenario {
        name: "zone-outage-restore",
        events: vec![outage, restore],
    };

    // Racks are contiguous node ranges and the Phoenix policies pack the
    // 75 %-utilised cluster from node 0 up: the last two of five racks
    // hold few pods or none, so the seed picks among the first three.
    let mut outage = DrillEvent::new(fail_at(), "rack_outage");
    outage.zones = 5;
    outage.zone = (seed / 3 % 3) as u32;
    let rack = DrillScenario {
        name: "rack-outage",
        events: vec![outage],
    };

    let mut stop = DrillEvent::new(fail_at(), "kubelet_stop");
    stop.nodes = picks.pick(nodes, nodes as usize / 2);
    let half = DrillScenario {
        name: "kubelet-stop-half",
        events: vec![stop],
    };

    let flap_at = fail_at();
    let mut flap = DrillEvent::new(flap_at, "flap");
    flap.nodes = picks.pick(nodes, (nodes as usize / 10).max(1));
    flap.down_ms = 120_000;
    flap.up_ms = 60_000;
    flap.cycles = 3;
    flap.jitter_ms = 5_000;
    let mut degrade = DrillEvent::new(flap_at + 30_000, "capacity_degrade");
    degrade.nodes = picks.pick(nodes, (nodes as usize / 4).max(1));
    degrade.factor = 0.5;
    let flap = DrillScenario {
        name: "flap-degrade",
        events: vec![flap, degrade],
    };

    vec![zone, rack, half, flap]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seeded input of every workload, rendered to one string.
    fn all_inputs(seed: u64) -> String {
        let sets = failure_sets(seed, 100, 0.3, 4);
        let ticks: Vec<TickStep> = TickScript::new(seed, 0, 100, 2).take(50).collect();
        let drill = drill_scenarios(seed, 20, 900_000);
        format!("{sets:?}\n{ticks:?}\n{drill:?}")
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(all_inputs(11), all_inputs(11));
        assert_eq!(all_inputs(12).as_bytes(), all_inputs(12).as_bytes());
    }

    #[test]
    fn different_seeds_give_different_failure_sets() {
        let a = failure_sets(11, 100, 0.3, 4);
        let b = failure_sets(12, 100, 0.3, 4);
        assert_ne!(a, b);
        assert_ne!(all_inputs(11), all_inputs(12));
        // Sets within one seed differ too, and have the asked-for size.
        assert_ne!(a[0], a[1]);
        assert!(a.iter().all(|s| s.len() == 30));
        assert!(a.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
    }

    #[test]
    fn tick_script_respects_the_cap_and_never_double_fails() {
        let mut script = TickScript::new(5, 1, 50, 4);
        let mut down: Vec<u32> = Vec::new();
        let mut restores = 0;
        for _ in 0..500 {
            match script.next().unwrap() {
                TickStep::Fail(nodes) => {
                    assert!((1..=3).contains(&nodes.len()));
                    for n in nodes {
                        assert!(!down.contains(&n), "node {n} failed twice");
                        down.push(n);
                    }
                }
                TickStep::Restore(nodes) => {
                    restores += 1;
                    assert!((1..=3).contains(&nodes.len()));
                    for n in nodes {
                        let i = down.iter().position(|&d| d == n).expect("was down");
                        down.swap_remove(i);
                    }
                }
            }
            assert!(down.len() <= 4 + 2, "cap overshoots by at most one step");
            let mut a = down.clone();
            let mut b = script.down().to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        assert!(restores > 50);
    }

    #[test]
    fn drill_scenarios_stay_inside_the_cluster_and_horizon() {
        for seed in 0..20 {
            for s in drill_scenarios(seed, 20, 900_000) {
                for e in &s.events {
                    assert!(e.at_ms < 900_000);
                    assert!(e.nodes.iter().all(|&n| n < 20));
                    assert!(e.zones == 0 || e.zone < e.zones);
                }
            }
        }
    }
}
