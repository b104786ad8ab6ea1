//! Workspace smoke test: the facade quickstart path from `src/lib.rs`,
//! kept as a plain integration test so the README/doc-test scenario is
//! also exercised by `cargo test -q` even when doc-tests are skipped.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use phoenix::cluster::{ClusterState, NodeId, Resources};
use phoenix::core::controller::{PhoenixConfig, PhoenixController};
use phoenix::core::objectives::ObjectiveKind;
use phoenix::core::spec::{AppSpecBuilder, Workload};
use phoenix::core::tags::Criticality;

/// One app with a critical frontend and an optional chat service.
fn quickstart_workload() -> Workload {
    let mut b = AppSpecBuilder::new("docs");
    let fe = b.add_service("frontend", Resources::cpu(2.0), Some(Criticality::C1), 1);
    let chat = b.add_service("chat", Resources::cpu(2.0), Some(Criticality::new(5)), 1);
    b.add_dependency(fe, chat);
    Workload::new(vec![b.build().expect("valid spec")])
}

#[test]
fn facade_quickstart_sheds_the_noncritical_service() {
    let workload = quickstart_workload();

    // A degraded cluster: only one 2-CPU node is healthy.
    let mut state = ClusterState::homogeneous(2, Resources::cpu(2.0));
    state.fail_node(NodeId::new(1));

    // Phoenix sheds chat and keeps the frontend.
    let controller = PhoenixController::new(
        workload,
        PhoenixConfig::with_objective(ObjectiveKind::Fairness),
    );
    let plan = controller.plan(&state);
    assert_eq!(plan.target.pod_count(), 1);
}

#[test]
fn healthy_cluster_places_everything() {
    let workload = quickstart_workload();
    let state = ClusterState::homogeneous(2, Resources::cpu(2.0));
    let controller = PhoenixController::new(workload, PhoenixConfig::default());
    let plan = controller.plan(&state);
    assert_eq!(plan.target.pod_count(), 2);
}

/// `cargo test -q` (tier-1) runs `default-members`, not `--workspace`:
/// a crate missing from that list silently stops being covered. This
/// turns the ROADMAP's footgun into a failing test — every directory
/// under `crates/` must appear in the root manifest's `default-members`.
#[test]
fn every_crate_is_a_default_member() {
    let root = env!("CARGO_MANIFEST_DIR");
    let manifest =
        std::fs::read_to_string(format!("{root}/Cargo.toml")).expect("read root Cargo.toml");

    // The `default-members = [ ... ]` array, naively bracket-matched
    // (the manifest is hand-maintained TOML with no nested brackets).
    let start = manifest
        .find("default-members")
        .expect("root manifest lists default-members");
    let open = manifest[start..].find('[').expect("array opens") + start;
    let close = manifest[open..].find(']').expect("array closes") + open;
    let members: Vec<String> = manifest[open + 1..close]
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect();

    let mut missing = Vec::new();
    let mut crate_dirs = std::fs::read_dir(format!("{root}/crates"))
        .expect("crates/ exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect::<Vec<_>>();
    crate_dirs.sort();
    assert!(!crate_dirs.is_empty(), "no crates found under crates/");
    for dir in &crate_dirs {
        if !members.iter().any(|m| m == &format!("crates/{dir}")) {
            missing.push(dir.clone());
        }
    }
    assert!(
        missing.is_empty(),
        "crates missing from default-members (tier-1 would silently skip them): {missing:?}"
    );
}

/// Public functions in `crates/*/src` and `src` that no non-test source,
/// example, bench or `benchmark/src` file names, each with the reason it
/// stays public. [`no_public_fn_lacks_a_caller`] fails when an entry
/// gains a caller or stops existing, so the list cannot grow silently.
const UNCALLED_PUB_FNS: &[(&str, &str)] = &[
    ("add_eq", "LP modelling API: the solver tests build `=` rows with it"),
    ("add_ge", "LP modelling API: the solver tests build `>=` rows with it"),
    ("ancestors", "graph query held by the dgraph property tests"),
    ("apply_overrides", "the paper's manual tag-override hatch (section 3.2), held by the inference tests"),
    ("condensation", "SCC condensation held by the dgraph property tests"),
    ("demand_at_criticality", "the apps calibration tests measure C1 demand with it"),
    ("depth_levels", "longest-path depths held by the dgraph property tests"),
    ("descendants", "graph query held by the dgraph property tests"),
    ("first_topology_violation", "the planner_props oracle for app_rank orders"),
    ("inherit_stub_tags", "the paper's single-upstream stub rule (section 3.2), held by the tagging tests"),
    ("is_feasible", "the solver tests' feasibility oracle"),
    ("reachable_from", "reachability oracle of the dgraph unit and property tests"),
    ("set_objective", "LP modelling API: the solver tests set objectives from terms with it"),
    ("single_upstream_fraction", "the paper's single-upstream statistic (section 3.2); the generator tests calibrate against it"),
    ("var_name", "the only reader of the variable names `add_var` records"),
    ("with_placement", "selects the full LP formulation that aggregate_and_full_agree_on_tiny_instances checks the default against"),
];

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// A source file up to its first `#[cfg(test)]`, with `//` comments
/// (doc comments included) stripped.
fn non_test_source(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("read source file");
    let code = text.split("#[cfg(test)]").next().unwrap_or_default();
    code.lines()
        .map(|line| line.split("//").next().unwrap_or_default())
        .collect::<Vec<_>>()
        .join("\n")
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The names of the `pub fn`s defined in `code`.
fn pub_fn_names(code: &str) -> Vec<String> {
    let mut names = Vec::new();
    for prefix in ["pub fn ", "pub const fn ", "pub unsafe fn "] {
        for (at, _) in code.match_indices(prefix) {
            if code[..at].ends_with(is_ident) {
                continue;
            }
            let rest = &code[at + prefix.len()..];
            let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
            names.push(name);
        }
    }
    names
}

/// Every identifier in `code` that is not the name of a `fn` definition.
fn named_idents(code: &str, out: &mut BTreeSet<String>) {
    let mut previous = "";
    for word in code.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty()) {
        if previous != "fn" {
            out.insert(word.to_string());
        }
        previous = word;
    }
}

/// ROADMAP aim 2, "no dead surface": every `pub fn` in the workspace's
/// library and binary sources is named by some non-test code (sources,
/// examples, benches, the `benchmark/` adapter), or is on
/// [`UNCALLED_PUB_FNS`] with a reason. Matching is by name over each
/// file up to its first `#[cfg(test)]`, comments stripped, so a name
/// shared with a called function or a field passes.
#[test]
fn no_public_fn_lacks_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    let mut defining = rust_files(&root.join("src"));
    for krate in &crates {
        defining.extend(rust_files(&krate.join("src")));
    }
    let mut naming = defining.clone();
    naming.extend(rust_files(&root.join("examples")));
    naming.extend(rust_files(&root.join("benchmark/src")));
    for krate in &crates {
        naming.extend(rust_files(&krate.join("benches")));
        naming.extend(rust_files(&krate.join("examples")));
    }

    let mut defined: BTreeMap<String, PathBuf> = BTreeMap::new();
    for path in &defining {
        for name in pub_fn_names(&non_test_source(path)) {
            defined.insert(name, path.strip_prefix(root).unwrap_or(path).to_path_buf());
        }
    }
    assert!(
        defined.len() > 100,
        "census found only {} pub fns",
        defined.len()
    );
    let mut named = BTreeSet::new();
    for path in &naming {
        named_idents(&non_test_source(path), &mut named);
    }

    let allowed: BTreeMap<&str, &str> = UNCALLED_PUB_FNS.iter().copied().collect();
    let mut problems = Vec::new();
    for (name, path) in &defined {
        if !named.contains(name) && !allowed.contains_key(name.as_str()) {
            problems.push(format!(
                "`pub fn {name}` ({}) has no non-test caller: delete it, make it \
                 private, or add it to UNCALLED_PUB_FNS with a reason",
                path.display()
            ));
        }
    }
    for (name, reason) in &allowed {
        if reason.trim().is_empty() {
            problems.push(format!("UNCALLED_PUB_FNS entry `{name}` has no reason"));
        }
        if !defined.contains_key(*name) {
            problems.push(format!(
                "UNCALLED_PUB_FNS lists `{name}`, which is no longer a pub fn"
            ));
        } else if named.contains(*name) {
            problems.push(format!(
                "UNCALLED_PUB_FNS lists `{name}`, which now has a caller: drop the entry"
            ));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn objectives_are_selectable_and_deterministic() {
    for objective in [ObjectiveKind::Fairness, ObjectiveKind::Cost] {
        let mut state = ClusterState::homogeneous(2, Resources::cpu(2.0));
        state.fail_node(NodeId::new(1));
        let plan_twice = || {
            PhoenixController::new(
                quickstart_workload(),
                PhoenixConfig::with_objective(objective),
            )
            .plan(&state)
            .target
            .pod_count()
        };
        assert_eq!(plan_twice(), plan_twice());
    }
}
