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

/// Dependency edges the layering forbids: `(crate, dependency, why)`.
const FORBIDDEN_DEPS: &[(&str, &str, &str)] = &[
    ("core", "phoenix-exec", POOL),
    ("cluster", "phoenix-exec", POOL),
    ("kubesim", "phoenix-exec", POOL),
    ("adaptlab", "phoenix-kubesim", PLANS_ONLY),
    ("adaptlab", "phoenix-scenarios", PLANS_ONLY),
];

const POOL: &str = "ROADMAP parks any parallel planner path until a recorded >= 1.3x row \
                    on host_cpus >= threads hardware earns it";
const PLANS_ONLY: &str = "AdaptLab grades plans; recoveries are graded by kubesim through \
                          phoenix-scenarios, the one interpreter of scenario documents";

/// Fails on every [`FORBIDDEN_DEPS`] edge of a crate `pick` accepts
/// that its `Cargo.toml` lists under `[dependencies]`.
fn assert_no_forbidden_deps(pick: impl Fn(&str) -> bool) {
    let root = env!("CARGO_MANIFEST_DIR");
    for &(krate, dep, why) in FORBIDDEN_DEPS.iter().filter(|e| pick(e.0)) {
        let path = format!("{root}/crates/{krate}/Cargo.toml");
        let manifest = std::fs::read_to_string(&path).expect("read crate manifest");
        // The `[dependencies]` table runs to the next `[table]` header.
        let deps = manifest
            .split_once("\n[dependencies]\n")
            .map_or("", |(_, rest)| rest.split("\n[").next().unwrap_or(""));
        let listed = deps.lines().any(|l| l.trim_start().starts_with(dep))
            || manifest.contains(&format!("[dependencies.{dep}]"));
        assert!(
            !listed,
            "crates/{krate}/Cargo.toml lists {dep} under [dependencies]: {why}"
        );
    }
}

/// ROADMAP's Parked rule, as a test: the planner layers (`core`, and the
/// `cluster` packer and `kubesim` simulator it runs inside) stay
/// sequential, so none of them may depend on the `phoenix-exec` pool. Only
/// the evaluation stack above them fans out.
#[test]
fn planner_layers_do_not_depend_on_the_pool() {
    assert_no_forbidden_deps(|krate| ["core", "cluster", "kubesim"].contains(&krate));
}

/// AdaptLab scores plans against a failed cluster; it neither simulates
/// recoveries nor reads scenario documents, so `phoenix-scenarios` stays
/// the only interpreter of event kinds.
#[test]
fn adaptlab_grades_plans_not_recoveries() {
    assert_no_forbidden_deps(|krate| krate == "adaptlab");
}

/// Public functions in `crates/*/src` and `src` that no non-test source,
/// example, bench or `benchmark/src` file calls, each with the reason it
/// stays public. [`no_public_fn_lacks_a_caller`] fails when an entry
/// gains a caller or stops existing, so the list cannot grow silently.
const UNCALLED_PUB_FNS: &[(&str, &str)] = &[
    ("apply_overrides", "the paper's manual tag-override hatch (section 3.2), held by the inference tests"),
    ("demand_at_criticality", "the apps calibration tests measure C1 demand with it"),
    ("first_topology_violation", "the planner_props oracle for app_rank orders"),
    ("inherit_stub_tags", "the paper's single-upstream stub rule (section 3.2), held by the tagging tests"),
    ("is_feasible", "the solver tests' feasibility oracle"),
    ("single_upstream_fraction", "the paper's single-upstream statistic (section 3.2); the generator tests calibrate against it"),
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

/// A source file up to its first `#[cfg(test)]`, without comments and
/// with every string and char literal emptied, so neither the names nor
/// the braces inside them count.
fn non_test_source(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("read source file");
    let code: Vec<char> = text
        .split("#[cfg(test)]")
        .next()
        .unwrap_or_default()
        .chars()
        .collect();
    let at = |i: usize| code.get(i).copied().unwrap_or('\0');
    let mut out = String::with_capacity(code.len());
    let mut i = 0;
    while i < code.len() {
        let c = code[i];
        let after_ident = i > 0 && is_ident(code[i - 1]);
        if c == '/' && at(i + 1) == '/' {
            while i < code.len() && code[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < code.len() {
                if code[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if code[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == 'r'
            && (!after_ident || (at(i - 1) == 'b' && !is_ident(at(i.wrapping_sub(2)))))
            && matches!(at(i + 1), '"' | '#')
        {
            let hashes = code[i + 1..].iter().take_while(|&&h| h == '#').count();
            if at(i + 1 + hashes) != '"' {
                out.push(c);
                i += 1;
                continue;
            }
            i += hashes + 2;
            while i < code.len() && !(code[i] == '"' && (1..=hashes).all(|k| at(i + k) == '#')) {
                i += 1;
            }
            i += hashes + 1;
            out.push_str("\"\"");
        } else if c == '"' {
            i += 1;
            while i < code.len() && code[i] != '"' {
                i += if code[i] == '\\' { 2 } else { 1 };
            }
            i += 1;
            out.push_str("\"\"");
        } else if c == '\'' && (at(i + 1) == '\\' || at(i + 2) == '\'') {
            // Past the opening quote and the (possibly escaped) char.
            i += if at(i + 1) == '\\' { 3 } else { 2 };
            while i < code.len() && code[i] != '\'' {
                i += 1;
            }
            i += 1;
            out.push_str("''");
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `code` as tokens: each identifier (or number) whole, each other
/// non-blank character alone.
fn tokens(code: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut word = String::new();
    for c in code.chars() {
        if is_ident(c) {
            word.push(c);
            continue;
        }
        if !word.is_empty() {
            tokens.push(std::mem::take(&mut word));
        }
        if !c.is_whitespace() {
            tokens.push(c.to_string());
        }
    }
    if !word.is_empty() {
        tokens.push(word);
    }
    tokens
}

/// The live sources of the workspace: the files that define its public
/// surface (`src`, `crates/*/src`), and those plus every other non-test
/// file that can use it (examples, benches, the `benchmark/` adapter).
fn live_sources(root: &Path) -> (Vec<PathBuf>, Vec<PathBuf>) {
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
    (defining, naming)
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

/// Identifiers of `code` that name something, split by where they stand:
/// outside every fn body into `outside`, and inside the body of an
/// outermost fn into that fn's entry of `bodies`. The name a `fn`
/// definition gives is not a use of it.
fn split_names(
    code: &str,
    outside: &mut BTreeSet<String>,
    bodies: &mut Vec<(String, BTreeSet<String>)>,
) {
    let tokens = tokens(code);
    let defines = |i: usize| i > 0 && tokens[i - 1] == "fn";
    let mut i = 0;
    while i < tokens.len() {
        let is_fn = tokens[i] == "fn" && tokens.get(i + 1).is_some_and(|t| t.starts_with(is_ident));
        if !is_fn {
            if !defines(i) {
                outside.insert(tokens[i].clone());
            }
            i += 1;
            continue;
        }
        let name = tokens[i + 1].clone();
        i += 2;
        while i < tokens.len() && tokens[i] != "{" && tokens[i] != ";" {
            outside.insert(tokens[i].clone());
            i += 1;
        }
        if tokens.get(i).is_some_and(|t| t == ";") {
            continue;
        }
        let mut body = BTreeSet::new();
        let mut depth = 0;
        while i < tokens.len() {
            match tokens[i].as_str() {
                "{" => depth += 1,
                "}" => depth -= 1,
                _ if !defines(i) => {
                    body.insert(tokens[i].clone());
                }
                _ => {}
            }
            i += 1;
            if depth == 0 {
                break;
            }
        }
        bodies.push((name, body));
    }
}

/// ROADMAP aim 2, "no dead surface": every `pub fn` in the workspace's
/// library and binary sources is named by live non-test code (sources,
/// examples, benches, the `benchmark/` adapter), or is on
/// [`UNCALLED_PUB_FNS`] with a reason. Each file counts up to its first
/// `#[cfg(test)]`, without comments and string contents. Names outside
/// any fn body and inside the bodies of non-`pub` fns are live; the body
/// of a `pub fn` joins them only once its own name is live and it is not
/// on the list, repeated until nothing changes, so a function called only
/// by uncalled ones is reported too.
///
/// Matching is by name: a `pub fn` that shares its name with a called
/// function, method or field (`len`, `new`, `to_json`) passes. The compile
/// census in the verify skill (`.claude/skills/verify/SKILL.md`) closes
/// that blind spot.
#[test]
fn no_public_fn_lacks_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (defining, naming) = live_sources(root);

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
    let allowed: BTreeMap<&str, &str> = UNCALLED_PUB_FNS.iter().copied().collect();

    let mut named = BTreeSet::new();
    let mut bodies = Vec::new();
    for path in &naming {
        split_names(&non_test_source(path), &mut named, &mut bodies);
    }
    let (pub_bodies, other_bodies): (Vec<_>, Vec<_>) = bodies
        .into_iter()
        .partition(|(name, _)| defined.contains_key(name));
    for (_, idents) in other_bodies {
        named.extend(idents);
    }
    let mut pending = pub_bodies;
    loop {
        let (live, dormant): (Vec<_>, Vec<_>) = pending
            .into_iter()
            .partition(|(name, _)| named.contains(name) && !allowed.contains_key(name.as_str()));
        if live.is_empty() {
            break;
        }
        for (_, idents) in live {
            named.extend(idents);
        }
        pending = dormant;
    }

    let mut problems = Vec::new();
    for (name, path) in &defined {
        if !named.contains(name) && !allowed.contains_key(name.as_str()) {
            problems.push(format!(
                "`pub fn {name}` ({}) has no live non-test caller: delete it, make it \
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

/// `pub` fields of `pub struct *Config`s that no live non-test code sets,
/// as `Struct::field`, each with the reason it stays a knob.
/// [`no_config_field_lacks_a_setter`] fails when an entry gains a setter
/// or stops existing.
const UNSET_CONFIG_FIELDS: &[(&str, &str)] = &[
    (
        "PackingConfig::max_pods_per_node",
        "the paper's per-node pod limit (section 4), an operator constraint stateful_props sweeps",
    ),
    (
        "SimConfig::latency",
        "ROADMAP items 1 and 4 rework LatencyModel, and item 4's oracle sets every latency \
         to a fixed value",
    ),
];

/// The index past the bracket that closes the one opening at `tokens[open]`.
fn past_close(tokens: &[String], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return i + 1;
        }
    }
    tokens.len()
}

/// Every `pub struct *Config { .. }` in `tokens` that has `pub` fields,
/// with those fields as `Struct::field`.
fn config_fields(tokens: &[String]) -> Vec<(String, Vec<String>)> {
    let mut configs = Vec::new();
    for (at, w) in tokens.windows(4).enumerate() {
        if !(w[0] == "pub" && w[1] == "struct" && w[2].ends_with("Config") && w[3] == "{") {
            continue;
        }
        let body = &tokens[at + 4..past_close(tokens, at + 3) - 1];
        let fields: Vec<String> = (body.windows(3))
            .filter(|f| f[0] == "pub" && f[2] == ":")
            .map(|f| format!("{}::{}", w[2], f[1]))
            .collect();
        if !fields.is_empty() {
            configs.push((w[2].clone(), fields));
        }
    }
    configs
}

/// The config fields `tokens` writes, as `Struct::field`: each field a
/// struct literal of one of `structs` gives (`S { field: v, short, .. }`,
/// outside the configs' own `impl Default`s), credited to the struct that
/// literal builds; and each field assigned to (`.field = v`,
/// `.field |= v`), credited by name to every one of `structs` the file
/// names.
fn set_fields(tokens: &[String], structs: &BTreeSet<String>, set: &mut BTreeSet<String>) {
    let mut assigned = BTreeSet::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = tokens[i].as_str();
        let next = |k: usize| tokens.get(i + k).map_or("", String::as_str);
        if t == "impl" && next(1) == "Default" && next(2) == "for" && structs.contains(next(3)) {
            // The defaults are the values no caller chose.
            i = past_close(tokens, i + 4);
            continue;
        }
        let before = if i > 0 { tokens[i - 1].as_str() } else { "" };
        if structs.contains(t)
            && next(1) == "{"
            && !matches!(before, "struct" | "impl" | "for" | ">")
        {
            let end = past_close(tokens, i + 1);
            let mut j = i + 2;
            while j < end - 1 {
                let at = |k: usize| tokens.get(j + k).map_or("", String::as_str);
                let shorthand = matches!(at(1), "," | "}");
                let given = at(1) == ":" && at(2) != ":";
                let starts = matches!(tokens[j - 1].as_str(), "{" | ",");
                if starts && tokens[j].starts_with(is_ident) && (shorthand || given) {
                    set.insert(format!("{t}::{}", tokens[j]));
                }
                j = match tokens[j].as_str() {
                    "{" | "(" | "[" => past_close(tokens, j),
                    _ => j + 1,
                };
            }
        } else if before == "." && t.starts_with(is_ident) {
            let assigns = next(1) == "=" && next(2) != "=";
            let compound = matches!(next(1), "|" | "&" | "+" | "-" | "*") && next(2) == "=";
            if assigns || compound {
                assigned.insert(t);
            }
        }
        i += 1;
    }
    for name in structs.iter().filter(|s| tokens.contains(s)) {
        set.extend(assigned.iter().map(|field| format!("{name}::{field}")));
    }
}

/// ROADMAP aim 2, "fewer options", as the workspace's knob census: every
/// `pub` field of every `pub struct *Config` in `crates/*/src` and `src`
/// (up to each file's first `#[cfg(test)]`) is set by live non-test code
/// (the sources, examples, benches and `benchmark/` adapter counted as in
/// [`no_public_fn_lacks_a_caller`]), or is on [`UNSET_CONFIG_FIELDS`]
/// with a reason. A knob only tests turn is a constant.
///
/// A struct literal counts only for the struct it builds. An assignment
/// (`.field = v`) is matched by field name among the configs its file
/// names, so a write to a same-named field of another struct there still
/// counts: that is the guard's one blind spot.
#[test]
fn no_config_field_lacks_a_setter() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (defining, naming) = live_sources(root);
    let mut structs = BTreeSet::new();
    let mut fields: Vec<String> = Vec::new();
    for path in &defining {
        for (name, found) in config_fields(&tokens(&non_test_source(path))) {
            assert!(
                structs.insert(name.clone()),
                "`pub struct {name}` defined twice"
            );
            fields.extend(found);
        }
    }
    assert!(
        structs.len() >= 10,
        "census found only {} config structs",
        structs.len()
    );
    let mut set = BTreeSet::new();
    for path in &naming {
        set_fields(&tokens(&non_test_source(path)), &structs, &mut set);
    }
    let is_set = |field: &str| set.contains(field);
    let allowed: BTreeMap<&str, &str> = UNSET_CONFIG_FIELDS.iter().copied().collect();

    let mut problems = Vec::new();
    for field in &fields {
        if !is_set(field) && !allowed.contains_key(field.as_str()) {
            problems.push(format!(
                "`{field}` is set by no live non-test code: make it a constant, or add it \
                 to UNSET_CONFIG_FIELDS with a reason"
            ));
        }
    }
    for (field, reason) in &allowed {
        if reason.trim().is_empty() {
            problems.push(format!("UNSET_CONFIG_FIELDS entry `{field}` has no reason"));
        }
        if !fields.iter().any(|f| f == field) {
            problems.push(format!(
                "UNSET_CONFIG_FIELDS lists `{field}`, which is no longer a pub config field"
            ));
        } else if is_set(field) {
            problems.push(format!(
                "UNSET_CONFIG_FIELDS lists `{field}`, which now has a setter: drop the entry"
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
