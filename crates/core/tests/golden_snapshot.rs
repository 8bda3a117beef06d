//! Golden-byte snapshots of the 320-server tree capture.
//!
//! The internal representation of the model pipeline is free to change
//! (dense entity IDs, flat maps, …) but the *serialized* form of
//! [`BehaviorModel`] and [`ModelDiff`] is an on-disk format: these tests
//! pin the exact bytes produced for a deterministic 320-server tree
//! capture (the Fig. 13b workload) against snapshots checked in under
//! `tests/data/`, so any refactor that perturbs serialization — key
//! order, field order, ID leakage — fails loudly. The diff's rendered
//! text — every change's kind, direction, components, time and
//! description, then the diagnosis report — is pinned the same way in
//! `tree320_changes.txt`, so a change to how a diff is stored cannot
//! move what an operator reads.
//!
//! To regenerate the snapshots after an *intentional* format change:
//!
//! ```text
//! cargo test -p flowdiff --test golden_snapshot -- --ignored
//! ```

use std::path::PathBuf;

use flowdiff::prelude::*;
use netsim::log::ControllerLog;
use netsim::topology::Topology;
use workloads::prelude::*;

/// `flowdiff_bench::tree_capture`: Section V-C's meshes on the paper's
/// 320-server tree (16 racks x 20 servers), fully seeded.
fn tree_capture(n_apps: usize, seed: u64, secs: u64) -> (ControllerLog, FlowDiffConfig) {
    let log = tree_mesh(Topology::tree(16, 20), n_apps, seed, secs)
        .run()
        .log;
    (log, FlowDiffConfig::default())
}

fn data_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

/// The two models the snapshots are built from: a baseline capture and
/// a same-workload capture under a different seed.
fn snapshot_inputs() -> (BehaviorModel, BehaviorModel, FlowDiffConfig) {
    let (baseline_log, config) = tree_capture(9, 42, 6);
    let (current_log, _) = tree_capture(9, 43, 6);
    let baseline = BehaviorModel::build(&baseline_log, &config);
    let current = BehaviorModel::build(&current_log, &config);
    (baseline, current, config)
}

fn model_bytes(model: &BehaviorModel) -> Vec<u8> {
    serde::to_vec(model)
}

fn diff_bytes(
    baseline: &BehaviorModel,
    current: &BehaviorModel,
    config: &FlowDiffConfig,
) -> Vec<u8> {
    let stability = StabilityReport::all_stable(baseline);
    let diff = flowdiff::diff::compare(baseline, current, &stability, config);
    serde::to_vec(&diff)
}

/// The diff as an operator reads it: one line per change in
/// [`ModelDiff`] order (matched groups, new groups, missing groups,
/// infrastructure), then the full diagnosis report.
fn changes_text(
    baseline: &BehaviorModel,
    current: &BehaviorModel,
    config: &FlowDiffConfig,
) -> String {
    use std::fmt::Write;

    let stability = StabilityReport::all_stable(baseline);
    let diff = flowdiff::diff::compare(baseline, current, &stability, config);
    let line = |out: &mut String, at: &str, c: &Change| {
        let components: Vec<String> = c.components.iter().map(|x| x.to_string()).collect();
        writeln!(
            out,
            "{at} [{}] {:?} ts={:?} {{{}}} {}",
            c.kind.name(),
            c.direction,
            c.ts.map(|t| t.as_micros()),
            components.join(", "),
            c.description()
        )
        .unwrap();
    };
    let mut out = String::new();
    for g in &diff.group_diffs {
        for c in &g.changes {
            line(&mut out, &format!("group {}->{}", g.ref_idx, g.cur_idx), c);
        }
    }
    for gi in &diff.new_groups {
        writeln!(out, "new group {gi}").unwrap();
    }
    for gi in &diff.missing_groups {
        writeln!(out, "missing group {gi}").unwrap();
    }
    for c in &diff.infra {
        line(&mut out, "infra", c);
    }
    write!(out, "{}", diagnose(&diff, current, &[], config)).unwrap();
    out
}

fn assert_matches_golden(actual: &[u8], file: &str) {
    let path = data_path(file);
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run \
             `cargo test -p flowdiff --test golden_snapshot -- --ignored` to create it",
            path.display()
        )
    });
    assert_eq!(
        golden.len(),
        actual.len(),
        "{file}: serialized length drifted"
    );
    if let Some(at) = golden.iter().zip(actual).position(|(g, a)| g != a) {
        panic!("{file}: serialized bytes drifted from golden snapshot at offset {at}");
    }
}

#[test]
fn tree320_model_bytes_match_golden_snapshot() {
    let (baseline, _, _) = snapshot_inputs();
    assert!(
        !baseline.records.is_empty() && !baseline.groups.is_empty(),
        "capture produced an empty model; the snapshot would be vacuous"
    );
    assert_matches_golden(&model_bytes(&baseline), "tree320_model.bin");
}

#[test]
fn tree320_diff_bytes_match_golden_snapshot() {
    let (baseline, current, config) = snapshot_inputs();
    assert_matches_golden(
        &diff_bytes(&baseline, &current, &config),
        "tree320_diff.bin",
    );
}

#[test]
fn tree320_changes_text_matches_golden_snapshot() {
    let (baseline, current, config) = snapshot_inputs();
    let path = data_path("tree320_changes.txt");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden text {} ({e})", path.display()));
    let actual = changes_text(&baseline, &current, &config);
    assert!(actual.lines().count() > 10, "the pinned diff is vacuous");
    if let Some((at, (g, a))) =
        (golden.lines().zip(actual.lines()).enumerate()).find(|(_, (g, a))| g != a)
    {
        panic!(
            "tree320_changes.txt line {}: want\n  {g}\ngot\n  {a}",
            at + 1
        );
    }
    assert_eq!(golden, actual, "tree320_changes.txt: line count drifted");
}

/// The model's fan-out clones each group's CG from the edge sets group
/// discovery classified instead of calling `ConnectivityGraph::build`;
/// the two must agree group by group.
#[test]
fn tree320_group_edges_equal_connectivity_build() {
    use flowdiff::signatures::connectivity::ConnectivityGraph;

    let (model, _, config) = snapshot_inputs();
    assert!(model.groups.iter().any(|g| !g.group.edges.is_empty()));
    for g in &model.groups {
        let records: Vec<FlowRecord> = (g.group.record_indices.iter())
            .map(|&i| model.records.get(i).expect("group record index in range"))
            .collect();
        let il = InternedLog::of(&records);
        let refs = il.refs();
        let built = ConnectivityGraph::build(&SignatureInputs::new(
            &refs,
            &il.catalog,
            model.span,
            &config,
        ));
        assert_eq!(built.edges, g.group.edges);
        assert_eq!(built.service_edges, g.group.service_edges);
        assert_eq!(built, g.connectivity);
    }
}

/// Serialization must also be a pure function of the model value:
/// building the same capture twice yields identical bytes (guards
/// against nondeterministic iteration order leaking into the format).
#[test]
fn tree320_model_bytes_are_deterministic() {
    let (a, _, _) = snapshot_inputs();
    let (b, _, _) = snapshot_inputs();
    assert_eq!(model_bytes(&a), model_bytes(&b));
}

#[test]
#[ignore = "writes the golden snapshots; run only on intentional format changes"]
fn regenerate_golden_snapshots() {
    let (baseline, current, config) = snapshot_inputs();
    let dir = data_path("");
    std::fs::create_dir_all(&dir).expect("create tests/data");
    let model = model_bytes(&baseline);
    let diff = diff_bytes(&baseline, &current, &config);
    std::fs::write(data_path("tree320_model.bin"), &model).expect("write model snapshot");
    std::fs::write(data_path("tree320_diff.bin"), &diff).expect("write diff snapshot");
    std::fs::write(
        data_path("tree320_changes.txt"),
        changes_text(&baseline, &current, &config),
    )
    .expect("write changes text");
    println!(
        "wrote tree320_model.bin ({} bytes), tree320_diff.bin ({} bytes) and tree320_changes.txt",
        model.len(),
        diff.len()
    );
}
