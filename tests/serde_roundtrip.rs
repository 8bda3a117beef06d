//! Serialization round-trips for the model cache / persistence path:
//! a [`BehaviorModel`] and a [`ModelDiff`] must survive
//! serialize -> deserialize bit-exact (`PartialEq`), or cached baselines
//! would silently drift from freshly built ones.

use flowdiff::prelude::*;
use openflow::types::Timestamp;
use workloads::prelude::*;

/// A 30 s webshop capture, `fault` injected at its timestamp.
fn captured_log(
    seed: u64,
    fault: Option<(Timestamp, Fault)>,
) -> (netsim::log::ControllerLog, FlowDiffConfig) {
    let lab = Lab::new();
    let mut sc = lab.webshop(seed, 30);
    if let Some((at, f)) = fault {
        sc.fault(at, f);
    }
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    (sc.run().log, config)
}

#[test]
fn behavior_model_round_trips() {
    let (log, config) = captured_log(7, None);
    let model = BehaviorModel::build(&log, &config);
    assert!(!model.groups.is_empty(), "scenario must produce a group");

    let bytes = serde::to_vec(&model);
    let back: BehaviorModel = serde::from_slice(&bytes).expect("model must deserialize");
    assert_eq!(model, back, "BehaviorModel must round-trip bit-exact");
}

#[test]
fn model_diff_round_trips() {
    // Diff a healthy baseline against a faulty run so the diff carries
    // changes of several kinds (per-group and infrastructure).
    let (log1, config) = captured_log(7, None);
    let s4 = Lab::new().node("S4");
    let (log2, _) = captured_log(
        8,
        Some((
            Timestamp::ZERO,
            Fault::HostSlowdown {
                host: s4,
                extra_us: 150_000,
            },
        )),
    );
    let m1 = BehaviorModel::build(&log1, &config);
    let m2 = BehaviorModel::build(&log2, &config);
    let stability = StabilityReport::all_stable(&m1);
    let diff = compare(&m1, &m2, &stability, &config);

    let bytes = serde::to_vec(&diff);
    let back: ModelDiff = serde::from_slice(&bytes).expect("diff must deserialize");
    assert_eq!(diff, back, "ModelDiff must round-trip bit-exact");
    assert_eq!(
        serde::to_vec(&back),
        bytes,
        "and re-encode to the same bytes"
    );

    // The stability report travels with cached baselines too.
    let bytes = serde::to_vec(&stability);
    let back: StabilityReport = serde::from_slice(&bytes).expect("report must deserialize");
    assert_eq!(stability, back, "StabilityReport must round-trip bit-exact");
}
