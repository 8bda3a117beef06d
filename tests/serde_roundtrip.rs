//! Serialization round-trips for the model cache / persistence path:
//! a [`BehaviorModel`] and a [`ModelDiff`] must survive
//! serialize -> deserialize bit-exact (`PartialEq`), or cached baselines
//! would silently drift from freshly built ones.

use flowdiff::prelude::*;
use netsim::topology::Topology;
use openflow::types::Timestamp;
use workloads::prelude::*;

fn captured_log(
    seed: u64,
    fault: Option<(Timestamp, Fault)>,
) -> (netsim::log::ControllerLog, FlowDiffConfig) {
    let mut topo = Topology::lab();
    let (catalog, _) = install_services(&mut topo, "of7");
    let ip = |n: &str| topo.host_ip(topo.node_by_name(n).unwrap());
    let (s13, s4, s14, s25) = (ip("S13"), ip("S4"), ip("S14"), ip("S25"));
    let mut sc = Scenario::new(
        topo,
        seed,
        Timestamp::from_secs(1),
        Timestamp::from_secs(31),
    );
    sc.services(catalog.clone())
        .app(templates::three_tier(
            "app",
            vec![s13],
            vec![s4],
            vec![s14],
            None,
        ))
        .client(ClientWorkload {
            client: s25,
            entry_hosts: vec![s13],
            entry_port: 80,
            process: ArrivalProcess::poisson_per_sec(10.0),
            request_bytes: 2_048,
        });
    if let Some((at, f)) = fault {
        sc.fault(at, f);
    }
    let result = sc.run();
    let config = FlowDiffConfig::default().with_special_ips(catalog.special_ips());
    (result.log, config)
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
    let mut topo = Topology::lab();
    let (_, _) = install_services(&mut topo, "of7");
    let s4 = topo.node_by_name("S4").unwrap();
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
