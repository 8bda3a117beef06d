//! Integration: invariants of the whole simulate-then-model stack on
//! larger topologies — control-log consistency, determinism, and
//! FlowDiff's topology inference against the ground-truth topology.

use std::collections::BTreeSet;

use flowdiff::prelude::*;
use netsim::prelude::*;
use openflow::messages::OfpMessage;
use workloads::prelude::*;

/// A moderate tree scenario with mesh traffic.
fn tree_scenario(seed: u64) -> (Topology, ControllerLog) {
    let topo = Topology::tree(4, 5);
    let hosts: Vec<std::net::Ipv4Addr> = topo.hosts().map(|(id, _)| topo.host_ip(id)).collect();
    let mut sc = Scenario::new(
        topo.clone(),
        seed,
        Timestamp::from_secs(1),
        Timestamp::from_secs(16),
    );
    let pairs = (0..hosts.len())
        .map(|i| (hosts[i], hosts[(i + 7) % hosts.len()], 8080))
        .collect();
    sc.mesh(OnOffMesh {
        pairs,
        process: OnOffProcess::default(),
        reuse_prob: 0.3,
        bytes_per_flow: 20_000,
    });
    (topo, sc.run().log)
}

#[test]
fn every_packet_in_has_a_flow_mod_reply() {
    let (_, log) = tree_scenario(3);
    assert!(log.packet_ins().count() > 100);
    let reply_xids: BTreeSet<_> = log.flow_mods().map(|(_, _, xid, _)| xid).collect();
    for (_, _, xid, _) in log.packet_ins() {
        assert!(
            reply_xids.contains(&xid),
            "PacketIn xid {xid} has no FlowMod reply"
        );
    }
}

#[test]
fn flow_mod_never_precedes_its_packet_in() {
    let (_, log) = tree_scenario(4);
    for (pi_ts, dpid, xid, _) in log.packet_ins() {
        let fm = log
            .flow_mods()
            .find(|(_, d, x, _)| *x == xid && *d == dpid)
            .expect("paired FlowMod");
        assert!(fm.0 >= pi_ts, "CRT must be non-negative");
    }
}

#[test]
fn log_events_are_time_ordered() {
    let (_, log) = tree_scenario(5);
    let ts: Vec<_> = log.events().iter().map(|e| e.ts).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn flow_removed_byte_counts_are_positive() {
    let (_, log) = tree_scenario(6);
    let mut n = 0;
    for (_, _, fr) in log.flow_removeds() {
        assert!(fr.byte_count > 0);
        assert!(fr.packet_count > 0);
        assert!(fr.byte_count >= fr.packet_count, "bytes >= packets");
        n += 1;
    }
    assert!(n > 100, "expirations must be plentiful: {n}");
}

#[test]
fn inferred_adjacencies_are_subset_of_ground_truth() {
    let (topo, log) = tree_scenario(7);
    let model = BehaviorModel::build(&log, &FlowDiffConfig::default());
    assert!(!model.topology.adjacencies.is_empty());
    for adj in &model.topology.adjacencies {
        let a = topo.node_of_dpid(adj.from).expect("known switch");
        let b = topo.node_of_dpid(adj.to).expect("known switch");
        assert!(
            topo.link_between(a, b).is_some(),
            "inferred adjacency {adj:?} does not exist physically"
        );
        // and the inferred ports are the real ports of that link
        assert_eq!(topo.port_towards(a, b), Some(adj.from_port));
        assert_eq!(topo.port_towards(b, a), Some(adj.to_port));
    }
}

#[test]
fn host_attachments_match_ground_truth() {
    let (topo, log) = tree_scenario(8);
    let model = BehaviorModel::build(&log, &FlowDiffConfig::default());
    assert!(!model.topology.host_attachment.is_empty());
    for (host_ip, (dpid, _port)) in &model.topology.host_attachment {
        let host = topo.host_by_ip(*host_ip).expect("known host");
        let sw = topo.node_of_dpid(*dpid).expect("known switch");
        assert!(
            topo.link_between(host, sw).is_some(),
            "host {host_ip} is not attached to {dpid}"
        );
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let (_, log) = tree_scenario(9);
        let model = BehaviorModel::build(&log, &FlowDiffConfig::default());
        (log.len(), model.records.len(), model.groups.len())
    };
    assert_eq!(run(), run());
}

#[test]
fn wire_codec_roundtrips_whole_log() {
    // Every message the simulator logs must survive the binary codec —
    // the log could have been captured off a real control channel.
    let (_, log) = tree_scenario(10);
    let mut bytes_total = 0usize;
    for ev in log.events().iter().take(2_000) {
        let encoded = openflow::wire::encode(&ev.msg, ev.xid);
        bytes_total += encoded.len();
        let (decoded, xid, used) = openflow::wire::decode(&encoded).expect("decode");
        assert_eq!(used, encoded.len());
        assert_eq!(xid, ev.xid);
        match (&decoded, &ev.msg) {
            (OfpMessage::PacketIn(a), OfpMessage::PacketIn(b)) => assert_eq!(a, b),
            (OfpMessage::FlowMod(a), OfpMessage::FlowMod(b)) => assert_eq!(a, b),
            (OfpMessage::FlowRemoved(a), OfpMessage::FlowRemoved(b)) => assert_eq!(a, b),
            _ => assert_eq!(decoded, ev.msg),
        }
    }
    assert!(bytes_total > 0);
}

#[test]
fn capture_persistence_preserves_the_model() {
    // Serialize a capture through the binary format and verify the
    // rebuilt model is identical — the on-disk path loses nothing.
    let (_, log) = tree_scenario(11);
    let bytes = log.to_wire_bytes();
    let reloaded = ControllerLog::from_wire_bytes(&bytes).expect("parse");
    assert_eq!(reloaded.len(), log.len());

    let config = FlowDiffConfig::default();
    let a = BehaviorModel::build(&log, &config);
    let b = BehaviorModel::build(&reloaded, &config);
    assert_eq!(a.records, b.records);
    assert_eq!(a.topology, b.topology);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.response, b.response);
    assert_eq!(a.utilization, b.utilization);
    assert_eq!(a.groups.len(), b.groups.len());
}

#[test]
fn hybrid_deployment_still_detects_host_faults() {
    // Section VI incremental deployment: only the core switch is
    // OpenFlow. Detection survives; localization granularity drops.
    let lab = Lab::hybrid();
    let config = FlowDiffConfig::default().with_special_ips(lab.catalog.special_ips());
    let capture = |seed: u64, fault: Option<Fault>| {
        let mut sc = lab.webshop(seed, 60);
        if let Some(f) = fault {
            sc.fault(Timestamp::ZERO, f);
        }
        sc.run().log
    };

    let l1 = capture(1, None);
    let baseline = BehaviorModel::build(&l1, &config);
    assert!(
        baseline.topology.adjacencies.is_empty(),
        "one OF hop infers no switch adjacency"
    );
    let stability = flowdiff::stability::analyze(&l1, &baseline, &config);
    let l2 = capture(
        2,
        Some(Fault::HostSlowdown {
            host: lab.node("S4"),
            extra_us: 150_000,
        }),
    );
    let current = BehaviorModel::build(&l2, &config);
    let diff = flowdiff::diff::compare(&baseline, &current, &stability, &config);
    let report = flowdiff::diagnosis::diagnose(&diff, &current, &[], &config);
    assert!(
        report
            .unknown
            .iter()
            .any(|c| c.kind == flowdiff::diagnosis::SignatureKind::Dd),
        "hybrid deployment must still catch the slowdown: {report}"
    );
}

#[test]
fn lab_and_tree_builders_are_routable() {
    for topo in [Topology::lab(), Topology::tree(8, 4)] {
        let hosts: Vec<_> = topo.hosts().map(|(id, _)| id).collect();
        let a = hosts[0];
        let b = *hosts.last().unwrap();
        let path = topo.shortest_path(a, b, |_| false).expect("connected");
        assert!(path.len() >= 3);
        assert!(path
            .iter()
            .skip(1)
            .rev()
            .skip(1)
            .all(|n| topo.node(*n).is_switch()));
    }
}
