//! Property-based tests for the simulator: conservation laws, control-
//! message pairing, and determinism over arbitrary workloads.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use proptest::prelude::*;

use netsim::config::Deployment;
use netsim::engine::Simulation;
use netsim::flows::{FlowPhase, FlowSpec};
use netsim::topology::Topology;
use openflow::match_fields::FlowKey;
use openflow::types::Timestamp;

/// A random workload: (src host idx, dst host idx, sport, bytes, start ms).
fn arb_workload() -> impl Strategy<Value = Vec<(usize, usize, u16, u64, u64)>> {
    prop::collection::vec(
        (
            0usize..8,
            0usize..8,
            10_000u16..60_000,
            64u64..100_000,
            0u64..5_000,
        ),
        1..40,
    )
}

fn run(workload: &[(usize, usize, u16, u64, u64)], seed: u64) -> Simulation {
    let topo = Topology::tree(4, 2);
    let hosts: Vec<Ipv4Addr> = topo.hosts().map(|(id, _)| topo.host_ip(id)).collect();
    let mut sim = Simulation::new(topo, Deployment::Reactive, seed);
    for &(s, d, sport, bytes, at_ms) in workload {
        if s == d {
            continue; // self-flows are not meaningful
        }
        let key = FlowKey::tcp(hosts[s], sport, hosts[d], 80);
        sim.schedule_flow(
            Timestamp::from_millis(1_000 + at_ms),
            FlowSpec::new(key, bytes, 5_000),
        );
    }
    sim.run_until(Timestamp::from_secs(120));
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_flow_terminates(workload in arb_workload()) {
        let sim = run(&workload, 7);
        let stats = sim.stats();
        prop_assert_eq!(
            stats.flows_completed + stats.flows_dead,
            stats.flows_started,
            "every started flow must end completed or dead"
        );
        for f in sim.flow_states() {
            prop_assert!(
                matches!(f.phase, FlowPhase::Completed | FlowPhase::Dead),
                "flow stuck in {:?}",
                f.phase
            );
        }
    }

    #[test]
    fn packet_ins_and_flow_mods_pair_one_to_one(workload in arb_workload()) {
        let mut sim = run(&workload, 11);
        let log = sim.take_log();
        let pi_xids: Vec<_> = log.packet_ins().map(|(_, _, x, _)| x).collect();
        let fm_xids: BTreeSet<_> = log.flow_mods().map(|(_, _, x, _)| x).collect();
        prop_assert_eq!(pi_xids.len(), fm_xids.len());
        // xids are unique per PacketIn and every one is answered
        let unique: BTreeSet<_> = pi_xids.iter().copied().collect();
        prop_assert_eq!(unique.len(), pi_xids.len());
        for x in &pi_xids {
            prop_assert!(fm_xids.contains(x));
        }
    }

    #[test]
    fn flow_removed_counters_cover_payload(workload in arb_workload()) {
        let mut sim = run(&workload, 13);
        let specs: Vec<(u64, u64)> = sim
            .flow_states()
            .iter()
            .map(|f| (f.spec.bytes, f.wire_bytes))
            .collect();
        // wire bytes never shrink below the payload (no loss configured)
        for (spec_bytes, wire_bytes) in specs {
            prop_assert!(wire_bytes >= spec_bytes || wire_bytes == 0);
        }
        let log = sim.take_log();
        for (_, _, fr) in log.flow_removeds() {
            prop_assert!(fr.byte_count > 0);
            prop_assert!(fr.packet_count > 0);
        }
    }

    #[test]
    fn log_is_time_ordered_after_finish(workload in arb_workload()) {
        let mut sim = run(&workload, 17);
        let log = sim.take_log();
        let ts: Vec<_> = log.events().iter().map(|e| e.ts).collect();
        prop_assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn same_seed_same_outcome(workload in arb_workload(), seed in 0u64..1_000) {
        let mut a = run(&workload, seed);
        let mut b = run(&workload, seed);
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.take_log(), b.take_log());
    }

    #[test]
    fn crt_is_nonnegative_and_bounded(workload in arb_workload()) {
        let mut sim = run(&workload, 23);
        let log = sim.take_log();
        for (pi_ts, dpid, xid, _) in log.packet_ins() {
            let fm = log
                .flow_mods()
                .find(|(_, d, x, _)| *x == xid && *d == dpid)
                .expect("paired FlowMod");
            let crt = fm.0.saturating_since(pi_ts);
            prop_assert!(crt > 0, "service takes nonzero time");
            // queueing is bounded by the workload size x service time
            prop_assert!(crt < 10_000_000, "CRT exploded: {crt}us");
        }
    }
}
