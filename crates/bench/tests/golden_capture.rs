//! The paper's workloads, pinned: the wire bytes of the three
//! 320-server captures `benchmark/src/inputs.rs` generates at seed 42
//! (`L1`, `L2`) and one small one, and four captures of the Table I
//! webshop on the lab testbed (the `table1`, `flowdiff_cli demo` and
//! `ablate_deployment` inputs). The simulator may get faster; these
//! bytes may not move — every event, every rng draw and every timestamp
//! of the capture is in them. What may not come back is the scan that
//! made them slow to produce, and that is a count, not a timing.

use flowdiff::checkpoint::crc32;
use flowdiff_bench::{tree_capture, tree_scenario};
use workloads::prelude::*;

fn capture_crc(seed: u64, secs: u64) -> u32 {
    crc32(&tree_capture(8, seed, secs).0.to_wire_bytes())
}

#[test]
fn tree_capture_seed_42_60s_bytes_pinned() {
    assert_eq!(capture_crc(42, 60), 0xbabd_c5f8);
}

#[test]
fn tree_capture_seed_43_200s_bytes_pinned() {
    assert_eq!(capture_crc(43, 200), 0xa73a_9dc6);
}

#[test]
fn tree_capture_seed_7_30s_bytes_pinned() {
    assert_eq!(capture_crc(7, 30), 0xbd0f_721c);
}

#[test]
fn flow_tables_answer_from_their_indexes() {
    // One entry per call when the hash and deadline indexes answer;
    // ~140 (the mean table size here) when any per-packet call walks
    // the table.
    let stats = tree_scenario(8, 7, 30).run().stats;
    assert!(stats.table_ops > 0, "{stats:?}");
    assert!(
        stats.table_entries_examined <= 4 * stats.table_ops,
        "flow-table calls read {:.1} entries each: {stats:?}",
        stats.table_entries_examined as f64 / stats.table_ops as f64
    );
}

fn scenario_crc(sc: &Scenario) -> u32 {
    crc32(&sc.run().log.to_wire_bytes())
}

#[test]
fn webshop_seed_1_bytes_pinned() {
    assert_eq!(scenario_crc(&Lab::new().webshop(1, 60)), 0xd796_a637);
}

#[test]
fn webshop_demo_slowdown_seed_2_bytes_pinned() {
    let lab = Lab::new();
    let mut sc = lab.webshop(2, 60);
    sc.fault(
        Timestamp::ZERO,
        Fault::HostSlowdown {
            host: lab.node("S4"),
            extra_us: 150_000,
        },
    );
    assert_eq!(scenario_crc(&sc), 0xa5fa_854d);
}

#[test]
fn webshop_table1_iperf_seed_106_bytes_pinned() {
    let lab = Lab::new();
    let sc = lab.table1_scenario(106, Some(&lab.table1()[6]));
    assert_eq!(scenario_crc(&sc), 0x62f0_aea4);
}

#[test]
fn webshop_hybrid_lab_seed_1_bytes_pinned() {
    assert_eq!(scenario_crc(&Lab::hybrid().webshop(1, 60)), 0x7584_5e8d);
}
