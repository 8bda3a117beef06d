//! The benchmark's inputs, pinned: the wire bytes of the three
//! 320-server captures `benchmark/src/inputs.rs` generates at seed 42
//! (`L1`, `L2`) and one small one. The simulator may get faster; these
//! bytes may not move — every event, every rng draw and every timestamp
//! of the capture is in them. What may not come back is the scan that
//! made them slow to produce, and that is a count, not a timing.

use flowdiff::checkpoint::crc32;
use flowdiff_bench::{tree_capture, tree_scenario};

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
