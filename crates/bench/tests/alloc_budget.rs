//! Heap allocations per event on the ingest path, counted by a global
//! allocator over a seeded 320-server capture (`tree_capture(8, 42,
//! 20)`: 8 meshes, 20 s, 23,925 events).
//!
//! - **Reader**: a connection reader's decode, `FlowEvent`s read off
//!   the frames of the capture's wire bytes in 16 KiB chunks
//!   ([`FrameDecoder::push_flow_events`]). Decoding each frame into an
//!   owned message and converting that made 16,076 allocations here,
//!   0.672 per event (a `PacketIn`'s payload, a `FlowMod`'s action
//!   list). Read off the borrowed views it makes 483, 0.020 per event:
//!   the rare other messages, which decode owned, and the decoder's
//!   window.
//! - **Assembler**: [`RecordAssembler::observe`] over the same events.
//!   With a waiting-hop list allocated per `PacketIn` it made 14,629,
//!   0.611 per event; with the first waiting hop held in the xid table
//!   it makes 6,835, 0.286 per event: each episode's hop list and the
//!   tables' growth.
//!
//! Counts are per thread, so the tests may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flowdiff::records::RecordAssembler;
use flowdiff_bench::tree_capture;
use netsim::log::{FlowEvent, FrameDecoder};

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's allocations while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The connection reader's read size.
const READ_CHUNK: usize = 16 * 1024;

#[test]
fn the_reader_allocates_almost_nothing_per_event() {
    let (log, _) = tree_capture(8, 42, 20);
    let wire = log.to_wire_bytes();
    let mut events: Vec<FlowEvent> = Vec::with_capacity(log.len());
    let mut decoder = FrameDecoder::new();
    let n = allocations(|| {
        for chunk in wire.chunks(READ_CHUNK) {
            decoder.push_flow_events(chunk, |item| events.push(item.expect("a clean capture")));
        }
        decoder.finish_flow_events(|item| events.push(item.expect("a clean capture")));
    });
    let want: Vec<FlowEvent> = log.events().iter().map(FlowEvent::from).collect();
    assert_eq!(events, want);
    let per_event = n as f64 / events.len() as f64;
    assert!(
        per_event <= 0.05,
        "{n} allocations over {} events: {per_event:.3} per event",
        events.len()
    );
}

#[test]
fn the_assembler_allocates_no_waiting_list_per_packet_in() {
    let (log, config) = tree_capture(8, 42, 20);
    let events: Vec<FlowEvent> = log.events().iter().map(FlowEvent::from).collect();
    let mut asm = RecordAssembler::new(&config);
    let n = allocations(|| {
        for ev in &events {
            asm.observe(ev);
        }
    });
    let per_event = n as f64 / events.len() as f64;
    assert!(
        per_event <= 0.35,
        "{n} allocations over {} events: {per_event:.3} per event",
        events.len()
    );
    assert!(!asm.finish().is_empty());
}
