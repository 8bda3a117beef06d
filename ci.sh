#!/usr/bin/env bash
# Local CI gate: build, test, lint, and format-check the workspace.
# Usage: ./ci.sh  (run from the repository root)
#
# Clippy and rustfmt steps are skipped with a warning when the
# components are not installed (minimal toolchains), so the
# build+test core always runs.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

step "cargo build --release"
cargo build --release

step "cargo test -q"
cargo test -q

step "flowdiff-bench watch smoke test (online mode)"
demo_dir="$(mktemp -d)"
trap 'rm -rf "$demo_dir"' EXIT
cargo run --release -q -p flowdiff-bench --bin flowdiff_cli -- demo "$demo_dir" >/dev/null
watch_out="$(cargo run --release -q -p flowdiff-bench --bin flowdiff-bench -- \
    watch "$demo_dir/baseline.fcap" "$demo_dir/current.fcap")"
printf '%s\n' "$watch_out" | tail -n 3
epochs="$(printf '%s\n' "$watch_out" | grep -c '^epoch ' || true)"
if [ "$epochs" -lt 1 ]; then
    echo "FAIL: watch emitted no epoch snapshots" >&2
    exit 1
fi
echo "watch emitted $epochs epoch snapshots"
if ! printf '%s\n' "$watch_out" | grep -q '^stats: .* interned'; then
    echo "FAIL: watch emitted no stats line" >&2
    exit 1
fi
printf '%s\n' "$watch_out" | grep '^stats: '

step "flowdiff-bench watch --resume (a checkpointed run is picked up where it left off)"
# The first run checkpoints every 7 epochs and saves its baseline as a
# bundle; the second resumes from that file against the bundle (the
# checkpoint names its baseline by content, so the capture and its bundle
# are one baseline) under a different --checkpoint-every (a supervisor
# knob the config fingerprint must not refuse) and has to print exactly
# the epoch lines the first run printed after its last checkpoint. A
# flipped last byte is refused: exit 2, `CRC mismatch`, no epoch lines.
ckpt="$demo_dir/watch.ckpt"
bundle="$demo_dir/baseline.fbas"
first_out="$(target/release/flowdiff-bench watch "$demo_dir/baseline.fcap" \
    "$demo_dir/current.fcap" --checkpoint "$ckpt" --checkpoint-every 7 \
    --save-baseline "$bundle")"
# Checkpoint bytes are canonical: a second run writes the same file
# (hash containers encode in key order, not in per-instance seed order).
target/release/flowdiff-bench watch "$demo_dir/baseline.fcap" \
    "$demo_dir/current.fcap" --checkpoint "$ckpt.again" --checkpoint-every 7 >/dev/null
if ! cmp "$ckpt" "$ckpt.again"; then
    echo "FAIL: two identical checkpointing runs wrote different checkpoint bytes" >&2
    exit 1
fi
resumed_out="$(target/release/flowdiff-bench watch "$bundle" \
    "$demo_dir/current.fcap" --resume "$ckpt" --checkpoint-every 1)"
printf '%s\n' "$resumed_out" | grep '^stats: resumed from '
resumed_epochs="$(printf '%s\n' "$resumed_out" | grep -c '^epoch ' || true)"
first_epochs="$(printf '%s\n' "$first_out" | grep -c '^epoch ' || true)"
if [ "$resumed_epochs" -lt 1 ] || [ "$resumed_epochs" -ge "$first_epochs" ]; then
    echo "FAIL: --resume replayed $resumed_epochs of $first_epochs epochs" >&2
    exit 1
fi
if ! diff <(printf '%s\n' "$first_out" | grep '^epoch ' | tail -n "$resumed_epochs") \
          <(printf '%s\n' "$resumed_out" | grep '^epoch '); then
    echo "FAIL: resumed epoch lines differ from the first run's tail" >&2
    exit 1
fi
echo "resumed run printed the last $resumed_epochs of $first_epochs epoch lines"
bad="$demo_dir/watch.bad.ckpt"
cp "$ckpt" "$bad"
size="$(wc -c < "$bad")"
last="$(tail -c 1 "$bad" | od -An -tu1 | tr -d ' ')"
# shellcheck disable=SC2059 # the octal escape is the format
printf "$(printf '\\%03o' $((last ^ 0x10)))" |
    dd of="$bad" bs=1 seek=$((size - 1)) conv=notrunc status=none
rc=0
bad_out="$(target/release/flowdiff-bench watch "$bundle" "$demo_dir/current.fcap" \
    --resume "$bad" 2>"$bad.err")" || rc=$?
bad_epochs="$(printf '%s\n' "$bad_out" | grep -c '^epoch ' || true)"
if [ "$rc" -ne 2 ] || ! grep -q 'CRC mismatch' "$bad.err" || [ "$bad_epochs" -ne 0 ]; then
    echo "FAIL: corrupt checkpoint exited $rc with $bad_epochs epoch lines," \
        "want exit 2, 'CRC mismatch' and 0 epoch lines" >&2
    cat "$bad.err" >&2
    exit 1
fi
echo "corrupt checkpoint refused: $(cat "$bad.err")"

step "flowdiff-bench serve/publish smoke test (live TCP ingest, epoch lines identical to watch)"
# The prebuilt binary is used directly: serve runs in the background
# while publish runs in the foreground, and two concurrent `cargo run`s
# would fight over the build lock.
bench_bin="target/release/flowdiff-bench"
# start_serve <stdout file> [serve flags...]: serves the demo baseline to
# two publishers in the background and waits for the listening line;
# sets $serve_pid and $addr.
start_serve() {
    local out="$1"
    shift
    "$bench_bin" serve "$demo_dir/baseline.fcap" --listen 127.0.0.1:0 --publishers 2 "$@" \
        > "$out" 2>"$out.err" &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on \([^ ]*\) .*/\1/p' "$out" 2>/dev/null)"
        [ -n "$addr" ] && return
        sleep 0.1
    done
    echo "FAIL: serve never printed its listening line" >&2
    cat "$out.err" >&2 || true
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
serve_out="$demo_dir/serve.out"
start_serve "$serve_out"
"$bench_bin" publish "$demo_dir/current.fcap" --connect "$addr" --connections 2
wait "$serve_pid"
grep '^stats: conn ' "$serve_out"
grep '^stats: ingest ' "$serve_out"
if ! diff <(printf '%s\n' "$watch_out" | grep '^epoch ') \
          <(grep '^epoch ' "$serve_out"); then
    echo "FAIL: served epoch lines differ from file-based watch" >&2
    exit 1
fi
echo "served epoch lines byte-identical to file-based watch"

step "flowdiff-bench serve --resume (a checkpointed live run is picked up where it left off)"
# A panic ends a run, and the next process resumes from the last
# checkpoint (DESIGN.md, One supervised loop). On a fresh server the
# publishers replay the whole capture from watermark 0; the resumed serve
# discards the events its checkpoint consumed and has to print exactly
# the epoch lines the first run printed after its last checkpoint.
serve_ckpt="$demo_dir/serve.ckpt"
ckpt_out="$demo_dir/serve_ckpt.out"
start_serve "$ckpt_out" --checkpoint "$serve_ckpt" --checkpoint-every 7
"$bench_bin" publish "$demo_dir/current.fcap" --connect "$addr" --connections 2 >/dev/null
wait "$serve_pid"
resumed_serve_out="$demo_dir/serve_resumed.out"
start_serve "$resumed_serve_out" --resume "$serve_ckpt"
"$bench_bin" publish "$demo_dir/current.fcap" --connect "$addr" --connections 2 >/dev/null
wait "$serve_pid"
grep '^stats: resumed from ' "$resumed_serve_out"
served_epochs="$(grep -c '^epoch ' "$ckpt_out" || true)"
resumed_served="$(grep -c '^epoch ' "$resumed_serve_out" || true)"
if [ "$resumed_served" -lt 1 ] || [ "$resumed_served" -ge "$served_epochs" ]; then
    echo "FAIL: serve --resume printed $resumed_served of $served_epochs epochs" >&2
    exit 1
fi
if ! diff <(grep '^epoch ' "$ckpt_out" | tail -n "$resumed_served") \
          <(grep '^epoch ' "$resumed_serve_out"); then
    echo "FAIL: resumed served epoch lines differ from the first run's tail" >&2
    exit 1
fi
echo "resumed serve printed the last $resumed_served of $served_epochs epoch lines"

step "flowdiff-bench serve with a permanently stalled publisher (stall budget liveness)"
# Conn 0's session stalls for 3s after 170 events against a 200ms stall
# budget and a 200ms heartbeat: the merge must waive it, epochs must
# keep flowing with its diffs suppressed, and the reaper must kill the
# dead socket and retire the session nobody resumes — the run completes
# while the publisher is still asleep.
stall_out="$demo_dir/serve_stall.out"
start_serve "$stall_out" --stall-ms 200 --heartbeat-ms 200
# The stalled conn's write fails once the reaper cuts it, so publish
# exits nonzero by design.
"$bench_bin" publish "$demo_dir/current.fcap" --connect "$addr" --connections 2 \
    --stall-after 170 --stall-ms 3000 || true
wait "$serve_pid"
grep '^stats: conn ' "$stall_out"
grep '^stats: ingest ' "$stall_out"
stall_epochs="$(grep -c '^epoch ' "$stall_out" || true)"
if [ "$stall_epochs" -lt 1 ]; then
    echo "FAIL: stalled publisher blocked all epoch emission" >&2
    exit 1
fi
if ! grep '^stats: ingest ' "$stall_out" | grep -q ' conn stalls'; then
    echo "FAIL: ingest health never counted the connection stall" >&2
    exit 1
fi
if ! grep -q 'ingest degraded' "$stall_out"; then
    echo "FAIL: no epoch was gated on the degraded ingest" >&2
    exit 1
fi
echo "merge released $stall_epochs epochs past the wedged publisher"

step "benchmark harness builds and tests against the workspace crates"
# benchmark/ is its own cargo workspace with path deps on crates/*: a
# public-API deletion that breaks it must fail here, not in the next
# benchmark run.
cargo test -q --manifest-path benchmark/Cargo.toml

step "benchmark traced pass (epoch_snapshot fed every in-window open each epoch)"
# The harness's traced model pass is the one caller that hands
# epoch_snapshot every in-window open episode every epoch instead of the
# touched ones, and it checks each epoch's record count against the real
# differ's: correctness only, no timing gate.
trace_out="$(benchmark/run.sh --workload serve_paced --seed 42 --seconds 3 --trace 1 | tail -n 1)"
printf '%s\n' "$trace_out" | cut -c1-160
case "$trace_out" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *)
        echo "FAIL: traced serve_paced run is not correct with 0 failed" >&2
        exit 1
        ;;
esac

step "benchmark traced pass, fanin_sharded (the harness seam)"
# The traced fanin_sharded pass drives flowdiff::harness_seam — the
# ShardedDiffer and ShardRouter names over the one differ, and
# IncrementalModelBuilder::merge + into_shard_model — and checks its
# epoch lines against the differ's: correctness only.
sharded_trace="$(benchmark/run.sh --workload fanin_sharded --seed 42 --seconds 3 --trace 1 | tail -n 1)"
printf '%s\n' "$sharded_trace" | cut -c1-160
case "$sharded_trace" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *)
        echo "FAIL: traced fanin_sharded run is not correct with 0 failed" >&2
        exit 1
        ;;
esac

step "serve memory follows the window, not the events served (serve_dense peak_rss_mb < 22)"
# The engine keeps no event the differ has observed, and the differ's
# assembler drops an eviction first seen before the window instead of
# handing it to the builder to be retired unread, so peak RSS follows
# the window: ~20.0 MiB here, run-to-run spread under 1 % (~23.4 MiB
# while such evictions reached the builder, ~26 MiB while a replay
# buffer held one 40 s epoch of 64-byte events, ~30 MiB while it held
# whole messages, 84 MiB when every event was kept).
rss_out="$(benchmark/run.sh --workload serve_dense --seed 42 --seconds 3 --trace 0 | tail -n 1)"
printf '%s\n' "$rss_out" | cut -c1-160
case "$rss_out" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *)
        echo "FAIL: serve_dense run is not correct with 0 failed" >&2
        exit 1
        ;;
esac
peak_rss_mb="$(printf '%s\n' "$rss_out" | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p')"
echo "INFO: serve_dense peak_rss_mb = $peak_rss_mb"
# Capture generation dominates set-up. Printed, not gated: one run on a
# shared box cannot hold a ratio; crates/bench/tests/golden_capture.rs
# guards the flow-table index by count instead.
echo "INFO: serve_dense setup_s =" \
    "$(printf '%s\n' "$rss_out" | sed -n 's/.*"setup_s": {"value": \([0-9.]*\).*/\1/p')"
if ! awk -v rss="$peak_rss_mb" 'BEGIN { exit !(rss > 0 && rss < 22) }'; then
    echo "FAIL: serve_dense peak_rss_mb is $peak_rss_mb, want < 22: is serve retaining events or out-of-window records?" >&2
    exit 1
fi

step "benchmark/Cargo.lock and BENCHMARK.json unchanged by the harness runs"
# The harness resolves crates/* through path deps, so a dependency edit
# in this workspace that changed its resolution would make cargo rewrite
# benchmark/Cargo.lock in place: fail here instead of benchmarking
# something else silently.
git diff --exit-code -- benchmark/Cargo.lock BENCHMARK.json

step "one differ, no lint waivers for wide signatures"
# OnlineDiffer is the only online differ (DESIGN.md, Rejected: the
# sharded differ), and the supervised loop takes a struct, not eight
# positional arguments. The sharded names the benchmark harness compiles
# against live in the seam module alone.
if grep -rnE 'AnyCheckpoint|allow\(clippy::(type_complexity|too_many_arguments)' crates/; then
    echo "FAIL: AnyCheckpoint or a type_complexity/too_many_arguments allow is back under crates/" >&2
    exit 1
fi
if grep -rnE 'ShardState|WorkerMsg|XidLedger|ShardKey|shard_of|capture_sharded|poison_worker|Shape::Sharded' crates/; then
    echo "FAIL: a piece of the sharded differ is back under crates/" >&2
    exit 1
fi
if grep -rnE 'ShardedDiffer|ShardRouter|ShardModel' crates/ | grep -v '^crates/core/src/harness_seam.rs:'; then
    echo "FAIL: a harness-seam name is used outside crates/core/src/harness_seam.rs" >&2
    exit 1
fi

step "one definition of each paper workload"
# The lab testbed, the Table I webshop and its seven problems, the
# Section V-D task run and shop background, and the Section V-C tree
# mesh are built by workloads::testbeds (DESIGN.md §3); everything else
# calls it.
if grep -rnF -e 'let pick = |tier: usize, k: usize|' -e 'install_services(&mut' \
    crates/ tests/ examples/ | grep -v '^crates/workloads/src/'; then
    echo "FAIL: a hand-written copy of the tree mesh or the lab assembly is back outside crates/workloads/src" >&2
    exit 1
fi
# Table I's slowdowns (rows 1 and 3), loss (row 2) and iperf transfer
# (row 7), and the shop app by name.
if grep -rnF -e 'extra_us: 120_000' -e 'extra_us: 250_000' -e 'rate: 0.05' \
    -e '9_999, lab.ip("S20")' -e '"shop"' \
    crates/ tests/ examples/ | grep -v '^crates/workloads/src/'; then
    echo "FAIL: a hand-written Table I problem or shop workload is back outside crates/workloads/src (use Lab::table1 / Lab::shop)" >&2
    exit 1
fi
# An isolated task run schedules its task at t = 2 s, however formatted.
if grep -rlPz 'sc\.task\(\s*Timestamp::from_secs\(2\),' crates/ tests/ examples/ |
    grep -v '^crates/workloads/src/'; then
    echo "FAIL: a hand-written isolated task run is back outside crates/workloads/src (use Lab::task_run)" >&2
    exit 1
fi

step "flowdiff-bench dispatches watch, serve and publish, nothing else"
# Fault injection is tier-1 tests driving the library (DESIGN.md,
# Rejected: drills as subcommands); the binary stays the product.
rc=0
"$bench_bin" crashdrill >/dev/null 2>"$demo_dir/unknown.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q '^unknown subcommand: crashdrill' "$demo_dir/unknown.err"; then
    echo "FAIL: flowdiff-bench crashdrill exited $rc, want 2 with 'unknown subcommand'" >&2
    exit 1
fi
arms=$(grep -c 'Some("' crates/bench/src/main.rs)
if [ "$arms" -ne 3 ]; then
    echo "FAIL: crates/bench/src/main.rs dispatches $arms subcommands, want 3" >&2
    exit 1
fi

step "one renderer of the epoch line"
# flowdiff renders each epoch's verdict (EpochSnapshot::verdict, DESIGN.md
# §4): no binary formats the `epoch ` line or diagnoses a snapshot itself
# outside its tests, and gating stays one (kind, reason) list, without a
# health enum whose healthy value is never stored.
for src in $(find crates/bench/src -name '*.rs' | sort); do
    if sed '/^#\[cfg(test)\]/,$d' "$src" | grep -nF -e 'flows  {' -e '.diagnose('; then
        echo "FAIL: $src renders an epoch line or diagnoses a snapshot itself: print EpochSnapshot::verdict" >&2
        exit 1
    fi
done
if grep -rn 'SignatureHealth' crates/; then
    echo "FAIL: SignatureHealth is back under crates/: gating is one (kind, reason) list" >&2
    exit 1
fi

step "one copy of the baseline"
# A differ shares the caller's baseline and a checkpoint names it by
# content hash (DESIGN.md, Crash-safe diagnosis): no differ hands out a
# copy to compare, and no restore warm-up knob comes back.
if grep -rn 'fn baseline(' crates/core/src; then
    echo "FAIL: a baseline() accessor is back under crates/core/src" >&2
    exit 1
fi
if grep -rn 'restore_warmup_us' crates/; then
    echo "FAIL: restore_warmup_us is back under crates/" >&2
    exit 1
fi

step "one recovery path"
# A panic ends the run and `--resume` starts the next process from the
# last checkpoint (DESIGN.md, One supervised loop): no unwind guard in
# the engine or the binaries outside their tests, and no restart knob.
for src in $(find crates/core/src crates/bench/src -name '*.rs' | sort); do
    if sed '/^#\[cfg(test)\]/,$d' "$src" | grep -nF 'catch_unwind'; then
        echo "FAIL: $src catches panics outside its tests: recovery is --resume" >&2
        exit 1
    fi
done
if grep -rnwE 'restart_budget|restart_backoff_us' crates/; then
    echo "FAIL: a restart knob is back under crates/" >&2
    exit 1
fi

step "thresholds are constants"
# The detectors' thresholds are `pub const`s in flowdiff::config
# (DESIGN.md §6), one source per threshold: none comes back as a
# FlowDiffConfig field beside its constant.
if grep -nE 'pub (epoch_us|dd_bin_us|dd_window_us|chi2_threshold|isl_sigma|crt_sigma|pc_delta|fs_rel_change|dd_peak_shift_bins|stability_intervals|stability_quorum|ephemeral_port_floor|min_samples):' \
    crates/core/src/config.rs; then
    echo "FAIL: a threshold is a FlowDiffConfig field again (crates/core/src/config.rs)" >&2
    exit 1
fi

step "simulator settings are constants"
# The deployment mode is the simulator's one setting; every other value
# is a `pub const` in netsim::config (DESIGN.md §6): neither SimConfig
# nor any of its former fields comes back under crates/netsim/src.
if grep -rnE 'pub struct SimConfig|pub (idle_timeout_s|hard_timeout_s|control_latency_us|control_jitter_us|controller_service_us|controller_jitter_us|switch_proc_us|packet_size|miss_send_len|rto_us|notify_flow_removed|echo_interval_s|stats_poll_interval_s|flow_table_capacity):' \
    crates/netsim/src; then
    echo "FAIL: a simulator setting is a field again (crates/netsim/src)" >&2
    exit 1
fi

step "results/ is what the binaries print"
# results/*.txt is the stdout of one run of each deterministic experiment
# binary (EXPERIMENTS.md, Archived outputs); fig13 prints wall-clock times
# and is not compared. A change that moves an experiment regenerates its
# file. The ten take about 3 s together.
for bin in table1 table2 table3 fig9 fig10 fig11 fig12 ablate_deployment ablate_minsup \
    healthy_probe; do
    "target/release/$bin" > "$demo_dir/$bin.txt"
    if ! diff "results/$bin.txt" "$demo_dir/$bin.txt"; then
        echo "FAIL: target/release/$bin no longer prints results/$bin.txt" >&2
        exit 1
    fi
done
echo "10 experiment binaries print their results/ files"

step "one window"
# The model builder holds each completion once: in its arrival-order
# inbox until the next boundary, then in the interned window (DESIGN.md,
# Incremental remodel). No keyed record map comes back beside them.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/model.rs |
    grep -nE 'RecordWindow|BTreeMap<\(Timestamp, FlowTuple\)'; then
    echo "FAIL: crates/core/src/model.rs keeps a second, keyed record window again" >&2
    exit 1
fi

step "the boundary places opens in one merge"
# An epoch boundary places the inbox's completions and the handed-over
# open versions in one merge pass over the window's tail (DESIGN.md,
# Incremental remodel, "Touched episodes only"): no per-key upsert, no
# per-key search for a key's opens, no mid-vector splice.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/model.rs |
    grep -nF -e 'fn upsert_opens' -e 'fn opens_of' -e '.splice('; then
    echo "FAIL: crates/core/src/model.rs places opens per key again" >&2
    exit 1
fi

step "ingest hands over batches"
# A reader sends each read's decoded events to the merge as batches, one
# channel message per batch (DESIGN.md, Live transport): no per-event
# channel comes back in the ingest path outside its tests.
if sed '/^#\[cfg(test)\]/,$d' crates/netsim/src/net.rs |
    grep -nF -e 'SyncSender<ControlEvent>' -e 'Receiver<ControlEvent>' -e 'sync_channel::<ControlEvent>'; then
    echo "FAIL: crates/netsim/src/net.rs carries single events over a channel again" >&2
    exit 1
fi

step "the connection reader converts no owned message"
# The reader builds each FlowEvent straight from its frame's borrowed
# message view (DESIGN.md, Live transport): outside its tests,
# crates/netsim/src/net.rs builds no ControlEvent to convert.
if sed '/^#\[cfg(test)\]/,$d' crates/netsim/src/net.rs | grep -nF 'FlowEvent::from('; then
    echo "FAIL: crates/netsim/src/net.rs converts owned messages into FlowEvents again" >&2
    exit 1
fi

step "open episodes live in one slab"
# RecordAssembler keeps its open episodes in one slab addressed by slot;
# the touched list and the pending hops hold slots, so the epoch boundary
# hashes no tuple (DESIGN.md, Incremental remodel, "Touched episodes
# only"). No tuple owns an episode list and no touched list is kept by
# tuple outside its tests.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/records.rs |
    grep -nF -e 'Vec<OpenEpisode>' -e 'Option<Vec<FlowTuple>>'; then
    echo "FAIL: crates/core/src/records.rs keeps open episodes or touched tuples by tuple again" >&2
    exit 1
fi

step "one checkpoint format, one corruption policy"
# The differ writes one sealed FDIFFCKP payload, and a corrupt byte
# anywhere is a refusal (DESIGN.md, Rejected: per-shard segment
# salvage): no segment layout, no salvaging load, no warm-up gate.
if grep -rnE 'FDIFFSEG|ShardedCheckpoint|salvag|Warming|CHECKPOINT_SINGLE' crates/; then
    echo "FAIL: a second checkpoint layout or recovery policy is back under crates/" >&2
    exit 1
fi

step "one signature fan-out, and it is serial"
# model.rs builds signatures from a window in exactly one function,
# shared by the batch build, the oracle and the online boundary; the
# thread pool that measured no faster stays deleted (DESIGN.md, Rejected).
model_rs=crates/core/src/model.rs
if grep -nE 'mpsc|AtomicUsize|thread::scope' "$model_rs"; then
    echo "FAIL: $model_rs has a thread pool again" >&2
    exit 1
fi
fan_outs=$(grep -c 'FlowStatsSig::build(' "$model_rs")
if [ "$fan_outs" -ne 1 ]; then
    echo "FAIL: $model_rs calls FlowStatsSig::build( $fan_outs times, want one fan-out" >&2
    exit 1
fi

step "the boundary copies no record"
# An epoch's model shares the builder's interned window and catalog
# copy-on-write and resolves records to address form only when read
# (DESIGN.md, Incremental remodel): model.rs neither resolves records
# nor clones a catalog outside its tests, and BehaviorModel holds no
# owned record list.
if sed '/^#\[cfg(test)\]/,$d' "$model_rs" | grep -nE 'resolve_record\(|catalog\.clone\(\)'; then
    echo "FAIL: $model_rs resolves records or clones a catalog again" >&2
    exit 1
fi
if sed -n '/^pub struct BehaviorModel {/,/^}/p' "$model_rs" | grep -n 'records: Vec<FlowRecord>'; then
    echo "FAIL: BehaviorModel holds its records as a Vec<FlowRecord> again" >&2
    exit 1
fi

step "the boundary folds panes"
# DD, PT, ISL and CRT build at a boundary from one partial per pane and a
# fold (DESIGN.md, Incremental remodel, "Pane partials"): model.rs never
# calls their whole-window build outside its tests.
if sed '/^#\[cfg(test)\]/,$d' "$model_rs" |
    grep -nE '(DelayDistribution|PhysicalTopology|InterSwitchLatency|ControllerResponse)::build\('; then
    echo "FAIL: $model_rs builds DD, PT, ISL or CRT over the whole window instead of folding panes" >&2
    exit 1
fi

step "integer statistics are exact sums"
# ISL, CRT, DD's nearest delays and FS's byte and packet counts sum
# integer samples exactly (flowdiff::stats::Moments, DESIGN.md, "The
# fold"): no pane partial holds raw f64 samples outside its tests, and
# the two-pass f64 fold whose bits followed sample order stays gone.
for src in crates/core/src/panes.rs crates/core/src/signatures/infra.rs \
    crates/core/src/signatures/delay.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$src" | grep -nF 'Vec<f64>'; then
        echo "FAIL: $src declares a Vec<f64> of samples again: keep per-key Moments" >&2
        exit 1
    fi
done
if grep -rnE '\.center\(\)|\.spread\(|Moments::(center|spread)' crates/core/src; then
    echo "FAIL: a two-pass Moments fold (center/spread) is back under crates/core/src" >&2
    exit 1
fi

step "the diff renders on read"
# A change carries its signature's typed change and formats its
# description only when read (DESIGN.md, Incremental remodel, "The diff
# renders on read"): no render, diff or change type under crates/core/src
# builds or stores description text outside its tests.
for src in $(find crates/core/src -name '*.rs' | sort); do
    if sed '/^#\[cfg(test)\]/,$d' "$src" | grep -nE 'description: (format!|String)'; then
        echo "FAIL: $src formats or stores a change description at the boundary again" >&2
        exit 1
    fi
done

step "one arrival stage, in front of the differ"
# records::Sequencer alone quarantines, counts disorder and re-sequences;
# the assembler behind it is a pure state machine (DESIGN.md, Robust
# ingestion), and the shims that kept two copies in lockstep stay gone.
core_src=crates/core/src
for pattern in 'config.reorder_slack_us' 'config.max_time_jump_us' 'BTreeMap<(Timestamp, u64)'; do
    found=$(grep -roF "$pattern" "$core_src" | wc -l)
    if [ "$found" -ne 1 ]; then
        echo "FAIL: '$pattern' appears $found times under $core_src, want 1 (the Sequencer)" >&2
        exit 1
    fi
done
if grep -rnE 'advance_now|OpaquePacketIn|StreamSource|serialize_head' crates/; then
    echo "FAIL: a second arrival-stage shim is back under crates/" >&2
    exit 1
fi

step "records bucket by their EdgeId, and no map trades SipHash for speed"
# Group discovery and the FS/CI/DD/PC builds index per-edge state by the
# record's interned EdgeId (DESIGN.md, Incremental remodel); hashing the
# packed (src, dst) pair per record is what they replaced. Maps keyed by
# values the network chooses keep the default hasher (DESIGN.md, "Not
# done: a faster hasher").
sig_src=crates/core/src/signatures
if grep -nF 'edge_key()' crates/core/src/groups.rs "$sig_src/flow_stats.rs" \
    "$sig_src/interaction.rs" "$sig_src/delay.rs" "$sig_src/correlation.rs"; then
    echo "FAIL: a group kernel hashes each record's edge_key() again" >&2
    exit 1
fi
if grep -rnE 'BuildHasherDefault|\bFx[A-Z]|ahash' "$core_src"; then
    echo "FAIL: a non-default hasher appeared under $core_src" >&2
    exit 1
fi

step "wire reads are checked"
# Every read of wire bytes checks its own bounds and returns a value
# (DESIGN.md, crates/openflow): openflow sizes no read by hand outside
# its tests, and payloads are plain Arc<[u8]>, not a vendored view type.
for src in crates/openflow/src/*.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$src" | grep -nF 'need('; then
        echo "FAIL: $src guards its reads with a hand-sized need() again" >&2
        exit 1
    fi
done
if grep -nF 'pub struct Bytes' crates/bytes/src/lib.rs; then
    echo "FAIL: crates/bytes defines a Bytes view type again" >&2
    exit 1
fi
if grep -rnF 'bytes::Bytes' crates/ tests/ examples/; then
    echo "FAIL: bytes::Bytes is used again" >&2
    exit 1
fi

step "core reads no wire message"
# The connection reader builds a netsim::log::FlowEvent from each
# decoded message, and that is all core reads (DESIGN.md, Live
# transport): outside its tests, no file under crates/core/src names
# OfpMessage.
for src in $(find crates/core/src -name '*.rs' | sort); do
    if sed '/^#\[cfg(test)\]/,$d' "$src" | grep -nF 'OfpMessage'; then
        echo "FAIL: $src reads a wire message (OfpMessage) outside its tests" >&2
        exit 1
    fi
done

step "cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

if cargo clippy --version >/dev/null 2>&1; then
    step "cargo clippy --all-targets -- -D warnings"
    cargo clippy --all-targets -- -D warnings
else
    echo "WARN: clippy not installed; skipping lint step" >&2
fi

if cargo fmt --version >/dev/null 2>&1; then
    step "cargo fmt --check"
    cargo fmt --check
else
    echo "WARN: rustfmt not installed; skipping format step" >&2
fi

step "CI passed"
