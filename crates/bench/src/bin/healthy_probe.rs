//! The healthy answer: how many changes the online differ reports per
//! epoch when nothing is wrong. No fault is injected anywhere, so every
//! change counted here is a false alarm.
//!
//! Recipe, for each seed S ∈ {42, 777} and each shape (epoch/window)
//! ∈ {1 s/30 s, 5 s/60 s}:
//!
//! * baseline: `tree_capture(8, S, 60)` through `BehaviorModel::build`
//!   and `stability::analyze`;
//! * current: the events of `tree_capture(8, S + 1, 120)` stamped less
//!   than 120 s after its first event, fed one by one to an
//!   `OnlineDiffer` over that baseline, then `finish`ed;
//! * counted: every snapshot, the final flush included, whose window is
//!   the full window width and starts at or after the current capture's
//!   first event.
//!
//! For each run it prints the epochs counted, the changes per counted
//! epoch overall and by signature (`groups` counts new and missing
//! groups), and how many counted epochs held no change at all.

use flowdiff::prelude::*;
use flowdiff_bench::{print_table, tree_capture};

/// Signatures in the order the table prints them.
const KINDS: [SignatureKind; 9] = [
    SignatureKind::Cg,
    SignatureKind::Fs,
    SignatureKind::Ci,
    SignatureKind::Dd,
    SignatureKind::Pc,
    SignatureKind::Pt,
    SignatureKind::Isl,
    SignatureKind::Crt,
    SignatureKind::Lu,
];

/// Changes of one run: per counted epoch, by signature then groups.
#[derive(Default)]
struct Tally {
    epochs: usize,
    healthy: usize,
    by_kind: [usize; KINDS.len()],
    groups: usize,
}

impl Tally {
    fn count(&mut self, snap: &EpochSnapshot) {
        let diff = &snap.diff;
        let changes = (diff.group_diffs.iter().flat_map(|g| &g.changes)).chain(&diff.infra);
        for change in changes {
            let at = KINDS
                .iter()
                .position(|&k| k == change.kind)
                .expect("a kind");
            self.by_kind[at] += 1;
        }
        self.groups += diff.new_groups.len() + diff.missing_groups.len();
        self.epochs += 1;
        self.healthy += usize::from(diff.change_count() == 0);
    }
}

fn main() {
    let shapes = [(1, 30), (5, 60)];
    println!("Healthy probe - changes per full-window epoch, no fault injected");
    println!(
        "baseline tree_capture(8, S, 60); current: first 120 s of tree_capture(8, S+1, 120)\n"
    );
    let mut headers = vec!["shape", "S", "epochs", "changes/epoch"];
    headers.extend(KINDS.iter().map(|k| k.name()));
    headers.extend(["groups", "healthy"]);
    let mut rows = Vec::new();
    for seed in [42, 777] {
        let (log, config) = tree_capture(8, seed, 60);
        let model = BehaviorModel::build(&log, &config);
        let stability = analyze(&log, &model, &config);
        let (current, _) = tree_capture(8, seed + 1, 120);
        let first = current.time_range().expect("a nonempty capture").0;
        let until = first.as_micros() + 120_000_000;
        for (epoch_s, window_s) in shapes {
            let config = FlowDiffConfig {
                online_epoch_us: epoch_s * 1_000_000,
                online_window_us: window_s * 1_000_000,
                ..config.clone()
            };
            let mut differ = OnlineDiffer::new(model.clone(), stability.clone(), &config);
            let mut tally = Tally::default();
            let full = |snap: &EpochSnapshot| {
                let (start, end) = snap.window;
                start >= first && end.saturating_since(start) == config.online_window_us
            };
            let events = current
                .events()
                .iter()
                .take_while(|e| e.ts.as_micros() < until);
            for event in events {
                for snap in differ.observe(event) {
                    if full(&snap) {
                        tally.count(&snap);
                    }
                }
            }
            if let Some(snap) = differ.finish().filter(|s| full(s)) {
                tally.count(&snap);
            }
            let per_epoch = |n: usize| format!("{:.1}", n as f64 / tally.epochs.max(1) as f64);
            let total = tally.by_kind.iter().sum::<usize>() + tally.groups;
            let mut row = vec![
                format!("{epoch_s} s/{window_s} s"),
                seed.to_string(),
                tally.epochs.to_string(),
                per_epoch(total),
            ];
            row.extend(tally.by_kind.iter().map(|&n| per_epoch(n)));
            row.push(per_epoch(tally.groups));
            row.push(tally.healthy.to_string());
            rows.push(row);
        }
    }
    print_table(&headers, &rows);
}
