//! FlowDiff configuration: the detectors' thresholds and the knobs an
//! operator sets.
//!
//! The thresholds each signature diff compares against are constants,
//! because no caller sets them (DESIGN.md §6 lists their sources).
//! Values follow the paper where it states them (20 ms delay bins, χ²
//! at p = 0.05, 3σ latency shifts).

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

/// Epoch length of the partial-correlation flow-count series,
/// microseconds.
pub const PC_EPOCH_US: u64 = 1_000_000;
/// Delay-distribution histogram bin width, microseconds (paper: 20 ms).
pub const DD_BIN_US: u64 = 20_000;
/// Maximum delay considered between dependent flows, microseconds.
pub const DD_WINDOW_US: u64 = 1_000_000;
/// χ² threshold for component-interaction changes (p = 0.05, 1 dof).
pub const CHI2_THRESHOLD: f64 = 3.84;
/// Alarm threshold on inter-switch latency shift (and on link
/// utilization), in multiples of the baseline standard deviation.
pub const ISL_SIGMA: f64 = 3.0;
/// Alarm threshold on controller response time shift, in multiples of
/// the baseline standard deviation.
pub const CRT_SIGMA: f64 = 3.0;
/// Alarm threshold on partial-correlation change (absolute Δr).
pub const PC_DELTA: f64 = 0.35;
/// Alarm threshold on relative flow-statistics change (0.5 = a 50 %
/// shift in mean bytes or flow rate); link utilization's too.
pub const FS_REL_CHANGE: f64 = 0.5;
/// Alarm threshold on delay-distribution peak shift, in bins.
pub const DD_PEAK_SHIFT_BINS: u32 = 1;
/// Number of intervals the reference log is split into for stability
/// analysis.
pub const STABILITY_INTERVALS: usize = 5;
/// Minimum fraction of intervals that must agree for a signature to be
/// considered stable.
pub const STABILITY_QUORUM: f64 = 0.8;
/// Ports above this value are treated as ephemeral when canonicalizing
/// task flows (the `*` in Figure 4).
pub const EPHEMERAL_PORT_FLOOR: u16 = 9_999;
/// Minimum samples (flows per edge pair, latency or counter samples) for
/// a DD, ISL, CRT or LU statistic to be compared.
pub const MIN_SAMPLES: usize = 5;

/// Operator-supplied domain knowledge and the knobs of the online,
/// supervised and served modes.
///
/// Defaults follow the paper where it states values: a 1-second
/// task-interleaving bound and `min_sup = 0.6` for frequent-pattern
/// mining.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowDiffConfig {
    /// IPs of special-purpose service nodes (DNS, NFS, …). Application
    /// nodes connected only through these are kept in separate groups.
    pub special_ips: BTreeSet<Ipv4Addr>,
    /// Task-automaton interleaving bound, microseconds (paper: 1 s).
    pub interleave_us: u64,
    /// Minimum support for frequent flow-sequence patterns (paper: 0.6).
    pub min_sup: f64,
    /// Gap after which a recurring 5-tuple counts as a new flow episode,
    /// microseconds.
    pub episode_gap_us: u64,
    /// Streaming record assembly: a partial flow with no activity for
    /// this long is finalized and emitted, bounding the assembler's
    /// in-flight state. Events pairing with a flow later than this (a
    /// `FlowMod` or `FlowRemoved` arriving more than the timeout after
    /// the flow's last report) no longer attach. The effective horizon
    /// is clamped to at least `episode_gap_us` so eviction can never
    /// merge what the batch extractor would split.
    pub partial_flow_timeout_us: u64,
    /// Streaming record assembly: events arriving up to this much out of
    /// time order are re-sequenced through a bounded buffer before
    /// assembly (useful when merging taps with clock skew). `0` — the
    /// default — disables buffering: events pass straight through and
    /// disorder is only *counted* (see
    /// [`IngestHealth`](crate::records::IngestHealth)). Unlike
    /// `partial_flow_timeout_us`, which bounds how long a flow may stay
    /// open, this bounds how long an *event* may be held back, so it
    /// should stay small (milliseconds, not seconds).
    pub reorder_slack_us: u64,
    /// Streaming record assembly: an event whose timestamp jumps more
    /// than this far beyond every timestamp seen so far is treated as a
    /// corrupt clock reading — dropped and counted
    /// ([`IngestHealth::time_jumps`](crate::records::IngestHealth)) —
    /// instead of fast-forwarding the eviction horizon and the online
    /// epoch clock into the far future. `0` — the default — disables
    /// the check (any gap is trusted, as befits archived batch logs);
    /// live taps reading possibly-corrupt bytes should set it to
    /// roughly the eviction horizon.
    pub max_time_jump_us: u64,
    /// Online mode: how often the live window is snapshotted and diffed
    /// against the baseline, microseconds.
    pub online_epoch_us: u64,
    /// Online mode: length of the sliding window the live model is
    /// built over, microseconds.
    pub online_window_us: u64,
    /// Crash safety: how many epochs pass between durable checkpoints
    /// of the streaming state in supervised online mode. `1` (the
    /// default) checkpoints at every epoch boundary — the tightest
    /// replay window; larger values trade replay work for checkpoint
    /// I/O. Must be nonzero (a watcher that never checkpoints simply
    /// doesn't pass `--checkpoint`).
    pub checkpoint_every_epochs: u64,
    /// Crash safety: how many times the supervised watch loop restarts
    /// the pipeline after a panic before giving up. `0` is valid and
    /// means fail-fast: the first panic is fatal.
    pub restart_budget: u32,
    /// Crash safety: base delay between supervised restarts,
    /// microseconds of wall time; doubles on every consecutive restart
    /// (exponential backoff). Must be nonzero so a crash loop cannot
    /// spin hot.
    pub restart_backoff_us: u64,
    /// Live ingest: capacity, in events, of each publisher
    /// connection's bounded decode queue. This is the backpressure
    /// knob of served mode — a slow diagnosis pipeline blocks the
    /// connection readers once their queues fill, which fills the
    /// kernel socket buffers, which stalls the publishers over TCP, so
    /// server-side memory stays bounded at roughly `connections ×
    /// ingest_queue_events` in-flight events. The bound is in events;
    /// the queue carries them in batches of at most that many (at most
    /// 64), one batch per slot, so it still holds no more than
    /// `ingest_queue_events` events. Must be nonzero (a zero-capacity
    /// rendezvous queue would deadlock a single-threaded consumer).
    pub ingest_queue_events: usize,
    /// Live ingest: how long (wall time) the cross-connection merge
    /// waits on a silent stream before releasing events past it. This
    /// is the detection-time vs. ordering-confidence knob of served
    /// mode: `0` — the default — disables the budget entirely and the
    /// merge blocks forever on every open stream (the strict ordering
    /// semantics every byte-identity test runs under); a nonzero budget
    /// bounds how long one stalled publisher can wedge epoch emission,
    /// at the price that a late burst from the stalled stream leans on
    /// `reorder_slack_us` to re-sequence. When nonzero it must be at
    /// least `ingest_heartbeat_us`, else healthy-but-quiet publishers
    /// are routinely waived.
    pub ingest_stall_timeout_us: u64,
    /// Live ingest: publishers send a heartbeat record at least this
    /// often (wall time) when they have no data, and the server treats
    /// a session silent for well past this as dead-but-open rather
    /// than quiet. `0` disables heartbeats.
    pub ingest_heartbeat_us: u64,
}

impl Default for FlowDiffConfig {
    fn default() -> Self {
        FlowDiffConfig {
            special_ips: BTreeSet::new(),
            interleave_us: 1_000_000,
            min_sup: 0.6,
            episode_gap_us: 2_000_000,
            partial_flow_timeout_us: 60_000_000,
            reorder_slack_us: 0,
            max_time_jump_us: 0,
            online_epoch_us: 5_000_000,
            online_window_us: 30_000_000,
            checkpoint_every_epochs: 1,
            restart_budget: 3,
            restart_backoff_us: 500_000,
            ingest_queue_events: 1_024,
            ingest_stall_timeout_us: 0,
            ingest_heartbeat_us: 0,
        }
    }
}

/// A rejected [`FlowDiffConfig`]: which field is out of range and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Name of the offending field.
    pub field: &'static str,
    /// What the constraint is.
    pub reason: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid config: {} {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl FlowDiffConfig {
    /// Sets the special-purpose node list (builder style).
    #[must_use]
    pub fn with_special_ips(mut self, ips: impl IntoIterator<Item = Ipv4Addr>) -> Self {
        self.special_ips = ips.into_iter().collect();
        self
    }

    /// True if `ip` is a marked special-purpose node.
    pub fn is_special(&self, ip: Ipv4Addr) -> bool {
        self.special_ips.contains(&ip)
    }

    /// Checks the config for values that would make analysis nonsensical
    /// or panic deep inside the pipeline (a zero epoch, an online window
    /// shorter than its epoch, a vacuous support threshold).
    /// Called by `OnlineDiffer::try_new` and the bench CLI; batch
    /// callers constructing configs by hand should call it too.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found, naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn nonzero(field: &'static str, v: u64) -> Result<(), ConfigError> {
            if v == 0 {
                return Err(ConfigError {
                    field,
                    reason: "must be nonzero",
                });
            }
            Ok(())
        }
        nonzero("episode_gap_us", self.episode_gap_us)?;
        nonzero("online_epoch_us", self.online_epoch_us)?;
        if !(self.min_sup > 0.0 && self.min_sup <= 1.0) {
            return Err(ConfigError {
                field: "min_sup",
                reason: "must be in (0, 1]",
            });
        }
        if self.online_window_us < self.online_epoch_us {
            return Err(ConfigError {
                field: "online_window_us",
                reason: "must be at least online_epoch_us",
            });
        }
        // A checkpoint cadence of zero epochs would checkpoint in a
        // tight loop (or divide by zero in cadence math); restart
        // backoff of zero would let a crash loop spin hot. A restart
        // budget of 0 is meaningful (fail fast) and deliberately passes.
        nonzero("checkpoint_every_epochs", self.checkpoint_every_epochs)?;
        nonzero("restart_backoff_us", self.restart_backoff_us)?;
        nonzero("ingest_queue_events", self.ingest_queue_events as u64)?;
        // A stall budget shorter than the heartbeat cadence would waive
        // healthy-but-quiet publishers between beats; both zero
        // (disabled) is the default and preserves strict blocking-merge
        // semantics.
        if self.ingest_stall_timeout_us > 0
            && self.ingest_stall_timeout_us < self.ingest_heartbeat_us
        {
            return Err(ConfigError {
                field: "ingest_stall_timeout_us",
                reason: "must be at least ingest_heartbeat_us when nonzero",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = FlowDiffConfig::default();
        assert_eq!(DD_BIN_US, 20_000);
        assert_eq!(c.interleave_us, 1_000_000);
        assert!((c.min_sup - 0.6).abs() < 1e-12);
    }

    #[test]
    fn special_ip_membership() {
        let c = FlowDiffConfig::default()
            .with_special_ips([Ipv4Addr::new(10, 200, 0, 1), Ipv4Addr::new(10, 200, 0, 2)]);
        assert!(c.is_special(Ipv4Addr::new(10, 200, 0, 1)));
        assert!(!c.is_special(Ipv4Addr::new(10, 0, 0, 1)));
    }

    #[test]
    fn default_config_validates() {
        assert_eq!(FlowDiffConfig::default().validate(), Ok(()));
    }

    fn rejected_field(c: FlowDiffConfig) -> &'static str {
        c.validate().expect_err("config should be rejected").field
    }

    #[test]
    fn validate_rejects_each_bad_field() {
        let base = FlowDiffConfig::default;
        assert_eq!(
            rejected_field(FlowDiffConfig {
                episode_gap_us: 0,
                ..base()
            }),
            "episode_gap_us"
        );
        assert_eq!(
            rejected_field(FlowDiffConfig {
                online_epoch_us: 0,
                ..base()
            }),
            "online_epoch_us"
        );
        for bad in [0.0, -0.25, 1.5] {
            assert_eq!(
                rejected_field(FlowDiffConfig {
                    min_sup: bad,
                    ..base()
                }),
                "min_sup"
            );
        }
        assert_eq!(
            rejected_field(FlowDiffConfig {
                online_epoch_us: 10_000_000,
                online_window_us: 5_000_000,
                ..base()
            }),
            "online_window_us"
        );
        assert_eq!(
            rejected_field(FlowDiffConfig {
                checkpoint_every_epochs: 0,
                ..base()
            }),
            "checkpoint_every_epochs"
        );
        assert_eq!(
            rejected_field(FlowDiffConfig {
                restart_backoff_us: 0,
                ..base()
            }),
            "restart_backoff_us"
        );
        assert_eq!(
            rejected_field(FlowDiffConfig {
                ingest_queue_events: 0,
                ..base()
            }),
            "ingest_queue_events"
        );
        assert_eq!(
            rejected_field(FlowDiffConfig {
                ingest_stall_timeout_us: 50_000,
                ingest_heartbeat_us: 200_000,
                ..base()
            }),
            "ingest_stall_timeout_us"
        );
    }

    #[test]
    fn stall_budget_zero_is_disabled_regardless_of_heartbeat() {
        // 0 = strict blocking merge (the PR 9 semantics); the
        // stall >= heartbeat cross-check only binds when the budget is
        // actually on.
        let c = FlowDiffConfig {
            ingest_stall_timeout_us: 0,
            ingest_heartbeat_us: 200_000,
            ..FlowDiffConfig::default()
        };
        assert_eq!(c.validate(), Ok(()));
        let on = FlowDiffConfig {
            ingest_stall_timeout_us: 200_000,
            ingest_heartbeat_us: 200_000,
            ..FlowDiffConfig::default()
        };
        assert_eq!(on.validate(), Ok(()));
    }

    #[test]
    fn zero_restart_budget_and_warmup_are_valid() {
        // budget 0 = fail fast on the first panic: a deliberate operating
        // point, not a misconfiguration. No restore warms up, so the
        // shortest valid window, one epoch, needs no knob beside it.
        let c = FlowDiffConfig {
            restart_budget: 0,
            online_window_us: 1_000_000,
            online_epoch_us: 1_000_000,
            ..FlowDiffConfig::default()
        };
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_accepts_boundary_fractions() {
        let c = FlowDiffConfig {
            min_sup: 1.0,
            ..FlowDiffConfig::default()
        };
        assert_eq!(c.validate(), Ok(()));
    }
}
