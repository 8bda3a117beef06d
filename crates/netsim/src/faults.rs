//! Fault injection.
//!
//! Reproduces the seven operational problems of Table I plus the
//! additional problem classes of Figure 2(b): each fault perturbs a
//! specific mechanism of the simulator, and FlowDiff must recover the
//! perturbation purely from the control-traffic log.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::log::{encode_event, ControllerLog, CAPTURE_MAGIC};
use crate::topology::{LinkId, NodeId};

/// A fault to inject at a point in simulated time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Packet loss on a link (Table I #2, emulating `tc`): inflates byte
    /// counts via retransmissions and delays delivery.
    LinkLoss {
        /// The lossy link.
        link: LinkId,
        /// Loss probability per packet in `[0, 1]`.
        rate: f64,
    },
    /// Extra request-processing latency on a host, e.g. debug ("INFO")
    /// logging enabled by misconfiguration (Table I #1).
    HostSlowdown {
        /// The slowed host.
        host: NodeId,
        /// Extra per-request processing delay, microseconds.
        extra_us: u64,
    },
    /// A host or VM goes down entirely (Table I #5): originates nothing,
    /// answers nothing.
    HostDown {
        /// The dead host.
        host: NodeId,
    },
    /// An application on `host` listening on `port` crashes (Table I #4):
    /// requests still reach the host but trigger no processing.
    AppCrash {
        /// Host running the application.
        host: NodeId,
        /// Crashed service port.
        port: u16,
    },
    /// A firewall silently drops traffic to `host:port` (Table I #6).
    PortBlock {
        /// Protected host.
        host: NodeId,
        /// Blocked destination port.
        port: u16,
    },
    /// An OpenFlow switch fails (Figure 2(b), "switch failure"): flows
    /// are re-routed around it; in-flight packets die.
    SwitchFailure {
        /// The failed switch.
        switch: NodeId,
    },
    /// The controller becomes slow (Figure 2(b), "controller overhead"):
    /// service time multiplied by `factor`.
    ControllerOverload {
        /// Service-time multiplier (> 1).
        factor: f64,
    },
    /// The controller crashes (Figure 2(b), "controller failure"):
    /// `PacketIn` messages go unanswered, so new flows stall and die.
    ControllerDown,
    /// Clears a previously injected fault of the same shape (used to
    /// model transient problems).
    Clear(Box<Fault>),
}

/// The set of currently active faults, consulted by the engine on every
/// relevant decision.
#[derive(Debug, Clone, Default)]
pub struct ActiveFaults {
    link_loss: HashMap<LinkId, f64>,
    host_slowdown: HashMap<NodeId, u64>,
    hosts_down: HashSet<NodeId>,
    crashed_apps: HashSet<(NodeId, u16)>,
    blocked_ports: HashSet<(NodeId, u16)>,
    failed_switches: HashSet<NodeId>,
    controller_factor: f64,
    controller_down: bool,
}

impl ActiveFaults {
    /// No faults active.
    pub fn new() -> ActiveFaults {
        ActiveFaults {
            controller_factor: 1.0,
            ..ActiveFaults::default()
        }
    }

    /// Applies (or clears) a fault.
    pub fn apply(&mut self, fault: &Fault) {
        match fault {
            Fault::LinkLoss { link, rate } => {
                self.link_loss.insert(*link, rate.clamp(0.0, 1.0));
            }
            Fault::HostSlowdown { host, extra_us } => {
                self.host_slowdown.insert(*host, *extra_us);
            }
            Fault::HostDown { host } => {
                self.hosts_down.insert(*host);
            }
            Fault::AppCrash { host, port } => {
                self.crashed_apps.insert((*host, *port));
            }
            Fault::PortBlock { host, port } => {
                self.blocked_ports.insert((*host, *port));
            }
            Fault::SwitchFailure { switch } => {
                self.failed_switches.insert(*switch);
            }
            Fault::ControllerOverload { factor } => {
                self.controller_factor = factor.max(1.0);
            }
            Fault::ControllerDown => {
                self.controller_down = true;
            }
            Fault::Clear(inner) => self.clear(inner),
        }
    }

    fn clear(&mut self, fault: &Fault) {
        match fault {
            Fault::LinkLoss { link, .. } => {
                self.link_loss.remove(link);
            }
            Fault::HostSlowdown { host, .. } => {
                self.host_slowdown.remove(host);
            }
            Fault::HostDown { host } => {
                self.hosts_down.remove(host);
            }
            Fault::AppCrash { host, port } => {
                self.crashed_apps.remove(&(*host, *port));
            }
            Fault::PortBlock { host, port } => {
                self.blocked_ports.remove(&(*host, *port));
            }
            Fault::SwitchFailure { switch } => {
                self.failed_switches.remove(switch);
            }
            Fault::ControllerOverload { .. } => {
                self.controller_factor = 1.0;
            }
            Fault::ControllerDown => {
                self.controller_down = false;
            }
            Fault::Clear(inner) => self.apply(inner),
        }
    }

    /// Loss rate of a link (0.0 when healthy).
    pub fn loss_on(&self, link: LinkId) -> f64 {
        self.link_loss.get(&link).copied().unwrap_or(0.0)
    }

    /// Extra processing delay on a host, microseconds.
    pub fn slowdown_of(&self, host: NodeId) -> u64 {
        self.host_slowdown.get(&host).copied().unwrap_or(0)
    }

    /// True when the host is down.
    pub fn is_host_down(&self, host: NodeId) -> bool {
        self.hosts_down.contains(&host)
    }

    /// True when the application at `host:port` is crashed or firewalled.
    pub fn is_service_dead(&self, host: NodeId, port: u16) -> bool {
        self.crashed_apps.contains(&(host, port)) || self.blocked_ports.contains(&(host, port))
    }

    /// True when the switch is failed.
    pub fn is_switch_failed(&self, switch: NodeId) -> bool {
        self.failed_switches.contains(&switch)
    }

    /// Current controller service-time multiplier.
    pub fn controller_factor(&self) -> f64 {
        self.controller_factor
    }

    /// True when the controller is down.
    pub fn is_controller_down(&self) -> bool {
        self.controller_down
    }
}

/// A control-channel fault injector: mangles a clean capture into the
/// kind of telemetry a sick tap produces.
///
/// Unlike [`Fault`], which perturbs the *simulated data center*,
/// `ChannelChaos` perturbs the *capture itself* — the wire bytes between
/// the tap and FlowDiff. Each frame independently rolls one of four
/// corruptions (drop, duplicate, truncate, bit flip); on top of that,
/// every switch gets a deterministic clock skew and every frame a
/// bounded serialization jitter, so the mangled capture is also mildly
/// disordered. Everything is seeded: the same chaos config on the same
/// log yields the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelChaos {
    /// Probability a frame is dropped entirely.
    pub drop_prob: f64,
    /// Probability a frame is emitted twice back to back.
    pub duplicate_prob: f64,
    /// Probability a frame is cut short mid-bytes.
    pub truncate_prob: f64,
    /// Probability one random bit of a frame is flipped.
    pub bit_flip_prob: f64,
    /// Bound on per-frame serialization jitter, microseconds: each
    /// frame's position in the capture is re-sorted by `ts + U[0, bound]`,
    /// so frames are displaced at most this far in time.
    pub reorder_jitter_us: u64,
    /// Bound on per-switch clock skew, microseconds: each dpid gets a
    /// fixed offset drawn from `[-bound, +bound]` added to all its
    /// timestamps.
    pub clock_skew_us: u64,
    /// RNG seed; drives every roll above.
    pub seed: u64,
}

/// What [`ChannelChaos::mangle`] actually did to a capture — the ground
/// truth a robustness test compares `IngestHealth` counters against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Frames in the clean capture.
    pub total_frames: u64,
    /// Frames dropped.
    pub dropped: u64,
    /// Frames emitted twice.
    pub duplicated: u64,
    /// Frames cut short.
    pub truncated: u64,
    /// Frames with one bit flipped.
    pub bit_flipped: u64,
    /// Frames emitted with a timestamp below an earlier frame's (the
    /// disorder the skew + jitter introduced, as an ingester counts it).
    pub reordered: u64,
}

impl ChannelChaos {
    /// Chaos with `rate` total frame-corruption probability, split
    /// evenly across drop/duplicate/truncate/bit-flip, and no
    /// reorder/skew: the knob the corruption tests turn.
    pub fn corruption(rate: f64, seed: u64) -> ChannelChaos {
        let p = (rate / 4.0).clamp(0.0, 0.25);
        ChannelChaos {
            drop_prob: p,
            duplicate_prob: p,
            truncate_prob: p,
            bit_flip_prob: p,
            reorder_jitter_us: 0,
            clock_skew_us: 0,
            seed,
        }
    }

    /// Serializes `log` to wire bytes with chaos applied, returning the
    /// mangled capture and the ground-truth tally of what was done.
    pub fn mangle(&self, log: &ControllerLog) -> (Vec<u8>, ChaosReport) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut report = ChaosReport {
            total_frames: log.len() as u64,
            ..ChaosReport::default()
        };

        // Per-switch clock skew, then bounded per-frame jitter on the
        // serialization order.
        let mut skew_of: HashMap<u64, i64> = HashMap::new();
        let mut keyed: Vec<(u64, usize, crate::log::ControlEvent)> = Vec::with_capacity(log.len());
        for (idx, ev) in log.events().iter().enumerate() {
            let mut ev = ev.clone();
            if self.clock_skew_us > 0 {
                let bound = self.clock_skew_us as i64;
                let skew = *skew_of
                    .entry(ev.dpid.0)
                    .or_insert_with(|| rng.gen_range(-bound..=bound));
                ev.ts = openflow::types::Timestamp::from_micros(
                    ev.ts.as_micros().saturating_add_signed(skew),
                );
            }
            let jitter = if self.reorder_jitter_us > 0 {
                rng.gen_range(0..=self.reorder_jitter_us)
            } else {
                0
            };
            keyed.push((ev.ts.as_micros().saturating_add(jitter), idx, ev));
        }
        // Stable by (jittered ts, original index): displacement is
        // bounded by the jitter window, ties keep capture order.
        keyed.sort_by_key(|(key, idx, _)| (*key, *idx));

        let mut out = Vec::with_capacity(32 * log.len() + 8);
        out.extend_from_slice(CAPTURE_MAGIC);
        let mut frame = Vec::new();
        let mut last_emitted_ts: Option<u64> = None;
        for (_, _, ev) in &keyed {
            let roll: f64 = rng.gen();
            let drop_at = self.drop_prob;
            let dup_at = drop_at + self.duplicate_prob;
            let trunc_at = dup_at + self.truncate_prob;
            let flip_at = trunc_at + self.bit_flip_prob;
            if roll < drop_at {
                report.dropped += 1;
                continue;
            }
            frame.clear();
            encode_event(ev, &mut frame);
            if roll < dup_at {
                report.duplicated += 1;
                out.extend_from_slice(&frame);
                out.extend_from_slice(&frame);
            } else if roll < trunc_at {
                report.truncated += 1;
                let cut = rng.gen_range(1..frame.len());
                out.extend_from_slice(&frame[..cut]);
            } else if roll < flip_at {
                report.bit_flipped += 1;
                let byte = rng.gen_range(0..frame.len());
                let bit = rng.gen_range(0u32..8);
                frame[byte] ^= 1 << bit;
                out.extend_from_slice(&frame);
            } else {
                out.extend_from_slice(&frame);
            }
            let ts = ev.ts.as_micros();
            if last_emitted_ts.is_some_and(|prev| ts < prev) {
                report.reordered += 1;
            } else {
                last_emitted_ts = Some(ts);
            }
        }
        (out, report)
    }
}

/// A seeded process-kill schedule for crash-recovery drills: picks a
/// set of epoch indices at which the consumer of a capture should die
/// (panic, `kill -9`, power cut — the drill decides the mechanism).
/// Everything is seeded — the same `(seed, kills, total_epochs)` yields
/// the same schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPlan {
    planned: Vec<u64>,
}

impl CrashPlan {
    /// Plans up to `kills` distinct kill epochs drawn uniformly from
    /// `[1, total_epochs)` — epoch 0 is spared so every drill has at
    /// least one clean snapshot before the first death.
    pub fn seeded(seed: u64, kills: usize, total_epochs: u64) -> CrashPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut epochs = std::collections::BTreeSet::new();
        if total_epochs > 1 {
            let want = kills.min((total_epochs - 1) as usize);
            // Distinct draws; the range is tiny, so rejection converges
            // immediately.
            while epochs.len() < want {
                epochs.insert(rng.gen_range(1..total_epochs));
            }
        }
        CrashPlan {
            planned: epochs.into_iter().collect(),
        }
    }

    /// Every epoch the plan kills at, ascending.
    pub fn kill_epochs(&self) -> &[u64] {
        &self.planned
    }
}

/// One planned connection-level fault, fired by a session publisher at
/// a specific event offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Abrupt mid-stream death: flush what is framed, drop the socket
    /// without `End`, reconnect, and resume from the server's
    /// watermark.
    Disconnect,
    /// Write pause with the socket open for `ms` milliseconds — the
    /// healthy-but-wedged publisher the stall budget exists for.
    Stall { ms: u64 },
    /// Slow-loris: the next `events` events drip out in tiny records
    /// instead of full write chunks.
    Trickle { events: u64 },
}

/// A per-connection schedule of [`ConnFault`]s keyed by *events sent*.
/// Each entry fires **once** ([`ConnPlan::fire_at`] consumes it), so a
/// resumed attempt that replays past the same offset is not faulted
/// again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnPlan {
    at: Vec<(u64, ConnFault)>,
}

impl ConnPlan {
    /// A plan from explicit `(events_sent, fault)` pairs.
    pub fn at(mut faults: Vec<(u64, ConnFault)>) -> ConnPlan {
        faults.sort_by_key(|&(idx, _)| idx);
        ConnPlan { at: faults }
    }

    /// The scheduled `(events_sent, fault)` pairs, ascending, not yet
    /// fired.
    pub fn pending(&self) -> &[(u64, ConnFault)] {
        &self.at
    }

    /// True when nothing is left to fire.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// Consumes and returns every fault scheduled at exactly `sent`
    /// events.
    pub fn fire_at(&mut self, sent: u64) -> Vec<ConnFault> {
        let mut fired = Vec::new();
        self.at.retain(|&(idx, fault)| {
            if idx == sent {
                fired.push(fault);
                false
            } else {
                true
            }
        });
        fired
    }
}

/// A seeded connection-fault injector — the connection-lifecycle layer
/// over [`ChannelChaos`]'s byte-level mangling. Where `ChannelChaos`
/// corrupts what travels *inside* a connection, `ConnChaos` breaks the
/// connections themselves: mid-stream disconnects (flaps that exercise
/// session resume), write stalls (wedged-but-alive publishers), and
/// slow-loris trickle. Everything is derived from the seed: the same
/// `(ConnChaos, conn, total_events)` always yields the same
/// [`ConnPlan`], so a drill can be replayed bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnChaos {
    /// Mid-stream disconnects per connection.
    pub flaps: usize,
    /// Write stalls per connection.
    pub stalls: usize,
    /// Duration of each stall, milliseconds.
    pub stall_ms: u64,
    /// Slow-loris episodes per connection.
    pub trickles: usize,
    /// Events dripped per trickle episode.
    pub trickle_events: u64,
    /// Master seed; per-connection plans derive from it.
    pub seed: u64,
}

impl ConnChaos {
    /// A flap-only injector: `flaps` seeded mid-stream disconnects per
    /// connection, nothing else.
    pub fn flapping(flaps: usize, seed: u64) -> ConnChaos {
        ConnChaos {
            flaps,
            stalls: 0,
            stall_ms: 0,
            trickles: 0,
            trickle_events: 0,
            seed,
        }
    }

    /// The deterministic fault plan for connection `conn` over a stream
    /// of `total_events` events. Fault offsets are distinct draws from
    /// `[1, total_events)` — never before the first event or after the
    /// last, so every fault lands mid-stream.
    pub fn plan_for(&self, conn: u64, total_events: u64) -> ConnPlan {
        let mut rng = StdRng::seed_from_u64(self.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let want = self.flaps + self.stalls + self.trickles;
        if total_events < 2 || want == 0 {
            return ConnPlan::default();
        }
        let mut offsets = std::collections::BTreeSet::new();
        let want = want.min((total_events - 1) as usize);
        while offsets.len() < want {
            offsets.insert(rng.gen_range(1..total_events));
        }
        // Deal the drawn offsets to fault kinds in a seeded shuffle so
        // flaps, stalls, and trickles interleave across the stream.
        let mut kinds = Vec::with_capacity(want);
        for _ in 0..self.flaps {
            kinds.push(ConnFault::Disconnect);
        }
        for _ in 0..self.stalls {
            kinds.push(ConnFault::Stall { ms: self.stall_ms });
        }
        for _ in 0..self.trickles {
            kinds.push(ConnFault::Trickle {
                events: self.trickle_events,
            });
        }
        kinds.truncate(want);
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.gen_range(0..=i));
        }
        ConnPlan::at(offsets.into_iter().zip(kinds).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_and_clear_roundtrip() {
        let mut f = ActiveFaults::new();
        let fault = Fault::LinkLoss {
            link: LinkId(3),
            rate: 0.01,
        };
        f.apply(&fault);
        assert!((f.loss_on(LinkId(3)) - 0.01).abs() < 1e-12);
        f.apply(&Fault::Clear(Box::new(fault)));
        assert_eq!(f.loss_on(LinkId(3)), 0.0);
    }

    #[test]
    fn loss_rate_is_clamped() {
        let mut f = ActiveFaults::new();
        f.apply(&Fault::LinkLoss {
            link: LinkId(0),
            rate: 7.0,
        });
        assert_eq!(f.loss_on(LinkId(0)), 1.0);
    }

    #[test]
    fn service_dead_covers_crash_and_firewall() {
        let mut f = ActiveFaults::new();
        f.apply(&Fault::AppCrash {
            host: NodeId(1),
            port: 8080,
        });
        f.apply(&Fault::PortBlock {
            host: NodeId(2),
            port: 3306,
        });
        assert!(f.is_service_dead(NodeId(1), 8080));
        assert!(f.is_service_dead(NodeId(2), 3306));
        assert!(!f.is_service_dead(NodeId(1), 80));
        assert!(!f.is_service_dead(NodeId(3), 8080));
    }

    #[test]
    fn controller_factor_floor_is_one() {
        let mut f = ActiveFaults::new();
        assert_eq!(f.controller_factor(), 1.0);
        f.apply(&Fault::ControllerOverload { factor: 0.1 });
        assert_eq!(f.controller_factor(), 1.0);
        f.apply(&Fault::ControllerOverload { factor: 12.0 });
        assert_eq!(f.controller_factor(), 12.0);
        f.apply(&Fault::Clear(Box::new(Fault::ControllerOverload {
            factor: 12.0,
        })));
        assert_eq!(f.controller_factor(), 1.0);
    }

    #[test]
    fn controller_down_toggles() {
        let mut f = ActiveFaults::new();
        assert!(!f.is_controller_down());
        f.apply(&Fault::ControllerDown);
        assert!(f.is_controller_down());
        f.apply(&Fault::Clear(Box::new(Fault::ControllerDown)));
        assert!(!f.is_controller_down());
    }

    #[test]
    fn double_clear_is_idempotent() {
        let mut f = ActiveFaults::new();
        let fault = Fault::HostDown { host: NodeId(5) };
        f.apply(&Fault::Clear(Box::new(fault.clone())));
        assert!(!f.is_host_down(NodeId(5)));
        f.apply(&fault);
        assert!(f.is_host_down(NodeId(5)));
    }

    mod chaos {
        use super::super::*;
        use crate::log::{ControlEvent, Direction};
        use openflow::match_fields::OfMatch;
        use openflow::messages::{FlowMod, OfpMessage};
        use openflow::types::{DatapathId, Timestamp, Xid};

        fn sample_log(n: u64) -> ControllerLog {
            (0..n)
                .map(|i| ControlEvent {
                    ts: Timestamp::from_micros(1_000 + i * 500),
                    dpid: DatapathId(1 + i % 3),
                    direction: if i % 2 == 0 {
                        Direction::ToController
                    } else {
                        Direction::FromController
                    },
                    xid: Xid(i as u32),
                    msg: if i % 2 == 0 {
                        OfpMessage::Hello
                    } else {
                        OfpMessage::FlowMod(FlowMod::add(OfMatch::any(), 1))
                    },
                })
                .collect()
        }

        #[test]
        fn zero_chaos_is_the_identity() {
            let log = sample_log(40);
            let chaos = ChannelChaos::corruption(0.0, 1);
            let (bytes, report) = chaos.mangle(&log);
            assert_eq!(bytes, log.to_wire_bytes());
            assert_eq!(report.total_frames, 40);
            assert_eq!(
                report.dropped + report.duplicated + report.truncated + report.bit_flipped,
                0
            );
            assert_eq!(report.reordered, 0);
        }

        #[test]
        fn mangle_is_deterministic_per_seed() {
            let log = sample_log(60);
            let chaos = ChannelChaos {
                reorder_jitter_us: 2_000,
                clock_skew_us: 300,
                ..ChannelChaos::corruption(0.2, 7)
            };
            assert_eq!(chaos.mangle(&log), chaos.mangle(&log));
            let other = ChannelChaos { seed: 8, ..chaos };
            assert_ne!(chaos.mangle(&log).0, other.mangle(&log).0);
        }

        #[test]
        fn heavy_corruption_reports_what_it_did() {
            let log = sample_log(200);
            let chaos = ChannelChaos::corruption(0.5, 42);
            let (bytes, report) = chaos.mangle(&log);
            let touched =
                report.dropped + report.duplicated + report.truncated + report.bit_flipped;
            assert!(touched > 0, "0.5 corruption on 200 frames must hit some");
            assert!(touched < 200, "and must leave some intact");
            // The mangled capture still has the magic header and decodes
            // at least the untouched frames.
            let stream = crate::log::LogStream::from_wire_bytes(&bytes).unwrap();
            let decoded = stream.filter(Result::is_ok).count() as u64;
            assert!(decoded >= 200 - touched - report.reordered);
        }

        #[test]
        fn skew_and_jitter_disorder_the_capture() {
            let log = sample_log(120);
            let chaos = ChannelChaos {
                reorder_jitter_us: 5_000,
                clock_skew_us: 2_000,
                ..ChannelChaos::corruption(0.0, 3)
            };
            let (bytes, report) = chaos.mangle(&log);
            assert!(report.reordered > 0, "jitter this large must displace");
            let stream = crate::log::LogStream::from_wire_bytes(&bytes).unwrap();
            let ts: Vec<u64> = stream
                .map(|r| r.expect("no corruption configured").ts.as_micros())
                .collect();
            assert_eq!(ts.len(), 120, "no frame lost to reordering");
            assert!(
                ts.windows(2).any(|w| w[1] < w[0]),
                "decoded capture is actually out of order"
            );
        }
    }

    mod conn_chaos {
        use super::*;

        #[test]
        fn plans_are_deterministic_per_seed_and_conn() {
            let chaos = ConnChaos {
                flaps: 2,
                stalls: 1,
                stall_ms: 40,
                trickles: 1,
                trickle_events: 16,
                seed: 11,
            };
            assert_eq!(chaos.plan_for(0, 500), chaos.plan_for(0, 500));
            assert_ne!(
                chaos.plan_for(0, 500),
                chaos.plan_for(1, 500),
                "connections get distinct plans"
            );
            let other = ConnChaos { seed: 12, ..chaos };
            assert_ne!(chaos.plan_for(0, 500), other.plan_for(0, 500));
            let plan = chaos.plan_for(0, 500);
            assert_eq!(plan.pending().len(), 4);
            assert!(plan.pending().iter().all(|&(i, _)| (1..500).contains(&i)));
            assert!(plan.pending().windows(2).all(|w| w[0].0 < w[1].0));
        }

        #[test]
        fn faults_fire_exactly_once_at_their_offset() {
            let mut plan = ConnPlan::at(vec![
                (10, ConnFault::Disconnect),
                (10, ConnFault::Stall { ms: 5 }),
                (20, ConnFault::Trickle { events: 8 }),
            ]);
            assert!(plan.fire_at(9).is_empty());
            let at10 = plan.fire_at(10);
            assert_eq!(at10.len(), 2);
            assert!(plan.fire_at(10).is_empty(), "one-shot");
            assert_eq!(plan.fire_at(20), vec![ConnFault::Trickle { events: 8 }]);
            assert!(plan.is_empty());
        }

        #[test]
        fn tiny_streams_cap_the_fault_count() {
            let chaos = ConnChaos::flapping(10, 3);
            let plan = chaos.plan_for(0, 3);
            assert_eq!(plan.pending().len(), 2, "only offsets 1 and 2 exist");
            assert!(chaos.plan_for(0, 1).is_empty());
            assert!(ConnChaos::flapping(0, 3).plan_for(0, 100).is_empty());
        }
    }

    mod crash_plan {
        use super::*;

        #[test]
        fn seeded_plans_are_deterministic_and_bounded() {
            let a = CrashPlan::seeded(7, 3, 20);
            let b = CrashPlan::seeded(7, 3, 20);
            assert_eq!(a, b, "same seed, same schedule");
            assert_eq!(a.kill_epochs().len(), 3);
            assert!(a.kill_epochs().iter().all(|&e| (1..20).contains(&e)));
            assert!(a.kill_epochs().windows(2).all(|w| w[0] < w[1]));
            let c = CrashPlan::seeded(8, 3, 20);
            assert_ne!(a, c, "different seed, different schedule");
        }

        #[test]
        fn plan_never_kills_epoch_zero_and_caps_at_available_epochs() {
            let plan = CrashPlan::seeded(5, 50, 4);
            assert_eq!(plan.kill_epochs(), &[1, 2, 3]);
            let empty = CrashPlan::seeded(5, 3, 1);
            assert!(empty.kill_epochs().is_empty());
        }
    }
}
