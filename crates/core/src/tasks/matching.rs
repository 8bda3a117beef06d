//! Task detection in live logs (Section III-D, detection phase).
//!
//! Every flow that matches the first flow of a start state spawns a
//! matcher (the paper's child process). Matchers advance on matching
//! flows, tolerate interleaved unrelated traffic up to a 1-second bound,
//! and report a task occurrence when they complete a final state. Masked
//! automata bind `#k` host references to concrete IPs by unification.

use std::net::Ipv4Addr;

use openflow::types::Timestamp;
use serde::{Deserialize, Serialize};

use super::automaton::TaskAutomaton;
use super::common::{HostRef, PortClass};
use crate::config::FlowDiffConfig;
use crate::ids::{EntityCatalog, HostId};
use crate::records::FlowRecord;

/// One detected task occurrence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskEvent {
    /// Task name.
    pub task: String,
    /// Timestamp of the first matched flow.
    pub start: Timestamp,
    /// Timestamp of the last matched flow.
    pub end: Timestamp,
    /// Concrete hosts bound during the match (masked automata) or
    /// mentioned by it (unmasked).
    pub hosts: Vec<Ipv4Addr>,
}

impl TaskEvent {
    /// True when `ts` falls within the task's span, widened by
    /// `slack_us` on both sides.
    pub fn covers(&self, ts: Timestamp, slack_us: u64) -> bool {
        let lo = self.start.as_micros().saturating_sub(slack_us);
        let hi = self.end.as_micros().saturating_add(slack_us);
        (lo..=hi).contains(&ts.as_micros())
    }
}

/// A host reference with concrete addresses pre-resolved to dense IDs
/// against the live log's catalog, so the unification inner loop
/// compares `u32`s instead of addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResolvedRef {
    /// Concrete host. `None` when the automaton's address never appears
    /// in the live log: such a reference can match no flow.
    Ip(Option<HostId>),
    /// A `#k` variable, bound by unification.
    Masked(u8),
}

/// One automaton step with host references resolved.
#[derive(Debug, Clone, Copy)]
struct ResolvedFlow {
    src: ResolvedRef,
    sport: PortClass,
    dst: ResolvedRef,
    dport: PortClass,
}

/// An automaton with its states pre-resolved against one live log.
struct ResolvedAutomaton<'a> {
    automaton: &'a TaskAutomaton,
    states: Vec<Vec<ResolvedFlow>>,
}

impl<'a> ResolvedAutomaton<'a> {
    fn new(automaton: &'a TaskAutomaton, catalog: &EntityCatalog) -> ResolvedAutomaton<'a> {
        let resolve = |r: HostRef| match r {
            HostRef::Ip(ip) => ResolvedRef::Ip(catalog.host_id(ip)),
            HostRef::Masked(k) => ResolvedRef::Masked(k),
        };
        let states = automaton
            .states()
            .iter()
            .map(|state| {
                state
                    .iter()
                    .map(|f| ResolvedFlow {
                        src: resolve(f.src),
                        sport: f.sport,
                        dst: resolve(f.dst),
                        dport: f.dport,
                    })
                    .collect()
            })
            .collect();
        ResolvedAutomaton { automaton, states }
    }
}

/// Host bindings of one matcher (`#k` → interned host).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Bindings(Vec<(u8, HostId)>);

impl Bindings {
    fn unify_host(&mut self, expected: ResolvedRef, actual: HostId) -> bool {
        match expected {
            ResolvedRef::Ip(id) => id == Some(actual),
            ResolvedRef::Masked(k) => match self.0.iter().find(|(kk, _)| *kk == k) {
                Some((_, bound)) => *bound == actual,
                None => {
                    // a fresh variable must bind a fresh host: two
                    // different #k must not alias the same host
                    if self.0.iter().any(|(_, id)| *id == actual) {
                        return false;
                    }
                    self.0.push((k, actual));
                    true
                }
            },
        }
    }

    fn hosts(&self, catalog: &EntityCatalog) -> Vec<Ipv4Addr> {
        self.0.iter().map(|(_, id)| catalog.host(*id)).collect()
    }
}

fn unify(expected: &ResolvedFlow, actual: &ConcreteFlow, bindings: &mut Bindings) -> bool {
    if expected.sport != actual.sport || expected.dport != actual.dport {
        return false;
    }
    bindings.unify_host(expected.src, actual.src) && bindings.unify_host(expected.dst, actual.dst)
}

/// A live flow, ports already classed and hosts interned.
#[derive(Debug, Clone, Copy)]
struct ConcreteFlow {
    ts: Timestamp,
    src: HostId,
    sport: PortClass,
    dst: HostId,
    dport: PortClass,
}

#[derive(Debug, Clone)]
struct Matcher {
    state: usize,
    offset: usize,
    bindings: Bindings,
    started: Timestamp,
    last: Timestamp,
}

/// Cap on simultaneously active matchers per automaton, bounding cost on
/// busy logs.
const MAX_MATCHERS: usize = 1024;

/// Runs one (pre-resolved) automaton over a time-ordered flow sequence.
fn detect_one(
    resolved: &ResolvedAutomaton<'_>,
    flows: &[ConcreteFlow],
    catalog: &EntityCatalog,
    config: &FlowDiffConfig,
) -> Vec<TaskEvent> {
    let automaton = resolved.automaton;
    let states = &resolved.states;
    let mut active: Vec<Matcher> = Vec::new();
    let mut events: Vec<TaskEvent> = Vec::new();

    for flow in flows {
        // Expire matchers that have waited too long (1 s bound).
        active.retain(|m| flow.ts.saturating_since(m.last) <= config.interleave_us);

        let mut next_active: Vec<Matcher> = Vec::new();
        let mut accepted: Option<TaskEvent> = None;
        for m in active.drain(..) {
            let mut advanced = false;
            // Continue inside the current state.
            if m.offset < states[m.state].len() {
                let expected = &states[m.state][m.offset];
                let mut b = m.bindings.clone();
                if unify(expected, flow, &mut b) {
                    let m2 = Matcher {
                        state: m.state,
                        offset: m.offset + 1,
                        bindings: b,
                        started: m.started,
                        last: flow.ts,
                    };
                    if m2.offset == states[m2.state].len()
                        && automaton.final_states().contains(&m2.state)
                    {
                        accepted.get_or_insert(TaskEvent {
                            task: automaton.name.clone(),
                            start: m2.started,
                            end: flow.ts,
                            hosts: m2.bindings.hosts(catalog),
                        });
                    } else {
                        next_active.push(m2);
                    }
                    advanced = true;
                }
            } else if let Some(succs) = automaton.next_of(m.state) {
                // The state is complete: try entering each successor.
                for &s2 in succs {
                    let expected = &states[s2][0];
                    let mut b = m.bindings.clone();
                    if unify(expected, flow, &mut b) {
                        let m2 = Matcher {
                            state: s2,
                            offset: 1,
                            bindings: b,
                            started: m.started,
                            last: flow.ts,
                        };
                        if m2.offset == states[s2].len() && automaton.final_states().contains(&s2) {
                            accepted.get_or_insert(TaskEvent {
                                task: automaton.name.clone(),
                                start: m2.started,
                                end: flow.ts,
                                hosts: m2.bindings.hosts(catalog),
                            });
                        } else {
                            next_active.push(m2);
                        }
                        advanced = true;
                    }
                }
            }
            if !advanced {
                // Interleaved unrelated flow: the matcher survives
                // unchanged (its clock was checked above).
                next_active.push(m);
            }
        }
        active = next_active;

        if let Some(ev) = accepted {
            // Suppress matchers subsumed by this acceptance.
            active.retain(|m| m.started > ev.start);
            events.push(ev);
            continue; // the accepting flow spawns no new matcher
        }

        // Spawn new matchers at start states.
        if active.len() < MAX_MATCHERS {
            for &s in automaton.start_states() {
                let expected = &states[s][0];
                let mut b = Bindings::default();
                if unify(expected, flow, &mut b) {
                    let m = Matcher {
                        state: s,
                        offset: 1,
                        bindings: b,
                        started: flow.ts,
                        last: flow.ts,
                    };
                    // single-flow final state
                    if states[s].len() == 1
                        && automaton.final_states().contains(&s)
                        && automaton.state_count() == 1
                    {
                        events.push(TaskEvent {
                            task: automaton.name.clone(),
                            start: flow.ts,
                            end: flow.ts,
                            hosts: m.bindings.hosts(catalog),
                        });
                    } else {
                        active.push(m);
                    }
                }
            }
        }
    }

    // Merge overlapping occurrences of the same task.
    events.sort_by_key(|e| e.start);
    let mut merged: Vec<TaskEvent> = Vec::new();
    for e in events {
        match merged.last() {
            Some(prev) if e.start <= prev.end => {} // subsumed
            _ => merged.push(e),
        }
    }
    merged
}

/// A library of learned task automata.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskLibrary {
    automata: Vec<TaskAutomaton>,
}

impl TaskLibrary {
    /// An empty library.
    pub fn new() -> TaskLibrary {
        TaskLibrary::default()
    }

    /// Adds an automaton.
    pub fn add(&mut self, automaton: TaskAutomaton) -> &mut TaskLibrary {
        self.automata.push(automaton);
        self
    }

    /// The learned automata.
    pub fn automata(&self) -> &[TaskAutomaton] {
        &self.automata
    }

    /// Detects all known tasks in a time-ordered record list, returning
    /// the task time series, sorted by start time, then task name.
    pub fn detect(&self, records: &[FlowRecord], config: &FlowDiffConfig) -> Vec<TaskEvent> {
        // Intern the live log's endpoints into a local catalog, then
        // resolve every automaton's host references against it once, so
        // the per-flow unification loop works on dense `HostId`s.
        let mut catalog = EntityCatalog::new();
        let flows: Vec<ConcreteFlow> = {
            let mut sorted: Vec<&FlowRecord> = records.iter().collect();
            sorted.sort_by_key(|r| r.first_seen);
            sorted
                .iter()
                .map(|r| ConcreteFlow {
                    ts: r.first_seen,
                    src: catalog.intern_host(r.tuple.src),
                    sport: PortClass::of(r.tuple.sport),
                    dst: catalog.intern_host(r.tuple.dst),
                    dport: PortClass::of(r.tuple.dport),
                })
                .collect()
        };
        let mut events: Vec<TaskEvent> = (self.automata.iter())
            .flat_map(|a| {
                detect_one(
                    &ResolvedAutomaton::new(a, &catalog),
                    &flows,
                    &catalog,
                    config,
                )
            })
            .collect();
        events.sort_by_key(|e| (e.start, e.task.clone()));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::FlowTuple;
    use crate::tasks::learn_task;
    use openflow::types::IpProto;

    fn nfs() -> Ipv4Addr {
        Ipv4Addr::new(10, 200, 0, 1)
    }

    fn host(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    fn config() -> FlowDiffConfig {
        FlowDiffConfig::default().with_special_ips([nfs()])
    }

    fn rec(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16, at_ms: u64) -> FlowRecord {
        FlowRecord {
            tuple: FlowTuple {
                src,
                sport,
                dst,
                dport,
                proto: IpProto::TCP,
            },
            first_seen: Timestamp::from_millis(at_ms),
            hops: vec![],
            byte_count: 0,
            packet_count: 0,
            duration_s: 0.0,
        }
    }

    /// A three-step "mount" run by `h` starting at `t0` (ms).
    fn mount_run(h: Ipv4Addr, t0: u64, eph: u16) -> Vec<FlowRecord> {
        vec![
            rec(h, eph, nfs(), 111, t0),
            rec(h, eph + 1, nfs(), 635, t0 + 50),
            rec(h, eph + 2, nfs(), 2049, t0 + 100),
        ]
    }

    fn mount_automaton(masked: bool) -> TaskAutomaton {
        let runs: Vec<Vec<FlowRecord>> = (0..5)
            .map(|i| mount_run(host(1), i * 10_000, 20_000 + i as u16 * 10))
            .collect();
        learn_task("mount_nfs", &runs, masked, &config())
    }

    #[test]
    fn detects_task_in_clean_log() {
        let a = mount_automaton(false);
        let mut lib = TaskLibrary::new();
        lib.add(a);
        let live = mount_run(host(1), 500_000, 30_000);
        let events = lib.detect(&live, &config());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].task, "mount_nfs");
        assert_eq!(events[0].start, Timestamp::from_millis(500_000));
        assert_eq!(events[0].end, Timestamp::from_millis(500_100));
    }

    #[test]
    fn tolerates_interleaved_noise_within_bound() {
        let a = mount_automaton(false);
        let mut lib = TaskLibrary::new();
        lib.add(a);
        let mut live = mount_run(host(1), 500_000, 30_000);
        // unrelated flows between the steps (well inside 1 s)
        live.push(rec(host(7), 40_000, host(8), 80, 500_020));
        live.push(rec(host(7), 40_001, host(8), 80, 500_070));
        let events = lib.detect(&live, &config());
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn interleave_bound_kills_stalled_matchers() {
        let a = mount_automaton(false);
        let mut lib = TaskLibrary::new();
        lib.add(a);
        // second step arrives 2 s after the first: beyond the 1 s bound
        let live = vec![
            rec(host(1), 30_000, nfs(), 111, 500_000),
            rec(host(1), 30_001, nfs(), 635, 502_000),
            rec(host(1), 30_002, nfs(), 2049, 502_050),
        ];
        let events = lib.detect(&live, &config());
        assert!(events.is_empty(), "stalled match must be dropped");
    }

    #[test]
    fn unmasked_automaton_is_host_specific() {
        let a = mount_automaton(false);
        let mut lib = TaskLibrary::new();
        lib.add(a);
        // same task run by a different host
        let live = mount_run(host(9), 500_000, 30_000);
        assert!(lib.detect(&live, &config()).is_empty());
    }

    #[test]
    fn masked_automaton_matches_any_host() {
        let a = mount_automaton(true);
        let mut lib = TaskLibrary::new();
        lib.add(a);
        let live = mount_run(host(9), 500_000, 30_000);
        let events = lib.detect(&live, &config());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].hosts, vec![host(9)]);
    }

    #[test]
    fn masked_bindings_are_consistent_within_a_match() {
        let a = mount_automaton(true);
        let mut lib = TaskLibrary::new();
        lib.add(a);
        // steps performed by *different* hosts: must not match as one task
        let live = vec![
            rec(host(1), 30_000, nfs(), 111, 500_000),
            rec(host(2), 30_001, nfs(), 635, 500_050),
            rec(host(3), 30_002, nfs(), 2049, 500_100),
        ];
        assert!(lib.detect(&live, &config()).is_empty());
    }

    #[test]
    fn overlapping_occurrences_merge() {
        let a = mount_automaton(false);
        let mut lib = TaskLibrary::new();
        lib.add(a);
        // two interleaved copies of the same run by the same host
        let mut live = mount_run(host(1), 500_000, 30_000);
        live.extend(mount_run(host(1), 500_010, 31_000));
        let events = lib.detect(&live, &config());
        assert_eq!(events.len(), 1, "overlapping matches merge");
    }

    #[test]
    fn sequential_occurrences_counted_separately() {
        let a = mount_automaton(false);
        let mut lib = TaskLibrary::new();
        lib.add(a);
        let mut live = mount_run(host(1), 500_000, 30_000);
        live.extend(mount_run(host(1), 900_000, 31_000));
        let events = lib.detect(&live, &config());
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn multiple_automata_detect_in_parallel() {
        let mount = mount_automaton(true);
        // an "unmount" with reversed port order
        let unmount_runs: Vec<Vec<FlowRecord>> = (0..5)
            .map(|i| {
                vec![
                    rec(host(1), 20_000 + i, nfs(), 2049, i as u64 * 10_000),
                    rec(host(1), 20_001 + i, nfs(), 635, i as u64 * 10_000 + 50),
                ]
            })
            .collect();
        let unmount = learn_task("unmount_nfs", &unmount_runs, true, &config());
        let mut lib = TaskLibrary::new();
        lib.add(mount).add(unmount);
        assert_eq!(lib.automata().len(), 2);

        let mut live = mount_run(host(5), 100_000, 30_000);
        live.push(rec(host(6), 32_000, nfs(), 2049, 400_000));
        live.push(rec(host(6), 32_001, nfs(), 635, 400_050));
        let events = lib.detect(&live, &config());
        let names: Vec<&str> = events.iter().map(|e| e.task.as_str()).collect();
        assert!(names.contains(&"mount_nfs"));
        assert!(names.contains(&"unmount_nfs"));
    }

    #[test]
    fn learned_states_print_in_figure_4_notation() {
        // The paper's S(Migration) notation: [#1:* - NFS:2049]. Our
        // masked templates render the same way (0-based references).
        let a = mount_automaton(true);
        let rendered: Vec<String> = a
            .states()
            .iter()
            .flat_map(|s| s.iter().map(|f| f.to_string()))
            .collect();
        assert!(
            rendered.iter().any(|r| r == "[#0:* - 10.200.0.1:2049]"),
            "states: {rendered:?}"
        );
        // fixed well-known ports stay concrete, ephemeral sources are *
        assert!(rendered.iter().all(|r| r.starts_with("[#0:* - ")));
    }

    #[test]
    fn task_event_covers_with_slack() {
        let e = TaskEvent {
            task: "t".into(),
            start: Timestamp::from_secs(10),
            end: Timestamp::from_secs(12),
            hosts: vec![],
        };
        assert!(e.covers(Timestamp::from_secs(11), 0));
        assert!(!e.covers(Timestamp::from_secs(13), 0));
        assert!(e.covers(Timestamp::from_secs(13), 2_000_000));
        assert!(e.covers(Timestamp::from_secs(9), 1_000_000));
    }
}
