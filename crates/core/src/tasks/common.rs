//! Flow canonicalization and common-flow extraction (Figure 5, stage 1).
//!
//! A task's flows are identified by source/destination and ports, but
//! ephemeral ports differ per run and, in masked mode, so do the host
//! IPs. Canonicalization maps each concrete flow to a [`TaskFlow`]
//! template — exactly the `[#1:* - NFS:2049]` notation of Figure 4.

use std::collections::BTreeSet;
use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::config::{FlowDiffConfig, EPHEMERAL_PORT_FLOOR};
use crate::records::FlowRecord;

/// A port, possibly generalized to "any ephemeral port" (`*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PortClass {
    /// A fixed, well-known port (e.g. 2049).
    Fixed(u16),
    /// Any ephemeral port.
    Ephemeral,
}

impl PortClass {
    /// The class of `port`: ephemeral above [`EPHEMERAL_PORT_FLOOR`],
    /// fixed otherwise.
    pub fn of(port: u16) -> PortClass {
        if port > EPHEMERAL_PORT_FLOOR {
            PortClass::Ephemeral
        } else {
            PortClass::Fixed(port)
        }
    }
}

impl fmt::Display for PortClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortClass::Fixed(p) => write!(f, "{p}"),
            PortClass::Ephemeral => write!(f, "*"),
        }
    }
}

/// A host, either concrete or masked to a positional reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum HostRef {
    /// A concrete IP (always used for special-purpose nodes).
    Ip(Ipv4Addr),
    /// The `k`-th distinct non-special host seen in the run (`#k` in
    /// Figure 4).
    Masked(u8),
}

impl fmt::Display for HostRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostRef::Ip(ip) => write!(f, "{ip}"),
            HostRef::Masked(k) => write!(f, "#{k}"),
        }
    }
}

/// A canonicalized task flow template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskFlow {
    /// Source host.
    pub src: HostRef,
    /// Source port class.
    pub sport: PortClass,
    /// Destination host.
    pub dst: HostRef,
    /// Destination port class.
    pub dport: PortClass,
}

impl fmt::Display for TaskFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}:{} - {}:{}]",
            self.src, self.sport, self.dst, self.dport
        )
    }
}

/// Canonicalizes one run of flow records into a time-ordered template
/// sequence. In masked mode, non-special IPs become `#k` by order of
/// first appearance; special IPs stay concrete.
pub fn canonical_sequence(
    run: &[FlowRecord],
    config: &FlowDiffConfig,
    masked: bool,
) -> Vec<TaskFlow> {
    let mut order: Vec<Ipv4Addr> = Vec::new();
    let mut host_ref = |ip: Ipv4Addr| -> HostRef {
        if !masked || config.is_special(ip) {
            return HostRef::Ip(ip);
        }
        let idx = match order.iter().position(|&x| x == ip) {
            Some(i) => i,
            None => {
                order.push(ip);
                order.len() - 1
            }
        };
        HostRef::Masked(idx.min(u8::MAX as usize) as u8)
    };

    let mut sorted: Vec<&FlowRecord> = run.iter().collect();
    sorted.sort_by_key(|r| r.first_seen);
    sorted
        .iter()
        .map(|r| TaskFlow {
            src: host_ref(r.tuple.src),
            sport: PortClass::of(r.tuple.sport),
            dst: host_ref(r.tuple.dst),
            dport: PortClass::of(r.tuple.dport),
        })
        .collect()
}

/// `S(T)`: the intersection of the runs' flow template sets (Figure 5,
/// "find common flows").
pub fn common_flows(runs: &[Vec<TaskFlow>]) -> BTreeSet<TaskFlow> {
    let mut iter = runs.iter();
    let Some(first) = iter.next() else {
        return BTreeSet::new();
    };
    let mut common: BTreeSet<TaskFlow> = first.iter().copied().collect();
    for run in iter {
        let set: BTreeSet<TaskFlow> = run.iter().copied().collect();
        common = common.intersection(&set).copied().collect();
    }
    common
}

/// `T'`: a run with all non-common flows removed (Figure 5, "state
/// extraction" input).
pub fn filter_to_common(run: &[TaskFlow], common: &BTreeSet<TaskFlow>) -> Vec<TaskFlow> {
    run.iter().filter(|f| common.contains(f)).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::FlowTuple;
    use openflow::types::{IpProto, Timestamp};

    fn rec(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16, at: u64) -> FlowRecord {
        FlowRecord {
            tuple: FlowTuple {
                src,
                sport,
                dst,
                dport,
                proto: IpProto::TCP,
            },
            first_seen: Timestamp::from_micros(at),
            hops: vec![],
            byte_count: 0,
            packet_count: 0,
            duration_s: 0.0,
        }
    }

    fn nfs() -> Ipv4Addr {
        Ipv4Addr::new(10, 200, 0, 1)
    }

    fn host(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    fn config() -> FlowDiffConfig {
        FlowDiffConfig::default().with_special_ips([nfs()])
    }

    #[test]
    fn ephemeral_ports_become_star() {
        let run = vec![rec(host(1), 45_000, nfs(), 2049, 0)];
        let seq = canonical_sequence(&run, &config(), false);
        assert_eq!(seq[0].sport, PortClass::Ephemeral);
        assert_eq!(seq[0].dport, PortClass::Fixed(2049));
        assert_eq!(seq[0].to_string(), "[10.0.0.1:* - 10.200.0.1:2049]");
    }

    #[test]
    fn masking_is_positional_and_spares_special_ips() {
        let run = vec![
            rec(host(1), 45_000, nfs(), 2049, 0),
            rec(host(1), 8002, host(2), 8002, 1),
            rec(host(2), 45_001, nfs(), 2049, 2),
        ];
        let seq = canonical_sequence(&run, &config(), true);
        assert_eq!(seq[0].src, HostRef::Masked(0));
        assert_eq!(seq[0].dst, HostRef::Ip(nfs()));
        assert_eq!(seq[1].src, HostRef::Masked(0));
        assert_eq!(seq[1].dst, HostRef::Masked(1));
        assert_eq!(seq[2].src, HostRef::Masked(1));
        assert_eq!(seq[1].to_string(), "[#0:8002 - #1:8002]");
    }

    #[test]
    fn masked_sequences_of_different_hosts_agree() {
        let run_a = vec![rec(host(1), 45_000, nfs(), 2049, 0)];
        let run_b = vec![rec(host(9), 32_123, nfs(), 2049, 0)];
        let a = canonical_sequence(&run_a, &config(), true);
        let b = canonical_sequence(&run_b, &config(), true);
        assert_eq!(a, b, "masking should erase the host identity");
        let ua = canonical_sequence(&run_a, &config(), false);
        let ub = canonical_sequence(&run_b, &config(), false);
        assert_ne!(ua, ub, "unmasked sequences keep host identity");
    }

    #[test]
    fn sequence_is_time_sorted() {
        let run = vec![
            rec(host(1), 45_000, nfs(), 2049, 500),
            rec(host(1), 45_001, nfs(), 111, 100),
        ];
        let seq = canonical_sequence(&run, &config(), false);
        assert_eq!(seq[0].dport, PortClass::Fixed(111));
    }

    #[test]
    fn common_flows_is_intersection() {
        let mk = |dport: u16| TaskFlow {
            src: HostRef::Ip(host(1)),
            sport: PortClass::Ephemeral,
            dst: HostRef::Ip(nfs()),
            dport: PortClass::of(dport),
        };
        let runs = vec![
            vec![mk(2049), mk(111), mk(635)],
            vec![mk(2049), mk(635)],
            vec![mk(635), mk(2049), mk(53)],
        ];
        let common = common_flows(&runs);
        assert_eq!(common.len(), 2);
        assert!(common.contains(&mk(2049)));
        assert!(common.contains(&mk(635)));
        let filtered = filter_to_common(&runs[0], &common);
        assert_eq!(filtered, vec![mk(2049), mk(635)]);
    }

    #[test]
    fn empty_runs_yield_empty_common() {
        assert!(common_flows(&[]).is_empty());
        let c: BTreeSet<TaskFlow> = BTreeSet::new();
        assert!(filter_to_common(&[], &c).is_empty());
    }
}
