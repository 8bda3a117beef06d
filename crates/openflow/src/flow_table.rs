//! A switch flow table with priority matching, timeouts, and counters.
//!
//! The table implements the OpenFlow 1.0 semantics the simulator relies on:
//!
//! * higher-priority entries win; ties break toward more specific matches;
//! * an *idle* (soft) timeout expires an entry `idle_timeout` seconds after
//!   its last matched packet;
//! * a *hard* timeout expires an entry `hard_timeout` seconds after
//!   installation regardless of traffic;
//! * expiry and explicit deletion produce [`FlowRemoved`] notifications
//!   (when the entry asked for them) carrying final byte/packet counters —
//!   the raw material of FlowDiff's flow-statistics signature.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::actions::Action;
use crate::error::FlowTableError;
use crate::match_fields::{FlowKey, OfMatch, Wildcards};
use crate::messages::{FlowMod, FlowModCommand, FlowRemoved, FlowRemovedReason};
use crate::types::{Cookie, PortNo, Timestamp};

/// One installed flow entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowEntry {
    /// Match predicate.
    pub match_: OfMatch,
    /// Priority (higher wins).
    pub priority: u16,
    /// Controller cookie.
    pub cookie: Cookie,
    /// Idle timeout in seconds (0 = never).
    pub idle_timeout: u16,
    /// Hard timeout in seconds (0 = never).
    pub hard_timeout: u16,
    /// Whether expiry emits a [`FlowRemoved`].
    pub send_flow_rem: bool,
    /// Action list applied to matching packets.
    pub actions: Vec<Action>,
    /// When the entry was installed.
    pub installed_at: Timestamp,
    /// When the entry last matched a packet.
    pub last_matched_at: Timestamp,
    /// Packets matched so far.
    pub packet_count: u64,
    /// Bytes matched so far.
    pub byte_count: u64,
}

impl FlowEntry {
    fn from_flow_mod(fm: &FlowMod, now: Timestamp) -> FlowEntry {
        FlowEntry {
            match_: fm.match_,
            priority: effective_priority(&fm.match_, fm.priority),
            cookie: fm.cookie,
            idle_timeout: fm.idle_timeout,
            hard_timeout: fm.hard_timeout,
            send_flow_rem: fm.flags.send_flow_rem,
            actions: fm.actions.clone(),
            installed_at: now,
            last_matched_at: now,
            packet_count: 0,
            byte_count: 0,
        }
    }

    /// The entry's expiry deadline, if any, given current counters.
    pub fn deadline(&self) -> Option<(Timestamp, FlowRemovedReason)> {
        let idle = if self.idle_timeout > 0 {
            self.last_matched_at
                .checked_add_micros(self.idle_timeout as u64 * 1_000_000)
                .map(|t| (t, FlowRemovedReason::IdleTimeout))
        } else {
            None
        };
        let hard = if self.hard_timeout > 0 {
            self.installed_at
                .checked_add_micros(self.hard_timeout as u64 * 1_000_000)
                .map(|t| (t, FlowRemovedReason::HardTimeout))
        } else {
            None
        };
        match (idle, hard) {
            (Some(i), Some(h)) => Some(if h.0 <= i.0 { h } else { i }),
            (Some(i), None) => Some(i),
            (None, Some(h)) => Some(h),
            (None, None) => None,
        }
    }

    /// Builds the removal notification for this entry.
    pub fn to_flow_removed(&self, reason: FlowRemovedReason, now: Timestamp) -> FlowRemoved {
        let lifetime_us = now.saturating_since(self.installed_at);
        FlowRemoved {
            match_: self.match_,
            cookie: self.cookie,
            priority: self.priority,
            reason,
            duration_sec: (lifetime_us / 1_000_000) as u32,
            duration_nsec: ((lifetime_us % 1_000_000) * 1_000) as u32,
            idle_timeout: self.idle_timeout,
            packet_count: self.packet_count,
            byte_count: self.byte_count,
        }
    }
}

/// OpenFlow gives exact-match entries implicit top priority.
fn effective_priority(m: &OfMatch, priority: u16) -> u16 {
    if m.wildcards.is_exact() {
        u16::MAX
    } else {
        priority
    }
}

/// A single-table switch flow table.
///
/// Every entry carries an insertion sequence number, and three indexes
/// are kept over them so that no per-packet call walks the table:
///
/// * microflow entries (no field wildcarded — what a reactive controller
///   installs per flow) are found by hashing the packet's own
///   [`OfMatch::exact`];
/// * the remaining, wildcarded entries sit in a short list that is
///   still scanned;
/// * a deadline index ordered by `(expiry time, sequence)` is re-keyed
///   whenever a match moves an entry's idle clock, so the next expiry is
///   its first element and a sweep visits only what is due.
///
/// Sequence order is part of the contract: removal notifications come
/// out in insertion order (the simulator draws one random latency per
/// notification, so their order is in every capture), and among
/// matching entries of equal priority and specificity the most recently
/// installed wins.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    /// Every entry by sequence number: ascending is insertion order.
    entries: BTreeMap<u64, FlowEntry>,
    /// Microflow entries (`wildcards == Wildcards::NONE`) by match. A
    /// match with stray bits outside [`Wildcards::ALL`] still counts as
    /// exact for priority but never equals an `OfMatch::exact`, so it is
    /// listed in `wild`.
    exact: HashMap<OfMatch, u64>,
    /// All other entries, ascending.
    wild: Vec<u64>,
    /// `(deadline, sequence)` of every entry that has a timeout.
    deadlines: BTreeSet<(Timestamp, u64)>,
    next_seq: u64,
    ops: Cell<u64>,
    examined: Cell<u64>,
}

impl FlowTable {
    /// Creates an unbounded flow table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over installed entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.values()
    }

    /// Calls made so far to [`apply`](Self::apply),
    /// [`lookup`](Self::lookup), [`match_packet`](Self::match_packet),
    /// [`account`](Self::account), [`expire`](Self::expire) and
    /// [`next_deadline`](Self::next_deadline).
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// Entries those calls read to reach their answer. Divided by
    /// [`ops`](Self::ops) this is the table's work per call: about one
    /// when the indexes answer, the table's size when something scans.
    pub fn entries_examined(&self) -> u64 {
        self.examined.get()
    }

    fn count(&self, examined: usize) {
        self.ops.set(self.ops.get() + 1);
        self.examined.set(self.examined.get() + examined as u64);
    }

    fn entry(&self, seq: u64) -> &FlowEntry {
        self.entries
            .get(&seq)
            .expect("invariant: an indexed sequence number has an entry")
    }

    fn insert(&mut self, entry: FlowEntry) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if entry.match_.wildcards == Wildcards::NONE {
            self.exact.insert(entry.match_, seq);
        } else {
            self.wild.push(seq);
        }
        if let Some((deadline, _)) = entry.deadline() {
            self.deadlines.insert((deadline, seq));
        }
        self.entries.insert(seq, entry);
    }

    fn remove(&mut self, seq: u64) -> FlowEntry {
        let entry = self
            .entries
            .remove(&seq)
            .expect("invariant: an indexed sequence number has an entry");
        if entry.match_.wildcards == Wildcards::NONE {
            self.exact.remove(&entry.match_);
        } else if let Ok(at) = self.wild.binary_search(&seq) {
            self.wild.remove(at);
        }
        if let Some((deadline, _)) = entry.deadline() {
            self.deadlines.remove(&(deadline, seq));
        }
        entry
    }

    /// Sequence numbers of the entries `fm` addresses, ascending:
    /// identical match and priority when `strict` (what `Add` replaces
    /// too), everything the match covers otherwise.
    fn addressed(&self, fm: &FlowMod, strict: bool) -> Vec<u64> {
        if !strict {
            self.count(self.entries.len());
            let covered = |(_, e): &(&u64, &FlowEntry)| covers(&fm.match_, &e.match_);
            return self
                .entries
                .iter()
                .filter(covered)
                .map(|(&s, _)| s)
                .collect();
        }
        if fm.match_.wildcards == Wildcards::NONE {
            // Every microflow entry has the implicit top priority.
            let hit = self.exact.get(&fm.match_).copied();
            self.count(hit.iter().len());
            return hit.into_iter().collect();
        }
        self.count(self.wild.len());
        let priority = effective_priority(&fm.match_, fm.priority);
        let same = |&seq: &u64| {
            let e = self.entry(seq);
            e.match_ == fm.match_ && e.priority == priority
        };
        self.wild.iter().copied().filter(same).collect()
    }

    /// Applies a flow-mod, returning any removal notifications produced by
    /// delete commands, in the order the deleted entries were installed.
    ///
    /// # Errors
    ///
    /// Returns [`FlowTableError::NoSuchEntry`] when a strict modify
    /// targets a missing entry; an `Add` never fails.
    pub fn apply(
        &mut self,
        fm: &FlowMod,
        now: Timestamp,
    ) -> Result<Vec<FlowRemoved>, FlowTableError> {
        match fm.command {
            FlowModCommand::Add => {
                // Identical match+priority replaces in place, preserving
                // nothing (counters reset), per the 1.0 spec.
                for seq in self.addressed(fm, true) {
                    self.remove(seq);
                }
                self.insert(FlowEntry::from_flow_mod(fm, now));
                Ok(Vec::new())
            }
            FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let strict = fm.command == FlowModCommand::ModifyStrict;
                let hits = self.addressed(fm, strict);
                if strict && hits.is_empty() {
                    return Err(FlowTableError::NoSuchEntry);
                }
                for seq in hits {
                    if let Some(e) = self.entries.get_mut(&seq) {
                        e.actions = fm.actions.clone();
                        e.cookie = fm.cookie;
                    }
                }
                Ok(Vec::new())
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let strict = fm.command == FlowModCommand::DeleteStrict;
                let mut removed = Vec::new();
                for seq in self.addressed(fm, strict) {
                    let port_hit = fm.out_port == PortNo::NONE
                        || self
                            .entry(seq)
                            .actions
                            .iter()
                            .any(|a| a.output_port() == Some(fm.out_port));
                    if port_hit {
                        let e = self.remove(seq);
                        if e.send_flow_rem {
                            removed.push(e.to_flow_removed(FlowRemovedReason::Delete, now));
                        }
                    }
                }
                Ok(removed)
            }
        }
    }

    /// The best-matching entry for a packet: highest priority, then most
    /// specific, then most recently installed.
    fn best(&self, key: &FlowKey, in_port: PortNo) -> Option<u64> {
        let hit = self.exact.get(&OfMatch::exact(key, in_port)).copied();
        self.count(hit.iter().len() + self.wild.len());
        hit.into_iter()
            .chain(self.wild.iter().copied())
            .map(|seq| (seq, self.entry(seq)))
            .filter(|(_, e)| e.match_.matches(key, in_port))
            .max_by_key(|(seq, e)| (e.priority, e.match_.specificity(), *seq))
            .map(|(seq, _)| seq)
    }

    /// Credits a matched entry and moves its idle clock to
    /// `clock(last_matched_at)`, keeping the deadline index in step.
    fn credit(
        &mut self,
        seq: u64,
        packets: u64,
        bytes: u64,
        clock: impl FnOnce(Timestamp) -> Timestamp,
    ) -> &FlowEntry {
        let e = self
            .entries
            .get_mut(&seq)
            .expect("invariant: an indexed sequence number has an entry");
        let before = e.deadline();
        e.packet_count += packets;
        e.byte_count += bytes;
        e.last_matched_at = clock(e.last_matched_at);
        let after = e.deadline();
        if before != after {
            if let Some((deadline, _)) = before {
                self.deadlines.remove(&(deadline, seq));
            }
            if let Some((deadline, _)) = after {
                self.deadlines.insert((deadline, seq));
            }
        }
        e
    }

    /// Looks up the best-matching entry for a packet without touching
    /// counters.
    pub fn lookup(&self, key: &FlowKey, in_port: PortNo) -> Option<&FlowEntry> {
        self.best(key, in_port).map(|seq| self.entry(seq))
    }

    /// Matches a packet of `bytes` bytes, updating the winning entry's
    /// counters and idle-timeout clock. Returns the entry's actions, or
    /// `None` on a table miss (which the switch turns into a `PacketIn`).
    pub fn match_packet(
        &mut self,
        key: &FlowKey,
        in_port: PortNo,
        bytes: u64,
        now: Timestamp,
    ) -> Option<&[Action]> {
        let seq = self.best(key, in_port)?;
        Some(&self.credit(seq, 1, bytes, |_| now).actions)
    }

    /// Credits `packets`/`bytes` to the best-matching entry for a packet
    /// stream and refreshes its idle-timeout clock, without simulating
    /// each packet individually. Returns false on a table miss.
    ///
    /// Flow-level simulators use this to account a whole flow's counters
    /// at completion time.
    pub fn account(
        &mut self,
        key: &FlowKey,
        in_port: PortNo,
        packets: u64,
        bytes: u64,
        now: Timestamp,
    ) -> bool {
        let Some(seq) = self.best(key, in_port) else {
            return false;
        };
        self.credit(seq, packets, bytes, |last| last.max(now));
        true
    }

    /// Removes entries whose idle or hard timeout has passed at `now`,
    /// returning removal notifications for entries that requested them,
    /// in the order the entries were installed.
    pub fn expire(&mut self, now: Timestamp) -> Vec<FlowRemoved> {
        let mut due = Vec::new();
        while let Some(&(deadline, seq)) = self.deadlines.first() {
            if deadline > now {
                break;
            }
            self.deadlines.pop_first();
            due.push(seq);
        }
        self.count(due.len());
        due.sort_unstable();
        let mut removed = Vec::new();
        for seq in due {
            let e = self.remove(seq);
            if let (true, Some((_, reason))) = (e.send_flow_rem, e.deadline()) {
                removed.push(e.to_flow_removed(reason, now));
            }
        }
        removed
    }

    /// The earliest future expiry deadline, used by the simulator to
    /// schedule expiry sweeps exactly.
    pub fn next_deadline(&self) -> Option<Timestamp> {
        let first = self.deadlines.first().map(|&(deadline, _)| deadline);
        self.count(first.iter().len());
        first
    }
}

/// True when pattern `outer` covers every packet that `inner` accepts.
/// Used for non-strict modify/delete. This is a conservative (sufficient)
/// check: a field-by-field comparison on un-wildcarded fields.
pub fn covers(outer: &OfMatch, inner: &OfMatch) -> bool {
    use Wildcards as W;
    let ow = outer.wildcards;
    let iw = inner.wildcards;
    let field_ok = |flag: u32, eq: bool| -> bool {
        // outer wildcards the field, or both match it exactly on equal values
        ow.contains(flag) || (!iw.contains(flag) && eq)
    };
    field_ok(W::IN_PORT, outer.in_port == inner.in_port)
        && field_ok(W::DL_SRC, outer.dl_src == inner.dl_src)
        && field_ok(W::DL_DST, outer.dl_dst == inner.dl_dst)
        && field_ok(W::DL_VLAN, outer.dl_vlan == inner.dl_vlan)
        && field_ok(W::DL_VLAN_PCP, outer.dl_vlan_pcp == inner.dl_vlan_pcp)
        && field_ok(W::DL_TYPE, outer.dl_type == inner.dl_type)
        && field_ok(W::NW_TOS, outer.nw_tos == inner.nw_tos)
        && field_ok(W::NW_PROTO, outer.nw_proto == inner.nw_proto)
        && prefix_covers(
            u32::from(outer.nw_src),
            ow.nw_src_bits(),
            u32::from(inner.nw_src),
            iw.nw_src_bits(),
        )
        && prefix_covers(
            u32::from(outer.nw_dst),
            ow.nw_dst_bits(),
            u32::from(inner.nw_dst),
            iw.nw_dst_bits(),
        )
        && field_ok(W::TP_SRC, outer.tp_src == inner.tp_src)
        && field_ok(W::TP_DST, outer.tp_dst == inner.tp_dst)
}

fn prefix_covers(outer: u32, outer_ignored: u32, inner: u32, inner_ignored: u32) -> bool {
    if outer_ignored >= 32 {
        return true;
    }
    if inner_ignored > outer_ignored {
        return false;
    }
    let mask = u32::MAX << outer_ignored;
    outer & mask == inner & mask
}

impl fmt::Display for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow_table[{} entries]", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(tp_src: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            tp_src,
            Ipv4Addr::new(10, 0, 1, 2),
            80,
        )
    }

    fn add_exact(table: &mut FlowTable, k: &FlowKey, now: Timestamp) {
        let fm = FlowMod::add(OfMatch::exact(k, PortNo(1)), 1)
            .idle_timeout(5)
            .action(Action::output(PortNo(2)));
        table.apply(&fm, now).unwrap();
    }

    #[test]
    fn miss_then_hit_after_install() {
        let mut t = FlowTable::new();
        let k = key(1000);
        assert!(t
            .match_packet(&k, PortNo(1), 100, Timestamp::ZERO)
            .is_none());
        add_exact(&mut t, &k, Timestamp::ZERO);
        assert!(t
            .match_packet(&k, PortNo(1), 100, Timestamp::ZERO)
            .is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new();
        let k = key(1000);
        add_exact(&mut t, &k, Timestamp::ZERO);
        for i in 0..10 {
            t.match_packet(&k, PortNo(1), 150, Timestamp::from_millis(i));
        }
        let e = t.lookup(&k, PortNo(1)).unwrap();
        assert_eq!(e.packet_count, 10);
        assert_eq!(e.byte_count, 1500);
        assert_eq!(e.last_matched_at, Timestamp::from_millis(9));
    }

    #[test]
    fn higher_priority_wildcard_beats_lower() {
        let mut t = FlowTable::new();
        let lo = FlowMod::add(OfMatch::any(), 1).action(Action::output(PortNo(10)));
        let hi = FlowMod::add(OfMatch::ipv4_dst_prefix(Ipv4Addr::new(10, 0, 1, 0), 24), 9)
            .action(Action::output(PortNo(20)));
        t.apply(&lo, Timestamp::ZERO).unwrap();
        t.apply(&hi, Timestamp::ZERO).unwrap();
        let actions = t
            .match_packet(&key(1), PortNo(1), 1, Timestamp::ZERO)
            .unwrap();
        assert_eq!(actions[0], Action::output(PortNo(20)));
    }

    #[test]
    fn exact_match_entries_have_implicit_top_priority() {
        let mut t = FlowTable::new();
        let k = key(7);
        let wild = FlowMod::add(OfMatch::any(), u16::MAX - 1).action(Action::output(PortNo(10)));
        t.apply(&wild, Timestamp::ZERO).unwrap();
        let micro =
            FlowMod::add(OfMatch::exact(&k, PortNo(1)), 0).action(Action::output(PortNo(20)));
        t.apply(&micro, Timestamp::ZERO).unwrap();
        let actions = t.match_packet(&k, PortNo(1), 1, Timestamp::ZERO).unwrap();
        assert_eq!(actions[0], Action::output(PortNo(20)));
    }

    #[test]
    fn idle_timeout_expires_after_inactivity() {
        let mut t = FlowTable::new();
        let k = key(1);
        add_exact(&mut t, &k, Timestamp::ZERO);
        // Activity at t=3s pushes the idle deadline to t=8s.
        t.match_packet(&k, PortNo(1), 99, Timestamp::from_secs(3));
        assert!(t.expire(Timestamp::from_secs(7)).is_empty());
        let removed = t.expire(Timestamp::from_secs(8));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, FlowRemovedReason::IdleTimeout);
        assert_eq!(removed[0].packet_count, 1);
        assert_eq!(removed[0].byte_count, 99);
        assert!(t.is_empty());
    }

    #[test]
    fn hard_timeout_fires_despite_activity() {
        let mut t = FlowTable::new();
        let k = key(1);
        let fm = FlowMod::add(OfMatch::exact(&k, PortNo(1)), 1)
            .idle_timeout(10)
            .hard_timeout(2)
            .action(Action::output(PortNo(2)));
        t.apply(&fm, Timestamp::ZERO).unwrap();
        t.match_packet(&k, PortNo(1), 1, Timestamp::from_millis(1900));
        let removed = t.expire(Timestamp::from_secs(2));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, FlowRemovedReason::HardTimeout);
    }

    #[test]
    fn flow_removed_duration_reflects_lifetime() {
        let mut t = FlowTable::new();
        let k = key(1);
        add_exact(&mut t, &k, Timestamp::from_secs(10));
        let removed = t.expire(Timestamp::from_micros(17_500_000));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].duration_sec, 7);
        assert_eq!(removed[0].duration_nsec, 500_000_000);
    }

    #[test]
    fn delete_all_with_any_match() {
        let mut t = FlowTable::new();
        add_exact(&mut t, &key(1), Timestamp::ZERO);
        add_exact(&mut t, &key(2), Timestamp::ZERO);
        let removed = t
            .apply(&FlowMod::delete(OfMatch::any()), Timestamp::from_secs(1))
            .unwrap();
        assert_eq!(removed.len(), 2);
        assert!(removed
            .iter()
            .all(|r| r.reason == FlowRemovedReason::Delete));
        assert!(t.is_empty());
    }

    #[test]
    fn delete_respects_out_port_filter() {
        let mut t = FlowTable::new();
        add_exact(&mut t, &key(1), Timestamp::ZERO); // outputs to port 2
        let mut del = FlowMod::delete(OfMatch::any());
        del.out_port = PortNo(99);
        t.apply(&del, Timestamp::ZERO).unwrap();
        assert_eq!(t.len(), 1, "no entry outputs to port 99");
        del.out_port = PortNo(2);
        t.apply(&del, Timestamp::ZERO).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn strict_modify_missing_entry_errors() {
        let mut t = FlowTable::new();
        let mut fm = FlowMod::add(OfMatch::exact(&key(1), PortNo(1)), 1);
        fm.command = FlowModCommand::ModifyStrict;
        assert_eq!(
            t.apply(&fm, Timestamp::ZERO).unwrap_err(),
            FlowTableError::NoSuchEntry
        );
    }

    #[test]
    fn modify_updates_actions_preserving_counters() {
        let mut t = FlowTable::new();
        let k = key(1);
        add_exact(&mut t, &k, Timestamp::ZERO);
        t.match_packet(&k, PortNo(1), 77, Timestamp::ZERO);
        let mut fm = FlowMod::add(OfMatch::any(), 0).action(Action::output(PortNo(9)));
        fm.command = FlowModCommand::Modify;
        t.apply(&fm, Timestamp::ZERO).unwrap();
        let e = t.lookup(&k, PortNo(1)).unwrap();
        assert_eq!(e.actions, vec![Action::output(PortNo(9))]);
        assert_eq!(e.byte_count, 77, "modify must not reset counters");
    }

    #[test]
    fn re_add_resets_counters() {
        let mut t = FlowTable::new();
        let k = key(1);
        add_exact(&mut t, &k, Timestamp::ZERO);
        t.match_packet(&k, PortNo(1), 77, Timestamp::ZERO);
        add_exact(&mut t, &k, Timestamp::from_secs(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&k, PortNo(1)).unwrap().byte_count, 0);
    }

    #[test]
    fn account_credits_best_match_and_refreshes_idle_clock() {
        let mut t = FlowTable::new();
        let k = key(1);
        add_exact(&mut t, &k, Timestamp::ZERO);
        assert!(t.account(&k, PortNo(1), 9, 13_500, Timestamp::from_secs(3)));
        let e = t.lookup(&k, PortNo(1)).unwrap();
        assert_eq!(e.packet_count, 9);
        assert_eq!(e.byte_count, 13_500);
        assert_eq!(e.last_matched_at, Timestamp::from_secs(3));
        // the idle deadline moved accordingly
        assert!(t.expire(Timestamp::from_micros(7_999_999)).is_empty());
        assert_eq!(t.expire(Timestamp::from_secs(8)).len(), 1);
    }

    #[test]
    fn account_misses_cleanly() {
        let mut t = FlowTable::new();
        assert!(!t.account(&key(1), PortNo(1), 1, 100, Timestamp::ZERO));
        add_exact(&mut t, &key(1), Timestamp::ZERO);
        assert!(
            !t.account(&key(1), PortNo(9), 1, 100, Timestamp::ZERO),
            "wrong port"
        );
        assert!(
            !t.account(&key(2), PortNo(1), 1, 100, Timestamp::ZERO),
            "wrong key"
        );
    }

    #[test]
    fn account_never_moves_idle_clock_backwards() {
        let mut t = FlowTable::new();
        let k = key(1);
        add_exact(&mut t, &k, Timestamp::ZERO);
        t.match_packet(&k, PortNo(1), 1, Timestamp::from_secs(4));
        // a late accounting call with an older timestamp must not rewind
        t.account(&k, PortNo(1), 1, 100, Timestamp::from_secs(2));
        assert_eq!(
            t.lookup(&k, PortNo(1)).unwrap().last_matched_at,
            Timestamp::from_secs(4)
        );
    }

    #[test]
    fn account_prefers_higher_priority_cover() {
        let mut t = FlowTable::new();
        let k = key(1);
        let lo = FlowMod::add(OfMatch::any(), 1).action(Action::output(PortNo(5)));
        let hi = FlowMod::add(OfMatch::exact(&k, PortNo(1)), 1).action(Action::output(PortNo(6)));
        t.apply(&lo, Timestamp::ZERO).unwrap();
        t.apply(&hi, Timestamp::ZERO).unwrap();
        t.account(&k, PortNo(1), 2, 200, Timestamp::ZERO);
        // exact entry got the credit, wildcard untouched
        let exact = t.iter().find(|e| e.match_.wildcards.is_exact()).unwrap();
        let wild = t.iter().find(|e| !e.match_.wildcards.is_exact()).unwrap();
        assert_eq!(exact.byte_count, 200);
        assert_eq!(wild.byte_count, 0);
    }

    #[test]
    fn next_deadline_tracks_earliest_expiry() {
        let mut t = FlowTable::new();
        assert!(t.next_deadline().is_none());
        let fm1 = FlowMod::add(OfMatch::exact(&key(1), PortNo(1)), 1).idle_timeout(10);
        let fm2 = FlowMod::add(OfMatch::exact(&key(2), PortNo(1)), 1).idle_timeout(3);
        t.apply(&fm1, Timestamp::ZERO).unwrap();
        t.apply(&fm2, Timestamp::ZERO).unwrap();
        assert_eq!(t.next_deadline(), Some(Timestamp::from_secs(3)));
    }

    #[test]
    fn no_timeouts_means_no_deadline() {
        let mut t = FlowTable::new();
        let fm = FlowMod::add(OfMatch::exact(&key(1), PortNo(1)), 1);
        t.apply(&fm, Timestamp::ZERO).unwrap();
        assert!(t.next_deadline().is_none());
        assert!(t.expire(Timestamp::from_secs(100_000)).is_empty());
    }
}
