//! The flow table as one `Vec` scanned on every call — the
//! implementation `openflow::flow_table::FlowTable` had before it grew
//! indexes, kept as the reference the property test drives side by
//! side with it. Each method states the semantics in the most direct
//! way; none of it is meant to be fast.

use openflow::actions::Action;
use openflow::error::FlowTableError;
use openflow::flow_table::{covers, FlowEntry};
use openflow::match_fields::{FlowKey, OfMatch};
use openflow::messages::{FlowMod, FlowModCommand, FlowRemoved, FlowRemovedReason};
use openflow::types::{PortNo, Timestamp};

/// OpenFlow gives exact-match entries implicit top priority.
fn effective_priority(m: &OfMatch, priority: u16) -> u16 {
    if m.wildcards.is_exact() {
        u16::MAX
    } else {
        priority
    }
}

#[derive(Debug, Default)]
pub struct LinearTable {
    entries: Vec<FlowEntry>,
}

impl LinearTable {
    pub fn new() -> LinearTable {
        LinearTable::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter()
    }

    pub fn apply(
        &mut self,
        fm: &FlowMod,
        now: Timestamp,
    ) -> Result<Vec<FlowRemoved>, FlowTableError> {
        let priority = effective_priority(&fm.match_, fm.priority);
        let addressed = |e: &FlowEntry, strict: bool| {
            if strict {
                e.match_ == fm.match_ && e.priority == priority
            } else {
                covers(&fm.match_, &e.match_)
            }
        };
        match fm.command {
            FlowModCommand::Add => {
                self.entries.retain(|e| !addressed(e, true));
                self.entries.push(FlowEntry {
                    match_: fm.match_,
                    priority,
                    cookie: fm.cookie,
                    idle_timeout: fm.idle_timeout,
                    hard_timeout: fm.hard_timeout,
                    send_flow_rem: fm.flags.send_flow_rem,
                    actions: fm.actions.clone(),
                    installed_at: now,
                    last_matched_at: now,
                    packet_count: 0,
                    byte_count: 0,
                });
                Ok(Vec::new())
            }
            FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let strict = fm.command == FlowModCommand::ModifyStrict;
                let mut touched = false;
                for e in self.entries.iter_mut().filter(|e| addressed(e, strict)) {
                    e.actions = fm.actions.clone();
                    e.cookie = fm.cookie;
                    touched = true;
                }
                if strict && !touched {
                    return Err(FlowTableError::NoSuchEntry);
                }
                Ok(Vec::new())
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let strict = fm.command == FlowModCommand::DeleteStrict;
                let mut removed = Vec::new();
                self.entries.retain(|e| {
                    let port_hit = fm.out_port == PortNo::NONE
                        || e.actions
                            .iter()
                            .any(|a| a.output_port() == Some(fm.out_port));
                    if addressed(e, strict) && port_hit {
                        if e.send_flow_rem {
                            removed.push(e.to_flow_removed(FlowRemovedReason::Delete, now));
                        }
                        false
                    } else {
                        true
                    }
                });
                Ok(removed)
            }
        }
    }

    fn best(&mut self, key: &FlowKey, in_port: PortNo) -> Option<&mut FlowEntry> {
        self.entries
            .iter_mut()
            .filter(|e| e.match_.matches(key, in_port))
            .max_by_key(|e| (e.priority, e.match_.specificity()))
    }

    pub fn lookup(&self, key: &FlowKey, in_port: PortNo) -> Option<&FlowEntry> {
        self.entries
            .iter()
            .filter(|e| e.match_.matches(key, in_port))
            .max_by_key(|e| (e.priority, e.match_.specificity()))
    }

    pub fn match_packet(
        &mut self,
        key: &FlowKey,
        in_port: PortNo,
        bytes: u64,
        now: Timestamp,
    ) -> Option<&[Action]> {
        let best = self.best(key, in_port)?;
        best.packet_count += 1;
        best.byte_count += bytes;
        best.last_matched_at = now;
        Some(&best.actions)
    }

    pub fn account(
        &mut self,
        key: &FlowKey,
        in_port: PortNo,
        packets: u64,
        bytes: u64,
        now: Timestamp,
    ) -> bool {
        let Some(best) = self.best(key, in_port) else {
            return false;
        };
        best.packet_count += packets;
        best.byte_count += bytes;
        if now > best.last_matched_at {
            best.last_matched_at = now;
        }
        true
    }

    pub fn expire(&mut self, now: Timestamp) -> Vec<FlowRemoved> {
        let mut removed = Vec::new();
        self.entries.retain(|e| match e.deadline() {
            Some((deadline, reason)) if deadline <= now => {
                if e.send_flow_rem {
                    removed.push(e.to_flow_removed(reason, now));
                }
                false
            }
            _ => true,
        });
        removed
    }

    pub fn next_deadline(&self) -> Option<Timestamp> {
        self.entries
            .iter()
            .filter_map(|e| e.deadline().map(|(t, _)| t))
            .min()
    }
}
