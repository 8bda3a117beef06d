//! The discrete-event simulation engine.
//!
//! The engine simulates flows (not individual packets): a flow's first
//! packet traverses its path hop by hop, triggering the reactive OpenFlow
//! control loop (`PacketIn` → controller → `FlowMod`) at each switch
//! without a matching entry; the remaining packets are accounted in bulk
//! when the flow completes. Flow entries expire by idle/hard timeout,
//! emitting the `FlowRemoved` notifications that carry per-flow counters.
//!
//! All control messages are captured into a [`ControllerLog`] with
//! controller-side timestamps — the input FlowDiff works from.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use openflow::actions::Action;
use openflow::flow_table::FlowTable;
use openflow::frame;
use openflow::match_fields::OfMatch;
use openflow::messages::{
    FlowMod, OfpMessage, PacketIn, PacketInReason, PortStats, StatsReply, StatsRequest,
};
use openflow::types::{BufferId, PortNo, Timestamp, Xid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::apps::{AppCtx, AppLogic};
use crate::config::{
    packets_for, Deployment, CONTROLLER_JITTER_US, CONTROLLER_SERVICE_US, CONTROL_JITTER_US,
    CONTROL_LATENCY_US, ECHO_INTERVAL_S, HARD_TIMEOUT_S, IDLE_TIMEOUT_S, MISS_SEND_LEN,
    NOTIFY_FLOW_REMOVED, PACKET_SIZE, RTO_US, STATS_POLL_INTERVAL_S, SWITCH_PROC_US,
};
use crate::controller::ControllerModel;
use crate::faults::{ActiveFaults, Fault};
use crate::flows::{DeliveredFlow, FlowId, FlowPhase, FlowSpec, FlowState};
use crate::log::{ControlEvent, ControllerLog, Direction};
use crate::topology::{LinkId, NodeId, Topology};

/// Aggregate counters of one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Flows injected.
    pub flows_started: u64,
    /// Flows whose first packet reached the destination.
    pub flows_delivered: u64,
    /// Flows fully transferred and accounted.
    pub flows_completed: u64,
    /// Flows dropped (failures, unreachable, dead services).
    pub flows_dead: u64,
    /// `PacketIn` messages logged.
    pub packet_ins: u64,
    /// `FlowMod` messages logged.
    pub flow_mods: u64,
    /// `FlowRemoved` messages logged.
    pub flow_removeds: u64,
    /// Flow-table calls made by all switches
    /// ([`FlowTable::ops`](openflow::flow_table::FlowTable::ops)).
    pub table_ops: u64,
    /// Flow entries those calls read; per call, about one while the
    /// tables answer from their indexes.
    pub table_entries_examined: u64,
}

/// Queueing-delay scale, microseconds: with an M/M/1-style
/// `u^2/(1-u)` utilization term this reaches typical shared-buffer
/// depths (tens of ms at 1 Gbps) as utilization approaches 1.
const QUEUE_SCALE_US: f64 = 1_000.0;
/// Upper bound on modeled queueing delay (switch buffer depth),
/// microseconds.
const MAX_QUEUE_US: f64 = 50_000.0;
/// Wire-overhead packets per lost packet (RTO recovery re-sends part of
/// the window, not just the lost segment).
const RETX_AMPLIFICATION: f64 = 4.0;

#[derive(Debug, Clone)]
enum Ev {
    StartFlow(FlowId),
    HopArrive { flow: FlowId, hop: usize },
    CtrlReply { flow: FlowId, hop: usize },
    Complete { flow: FlowId },
    ExpirySweep { node: NodeId },
    ApplyFault(usize),
    EchoTick,
    StatsTick,
}

#[derive(Debug)]
struct Queued {
    at: Timestamp,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct SwitchState {
    table: FlowTable,
    /// Earliest expiry sweep currently queued, to dedupe sweep events.
    sweep_at: Option<Timestamp>,
    /// Cumulative transmitted bytes/packets per egress port.
    port_tx: HashMap<PortNo, (u64, u64)>,
}

/// The simulated data center.
///
/// Construct with a topology, inject workload flows and faults, attach
/// application logic, run to a horizon, and collect the controller log.
pub struct Simulation {
    topo: Topology,
    deployment: Deployment,
    rng: StdRng,
    now: Timestamp,
    queue: BinaryHeap<Reverse<Queued>>,
    seq: u64,
    switches: HashMap<NodeId, SwitchState>,
    controller: ControllerModel,
    /// `controller.route` per `(src, dst)` under the current failed-switch
    /// set: the BFS is deterministic by port order, so a cached path is
    /// the path. Dropped whenever a fault is applied.
    routes: HashMap<(NodeId, NodeId), Option<Vec<NodeId>>>,
    log: ControllerLog,
    flows: Vec<FlowState>,
    link_rate: Vec<f64>,
    faults: ActiveFaults,
    scheduled_faults: Vec<Fault>,
    apps: Vec<Box<dyn AppLogic>>,
    stats: SimStats,
    next_xid: Xid,
    next_buffer: u32,
}

impl Simulation {
    /// Creates a simulation over `topo` that installs rules per
    /// `deployment`, with deterministic randomness derived from `seed`.
    pub fn new(topo: Topology, deployment: Deployment, seed: u64) -> Simulation {
        let switches = topo
            .node_ids()
            .filter(|&n| topo.node(n).is_of_switch())
            .map(|n| {
                (
                    n,
                    SwitchState {
                        table: FlowTable::new(),
                        sweep_at: None,
                        port_tx: HashMap::new(),
                    },
                )
            })
            .collect();
        let controller = ControllerModel::new(CONTROLLER_SERVICE_US, CONTROLLER_JITTER_US);
        let link_rate = vec![0.0; topo.link_count()];
        let mut sim = Simulation {
            topo,
            deployment,
            rng: StdRng::seed_from_u64(seed),
            now: Timestamp::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            switches,
            controller,
            routes: HashMap::new(),
            log: ControllerLog::new(),
            flows: Vec::new(),
            link_rate,
            faults: ActiveFaults::new(),
            scheduled_faults: Vec::new(),
            apps: Vec::new(),
            stats: SimStats::default(),
            next_xid: Xid(1),
            next_buffer: 1,
        };
        sim.push_event(Timestamp::from_secs(ECHO_INTERVAL_S), Ev::EchoTick);
        sim.push_event(Timestamp::from_secs(STATS_POLL_INTERVAL_S), Ev::StatsTick);
        if deployment == Deployment::Proactive {
            // Proactive deployment: a permanent catch-all entry on every
            // switch. Nothing ever misses, so the controller sees no
            // PacketIn/FlowRemoved traffic (Section VI).
            let mut fm = FlowMod::add(OfMatch::any(), 1).action(Action::output(PortNo::NORMAL));
            fm.flags.send_flow_rem = false;
            for state in sim.switches.values_mut() {
                state
                    .table
                    .apply(&fm, Timestamp::ZERO)
                    .expect("invariant: a flow table accepts every add");
            }
        }
        sim
    }

    /// The rule the controller installs for a missed flow, per the
    /// deployment mode.
    fn installed_rule(
        &self,
        key: &openflow::match_fields::FlowKey,
        in_port: PortNo,
        out_port: PortNo,
    ) -> FlowMod {
        let match_ = match self.deployment {
            Deployment::Wildcard { prefix_len } => {
                let masked = mask_ip(key.nw_dst, prefix_len);
                OfMatch::ipv4_dst_prefix(masked, prefix_len)
            }
            _ => OfMatch::exact(key, in_port),
        };
        let mut fm = FlowMod::add(match_, 100)
            .idle_timeout(IDLE_TIMEOUT_S)
            .hard_timeout(HARD_TIMEOUT_S)
            .action(Action::output(out_port));
        fm.flags.send_flow_rem = NOTIFY_FLOW_REMOVED;
        fm
    }

    /// Aggregate run statistics.
    pub fn stats(&self) -> SimStats {
        let tables = || self.switches.values().map(|state| &state.table);
        SimStats {
            table_ops: tables().map(FlowTable::ops).sum(),
            table_entries_examined: tables().map(FlowTable::entries_examined).sum(),
            ..self.stats
        }
    }

    /// Read-only view of all flow states (indexed by `FlowId`).
    pub fn flow_states(&self) -> &[FlowState] {
        &self.flows
    }

    /// Attaches application logic that reacts to flow deliveries.
    pub fn add_app(&mut self, logic: Box<dyn AppLogic>) {
        self.apps.push(logic);
    }

    /// Schedules a flow injection at absolute time `at`.
    pub fn schedule_flow(&mut self, at: Timestamp, spec: FlowSpec) -> FlowId {
        let id = FlowId(self.flows.len() as u64);
        self.flows.push(FlowState {
            spec,
            path: Vec::new(),
            started_at: at,
            delivered_at: None,
            completed_at: None,
            wire_bytes: 0,
            wire_packets: 0,
            phase: FlowPhase::InTransit,
        });
        self.push_event(at, Ev::StartFlow(id));
        id
    }

    /// Schedules a fault injection at absolute time `at`.
    pub fn schedule_fault(&mut self, at: Timestamp, fault: Fault) {
        let idx = self.scheduled_faults.len();
        self.scheduled_faults.push(fault);
        self.push_event(at, Ev::ApplyFault(idx));
    }

    /// Runs the event loop until the queue drains or simulated time would
    /// pass `horizon`. Events at exactly `horizon` are processed.
    pub fn run_until(&mut self, horizon: Timestamp) {
        while self.queue.peek().is_some_and(|Reverse(q)| q.at <= horizon) {
            let Some(Reverse(q)) = self.queue.pop() else {
                break;
            };
            debug_assert!(q.at >= self.now, "time must be monotone");
            self.now = q.at;
            self.handle(q.ev);
        }
        if self.now < horizon {
            self.now = horizon;
        }
    }

    /// Finalizes and takes the controller log, leaving an empty one.
    pub fn take_log(&mut self) -> ControllerLog {
        let mut log = std::mem::take(&mut self.log);
        log.finish();
        log
    }

    // ------------------------------------------------------------ internal

    // The accessors below encode structural invariants of the simulation
    // rather than recoverable conditions, so they panic on violation
    // instead of returning errors:
    //
    // * `self.switches` is populated once at construction with every
    //   OpenFlow switch in the topology and never restructured, so for
    //   any node drawn from it (or from a path's switch hops) `dpid` and
    //   `switch_state` cannot miss;
    // * flow paths come from `ControllerModel::route`, which walks
    //   topology links, so consecutive path nodes are always adjacent
    //   and `adj_port`/`adj_link` cannot miss.

    /// The datapath id of an OpenFlow switch node.
    fn dpid(&self, node: NodeId) -> openflow::types::DatapathId {
        self.topo
            .dpid_of(node)
            .expect("invariant: node is an OpenFlow switch")
    }

    /// The per-switch OpenFlow state of `node`.
    fn switch_state(&mut self, node: NodeId) -> &mut SwitchState {
        self.switches
            .get_mut(&node)
            .expect("invariant: every OF switch has state")
    }

    /// The egress port of `node` towards the adjacent `peer`.
    fn adj_port(&self, node: NodeId, peer: NodeId) -> PortNo {
        self.topo
            .port_towards(node, peer)
            .expect("invariant: consecutive path nodes are adjacent")
    }

    /// The link between adjacent path nodes `a` and `b`.
    fn adj_link(&self, a: NodeId, b: NodeId) -> LinkId {
        self.topo
            .link_between(a, b)
            .expect("invariant: consecutive path nodes are adjacent")
    }

    fn push_event(&mut self, at: Timestamp, ev: Ev) {
        self.seq += 1;
        self.queue.push(Reverse(Queued {
            at,
            seq: self.seq,
            ev,
        }));
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::StartFlow(id) => self.on_start(id),
            Ev::HopArrive { flow, hop } => self.on_hop(flow, hop),
            Ev::CtrlReply { flow, hop } => self.on_ctrl_reply(flow, hop),
            Ev::Complete { flow } => self.on_complete(flow),
            Ev::ExpirySweep { node } => self.on_sweep(node),
            Ev::ApplyFault(idx) => {
                let fault = self.scheduled_faults[idx].clone();
                self.faults.apply(&fault);
                // Only the failed-switch set feeds a route, but faults are
                // few: dropping every path is cheaper than telling them
                // apart.
                self.routes.clear();
            }
            Ev::EchoTick => self.on_echo_tick(),
            Ev::StatsTick => self.on_stats_tick(),
        }
    }

    /// Periodic port-statistics poll: the controller requests per-port
    /// counters from every live switch and logs the replies — the raw
    /// material of the link-utilization baseline.
    fn on_stats_tick(&mut self) {
        let mut nodes: Vec<NodeId> = self.switches.keys().copied().collect();
        nodes.sort_unstable();
        for node in nodes {
            if self.faults.is_switch_failed(node) {
                continue;
            }
            let dpid = self.dpid(node);
            let xid = self.next_xid;
            self.next_xid = xid.next();
            self.log.push(ControlEvent {
                ts: self.now,
                dpid,
                direction: Direction::FromController,
                xid,
                msg: OfpMessage::StatsRequest(StatsRequest::Port {
                    port_no: PortNo::NONE,
                }),
            });
            let state = &self.switches[&node];
            let mut ports: Vec<PortStats> = state
                .port_tx
                .iter()
                .map(|(port, (bytes, pkts))| PortStats {
                    port_no: *port,
                    tx_bytes: *bytes,
                    tx_packets: *pkts,
                    ..PortStats::default()
                })
                .collect();
            ports.sort_by_key(|p| p.port_no);
            let arrival = self.now + self.ctrl_latency();
            self.log.push(ControlEvent {
                ts: arrival,
                dpid,
                direction: Direction::ToController,
                xid,
                msg: OfpMessage::StatsReply(StatsReply::Port(ports)),
            });
        }
        let next = self.now + STATS_POLL_INTERVAL_S * 1_000_000;
        self.push_event(next, Ev::StatsTick);
    }

    /// Periodic keepalive: every live switch's echo reply reaches the
    /// controller, providing the liveness signal FlowDiff's topology
    /// diff uses to distinguish silent switches from failed ones.
    fn on_echo_tick(&mut self) {
        let mut nodes: Vec<NodeId> = self.switches.keys().copied().collect();
        nodes.sort_unstable(); // HashMap order must not leak into the log
        for node in nodes {
            if self.faults.is_switch_failed(node) {
                continue;
            }
            let dpid = self.dpid(node);
            let arrival = self.now + self.ctrl_latency();
            self.log.push(ControlEvent {
                ts: arrival,
                dpid,
                direction: Direction::ToController,
                xid: Xid(0),
                msg: OfpMessage::EchoReply(Vec::new().into()),
            });
        }
        let next = self.now + ECHO_INTERVAL_S * 1_000_000;
        self.push_event(next, Ev::EchoTick);
    }

    fn ctrl_latency(&mut self) -> u64 {
        CONTROL_LATENCY_US + self.rng.gen_range(0..=CONTROL_JITTER_US)
    }

    /// Current utilization of a link in `[0, 0.99]`.
    fn link_util(&self, link: LinkId) -> f64 {
        let l = self.topo.link(link);
        if l.capacity_bps == 0 {
            return 0.0;
        }
        (self.link_rate[link.0 as usize] / l.capacity_bps as f64).clamp(0.0, 0.99)
    }

    /// Effective one-way latency of a link: propagation plus an M/M/1-
    /// style queueing term that explodes as utilization approaches 1.
    fn link_latency(&self, link: LinkId) -> u64 {
        let util = self.link_util(link);
        let queue_us = (QUEUE_SCALE_US * util * util / (1.0 - util)).min(MAX_QUEUE_US);
        self.topo.link(link).latency_us + queue_us as u64
    }

    /// Drop probability induced by congestion: tail drops appear once a
    /// link runs above 80 % utilization.
    fn congestion_loss(&self, link: LinkId) -> f64 {
        let util = self.link_util(link);
        ((util - 0.8) * 0.5).max(0.0)
    }

    fn add_path_rate(&mut self, id: FlowId, sign: f64) {
        let flow = &self.flows[id.0 as usize];
        let duration_s = (flow.spec.duration_us.max(1_000) as f64) / 1e6;
        let rate = flow.spec.bytes as f64 / duration_s * sign;
        for w in flow.path.windows(2) {
            if let Some(l) = self.topo.link_between(w[0], w[1]) {
                let r = &mut self.link_rate[l.0 as usize];
                *r = (*r + rate).max(0.0);
            }
        }
    }

    fn kill_flow(&mut self, id: FlowId) {
        if !self.flows[id.0 as usize].path.is_empty() {
            self.add_path_rate(id, -1.0);
        }
        let flow = &mut self.flows[id.0 as usize];
        if flow.phase != FlowPhase::Dead {
            flow.phase = FlowPhase::Dead;
            self.stats.flows_dead += 1;
        }
    }

    fn on_start(&mut self, id: FlowId) {
        self.stats.flows_started += 1;
        let key = self.flows[id.0 as usize].spec.key;
        let Some(src) = self.topo.host_by_ip(key.nw_src) else {
            self.kill_flow(id);
            return;
        };
        let Some(dst) = self.topo.host_by_ip(key.nw_dst) else {
            self.kill_flow(id);
            return;
        };
        if self.faults.is_host_down(src) {
            // A dead host originates nothing: the flow silently never
            // appears (no PacketIn anywhere).
            self.kill_flow(id);
            return;
        }
        let (controller, topo, faults) = (&self.controller, &self.topo, &self.faults);
        let Some(path) = self
            .routes
            .entry((src, dst))
            .or_insert_with(|| controller.route(topo, src, dst, |n| faults.is_switch_failed(n)))
            .clone()
        else {
            self.kill_flow(id);
            return;
        };

        // Pre-compute loss effects along the path: injected faults plus
        // congestion tail drops.
        let mut ok_prob = 1.0;
        for w in path.windows(2) {
            if let Some(l) = self.topo.link_between(w[0], w[1]) {
                let p = (self.faults.loss_on(l) + self.congestion_loss(l)).min(1.0);
                ok_prob *= 1.0 - p;
            }
        }
        let p_loss = 1.0 - ok_prob;
        let spec_bytes = self.flows[id.0 as usize].spec.bytes;
        let pkts = packets_for(spec_bytes);
        // Each loss event costs more than one re-sent segment: RTO-driven
        // recovery re-sends (part of) the congestion window, so the wire
        // overhead amplifies the raw loss rate.
        let p_retx = (p_loss * RETX_AMPLIFICATION).min(0.9);
        let lost = sample_binomial(&mut self.rng, pkts, p_retx);
        let wire_packets = pkts + lost;
        let wire_bytes = spec_bytes + lost * PACKET_SIZE.min(spec_bytes.max(64));

        // Request-transfer retransmission delay: a loss anywhere in the
        // (small) request burst stalls delivery by one RTO (bounded
        // exponential backoff).
        let p_request = 1.0 - (1.0 - p_loss).powi(pkts.min(10) as i32);
        let mut head_delay = 0u64;
        let mut rto = RTO_US;
        for _ in 0..5 {
            if self.rng.gen::<f64>() < p_request {
                head_delay += rto;
                rto *= 2;
            } else {
                break;
            }
        }

        {
            let flow = &mut self.flows[id.0 as usize];
            flow.path = path;
            flow.wire_bytes = wire_bytes;
            flow.wire_packets = wire_packets;
        }
        self.add_path_rate(id, 1.0);

        let first_link = {
            let flow = &self.flows[id.0 as usize];
            self.topo.link_between(flow.path[0], flow.path[1])
        };
        let latency = first_link.map_or(0, |l| self.link_latency(l));
        self.push_event(
            self.now + latency + head_delay,
            Ev::HopArrive { flow: id, hop: 1 },
        );
    }

    fn on_hop(&mut self, id: FlowId, hop: usize) {
        if self.flows[id.0 as usize].phase == FlowPhase::Dead {
            return;
        }
        let (node, key, last_hop) = {
            let flow = &self.flows[id.0 as usize];
            (flow.path[hop], flow.spec.key, hop == flow.path.len() - 1)
        };
        if last_hop {
            self.on_delivery(id, node);
            return;
        }
        // A switch hop.
        if self.faults.is_switch_failed(node) {
            self.kill_flow(id);
            return;
        }
        let in_port = {
            let prev = self.flows[id.0 as usize].path[hop - 1];
            self.adj_port(node, prev)
        };
        let is_of = self.topo.node(node).is_of_switch();
        if is_of {
            let now = self.now;
            let hit = self
                .switch_state(node)
                .table
                .match_packet(&key, in_port, PACKET_SIZE, now)
                .is_some();
            if !hit {
                self.send_packet_in(id, hop, node, in_port);
                return;
            }
        }
        self.forward(id, hop);
    }

    /// Schedules the first packet onward from `path[hop]` to `path[hop+1]`.
    fn forward(&mut self, id: FlowId, hop: usize) {
        let (node, next) = {
            let flow = &self.flows[id.0 as usize];
            (flow.path[hop], flow.path[hop + 1])
        };
        let link = self.adj_link(node, next);
        let latency = SWITCH_PROC_US + self.link_latency(link);
        self.push_event(
            self.now + latency,
            Ev::HopArrive {
                flow: id,
                hop: hop + 1,
            },
        );
    }

    fn send_packet_in(&mut self, id: FlowId, hop: usize, node: NodeId, in_port: PortNo) {
        let dpid = self.dpid(node);
        let key = self.flows[id.0 as usize].spec.key;
        let xid = self.next_xid;
        self.next_xid = xid.next();
        let buffer_id = BufferId(self.next_buffer);
        self.next_buffer = self.next_buffer.wrapping_add(1).max(1);

        let capture = frame::build_frame(&key, MISS_SEND_LEN as usize);
        let arrival = self.now + self.ctrl_latency();
        self.log.push(ControlEvent {
            ts: arrival,
            dpid,
            direction: Direction::ToController,
            xid,
            msg: OfpMessage::PacketIn(PacketIn {
                buffer_id,
                total_len: PACKET_SIZE as u16,
                in_port,
                reason: PacketInReason::NoMatch,
                data: capture,
            }),
        });
        self.stats.packet_ins += 1;

        if self.faults.is_controller_down() {
            // Nobody answers: the buffered packet ages out on the switch
            // and the flow dies. The PacketIn stays in the capture (a
            // passive tap still sees it) — FlowDiff's controller-failure
            // evidence.
            self.kill_flow(id);
            return;
        }

        // Controller processing, possibly degraded by an overload fault.
        self.controller.degradation = self.faults.controller_factor();
        let response = self.controller.response_delay(arrival, &mut self.rng);
        let send_time = arrival + response;

        // The FlowMod the controller sends back (logged at send time).
        let out_port = {
            let next = self.flows[id.0 as usize].path[hop + 1];
            self.adj_port(node, next)
        };
        let mut fm = self.installed_rule(&key, in_port, out_port);
        fm.buffer_id = buffer_id;
        self.log.push(ControlEvent {
            ts: send_time,
            dpid,
            direction: Direction::FromController,
            xid,
            msg: OfpMessage::FlowMod(fm),
        });
        self.stats.flow_mods += 1;

        let back = self.ctrl_latency();
        self.push_event(send_time + back, Ev::CtrlReply { flow: id, hop });
    }

    fn on_ctrl_reply(&mut self, id: FlowId, hop: usize) {
        if self.flows[id.0 as usize].phase == FlowPhase::Dead {
            return;
        }
        let (node, key) = {
            let flow = &self.flows[id.0 as usize];
            (flow.path[hop], flow.spec.key)
        };
        if self.faults.is_switch_failed(node) {
            self.kill_flow(id);
            return;
        }
        let (in_port, out_port) = {
            let flow = &self.flows[id.0 as usize];
            let prev = flow.path[hop - 1];
            let next = flow.path[hop + 1];
            (self.adj_port(node, prev), self.adj_port(node, next))
        };
        let fm = self.installed_rule(&key, in_port, out_port);
        let now = self.now;
        let table = &mut self.switch_state(node).table;
        table
            .apply(&fm, now)
            .expect("invariant: a flow table accepts every add");
        // The buffered first packet is released through the new entry.
        table.match_packet(&key, in_port, PACKET_SIZE, now);
        self.schedule_sweep(node);
        self.forward(id, hop);
    }

    fn on_delivery(&mut self, id: FlowId, dst: NodeId) {
        let key = self.flows[id.0 as usize].spec.key;
        let service_dead =
            self.faults.is_host_down(dst) || self.faults.is_service_dead(dst, key.tp_dst);
        if service_dead {
            // The connection attempt dies at the host: a handful of SYN
            // retransmissions cross the wire, then the client gives up.
            // No application processing happens.
            {
                let flow = &mut self.flows[id.0 as usize];
                flow.wire_bytes = 66 * 3;
                flow.wire_packets = 3;
            }
            let give_up = RTO_US * 3;
            self.push_event(self.now + give_up, Ev::Complete { flow: id });
            return;
        }

        self.stats.flows_delivered += 1;
        let delivered = {
            let flow = &mut self.flows[id.0 as usize];
            flow.delivered_at = Some(self.now);
            flow.phase = FlowPhase::Delivered;
            DeliveredFlow {
                id,
                spec: flow.spec.clone(),
                // path[0] is the source host `on_start` already resolved.
                src: flow.path[0],
                dst,
                started_at: flow.started_at,
                delivered_at: self.now,
            }
        };

        // Invoke application logic; it may schedule dependent flows.
        let mut apps = std::mem::take(&mut self.apps);
        let mut ctx = AppCtx {
            now: self.now,
            rng: &mut self.rng,
            topo: &self.topo,
            host_slowdown_us: self.faults.slowdown_of(dst),
            queued: Vec::new(),
        };
        for app in &mut apps {
            app.on_flow_delivered(&delivered, &mut ctx);
        }
        let queued = ctx.queued;
        self.apps = apps;
        for (at, spec) in queued {
            self.schedule_flow(at.max(self.now), spec);
        }

        // Payload transfer: completion after the spec duration, stretched
        // by retransmissions.
        let loss_tail = {
            let flow = &self.flows[id.0 as usize];
            let lost = flow.wire_packets - packets_for(flow.spec.bytes);
            lost * (RTO_US / 8)
        };
        let duration = self.flows[id.0 as usize].spec.duration_us;
        self.push_event(self.now + duration + loss_tail, Ev::Complete { flow: id });
    }

    fn on_complete(&mut self, id: FlowId) {
        if self.flows[id.0 as usize].phase == FlowPhase::Dead {
            return;
        }
        self.add_path_rate(id, -1.0);
        let (key, switch_hops, wire_bytes, wire_packets) = {
            let flow = &mut self.flows[id.0 as usize];
            flow.phase = FlowPhase::Completed;
            flow.completed_at = Some(self.now);
            (
                flow.spec.key,
                // Every path node but the two end hosts.
                flow.path.len().saturating_sub(2),
                flow.wire_bytes,
                flow.wire_packets,
            )
        };
        self.stats.flows_completed += 1;

        // Credit the full transfer to each on-path entry. The first
        // packet was already counted on installation.
        let extra_pkts = wire_packets.saturating_sub(1);
        let extra_bytes = wire_bytes.saturating_sub(PACKET_SIZE.min(wire_bytes));
        for i in 0..switch_hops {
            let (prev, node, next) = {
                let path = &self.flows[id.0 as usize].path;
                (path[i], path[i + 1], path[i + 2])
            };
            if !self.topo.node(node).is_of_switch() {
                continue;
            }
            let in_port = self.adj_port(node, prev);
            let out_port = self.adj_port(node, next);
            if let Some(state) = self.switches.get_mut(&node) {
                state
                    .table
                    .account(&key, in_port, extra_pkts, extra_bytes, self.now);
                let tx = state.port_tx.entry(out_port).or_insert((0, 0));
                tx.0 += wire_bytes;
                tx.1 += wire_packets;
            }
            self.schedule_sweep(node);
        }
    }

    fn schedule_sweep(&mut self, node: NodeId) {
        let now = self.now;
        let state = self.switch_state(node);
        let Some(deadline) = state.table.next_deadline() else {
            return;
        };
        let due = deadline.max(now);
        if state.sweep_at.is_none_or(|t| due < t) {
            state.sweep_at = Some(due);
            self.push_event(due, Ev::ExpirySweep { node });
        }
    }

    fn on_sweep(&mut self, node: NodeId) {
        let dpid = self.dpid(node);
        let now = self.now;
        let state = self.switch_state(node);
        state.sweep_at = None;
        let removed = state.table.expire(now);
        for fr in removed {
            let arrival = self.now + self.ctrl_latency();
            self.log.push(ControlEvent {
                ts: arrival,
                dpid,
                direction: Direction::ToController,
                xid: Xid(0),
                msg: OfpMessage::FlowRemoved(fr),
            });
            self.stats.flow_removeds += 1;
        }
        self.schedule_sweep(node);
    }
}

/// Zeroes the host bits of `ip` below the prefix length.
fn mask_ip(ip: std::net::Ipv4Addr, prefix_len: u32) -> std::net::Ipv4Addr {
    if prefix_len >= 32 {
        return ip;
    }
    let mask = if prefix_len == 0 {
        0
    } else {
        u32::MAX << (32 - prefix_len)
    };
    std::net::Ipv4Addr::from(u32::from(ip) & mask)
}

/// Draws from Binomial(n, p) — exact Bernoulli loop for small n, normal
/// approximation for large n.
fn sample_binomial(rng: &mut StdRng, n: u64, p: f64) -> u64 {
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if n <= 64 {
        (0..n).filter(|_| rng.gen::<f64>() < p).count() as u64
    } else {
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        // Box-Muller
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + sd * z).round().clamp(0.0, n as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflow::match_fields::FlowKey;
    use std::net::Ipv4Addr;

    fn two_host_line() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 1));
        let h2 = t.add_host("h2", Ipv4Addr::new(10, 0, 0, 2));
        let s1 = t.add_of_switch("s1");
        let s2 = t.add_of_switch("s2");
        t.connect(h1, s1, 50, 1_000_000_000);
        t.connect(s1, s2, 20, 1_000_000_000);
        t.connect(s2, h2, 50, 1_000_000_000);
        (t, h1, h2)
    }

    fn flow_1_to_2(sport: u16) -> FlowSpec {
        FlowSpec::new(
            FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                sport,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            ),
            15_000,
            10_000,
        )
    }

    fn run_one(sim: &mut Simulation) -> ControllerLog {
        sim.run_until(Timestamp::from_secs(60));
        sim.take_log()
    }

    #[test]
    fn single_flow_produces_packetin_flowmod_per_switch_and_flowremoved() {
        let (t, _, _) = two_host_line();
        let mut sim = Simulation::new(t, Deployment::Reactive, 1);
        sim.schedule_flow(Timestamp::from_secs(1), flow_1_to_2(4000));
        let log = run_one(&mut sim);
        assert_eq!(log.packet_ins().count(), 2, "one miss per OF switch");
        assert_eq!(log.flow_mods().count(), 2);
        assert_eq!(log.flow_removeds().count(), 2);
        let stats = sim.stats();
        assert_eq!(stats.flows_started, 1);
        assert_eq!(stats.flows_delivered, 1);
        assert_eq!(stats.flows_completed, 1);
        assert_eq!(stats.flows_dead, 0);
    }

    #[test]
    fn flow_removed_counters_match_wire_bytes() {
        let (t, _, _) = two_host_line();
        let mut sim = Simulation::new(t, Deployment::Reactive, 1);
        sim.schedule_flow(Timestamp::from_secs(1), flow_1_to_2(4000));
        let log = run_one(&mut sim);
        for (_, _, fr) in log.flow_removeds() {
            assert_eq!(fr.byte_count, 15_000);
            assert_eq!(fr.packet_count, 10);
        }
    }

    #[test]
    fn packetin_order_follows_path() {
        let (t, _, _) = two_host_line();
        let mut sim = Simulation::new(t.clone(), Deployment::Reactive, 1);
        sim.schedule_flow(Timestamp::from_secs(1), flow_1_to_2(4000));
        let log = run_one(&mut sim);
        let pis: Vec<_> = log.packet_ins().collect();
        assert_eq!(pis.len(), 2);
        let s1 = t.dpid_of(t.node_by_name("s1").unwrap()).unwrap();
        let s2 = t.dpid_of(t.node_by_name("s2").unwrap()).unwrap();
        assert_eq!(pis[0].1, s1);
        assert_eq!(pis[1].1, s2);
        assert!(pis[0].0 < pis[1].0);
    }

    #[test]
    fn second_flow_same_key_within_timeout_hits_table() {
        let (t, _, _) = two_host_line();
        let mut sim = Simulation::new(t, Deployment::Reactive, 1);
        sim.schedule_flow(Timestamp::from_secs(1), flow_1_to_2(4000));
        // Same 5-tuple again, 2 seconds later (< 5 s idle timeout since
        // completion refreshes the entry).
        sim.schedule_flow(Timestamp::from_secs(3), flow_1_to_2(4000));
        let log = run_one(&mut sim);
        assert_eq!(
            log.packet_ins().count(),
            2,
            "second flow must not miss: entries still installed"
        );
    }

    #[test]
    fn distinct_flows_each_trigger_control_traffic() {
        let (t, _, _) = two_host_line();
        let mut sim = Simulation::new(t, Deployment::Reactive, 1);
        for i in 0..5 {
            sim.schedule_flow(Timestamp::from_secs(1 + i), flow_1_to_2(4000 + i as u16));
        }
        let log = run_one(&mut sim);
        assert_eq!(log.packet_ins().count(), 10);
        assert_eq!(log.flow_removeds().count(), 10);
    }

    #[test]
    fn host_down_produces_no_traffic_from_host() {
        let (t, h1, _) = two_host_line();
        let mut sim = Simulation::new(t, Deployment::Reactive, 1);
        sim.schedule_fault(Timestamp::ZERO, Fault::HostDown { host: h1 });
        sim.schedule_flow(Timestamp::from_secs(1), flow_1_to_2(4000));
        let log = run_one(&mut sim);
        assert_eq!(log.packet_ins().count(), 0);
        assert_eq!(sim.stats().flows_dead, 1);
    }

    #[test]
    fn dead_service_still_triggers_packetins_but_no_delivery() {
        let (t, _, h2) = two_host_line();
        let mut sim = Simulation::new(t, Deployment::Reactive, 1);
        sim.schedule_fault(Timestamp::ZERO, Fault::PortBlock { host: h2, port: 80 });
        sim.schedule_flow(Timestamp::from_secs(1), flow_1_to_2(4000));
        let log = run_one(&mut sim);
        assert_eq!(log.packet_ins().count(), 2, "request still crosses fabric");
        assert_eq!(sim.stats().flows_delivered, 0);
        // The tiny SYN-retry footprint is what the counters record (the
        // installed first packet is quantized at one packet_size).
        let max_bytes = log.flow_removeds().map(|(_, _, fr)| fr.byte_count).max();
        assert!(max_bytes.unwrap() <= 1_500 + 200);
    }

    #[test]
    fn switch_failure_reroutes_subsequent_flows() {
        // diamond: h1 - s1 - {s2|s3} - s4 - h2
        let mut t = Topology::new();
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 1));
        let h2 = t.add_host("h2", Ipv4Addr::new(10, 0, 0, 2));
        let s1 = t.add_of_switch("s1");
        let s2 = t.add_of_switch("s2");
        let s3 = t.add_of_switch("s3");
        let s4 = t.add_of_switch("s4");
        t.connect(h1, s1, 10, 1_000_000_000);
        t.connect(s1, s2, 10, 1_000_000_000);
        t.connect(s1, s3, 10, 1_000_000_000);
        t.connect(s2, s4, 10, 1_000_000_000);
        t.connect(s3, s4, 10, 1_000_000_000);
        t.connect(s4, h2, 10, 1_000_000_000);
        let s2_dpid = t.dpid_of(s2).unwrap();
        let s3_dpid = t.dpid_of(s3).unwrap();

        let mut sim = Simulation::new(t, Deployment::Reactive, 1);
        sim.schedule_flow(Timestamp::from_secs(1), flow_1_to_2(4000));
        sim.schedule_fault(
            Timestamp::from_secs(10),
            Fault::SwitchFailure { switch: s2 },
        );
        sim.schedule_flow(Timestamp::from_secs(11), flow_1_to_2(4001));
        let log = run_one(&mut sim);

        let early: Vec<_> = log
            .packet_ins()
            .filter(|(ts, ..)| *ts < Timestamp::from_secs(10))
            .map(|(_, d, ..)| d)
            .collect();
        let late: Vec<_> = log
            .packet_ins()
            .filter(|(ts, ..)| *ts > Timestamp::from_secs(10))
            .map(|(_, d, ..)| d)
            .collect();
        assert!(early.contains(&s2_dpid) ^ early.contains(&s3_dpid));
        assert!(late.contains(&s3_dpid));
        assert!(!late.contains(&s2_dpid));
    }

    #[test]
    fn link_loss_inflates_bytes_and_delays() {
        let (t, _, _) = two_host_line();
        let link = t
            .link_between(t.node_by_name("s1").unwrap(), t.node_by_name("s2").unwrap())
            .unwrap();

        // Baseline.
        let mut clean = Simulation::new(t.clone(), Deployment::Reactive, 42);
        clean.schedule_flow(Timestamp::from_secs(1), flow_1_to_2(4000));
        let clean_log = run_one(&mut clean);
        let clean_bytes: u64 = clean_log
            .flow_removeds()
            .map(|(_, _, fr)| fr.byte_count)
            .max()
            .unwrap();

        // Lossy: average over several flows so the binomial draw cannot
        // be zero for all of them.
        let mut lossy = Simulation::new(t, Deployment::Reactive, 42);
        lossy.schedule_fault(Timestamp::ZERO, Fault::LinkLoss { link, rate: 0.3 });
        for i in 0..10 {
            lossy.schedule_flow(
                Timestamp::from_secs(1 + i * 2),
                flow_1_to_2(4000 + i as u16),
            );
        }
        lossy.run_until(Timestamp::from_secs(120));
        let lossy_log = lossy.take_log();
        let lossy_total: u64 = lossy_log
            .flow_removeds()
            .map(|(_, _, fr)| fr.byte_count)
            .sum();
        let lossy_count = lossy_log.flow_removeds().count() as u64;
        assert!(
            lossy_total / lossy_count > clean_bytes,
            "retransmissions must inflate byte counts: {lossy_total}/{lossy_count} vs {clean_bytes}"
        );
    }

    #[test]
    fn controller_overload_raises_response_time() {
        let (t, _, _) = two_host_line();
        let mut sim = Simulation::new(t, Deployment::Reactive, 3);
        sim.schedule_flow(Timestamp::from_secs(1), flow_1_to_2(4000));
        sim.schedule_fault(
            Timestamp::from_secs(5),
            Fault::ControllerOverload { factor: 50.0 },
        );
        sim.schedule_flow(Timestamp::from_secs(10), flow_1_to_2(4001));
        let log = run_one(&mut sim);

        // Pair PacketIn -> FlowMod by xid, compare response times.
        let mut crt = Vec::new();
        for (ts_pi, _, xid, _) in log.packet_ins() {
            if let Some((ts_fm, _, _, _)) = log.flow_mods().find(|(_, _, x, _)| *x == xid) {
                crt.push((ts_pi, ts_fm - ts_pi));
            }
        }
        let early: Vec<u64> = crt
            .iter()
            .filter(|(ts, _)| *ts < Timestamp::from_secs(5))
            .map(|(_, d)| *d)
            .collect();
        let late: Vec<u64> = crt
            .iter()
            .filter(|(ts, _)| *ts > Timestamp::from_secs(5))
            .map(|(_, d)| *d)
            .collect();
        assert!(!early.is_empty() && !late.is_empty());
        let avg = |v: &[u64]| v.iter().sum::<u64>() / v.len() as u64;
        assert!(avg(&late) > avg(&early) * 10);
    }

    #[test]
    fn app_logic_schedules_dependent_flow() {
        struct Relay;
        impl AppLogic for Relay {
            fn on_flow_delivered(&mut self, flow: &DeliveredFlow, ctx: &mut AppCtx<'_>) {
                // h2 relays every request on port 80 back to h1:9000.
                if flow.spec.key.tp_dst == 80 {
                    let key =
                        FlowKey::tcp(flow.spec.key.nw_dst, 30_000, flow.spec.key.nw_src, 9000);
                    ctx.schedule_flow_after(60_000, FlowSpec::new(key, 2_000, 5_000));
                }
            }
        }
        let (t, _, _) = two_host_line();
        let mut sim = Simulation::new(t, Deployment::Reactive, 5);
        sim.add_app(Box::new(Relay));
        sim.schedule_flow(Timestamp::from_secs(1), flow_1_to_2(4000));
        let log = run_one(&mut sim);
        assert_eq!(sim.stats().flows_delivered, 2);
        // 2 flows x 2 switches
        assert_eq!(log.packet_ins().count(), 4);
        // The dependent flow appears ~60 ms after the first delivery.
        let pis: Vec<_> = log.packet_ins().map(|(ts, ..)| ts).collect();
        let gap = pis[2] - pis[1];
        assert!(
            (55_000..110_000).contains(&gap),
            "dependent flow should lag by ~60ms, got {gap}us"
        );
    }

    #[test]
    fn host_slowdown_stretches_dependent_delay() {
        struct Relay;
        impl AppLogic for Relay {
            fn on_flow_delivered(&mut self, flow: &DeliveredFlow, ctx: &mut AppCtx<'_>) {
                if flow.spec.key.tp_dst == 80 {
                    let key =
                        FlowKey::tcp(flow.spec.key.nw_dst, 30_000, flow.spec.key.nw_src, 9000);
                    ctx.schedule_flow_after(60_000, FlowSpec::new(key, 2_000, 5_000));
                }
            }
        }
        let (t, _, h2) = two_host_line();
        let mut sim = Simulation::new(t, Deployment::Reactive, 5);
        sim.add_app(Box::new(Relay));
        sim.schedule_fault(
            Timestamp::ZERO,
            Fault::HostSlowdown {
                host: h2,
                extra_us: 100_000,
            },
        );
        sim.schedule_flow(Timestamp::from_secs(1), flow_1_to_2(4000));
        let log = run_one(&mut sim);
        let pis: Vec<_> = log.packet_ins().map(|(ts, ..)| ts).collect();
        let gap = pis[2] - pis[1];
        assert!(gap > 155_000, "slowdown must add 100ms, got {gap}us");
    }

    #[test]
    fn determinism_same_seed_same_log() {
        let build = || {
            let (t, _, _) = two_host_line();
            let mut sim = Simulation::new(t, Deployment::Reactive, 77);
            for i in 0..20 {
                sim.schedule_flow(
                    Timestamp::from_millis(500 * (i + 1)),
                    flow_1_to_2(5000 + i as u16),
                );
            }
            run_one(&mut sim)
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_timings() {
        let build = |seed| {
            let (t, _, _) = two_host_line();
            let mut sim = Simulation::new(t, Deployment::Reactive, seed);
            sim.schedule_flow(Timestamp::from_secs(1), flow_1_to_2(5000));
            run_one(&mut sim)
        };
        let a = build(1);
        let b = build(2);
        assert_ne!(
            a.events().first().map(|e| e.ts),
            b.events().first().map(|e| e.ts)
        );
    }

    #[test]
    fn proactive_mode_silences_control_plane() {
        let (t, _, _) = two_host_line();
        let mut sim = Simulation::new(t, Deployment::Proactive, 1);
        for i in 0..5 {
            sim.schedule_flow(Timestamp::from_secs(1 + i), flow_1_to_2(4000 + i as u16));
        }
        let log = run_one(&mut sim);
        assert_eq!(log.packet_ins().count(), 0, "no misses when proactive");
        assert_eq!(log.flow_removeds().count(), 0);
        assert_eq!(sim.stats().flows_delivered, 5, "forwarding still works");
        // liveness keepalives remain
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e.msg, OfpMessage::EchoReply(_))));
    }

    #[test]
    fn wildcard_mode_reduces_packet_ins() {
        let (t, _, _) = two_host_line();
        let count_for = |deployment| {
            let (t2, _, _) = two_host_line();
            let _ = &t;
            let mut sim = Simulation::new(t2, deployment, 1);
            // ten concurrent flows to the same destination host
            for i in 0..10 {
                sim.schedule_flow(
                    Timestamp::from_millis(1_000 + i * 100),
                    flow_1_to_2(4000 + i as u16),
                );
            }
            sim.run_until(Timestamp::from_secs(60));
            (
                sim.take_log().packet_ins().count(),
                sim.stats().flows_delivered,
            )
        };
        let (reactive, d1) = count_for(Deployment::Reactive);
        let (wildcard, d2) = count_for(Deployment::Wildcard { prefix_len: 24 });
        assert_eq!(d1, 10);
        assert_eq!(d2, 10);
        assert_eq!(reactive, 20, "one miss per flow per switch");
        assert_eq!(
            wildcard, 2,
            "only the first flow misses; the /24 rule covers the rest"
        );
    }

    #[test]
    fn wildcard_flow_removed_aggregates_counters() {
        let (t, _, _) = two_host_line();
        let mut sim = Simulation::new(t, Deployment::Wildcard { prefix_len: 24 }, 1);
        for i in 0..5 {
            sim.schedule_flow(
                Timestamp::from_millis(1_000 + i * 100),
                flow_1_to_2(4000 + i as u16),
            );
        }
        let log = run_one(&mut sim);
        // one aggregated removal per switch carrying all five flows
        let totals: Vec<u64> = log
            .flow_removeds()
            .map(|(_, _, fr)| fr.byte_count)
            .collect();
        assert_eq!(totals.len(), 2);
        assert!(totals.iter().all(|&b| b == 5 * 15_000));
    }

    #[test]
    fn stats_polling_reports_growing_counters() {
        let (t, _, _) = two_host_line();
        let mut sim = Simulation::new(t, Deployment::Reactive, 1);
        for i in 0..6 {
            sim.schedule_flow(
                Timestamp::from_secs(2 + i * 5),
                flow_1_to_2(4000 + i as u16),
            );
        }
        sim.run_until(Timestamp::from_secs(40));
        let log = sim.take_log();
        // polls every 10 s: requests and replies both present
        let mut replies = Vec::new();
        for ev in log.events() {
            if let OfpMessage::StatsReply(openflow::messages::StatsReply::Port(ports)) = &ev.msg {
                replies.push((ev.ts, ev.dpid, ports.clone()));
            }
        }
        assert!(
            replies.len() >= 6,
            "two switches x >=3 polls: {}",
            replies.len()
        );
        // counters are cumulative per (switch, port): never decreasing
        use std::collections::HashMap;
        let mut last: HashMap<(openflow::types::DatapathId, PortNo), u64> = HashMap::new();
        let mut grew = false;
        for (_, dpid, ports) in &replies {
            for p in ports {
                let prev = last.insert((*dpid, p.port_no), p.tx_bytes);
                if let Some(prev) = prev {
                    assert!(p.tx_bytes >= prev, "counters must be cumulative");
                    grew |= p.tx_bytes > prev;
                }
            }
        }
        assert!(grew, "traffic must show up in the counters");
    }

    #[test]
    fn controller_down_leaves_packet_ins_unanswered() {
        let (t, _, _) = two_host_line();
        let mut sim = Simulation::new(t, Deployment::Reactive, 1);
        sim.schedule_flow(Timestamp::from_secs(1), flow_1_to_2(4000));
        sim.schedule_fault(Timestamp::from_secs(5), Fault::ControllerDown);
        sim.schedule_flow(Timestamp::from_secs(10), flow_1_to_2(4001));
        let log = run_one(&mut sim);
        // first flow: 2 PacketIns answered; second: 1 PacketIn (dies at
        // the first switch), no reply
        assert_eq!(log.packet_ins().count(), 3);
        assert_eq!(log.flow_mods().count(), 2);
        assert_eq!(sim.stats().flows_dead, 1);
        assert_eq!(sim.stats().flows_delivered, 1);
    }

    #[test]
    fn binomial_sampler_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 1.0), 100);
        for _ in 0..100 {
            let s = sample_binomial(&mut rng, 1000, 0.01);
            assert!(s <= 1000);
        }
        // expectation sanity: mean of many draws near n*p
        let draws: Vec<u64> = (0..500)
            .map(|_| sample_binomial(&mut rng, 10_000, 0.01))
            .collect();
        let mean = draws.iter().sum::<u64>() as f64 / draws.len() as f64;
        assert!((80.0..120.0).contains(&mean), "mean {mean} far from 100");
    }

    #[test]
    fn congestion_increases_latency() {
        let (t, _, _) = two_host_line();
        // Baseline gap between the two PacketIns of one flow.
        let measure = |bg: bool| {
            let (t2, _, _) = two_host_line();
            let _ = &t;
            let mut sim = Simulation::new(t2, Deployment::Reactive, 9);
            if bg {
                // Saturating background flow over the same path.
                let key = FlowKey::udp(
                    Ipv4Addr::new(10, 0, 0, 1),
                    9999,
                    Ipv4Addr::new(10, 0, 0, 2),
                    5001,
                );
                sim.schedule_flow(
                    Timestamp::from_millis(500),
                    FlowSpec::new(key, 50_000_000_000, 60_000_000),
                );
            }
            sim.schedule_flow(Timestamp::from_secs(2), flow_1_to_2(4000));
            let log = run_one(&mut sim);
            let pis: Vec<_> = log
                .packet_ins()
                .filter(|(ts, ..)| *ts > Timestamp::from_secs(1))
                .map(|(ts, ..)| ts)
                .collect();
            pis[1] - pis[0]
        };
        let quiet = measure(false);
        let busy = measure(true);
        assert!(
            busy > quiet,
            "background traffic must slow the fabric: {busy} <= {quiet}"
        );
    }
}
