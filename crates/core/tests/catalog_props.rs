//! Property-based tests for the entity catalog (`flowdiff::ids`):
//! intern/resolve round-trips, invariance of derived results under the
//! catalog's interning order (host and edge IDs alike), and the
//! no-aliasing guarantee between models with disjoint catalogs.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flowdiff::config::FlowDiffConfig;
use flowdiff::groups::{discover_window, Discovery, Edge};
use flowdiff::ids::{EntityCatalog, HostId, IRecord, InternedLog, RecordIndex};
use flowdiff::records::{FlowRecord, FlowTuple};
use flowdiff::signatures::connectivity::ConnectivityGraph;
use flowdiff::signatures::correlation::PartialCorrelation;
use flowdiff::signatures::delay::DelayDistribution;
use flowdiff::signatures::flow_stats::FlowStatsSig;
use flowdiff::signatures::interaction::ComponentInteraction;
use flowdiff::signatures::{DiffCtx, EdgeSlots, Signature, SignatureInputs};
use openflow::types::{DatapathId, IpProto, PortNo, Timestamp};

fn ip(x: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, x)
}

fn record(s: u8, d: u8, dport: u16, i: usize) -> FlowRecord {
    FlowRecord {
        tuple: FlowTuple {
            src: ip(s),
            sport: 20_000 + i as u16,
            dst: ip(d),
            dport,
            proto: IpProto::TCP,
        },
        first_seen: Timestamp::from_millis(i as u64),
        hops: vec![],
        byte_count: 1_000,
        packet_count: 10,
        duration_s: 0.1,
    }
}

fn records_of(edges: &[(u8, u8, u16)]) -> Vec<FlowRecord> {
    edges
        .iter()
        .enumerate()
        .filter(|(_, (s, d, _))| s != d)
        .map(|(i, (s, d, port))| record(*s, *d, *port, i))
        .collect()
}

/// Interns `records` through a catalog pre-warmed with `hosts` in the
/// given order, so the dense ID assignment differs from first-seen
/// record order.
fn intern_with_warmup(records: &[FlowRecord], hosts: &[Ipv4Addr]) -> (EntityCatalog, Vec<IRecord>) {
    let mut catalog = EntityCatalog::new();
    for &h in hosts {
        catalog.intern_host(h);
    }
    let irecords = records.iter().map(|r| catalog.intern_record(r)).collect();
    (catalog, irecords)
}

/// Hosts 10 and 11 are special-purpose, so a window over hosts 0..12
/// has member flows, flows to and replies from a service node, and
/// service-to-service flows; `src == dst` gives self-edges.
fn service_config() -> FlowDiffConfig {
    FlowDiffConfig::default().with_special_ips([ip(10), ip(11)])
}

/// One record per `(src, dst, dport)`, self-edges kept, 0.9 s apart so
/// PC's 1 s epochs and DD's pairing window both see structure.
fn mixed_window(edges: &[(u8, u8, u16)]) -> Vec<FlowRecord> {
    (edges.iter().enumerate())
        .map(|(i, &(s, d, dport))| FlowRecord {
            first_seen: Timestamp::from_millis(i as u64 * 900),
            ..record(s, d, dport, i)
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Interns `records` through a catalog that first interned every host
/// of 0..12 and every edge between them (self-edges included, most on
/// no record) in a `seed`-shuffled order, so neither host nor edge IDs
/// follow first appearance.
fn intern_shuffled(records: &[FlowRecord], seed: u64) -> (EntityCatalog, Vec<IRecord>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hosts: Vec<Ipv4Addr> = (0..12).map(ip).collect();
    shuffle(&mut hosts, &mut rng);
    let mut catalog = EntityCatalog::new();
    let ids: Vec<HostId> = hosts.iter().map(|&h| catalog.intern_host(h)).collect();
    let mut edges: Vec<(HostId, HostId)> = (ids.iter())
        .flat_map(|&s| ids.iter().map(move |&d| (s, d)))
        .collect();
    shuffle(&mut edges, &mut rng);
    for (s, d) in edges {
        catalog.intern_edge(s, d);
    }
    let irecords = records.iter().map(|r| catalog.intern_record(r)).collect();
    (catalog, irecords)
}

/// The window's groups and each group's CG, FS, CI, DD and PC, built the
/// way the model builder builds them (discovery's edge slots attached),
/// serialized. Checks on the way that the attached slots are the ones
/// the signature inputs would derive on their own.
fn group_signature_bytes(
    refs: &[&IRecord],
    catalog: &EntityCatalog,
    config: &FlowDiffConfig,
) -> Vec<Vec<u8>> {
    let span = (Timestamp::ZERO, Timestamp::from_secs(60));
    let Discovery { groups, slots, .. } = discover_window(refs, catalog, config);
    let mut out = vec![serde::to_vec(&groups)];
    for group in &groups {
        let records: Vec<&IRecord> = group.record_indices.iter().map(|&i| refs[i]).collect();
        let edge_slots = EdgeSlots::of_group(group, &records, &slots);
        assert_eq!(edge_slots, EdgeSlots::of(&records, catalog));
        let inputs =
            SignatureInputs::new(&records, catalog, span, config).with_edge_slots(&edge_slots);
        out.push(serde::to_vec(&ConnectivityGraph::build(&inputs)));
        out.push(serde::to_vec(&FlowStatsSig::build(&inputs)));
        out.push(serde::to_vec(&ComponentInteraction::build(&inputs)));
        out.push(serde::to_vec(&DelayDistribution::build(&inputs)));
        out.push(serde::to_vec(&PartialCorrelation::build(&inputs)));
    }
    out
}

#[test]
fn ci_counts_a_self_edge_twice_under_its_node() {
    let records = vec![
        record(1, 1, 80, 0),
        record(1, 1, 81, 1),
        record(1, 1, 82, 2),
        record(1, 2, 80, 3),
    ];
    let il = InternedLog::of(&records);
    let config = FlowDiffConfig::default();
    let span = (Timestamp::ZERO, Timestamp::from_secs(1));
    let ci = ComponentInteraction::build(&SignatureInputs::new(
        &il.refs(),
        &il.catalog,
        span,
        &config,
    ));
    let edge = |s: u8, d: u8| Edge {
        src: ip(s),
        dst: ip(d),
    };
    let counts = &ci.per_node[&ip(1)].edge_counts;
    assert_eq!((counts[&edge(1, 1)], counts[&edge(1, 2)]), (6, 1));
    assert_eq!(ci.per_node[&ip(2)].edge_counts[&edge(1, 2)], 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn group_signatures_invariant_under_edge_interning_order(
        edges in prop::collection::vec((0u8..12, 0u8..12, 1u16..4), 1..40),
        seed in any::<u64>(),
    ) {
        let config = service_config();
        let records = mixed_window(&edges);
        let fresh = InternedLog::of(&records);
        let expected = group_signature_bytes(&fresh.refs(), &fresh.catalog, &config);

        let (catalog, irecords) = intern_shuffled(&records, seed);
        let refs: Vec<&IRecord> = irecords.iter().collect();
        prop_assert_eq!(group_signature_bytes(&refs, &catalog, &config), expected);
    }

    #[test]
    fn intern_resolve_round_trips(
        host_bytes in prop::collection::vec(1u8..250, 1..40),
        dpids in prop::collection::vec(1u64..500, 1..20),
        ports in prop::collection::vec(1u16..48, 1..20),
    ) {
        let mut catalog = EntityCatalog::new();
        for &b in &host_bytes {
            let id = catalog.intern_host(ip(b));
            // resolve inverts intern, and re-interning is stable
            prop_assert_eq!(catalog.host(id), ip(b));
            prop_assert_eq!(catalog.intern_host(ip(b)), id);
            prop_assert_eq!(catalog.host_id(ip(b)), Some(id));
        }
        for &d in &dpids {
            let sw = catalog.intern_switch(DatapathId(d));
            prop_assert_eq!(catalog.switch(sw), DatapathId(d));
            prop_assert_eq!(catalog.intern_switch(DatapathId(d)), sw);
            for &p in &ports {
                let pid = catalog.intern_port(sw, PortNo(p));
                prop_assert_eq!(catalog.port(pid), (sw, PortNo(p)));
                prop_assert_eq!(catalog.port_addr(pid), (DatapathId(d), PortNo(p)));
                prop_assert_eq!(catalog.intern_port(sw, PortNo(p)), pid);
            }
        }
        // IDs are dense: exactly one per distinct entity, 0..n
        let distinct_hosts: BTreeSet<u8> = host_bytes.iter().copied().collect();
        let distinct_dpids: BTreeSet<u64> = dpids.iter().copied().collect();
        prop_assert_eq!(catalog.n_hosts(), distinct_hosts.len());
        prop_assert_eq!(catalog.n_switches(), distinct_dpids.len());
        prop_assert_eq!(
            catalog.n_ports(),
            distinct_dpids.len() * ports.iter().copied().collect::<BTreeSet<u16>>().len()
        );
        for (i, &addr) in catalog.hosts().iter().enumerate() {
            prop_assert_eq!(catalog.host_id(addr), Some(HostId(i as u32)));
        }
    }

    #[test]
    fn groups_invariant_under_interning_order(
        edges in prop::collection::vec((0u8..12, 0u8..12, 1u16..5), 1..30),
    ) {
        let config = FlowDiffConfig::default();
        let records = records_of(&edges);
        if records.is_empty() {
            return Ok(());
        }

        // Catalog A: IDs assigned in first-seen record order.
        let il = InternedLog::of(&records);
        let groups_a = discover_window(&il.refs(), &il.catalog, &config).groups;

        // Catalog B: IDs assigned by pre-interning every host in
        // descending address order, then interning the same records.
        let mut hosts: Vec<Ipv4Addr> = records
            .iter()
            .flat_map(|r| [r.tuple.src, r.tuple.dst])
            .collect();
        hosts.sort();
        hosts.dedup();
        hosts.reverse();
        let (catalog_b, irecords_b) = intern_with_warmup(&records, &hosts);
        let refs_b: Vec<&IRecord> = irecords_b.iter().collect();
        let groups_b = discover_window(&refs_b, &catalog_b, &config).groups;

        // Group discovery resolves IDs back to addresses, so the result
        // must not depend on how IDs were assigned.
        prop_assert_eq!(groups_a, groups_b);
    }

    #[test]
    fn signature_and_diff_invariant_under_interning_order(
        edges in prop::collection::vec((0u8..10, 0u8..10, 1u16..4), 1..25),
    ) {
        let config = FlowDiffConfig::default();
        let records = records_of(&edges);
        if records.is_empty() {
            return Ok(());
        }
        let span = (Timestamp::ZERO, Timestamp::from_secs(60));

        let il = InternedLog::of(&records);
        let refs_a: Vec<&IRecord> = il.records.iter().collect();
        let groups_a = discover_window(&refs_a, &il.catalog, &config).groups;

        let mut hosts: Vec<Ipv4Addr> = records
            .iter()
            .flat_map(|r| [r.tuple.src, r.tuple.dst])
            .collect();
        hosts.sort();
        hosts.dedup();
        hosts.reverse();
        let (catalog_b, irecords_b) = intern_with_warmup(&records, &hosts);
        let refs_b: Vec<&IRecord> = irecords_b.iter().collect();
        let groups_b = discover_window(&refs_b, &catalog_b, &config).groups;
        prop_assert_eq!(&groups_a, &groups_b);

        // Build the first group's connectivity graph under both ID
        // assignments: the finished signatures are address-keyed and
        // must be identical, and diffing them must report no changes.
        let cg_a = ConnectivityGraph::build(
            &SignatureInputs::new(&refs_a, &il.catalog, span, &config),
        );
        let cg_b = ConnectivityGraph::build(
            &SignatureInputs::new(&refs_b, &catalog_b, span, &config),
        );
        prop_assert_eq!(&cg_a, &cg_b);

        let index = RecordIndex::of_records(&records);
        let ctx = DiffCtx { records: &index };
        prop_assert!(cg_a.diff(&cg_b, &ctx).is_empty());
    }

    #[test]
    fn disjoint_catalogs_never_alias_hosts(
        raw_a in prop::collection::vec(1u8..120, 1..30),
        raw_b in prop::collection::vec(130u8..250, 1..30),
    ) {
        let set_a: BTreeSet<u8> = raw_a.into_iter().collect();
        let set_b: BTreeSet<u8> = raw_b.into_iter().collect();
        // Two models built from different logs have independent
        // catalogs: the same numeric ID means different hosts, and
        // cross-model comparison goes through addresses only.
        let mut cat_a = EntityCatalog::new();
        let mut cat_b = EntityCatalog::new();
        for &x in &set_a {
            cat_a.intern_host(ip(x));
        }
        for &x in &set_b {
            cat_b.intern_host(ip(x));
        }
        for i in 0..cat_a.n_hosts() {
            let addr = cat_a.host(HostId(i as u32));
            // B has never seen A's addresses…
            prop_assert_eq!(cat_b.host_id(addr), None);
            // …and the same dense index resolves to a different host.
            if i < cat_b.n_hosts() {
                prop_assert_ne!(cat_b.host(HostId(i as u32)), addr);
            }
        }

        // A RecordIndex over A's records cannot answer for B's edges:
        // unknown endpoints resolve to None, never to an aliased ID.
        let recs_a: Vec<FlowRecord> = set_a
            .iter()
            .zip(set_a.iter().skip(1))
            .enumerate()
            .map(|(i, (&s, &d))| record(s, d, 80, i))
            .collect();
        let index = RecordIndex::of_records(&recs_a);
        if set_b.len() >= 2 {
            let mut it = set_b.iter();
            let (s, d) = (*it.next().unwrap(), *it.next().unwrap());
            let edge = flowdiff::groups::Edge { src: ip(s), dst: ip(d) };
            prop_assert_eq!(index.first_seen(&edge), None);
        }
    }
}
