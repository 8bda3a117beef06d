//! The application and infrastructure signatures of Section III.
//!
//! Application signatures (per application group):
//! * [`connectivity`] — the connectivity graph (CG);
//! * [`flow_stats`] — flow statistics (FS);
//! * [`interaction`] — component interaction (CI);
//! * [`delay`] — delay distribution (DD);
//! * [`correlation`] — partial correlation (PC).
//!
//! Infrastructure signatures (whole data center): [`infra`] — physical
//! topology (PT), inter-switch latency (ISL), and controller response
//! time (CRT) — plus the [`utilization`] baseline (LU) from polled port
//! counters.
//!
//! All nine implement the [`Signature`] trait, which is the only
//! interface the model builder, stability analysis, diff engine, and
//! diagnosis layers use: build from [`SignatureInputs`], diff under a
//! [`DiffCtx`], judge stability into a [`StabilityMask`], and render
//! typed changes into the tagged [`Change`] vocabulary.
//!
//! A signature is a pure function of a sorted log window. Sliding the
//! window is the job of the model builder's maintained window, which
//! hands every epoch and every batch build the same sorted slice. DD,
//! PT, ISL and CRT build in two steps — a partial over the records
//! first seen in one slice of the window, and a fold of the partials in
//! window order — so the online boundary can keep one partial per
//! epoch-wide pane and rebuild only the panes that changed; their
//! [`Signature::build`] is the fold of one partial over the whole feed.
//! The one accumulator that lives across epochs otherwise is
//! [`utilization::LuBuilder`], fed from raw events rather than records.

pub mod connectivity;
pub mod correlation;
pub mod delay;
pub mod flow_stats;
pub mod infra;
pub mod interaction;
pub mod utilization;

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use openflow::types::Timestamp;
use serde::{Deserialize, Serialize};

use crate::change::{Change, Locus, SignatureKind};
use crate::config::FlowDiffConfig;
use crate::groups::{AppGroup, Edge};
use crate::ids::{EdgeId, EntityCatalog, IRecord, RecordIndex};
use netsim::log::ControllerLog;

/// Everything a signature may need to build itself. Each signature picks
/// the fields it cares about: application signatures use their group's
/// records, infrastructure signatures use all records, and LU reads the
/// raw log (port-stats replies never become flow records).
#[derive(Clone, Copy)]
pub struct SignatureInputs<'a> {
    /// The records to build from: the group's records for application
    /// signatures, every record in the log for infrastructure ones.
    /// Already interned through `catalog`, and in window order:
    /// ascending `(first_seen, tuple)`, records sharing a key in the
    /// order the window holds them. Builds fold f64 samples and pick
    /// first-wins attachments in feed order, so the order is part of
    /// the input; [`SignatureInputs::new`] checks it in debug builds.
    pub records: &'a [&'a IRecord],
    /// The catalog the records were interned through. Builds resolve
    /// IDs back to addresses through it when they lay out the finished,
    /// serializable signature.
    pub catalog: &'a EntityCatalog,
    /// The log's time window.
    pub span: (Timestamp, Timestamp),
    /// Domain knowledge (which nodes are service nodes).
    pub config: &'a FlowDiffConfig,
    /// The raw controller log (LU only).
    pub log: Option<&'a ControllerLog>,
    /// The feed's edges and each record's slot among them, when the
    /// caller already has them (the model builder, from group
    /// discovery); [`SignatureInputs::edge_slots`] derives them
    /// otherwise.
    edge_slots: Option<&'a EdgeSlots>,
}

impl<'a> SignatureInputs<'a> {
    /// Inputs with records, their catalog, span, and config — the
    /// common case. `records` must be in window order (see
    /// [`SignatureInputs::records`]); release builds do not check.
    pub fn new(
        records: &'a [&'a IRecord],
        catalog: &'a EntityCatalog,
        span: (Timestamp, Timestamp),
        config: &'a FlowDiffConfig,
    ) -> Self {
        debug_assert!(
            records
                .windows(2)
                .all(|w| (w[0].first_seen, w[0].tuple) <= (w[1].first_seen, w[1].tuple)),
            "records must be in ascending (first_seen, tuple) order"
        );
        SignatureInputs {
            records,
            catalog,
            span,
            config,
            log: None,
            edge_slots: None,
        }
    }

    /// Attaches the raw controller log (builder style).
    #[must_use]
    pub fn with_log(mut self, log: &'a ControllerLog) -> Self {
        self.log = Some(log);
        self
    }

    /// Attaches the feed's edge slots (builder style); they must be the
    /// slots of exactly these records.
    #[must_use]
    pub fn with_edge_slots(mut self, slots: &'a EdgeSlots) -> Self {
        debug_assert_eq!(slots.members.len(), self.records.len());
        self.edge_slots = Some(slots);
        self
    }

    /// The feed's edge slots: the attached ones, or derived from the
    /// records when none were attached.
    pub fn edge_slots(&self) -> Cow<'a, EdgeSlots> {
        match self.edge_slots {
            Some(slots) => Cow::Borrowed(slots),
            None => Cow::Owned(EdgeSlots::of(self.records, self.catalog)),
        }
    }
}

/// The distinct `(src, dst)` edges of a feed, ascending by address, each
/// with its records: what FS, CI, DD and PC bucket records by. A record
/// finds its edge's slot by a `Vec` index, not a hash, and walking the
/// slots visits edges in address order, so nothing a build produces
/// depends on how the catalog numbered them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeSlots {
    /// Slot → edge, ascending; every edge has at least one record.
    edges: Vec<Edge>,
    /// The feed's record indices grouped by slot, each group in feed
    /// order: slot `s` owns `members[starts[s]..starts[s + 1]]`.
    members: Vec<u32>,
    starts: Vec<u32>,
}

impl EdgeSlots {
    /// The slots of any feed interned through `catalog`: sorts the
    /// feed's edge IDs instead of allocating scratch sized by the
    /// catalog.
    pub fn of(records: &[&IRecord], catalog: &EntityCatalog) -> EdgeSlots {
        let mut ids: Vec<EdgeId> = records.iter().map(|r| r.edge).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut by_addr: Vec<(Edge, usize)> = (ids.iter().enumerate())
            .map(|(i, &id)| (catalog.edge_addr(id), i))
            .collect();
        by_addr.sort_unstable();
        let mut rank = vec![0u32; ids.len()];
        for (slot, &(_, i)) in by_addr.iter().enumerate() {
            rank[i] = slot as u32;
        }
        let of_record = (records.iter())
            .map(|r| rank[ids.binary_search(&r.edge).expect("an edge of the feed")]);
        EdgeSlots::grouped(
            by_addr.into_iter().map(|(edge, _)| edge).collect(),
            of_record,
        )
    }

    /// The slots of one discovered group's feed, read off the window's
    /// [`Discovery::slots`](crate::groups::Discovery::slots) table: the
    /// group's edges are its `edges ∪ service_edges`, and discovery
    /// numbered each by its rank there.
    pub fn of_group(group: &AppGroup, records: &[&IRecord], slots: &[u32]) -> EdgeSlots {
        let mut edges: Vec<Edge> = (group.edges.iter())
            .chain(&group.service_edges)
            .copied()
            .collect();
        // Two ascending runs: the stable sort merges them in one pass.
        edges.sort();
        EdgeSlots::grouped(edges, records.iter().map(|r| slots[r.edge.index()]))
    }

    /// Groups record indices by slot (`of_record` yields each record's
    /// slot, in feed order) with one counting pass: no per-edge `Vec`.
    fn grouped(edges: Vec<Edge>, of_record: impl Iterator<Item = u32> + Clone) -> EdgeSlots {
        let mut starts = vec![0u32; edges.len() + 1];
        for slot in of_record.clone() {
            starts[slot as usize + 1] += 1;
        }
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        let mut next = starts.clone();
        let mut members = vec![0u32; starts[edges.len()] as usize];
        for (i, slot) in of_record.enumerate() {
            let at = &mut next[slot as usize];
            members[*at as usize] = i as u32;
            *at += 1;
        }
        EdgeSlots {
            edges,
            members,
            starts,
        }
    }

    /// `value` of each record of the feed, grouped by slot: the values of
    /// slot `s`'s records are at its [`ranges`](Self::ranges) entry, in
    /// feed order.
    fn gather<T>(&self, records: &[&IRecord], value: impl Fn(&IRecord) -> T) -> Vec<T> {
        (self.members.iter())
            .map(|&i| value(records[i as usize]))
            .collect()
    }

    /// Each slot's edge and where its records sit in what
    /// [`gather`](Self::gather) returns, slots ascending.
    fn ranges(&self) -> impl Iterator<Item = (Edge, Range<usize>)> + '_ {
        (self.edges.iter().zip(self.starts.windows(2)))
            .map(|(&edge, w)| (edge, w[0] as usize..w[1] as usize))
    }
}

/// Dense indices for the packed ID pairs a pane partial files its
/// entries under, so a fold adds them up in `Vec`s instead of maps.
/// Indices are handed out on first sight and never reused: the owner
/// drops the index together with every partial that uses it (an online
/// window's `Panes` once its indices hold more than twice the keys in
/// use).
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyIndex {
    index: HashMap<u64, u32>,
    keys: Vec<u64>,
}

impl KeyIndex {
    /// The index of `key`, handed out now if it has none yet.
    pub(crate) fn of(&mut self, key: u64) -> usize {
        let keys = &mut self.keys;
        *self.index.entry(key).or_insert_with(|| {
            keys.push(key);
            (keys.len() - 1) as u32
        }) as usize
    }

    /// The key of index `at`.
    pub(crate) fn key(&self, at: usize) -> u64 {
        self.keys[at]
    }

    /// How many keys have an index.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Two ascending, duplicate-free keyed sequences walked in step: every
/// key of either, once, ascending, with its value on each side. What a
/// diff compares a baseline and a window by, instead of collecting the
/// union of their keys first.
pub(crate) fn merge_join<K: Ord, A, B>(
    a: impl IntoIterator<Item = (K, A)>,
    b: impl IntoIterator<Item = (K, B)>,
) -> impl Iterator<Item = (K, Option<A>, Option<B>)> {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    std::iter::from_fn(move || {
        let order = match (a.peek(), b.peek()) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((x, _)), Some((y, _))) => x.cmp(y),
        };
        Some(match order {
            Ordering::Less => a.next().map(|(k, v)| (k, Some(v), None))?,
            Ordering::Greater => b.next().map(|(k, w)| (k, None, Some(w)))?,
            Ordering::Equal => {
                let ((k, v), (_, w)) = (a.next()?, b.next()?);
                (k, Some(v), Some(w))
            }
        })
    })
}

/// Context for diffing two signatures of the same kind.
#[derive(Clone, Copy)]
pub struct DiffCtx<'a> {
    /// An edge index over the current log's records. CG uses it to
    /// distinguish an edge that truly vanished from one that merely
    /// moved to another group, and to stamp new edges with their first
    /// appearance.
    pub records: &'a RecordIndex,
}

/// Context for judging one signature's stability across interval models.
#[derive(Clone, Copy)]
pub struct StabilityCtx {
    /// Minimum number of agreeing intervals for a stability vote.
    pub quorum: usize,
}

/// The stability verdict for one signature of one group, at the
/// granularity the signature is judged at ([`Locus`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityMask {
    /// The signature this mask gates.
    pub kind: SignatureKind,
    /// Whole-signature verdict. For per-locus kinds this is the
    /// conjunction of all locus verdicts.
    pub stable: bool,
    /// Per-locus verdicts (CI: per node; DD/PC: per edge pair). Empty
    /// for signatures judged wholesale.
    pub loci: BTreeMap<Locus, bool>,
}

impl StabilityMask {
    /// A mask passing everything (no stability evidence against it).
    pub fn all_stable(kind: SignatureKind) -> StabilityMask {
        StabilityMask {
            kind,
            stable: true,
            loci: BTreeMap::new(),
        }
    }

    /// A wholesale verdict with no per-locus detail.
    pub fn whole(kind: SignatureKind, stable: bool) -> StabilityMask {
        StabilityMask {
            kind,
            stable,
            loci: BTreeMap::new(),
        }
    }

    /// A per-locus verdict; the wholesale bit is the conjunction.
    pub fn per_locus(kind: SignatureKind, loci: BTreeMap<Locus, bool>) -> StabilityMask {
        StabilityMask {
            kind,
            stable: loci.values().all(|&s| s),
            loci,
        }
    }

    /// Whether a change at `locus` survives the gate. Unknown loci are
    /// rejected: no stability evidence means no diffing license.
    pub fn allows(&self, locus: &Locus) -> bool {
        match locus {
            Locus::Whole => self.stable,
            other => self.loci.get(other).copied().unwrap_or(false),
        }
    }
}

/// The uniform interface of the nine FlowDiff signatures.
///
/// A signature is a pure function of a log window ([`Self::build`]) that
/// can be compared against another instance of itself ([`Self::diff`]),
/// judged for stability across log intervals ([`Self::stability`]), and
/// rendered into the shared [`Change`] vocabulary ([`Self::render`]).
/// The provided [`Self::tagged_diff`] composes diff → stability gate →
/// render, which is the only path the diff engine uses.
///
/// [`Self::build`] is the one construction of each signature, shared by
/// the batch and streaming paths. It collects *raw samples* in feed
/// order and runs the summary math (means, histogram peaks,
/// correlations) once at the end: f64 accumulation is order-sensitive,
/// and the two paths must agree bit for bit.
pub trait Signature: Sized {
    /// The signature's typed change (e.g. a peak shift, an edge delta).
    type Change;

    /// The kind tag attached to rendered changes.
    const KIND: SignatureKind;

    /// Builds the signature from a log window.
    fn build(inputs: &SignatureInputs<'_>) -> Self;

    /// Compares `self` (the reference) against `current`.
    fn diff(&self, current: &Self, ctx: &DiffCtx<'_>) -> Vec<Self::Change>;

    /// Where a change applies, for stability gating.
    fn locus(change: &Self::Change) -> Locus;

    /// Tags a typed change for the shared vocabulary, moving it into
    /// the [`Change`]'s detail: no text is formatted until the change
    /// is read.
    fn render(change: Self::Change) -> Change;

    /// A mask marking every locus of this signature stable (used when no
    /// stability pass was run). Per-locus signatures override this to
    /// enumerate their loci.
    fn stable_mask(&self) -> StabilityMask {
        StabilityMask::all_stable(Self::KIND)
    }

    /// Judges stability of `self` (built from the full log) against the
    /// per-interval rebuilds. Infrastructure signatures keep the default
    /// — they are statistical summaries already gated by
    /// [`MIN_SAMPLES`](crate::config::MIN_SAMPLES).
    fn stability(&self, _intervals: &[&Self], _ctx: &StabilityCtx) -> StabilityMask {
        self.stable_mask()
    }

    /// Diff, gate each change through the stability mask, and render the
    /// survivors.
    fn tagged_diff(&self, current: &Self, ctx: &DiffCtx<'_>, mask: &StabilityMask) -> Vec<Change> {
        self.diff(current, ctx)
            .into_iter()
            .filter(|ch| mask.allows(&Self::locus(ch)))
            .map(Self::render)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::InternedLog;
    use crate::records::FlowRecord;
    use std::net::Ipv4Addr;

    /// `records` interned in window order, for fixtures that generate
    /// them edge by edge.
    pub(crate) fn window_of(records: &[FlowRecord]) -> InternedLog {
        let mut sorted = records.to_vec();
        sorted.sort_by_key(|r| (r.first_seen, r.tuple));
        InternedLog::of(&sorted)
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ascending (first_seen, tuple) order")]
    fn inputs_reject_a_descending_feed() {
        use crate::records::FlowTuple;
        use openflow::types::IpProto;

        let at = |secs: u64| FlowRecord {
            tuple: FlowTuple {
                src: Ipv4Addr::new(10, 0, 0, 1),
                sport: 1,
                dst: Ipv4Addr::new(10, 0, 0, 2),
                dport: 80,
                proto: IpProto::TCP,
            },
            first_seen: Timestamp::from_secs(secs),
            hops: vec![],
            byte_count: 0,
            packet_count: 0,
            duration_s: 0.0,
        };
        let il = InternedLog::of(&[at(2), at(1)]);
        let config = FlowDiffConfig::default();
        let _ = SignatureInputs::new(
            &il.refs(),
            &il.catalog,
            (Timestamp::ZERO, Timestamp::ZERO),
            &config,
        );
    }

    #[test]
    fn merge_join_pairs_keys_ascending() {
        let joined: Vec<_> =
            merge_join([(1, 'a'), (3, 'b'), (4, 'c')], [(2, 20), (3, 30)]).collect();
        assert_eq!(
            joined,
            [
                (1, Some('a'), None),
                (2, None, Some(20)),
                (3, Some('b'), Some(30)),
                (4, Some('c'), None),
            ]
        );
    }

    #[test]
    fn whole_mask_gates_whole_locus() {
        let stable = StabilityMask::whole(SignatureKind::Cg, true);
        let unstable = StabilityMask::whole(SignatureKind::Cg, false);
        assert!(stable.allows(&Locus::Whole));
        assert!(!unstable.allows(&Locus::Whole));
    }

    #[test]
    fn per_locus_mask_rejects_unknown_loci() {
        let node = Locus::Node(Ipv4Addr::new(10, 0, 0, 1));
        let other = Locus::Node(Ipv4Addr::new(10, 0, 0, 2));
        let mask =
            StabilityMask::per_locus(SignatureKind::Ci, [(node, true)].into_iter().collect());
        assert!(mask.allows(&node));
        assert!(!mask.allows(&other), "no evidence, no license");
        assert!(mask.stable);
    }

    #[test]
    fn per_locus_conjunction_sets_whole_bit() {
        let a = Locus::Node(Ipv4Addr::new(10, 0, 0, 1));
        let b = Locus::Node(Ipv4Addr::new(10, 0, 0, 2));
        let mask = StabilityMask::per_locus(
            SignatureKind::Ci,
            [(a, true), (b, false)].into_iter().collect(),
        );
        assert!(!mask.stable);
        assert!(mask.allows(&a));
        assert!(!mask.allows(&b));
    }
}
