//! Runtime invariant checking and trace hashing.
//!
//! Static analysis (the `xtask` simlint pass) keeps nondeterminism *sources*
//! out of the code; this module checks the *output*: a stream of
//! [`CaptureRecord`]s either satisfies the simulator's invariants or the
//! run is broken, and two runs of the same scenario with the same seed must
//! produce byte-identical streams.
//!
//! * [`TraceHasher`] — an order-sensitive 64-bit digest (FNV-1a) over every
//!   field of every record. Two runs are "the same" iff their hashes match;
//!   a single reordered, altered or missing record changes the digest.
//! * [`Invariant`] — a streaming check over the record sequence.
//!   [`TraceChecker`] runs a set of invariants online, record by record;
//!   [`check_trace`] is its batch form over a full capture. Both return
//!   every violation found.
//! * Built-ins: [`MonotonicTime`] (capture timestamps never go backwards),
//!   [`UniqueDelivery`] (no packet id is delivered twice — queues and links
//!   must not duplicate traffic), [`SaneSizes`] (a packet's virtual payload
//!   never exceeds its wire size).
//!
//! The sim crates additionally enforce cheap local invariants inline behind
//! their default-on `check` feature (event-time monotonicity and packet
//! conservation in `netsim`, `cwnd >= 1 MSS` in `tcpsim`, DSN monotonicity
//! in `mptcpsim`); this module is the trace-level, cross-crate complement.

use netsim::{CaptureKind, CaptureRecord, Ecn, Protocol};
use simbase::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// A violated invariant: which check failed, when, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Name of the invariant that failed (see [`Invariant::name`]).
    pub invariant: &'static str,
    /// Simulated time of the offending record (or end-of-trace time for
    /// end-of-run checks).
    pub time: SimTime,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}: {}", self.invariant, self.time, self.detail)
    }
}

/// A streaming check over a capture-record sequence.
///
/// Implementations see every record once, in order, then get a final
/// [`on_end`](Invariant::on_end) call for whole-trace conditions. They may
/// ride along inside a running simulation (as part of a capture sink), so
/// they must be `Send` and cloneable into a checkpoint.
pub trait Invariant: Send {
    /// Stable identifier, used in violation reports.
    fn name(&self) -> &'static str;

    /// Observe one record; return a violation if it breaks the invariant.
    fn on_record(&mut self, rec: &CaptureRecord) -> Option<InvariantViolation>;

    /// Called once after the last record; default: nothing to check.
    fn on_end(&mut self) -> Option<InvariantViolation> {
        None
    }

    /// Deep-copy this check's state (for simulator checkpoints).
    fn clone_boxed(&self) -> Box<dyn Invariant>;
}

impl Clone for Box<dyn Invariant> {
    fn clone(&self) -> Self {
        self.clone_boxed()
    }
}

/// Capture timestamps must be non-decreasing: the simulator appends records
/// as events execute, so a backwards step means the event loop itself ran
/// out of order.
#[derive(Debug, Default, Clone)]
pub struct MonotonicTime {
    last: Option<SimTime>,
}

impl Invariant for MonotonicTime {
    fn name(&self) -> &'static str {
        "monotonic-time"
    }

    fn on_record(&mut self, rec: &CaptureRecord) -> Option<InvariantViolation> {
        let out = match self.last {
            Some(prev) if rec.time < prev => Some(InvariantViolation {
                invariant: self.name(),
                time: rec.time,
                detail: format!(
                    "record time {} precedes previous record at {prev}",
                    rec.time
                ),
            }),
            _ => None,
        };
        self.last = Some(self.last.map_or(rec.time, |p| p.max(rec.time)));
        out
    }

    fn clone_boxed(&self) -> Box<dyn Invariant> {
        Box::new(self.clone())
    }
}

/// Each packet id is delivered at most once: links and queues may drop or
/// delay packets but never clone them, so a duplicate delivery means the
/// forwarding plane manufactured traffic.
///
/// Delivered ids are kept as maximal runs of consecutive ids (first → last,
/// inclusive). Each sender numbers its packets consecutively, so memory
/// grows with the gaps in the delivered set — drops and reordering — not
/// with the number of deliveries.
#[derive(Debug, Default, Clone)]
pub struct UniqueDelivery {
    runs: BTreeMap<u64, u64>,
}

impl UniqueDelivery {
    /// Record `id` as delivered; false if it already was.
    fn insert(&mut self, id: u64) -> bool {
        let before = self.runs.range(..=id).next_back().map(|(&f, &l)| (f, l));
        if before.is_some_and(|(_, last)| id <= last) {
            return false;
        }
        let after = id
            .checked_add(1)
            .and_then(|next| self.runs.get(&next).map(|&last| (next, last)));
        let first = match before {
            Some((first, last)) if last.checked_add(1) == Some(id) => first,
            _ => id,
        };
        let last = match after {
            Some((next, last)) => {
                self.runs.remove(&next);
                last
            }
            None => id,
        };
        self.runs.insert(first, last);
        true
    }
}

impl Invariant for UniqueDelivery {
    fn name(&self) -> &'static str {
        "unique-delivery"
    }

    fn on_record(&mut self, rec: &CaptureRecord) -> Option<InvariantViolation> {
        if rec.kind != CaptureKind::Delivered {
            return None;
        }
        if self.insert(rec.pkt.id) {
            None
        } else {
            Some(InvariantViolation {
                invariant: self.name(),
                time: rec.time,
                detail: format!("packet {} delivered more than once", rec.pkt.id),
            })
        }
    }

    fn clone_boxed(&self) -> Box<dyn Invariant> {
        Box::new(self.clone())
    }
}

/// A packet's virtual payload length can never exceed its on-wire size:
/// wire size = payload + headers, and headers are non-negative.
#[derive(Debug, Default, Clone)]
pub struct SaneSizes;

impl Invariant for SaneSizes {
    fn name(&self) -> &'static str {
        "sane-sizes"
    }

    fn on_record(&mut self, rec: &CaptureRecord) -> Option<InvariantViolation> {
        if rec.pkt.data_len > rec.pkt.wire_size {
            Some(InvariantViolation {
                invariant: self.name(),
                time: rec.time,
                detail: format!(
                    "packet {}: data_len {} > wire_size {}",
                    rec.pkt.id, rec.pkt.data_len, rec.pkt.wire_size
                ),
            })
        } else {
            None
        }
    }

    fn clone_boxed(&self) -> Box<dyn Invariant> {
        Box::new(self.clone())
    }
}

/// The default invariant suite for a full-capture trace.
pub fn default_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(MonotonicTime::default()),
        Box::new(UniqueDelivery::default()),
        Box::new(SaneSizes),
    ]
}

/// Run `invariants` over `records` and collect every violation, in record
/// order (end-of-trace findings last). The batch form of [`TraceChecker`].
pub fn check_trace(
    records: &[CaptureRecord],
    invariants: &mut [Box<dyn Invariant>],
) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for rec in records {
        observe(invariants.iter_mut(), rec, &mut out);
    }
    end_of_trace(invariants.iter_mut(), &mut out);
    out
}

/// Show one record to every invariant, collecting violations into `out`.
fn observe<'a>(
    invariants: impl Iterator<Item = &'a mut Box<dyn Invariant>>,
    rec: &CaptureRecord,
    out: &mut Vec<InvariantViolation>,
) {
    out.extend(invariants.filter_map(|inv| inv.on_record(rec)));
}

/// Run every invariant's whole-trace check, collecting into `out`.
fn end_of_trace<'a>(
    invariants: impl Iterator<Item = &'a mut Box<dyn Invariant>>,
    out: &mut Vec<InvariantViolation>,
) {
    out.extend(invariants.filter_map(|inv| inv.on_end()));
}

/// The online form of [`check_trace`]: a set of invariants fed one record
/// at a time as the simulator produces them.
#[derive(Clone)]
pub struct TraceChecker {
    invariants: Vec<Box<dyn Invariant>>,
    violations: Vec<InvariantViolation>,
}

impl TraceChecker {
    /// A checker running `invariants` (e.g. [`default_invariants`]).
    pub fn new(invariants: Vec<Box<dyn Invariant>>) -> Self {
        TraceChecker {
            invariants,
            violations: Vec::new(),
        }
    }

    /// Observe the next record.
    pub fn push(&mut self, rec: &CaptureRecord) {
        observe(self.invariants.iter_mut(), rec, &mut self.violations);
    }

    /// Every violation of the trace so far, end-of-trace checks included,
    /// exactly as [`check_trace`] reports them over the same records. The
    /// checker itself is left untouched and may keep observing.
    pub fn finish(&self) -> Vec<InvariantViolation> {
        let mut out = self.violations.clone();
        end_of_trace(self.invariants.clone().iter_mut(), &mut out);
        out
    }
}

impl fmt::Debug for TraceChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.invariants.iter().map(|i| i.name()).collect();
        f.debug_struct("TraceChecker")
            .field("invariants", &names)
            .field("violations", &self.violations.len())
            .finish()
    }
}

/// Order-sensitive FNV-1a 64-bit digest over capture records.
///
/// Why not `std::hash`: `DefaultHasher`'s algorithm is explicitly
/// unspecified and may change between compiler releases, and a determinism
/// harness needs hashes that are comparable across builds. FNV-1a is fixed,
/// trivial, and plenty for change *detection* (this is not a security
/// boundary).
#[derive(Debug, Clone)]
pub struct TraceHasher {
    state: u64,
    records: u64,
}

impl Default for TraceHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher.
    pub fn new() -> Self {
        TraceHasher {
            state: Self::OFFSET,
            records: 0,
        }
    }

    fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Fold one record into the digest. Every field participates, so any
    /// difference between two runs — timing, routing, ordering, ECN marks —
    /// shows up in the final hash.
    pub fn record(&mut self, rec: &CaptureRecord) {
        self.records += 1;
        self.mix(rec.time.as_nanos());
        self.mix(u64::from(rec.node.0));
        self.mix(match rec.kind {
            CaptureKind::Sent => 0,
            CaptureKind::Forwarded => 1,
            CaptureKind::Delivered => 2,
            CaptureKind::Dropped => 3,
            CaptureKind::Unroutable => 4,
        });
        self.mix(rec.link.map_or(u64::MAX, |l| u64::from(l.0)));
        self.mix(rec.pkt.id);
        self.mix(u64::from(rec.pkt.src.0));
        self.mix(u64::from(rec.pkt.dst.0));
        self.mix(u64::from(rec.pkt.tag.0));
        self.mix(match rec.pkt.protocol {
            Protocol::Tcp => 0,
            Protocol::Raw => 1,
        });
        self.mix(u64::from(rec.pkt.wire_size));
        self.mix(u64::from(rec.pkt.data_len));
        self.mix(match rec.pkt.ecn {
            Ecn::NotEct => 0,
            Ecn::Ect => 1,
            Ecn::Ce => 2,
        });
    }

    /// The digest so far. Folds in the record count, so an empty trace and
    /// a trace whose records happen to cancel are distinguishable.
    pub fn finish(&self) -> u64 {
        let mut tail = self.clone();
        tail.mix(self.records);
        tail.state
    }

    /// Hash a whole slice of records in one call.
    pub fn hash_records(records: &[CaptureRecord]) -> u64 {
        let mut h = TraceHasher::new();
        for r in records {
            h.record(r);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkId, NodeId, PacketMeta, Tag};

    fn rec(t_ns: u64, kind: CaptureKind, id: u64) -> CaptureRecord {
        CaptureRecord {
            time: SimTime::from_nanos(t_ns),
            node: NodeId(3),
            kind,
            link: Some(LinkId(1)),
            pkt: PacketMeta {
                id,
                src: NodeId(0),
                dst: NodeId(3),
                tag: Tag(1),
                protocol: Protocol::Tcp,
                wire_size: 1500,
                data_len: 1448,
                ecn: Ecn::NotEct,
            },
        }
    }

    #[test]
    fn identical_traces_hash_identically() {
        let a = vec![
            rec(1, CaptureKind::Delivered, 1),
            rec(2, CaptureKind::Delivered, 2),
        ];
        let b = a.clone();
        assert_eq!(TraceHasher::hash_records(&a), TraceHasher::hash_records(&b));
    }

    #[test]
    fn any_field_change_changes_hash() {
        let base = vec![rec(1, CaptureKind::Delivered, 1)];
        let h0 = TraceHasher::hash_records(&base);

        let mut t = base.clone();
        t[0].time = SimTime::from_nanos(2);
        assert_ne!(h0, TraceHasher::hash_records(&t));

        let mut k = base.clone();
        k[0].kind = CaptureKind::Dropped;
        assert_ne!(h0, TraceHasher::hash_records(&k));

        let mut p = base.clone();
        p[0].pkt.wire_size = 1400;
        assert_ne!(h0, TraceHasher::hash_records(&p));

        let mut e = base;
        e[0].pkt.ecn = Ecn::Ce;
        assert_ne!(h0, TraceHasher::hash_records(&e));
    }

    #[test]
    fn order_matters() {
        let a = vec![
            rec(1, CaptureKind::Delivered, 1),
            rec(1, CaptureKind::Delivered, 2),
        ];
        let b = vec![
            rec(1, CaptureKind::Delivered, 2),
            rec(1, CaptureKind::Delivered, 1),
        ];
        assert_ne!(TraceHasher::hash_records(&a), TraceHasher::hash_records(&b));
    }

    #[test]
    fn empty_and_nonempty_differ() {
        assert_ne!(
            TraceHasher::hash_records(&[]),
            TraceHasher::hash_records(&[rec(0, CaptureKind::Sent, 0)])
        );
    }

    #[test]
    fn monotonic_time_flags_backwards_step() {
        let trace = vec![
            rec(5, CaptureKind::Delivered, 1),
            rec(3, CaptureKind::Delivered, 2),
            rec(6, CaptureKind::Delivered, 3),
        ];
        let v = check_trace(&trace, &mut [Box::new(MonotonicTime::default())]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "monotonic-time");
        assert_eq!(v[0].time, SimTime::from_nanos(3));
    }

    #[test]
    fn monotonic_time_accepts_equal_timestamps() {
        let trace = vec![
            rec(5, CaptureKind::Delivered, 1),
            rec(5, CaptureKind::Delivered, 2),
        ];
        assert!(check_trace(&trace, &mut [Box::new(MonotonicTime::default())]).is_empty());
    }

    #[test]
    fn unique_delivery_flags_duplicates() {
        let trace = vec![
            rec(1, CaptureKind::Delivered, 7),
            rec(2, CaptureKind::Forwarded, 7), // same id elsewhere is fine
            rec(3, CaptureKind::Delivered, 7), // second delivery is not
        ];
        let v = check_trace(&trace, &mut [Box::new(UniqueDelivery::default())]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "unique-delivery");
    }

    #[test]
    fn sane_sizes_flags_payload_exceeding_wire() {
        let mut bad = rec(1, CaptureKind::Sent, 1);
        bad.pkt.data_len = bad.pkt.wire_size + 1;
        let v = check_trace(&[bad], &mut [Box::new(SaneSizes)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "sane-sizes");
    }

    #[test]
    fn unique_delivery_merges_runs_of_consecutive_ids() {
        let mut u = UniqueDelivery::default();
        for id in [5, 3, 4, 7, 6, u64::MAX, u64::MAX - 1, 0] {
            assert!(u.insert(id), "{id} is new");
        }
        assert_eq!(
            u.runs.iter().map(|(&f, &l)| (f, l)).collect::<Vec<_>>(),
            [(0, 0), (3, 7), (u64::MAX - 1, u64::MAX)]
        );
        for id in [0, 3, 5, 7, u64::MAX] {
            assert!(!u.insert(id), "{id} is a duplicate");
        }
    }

    #[test]
    fn online_checker_reports_what_check_trace_reports() {
        let trace = vec![
            rec(5, CaptureKind::Delivered, 1),
            rec(3, CaptureKind::Delivered, 1),
            rec(6, CaptureKind::Delivered, 2),
            rec(6, CaptureKind::Delivered, 2),
        ];
        let mut online = TraceChecker::new(default_invariants());
        for r in &trace {
            online.push(r);
        }
        let batch = check_trace(&trace, &mut default_invariants());
        assert_eq!(batch.len(), 3);
        assert_eq!(online.finish(), batch);
        // A checkpointed copy continues from the same state.
        let mut branch = online.clone();
        branch.push(&rec(7, CaptureKind::Delivered, 1));
        assert_eq!(branch.finish().len(), 4);
        assert_eq!(online.finish(), batch);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // The run-map must give the verdicts a plain set of every delivered
        // id gives, over shuffled id streams with injected duplicates.
        #[test]
        fn unique_delivery_matches_a_set_reference(
            n in 1u64..400,
            keys in proptest::collection::vec(proptest::prelude::any::<u64>(), 400),
            dups in proptest::collection::vec((0usize..400, 0usize..400), 0..40),
            base in proptest::prelude::any::<u64>(),
        ) {
            // Shuffle ids base..base+n by random sort keys, then copy some
            // ids to other positions.
            let mut ids: Vec<u64> = (0..n).map(|i| base.wrapping_add(i)).collect();
            let mut order: Vec<usize> = (0..ids.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            ids = order.into_iter().map(|i| ids[i]).collect();
            for &(from, to) in &dups {
                let id = ids[from % ids.len()];
                ids.insert(to % (ids.len() + 1), id);
            }
            let mut runs = UniqueDelivery::default();
            let mut reference = std::collections::BTreeSet::new();
            for &id in &ids {
                proptest::prop_assert_eq!(runs.insert(id), reference.insert(id), "id {}", id);
            }
        }
    }

    #[test]
    fn default_suite_passes_clean_trace() {
        let trace = vec![
            rec(1, CaptureKind::Sent, 1),
            rec(2, CaptureKind::Forwarded, 1),
            rec(3, CaptureKind::Delivered, 1),
        ];
        assert!(check_trace(&trace, &mut default_invariants()).is_empty());
    }
}
