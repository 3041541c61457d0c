//! Command structures (cstructs) from Generalized Paxos, §3.4.
//!
//! A cstruct is an append-only sequence of decided options ω(up, ✓/✗) over
//! one record's current instance, considered up to *trace equivalence*:
//!
//! * accepted **commutative** options commute with each other;
//! * **rejected** options never execute, so they commute with everything;
//! * accepted **physical** options are barriers — they commute with
//!   nothing but rejected options.
//!
//! On top of that equivalence the crate implements the partial order `⊑`
//! (trace prefix), the least upper bound `⊔`, the greatest lower bound `⊓`
//! over sets, all of which `ProvedSafe` (Algorithm 2, lines 49–57) and the
//! learner need.
//!
//! Within one record a letter is identified by `(txn, status)`: a
//! transaction holds at most one option per record, and two cstructs that
//! disagree on a transaction's status are simply incompatible (no common
//! upper bound), which surfaces as a Fast Paxos collision.
//!
//! # Representation invariants
//!
//! * **Entries are immutable once appended.** A cstruct holds
//!   `Arc<Entry>`s and never hands out a mutable one, so cloning a
//!   cstruct — into a vote, a delta, a shadow view, a learner — copies
//!   pointers, and one decided option lives once per process however
//!   many structures reference it.
//! * **The digest is an append chain.** [`CStruct::digest`] is the
//!   streaming FNV-1a of the entries' canonical encodings in recorded
//!   order, carried forward on every append, so reading it is O(1) and
//!   keeping it current costs O(appended entry). The only non-append
//!   mutation, [`CStruct::remove`], recomputes the chain from scratch —
//!   and is exactly the kind of change that opens a new cstruct epoch at
//!   the acceptor, so within one epoch a digest is a pure function of
//!   the epoch's append history.
//! * **A cstruct may stand for the tail of a longer one.** A vote ships
//!   an acceptor's cstruct from its settled watermark on
//!   ([`CStruct::suffix`]): the entries before the [`Mark`] it starts at
//!   are elided, the digest chain is not — it resumes from the mark's
//!   chain value, so the tail's digest *is* the whole cstruct's and
//!   appending the same entries to both keeps them equal. Positions
//!   ([`Mark::seq`], [`CStruct::end_seq`]) always count from the start of
//!   the whole cstruct. The algebra (`⊑`, `⊔`, `⊓`, equality) sees the
//!   held entries only; a whole cstruct starts at [`Mark::START`].

use std::fmt;
use std::sync::Arc;

use mdcc_common::wire::{fnv1a64, fnv1a64_extend, with_scratch_encoding, FNV1A64_OFFSET};
use mdcc_common::TxnId;

use crate::options::{OptionStatus, TxnOption};

/// One decided option inside a cstruct.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The proposed update.
    pub opt: TxnOption,
    /// The acceptance decision.
    pub status: OptionStatus,
}

impl Entry {
    /// True when this entry never executes (rejected) and therefore
    /// commutes with everything.
    pub fn is_neutral(&self) -> bool {
        !self.status.is_accepted()
    }

    /// Trace commutation relation: rejected options are neutral; accepted
    /// commutative deltas commute with each other; accepted read guards
    /// (shared locks) commute with each other; everything else conflicts.
    pub fn commutes_with(&self, other: &Entry) -> bool {
        if self.is_neutral() || other.is_neutral() {
            return true;
        }
        (self.opt.is_commutative() && other.opt.is_commutative())
            || (self.opt.op.is_guard() && other.opt.op.is_guard())
    }

    /// Canonical letter identity and sort key: `(txn, decision)`.
    ///
    /// The rejection *reason* is deliberately excluded: two acceptors that
    /// reject the same option for different local reasons (say stale read
    /// versus demarcation) still agree on the decision, and the learner
    /// must be able to assemble an abort quorum from them.
    fn letter(&self) -> (TxnId, u8) {
        (self.opt.txn, status_rank(self.status))
    }
}

/// Deterministic rank of a status: 0 accepted, 1 rejected (any reason).
fn status_rank(s: OptionStatus) -> u8 {
    match s {
        OptionStatus::Accepted => 0,
        OptionStatus::Rejected(_) => 1,
    }
}

/// A position in a cstruct's recorded order, with the digest chain over
/// everything recorded before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// Entries recorded before this position.
    pub seq: u64,
    /// [`CStruct::digest`] of exactly those entries.
    pub chain: u64,
}

impl Mark {
    /// The start of a cstruct: nothing recorded, the empty digest.
    pub const START: Mark = Mark {
        seq: 0,
        chain: FNV1A64_OFFSET,
    };

    /// The position one past `entry`, recorded at this one.
    pub fn after(self, entry: &Entry) -> Mark {
        Mark {
            seq: self.seq + 1,
            chain: chain_over(self.chain, entry),
        }
    }
}

/// A command structure: sequence of decided options modulo commutation.
#[derive(Debug, Clone)]
pub struct CStruct {
    /// Where `entries` starts in the whole cstruct this one stands for
    /// ([`Mark::START`] unless it is a [`CStruct::suffix`]).
    base: Mark,
    entries: Vec<Arc<Entry>>,
    /// FNV-1a chain over the encodings of everything up to the end of
    /// `entries`, in recorded order — `base.chain` carried over `entries`.
    chain: u64,
}

impl Default for CStruct {
    fn default() -> Self {
        CStruct::starting_at(Mark::START)
    }
}

/// Carries the digest chain `chain` forward over one more entry.
fn chain_over(chain: u64, entry: &Entry) -> u64 {
    with_scratch_encoding(entry, |bytes| fnv1a64_extend(chain, bytes))
}

impl CStruct {
    /// [`CStruct::trace_digest`] of the empty cstruct.
    pub const EMPTY_TRACE_DIGEST: u64 = FNV1A64_OFFSET;

    /// The empty cstruct (⊥, the lattice bottom).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty tail of a longer cstruct: whatever is appended continues
    /// that cstruct's positions and digest chain from `base`.
    pub fn starting_at(base: Mark) -> Self {
        CStruct {
            base,
            entries: Vec::new(),
            chain: base.chain,
        }
    }

    /// This cstruct from `from` on: the entries before it elided, their
    /// pointers not even copied, positions and digest unchanged. `from`
    /// must be a mark of this cstruct at or after its own base.
    pub fn suffix(&self, from: Mark) -> CStruct {
        let skip = (from.seq - self.base.seq) as usize;
        CStruct {
            base: from,
            entries: self.entries[skip..].to_vec(),
            chain: self.chain,
        }
    }

    /// Where the held entries start in the whole cstruct.
    pub fn base(&self) -> Mark {
        self.base
    }

    /// Position one past the last entry, counted from the start of the
    /// whole cstruct: `base().seq + len()`.
    pub fn end_seq(&self) -> u64 {
        self.base.seq + self.entries.len() as u64
    }

    /// Number of options held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no options were decided yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in (one representative of the) recorded order.
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter().map(|e| &**e)
    }

    /// The entries as shared values, in recorded order — what votes,
    /// deltas and shadow views copy instead of the options themselves.
    pub fn shared(&self) -> &[Arc<Entry>] {
        &self.entries
    }

    /// Order-sensitive 64-bit fingerprint of the recorded sequence — of
    /// the whole one, elided prefix included, when this is a suffix: the
    /// digest delta votes carry so receivers can prove their folded
    /// shadow view equals the acceptor's exact structure. O(1) — the
    /// chain is kept current by every mutation.
    pub fn digest(&self) -> u64 {
        self.chain
    }

    /// 64-bit fingerprint of the held entries **as a trace**: equal for
    /// two cstructs exactly when they are [`CStruct::equivalent`] (up to
    /// hash collisions), whatever order the network delivered commuting
    /// options in. [`CStruct::digest`] cannot serve here — two replicas
    /// of one leader's stream that received two pipelined appends in
    /// opposite orders hold the same value and different chains.
    ///
    /// Trace equivalence over this commutation relation has a simple
    /// normal form. Rejected letters commute with everything: they form
    /// one multiset. Every accepted letter conflicts with every accepted
    /// letter outside its own class (commutative deltas, read guards,
    /// physical writes — the last conflict among themselves too), so the
    /// sequence of maximal same-class blocks is fixed and only the order
    /// inside a block of deltas or of guards is free. The fingerprint
    /// chains one commutative sum of letter hashes per block, then the
    /// rejected multiset. O(len), no encoding: a letter is `(txn,
    /// decision)`, as everywhere in the algebra.
    ///
    /// The empty cstruct's is [`CStruct::EMPTY_TRACE_DIGEST`].
    pub fn trace_digest(&self) -> u64 {
        trace_digest_of(self.entries())
    }

    /// The recorded status of `txn`'s option, if present.
    pub fn status_of(&self, txn: TxnId) -> Option<OptionStatus> {
        self.entry_of(txn).map(|e| e.status)
    }

    /// The full (shared) entry of `txn`'s option, if present.
    pub fn entry_of(&self, txn: TxnId) -> Option<&Arc<Entry>> {
        self.entries.iter().find(|e| e.opt.txn == txn)
    }

    /// `txn`'s recorded status together with whether its letter is
    /// *front-movable* here: everything recorded before it commutes with
    /// it, so it can be commuted to the front of the trace. A letter
    /// that is front-movable in every member of a set of cstructs is in
    /// their glb iff every member holds it with the same decision (see
    /// [`CStruct::glb_many`]), which lets a learner count instead of
    /// computing the glb.
    pub fn front_movable(&self, txn: TxnId) -> Option<(OptionStatus, bool)> {
        let pos = self.entries.iter().position(|e| e.opt.txn == txn)?;
        let e = &self.entries[pos];
        let movable = self.entries[..pos].iter().all(|p| p.commutes_with(e));
        Some((e.status, movable))
    }

    /// Every held entry with whether it is front-movable here
    /// ([`CStruct::front_movable`] of each), in recorded order and in one
    /// pass: what an acceptor reads its verdicts off.
    pub fn letters(&self) -> impl Iterator<Item = (&Entry, bool)> {
        // [`Entry::commutes_with`] asks only whether an entry is
        // rejected and of which kind it is, so the first accepted entry
        // of each kind stands for every entry recorded so far.
        let mut kinds: [Option<&Entry>; 3] = [None; 3];
        self.entries.iter().map(move |e| {
            let movable = kinds.iter().flatten().all(|k| k.commutes_with(e));
            if !e.is_neutral() {
                let kind = match &e.opt.op {
                    op if op.is_commutative() => 0,
                    op if op.is_guard() => 1,
                    _ => 2,
                };
                kinds[kind].get_or_insert(e);
            }
            (&**e, movable)
        })
    }

    /// Appends ω(opt, status) — the `val • ω(up,_)` operator of Table 1.
    ///
    /// Returns `false` (and leaves the cstruct unchanged) if `opt`'s
    /// transaction already holds an option here, making the call
    /// idempotent under message duplication.
    pub fn append(&mut self, opt: TxnOption, status: OptionStatus) -> bool {
        self.append_entry(Arc::new(Entry { opt, status }))
    }

    /// Appends an existing entry, sharing it with whoever else holds it
    /// (delta folds, recovery adoption, lub). Same idempotence as
    /// [`CStruct::append`].
    pub fn append_entry(&mut self, entry: Arc<Entry>) -> bool {
        if self.status_of(entry.opt.txn).is_some() {
            return false;
        }
        self.push(entry);
        true
    }

    /// Appends `entry`, whose transaction the caller knows is absent.
    fn push(&mut self, entry: Arc<Entry>) {
        self.chain = chain_over(self.chain, &entry);
        self.entries.push(entry);
    }

    /// Removes `txn`'s entry, returning it. Used when a transaction
    /// resolves without consuming the instance (aborts of options that
    /// were not globally learned as accepted): the entry leaves the
    /// pending set and stops acting as a barrier. The one non-append
    /// mutation: the digest chain restarts over the survivors.
    pub fn remove(&mut self, txn: TxnId) -> Option<Arc<Entry>> {
        let pos = self.entries.iter().position(|e| e.opt.txn == txn)?;
        let removed = self.entries.remove(pos);
        self.chain = self
            .entries
            .iter()
            .fold(self.base.chain, |chain, e| chain_over(chain, e));
        Some(removed)
    }

    /// Accepted entries in order.
    pub fn accepted(&self) -> impl Iterator<Item = &Entry> {
        self.entries().filter(|e| e.status.is_accepted())
    }

    /// Trace-prefix test: `self ⊑ other` iff `other` equals `self`
    /// followed by more options, modulo commutation.
    ///
    /// Runs on every `lub`, which Phase2 learning calls per vote, so the
    /// common case (cstructs of ≤ 64 options) tracks consumed letters in
    /// a bitmask instead of allocating a scratch vector.
    pub fn is_prefix_of(&self, other: &CStruct) -> bool {
        if other.entries.len() <= 64 {
            return self.is_prefix_of_small(other);
        }
        let mut remaining: Vec<&Entry> = other.entries().collect();
        // Consume self's letters in order. Non-commuting pairs keep a
        // fixed relative order across equivalent representatives, so
        // consuming in recorded order is sound.
        for e in &self.entries {
            let Some(pos) = remaining.iter().position(|r| r.letter() == e.letter()) else {
                return false;
            };
            if !remaining[..pos].iter().all(|r| r.commutes_with(e)) {
                return false;
            }
            remaining.remove(pos);
        }
        true
    }

    /// Allocation-free [`CStruct::is_prefix_of`] for `other` of ≤ 64
    /// entries: bit `i` of `consumed` marks `other.entries[i]` as
    /// already matched against one of self's letters.
    fn is_prefix_of_small(&self, other: &CStruct) -> bool {
        debug_assert!(other.entries.len() <= 64);
        let mut consumed: u64 = 0;
        'outer: for e in &self.entries {
            for (i, r) in other.entries.iter().enumerate() {
                if consumed & (1 << i) != 0 {
                    continue;
                }
                if r.letter() == e.letter() {
                    consumed |= 1 << i;
                    continue 'outer;
                }
                // An unconsumed letter stands between `e` and its match;
                // the orders are only equivalent if the two commute.
                if !r.commutes_with(e) {
                    return false;
                }
            }
            return false;
        }
        true
    }

    /// Trace equivalence.
    pub fn equivalent(&self, other: &CStruct) -> bool {
        self.len() == other.len() && self.is_prefix_of(other)
    }

    /// Least upper bound `self ⊔ other`; `None` when the two conflict
    /// (status disagreement or incompatible ordering of barriers).
    pub fn lub(&self, other: &CStruct) -> Option<CStruct> {
        // Decision disagreement on any transaction ⇒ incompatible.
        for e in &other.entries {
            if let Some(s) = self.status_of(e.opt.txn) {
                if status_rank(s) != status_rank(e.status) {
                    return None;
                }
            }
        }
        let mut merged = self.clone();
        for e in &other.entries {
            merged.append_entry(Arc::clone(e));
        }
        if self.is_prefix_of(&merged) && other.is_prefix_of(&merged) {
            Some(merged)
        } else {
            None
        }
    }

    /// Least upper bound of many cstructs, `None` if any pair conflicts.
    pub fn lub_many<'a, I: IntoIterator<Item = &'a CStruct>>(items: I) -> Option<CStruct> {
        let mut acc = CStruct::new();
        for c in items {
            acc = acc.lub(c)?;
        }
        Some(acc)
    }

    /// Greatest lower bound `⊓` of a non-empty set of cstructs.
    ///
    /// Greedily extracts letters that are *front-movable* in every input:
    /// a letter is extractable from a sequence when everything recorded
    /// before it commutes with it. Removing a letter never disables other
    /// extractions, so the reachable set is order-independent; picking the
    /// canonically smallest letter each round makes the representative
    /// deterministic.
    pub fn glb_many(items: &[&CStruct]) -> CStruct {
        if items.is_empty() {
            return CStruct::new();
        }
        let mut rems: Vec<Vec<&Arc<Entry>>> =
            items.iter().map(|c| c.entries.iter().collect()).collect();
        let mut out = CStruct::new();
        loop {
            // Letters extractable from every remaining sequence.
            let mut best: Option<(TxnId, u8)> = None;
            for cand in extractable(&rems[0]) {
                if rems[1..].iter().all(|r| extractable(r).contains(&cand))
                    && best.is_none_or(|b| cand < b)
                {
                    best = Some(cand);
                }
            }
            let Some(letter) = best else {
                break;
            };
            // Extractable from every sequence, so each holds it.
            for (i, rem) in rems.iter_mut().enumerate() {
                let Some(pos) = rem.iter().position(|e| e.letter() == letter) else {
                    continue;
                };
                let e = rem.remove(pos);
                if i == 0 {
                    out.push(Arc::clone(e));
                }
            }
        }
        out
    }
}

/// [`CStruct::trace_digest`] of the cstruct holding exactly `entries`, in
/// that order.
pub fn trace_digest_of<'a>(entries: impl Iterator<Item = &'a Entry>) -> u64 {
    let fold = |chain: u64, class: u8, sum: u64| {
        let mut bytes = [class; 9];
        bytes[1..].copy_from_slice(&sum.to_le_bytes());
        fnv1a64_extend(chain, &bytes)
    };
    let mut chain = FNV1A64_OFFSET;
    let mut rejected: Option<u64> = None;
    let mut block: Option<(u8, u64)> = None;
    for e in entries {
        let (txn, rank) = e.letter();
        let mut bytes = [rank; 13];
        bytes[..4].copy_from_slice(&txn.coordinator.0.to_le_bytes());
        bytes[4..12].copy_from_slice(&txn.seq.to_le_bytes());
        // FNV's low bits mix poorly; sums need every bit to count.
        let hash = fnv1a64(&bytes)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(31);
        if e.is_neutral() {
            rejected = Some(rejected.unwrap_or(0).wrapping_add(hash));
            continue;
        }
        let class = if e.opt.is_commutative() {
            1
        } else if e.opt.op.is_guard() {
            2
        } else {
            3
        };
        block = match block {
            Some((open, sum)) if open == class && class != 3 => {
                Some((open, sum.wrapping_add(hash)))
            }
            closed => {
                if let Some((class, sum)) = closed {
                    chain = fold(chain, class, sum);
                }
                Some((class, hash))
            }
        };
    }
    if let Some((class, sum)) = block {
        chain = fold(chain, class, sum);
    }
    match rejected {
        Some(sum) => fold(chain, 0, sum),
        None => chain,
    }
}

/// Letters that can be commuted to the front of `seq`.
fn extractable(seq: &[&Arc<Entry>]) -> Vec<(TxnId, u8)> {
    let mut out = Vec::new();
    for (i, e) in seq.iter().enumerate() {
        if seq[..i].iter().all(|p| p.commutes_with(e)) {
            out.push(e.letter());
        }
    }
    out
}

impl PartialEq for CStruct {
    fn eq(&self, other: &Self) -> bool {
        self.equivalent(other)
    }
}

impl Eq for CStruct {}

impl fmt::Display for CStruct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let s = match e.status {
                OptionStatus::Accepted => "✓",
                OptionStatus::Rejected(_) => "✗",
            };
            write!(f, "{}{s}", e.opt.txn)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdcc_common::error::AbortReason;
    use mdcc_common::{
        CommutativeUpdate, Key, NodeId, PhysicalUpdate, Row, TableId, UpdateOp, Version,
    };

    fn key() -> Key {
        Key::new(TableId(0), "r")
    }

    fn comm(seq: u64) -> TxnOption {
        TxnOption::solo(
            TxnId::new(NodeId(0), seq),
            key(),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -1)),
        )
    }

    fn phys(seq: u64) -> TxnOption {
        TxnOption::solo(
            TxnId::new(NodeId(0), seq),
            key(),
            UpdateOp::Physical(PhysicalUpdate::write(Version(0), Row::new())),
        )
    }

    fn acc(o: TxnOption) -> (TxnOption, OptionStatus) {
        (o, OptionStatus::Accepted)
    }

    fn rej(o: TxnOption) -> (TxnOption, OptionStatus) {
        (o, OptionStatus::Rejected(AbortReason::StaleRead))
    }

    fn cs(parts: Vec<(TxnOption, OptionStatus)>) -> CStruct {
        let mut c = CStruct::new();
        for (o, s) in parts {
            assert!(c.append(o, s));
        }
        c
    }

    #[test]
    fn append_is_idempotent_per_txn() {
        let mut c = CStruct::new();
        assert!(c.append(comm(1), OptionStatus::Accepted));
        assert!(!c.append(comm(1), OptionStatus::Accepted));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn commutative_orders_are_equivalent() {
        let a = cs(vec![acc(comm(1)), acc(comm(2))]);
        let b = cs(vec![acc(comm(2)), acc(comm(1))]);
        assert_eq!(a, b);
        assert!(a.is_prefix_of(&b) && b.is_prefix_of(&a));
    }

    #[test]
    fn small_and_general_prefix_paths_agree() {
        // 70 entries pushes `other` past the 64-bit mask, forcing the
        // allocating general path; the ≤ 64 slices run the bitmask path.
        // Both must judge the same prefixes.
        let mut big = CStruct::new();
        for i in 0..70 {
            assert!(big.append(comm(i), OptionStatus::Accepted));
        }
        let mut small = CStruct::new();
        for i in 0..40 {
            assert!(small.append(comm(i), OptionStatus::Accepted));
        }
        assert!(small.is_prefix_of(&big), "general path accepts");
        assert!(small.is_prefix_of_small(&small), "bitmask path reflexive");
        // A physical barrier out of order must fail on both paths.
        let ordered = cs(vec![acc(phys(100)), acc(phys(101))]);
        let swapped = cs(vec![acc(phys(101)), acc(phys(100))]);
        assert!(!ordered.is_prefix_of_small(&swapped));
        let mut swapped_big = swapped.clone();
        for i in 0..70 {
            assert!(swapped_big.append(comm(i), OptionStatus::Accepted));
        }
        assert!(!ordered.is_prefix_of(&swapped_big), "barrier holds >64");
    }

    #[test]
    fn physical_orders_are_not_equivalent() {
        let a = cs(vec![acc(phys(1)), acc(phys(2))]);
        let b = cs(vec![acc(phys(2)), acc(phys(1))]);
        assert_ne!(a, b);
    }

    #[test]
    fn rejected_options_are_neutral() {
        let a = cs(vec![acc(phys(1)), rej(phys(2))]);
        let b = cs(vec![rej(phys(2)), acc(phys(1))]);
        assert_eq!(a, b);
    }

    #[test]
    fn prefix_respects_barriers() {
        let small = cs(vec![acc(phys(1))]);
        let big = cs(vec![acc(phys(1)), acc(phys(2))]);
        let wrong = cs(vec![acc(phys(2)), acc(phys(1))]);
        assert!(small.is_prefix_of(&big));
        assert!(
            !small.is_prefix_of(&wrong),
            "barrier before 1 blocks consumption"
        );
        assert!(!big.is_prefix_of(&small));
    }

    #[test]
    fn empty_is_prefix_of_everything() {
        let e = CStruct::new();
        assert!(e.is_prefix_of(&cs(vec![acc(phys(1))])));
        assert!(e.is_prefix_of(&e.clone()));
        assert!(e.is_empty());
    }

    #[test]
    fn lub_of_commutative_is_union() {
        let a = cs(vec![acc(comm(1)), acc(comm(2))]);
        let b = cs(vec![acc(comm(2)), acc(comm(3))]);
        let l = a.lub(&b).expect("compatible");
        assert_eq!(l.len(), 3);
        assert!(a.is_prefix_of(&l) && b.is_prefix_of(&l));
    }

    #[test]
    fn lub_detects_status_conflicts() {
        let a = cs(vec![acc(comm(1))]);
        let b = cs(vec![rej(comm(1))]);
        assert!(a.lub(&b).is_none(), "✓ vs ✗ on the same txn conflicts");
    }

    #[test]
    fn lub_detects_barrier_conflicts() {
        let a = cs(vec![acc(phys(1))]);
        let b = cs(vec![acc(phys(2))]);
        assert!(
            a.lub(&b).is_none(),
            "two barrier options have no common extension"
        );
    }

    #[test]
    fn lub_with_commutative_and_physical_conflicts() {
        // An accepted physical write does not commute with an accepted
        // commutative delta, so divergent first options collide.
        let a = cs(vec![acc(comm(1))]);
        let b = cs(vec![acc(phys(2))]);
        assert!(a.lub(&b).is_none());
    }

    #[test]
    fn glb_is_the_common_prefix() {
        let a = cs(vec![acc(comm(1)), acc(comm(2)), acc(comm(4))]);
        let b = cs(vec![acc(comm(2)), acc(comm(1)), acc(comm(3))]);
        let g = CStruct::glb_many(&[&a, &b]);
        assert_eq!(g.len(), 2);
        assert!(g.status_of(TxnId::new(NodeId(0), 1)).is_some());
        assert!(g.status_of(TxnId::new(NodeId(0), 2)).is_some());
        assert!(g.is_prefix_of(&a) && g.is_prefix_of(&b));
    }

    #[test]
    fn glb_stops_at_diverging_barriers() {
        let a = cs(vec![acc(phys(1)), acc(phys(3))]);
        let b = cs(vec![acc(phys(1)), acc(phys(4))]);
        let g = CStruct::glb_many(&[&a, &b]);
        assert_eq!(g.len(), 1, "only the shared barrier prefix survives");
        assert!(g.is_prefix_of(&a) && g.is_prefix_of(&b));
    }

    #[test]
    fn glb_excludes_status_disagreement() {
        let a = cs(vec![acc(comm(1)), acc(comm(2))]);
        let b = cs(vec![rej(comm(1)), acc(comm(2))]);
        let g = CStruct::glb_many(&[&a, &b]);
        // txn 1 disagrees; txn 2 is extractable in both (neutral/commuting
        // prefixes), so only txn 2 survives.
        assert_eq!(g.len(), 1);
        assert_eq!(
            g.status_of(TxnId::new(NodeId(0), 2)),
            Some(OptionStatus::Accepted)
        );
    }

    #[test]
    fn glb_of_identical_is_identity() {
        let a = cs(vec![acc(phys(1)), rej(phys(2))]);
        let g = CStruct::glb_many(&[&a, &a, &a]);
        assert_eq!(g, a);
    }

    #[test]
    fn paper_collision_example() {
        // §3.3.1's recovery example, restated with options: acceptors 2, 3
        // and 5 report ballot-4 cstructs; only v1→v2 (our txn 12) appears
        // in a potential fast-quorum intersection.
        let v12 = phys(12); // v1 → v2
        let v13 = phys(13); // v1 → v3
        let a2 = cs(vec![acc(v12.clone()), rej(v13.clone())]);
        let a3 = cs(vec![acc(v13.clone()), rej(v12.clone())]);
        let a5 = cs(vec![acc(v12.clone()), rej(v13.clone())]);
        // Intersection {2,5} agrees on v12 accepted.
        let g25 = CStruct::glb_many(&[&a2, &a5]);
        assert_eq!(
            g25.status_of(v12.txn),
            Some(OptionStatus::Accepted),
            "the option common to the quorum intersection must be proposed next"
        );
        // Intersections containing acceptor 3 agree on nothing.
        let g23 = CStruct::glb_many(&[&a2, &a3]);
        assert_eq!(g23.status_of(v12.txn), None);
        assert_eq!(g23.status_of(v13.txn), None);
    }
}
