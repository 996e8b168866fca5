//! The shared pivot-tree state, in real atomics, packed for cache reach.
//!
//! This is Figure 3's data structure for native threads: child pointers
//! installed with `compare_exchange`, sizes and places written with
//! release stores. All cross-field values are deterministic functions of
//! the immutable key array plus the (write-once) child pointers, so
//! concurrent duplicate writes always store the same value — the benign
//! races the paper's observations 1–6 license.
//!
//! # Memory layout (DESIGN.md §10)
//!
//! The original port stored each node's five fields (`small`, `big`,
//! `size`, `place`, `place_done`) in five parallel `Vec<AtomicUsize>`s,
//! so one traversal visit touched up to five cache lines ~`n` words
//! apart. [`SharedTree`] packs the same state into three dense arrays:
//!
//! * child pointers live in two `Vec<AtomicU32>` arrays — half the
//!   width of the legacy `AtomicUsize` arrays, so one cache line serves
//!   16 nodes per side instead of 8, and an install is still a plain
//!   single-word CAS;
//! * `size`, `place`, and the place-done flag share one 16-byte
//!   `NodeMeta` cell (the flag folded into `place`'s high bit), so a
//!   place visit touches three lines (small, big, meta) where the
//!   legacy layout touched five.
//!
//! Three earlier drafts were measured and rejected by E25. Packing
//! everything into one 64-byte `repr(align(64))` cell per node lost to
//! the five-array layout on duplicate-heavy inputs: equal keys chain
//! into runs of consecutive node indices, descents down such chains
//! enjoy sequential locality, and a 64-byte stride turns what the
//! legacy layout served 8-nodes-per-line into one line per node.
//! Packing the pair into one `AtomicU64` with shift-and-mask halves,
//! and then into an 8-byte `[AtomicU32; 2]` cell with an indexed half,
//! fixed the footprint but kept losing ~2x on the same inputs for a
//! subtler reason, visible only in the disassembly: with both halves in
//! one cell the compiler computes the loaded address *from* the key
//! comparison (a `cmov`-fed index), so each descent hop serializes
//! child load -> key load -> compare -> address -> next child load.
//! With two separate arrays the side pick compiles to a conditional
//! *branch* selecting a base pointer; on duplicate-heavy inputs the
//! descent direction is highly predictable, the branch predictor takes
//! the key comparison off the critical path, and the chain collapses to
//! back-to-back child loads — the same structure that makes the legacy
//! layout fast, now at twice the node density. Uniform-random inputs,
//! where that branch is unpredictable, are cache-miss-bound, and the
//! halved footprint wins there instead.
//!
//! Everything stays write-once (installs and `size`/`place` publishes
//! happen at most once per field, duplicates storing the same value), so
//! the paper's correctness argument carries over verbatim; the only new
//! subtlety — a straggler's duplicate `place` store must never clear an
//! already-folded done bit — is closed by publishing `place` with a
//! CAS-from-zero instead of a blind store (see [`SharedTree::set_place`]).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Sentinel: no child / not computed (element indices are `1..=n`).
pub const EMPTY: usize = 0;

/// High bit of the `place` word: the node's whole subtree has been
/// placed (the postorder completion flag).
const PLACE_DONE_BIT: usize = 1 << (usize::BITS - 1);

/// Which child pointer of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Subtree of smaller keys.
    Small = 0,
    /// Subtree of larger keys.
    Big = 1,
}

impl Side {
    /// The opposite side.
    #[inline]
    pub fn other(self) -> Side {
        match self {
            Side::Small => Side::Big,
            Side::Big => Side::Small,
        }
    }

    /// Decodes a thread-ID bit: set visits SMALL first (paper `SMALL =
    /// 1`). Branchless — a two-entry table lookup, not a conditional —
    /// because it sits on every level of every descent and traversal.
    #[inline]
    pub fn from_bit(bit: bool) -> Side {
        const TABLE: [Side; 2] = [Side::Big, Side::Small];
        TABLE[bit as usize]
    }
}

/// One node's traversal-phase state: `size` and `place` side by side in
/// a single 16-byte cell.
///
/// `repr(align(16))` keeps a cell from straddling two cache lines, so a
/// sum or place visit reads the node's whole non-child state with one
/// line where the parallel-array layout needed one line *per field*.
#[derive(Debug, Default)]
#[repr(align(16))]
struct NodeMeta {
    /// Subtree size (0 = not yet summed).
    size: AtomicUsize,
    /// 1-based rank in the low bits; [`PLACE_DONE_BIT`] folded into the
    /// high bit.
    place: AtomicUsize,
}

impl NodeMeta {
    /// Zeroes the cell for reuse (requires exclusive access — used by
    /// the arena between sorts, never concurrently with workers).
    fn reset(&mut self) {
        *self.size.get_mut() = 0;
        *self.place.get_mut() = 0;
    }
}

/// Atomic per-element fields, 1-based (index 0 unused): two dense
/// 4-byte-per-node child arrays plus a 16-byte `NodeMeta` cell per
/// node.
#[derive(Debug)]
pub struct SharedTree {
    /// `SMALL` child per node — a hot descent array at 4 bytes per
    /// node, 16 nodes per cache line.
    small: Vec<AtomicU32>,
    /// `BIG` child per node, same density.
    big: Vec<AtomicU32>,
    /// `size` and `place` (+ folded done bit) for the traversal phases.
    meta: Vec<NodeMeta>,
}

impl SharedTree {
    /// The child slot for `node` on `side`.
    ///
    /// Deliberately a `match` over two *fields*, indexing inside each
    /// arm, rather than an index into a per-node pair: the arms' bounds
    /// checks carry distinct panic sites, which stops the compiler from
    /// merging the match into a `cmov` of the slot address, so the side
    /// pick stays a conditional branch. On duplicate-heavy inputs that
    /// branch is predictable and keeps the key comparison off the
    /// descent's dependent-load chain (see the module docs — the
    /// indexed-pair drafts lost ~2x exactly here). Returning the slice
    /// first (`match side { .. } -> &[AtomicU32]` then indexing) re-forms
    /// the `cmov` and re-creates the regression; measured by E25.
    #[inline]
    fn slot(&self, node: usize, side: Side) -> &AtomicU32 {
        match side {
            Side::Small => &self.small[node],
            Side::Big => &self.big[node],
        }
    }
    /// Creates the shared fields for `n` elements.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit the packed `u32` child halves
    /// (`n >= 2^32 - 1` — beyond any input this crate can hold anyway).
    pub fn new(n: usize) -> Self {
        assert!(
            (n as u128) < (u32::MAX as u128),
            "packed child pointers are u32 halves: n must be below 2^32 - 1"
        );
        SharedTree {
            small: (0..n + 1).map(|_| AtomicU32::new(0)).collect(),
            big: (0..n + 1).map(|_| AtomicU32::new(0)).collect(),
            meta: (0..n + 1).map(|_| NodeMeta::default()).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.small.len() - 1
    }

    /// Whether the tree holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resizes to `n` elements and zeroes every cell, reusing both
    /// vectors' allocations. Exclusive access makes this safe without
    /// atomics — the arena calls it between sorts, never mid-sort.
    pub(crate) fn reset(&mut self, n: usize) {
        assert!(
            (n as u128) < (u32::MAX as u128),
            "packed child pointers are u32 halves: n must be below 2^32 - 1"
        );
        for arr in [&mut self.small, &mut self.big] {
            arr.truncate(n + 1);
            for slot in arr.iter_mut() {
                *slot.get_mut() = 0;
            }
            arr.resize_with(n + 1, || AtomicU32::new(0));
        }
        self.meta.truncate(n + 1);
        for cell in &mut self.meta {
            cell.reset();
        }
        self.meta.resize_with(n + 1, NodeMeta::default);
    }

    /// Reads the child of `node` on `side` (`EMPTY` if none).
    #[inline]
    pub fn child(&self, node: usize, side: Side) -> usize {
        self.slot(node, side).load(Ordering::Acquire) as usize
    }

    /// Reads both children of `node`: `(small, big)`.
    #[inline]
    pub fn children(&self, node: usize) -> (usize, usize) {
        (self.child(node, Side::Small), self.child(node, Side::Big))
    }

    /// Attempts to install `child` as `node`'s `side` child; returns the
    /// slot's occupant afterwards (== `child` on success, the prior
    /// occupant on failure) — mirroring the paper's re-read after CAS.
    pub fn install_child(&self, node: usize, side: Side, child: usize) -> usize {
        self.install_child_observed(node, side, child).0
    }

    /// Like [`SharedTree::install_child`], but also reports whether this
    /// call's CAS won the slot. A `false` second component means the
    /// install genuinely lost a race (or the slot was already occupied)
    /// — the event the metrics layer counts as a contention failure.
    ///
    /// The two sides are separate atomics, so a CAS on one side never
    /// has to retry because the *other* side moved — one
    /// compare-exchange settles the slot, exactly like the legacy
    /// layout's per-array CAS, just on a 4-byte word.
    pub fn install_child_observed(&self, node: usize, side: Side, child: usize) -> (usize, bool) {
        let slot = self.slot(node, side);
        match slot.compare_exchange(0, child as u32, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => (child, true),
            Err(occupant) => (occupant as usize, false),
        }
    }

    /// Reads `node`'s subtree size (0 = not yet summed).
    #[inline]
    pub fn size(&self, node: usize) -> usize {
        self.meta[node].size.load(Ordering::Acquire)
    }

    /// Publishes `node`'s subtree size.
    #[inline]
    pub fn set_size(&self, node: usize, value: usize) {
        self.meta[node].size.store(value, Ordering::Release);
    }

    /// Reads `node`'s 1-based rank (0 = not yet placed).
    #[inline]
    pub fn place(&self, node: usize) -> usize {
        self.meta[node].place.load(Ordering::Acquire) & !PLACE_DONE_BIT
    }

    /// Publishes `node`'s rank.
    ///
    /// A CAS from zero, not a store: the done flag shares this word, so
    /// a straggler re-publishing the (identical, deterministic) rank
    /// after another worker already folded the done bit in must lose
    /// rather than wipe the flag. The CAS enforces the write-once
    /// discipline the legacy layout got for free from separate arrays;
    /// losing it is always benign because every contender carries the
    /// same value.
    #[inline]
    pub fn set_place(&self, node: usize, value: usize) {
        debug_assert!(value & PLACE_DONE_BIT == 0, "rank collides with done bit");
        let _ =
            self.meta[node]
                .place
                .compare_exchange(0, value, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Whether `node`'s whole subtree has been placed (the postorder
    /// completion flag — see the find_place crash-window fix in
    /// DESIGN.md).
    #[inline]
    pub fn place_complete(&self, node: usize) -> bool {
        self.meta[node].place.load(Ordering::Acquire) & PLACE_DONE_BIT != 0
    }

    /// Marks `node`'s subtree placement complete. A `fetch_or` so the
    /// already-published rank in the low bits survives.
    #[inline]
    pub fn set_place_complete(&self, node: usize) {
        self.meta[node]
            .place
            .fetch_or(PLACE_DONE_BIT, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_child_first_wins() {
        let t = SharedTree::new(4);
        assert_eq!(t.install_child(1, Side::Small, 2), 2);
        assert_eq!(t.install_child(1, Side::Small, 3), 2, "loser sees winner");
        assert_eq!(t.child(1, Side::Small), 2);
        assert_eq!(t.child(1, Side::Big), EMPTY);
    }

    #[test]
    fn install_same_value_is_idempotent() {
        let t = SharedTree::new(4);
        assert_eq!(t.install_child(1, Side::Big, 3), 3);
        // A duplicate-working thread re-attempting the same install gets
        // the already-present value back — counts as success upstream.
        assert_eq!(t.install_child(1, Side::Big, 3), 3);
    }

    #[test]
    fn install_observed_reports_winner() {
        let t = SharedTree::new(4);
        assert_eq!(t.install_child_observed(1, Side::Small, 2), (2, true));
        assert_eq!(t.install_child_observed(1, Side::Small, 3), (2, false));
        // Re-attempting an identical install is a loss too: the slot was
        // not EMPTY, even though the value matches.
        assert_eq!(t.install_child_observed(1, Side::Small, 2), (2, false));
    }

    #[test]
    fn halves_are_independent() {
        // The two sides live in separate arrays; installing one must
        // neither clobber nor block the other.
        let t = SharedTree::new(8);
        assert_eq!(t.install_child(1, Side::Small, 2), 2);
        assert_eq!(t.install_child(1, Side::Big, 3), 3);
        assert_eq!(t.children(1), (2, 3));
        assert_eq!(t.child(1, Side::Small), 2);
        assert_eq!(t.child(1, Side::Big), 3);
    }

    #[test]
    fn size_place_roundtrip() {
        let t = SharedTree::new(2);
        assert_eq!(t.size(1), 0);
        t.set_size(1, 2);
        assert_eq!(t.size(1), 2);
        assert_eq!(t.place(2), 0);
        t.set_place(2, 1);
        assert_eq!(t.place(2), 1);
        assert!(!t.place_complete(2));
        t.set_place_complete(2);
        assert!(t.place_complete(2));
    }

    #[test]
    fn done_bit_and_rank_share_a_word_safely() {
        let t = SharedTree::new(2);
        t.set_place(1, 7);
        t.set_place_complete(1);
        // The folded flag does not leak into the rank, nor vice versa.
        assert_eq!(t.place(1), 7);
        assert!(t.place_complete(1));
        // A straggler's duplicate rank publish after the done bit is set
        // must not clear the flag (the crash-window fix depends on it).
        t.set_place(1, 7);
        assert!(t.place_complete(1), "duplicate set_place wiped done bit");
        assert_eq!(t.place(1), 7);
    }

    #[test]
    fn packed_geometry_holds() {
        // A child slot must stay at 4 bytes (16 nodes per cache line,
        // half the legacy footprint) and a meta cell must never straddle
        // two lines.
        assert_eq!(std::mem::size_of::<AtomicU32>(), 4);
        assert_eq!(std::mem::size_of::<NodeMeta>(), 16);
        assert_eq!(std::mem::align_of::<NodeMeta>(), 16);
    }

    #[test]
    fn reset_reuses_and_rezeros() {
        let mut t = SharedTree::new(4);
        t.install_child(1, Side::Small, 2);
        t.set_size(1, 4);
        t.set_place(1, 2);
        t.set_place_complete(1);
        t.reset(6);
        assert_eq!(t.len(), 6);
        for node in 1..=6 {
            assert_eq!(t.child(node, Side::Small), EMPTY);
            assert_eq!(t.child(node, Side::Big), EMPTY);
            assert_eq!(t.size(node), 0);
            assert_eq!(t.place(node), 0);
            assert!(!t.place_complete(node));
        }
        t.reset(2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn concurrent_installs_have_single_winner() {
        let t = SharedTree::new(64);
        let tref = &t;
        let winners: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (2..=8)
                .map(|i| s.spawn(move || tref.install_child(1, Side::Small, i)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let final_child = t.child(1, Side::Small);
        assert!(winners.iter().all(|&w| w == final_child));
    }

    #[test]
    fn concurrent_opposite_halves_both_land() {
        // The two sides are independent atomics: hammer SMALL and BIG
        // of the same node from racing threads and require both
        // installs to survive.
        for _ in 0..50 {
            let t = SharedTree::new(8);
            let tref = &t;
            std::thread::scope(|s| {
                s.spawn(move || tref.install_child(1, Side::Small, 2));
                s.spawn(move || tref.install_child(1, Side::Big, 3));
            });
            assert_eq!(t.children(1), (2, 3));
        }
    }

    #[test]
    fn side_helpers() {
        assert_eq!(Side::Small.other(), Side::Big);
        assert_eq!(Side::from_bit(true), Side::Small);
        assert_eq!(Side::from_bit(false), Side::Big);
    }
}
