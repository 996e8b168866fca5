//! A sort job shared by any number of participating threads.
//!
//! [`SortJob`] owns the keys and all shared state; [`SortJob::participate`]
//! runs the four wait-free phases to completion and may be called from as
//! many threads as desired, at any time — the scenario motivating the
//! paper's introduction: threads can be reaped mid-sort (abandon
//! participation) and fresh threads can join later, without the data
//! structures ever being left in a state others cannot finish from.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::metrics::{Instrument, MetricSlot, NoInstrument};
use crate::tree::{SharedTree, Side, EMPTY};
use crate::wat::PhaseWat;
use crate::watchdog::{ParticipantProgress, ProgressReport, SortPhase};

/// Heartbeat slots allocated by [`SortJob::new`] / [`SortJob::with_allocation`]
/// when the worker count is unknown. Participants beyond the tracked
/// count share slots (their heartbeats alias; `ProgressReport` records
/// how many, and correctness is unaffected). Front-ends that know their
/// worker count size the slot vector exactly via [`SortJob::with_tracked`].
pub const DEFAULT_TRACKED_PARTICIPANTS: usize = 64;

/// Which child a thread's descent visits first at a given depth: the
/// paper's PID-bit trick (Figures 5–6), spreading threads across
/// subtrees so concurrent whole-tree traversals do not stampede down
/// the same path. Bit `depth % usize::BITS` of `tid`, set = SMALL first.
///
/// Branchless — a shift, a mask, and [`Side::from_bit`]'s table lookup —
/// and `#[inline]` because it runs on every level of every sum/place
/// frame. Agrees with the simulator's `Pid::bit` for every depth below
/// `usize::BITS` (property-tested in `tests/proptest_layout.rs`).
///
/// Depths at or beyond `usize::BITS` wrap around and reuse low bits
/// (the simulator's `Pid::bit` instead saturates to BIG-first there —
/// see `pram::word::Pid`). Any fixed choice is correct: the bit only
/// picks a traversal order, and trees that deep — n beyond 2^64 keys,
/// or a pathological spine — are outside both implementations' reach.
#[inline]
pub fn descent_side(tid: usize, depth: u32) -> Side {
    Side::from_bit(tid >> (depth % usize::BITS) & 1 == 1)
}

/// The grain (items per WAT leaf block) [`SortJob::with_tracked`] picks
/// for `n` keys and an expected `workers` cohort: `n / (workers * 8)`,
/// clamped to `1..=64`.
///
/// The `workers * 8` divisor keeps at least ~8 blocks per worker so the
/// WAT can still rebalance around slow or reaped participants; the 64
/// cap bounds the work between two `keep_going` block boundaries and
/// keeps the redo cost of a mid-block crash small. Both constants are
/// exercised by the grain-sweep tests and the E25 grain sweep.
pub fn recommended_grain(n: usize, workers: usize) -> usize {
    (n / (workers.max(1) * 8)).clamp(1, 64)
}

/// Heartbeat bit layout: bit 63 = departed, bits 60..=61 = phase,
/// bits 0..=59 = checkpoint epoch.
const DEPARTED_BIT: u64 = 1 << 63;
const PHASE_SHIFT: u32 = 60;
const EPOCH_MASK: u64 = (1 << PHASE_SHIFT) - 1;

/// One cache line per heartbeat slot so workers publishing epochs on the
/// hot path do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct HeartbeatSlot(AtomicU64);

/// Publishes a participant's heartbeat around an inner [`Participation`]:
/// each `keep_going` consultation bumps the epoch and stores it with the
/// current phase; `depart` marks the slot when the participant returns.
struct Monitored<'a, P: Participation> {
    inner: &'a mut P,
    slot: &'a AtomicU64,
    phase: SortPhase,
    epoch: u64,
}

impl<P: Participation> Monitored<'_, P> {
    fn publish(&self) {
        self.slot.store(
            ((self.phase as u64) << PHASE_SHIFT) | (self.epoch & EPOCH_MASK),
            Ordering::Release,
        );
    }

    fn enter_phase(&mut self, phase: SortPhase) {
        self.phase = phase;
        self.publish();
    }

    fn depart(&self) {
        self.slot.store(
            DEPARTED_BIT | ((self.phase as u64) << PHASE_SHIFT) | (self.epoch & EPOCH_MASK),
            Ordering::Release,
        );
    }
}

impl<P: Participation> Participation for Monitored<'_, P> {
    fn keep_going(&mut self) -> bool {
        self.epoch += 1;
        self.publish();
        self.inner.keep_going()
    }
}

/// Controls when a participant abandons the sort, simulating reaping or
/// crashing. Consulted at wait-free operation boundaries.
pub trait Participation {
    /// `false` = abandon now.
    fn keep_going(&mut self) -> bool;
}

/// A mutable reference delegates, so boxed or borrowed policies (`&mut
/// dyn Participation`) drive a sort exactly like the concrete type —
/// what lets one cohort spawn loop mix chaos, deadline, and plain
/// participants.
impl<P: Participation + ?Sized> Participation for &mut P {
    fn keep_going(&mut self) -> bool {
        (**self).keep_going()
    }
}

/// Never abandons.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunToCompletion;

impl Participation for RunToCompletion {
    fn keep_going(&mut self) -> bool {
        true
    }
}

/// Abandons after a fixed number of checks — a deterministic "reap".
#[derive(Clone, Copy, Debug)]
pub struct QuitAfter(pub usize);

impl Participation for QuitAfter {
    fn keep_going(&mut self) -> bool {
        if self.0 == 0 {
            false
        } else {
            self.0 -= 1;
            true
        }
    }
}

/// How jobs are handed to participants (the native analogue of the PRAM
/// sorter's `Allocation`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NativeAllocation {
    /// The deterministic WAT of Figure 2.
    #[default]
    Deterministic,
    /// The randomized LC-WAT of Figure 8: random probing decorrelates
    /// which cache lines concurrent threads touch.
    Randomized,
}

/// A wait-free sort of `keys` in progress (or completed).
///
/// The comparison order is `(key, index)` — the paper's assumption of
/// distinct keys realized by index tie-breaking, which also makes the
/// resulting permutation stable.
///
/// # Examples
///
/// Any number of threads can participate; any of them may abandon at
/// any time and the rest finish the job:
///
/// ```
/// use wfsort_native::{QuitAfter, RunToCompletion, SortJob};
///
/// let job = SortJob::new(vec![5, 2, 8, 1, 9, 3]);
/// std::thread::scope(|s| {
///     s.spawn(|| job.participate(&mut QuitAfter(10))); // reaped early
///     s.spawn(|| job.participate(&mut RunToCompletion));
/// });
/// assert!(job.is_complete());
/// assert_eq!(job.into_sorted(), vec![1, 2, 3, 5, 8, 9]);
/// ```
#[derive(Debug)]
pub struct SortJob<K: Ord> {
    keys: Vec<K>,
    tree: SharedTree,
    /// Work trees for phase 1 (one item per non-root element) and
    /// phase 4 (one per element), both of the job's allocation flavor.
    build_wat: PhaseWat,
    scatter_wat: PhaseWat,
    /// `perm[r - 1]` = element index with rank `r`.
    perm: Vec<AtomicUsize>,
    participants: AtomicUsize,
    /// Per-participant heartbeats, indexed by `tid % heartbeats.len()`.
    /// Sized from the expected worker count when the job is built with
    /// [`SortJob::with_tracked`]; later arrivals alias (recorded in
    /// [`ProgressReport::aliased_participants`]).
    heartbeats: Vec<HeartbeatSlot>,
}

impl<K: Ord> SortJob<K> {
    /// Creates a job for sorting `keys`.
    ///
    /// # Panics
    ///
    /// Panics if `keys` has fewer than 2 elements (nothing to do in
    /// parallel; handle short inputs locally).
    pub fn new(keys: Vec<K>) -> Self {
        Self::with_allocation(keys, NativeAllocation::Deterministic)
    }

    /// Creates a job using the given work-allocation strategy, with
    /// [`DEFAULT_TRACKED_PARTICIPANTS`] heartbeat slots.
    ///
    /// # Panics
    ///
    /// Panics if `keys` has fewer than 2 elements.
    pub fn with_allocation(keys: Vec<K>, allocation: NativeAllocation) -> Self {
        Self::with_tracked(keys, allocation, DEFAULT_TRACKED_PARTICIPANTS)
    }

    /// Creates a job with a heartbeat slot for each of `tracked` expected
    /// participants, so the watchdog can tell every worker apart.
    /// Participants past `tracked` still sort correctly but alias slots
    /// (see [`ProgressReport::aliased_participants`]). Callers that know
    /// their worker count — every [`crate::WaitFreeSorter`] front-end —
    /// should pass it here. The WAT grain defaults to
    /// [`recommended_grain`] for `tracked` workers.
    ///
    /// # Panics
    ///
    /// Panics if `keys` has fewer than 2 elements or `tracked` is zero.
    pub fn with_tracked(keys: Vec<K>, allocation: NativeAllocation, tracked: usize) -> Self {
        let grain = recommended_grain(keys.len(), tracked);
        Self::with_grain(keys, allocation, tracked, grain)
    }

    /// [`SortJob::with_tracked`] with an explicit WAT grain (items per
    /// work-assignment leaf block) instead of the [`recommended_grain`]
    /// heuristic. Grain 1 reproduces the one-element-per-leaf trees
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics if `keys` has fewer than 2 elements, or `tracked` or
    /// `grain` is zero.
    pub fn with_grain(
        keys: Vec<K>,
        allocation: NativeAllocation,
        tracked: usize,
        grain: usize,
    ) -> Self {
        let n = keys.len();
        assert!(n >= 2, "a sort job needs at least two keys");
        assert!(tracked >= 1, "a sort job needs at least one tracked slot");
        SortJob {
            keys,
            tree: SharedTree::new(n),
            build_wat: PhaseWat::new(allocation, n - 1, grain),
            scatter_wat: PhaseWat::new(allocation, n, grain),
            perm: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            participants: AtomicUsize::new(0),
            heartbeats: (0..tracked).map(|_| HeartbeatSlot::default()).collect(),
        }
    }

    /// Builds a *sharded* job over `keys` instead of a single-tree one:
    /// the input is split by sampled splitters into `shards` buckets
    /// which workers then claim and sort independently (see
    /// [`crate::ShardedSortJob`] for the full pipeline and fault story).
    /// The single-tree constructors on this type remain the right choice
    /// for small inputs; [`crate::recommended_shards`] says when sharding
    /// starts paying.
    ///
    /// # Panics
    ///
    /// Panics if `keys` has fewer than 2 elements or `shards` is zero.
    pub fn with_shards(keys: Vec<K>, shards: usize) -> crate::shard::ShardedSortJob<K>
    where
        K: Clone,
    {
        crate::shard::ShardedSortJob::with_workers(
            keys,
            NativeAllocation::Deterministic,
            DEFAULT_TRACKED_PARTICIPANTS,
            shards,
        )
    }

    /// Rebuilds this job in place for a fresh sort over `keys`, reusing
    /// every existing allocation (tree cells, WAT nodes, permutation,
    /// heartbeats, and the key vector itself). Exclusive access (`&mut`)
    /// guarantees no participant is running; the arena calls this
    /// between sorts.
    ///
    /// # Panics
    ///
    /// Panics if `keys` has fewer than 2 elements, or `tracked` or
    /// `grain` is zero.
    pub fn recycle_from_slice(
        &mut self,
        keys: &[K],
        allocation: NativeAllocation,
        tracked: usize,
        grain: usize,
    ) where
        K: Clone,
    {
        let n = keys.len();
        assert!(n >= 2, "a sort job needs at least two keys");
        assert!(tracked >= 1, "a sort job needs at least one tracked slot");
        assert!(grain >= 1, "a sort job needs a non-zero grain");
        self.keys.clear();
        self.keys.extend_from_slice(keys);
        self.tree.reset(n);
        self.build_wat.reset(allocation, n - 1, grain);
        self.scatter_wat.reset(allocation, n, grain);
        self.perm.truncate(n);
        for slot in &mut self.perm {
            *slot.get_mut() = 0;
        }
        self.perm.resize_with(n, || AtomicUsize::new(0));
        *self.participants.get_mut() = 0;
        self.heartbeats.truncate(tracked);
        for slot in &mut self.heartbeats {
            *slot.0.get_mut() = 0;
        }
        self.heartbeats.resize_with(tracked, HeartbeatSlot::default);
    }

    /// The WAT grain this job was built with (items per leaf block).
    pub fn grain(&self) -> usize {
        self.build_wat.grain()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the job is empty (never true; `new` requires 2+ keys).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether the sorted permutation is fully computed.
    pub fn is_complete(&self) -> bool {
        self.scatter_wat.all_done()
    }

    /// Snapshots the job's progress: per-participant heartbeats (phase,
    /// checkpoint epoch, departed flag) and the build/scatter WAT
    /// frontiers. Safe to call from any thread at any time; intended for
    /// the [`crate::Watchdog`] and for diagnostics. The sharded
    /// pipeline's heartbeat-free counterpart is
    /// [`crate::ShardedSortJob::progress`].
    pub fn progress(&self) -> ProgressReport {
        let participants = self.participants.load(Ordering::Relaxed);
        let tracked_slots = self.heartbeats.len();
        let workers: Vec<ParticipantProgress> = (0..participants.min(tracked_slots))
            .map(|slot| {
                let raw = self.heartbeats[slot].0.load(Ordering::Acquire);
                ParticipantProgress {
                    slot,
                    phase: SortPhase::from_bits(raw >> PHASE_SHIFT),
                    epoch: raw & EPOCH_MASK,
                    departed: raw & DEPARTED_BIT != 0,
                }
            })
            .collect();
        ProgressReport {
            complete: self.is_complete(),
            phase: workers
                .iter()
                .map(|w| w.phase)
                .max()
                .unwrap_or(SortPhase::Build),
            participants,
            workers,
            tracked_slots,
            aliased_participants: participants.saturating_sub(tracked_slots),
            build_jobs_done: self.build_wat.done_jobs(),
            build_jobs_total: self.build_wat.jobs(),
            scatter_jobs_done: self.scatter_wat.done_jobs(),
            scatter_jobs_total: self.scatter_wat.jobs(),
        }
    }

    /// Whether phase 1 (tree building) is complete.
    fn build_done(&self) -> bool {
        self.build_wat.all_done()
    }

    /// `(key, index)` comparison: is element `a` less than element `b`?
    fn less(&self, a: usize, b: usize) -> bool {
        (&self.keys[a - 1], a) < (&self.keys[b - 1], b)
    }

    /// Runs all four phases as one participant until the sort is complete
    /// or `p` abandons. Wait-free: bounded work between `keep_going`
    /// checks, and progress never depends on any other participant.
    pub fn participate(&self, p: &mut impl Participation) {
        self.participate_inner(p, &NoInstrument);
    }

    /// [`SortJob::participate`], recording per-worker telemetry into
    /// `slot`. Read the counts back with [`MetricSlot::snapshot`] after
    /// this returns; [`crate::WaitFreeSorter::run_job_with_report`] does
    /// the slot bookkeeping for a whole worker cohort.
    pub fn participate_instrumented(&self, p: &mut impl Participation, slot: &MetricSlot) {
        self.participate_inner(p, slot.counters());
    }

    pub(crate) fn participate_inner(&self, p: &mut impl Participation, ins: &impl Instrument) {
        let tid = self.participants.fetch_add(1, Ordering::Relaxed);
        // A nominal thread count for work spreading; any value works, the
        // WAT reassigns everything anyway.
        let nthreads = (tid + 1).max(2);
        let slot = &self.heartbeats[tid % self.heartbeats.len()].0;
        let mut m = Monitored {
            inner: p,
            slot,
            phase: SortPhase::Build,
            epoch: 0,
        };
        m.publish();
        ins.enter_phase(SortPhase::Build);
        self.build_phase(tid, nthreads, &mut m, ins);
        if self.build_done() {
            m.enter_phase(SortPhase::Sum);
            ins.enter_phase(SortPhase::Sum);
            if self.sum_phase(tid, &mut m, ins) {
                m.enter_phase(SortPhase::Place);
                ins.enter_phase(SortPhase::Place);
                if self.place_phase(tid, &mut m, ins) {
                    m.enter_phase(SortPhase::Scatter);
                    ins.enter_phase(SortPhase::Scatter);
                    self.scatter_phase(tid, nthreads, &mut m, ins);
                }
            }
        }
        m.depart();
    }

    /// Convenience: participate and never abandon.
    pub fn run(&self) {
        self.participate(&mut RunToCompletion);
    }

    /// Phase 1: insert every element into the pivot tree (Figure 4).
    fn build_phase(
        &self,
        tid: usize,
        nthreads: usize,
        p: &mut impl Participation,
        ins: &impl Instrument,
    ) {
        // Job j inserts element j + 2 (element 1 is the root).
        let insert = |job: usize| {
            let element = job + 2;
            let mut parent = 1usize;
            loop {
                ins.descent_step();
                let side = if self.less(element, parent) {
                    Side::Small
                } else {
                    Side::Big
                };
                // Figure 4's read-then-CAS: only attempt the install when
                // the slot was observed EMPTY, so every CAS failure is a
                // genuinely lost race — the contention event the metrics
                // count — rather than a routine occupied-slot descent.
                let occupant = match self.tree.child(parent, side) {
                    EMPTY => {
                        let (occupant, installed) =
                            self.tree.install_child_observed(parent, side, element);
                        ins.cas(!installed);
                        occupant
                    }
                    occupied => occupied,
                };
                if occupant == element {
                    return;
                }
                parent = occupant;
            }
        };
        let keep_going = || {
            ins.checkpoint();
            p.keep_going()
        };
        self.build_wat
            .participate_with(tid, nthreads, insert, keep_going, ins);
    }

    /// Phase 2: subtree sizes (Figure 5); returns `false` if abandoned.
    fn sum_phase(&self, tid: usize, p: &mut impl Participation, ins: &impl Instrument) -> bool {
        // Explicit stack: (node, visit-state). State 0 = first entry,
        // 1 = after first child, 2 = after second child.
        let mut stack: Vec<(usize, u8, usize)> = vec![(1, 0, 0)];
        let mut ret = 0usize;
        while let Some((node, stage, first_sum)) = stack.pop() {
            ins.checkpoint();
            if !p.keep_going() {
                return false;
            }
            let depth = stack.len() as u32;
            let first = descent_side(tid, depth);
            match stage {
                0 => {
                    ins.visit();
                    let s = self.tree.size(node);
                    if s > 0 {
                        ins.skip();
                        ret = s;
                        continue;
                    }
                    let c = self.tree.child(node, first);
                    stack.push((node, 1, 0));
                    if c != EMPTY {
                        stack.push((c, 0, 0));
                        ret = 0;
                    } else {
                        ret = 0;
                    }
                }
                1 => {
                    let sum1 = ret;
                    let c = self.tree.child(node, first.other());
                    stack.push((node, 2, sum1));
                    if c != EMPTY {
                        stack.push((c, 0, 0));
                        ret = 0;
                    } else {
                        ret = 0;
                    }
                }
                _ => {
                    let total = first_sum + ret + 1;
                    self.tree.set_size(node, total);
                    ret = total;
                }
            }
        }
        true
    }

    /// Phase 3: ranks (Figure 6 with the postorder completion flag);
    /// returns `false` if abandoned.
    fn place_phase(&self, tid: usize, p: &mut impl Participation, ins: &impl Instrument) -> bool {
        // Frames: (node, sub, stage).
        let mut stack: Vec<(usize, usize, u8)> = vec![(1, 0, 0)];
        while let Some((node, sub, stage)) = stack.pop() {
            ins.checkpoint();
            if !p.keep_going() {
                return false;
            }
            let depth = stack.len() as u32;
            match stage {
                0 => {
                    ins.visit();
                    if self.tree.place_complete(node) {
                        ins.skip();
                        continue;
                    }
                    let small = self.tree.child(node, Side::Small);
                    let s = if small == EMPTY {
                        0
                    } else {
                        self.tree.size(small)
                    };
                    if self.tree.place(node) == 0 {
                        self.tree.set_place(node, s + sub + 1);
                    }
                    let big = self.tree.child(node, Side::Big);
                    // Children in PID-bit order.
                    let small_first = descent_side(tid, depth) == Side::Small;
                    let kids = if small_first {
                        [(small, sub), (big, sub + s + 1)]
                    } else {
                        [(big, sub + s + 1), (small, sub)]
                    };
                    stack.push((node, sub, 1));
                    for (c, csub) in kids.into_iter().rev() {
                        if c != EMPTY {
                            stack.push((c, csub, 0));
                        }
                    }
                }
                _ => {
                    self.tree.set_place_complete(node);
                }
            }
        }
        true
    }

    /// Phase 4: scatter element indices by rank.
    fn scatter_phase(
        &self,
        tid: usize,
        nthreads: usize,
        p: &mut impl Participation,
        ins: &impl Instrument,
    ) {
        let move_one = |job: usize| {
            let element = job + 1;
            let rank = self.tree.place(element);
            debug_assert!(rank >= 1, "scatter before placement");
            self.perm[rank - 1].store(element, Ordering::Release);
        };
        let keep_going = || {
            ins.checkpoint();
            p.keep_going()
        };
        self.scatter_wat
            .participate_with(tid, nthreads, move_one, keep_going, ins);
    }

    /// The sorted permutation: entry `r` is the index (1-based) of the
    /// rank-`r + 1` element.
    ///
    /// # Panics
    ///
    /// Panics if the sort is not complete.
    pub fn permutation(&self) -> Vec<usize> {
        assert!(self.is_complete(), "sort not complete");
        self.perm
            .iter()
            .map(|a| a.load(Ordering::Acquire))
            .collect()
    }

    /// Consumes the job, returning the keys in sorted order.
    ///
    /// # Panics
    ///
    /// Panics if the sort is not complete.
    pub fn into_sorted(self) -> Vec<K> {
        let perm = self.permutation();
        let mut slots: Vec<Option<K>> = self.keys.into_iter().map(Some).collect();
        perm.into_iter()
            .map(|i| slots[i - 1].take().expect("permutation is a bijection"))
            .collect()
    }

    /// Writes the keys in sorted order into `out` (cleared first),
    /// leaving the job intact for recycling — the allocation-free
    /// counterpart of [`SortJob::into_sorted`] used by
    /// [`crate::WaitFreeSorter::sort_into`]. Keys are cloned through the
    /// computed permutation; `out`'s capacity is reused.
    ///
    /// # Panics
    ///
    /// Panics if the sort is not complete.
    pub fn sorted_into(&self, out: &mut Vec<K>)
    where
        K: Clone,
    {
        assert!(self.is_complete(), "sort not complete");
        out.clear();
        out.extend(
            self.perm
                .iter()
                .map(|slot| self.keys[slot.load(Ordering::Acquire) - 1].clone()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_participant_sorts() {
        let job = SortJob::new(vec![5, 2, 9, 1, 7, 3]);
        job.run();
        assert!(job.is_complete());
        assert_eq!(job.into_sorted(), vec![1, 2, 3, 5, 7, 9]);
    }

    #[test]
    fn permutation_is_stable_for_duplicates() {
        let job = SortJob::new(vec![2, 1, 2, 1]);
        job.run();
        assert_eq!(job.permutation(), vec![2, 4, 1, 3]);
        assert_eq!(job.into_sorted(), vec![1, 1, 2, 2]);
    }

    #[test]
    fn many_participants_concurrently() {
        let keys: Vec<i64> = (0..5000)
            .map(|i| (i * 2654435761u64 % 10007) as i64)
            .collect();
        let mut expect = keys.clone();
        expect.sort();
        let job = SortJob::new(keys);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let job = &job;
                s.spawn(move || job.run());
            }
        });
        assert_eq!(job.into_sorted(), expect);
    }

    #[test]
    fn quitters_plus_one_survivor_complete() {
        let keys: Vec<i64> = (0..2000).rev().collect();
        let mut expect = keys.clone();
        expect.sort();
        let job = SortJob::new(keys);
        std::thread::scope(|s| {
            for q in 0..6 {
                let job = &job;
                s.spawn(move || job.participate(&mut QuitAfter(50 * (q + 1))));
            }
            let job = &job;
            s.spawn(move || job.run());
        });
        assert!(job.is_complete());
        assert_eq!(job.into_sorted(), expect);
    }

    #[test]
    fn late_joiner_finishes_abandoned_job() {
        let keys: Vec<i64> = (0..512).map(|i| (i * 37) % 512).collect();
        let mut expect = keys.clone();
        expect.sort();
        let job = SortJob::new(keys);
        // A participant that gives up early...
        job.participate(&mut QuitAfter(20));
        assert!(!job.is_complete());
        // ...and a fresh one that arrives later and completes everything.
        job.run();
        assert!(job.is_complete());
        assert_eq!(job.into_sorted(), expect);
    }

    #[test]
    fn randomized_allocation_sorts() {
        let keys: Vec<i64> = (0..3000).map(|i| (i * 97) % 1009).collect();
        let mut expect = keys.clone();
        expect.sort();
        let job = SortJob::with_allocation(keys, NativeAllocation::Randomized);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let job = &job;
                s.spawn(move || job.run());
            }
        });
        assert!(job.is_complete());
        assert_eq!(job.into_sorted(), expect);
    }

    #[test]
    fn randomized_allocation_survives_quitters() {
        let keys: Vec<i64> = (0..600).rev().collect();
        let mut expect = keys.clone();
        expect.sort();
        let job = SortJob::with_allocation(keys, NativeAllocation::Randomized);
        job.participate(&mut QuitAfter(30));
        assert!(!job.is_complete());
        job.run();
        assert_eq!(job.into_sorted(), expect);
    }

    #[test]
    fn works_on_generic_keys() {
        let words = vec!["pear", "apple", "fig", "date", "cherry"];
        let job = SortJob::new(words);
        job.run();
        assert_eq!(
            job.into_sorted(),
            vec!["apple", "cherry", "date", "fig", "pear"]
        );
    }

    #[test]
    fn descent_side_reads_pid_bits() {
        assert_eq!(descent_side(0b101, 0), Side::Small);
        assert_eq!(descent_side(0b101, 1), Side::Big);
        assert_eq!(descent_side(0b101, 2), Side::Small);
        assert_eq!(descent_side(0, 0), Side::Big);
        // Depths past the word width wrap and reuse low bits (documented
        // divergence from the simulator's saturating Pid::bit).
        assert_eq!(descent_side(0b101, usize::BITS), descent_side(0b101, 0));
        assert_eq!(descent_side(0b101, usize::BITS + 1), descent_side(0b101, 1));
    }

    #[test]
    fn tracked_slots_and_aliasing_reported() {
        let job = SortJob::with_tracked(vec![3, 1, 2], NativeAllocation::Deterministic, 2);
        for _ in 0..5 {
            job.participate(&mut QuitAfter(1));
        }
        let r = job.progress();
        assert_eq!(r.tracked_slots, 2);
        assert_eq!(r.participants, 5);
        assert_eq!(r.aliased_participants, 3);
        assert_eq!(r.workers.len(), 2);
    }

    #[test]
    fn instrumented_participant_records_counts() {
        let slot = crate::MetricSlot::new();
        let job = SortJob::new(vec![5, 2, 9, 1, 7, 3]);
        job.participate_instrumented(&mut RunToCompletion, &slot);
        assert!(job.is_complete());
        let m = slot.snapshot();
        // Alone, the worker installs each non-root element with exactly
        // one uncontended CAS and visits each node once per traversal.
        assert_eq!(m.phases.build.cas_attempts, 5);
        assert_eq!(m.phases.build.cas_failures, 0);
        assert_eq!(m.phases.build.claims, 5);
        assert_eq!(m.phases.sum.visits, 6);
        assert_eq!(m.phases.sum.skips, 0);
        assert_eq!(m.phases.place.visits, 6);
        assert_eq!(m.phases.place.skips, 0);
        assert_eq!(m.phases.scatter.claims, 6);
        // Six keys resolve to grain 1, where block and element claims
        // coincide.
        assert_eq!(job.grain(), 1);
        assert_eq!(m.phases.build.block_claims, 5);
        assert_eq!(m.phases.scatter.block_claims, 6);
        assert!(m.checkpoints > 0);
        assert_eq!(job.into_sorted(), vec![1, 2, 3, 5, 7, 9]);
    }

    #[test]
    fn grain_amortizes_block_claims() {
        let keys: Vec<i64> = (0..512).rev().collect();
        let mut expect = keys.clone();
        expect.sort();
        let slot = crate::MetricSlot::new();
        let job = SortJob::with_grain(keys, NativeAllocation::Deterministic, 1, 8);
        job.participate_instrumented(&mut RunToCompletion, &slot);
        let m = slot.snapshot();
        // Per-element counts are grain-independent...
        assert_eq!(m.phases.build.claims, 511);
        assert_eq!(m.phases.build.cas_attempts, 511);
        assert_eq!(m.phases.scatter.claims, 512);
        // ...while structure-level claim traffic shrinks by the grain.
        assert_eq!(m.phases.build.block_claims, 511u64.div_ceil(8));
        assert_eq!(m.phases.scatter.block_claims, 64);
        assert_eq!(job.into_sorted(), expect);
    }

    #[test]
    fn explicit_grains_all_sort_correctly() {
        let keys: Vec<i64> = (0..500).map(|i| (i * 131) % 499).collect();
        let mut expect = keys.clone();
        expect.sort();
        for grain in [1, 2, 7, 64] {
            for allocation in [
                NativeAllocation::Deterministic,
                NativeAllocation::Randomized,
            ] {
                let job = SortJob::with_grain(keys.clone(), allocation, 4, grain);
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let job = &job;
                        s.spawn(move || job.run());
                    }
                });
                assert_eq!(job.into_sorted(), expect, "grain {grain}");
            }
        }
    }

    #[test]
    fn recycled_job_reuses_allocations_for_fresh_sorts() {
        let first: Vec<i64> = (0..300).rev().collect();
        let mut job = SortJob::with_grain(first.clone(), NativeAllocation::Deterministic, 2, 4);
        job.run();
        let mut out = Vec::new();
        job.sorted_into(&mut out);
        let mut expect = first;
        expect.sort();
        assert_eq!(out, expect);

        // Recycle for a different shape (longer input, new grain and
        // allocation) and sort again through the same storage.
        let second: Vec<i64> = (0..450).map(|i| (i * 7) % 113).collect();
        job.recycle_from_slice(&second, NativeAllocation::Randomized, 3, 16);
        assert!(!job.is_complete());
        assert_eq!(job.len(), 450);
        assert_eq!(job.grain(), 16);
        job.run();
        job.sorted_into(&mut out);
        let mut expect = second;
        expect.sort();
        assert_eq!(out, expect);

        // And once more for a shorter input.
        let third: Vec<i64> = vec![9, 3, 7, 1];
        job.recycle_from_slice(&third, NativeAllocation::Deterministic, 1, 1);
        job.run();
        job.sorted_into(&mut out);
        assert_eq!(out, vec![1, 3, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "at least two keys")]
    fn rejects_tiny_input() {
        SortJob::new(vec![1]);
    }

    #[test]
    #[should_panic(expected = "sort not complete")]
    fn permutation_before_completion_panics() {
        let job = SortJob::new(vec![2, 1]);
        job.permutation();
    }
}
