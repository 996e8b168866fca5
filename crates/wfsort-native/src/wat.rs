//! The Work Assignment Tree on native atomics.
//!
//! Same structure and algorithm as the simulator's [`wat`] crate (Figure
//! 1 of the paper / Algorithm X of Buss et al.), but each node is an
//! `AtomicUsize` and `next_element` is an ordinary function a thread runs
//! to completion — it is wait-free, so running it inline is fine.
//!
//! # Grain
//!
//! A leaf may cover a *block* of consecutive items rather than a single
//! one ([`AtomicWat::with_grain`]): the tree then has `ceil(items /
//! grain)` leaves, shrinking the structure — and the claim/climb traffic
//! through it — by the grain factor, the binary-forking-model lever that
//! turns optimal span into optimal wall-clock (PAPERS.md). Executing a
//! block is a loop of single-item executions, so the idempotent-leaf
//! contract is untouched: a crashed participant leaves a partially-run
//! block's leaf unmarked and survivors simply redo the whole block.
//! `with_grain(items, 1)` is bit-identical to `new(items)` — same tree,
//! same assignment order, same checkpoint cadence.
//!
//! [`wat`]: https://crates.io/crates/wat

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::job::NativeAllocation;
use crate::lcwat::AtomicLcWat;
use crate::metrics::{Instrument, NoInstrument};

const NOT_DONE: usize = 0;
const DONE: usize = 1;

/// Outcome of asking the WAT for more work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assignment {
    /// Run this job (a leaf's block of items). The job may already have
    /// been executed by another thread — leaf work must be idempotent.
    Job(usize),
    /// An internal bookkeeping node was claimed; call
    /// [`AtomicWat::next_after`] again with it after "completing" it
    /// (no user work attached).
    Internal(usize),
    /// Every job is complete.
    AllDone,
}

/// A wait-free work-assignment tree over `items` items for native
/// threads, handing out blocks of `grain` consecutive items per leaf.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use wfsort_native::AtomicWat;
///
/// let wat = AtomicWat::new(100);
/// let done: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
/// std::thread::scope(|s| {
///     for t in 0..4 {
///         let (wat, done) = (&wat, &done);
///         s.spawn(move || {
///             wat.participate(t, 4, |item| {
///                 done[item].fetch_add(1, Ordering::Relaxed);
///             }, || true);
///         });
///     }
/// });
/// assert!(wat.all_done());
/// assert!(done.iter().all(|c| c.load(Ordering::Relaxed) >= 1));
/// ```
#[derive(Debug)]
pub struct AtomicWat {
    nodes: Vec<AtomicUsize>,
    leaves: usize,
    jobs: usize,
    items: usize,
    grain: usize,
}

/// `ceil(items / grain)` leaf jobs cover `items` items.
fn job_count(items: usize, grain: usize) -> usize {
    items.div_ceil(grain)
}

impl AtomicWat {
    /// Creates a WAT with one item per leaf — [`AtomicWat::with_grain`]
    /// at grain 1 (leaf count rounded up to a power of two; padding
    /// leaves carry no work).
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero.
    pub fn new(items: usize) -> Self {
        Self::with_grain(items, 1)
    }

    /// Creates a WAT covering `items` items with `grain` items per leaf
    /// block (the last block may be short).
    ///
    /// # Panics
    ///
    /// Panics if `items` or `grain` is zero.
    pub fn with_grain(items: usize, grain: usize) -> Self {
        assert!(items > 0, "a WAT needs at least one job");
        assert!(grain > 0, "a WAT block needs at least one item");
        let jobs = job_count(items, grain);
        let leaves = jobs.next_power_of_two();
        AtomicWat {
            nodes: (0..2 * leaves)
                .map(|_| AtomicUsize::new(NOT_DONE))
                .collect(),
            leaves,
            jobs,
            items,
            grain,
        }
    }

    /// Number of real jobs (leaf blocks).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Number of items covered (`jobs * grain`, minus the short tail).
    pub fn items(&self) -> usize {
        self.items
    }

    /// Items per leaf block.
    pub fn grain(&self) -> usize {
        self.grain
    }

    /// Resizes to cover `items` items at `grain`, zeroing all node
    /// states and reusing the node vector's allocation. Requires
    /// exclusive access — the arena calls it between sorts.
    ///
    /// # Panics
    ///
    /// Panics if `items` or `grain` is zero.
    pub(crate) fn reset(&mut self, items: usize, grain: usize) {
        assert!(items > 0, "a WAT needs at least one job");
        assert!(grain > 0, "a WAT block needs at least one item");
        self.jobs = job_count(items, grain);
        self.items = items;
        self.grain = grain;
        self.leaves = self.jobs.next_power_of_two();
        let wanted = 2 * self.leaves;
        self.nodes.truncate(wanted);
        for node in &mut self.nodes {
            *node.get_mut() = NOT_DONE;
        }
        self.nodes
            .resize_with(wanted, || AtomicUsize::new(NOT_DONE));
    }

    /// The starting node for thread `tid` of `nthreads` (Figure 2's
    /// `leaf number N * PID / P`).
    pub fn initial_node(&self, tid: usize, nthreads: usize) -> usize {
        debug_assert!(nthreads > 0);
        self.leaves + (self.leaves * tid / nthreads)
    }

    /// The job at `node`, if `node` is a leaf carrying real work.
    pub fn job_at(&self, node: usize) -> Option<usize> {
        if node >= self.leaves && node - self.leaves < self.jobs {
            Some(node - self.leaves)
        } else {
            None
        }
    }

    /// The item range job `job` covers: `grain` consecutive items,
    /// fewer for the last block.
    pub fn block_range(&self, job: usize) -> std::ops::Range<usize> {
        let start = job * self.grain;
        start..((start + self.grain).min(self.items))
    }

    /// Whether all jobs are complete.
    pub fn all_done(&self) -> bool {
        self.nodes[1].load(Ordering::Acquire) == DONE
    }

    /// Number of jobs whose leaves are marked complete — the progress
    /// frontier a watchdog reads. `O(jobs)`: diagnostics only, not for
    /// the sort's hot path.
    pub fn done_jobs(&self) -> usize {
        if self.all_done() {
            return self.jobs;
        }
        (0..self.jobs)
            .filter(|j| self.nodes[self.leaves + j].load(Ordering::Acquire) == DONE)
            .count()
    }

    /// Marks `node` complete and finds the next assignment: the
    /// `next_element` routine of Figure 1. Wait-free: `O(log jobs)`
    /// atomic operations per call.
    pub fn next_after(&self, mut node: usize) -> Assignment {
        self.nodes[node].store(DONE, Ordering::Release);
        // Climb while the sibling subtree is complete.
        loop {
            if node == 1 {
                return Assignment::AllDone;
            }
            let sibling = node ^ 1;
            if self.nodes[sibling].load(Ordering::Acquire) == DONE {
                let parent = node / 2;
                self.nodes[parent].store(DONE, Ordering::Release);
                node = parent;
            } else {
                node = sibling;
                break;
            }
        }
        // Descend into the unfinished subtree.
        while node < self.leaves {
            let left = 2 * node;
            let right = 2 * node + 1;
            if self.nodes[left].load(Ordering::Acquire) != DONE {
                node = left;
            } else if self.nodes[right].load(Ordering::Acquire) != DONE {
                node = right;
            } else {
                // Outdated info: both children done, node not yet marked.
                return Assignment::Internal(node);
            }
        }
        match self.job_at(node) {
            Some(job) => Assignment::Job(job),
            None => Assignment::Internal(node), // padding leaf: mark & move on
        }
    }

    /// Runs the items of block `job`, consulting `keep_going` between
    /// items (so a block is still bounded work per checkpoint at any
    /// grain). Returns `false` if abandoned mid-block — the caller must
    /// then *not* mark the leaf, leaving the whole block for survivors
    /// (idempotent redo).
    fn run_block(
        &self,
        job: usize,
        work: &mut impl FnMut(usize),
        keep_going: &mut impl FnMut() -> bool,
        ins: &impl Instrument,
    ) -> bool {
        ins.block_claim();
        let range = self.block_range(job);
        let start = range.start;
        for item in range {
            if item > start && !keep_going() {
                return false;
            }
            ins.claim();
            work(item);
        }
        true
    }

    /// Runs `work(item)` for every item, as one participant: the skeleton
    /// algorithm of Figure 2. Safe to call from any number of threads;
    /// returns when all jobs are complete. `keep_going()` is consulted
    /// between assignments and between a block's items — returning
    /// `false` abandons participation (simulating a crash; other
    /// participants finish the work).
    pub fn participate(
        &self,
        tid: usize,
        nthreads: usize,
        work: impl FnMut(usize),
        keep_going: impl FnMut() -> bool,
    ) {
        self.participate_with(tid, nthreads, work, keep_going, &NoInstrument);
    }

    /// [`AtomicWat::participate`] with a metrics sink: `ins` sees one
    /// `block_claim` per leaf block entered, one `claim` per item
    /// executed (so item-level counts stay grain-independent), one
    /// `probe` per bookkeeping step (internal hop or padding leaf), and
    /// `own_assignment_done` once the thread's initial Figure-2
    /// assignment is behind it — everything after that is helping.
    pub(crate) fn participate_with(
        &self,
        tid: usize,
        nthreads: usize,
        mut work: impl FnMut(usize),
        mut keep_going: impl FnMut() -> bool,
        ins: &impl Instrument,
    ) {
        let mut node = self.initial_node(tid, nthreads);
        if let Some(job) = self.job_at(node) {
            if !self.run_block(job, &mut work, &mut keep_going, ins) {
                return;
            }
        }
        ins.own_assignment_done();
        loop {
            if !keep_going() {
                return;
            }
            match self.next_after(node) {
                Assignment::AllDone => return,
                Assignment::Job(job) => {
                    if !self.run_block(job, &mut work, &mut keep_going, ins) {
                        return;
                    }
                    node = self.leaves + job;
                }
                Assignment::Internal(n) => {
                    ins.probe();
                    node = n;
                }
            }
        }
    }
}

/// One phase's work-assignment tree in the flavor a job's
/// [`NativeAllocation`] selects: the deterministic WAT of Figure 2 or
/// the randomized LC-WAT of Figure 8. Every job phase holds exactly one
/// of these, and this is the only place that maps an allocation onto a
/// tree.
#[derive(Debug)]
pub(crate) enum PhaseWat {
    Deterministic(AtomicWat),
    Randomized(AtomicLcWat),
}

impl PhaseWat {
    /// A tree of the `allocation` flavor over `items` items, `grain`
    /// items per leaf block.
    pub(crate) fn new(allocation: NativeAllocation, items: usize, grain: usize) -> Self {
        match allocation {
            NativeAllocation::Deterministic => {
                PhaseWat::Deterministic(AtomicWat::with_grain(items, grain))
            }
            NativeAllocation::Randomized => {
                PhaseWat::Randomized(AtomicLcWat::with_grain(items, grain))
            }
        }
    }

    /// Readies the tree for a fresh run: resets it in place when it
    /// already has the `allocation` flavor, rebuilds it otherwise.
    /// Requires exclusive access, like the flavors' own `reset`.
    pub(crate) fn reset(&mut self, allocation: NativeAllocation, items: usize, grain: usize) {
        match self {
            PhaseWat::Deterministic(wat) if allocation == NativeAllocation::Deterministic => {
                wat.reset(items, grain)
            }
            PhaseWat::Randomized(wat) if allocation == NativeAllocation::Randomized => {
                wat.reset(items, grain)
            }
            _ => *self = PhaseWat::new(allocation, items, grain),
        }
    }

    /// Runs `work(item)` for every item as participant `tid` of a
    /// nominal `nthreads` cohort; the LC-WAT seeds its probe sequence
    /// with `tid` and ignores `nthreads`.
    pub(crate) fn participate_with(
        &self,
        tid: usize,
        nthreads: usize,
        work: impl FnMut(usize),
        keep_going: impl FnMut() -> bool,
        ins: &impl Instrument,
    ) {
        match self {
            PhaseWat::Deterministic(wat) => {
                wat.participate_with(tid, nthreads, work, keep_going, ins)
            }
            PhaseWat::Randomized(wat) => wat.participate_with(tid as u64, work, keep_going, ins),
        }
    }

    /// Whether all jobs are complete.
    pub(crate) fn all_done(&self) -> bool {
        match self {
            PhaseWat::Deterministic(wat) => wat.all_done(),
            PhaseWat::Randomized(wat) => wat.all_done(),
        }
    }

    /// Jobs whose leaves are marked complete (diagnostics only).
    pub(crate) fn done_jobs(&self) -> usize {
        match self {
            PhaseWat::Deterministic(wat) => wat.done_jobs(),
            PhaseWat::Randomized(wat) => wat.done_jobs(),
        }
    }

    /// Number of real jobs (leaf blocks).
    pub(crate) fn jobs(&self) -> usize {
        match self {
            PhaseWat::Deterministic(wat) => wat.jobs(),
            PhaseWat::Randomized(wat) => wat.jobs(),
        }
    }

    /// Items per leaf block.
    pub(crate) fn grain(&self) -> usize {
        match self {
            PhaseWat::Deterministic(wat) => wat.grain(),
            PhaseWat::Randomized(wat) => wat.grain(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as Counter;

    #[test]
    fn single_thread_covers_all_jobs() {
        let wat = AtomicWat::new(13);
        let counts: Vec<Counter> = (0..13).map(|_| Counter::new(0)).collect();
        wat.participate(
            0,
            1,
            |j| {
                counts[j].fetch_add(1, Ordering::Relaxed);
            },
            || true,
        );
        assert!(wat.all_done());
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) >= 1));
    }

    #[test]
    fn many_threads_cover_all_jobs() {
        let wat = AtomicWat::new(100);
        let counts: Vec<Counter> = (0..100).map(|_| Counter::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..8 {
                let wat = &wat;
                let counts = &counts;
                s.spawn(move || {
                    wat.participate(
                        t,
                        8,
                        |j| {
                            counts[j].fetch_add(1, Ordering::Relaxed);
                        },
                        || true,
                    );
                });
            }
        });
        assert!(wat.all_done());
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) >= 1));
    }

    #[test]
    fn deserters_do_not_lose_work() {
        let wat = AtomicWat::new(64);
        let counts: Vec<Counter> = (0..64).map(|_| Counter::new(0)).collect();
        std::thread::scope(|s| {
            // Threads 1..6 quit after 3 assignments; thread 0 persists.
            for t in 1..6 {
                let wat = &wat;
                let counts = &counts;
                s.spawn(move || {
                    let mut budget = 3;
                    wat.participate(
                        t,
                        6,
                        |j| {
                            counts[j].fetch_add(1, Ordering::Relaxed);
                        },
                        move || {
                            budget -= 1;
                            budget > 0
                        },
                    );
                });
            }
            let wat = &wat;
            let counts = &counts;
            s.spawn(move || {
                wat.participate(
                    0,
                    6,
                    |j| {
                        counts[j].fetch_add(1, Ordering::Relaxed);
                    },
                    || true,
                );
            });
        });
        assert!(wat.all_done());
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) >= 1));
    }

    #[test]
    fn initial_nodes_spread_threads() {
        let wat = AtomicWat::new(16);
        let n0 = wat.initial_node(0, 4);
        let n1 = wat.initial_node(1, 4);
        let n3 = wat.initial_node(3, 4);
        assert_eq!(n0, 16);
        assert_eq!(n1, 20);
        assert_eq!(n3, 28);
    }

    #[test]
    fn job_at_excludes_padding() {
        let wat = AtomicWat::new(5); // 8 leaves, 3 padding
        assert_eq!(wat.job_at(8), Some(0));
        assert_eq!(wat.job_at(12), Some(4));
        assert_eq!(wat.job_at(13), None);
        assert_eq!(wat.job_at(1), None);
    }

    #[test]
    fn grain_shrinks_the_tree() {
        let wat = AtomicWat::with_grain(100, 8);
        assert_eq!(wat.jobs(), 13);
        assert_eq!(wat.items(), 100);
        assert_eq!(wat.grain(), 8);
        assert_eq!(wat.block_range(0), 0..8);
        assert_eq!(wat.block_range(12), 96..100, "tail block is short");
    }

    #[test]
    fn grained_single_thread_covers_all_items_in_order() {
        for grain in [1, 2, 7, 64] {
            let wat = AtomicWat::with_grain(100, grain);
            let mut seen = Vec::new();
            wat.participate(0, 1, |item| seen.push(item), || true);
            assert!(wat.all_done());
            // A lone worker starting at the leftmost leaf sweeps blocks
            // left to right, so items arrive in 0..items order at every
            // grain — the property the descent-order parity pins rely on.
            assert_eq!(seen, (0..100).collect::<Vec<_>>(), "grain {grain}");
        }
    }

    #[test]
    fn grained_many_threads_cover_all_items() {
        let wat = AtomicWat::with_grain(257, 16);
        let counts: Vec<Counter> = (0..257).map(|_| Counter::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..8 {
                let (wat, counts) = (&wat, &counts);
                s.spawn(move || {
                    wat.participate(
                        t,
                        8,
                        |item| {
                            counts[item].fetch_add(1, Ordering::Relaxed);
                        },
                        || true,
                    );
                });
            }
        });
        assert!(wat.all_done());
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) >= 1));
    }

    #[test]
    fn mid_block_deserter_leaves_block_for_survivors() {
        let wat = AtomicWat::with_grain(32, 8);
        let counts: Vec<Counter> = (0..32).map(|_| Counter::new(0)).collect();
        // Abandon after 3 checks: mid-block, leaving the leaf unmarked.
        let mut budget = 3;
        wat.participate(
            0,
            1,
            |item| {
                counts[item].fetch_add(1, Ordering::Relaxed);
            },
            move || {
                budget -= 1;
                budget > 0
            },
        );
        assert!(!wat.all_done());
        // A survivor redoes the partial block and finishes everything.
        wat.participate(
            0,
            1,
            |item| {
                counts[item].fetch_add(1, Ordering::Relaxed);
            },
            || true,
        );
        assert!(wat.all_done());
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) >= 1));
    }

    #[test]
    fn reset_reuses_nodes_for_new_shape() {
        let mut wat = AtomicWat::with_grain(64, 4);
        wat.participate(0, 1, |_| {}, || true);
        assert!(wat.all_done());
        wat.reset(40, 8);
        assert!(!wat.all_done());
        assert_eq!(wat.jobs(), 5);
        assert_eq!(wat.grain(), 8);
        let counts: Vec<Counter> = (0..40).map(|_| Counter::new(0)).collect();
        wat.participate(
            0,
            1,
            |item| {
                counts[item].fetch_add(1, Ordering::Relaxed);
            },
            || true,
        );
        assert!(wat.all_done());
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) >= 1));
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn zero_jobs_rejected() {
        AtomicWat::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_grain_rejected() {
        AtomicWat::with_grain(5, 0);
    }
}
