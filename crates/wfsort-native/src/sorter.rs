//! High-level sorting front-ends over [`SortJob`].
//!
//! Every named `sort_*` entry point on [`WaitFreeSorter`] is a thin
//! wrapper over one configurable pipeline: a [`SortOptions`] builder
//! (threads, allocation, shards, grain, chaos plan, deadline, telemetry)
//! whose [`SortOptions::run`] drives a single cohort spawn/finish path
//! for both the single-tree and sharded jobs. The wrappers exist so no
//! caller breaks and so each scenario keeps its documented contract; new
//! combinations (say, a sharded sort under a deadline with a report)
//! need no new method — compose them on the builder.
//!
//! The one front-end that does not flow through the builder is
//! [`sort_with_churn`]: its reap-then-respawn choreography spawns a
//! *second* cohort mid-run, a staged schedule the one-shot builder
//! deliberately does not model.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::arena::SortArena;
use crate::fault::{ChaosParticipation, ChaosPlan, SharedBudget, WithDeadline};
use crate::job::{recommended_grain, NativeAllocation, Participation, RunToCompletion, SortJob};
use crate::metrics::{MetricSlot, ShardReport, SortReport};
use crate::shard::{recommended_shards, ShardConfig, ShardedSortJob};

/// A multi-threaded wait-free sorter.
///
/// # Examples
///
/// ```
/// use wfsort_native::WaitFreeSorter;
///
/// let sorter = WaitFreeSorter::new(4);
/// assert_eq!(sorter.sort(&[3u64, 1, 2]), vec![1, 2, 3]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WaitFreeSorter {
    threads: usize,
}

/// How many shards [`SortOptions::run`] splits the input into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShardMode {
    /// One pivot tree over the whole input (the default).
    SingleTree,
    /// The sharded path with [`recommended_shards`] shards.
    Auto,
    /// The sharded path with an explicit shard count (>= 1).
    Count(usize),
}

/// One builder for every way this crate can run a sort: thread count,
/// allocation strategy, shard mode, WAT grain, a scripted [`ChaosPlan`],
/// a helper deadline, and telemetry — all driving the same cohort
/// spawn/finish path. The named [`WaitFreeSorter`] front-ends are thin
/// wrappers over this type.
///
/// Unlike the raw job constructors, the builder is total over its
/// inputs: inputs shorter than two keys fall back to a sequential copy
/// (there is nothing to parallelize), and a shard count of zero means
/// "pick [`recommended_shards`] for me" — no degenerate combination
/// panics.
///
/// # Examples
///
/// ```
/// use wfsort_native::SortOptions;
///
/// let keys: Vec<u64> = (0..10_000).rev().collect();
/// let outcome = SortOptions::new()
///     .threads(4)
///     .shards(16)
///     .report(true)
///     .run(&keys);
/// assert!(outcome.sorted.windows(2).all(|w| w[0] <= w[1]));
/// assert_eq!(outcome.report.unwrap().shard.unwrap().shards, 16);
///
/// // Degenerate inputs that panic the raw job constructors sort fine
/// // through the builder: tiny inputs fall back to a sequential copy,
/// // and `shards(0)` means "choose for me".
/// let tiny = SortOptions::new().threads(2).shards(0).run(&[7u64]);
/// assert_eq!(tiny.sorted, vec![7]);
/// ```
#[derive(Clone, Debug)]
pub struct SortOptions {
    threads: usize,
    allocation: NativeAllocation,
    shards: ShardMode,
    shard_config: ShardConfig,
    grain: Option<usize>,
    plan: Option<ChaosPlan>,
    deadline: Option<Duration>,
    report: bool,
}

/// What [`SortOptions::run`] produced: the sorted keys, the sorting
/// permutation, and — when requested via [`SortOptions::report`] — the
/// aggregated telemetry.
#[derive(Clone, Debug)]
pub struct SortOutcome<K> {
    /// The keys in sorted order (stable: ties keep input order).
    pub sorted: Vec<K>,
    /// The 1-based sorting permutation: `permutation[r]` is the input
    /// position of the rank-`r` key, as [`SortJob::permutation`] reports
    /// it. Empty input yields an empty permutation.
    pub permutation: Vec<usize>,
    /// Aggregated telemetry when [`SortOptions::report`] was enabled
    /// (empty for inputs shorter than two keys), `None` otherwise.
    pub report: Option<SortReport>,
}

impl Default for SortOptions {
    fn default() -> Self {
        SortOptions::new()
    }
}

impl SortOptions {
    /// Defaults: [`std::thread::available_parallelism`] threads,
    /// deterministic allocation, single pivot tree, recommended grain,
    /// no chaos plan, no deadline, no report.
    pub fn new() -> Self {
        SortOptions {
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            allocation: NativeAllocation::Deterministic,
            shards: ShardMode::SingleTree,
            shard_config: ShardConfig::default(),
            grain: None,
            plan: None,
            deadline: None,
            report: false,
        }
    }

    /// Sets the worker thread count (ignored while a [`ChaosPlan`] is
    /// set — the plan's worker count sizes the cohort, matching
    /// [`WaitFreeSorter::sort_with_plan`]).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Sets the work-allocation strategy (deterministic WAT descent or
    /// randomized LC-WAT probing).
    pub fn allocation(mut self, allocation: NativeAllocation) -> Self {
        self.allocation = allocation;
        self
    }

    /// Routes the sort through the sharded large-N path with `shards`
    /// shards; `0` selects [`recommended_shards`]. The sharded path
    /// computes exactly the permutation the single-tree path does.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = match shards {
            0 => ShardMode::Auto,
            s => ShardMode::Count(s),
        };
        self
    }

    /// Routes the sort through the single pivot tree (the default),
    /// undoing [`SortOptions::shards`].
    pub fn single_tree(mut self) -> Self {
        self.shards = ShardMode::SingleTree;
        self
    }

    /// Sets the sharded path's overpartition factor `k`: the splitter
    /// sampler targets `k·S` distinct splitters so up to `2kS + 1`
    /// range/equality buckets feed the greedy shard assignment. `0`
    /// restores the default (8). Ignored by the single-tree path.
    pub fn overpartition_factor(mut self, factor: usize) -> Self {
        self.shard_config.overpartition_factor = factor;
        self
    }

    /// Sets the sharded path's balance target τ: equality buckets are
    /// chunked so greedy assignment keeps
    /// [`ShardReport::imbalance`] at or under τ whenever no single
    /// range bucket exceeds `(τ-1)·n/S` elements. Non-finite or ≤ 1.0
    /// values restore the default 2.0. Ignored by the single-tree path.
    pub fn max_shard_imbalance(mut self, tau: f64) -> Self {
        self.shard_config.max_shard_imbalance = tau;
        self
    }

    /// Sets the sharding recursion depth: `1` (the default) pivot-sorts
    /// every range bucket, `2` re-shards oversized range buckets one
    /// level down. `0` restores the default. Ignored by the single-tree
    /// path.
    pub fn max_levels(mut self, levels: usize) -> Self {
        self.shard_config.max_levels = levels;
        self
    }

    /// The [`ShardConfig`] the sharded path will run under (normalized,
    /// so degenerate knob values read back as their effective defaults).
    pub fn shard_config(&self) -> ShardConfig {
        self.shard_config.normalized()
    }

    /// Sets the WAT grain (elements per work-assignment block) for the
    /// single-tree path; `0` restores [`recommended_grain`]. The sharded
    /// path sizes its own grains and ignores this.
    pub fn grain(mut self, grain: usize) -> Self {
        self.grain = if grain == 0 { None } else { Some(grain) };
        self
    }

    /// Drives the cohort with a scripted adversary: one worker per plan
    /// slot, each replaying its deterministic fault script. If the plan
    /// crashes every worker the calling thread finishes the job alone
    /// (wait-freedom makes the abandoned structures always completable).
    pub fn plan(mut self, plan: ChaosPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Bounds helper occupancy by a wall-clock deadline: helpers abandon
    /// once it passes while the calling thread joins the cohort and runs
    /// to completion, alone past the deadline if need be. The result is
    /// always the correct sort — the deadline bounds *helper occupancy*,
    /// never correctness.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether to collect per-phase / per-worker telemetry into
    /// [`SortOutcome::report`].
    pub fn report(mut self, report: bool) -> Self {
        self.report = report;
        self
    }

    /// Heartbeat slots: one per cohort member, counting the caller when
    /// a plan or deadline puts it in the cohort.
    fn tracked_slots(&self) -> usize {
        match &self.plan {
            Some(plan) => plan.workers() + 1,
            None => self.threads,
        }
    }

    fn effective_shards(&self, n: usize) -> Option<usize> {
        match self.shards {
            ShardMode::SingleTree => None,
            ShardMode::Auto => Some(recommended_shards(n, self.threads)),
            ShardMode::Count(s) => Some(s),
        }
    }

    /// Sorts `keys` under this configuration. Never panics on degenerate
    /// inputs: fewer than two keys are copied through sequentially.
    pub fn run<K: Ord + Clone + Send + Sync>(&self, keys: &[K]) -> SortOutcome<K> {
        let n = keys.len();
        if n < 2 {
            return SortOutcome {
                sorted: keys.to_vec(),
                permutation: (1..=n).collect(),
                report: self.report.then(SortReport::empty),
            };
        }
        let tracked = self.tracked_slots();
        match self.effective_shards(n) {
            Some(shards) => {
                let job = ShardedSortJob::with_config(
                    keys.to_vec(),
                    self.allocation,
                    tracked,
                    shards,
                    self.shard_config,
                );
                let report = self.drive(&job);
                Self::outcome(keys, &job, report)
            }
            None => {
                let grain = self
                    .grain
                    .unwrap_or_else(|| recommended_grain(n, self.threads));
                let job = SortJob::with_grain(keys.to_vec(), self.allocation, tracked, grain);
                let report = self.drive(&job);
                Self::outcome(keys, &job, report)
            }
        }
    }

    /// [`SortOptions::run`] through a reusable [`SortArena`]: recycles
    /// the arena's retained storage, sorts into `out`, and returns the
    /// telemetry when [`SortOptions::report`] is enabled. The arena path
    /// is single-tree; the shard mode is ignored here. Inputs shorter
    /// than two keys are copied through without touching the arena.
    pub fn run_into<K: Ord + Clone + Send + Sync>(
        &self,
        keys: &[K],
        arena: &mut SortArena<K>,
        out: &mut Vec<K>,
    ) -> Option<SortReport> {
        if keys.len() < 2 {
            out.clear();
            out.extend_from_slice(keys);
            return self.report.then(SortReport::empty);
        }
        let grain = self
            .grain
            .unwrap_or_else(|| recommended_grain(keys.len(), self.threads));
        let job = arena.prepare(keys, self.allocation, self.tracked_slots(), grain);
        let report = self.drive(job);
        job.sorted_into(out);
        report
    }

    fn outcome<K: Ord + Clone>(
        keys: &[K],
        job: &dyn CohortJob<K>,
        report: Option<SortReport>,
    ) -> SortOutcome<K> {
        let permutation = job.permutation();
        let sorted = permutation.iter().map(|&e| keys[e - 1].clone()).collect();
        SortOutcome {
            sorted,
            permutation,
            report,
        }
    }

    /// The single cohort path every front-end funnels into: spawns the
    /// configured participants, runs the caller in whatever role the
    /// configuration implies (deadline-exempt finisher, survivor of last
    /// resort, or bystander), and leaves `job` complete.
    fn drive<K: Ord + Send + Sync>(&self, job: &dyn CohortJob<K>) -> Option<SortReport> {
        let start = Instant::now();
        let until = self.deadline.map(|d| Instant::now() + d);
        let plan = self.plan.as_ref();
        let helpers = match plan {
            // The plan's worker count sizes the cohort.
            Some(p) => p.workers(),
            // Helpers obey the deadline; the caller is the deadline-
            // exempt finisher.
            None if until.is_some() => self.threads - 1,
            None => self.threads,
        };
        // With a deadline the caller participates concurrently (it must
        // finish what reaped helpers abandon); with only a plan it is the
        // survivor of last resort, joining after the cohort returns and
        // only if the plan crashed everyone.
        let caller_concurrent = until.is_some();
        let caller_fallback = plan.is_some() && until.is_none();
        let cohort = helpers + (caller_concurrent || caller_fallback) as usize;
        let mut slots: Vec<MetricSlot> = if self.report {
            (0..cohort).map(|_| MetricSlot::new()).collect()
        } else {
            Vec::new()
        };

        if cohort == 1 && plan.is_none() && !self.report && !caller_concurrent {
            // Single-threaded plain sort: no spawn.
            job.participate_dyn(&mut RunToCompletion);
        } else {
            let (helper_slots, caller_slot) = if self.report {
                let (h, c) = slots.split_at_mut(helpers);
                (h, c.first_mut())
            } else {
                (&mut [][..], None)
            };
            let mut caller_slot = caller_slot;
            std::thread::scope(|s| {
                let mut helper_slots = helper_slots.iter_mut();
                for w in 0..helpers {
                    let slot = helper_slots.next();
                    s.spawn(move || {
                        let mut p: Box<dyn Participation + Send + '_> = match (plan, until) {
                            (Some(plan), Some(until)) => {
                                Box::new(WithDeadline::new(ChaosParticipation::new(plan, w), until))
                            }
                            (Some(plan), None) => Box::new(ChaosParticipation::new(plan, w)),
                            (None, Some(until)) => {
                                Box::new(WithDeadline::new(RunToCompletion, until))
                            }
                            (None, None) => Box::new(RunToCompletion),
                        };
                        match slot {
                            Some(slot) => job.participate_instrumented_dyn(&mut *p, slot),
                            None => job.participate_dyn(&mut *p),
                        }
                    });
                }
                if caller_concurrent {
                    // The caller ignores the deadline: wait-freedom
                    // guarantees it can always finish what the helpers
                    // abandoned.
                    match caller_slot.take() {
                        Some(slot) => job.participate_instrumented_dyn(&mut RunToCompletion, slot),
                        None => job.participate_dyn(&mut RunToCompletion),
                    }
                }
            });
            if caller_fallback && !job.is_complete() {
                // Every scripted worker crashed: the caller is the
                // survivor of last resort.
                match caller_slot {
                    Some(slot) => job.participate_instrumented_dyn(&mut RunToCompletion, slot),
                    None => job.participate_dyn(&mut RunToCompletion),
                }
            }
        }
        debug_assert!(job.is_complete());
        self.report.then(|| {
            let mut report = SortReport::aggregate(
                slots.iter().map(|s| s.snapshot()).collect(),
                start.elapsed(),
            );
            report.shard = job.shard_report_opt();
            report
        })
    }
}

/// The cohort-facing surface the single-tree and sharded jobs share, so
/// [`SortOptions::drive`] serves both through one spawn/instrument path.
trait CohortJob<K: Ord>: Sync {
    fn participate_dyn(&self, p: &mut dyn Participation);
    fn participate_instrumented_dyn(&self, p: &mut dyn Participation, slot: &MetricSlot);
    fn is_complete(&self) -> bool;
    fn permutation(&self) -> Vec<usize>;
    fn shard_report_opt(&self) -> Option<ShardReport>;
}

impl<K: Ord + Send + Sync> CohortJob<K> for SortJob<K> {
    fn participate_dyn(&self, mut p: &mut dyn Participation) {
        self.participate(&mut p);
    }
    fn participate_instrumented_dyn(&self, mut p: &mut dyn Participation, slot: &MetricSlot) {
        self.participate_instrumented(&mut p, slot);
    }
    fn is_complete(&self) -> bool {
        SortJob::is_complete(self)
    }
    fn permutation(&self) -> Vec<usize> {
        SortJob::permutation(self)
    }
    fn shard_report_opt(&self) -> Option<ShardReport> {
        None
    }
}

impl<K: Ord + Clone + Send + Sync> CohortJob<K> for ShardedSortJob<K> {
    fn participate_dyn(&self, mut p: &mut dyn Participation) {
        self.participate(&mut p);
    }
    fn participate_instrumented_dyn(&self, mut p: &mut dyn Participation, slot: &MetricSlot) {
        self.participate_instrumented(&mut p, slot);
    }
    fn is_complete(&self) -> bool {
        ShardedSortJob::is_complete(self)
    }
    fn permutation(&self) -> Vec<usize> {
        ShardedSortJob::permutation(self)
    }
    fn shard_report_opt(&self) -> Option<ShardReport> {
        Some(self.shard_report())
    }
}

impl WaitFreeSorter {
    /// Creates a sorter that spawns `threads` worker threads per sort.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        WaitFreeSorter { threads }
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A [`SortOptions`] builder seeded with this sorter's thread count —
    /// the configurable pipeline every `sort_*` front-end below wraps.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfsort_native::WaitFreeSorter;
    ///
    /// let sorter = WaitFreeSorter::new(4);
    /// let outcome = sorter.options().report(true).run(&[3u64, 1, 2]);
    /// assert_eq!(outcome.sorted, vec![1, 2, 3]);
    /// assert!(outcome.report.is_some());
    /// ```
    pub fn options(&self) -> SortOptions {
        SortOptions::new().threads(self.threads)
    }

    /// Runs `job` to completion on this sorter's thread count (inline
    /// when single-threaded, scoped workers otherwise). Public so
    /// callers that build their own jobs — explicit grains or arena
    /// recycling — can still use the sorter's cohort management.
    pub fn run_job<K: Ord + Send + Sync>(&self, job: &SortJob<K>) {
        self.options().drive(job);
    }

    /// Runs `job` to completion with one telemetry slot per worker and
    /// returns the aggregated [`SortReport`]. The job may use either
    /// allocation strategy and may have been partially sorted already;
    /// the report covers only what this cohort did.
    pub fn run_job_with_report<K: Ord + Send + Sync>(&self, job: &SortJob<K>) -> SortReport {
        let mut report = self
            .options()
            .report(true)
            .drive(job)
            .expect("report requested");
        report.shard = None;
        report
    }

    /// Runs a [`ShardedSortJob`] to completion on this sorter's thread
    /// count, like [`WaitFreeSorter::run_job`] for the single-tree path.
    pub fn run_sharded_job<K: Ord + Clone + Send + Sync>(&self, job: &ShardedSortJob<K>) {
        self.options().drive(job);
    }

    /// Sorts `keys` into a new vector.
    pub fn sort<K: Ord + Clone + Send + Sync>(&self, keys: &[K]) -> Vec<K> {
        self.options().run(keys).sorted
    }

    /// Sorts `keys` into `out` through a reusable [`SortArena`]: after
    /// the arena's first (allocating) sort, repeated calls reset the
    /// retained tree cells, WAT nodes, permutation, and heartbeat slots
    /// in place instead of reallocating them — the hot path for callers
    /// that sort many same-shaped batches. `out` is cleared and refilled;
    /// its capacity is reused too. Inputs shorter than two keys are
    /// copied through without touching the arena.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfsort_native::{SortArena, WaitFreeSorter};
    ///
    /// let sorter = WaitFreeSorter::new(2);
    /// let mut arena = SortArena::new();
    /// let mut out = Vec::new();
    /// sorter.sort_into(&[3u64, 1, 2], &mut arena, &mut out);
    /// assert_eq!(out, vec![1, 2, 3]);
    /// sorter.sort_into(&[9u64, 5, 7, 6], &mut arena, &mut out);
    /// assert_eq!(out, vec![5, 6, 7, 9]);
    /// ```
    pub fn sort_into<K: Ord + Clone + Send + Sync>(
        &self,
        keys: &[K],
        arena: &mut SortArena<K>,
        out: &mut Vec<K>,
    ) {
        self.options().run_into(keys, arena, out);
    }

    /// Sorts `keys` and reports what the workers did: per-phase operation
    /// counts, per-worker breakdowns, wall-clock time, and the
    /// CAS-failure rate (the native contention proxy — see DESIGN.md §9).
    /// Inputs shorter than two keys return unchanged with an empty
    /// report.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfsort_native::WaitFreeSorter;
    ///
    /// let keys: Vec<u64> = (0..1000).rev().collect();
    /// let (sorted, report) = WaitFreeSorter::new(4).sort_with_report(&keys);
    /// assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    /// assert!(report.per_phase.build.claims >= 999);
    /// assert!(report.cas_failure_rate <= 1.0);
    /// ```
    pub fn sort_with_report<K: Ord + Clone + Send + Sync>(
        &self,
        keys: &[K],
    ) -> (Vec<K>, SortReport) {
        let outcome = self.options().report(true).run(keys);
        (outcome.sorted, outcome.report.expect("report requested"))
    }

    /// Sorts `keys` through the sharded large-N path with
    /// [`recommended_shards`] shards: splitter partition, bucket fill,
    /// then one independent pivot-tree sort per shard (see
    /// [`ShardedSortJob`]). Produces exactly the same order as
    /// [`WaitFreeSorter::sort`]; the difference is contention and
    /// locality at large `n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfsort_native::WaitFreeSorter;
    ///
    /// let keys: Vec<u64> = (0..20_000).rev().collect();
    /// let sorted = WaitFreeSorter::new(4).sort_sharded(&keys);
    /// assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    /// ```
    pub fn sort_sharded<K: Ord + Clone + Send + Sync>(&self, keys: &[K]) -> Vec<K> {
        self.options().shards(0).run(keys).sorted
    }

    /// [`WaitFreeSorter::sort_sharded`] with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn sort_sharded_with<K: Ord + Clone + Send + Sync>(
        &self,
        keys: &[K],
        shards: usize,
    ) -> Vec<K> {
        assert!(shards >= 1, "a sharded job needs at least one shard");
        self.options().shards(shards).run(keys).sorted
    }

    /// Sorts `keys` through the sharded path and reports what the
    /// workers did. On top of the single-tree telemetry (the inner
    /// per-shard sorts land in the ordinary build/sum/place/scatter
    /// buckets), the report's `per_phase.partition` / `fill` /
    /// `shard_sort` counters cover the sharded phases, and
    /// [`SortReport::shard`] carries per-shard sizes and claim counts.
    /// Inputs shorter than two keys return unchanged with an empty
    /// report.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfsort_native::WaitFreeSorter;
    ///
    /// let keys: Vec<u64> = (0..20_000).rev().collect();
    /// let (sorted, report) = WaitFreeSorter::new(4).sort_sharded_with_report(&keys, 16);
    /// assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    /// let shard = report.shard.as_ref().unwrap();
    /// assert_eq!(shard.per_shard.iter().map(|s| s.size).sum::<usize>(), 20_000);
    /// assert!(report.per_phase.partition.claims >= 20_000);
    /// ```
    pub fn sort_sharded_with_report<K: Ord + Clone + Send + Sync>(
        &self,
        keys: &[K],
        shards: usize,
    ) -> (Vec<K>, SortReport) {
        assert!(shards >= 1, "a sharded job needs at least one shard");
        let outcome = self.options().shards(shards).report(true).run(keys);
        let mut report = outcome.report.expect("report requested");
        if keys.len() < 2 {
            report.shard = None;
        }
        (outcome.sorted, report)
    }

    /// Sorts through the sharded path under a scripted adversary, like
    /// [`WaitFreeSorter::sort_with_plan`]: one worker per [`ChaosPlan`]
    /// slot, each driven by its deterministic fault script; if the plan
    /// crashes every worker, the calling thread finishes alone. The
    /// fault story holds at shard granularity — a crashed worker's
    /// half-sorted shard is redone whole by a survivor.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfsort_native::{ChaosPlan, WaitFreeSorter};
    ///
    /// let keys: Vec<u64> = (0..2_000).rev().collect();
    /// let plan = ChaosPlan::random_crashes(4, 0.75, 100, 7);
    /// let sorted = WaitFreeSorter::new(4).sort_sharded_with_plan(&keys, &plan, 8);
    /// assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    /// ```
    pub fn sort_sharded_with_plan<K: Ord + Clone + Send + Sync>(
        &self,
        keys: &[K],
        plan: &ChaosPlan,
        shards: usize,
    ) -> Vec<K> {
        assert!(shards >= 1, "a sharded job needs at least one shard");
        self.options()
            .shards(shards)
            .plan(plan.clone())
            .run(keys)
            .sorted
    }

    /// Sorts `items` by the key `f` extracts, computing each key once and
    /// running the wait-free sort over the keys; payloads are gathered
    /// through the resulting permutation. Stable (ties keep input order).
    ///
    /// # Examples
    ///
    /// ```
    /// use wfsort_native::WaitFreeSorter;
    ///
    /// let words = vec!["ccc", "a", "bb"];
    /// let by_len = WaitFreeSorter::new(2).sort_by_cached_key(&words, |w| w.len());
    /// assert_eq!(by_len, vec!["a", "bb", "ccc"]);
    /// ```
    pub fn sort_by_cached_key<T, K, F>(&self, items: &[T], f: F) -> Vec<T>
    where
        T: Clone + Send + Sync,
        K: Ord + Clone + Send + Sync,
        F: Fn(&T) -> K,
    {
        if items.len() < 2 {
            return items.to_vec();
        }
        let keys: Vec<K> = items.iter().map(f).collect();
        self.options()
            .run(&keys)
            .permutation
            .into_iter()
            .map(|e| items[e - 1].clone())
            .collect()
    }

    /// Sorts while a saboteur kills all but one participant mid-run:
    /// workers `1..threads` abandon after `abandon_after · t`
    /// participation checks (worker `t` lives `t` times as long as the
    /// first casualty); the calling thread finishes whatever they
    /// abandoned. Returns the sorted keys — the point being that it
    /// *does* return, every time (wait-freedom).
    pub fn sort_with_casualties<K: Ord + Clone + Send + Sync>(
        &self,
        keys: &[K],
        abandon_after: usize,
    ) -> Vec<K> {
        if self.threads == 1 {
            return self.sort(keys);
        }
        let mut plan = ChaosPlan::new(self.threads - 1);
        for t in 1..self.threads {
            plan = plan.crash_at(t - 1, (abandon_after * t) as u64);
        }
        self.options().plan(plan).run(keys).sorted
    }

    /// Sorts under a scripted adversary: spawns one worker per
    /// [`ChaosPlan`] slot, each driven by its deterministic fault script
    /// (crashes, stalls, pauses, jitter). The plan's worker count
    /// overrides this sorter's thread count.
    ///
    /// Always returns the sorted keys: any crash-free worker runs to
    /// completion, and if the plan crashes *every* worker the calling
    /// thread finishes the job alone — wait-freedom means the abandoned
    /// data structures are always completable.
    ///
    /// Deterministic given `(keys, plan)`: the fault schedule is a pure
    /// function of the plan and its seed, and the output permutation is a
    /// pure function of the keys.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfsort_native::{ChaosPlan, WaitFreeSorter};
    ///
    /// let keys: Vec<u64> = (0..500).rev().collect();
    /// let plan = ChaosPlan::random_crashes(4, 0.75, 100, 7);
    /// let sorted = WaitFreeSorter::new(4).sort_with_plan(&keys, &plan);
    /// assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    /// ```
    pub fn sort_with_plan<K: Ord + Clone + Send + Sync>(
        &self,
        keys: &[K],
        plan: &ChaosPlan,
    ) -> Vec<K> {
        self.options().plan(plan.clone()).run(keys).sorted
    }

    /// Sorts with a helper deadline: `threads - 1` helper workers
    /// participate until `deadline` elapses and are then released (their
    /// processors are needed elsewhere — the paper's §1.1 scenario),
    /// while the calling thread runs to completion, alone past the
    /// deadline if need be. The result is always the correct sort; the
    /// deadline bounds *helper occupancy*, not correctness.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::Duration;
    /// use wfsort_native::WaitFreeSorter;
    ///
    /// let keys: Vec<u64> = (0..500).rev().collect();
    /// let sorted = WaitFreeSorter::new(4).sort_with_deadline(&keys, Duration::ZERO);
    /// assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    /// ```
    pub fn sort_with_deadline<K: Ord + Clone + Send + Sync>(
        &self,
        keys: &[K],
        deadline: Duration,
    ) -> Vec<K> {
        self.options().deadline(deadline).run(keys).sorted
    }

    /// [`WaitFreeSorter::sort_with_deadline`] with the helpers
    /// additionally driven by a [`ChaosPlan`]: each helper obeys its
    /// fault script *and* the deadline, whichever reaps it first. Even a
    /// plan that crashes every helper at checkpoint zero leaves a correct
    /// sort — the caller finishes alone.
    pub fn sort_with_deadline_under<K: Ord + Clone + Send + Sync>(
        &self,
        keys: &[K],
        deadline: Duration,
        plan: &ChaosPlan,
    ) -> Vec<K> {
        self.options()
            .deadline(deadline)
            .plan(plan.clone())
            .run(keys)
            .sorted
    }
}

impl Default for WaitFreeSorter {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        WaitFreeSorter::new(threads)
    }
}

/// Stops a participant when an external flag flips — the "reap this
/// thread, the processor is needed elsewhere" scenario of the paper's
/// introduction.
#[derive(Debug)]
pub struct UntilFlag<'a> {
    flag: &'a AtomicBool,
}

impl<'a> UntilFlag<'a> {
    /// Participates until `flag` becomes `true`.
    pub fn new(flag: &'a AtomicBool) -> Self {
        UntilFlag { flag }
    }
}

impl Participation for UntilFlag<'_> {
    fn keep_going(&mut self) -> bool {
        !self.flag.load(Ordering::Relaxed)
    }
}

/// Demonstrates oblivious thread churn: spawns `initial` workers, reaps
/// them all once they have collectively made `reap_after_checks`
/// participation checks (a [`SharedBudget`]), then spawns `replacements`
/// fresh workers that finish the job. The reap trigger counts work, not
/// wall time, so the churn point is the same on any machine. Returns the
/// sorted keys.
///
/// This is the one front-end that does not flow through [`SortOptions`]:
/// its second cohort joins mid-run, a staged schedule the one-shot
/// builder deliberately does not model.
pub fn sort_with_churn<K: Ord + Clone + Send + Sync>(
    keys: &[K],
    initial: usize,
    reap_after_checks: usize,
    replacements: usize,
) -> Vec<K> {
    if keys.len() < 2 {
        return keys.to_vec();
    }
    let job = SortJob::with_tracked(
        keys.to_vec(),
        NativeAllocation::Deterministic,
        initial.max(1) + replacements.max(1),
    );
    let checks = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..initial.max(1) {
            let (job, checks) = (&job, &checks);
            s.spawn(move || {
                job.participate(&mut SharedBudget::new(checks, reap_after_checks as u64));
            });
        }
        // Respawn once the initial cohort is being reaped (or finished
        // the whole job under budget — possible for small inputs).
        while checks.load(Ordering::Relaxed) < reap_after_checks as u64 && !job.is_complete() {
            std::thread::yield_now();
        }
        for _ in 0..replacements.max(1) {
            let job = &job;
            s.spawn(move || job.participate(&mut RunToCompletion));
        }
    });
    job.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::Prng;

    fn random_keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Prng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..1_000_000)).collect()
    }

    #[test]
    fn sorts_trivial_inputs() {
        let s = WaitFreeSorter::new(2);
        assert_eq!(s.sort::<u64>(&[]), Vec::<u64>::new());
        assert_eq!(s.sort(&[7]), vec![7]);
        assert_eq!(s.sort(&[2, 1]), vec![1, 2]);
    }

    #[test]
    fn sorts_large_random_input_multithreaded() {
        let keys = random_keys(20_000, 1);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(WaitFreeSorter::new(8).sort(&keys), expect);
    }

    #[test]
    fn single_thread_matches_std_sort() {
        let keys = random_keys(5_000, 2);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(WaitFreeSorter::new(1).sort(&keys), expect);
    }

    #[test]
    fn casualties_do_not_prevent_completion() {
        let keys = random_keys(5_000, 3);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(
            WaitFreeSorter::new(8).sort_with_casualties(&keys, 100),
            expect
        );
    }

    #[test]
    fn churn_reap_then_respawn() {
        let keys = random_keys(30_000, 4);
        let mut expect = keys.clone();
        expect.sort_unstable();
        // Reap the initial cohort after 2000 collective checks — far
        // short of the ~30k build jobs, so the replacements always
        // inherit real work, deterministically on any machine.
        let sorted = sort_with_churn(&keys, 4, 2_000, 3);
        assert_eq!(sorted, expect);
    }

    #[test]
    fn report_counts_cover_input_multithreaded() {
        let keys = random_keys(10_000, 5);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let (sorted, report) = WaitFreeSorter::new(4).sort_with_report(&keys);
        assert_eq!(sorted, expect);
        let n = keys.len() as u64;
        assert!(report.per_phase.build.claims >= n - 1);
        assert!(report.per_phase.build.cas_attempts >= n - 1);
        assert!(report.per_phase.sum.visits >= n);
        assert!(report.per_phase.place.visits >= n);
        assert!(report.per_phase.scatter.claims >= n);
        assert_eq!(report.per_worker.len(), 4);
        assert!((0.0..=1.0).contains(&report.cas_failure_rate));
        assert!(report.elapsed > Duration::ZERO);
        assert!(report.total_ops() > 0);
    }

    #[test]
    fn trivial_input_report_is_empty() {
        let (sorted, report) = WaitFreeSorter::new(2).sort_with_report(&[1u64]);
        assert_eq!(sorted, vec![1]);
        assert!(report.per_worker.is_empty());
        assert_eq!(report.total_ops(), 0);
    }

    #[test]
    fn report_on_randomized_job_counts_probes() {
        let keys = random_keys(5_000, 6);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let job = SortJob::with_tracked(keys, NativeAllocation::Randomized, 4);
        let report = WaitFreeSorter::new(4).run_job_with_report(&job);
        assert_eq!(job.into_sorted(), expect);
        assert!(report.per_phase.build.probes > 0);
        assert!(report.per_phase.scatter.probes > 0);
        // Random probing has no reserved assignment: every WAT step is
        // a helping step.
        assert_eq!(
            report.help_steps(),
            report.per_phase.build.claims
                + report.per_phase.build.probes
                + report.per_phase.scatter.claims
                + report.per_phase.scatter.probes
        );
    }

    #[test]
    fn sort_into_matches_sort_across_rounds() {
        let sorter = WaitFreeSorter::new(4);
        let mut arena = SortArena::new();
        let mut out = Vec::new();
        for round in 0..4 {
            let keys = random_keys(3_000 + 500 * round, 40 + round as u64);
            let mut expect = keys.clone();
            expect.sort_unstable();
            sorter.sort_into(&keys, &mut arena, &mut out);
            assert_eq!(out, expect, "round {round}");
        }
        // Trivial inputs bypass the arena but still fill `out`.
        sorter.sort_into(&[7u64], &mut arena, &mut out);
        assert_eq!(out, vec![7]);
        sorter.sort_into(&[], &mut arena, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn sharded_sort_matches_single_tree_order_exactly() {
        let keys = random_keys(30_000, 7);
        let sorter = WaitFreeSorter::new(4);
        assert_eq!(sorter.sort_sharded(&keys), sorter.sort(&keys));
    }

    #[test]
    fn sharded_trivial_inputs_pass_through() {
        let s = WaitFreeSorter::new(2);
        assert_eq!(s.sort_sharded::<u64>(&[]), Vec::<u64>::new());
        assert_eq!(s.sort_sharded_with(&[7u64], 4), vec![7]);
        let (sorted, report) = s.sort_sharded_with_report(&[1u64], 4);
        assert_eq!(sorted, vec![1]);
        assert!(report.shard.is_none());
    }

    #[test]
    fn sharded_report_carries_shard_payload() {
        let keys = random_keys(8_000, 8);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let (sorted, report) = WaitFreeSorter::new(4).sort_sharded_with_report(&keys, 16);
        assert_eq!(sorted, expect);
        let shard = report.shard.as_ref().expect("sharded report payload");
        assert_eq!(shard.shards, 16);
        assert_eq!(shard.per_shard.iter().map(|s| s.size).sum::<usize>(), 8_000);
        assert!(shard.per_shard.iter().all(|s| s.claims >= 1));
        assert!(shard.imbalance() >= 1.0);
        // `>=`: racing workers may idempotently redo claimed blocks;
        // the exact single-threaded pins live in tests/sharded_parity.rs.
        assert!(report.per_phase.partition.claims >= 8_000);
        assert!(report.per_phase.fill.claims >= shard.partition_blocks as u64);
        assert!(report.per_phase.shard_sort.claims >= 16);
        // Inner per-shard sorts land in the ordinary phase buckets.
        assert!(report.per_phase.build.claims > 0);
        assert!(report.per_phase.scatter.claims > 0);
    }

    #[test]
    fn sharded_plan_survives_total_crash() {
        let keys = random_keys(3_000, 9);
        let mut expect = keys.clone();
        expect.sort_unstable();
        // Crash every worker almost immediately: the caller must finish
        // all three phases alone.
        let mut plan = ChaosPlan::new(4);
        for w in 0..4 {
            plan = plan.crash_at(w, 3);
        }
        let sorted = WaitFreeSorter::new(4).sort_sharded_with_plan(&keys, &plan, 8);
        assert_eq!(sorted, expect);
    }

    #[test]
    fn sorts_strings() {
        let keys = vec!["b".to_string(), "a".to_string(), "c".to_string()];
        assert_eq!(
            WaitFreeSorter::new(2).sort(&keys),
            vec!["a".to_string(), "b".to_string(), "c".to_string()]
        );
    }

    #[test]
    fn default_uses_available_parallelism() {
        assert!(WaitFreeSorter::default().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        WaitFreeSorter::new(0);
    }

    #[test]
    fn options_compose_plan_deadline_shards_and_report() {
        let keys = random_keys(6_000, 10);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let plan = ChaosPlan::random_crashes(4, 0.5, 200, 11);
        let outcome = SortOptions::new()
            .threads(4)
            .shards(8)
            .plan(plan)
            .deadline(Duration::from_secs(3600))
            .report(true)
            .run(&keys);
        assert_eq!(outcome.sorted, expect);
        let report = outcome.report.expect("report requested");
        let shard = report.shard.expect("sharded payload");
        assert_eq!(shard.shards, 8);
        assert_eq!(shard.per_shard.iter().map(|s| s.size).sum::<usize>(), 6_000);
        // Cohort = 4 plan workers + the deadline-exempt caller.
        assert_eq!(report.per_worker.len(), 5);
    }

    #[test]
    fn options_degenerate_inputs_never_panic() {
        // Every combination the raw constructors reject: tiny inputs,
        // zero (= auto) shard counts, shard counts above n.
        for shards in [0usize, 1, 3, 64] {
            let opts = SortOptions::new().threads(2).shards(shards);
            assert_eq!(opts.run(&Vec::<u64>::new()).sorted, Vec::<u64>::new());
            assert_eq!(opts.run(&[9u64]).sorted, vec![9]);
            assert_eq!(opts.run(&[2u64, 1]).sorted, vec![1, 2]);
        }
        let outcome = SortOptions::new().threads(1).report(true).run(&[1u64]);
        assert_eq!(outcome.permutation, vec![1]);
        assert_eq!(outcome.report.unwrap().total_ops(), 0);
    }

    #[test]
    fn options_permutation_is_exact() {
        let keys = vec![30u64, 10, 20];
        let outcome = SortOptions::new().threads(2).run(&keys);
        assert_eq!(outcome.sorted, vec![10, 20, 30]);
        assert_eq!(outcome.permutation, vec![2, 3, 1]);
    }

    #[test]
    fn options_run_into_recycles_arena_with_report() {
        let mut arena: SortArena<u64> = SortArena::new();
        let mut out = Vec::new();
        let opts = SortOptions::new().threads(2).report(true);
        for round in 0..3 {
            let keys = random_keys(2_000, 60 + round);
            let mut expect = keys.clone();
            expect.sort_unstable();
            let report = opts.run_into(&keys, &mut arena, &mut out);
            assert_eq!(out, expect, "round {round}");
            assert!(report.expect("report requested").per_phase.build.claims >= 1_999);
            assert!(arena.is_warm());
        }
    }
}
