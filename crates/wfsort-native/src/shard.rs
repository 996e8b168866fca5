//! The sharded large-N sorting path: duplicate-robust sample-sort
//! splitters in front of the paper's wait-free sort.
//!
//! The single-tree [`SortJob`] funnels every element through one pivot
//! tree, so at large N the root's cache line is the whole machine's
//! rendezvous point — exactly the regime where multi-level splitting
//! wins (Axtmann & Sanders, *Robust Massively Parallel Sorting*; see
//! PAPERS.md). A [`ShardedSortJob`] instead runs three wait-free
//! phases, each driven by the same Work Assignment Trees as the
//! single-tree path so the fault story is preserved at every
//! granularity:
//!
//! 1. **Partition** — `k·S` *distinct* splitters are sampled at
//!    construction (stride positions, sorted, deduplicated, thinned
//!    evenly; `k` is [`ShardConfig::overpartition_factor`]). The `d`
//!    splitters define `2d + 1` *buckets* in key order, alternating
//!    *range* buckets (keys strictly between two splitters) and
//!    *equality* buckets (keys equal to one splitter) — the
//!    overpartitioning-plus-equality-buckets construction that makes
//!    duplicate floods and heavy skew harmless: an all-equal input
//!    deduplicates to a single splitter and lands entirely in its
//!    equality bucket. Workers claim blocks of elements from a WAT and
//!    classify each block with the branchless [`SplitterLadder`] (eight
//!    keys per interleaved walk; [`piece_by_search`] is the reference
//!    it is pinned against), publishing `piece_of[i]` *and* the block's
//!    per-bucket histogram into a per-block counts table. All of these
//!    stores are benign races: every claimant computes the same
//!    deterministic values.
//! 2. **Fill** — workers claim partition blocks from a second WAT and
//!    write each element's index straight into its bucket's contiguous
//!    range of the output permutation. Entering the phase costs each
//!    participant only an `O(B·P)` prefix-sum reduction over the fused
//!    histograms (not an `O(n)` rescan of the classifications).
//!    Destinations are a pure function of the completed classification
//!    (block-major, original order within a block), so the
//!    within-bucket order preserves the original index order — which
//!    is what makes the sharded permutation *identical* to the
//!    single-tree one, ties and all. Equality buckets are already in
//!    their final (stable sorted) order and are published as final
//!    values; range-bucket slots carry a high-bit `PENDING` tag until
//!    the shard phase republishes them sorted. The only auxiliary
//!    table is the `B·P` destination-offset reduction
//!    ([`ShardedSortJob::aux_bytes`]); no `n`-sized intermediate exists.
//! 3. **Shard sort** — the buckets are cut into *work units* (equality
//!    buckets are chunked to at most `(τ-1)·n/S` elements, `τ` being
//!    [`ShardConfig::max_shard_imbalance`]; range buckets stay whole)
//!    and assigned to the `S` shards greedily by measured size, largest
//!    first — a pure function of the completed classification, so every
//!    worker computes the same assignment. Workers claim whole shards
//!    from a third WAT and publish each of the shard's range units over
//!    its own slots: already-non-decreasing units as they are (the
//!    fill order *is* the stable sorted order), the rest sorted locally
//!    with the packed pivot tree in a private recycled [`SortArena`] —
//!    or, when a range bucket exceeds the chunk size and
//!    [`ShardConfig::max_levels`] allows, re-sharded one level down.
//!    Each bucket owns a contiguous rank range, so concatenation in key
//!    order is free.
//!
//! **Fault story.** A worker that crashes mid-phase leaves its current
//! WAT leaf unmarked and survivors redo the whole unit — an element
//! block, a fill block, or an entire shard (all of its work units). The
//! shard is the coarsest redo unit in the crate, which is the
//! deliberate trade: claim traffic shrinks to `O(S)` for the longest
//! phase, at the cost of redoing up to one shard's units per crash. A
//! participant abandoned *inside* a unit's inner sort signals the WAT
//! through its `keep_going` before the leaf is published, so a
//! half-sorted shard is never marked complete (both WAT flavors gate
//! publication on a final consult).
//!
//! Because a range unit's slots are both its input and its output,
//! redo safety comes from a monotone slot protocol rather than
//! idempotent-by-value writes: slots move `empty → fill value → final
//! value` only (fills are CAS-from-empty, so a preempted filler can
//! never resurrect a stale value over a final one), a redone unit whose
//! slots are all final is skipped, and a unit caught mid-publication
//! (mixed tags — its claimant crashed or is racing) is rebuilt from the
//! stable classification, never from the torn slots
//! ([`ShardedSortJob::publish_unit`]).
//!
//! The splitter sample is taken at deterministic stride positions, so a
//! job — and therefore every chaos replay over it — is a pure function
//! of its `(keys, shards, config)` input. Deduplication plus equality
//! buckets remove the duplicate-collapse failure mode entirely;
//! residual skew from an adversarial sample hurts only balance, never
//! correctness, and [`crate::ShardReport::imbalance`] measures it
//! against the requested τ.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crate::arena::SortArena;
use crate::job::{
    recommended_grain, NativeAllocation, Participation, RunToCompletion,
    DEFAULT_TRACKED_PARTICIPANTS,
};
use crate::metrics::{BucketStat, Instrument, MetricSlot, NoInstrument, ShardReport, ShardStat};
use crate::wat::PhaseWat;
use crate::watchdog::{ProgressReport, SortPhase};

/// The shard count [`crate::WaitFreeSorter::sort_sharded`] picks for
/// `n` keys and a `workers`-thread cohort: `n / 8192`, but at least one
/// shard per worker, capped at 256 and at `n`.
///
/// The `n / 8192` target keeps each shard's pivot tree small enough
/// that its hot path stays in cache instead of chasing pointers across
/// a single tree of all `n` nodes; at least `workers` shards lets every
/// thread hold a distinct shard in the final phase; the 256 cap bounds
/// the splitter ladder and the per-worker `O(B·P)` fill
/// bookkeeping. Mirrors [`recommended_grain`], and like it the
/// constants are exercised by the E26 sweep rather than trusted.
pub fn recommended_shards(n: usize, workers: usize) -> usize {
    (n / 8192).max(workers.max(1)).clamp(1, 256).min(n.max(1))
}

/// Elements per partition block: the claim unit of the partition phase
/// and the work unit of the fill phase. Scales like the WAT grain
/// (about eight blocks per worker) but with a higher floor, since a
/// block is also the unit of fill-phase bookkeeping.
fn partition_grain(n: usize, workers: usize) -> usize {
    (n / (workers.max(1) * 8)).clamp(64, 4096).min(n)
}

/// High bit of an output-permutation slot: set on values the fill
/// phase stages for a *range* bucket (fill order, awaiting the shard
/// phase's sorted republication), clear on final values. The monotone
/// `empty → PENDING-tagged → final` slot lifecycle is what lets a
/// redoing survivor classify a unit's state from one read sweep.
const PENDING: usize = 1 << (usize::BITS - 1);

/// How many slots a unit's publication loop writes between
/// `keep_going` consults — keeps the work between checkpoints bounded
/// (the wait-free contract) and gives chaos scripts real windows to
/// crash a worker *mid-unit*, which is exactly the torn state the
/// mixed-tag recovery path exists for.
const PUBLISH_CONSULT_EVERY: usize = 64;

/// Robustness knobs for the sharded path. [`crate::SortOptions`] is the
/// builder surface; raw construction goes through
/// [`ShardedSortJob::with_config`].
///
/// Degenerate values never panic: [`ShardConfig::normalized`] maps a
/// zero factor or level count and a non-finite or ≤ 1.0 imbalance
/// target back to the defaults, and every constructor normalizes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardConfig {
    /// Overpartition factor `k`: the sampler targets `k·S` distinct
    /// splitters, so up to `2kS + 1` buckets feed the greedy
    /// bucket→shard assignment. `0` selects the default (8); `1` is the
    /// minimal robust sampler — deduplication and equality buckets with
    /// barely any overpartitioning. Normalization caps the factor at 64
    /// to bound the `O(B·P)` fill bookkeeping.
    pub overpartition_factor: usize,
    /// Balance target τ for [`crate::ShardReport::imbalance`]: equality
    /// buckets are chunked to at most `(τ-1)·n/S` elements, so greedy
    /// largest-first assignment keeps every shard under `τ·n/S`
    /// whenever no single range bucket exceeds the chunk size (the
    /// classic list-scheduling bound `max ≤ avg + largest unit`).
    /// Non-finite or ≤ 1.0 values normalize to the default 2.0.
    pub max_shard_imbalance: f64,
    /// Sharding levels: `1` (the default) sorts every oversized range
    /// bucket with the packed pivot tree; `2` re-shards a range bucket
    /// that exceeds the chunk size one level down before pivot-sorting
    /// its sub-buckets. `0` normalizes to 1; values above 4 clamp to 4
    /// (the paper-relevant regime is one extra level).
    pub max_levels: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            overpartition_factor: 8,
            max_shard_imbalance: 2.0,
            max_levels: 1,
        }
    }
}

impl ShardConfig {
    /// Maps every degenerate knob value onto a usable one (see the
    /// field docs); idempotent, and applied by every constructor.
    pub fn normalized(self) -> Self {
        ShardConfig {
            overpartition_factor: match self.overpartition_factor {
                0 => 8,
                f => f.min(64),
            },
            max_shard_imbalance: if self.max_shard_imbalance.is_finite()
                && self.max_shard_imbalance > 1.0
            {
                self.max_shard_imbalance
            } else {
                2.0
            },
            max_levels: self.max_levels.clamp(1, 4),
        }
    }
}

/// Reference scalar classification: the bucket `key` belongs to under
/// strictly increasing `splitters`, via `partition_point` binary search
/// plus an equality probe. Buckets alternate in key order: `2i` holds
/// keys strictly between splitters `i - 1` and `i` (the outermost two
/// are open-ended), `2i + 1` holds keys equal to splitter `i` — so
/// equal keys always share a bucket and bucket order is key order.
///
/// This is the reference the [`SplitterLadder`] is differentially
/// pinned against (unit edge cases, splitter counts across the padding
/// boundaries, and a random-splitter property loop in
/// `tests/proptest_sharded.rs`) and the baseline of the E26e classify
/// timing.
pub fn piece_by_search<K: Ord>(splitters: &[K], key: &K) -> usize {
    let i = splitters.partition_point(|s| s < key);
    if i < splitters.len() && splitters[i] == *key {
        2 * i + 1
    } else {
        2 * i
    }
}

/// The Partition phase's classification kernel: the strictly
/// increasing splitters, padded with copies of the last splitter up to
/// a power of two, walked with a fixed trip count and cmov-style
/// arithmetic (comparison results are consumed as integers, never
/// branched on), the equality-bucket resolution folded into the final
/// rung. Exposed so the differential tests and the E26e classify timing
/// in `e26_sharded_bench` can drive it directly against
/// [`piece_by_search`].
#[derive(Clone, Debug)]
pub struct SplitterLadder<K> {
    /// `splitters` followed by copies of its last element, total length
    /// `(d + 1).next_power_of_two()`. The padding keeps every walk at
    /// the same trip count and makes the post-walk rung index always
    /// in-bounds; copies of the last splitter never change the
    /// `< key` count for keys at or below it, and for keys above it the
    /// count is clamped back to `d`.
    rungs: Vec<K>,
    /// The real (distinct) splitter count `d`.
    distinct: usize,
}

impl<K: Ord + Clone> SplitterLadder<K> {
    /// Builds a ladder over strictly increasing `splitters` (as
    /// produced by the job's deduplicating sampler). An empty slice is
    /// allowed and classifies everything into bucket 0.
    pub fn new(splitters: &[K]) -> Self {
        let distinct = splitters.len();
        let mut rungs = splitters.to_vec();
        if let Some(last) = splitters.last() {
            rungs.resize((distinct + 1).next_power_of_two(), last.clone());
        }
        SplitterLadder { rungs, distinct }
    }

    /// Splitter comparisons one [`SplitterLadder::piece_for`] call
    /// performs — fixed by construction (`log2` of the padded length,
    /// plus the final `<` rung and the folded equality rung), never
    /// data-dependent. The telemetry's `classify_steps` is this times
    /// the elements classified.
    pub fn steps_per_key(&self) -> u64 {
        if self.distinct == 0 {
            return 0;
        }
        u64::from(self.rungs.len().trailing_zeros()) + 2
    }
}

impl<K: Ord> SplitterLadder<K> {
    /// The strictly increasing splitters the ladder was built over,
    /// without the padding.
    pub(crate) fn splitters(&self) -> &[K] {
        &self.rungs[..self.distinct]
    }

    /// The bucket `key` belongs to — bit-identical to
    /// [`piece_by_search`] over the same splitters, with the
    /// equality-bucket resolution folded into the final rung: the walk
    /// yields `i` = the number of splitters `< key`, and the bucket is
    /// `2i + eq` where `eq` probes rung `i` for equality (rung `d`,
    /// reachable only when `key` exceeds every splitter, is a copy of
    /// the last splitter and can never compare equal there).
    #[inline]
    pub fn piece_for(&self, key: &K) -> usize {
        if self.distinct == 0 {
            return 0;
        }
        let rungs = self.rungs.as_slice();
        let mut base = 0usize;
        let mut len = rungs.len();
        // Branchless lower bound: each comparison picks between two
        // precomputed indices through `select_unpredictable` (a
        // guaranteed conditional move — splitter comparisons on real
        // key streams are coin flips, exactly the case the hint
        // exists for), and the trip count is fixed by the padding.
        while len > 1 {
            let half = len / 2;
            let mid = base + half;
            base = core::hint::select_unpredictable(rungs[mid - 1] < *key, mid, base);
            len -= half;
        }
        base = core::hint::select_unpredictable(rungs[base] < *key, base + 1, base);
        // Keys above every splitter count the padding too; clamp back.
        let i = base.min(self.distinct);
        2 * i + usize::from(rungs[i] == *key)
    }

    /// [`SplitterLadder::piece_for`] over `LANES` keys in one
    /// interleaved walk — bit-identical results, but the fixed trip
    /// count lets all lanes descend in lockstep, so each ladder level
    /// issues `LANES` independent rung loads instead of one. That
    /// overlap of the dependent load/compare chains is where the block
    /// kernel's speedup over per-key [`piece_by_search`] comes from:
    /// a lone walk is latency-bound (every level waits on the previous
    /// rung), while the lanes keep the load ports busy. The comparison
    /// count per key is unchanged ([`SplitterLadder::steps_per_key`]).
    #[inline]
    pub fn piece_for_lanes<const LANES: usize>(&self, keys: [&K; LANES]) -> [usize; LANES] {
        if self.distinct == 0 {
            return [0; LANES];
        }
        let rungs = self.rungs.as_slice();
        let mut base = [0usize; LANES];
        let mut len = rungs.len();
        while len > 1 {
            let half = len / 2;
            for lane in 0..LANES {
                let mid = base[lane] + half;
                base[lane] =
                    core::hint::select_unpredictable(rungs[mid - 1] < *keys[lane], mid, base[lane]);
            }
            len -= half;
        }
        core::array::from_fn(|lane| {
            let at = core::hint::select_unpredictable(
                rungs[base[lane]] < *keys[lane],
                base[lane] + 1,
                base[lane],
            );
            let i = at.min(self.distinct);
            2 * i + usize::from(rungs[i] == *keys[lane])
        })
    }
}

/// Deterministic duplicate-robust splitter sample: stride positions,
/// oversampled by a log factor past the `k·S` target, sorted, reduced
/// to `k·S` evenly-spaced **quantiles of the sample with duplicates
/// kept**, then deduplicated. Strictly increasing output; an all-equal
/// input yields one splitter.
///
/// The quantile-then-dedup order is load-bearing: quantiles of the
/// raw sorted sample are mass-weighted, so a value carrying more than
/// `~1/(k·S)` of the input (a Zipf head, a duplicate flood) always
/// occupies at least one quantile slot and survives as a splitter —
/// its mass then lands in a chunkable *equality* bucket. Deduplicating
/// first and thinning by distinct-value rank would weight every value
/// equally and could drop exactly the heavy keys, leaving their whole
/// mass in one unchunkable range bucket (the imbalance bug the E26d
/// battery pins).
fn sample_splitters<K: Ord + Clone>(keys: &[K], shards: usize, factor: usize) -> Vec<K> {
    if shards <= 1 {
        return Vec::new();
    }
    let n = keys.len();
    let target = shards.saturating_mul(factor.max(1));
    let oversample = (usize::BITS - (target - 1).leading_zeros()) as usize + 1;
    let m = target.saturating_mul(oversample).min(n);
    let mut sample: Vec<K> = (0..m).map(|j| keys[j * n / m].clone()).collect();
    sample.sort();
    // Quantile positions are non-decreasing and the sample is sorted,
    // so the picks are non-decreasing; dedup makes them strictly
    // increasing.
    let mut splitters: Vec<K> = (1..=target.min(m))
        .map(|j| sample[j * m / (target.min(m) + 1)].clone())
        .collect();
    splitters.dedup();
    splitters
}

/// One contiguous output-permutation span the shard phase publishes as
/// a whole: an equality-bucket chunk or a range bucket. `lo..hi` are
/// the unit's output ranks.
#[derive(Clone, Copy, Debug)]
struct WorkUnit {
    lo: usize,
    hi: usize,
    /// The bucket this unit is a span of. The torn-unit recovery path
    /// uses it to rebuild the unit's element set from the stable
    /// classification when the slots themselves are torn.
    piece: usize,
    /// Equality units hold one key value, so the bucket order (original
    /// index order) is already the stable sorted order.
    equality: bool,
}

impl WorkUnit {
    fn len(&self) -> usize {
        self.hi - self.lo
    }
}

/// Forwards an outer [`Participation`] into a unit's inner sort,
/// latching any abandonment so (a) the inner sort stops promptly and
/// (b) the outer shard WAT sees the signal at its publish gate and
/// leaves the half-sorted shard's leaf unmarked.
struct ForwardAbandon<'a, 'p, P: Participation> {
    outer: &'a RefCell<&'p mut P>,
    abandoned: &'a Cell<bool>,
}

impl<P: Participation> Participation for ForwardAbandon<'_, '_, P> {
    fn keep_going(&mut self) -> bool {
        if self.abandoned.get() {
            return false;
        }
        let ok = self.outer.borrow_mut().keep_going();
        if !ok {
            self.abandoned.set(true);
        }
        ok
    }
}

/// A wait-free *sharded* sort of `keys` in progress (or completed):
/// duplicate-robust splitter partition into range and equality buckets,
/// bucket fill, then greedy bucket→shard assignment with one
/// independent local sort (or trivial fill) per work unit (see the
/// module docs for the pipeline and fault story).
///
/// Like [`SortJob`], any number of threads may call
/// [`ShardedSortJob::participate`] at any time, abandon at will, and
/// the sort completes as long as one participant keeps running. The
/// computed permutation is identical to the single-tree job's —
/// `(key, index)` order, so stable — which the differential suite in
/// `tests/sharded_parity.rs` pins across the adversarial shape battery.
///
/// Unlike [`SortJob`] there are no per-participant heartbeat slots: the
/// watchdog story for the sharded path rides on its completion gates
/// and on the WAT frontiers, not on per-thread epochs —
/// [`ShardedSortJob::progress`] folds those frontiers into a
/// [`ProgressReport`] the [`crate::WatchdogRegistry`] classifies like
/// any other job's.
///
/// # Examples
///
/// ```
/// use wfsort_native::{RunToCompletion, ShardedSortJob};
///
/// let job = ShardedSortJob::new((0..500u64).rev().collect(), 8);
/// std::thread::scope(|s| {
///     s.spawn(|| job.participate(&mut RunToCompletion));
///     s.spawn(|| job.participate(&mut RunToCompletion));
/// });
/// assert!(job.is_complete());
/// assert_eq!(job.into_sorted(), (0..500u64).collect::<Vec<_>>());
/// ```
///
/// [`SortJob`]: crate::SortJob
#[derive(Debug)]
pub struct ShardedSortJob<K: Ord> {
    keys: Vec<K>,
    /// The strictly increasing (deduplicated) splitters as the padded
    /// ladder the partition phase walks; element `i` belongs to the
    /// bucket [`piece_by_search`] computes, so equal keys always share
    /// a bucket.
    ladder: SplitterLadder<K>,
    shards: usize,
    /// Bucket count `P = 2·splitters.len() + 1`: buckets alternate
    /// range / equality in key order.
    pieces: usize,
    config: ShardConfig,
    pgrain: usize,
    blocks: usize,
    /// The WAT flavor of every phase below, inherited by the per-unit
    /// sorts and re-shards of the shard phase.
    allocation: NativeAllocation,
    /// One work tree per phase: partition (one item per element,
    /// `pgrain` per leaf), fill (one per partition block) and shard
    /// sort (one per shard).
    partition_wat: PhaseWat,
    fill_wat: PhaseWat,
    shard_wat: PhaseWat,
    /// `piece_of[i]` = bucket of element `i` (0-based). Benign race:
    /// every writer stores the same deterministic value.
    piece_of: Vec<AtomicU32>,
    /// Fused per-block histograms: `block_counts[blk · P + p]` = how
    /// many of block `blk`'s elements classify into bucket `p`,
    /// published by whoever classifies the block (in the same batch
    /// call that stores `piece_of`). The same benign-race argument as
    /// `piece_of` applies — a redone block rewrites identical counts —
    /// and the partition WAT's completion gate orders every count
    /// before any fill-phase read. This table is what lets
    /// [`ShardedSortJob::column_offsets`] run in `O(B·P)` instead of
    /// rescanning all `n` classifications per participant.
    block_counts: Vec<AtomicU32>,
    /// `out_perm[r]` = 1-based element index with rank `r + 1` — the
    /// same contract as [`crate::SortJob`]'s permutation. Bucket `p`
    /// owns the contiguous slots `starts[p]..starts[p + 1]`, and the
    /// slots double as the fill staging area (monotone `empty →
    /// PENDING-tagged fill value → final value` lifecycle); completion
    /// guarantees every tag is gone.
    out_perm: Vec<AtomicUsize>,
    /// Telemetry: element moves actually performed — every store of an
    /// element entry into the output permutation, redone work
    /// included. A crash-free run pays `N` for the fill plus one
    /// republication per *range* slot (equality units are final at
    /// fill time), the exact count E26f pins.
    moves: AtomicU64,
    /// Telemetry: range units whose slots were caught mid-publication
    /// (mixed fill/final tags after a claimant crashed or raced) and
    /// were rebuilt from the stable classification. Zero in any
    /// crash-free single-threaded run; the abandonment suite drives it
    /// positive on purpose.
    cycle_restarts: AtomicU64,
    /// Telemetry only: how many times each shard's sort closure was
    /// entered (redos and racing double claims included).
    shard_claims: Vec<AtomicU64>,
    participants: AtomicUsize,
}

impl<K: Ord + Clone> ShardedSortJob<K> {
    /// Creates a sharded job over `keys` with `shards` shards,
    /// deterministic WAT allocation, default [`ShardConfig`], and work
    /// grains sized for [`DEFAULT_TRACKED_PARTICIPANTS`] workers.
    /// [`crate::SortJob::with_shards`] is the same constructor under
    /// the name the single-tree path uses.
    ///
    /// # Panics
    ///
    /// Panics if `keys` has fewer than 2 elements or `shards` is zero.
    pub fn new(keys: Vec<K>, shards: usize) -> Self {
        Self::with_workers(
            keys,
            NativeAllocation::Deterministic,
            DEFAULT_TRACKED_PARTICIPANTS,
            shards,
        )
    }

    /// [`ShardedSortJob::with_config`] with the default [`ShardConfig`]:
    /// the WAT flavor (`allocation`), the expected `workers` cohort
    /// (sizes the partition-block grain; correctness never depends on
    /// it), and the shard count.
    ///
    /// # Panics
    ///
    /// Panics if `keys` has fewer than 2 elements, or `workers` or
    /// `shards` is zero, or `shards` does not fit in a `u32`.
    pub fn with_workers(
        keys: Vec<K>,
        allocation: NativeAllocation,
        workers: usize,
        shards: usize,
    ) -> Self {
        Self::with_config(keys, allocation, workers, shards, ShardConfig::default())
    }

    /// Creates a sharded job with every knob explicit, including the
    /// robustness [`ShardConfig`] (normalized via
    /// [`ShardConfig::normalized`], so degenerate knob values select
    /// defaults instead of panicking).
    ///
    /// # Panics
    ///
    /// Panics if `keys` has fewer than 2 elements, or `workers` or
    /// `shards` is zero, or `shards` does not fit in a `u32`.
    pub fn with_config(
        keys: Vec<K>,
        allocation: NativeAllocation,
        workers: usize,
        shards: usize,
        config: ShardConfig,
    ) -> Self {
        let n = keys.len();
        assert!(n >= 2, "a sort job needs at least two keys");
        assert!(workers >= 1, "a sharded job needs at least one worker");
        assert!(shards >= 1, "a sharded job needs at least one shard");
        assert!(u32::try_from(shards).is_ok(), "shard ids are stored as u32");
        let config = config.normalized();
        let splitters = sample_splitters(&keys, shards, config.overpartition_factor);
        let pieces = 2 * splitters.len() + 1;
        assert!(
            u32::try_from(pieces).is_ok(),
            "bucket ids are stored as u32"
        );
        let pgrain = partition_grain(n, workers);
        let blocks = n.div_ceil(pgrain);
        // The fill tag rides the slot word's high bit, so 1-based
        // element indices must stay below it — true for any input that
        // fits in memory, asserted so the invariant is explicit.
        assert!(n < PENDING, "element indices must fit under the tag bit");
        ShardedSortJob {
            ladder: SplitterLadder::new(&splitters),
            shards,
            pieces,
            config,
            pgrain,
            blocks,
            allocation,
            partition_wat: PhaseWat::new(allocation, n, pgrain),
            fill_wat: PhaseWat::new(allocation, blocks, 1),
            shard_wat: PhaseWat::new(allocation, shards, 1),
            piece_of: (0..n).map(|_| AtomicU32::new(0)).collect(),
            block_counts: (0..blocks * pieces).map(|_| AtomicU32::new(0)).collect(),
            out_perm: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            moves: AtomicU64::new(0),
            cycle_restarts: AtomicU64::new(0),
            shard_claims: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            participants: AtomicUsize::new(0),
            keys,
        }
    }

    /// Fallible [`ShardedSortJob::with_workers`]: returns `Err` for
    /// every argument shape the panicking constructor rejects (fewer
    /// than 2 keys, zero workers or shards, shard ids past `u32`),
    /// handing `keys` back untouched so a service-facing caller can fall
    /// back to a sequential sort instead of unwinding. The panicking
    /// front-ends keep their documented contracts;
    /// [`crate::SortOptions`] and [`crate::service::SortService`] route
    /// degenerate inputs around the constructor entirely.
    pub fn try_with_workers(
        keys: Vec<K>,
        allocation: NativeAllocation,
        workers: usize,
        shards: usize,
    ) -> Result<Self, Vec<K>> {
        if keys.len() < 2 || workers == 0 || shards == 0 || u32::try_from(shards).is_err() {
            return Err(keys);
        }
        Ok(Self::with_workers(keys, allocation, workers, shards))
    }

    /// Runs all three phases as one participant until the sort is
    /// complete or `p` abandons. Wait-free with the same contract as
    /// [`crate::SortJob::participate`]: bounded work between
    /// `keep_going` checks, progress never depends on any other
    /// participant.
    pub fn participate(&self, p: &mut impl Participation) {
        self.participate_inner(p, &NoInstrument);
    }

    /// [`ShardedSortJob::participate`] recording per-worker telemetry
    /// into `slot`, including the inner per-unit sorts (their events
    /// land in the ordinary build/sum/place/scatter buckets).
    pub fn participate_instrumented(&self, p: &mut impl Participation, slot: &MetricSlot) {
        self.participate_inner(p, slot.counters());
    }

    /// Convenience: participate and never abandon.
    pub fn run(&self) {
        self.participate(&mut RunToCompletion);
    }

    pub(crate) fn participate_inner(&self, p: &mut impl Participation, ins: &impl Instrument) {
        let tid = self.participants.fetch_add(1, Ordering::Relaxed);
        let nthreads = (tid + 1).max(2);
        ins.enter_phase(SortPhase::Partition);
        self.partition_phase(tid, nthreads, p, ins);
        if !self.partition_done() {
            return;
        }
        ins.enter_phase(SortPhase::Fill);
        let starts = self.fill_phase(tid, nthreads, p, ins);
        if !self.fill_done() {
            return;
        }
        ins.enter_phase(SortPhase::ShardSort);
        self.shard_phase(tid, nthreads, &starts, p, ins);
    }

    /// Phase 1: classify every element into its bucket. One WAT item
    /// per element (so `partition.claims` counts elements,
    /// grain-independent like the single-tree phases), blocks of
    /// [`ShardedSortJob::partition_grain`] items per leaf.
    ///
    /// The work is batched per leaf: both WAT flavors run a claimed
    /// leaf's items in order from its first element, so the first
    /// item's callback classifies the *whole* block with the
    /// [`SplitterLadder`] (amortizing the splitter loads) and publishes
    /// the block's piece histogram into `block_counts`; the block's
    /// remaining items are no-ops that keep the per-element claim
    /// accounting and `keep_going` cadence unchanged. A worker
    /// abandoned on a later item leaves the leaf unmarked and survivors
    /// redo the block from its first element, rewriting identical
    /// `piece_of` values and identical histograms — the fault story is
    /// unchanged at block granularity. Work between checkpoints stays
    /// bounded by the grain cap (4096 classifications).
    fn partition_phase(
        &self,
        tid: usize,
        nthreads: usize,
        p: &mut impl Participation,
        ins: &impl Instrument,
    ) {
        let scratch = RefCell::new(vec![0u32; self.pieces]);
        let classify = |i: usize| {
            let blk = i / self.pgrain;
            if i != blk * self.pgrain {
                return;
            }
            let mut counts = scratch.borrow_mut();
            counts.fill(0);
            let steps = self.classify_block(blk, &mut counts);
            let base = blk * self.pieces;
            for (piece, &count) in counts.iter().enumerate() {
                self.block_counts[base + piece].store(count, Ordering::Relaxed);
            }
            ins.kernel_block(steps);
            // Ledger: one key read and one `piece_of` write per
            // element, plus the block's published histogram row.
            let span_len = self.block_span(blk).len() as u64;
            let ksz = std::mem::size_of::<K>() as u64;
            ins.bytes(span_len * (ksz + 4) + self.pieces as u64 * 4);
        };
        let keep_going = || {
            ins.checkpoint();
            p.keep_going()
        };
        self.partition_wat
            .participate_with(tid, nthreads, classify, keep_going, ins);
    }

    /// Phase 2: write every element's index into its bucket's slot
    /// range of the output permutation, one partition block per WAT
    /// job. Returns the bucket start offsets (`pieces + 1` entries) for
    /// the shard phase — a pure function of the completed
    /// classification, so every worker computes the same values.
    ///
    /// Equality buckets are published as untagged *final* values (their
    /// fill order is already the stable sorted order, so the shard
    /// phase never touches them again), range buckets as
    /// `PENDING`-tagged staging values. Fills CAS from the empty
    /// sentinel instead of storing: a filler preempted before its block
    /// was redone by survivors — and then finalized by the shard phase
    /// — must not wake up and resurrect a stale fill value over a final
    /// one. Every CAS failure is exactly such a benign stale redo.
    fn fill_phase(
        &self,
        tid: usize,
        nthreads: usize,
        p: &mut impl Participation,
        ins: &impl Instrument,
    ) -> Vec<usize> {
        let (starts, offsets) = self.column_offsets(ins);
        let pieces = self.pieces;
        let fill_block = |blk: usize| {
            // A private cursor copy per invocation keeps redone blocks
            // idempotent: every rerun starts from the same offsets and
            // targets the same destinations.
            let mut next = offsets[blk * pieces..(blk + 1) * pieces].to_vec();
            let span = self.block_span(blk);
            let span_len = span.len() as u64;
            for i in span {
                let piece = self.piece_of[i].load(Ordering::Relaxed) as usize;
                let value = if piece % 2 == 1 {
                    i + 1
                } else {
                    (i + 1) | PENDING
                };
                let _ = self.out_perm[next[piece]].compare_exchange(
                    0,
                    value,
                    Ordering::Release,
                    Ordering::Relaxed,
                );
                next[piece] += 1;
            }
            self.moves.fetch_add(span_len, Ordering::Relaxed);
            // Ledger: one `piece_of` read (4 B) and one slot write (8 B)
            // per element.
            ins.bytes(span_len * (4 + 8));
        };
        let keep_going = || {
            ins.checkpoint();
            p.keep_going()
        };
        self.fill_wat
            .participate_with(tid, nthreads, fill_block, keep_going, ins);
        starts
    }

    /// Phase 3: claim whole shards and publish each of the shard's work
    /// units through [`ShardedSortJob::publish_unit`], with one private
    /// recycled arena and unit buffers per worker.
    fn shard_phase(
        &self,
        tid: usize,
        nthreads: usize,
        starts: &[usize],
        p: &mut impl Participation,
        ins: &impl Instrument,
    ) {
        let assignment = self.assign_units(&self.plan_units(starts));
        let abandoned = Cell::new(false);
        let outer = RefCell::new(p);
        let mut arena: SortArena<K> = SortArena::new();
        let mut unit_keys: Vec<K> = Vec::new();
        let mut fill_order: Vec<usize> = Vec::new();
        let sort_shard = |shard: usize| {
            self.shard_claims[shard].fetch_add(1, Ordering::Relaxed);
            let mut fwd = ForwardAbandon {
                outer: &outer,
                abandoned: &abandoned,
            };
            for unit in &assignment[shard] {
                if abandoned.get()
                    || !self.publish_unit(
                        unit,
                        &mut fwd,
                        &mut arena,
                        &mut fill_order,
                        &mut unit_keys,
                        ins,
                    )
                {
                    return;
                }
            }
        };
        let keep_going = || {
            ins.checkpoint();
            !abandoned.get() && outer.borrow_mut().keep_going()
        };
        self.shard_wat
            .participate_with(tid, nthreads, sort_shard, keep_going, ins);
    }

    /// One work unit of the shard phase. The unit's output-permutation
    /// slots are both its input and its output, so the unit runs a
    /// snapshot-classify-republish protocol built on the monotone slot
    /// lifecycle (`empty → PENDING-tagged fill value → final value`,
    /// finals deterministic and identical across every publisher):
    ///
    /// 1. **Snapshot.** One read sweep over the slots. *All tagged* ⇒
    ///    the snapshot is exactly the pristine fill order (no final
    ///    write can precede a tagged read of the same slot, and fill
    ///    values are stable once the fill gate passes). *All untagged*
    ///    ⇒ a previous claimant finished the unit; skip. *Mixed* ⇒ a
    ///    claimant crashed (or is racing) mid-publication — final
    ///    values at unknown positions may duplicate fill values still
    ///    awaiting overwrite, so the slots are not a usable multiset;
    ///    rebuild the unit's fill order from the stable classification
    ///    ([`ShardedSortJob::rebuild_fill_order`], counted in
    ///    `cycle_restarts`).
    /// 2. **Sort.** Singletons and already-non-decreasing runs are
    ///    final as-is — this is also what keeps pre-sorted inputs out of
    ///    the pivot tree's quadratic monotone-insert regime; otherwise
    ///    the fill order's keys run through the packed pivot-tree arena
    ///    sort (or, for an oversized range bucket under
    ///    [`ShardConfig::max_levels`] > 1, a one-level re-shard). The
    ///    fill order preserves original-index order within the bucket,
    ///    so the inner sort's `(key, local index)` ties break exactly
    ///    like the global `(key, index)` ties.
    /// 3. **Republish.** Final values are stored untagged, with a
    ///    `keep_going` consult every [`PUBLISH_CONSULT_EVERY`] slots —
    ///    a worker crashed inside the loop leaves exactly the mixed
    ///    state step 1 recovers from, and its WAT leaf unmarked.
    ///
    /// Because every final value is a pure function of `(keys,
    /// classification, unit)`, racing claimants — snapshot-based or
    /// rebuild-based — write byte-identical finals. Returns `false` if
    /// the participant abandoned mid-unit (callers stop, the shard's
    /// leaf stays unmarked for survivors).
    fn publish_unit<P: Participation>(
        &self,
        unit: &WorkUnit,
        fwd: &mut ForwardAbandon<'_, '_, P>,
        arena: &mut SortArena<K>,
        fill_order: &mut Vec<usize>,
        unit_keys: &mut Vec<K>,
        ins: &impl Instrument,
    ) -> bool {
        // Equality units were published as final values by the fill
        // phase itself; there is nothing left to move or verify.
        if unit.equality {
            return true;
        }
        let (lo, hi) = (unit.lo, unit.hi);
        let len = hi - lo;
        let ksz = std::mem::size_of::<K>() as u64;
        fill_order.clear();
        let mut tagged = 0usize;
        for slot in lo..hi {
            let raw = self.out_perm[slot].load(Ordering::Acquire);
            debug_assert_ne!(raw, 0, "the fill gate orders every slot write first");
            tagged += usize::from(raw & PENDING != 0);
            fill_order.push(raw & !PENDING);
        }
        ins.bytes(len as u64 * 8);
        if tagged == 0 {
            return true;
        }
        if tagged != len {
            self.cycle_restarts.fetch_add(1, Ordering::Relaxed);
            self.rebuild_fill_order(unit.piece, fill_order, ins);
            debug_assert_eq!(fill_order.len(), len, "stable rebuild spans the unit");
        }
        // `fill_order` now holds the unit's 1-based element indices,
        // ascending by original index, whichever way it was obtained.
        let sorted_already = len == 1 || {
            // Ledger: the keys the run check actually loads — an early
            // exit on unsorted data charges only the prefix it read.
            let mut loads = 1u64;
            let sorted = fill_order.windows(2).all(|w| {
                loads += 1;
                self.keys[w[0] - 1] <= self.keys[w[1] - 1]
            });
            ins.bytes(loads * ksz);
            sorted
        };
        if sorted_already {
            return self.publish_final(lo, fill_order, fwd, ins);
        }
        unit_keys.clear();
        unit_keys.extend(fill_order.iter().map(|&v| self.keys[v - 1].clone()));
        ins.bytes(len as u64 * ksz);
        let sorted = if self.config.max_levels > 1 && len > self.chunk_cap() {
            // An oversized range bucket: the sampler missed its span,
            // so re-shard it one level down instead of feeding one
            // giant pivot tree.
            let inner = ShardedSortJob::with_config(
                std::mem::take(unit_keys),
                self.allocation,
                1,
                recommended_shards(len, 1).max(2),
                ShardConfig {
                    max_levels: self.config.max_levels - 1,
                    ..self.config
                },
            );
            // Erase the participation type at the recursion boundary:
            // without this, each level would nest another
            // ForwardAbandon<…> and monomorphization would never
            // terminate.
            let mut erased: &mut dyn Participation = &mut *fwd;
            inner.participate_inner(&mut erased, ins);
            (!fwd.abandoned.get()).then(|| inner.permutation())
        } else {
            let job = arena.prepare(unit_keys, self.allocation, 1, recommended_grain(len, 1));
            job.participate_inner(&mut *fwd, ins);
            (!fwd.abandoned.get()).then(|| job.permutation())
        };
        ins.enter_phase(SortPhase::ShardSort);
        // Abandoned mid-sort: the unit is untouched (still all tagged)
        // and the shard WAT's publish gate sees the same signal.
        let Some(mut finals) = sorted else {
            return false;
        };
        for local in &mut finals {
            *local = fill_order[*local - 1];
        }
        self.publish_final(lo, &finals, fwd, ins)
    }

    /// Rebuilds a range bucket's fill order — 1-based element indices,
    /// ascending by original index — into `out` from the *stable* side
    /// of the job (`piece_of` and the fused histograms), never from the
    /// torn slots. Only blocks whose histogram row shows elements of
    /// `piece` are scanned, so the cost is bounded by the piece's
    /// contributing blocks; this is the rare crash/race recovery path,
    /// not the steady state, and every caller computes the identical
    /// result (it is a pure function of the completed classification).
    fn rebuild_fill_order(&self, piece: usize, out: &mut Vec<usize>, ins: &impl Instrument) {
        out.clear();
        let pieces = self.pieces;
        let mut scanned = 0u64;
        for blk in 0..self.blocks {
            if self.block_counts[blk * pieces + piece].load(Ordering::Relaxed) == 0 {
                continue;
            }
            let span = self.block_span(blk);
            scanned += span.len() as u64;
            for i in span {
                if self.piece_of[i].load(Ordering::Relaxed) as usize == piece {
                    out.push(i + 1);
                }
            }
        }
        // Histogram row reads plus the contributing blocks' piece_of
        // sweeps.
        ins.bytes(self.blocks as u64 * 4 + scanned * 4);
    }

    /// Publishes `values[r]` into `out_perm[lo + r]` as untagged final
    /// values, consulting `keep_going` every [`PUBLISH_CONSULT_EVERY`]
    /// slots so chaos scripts can crash a worker mid-unit. Returns
    /// `false` on abandonment — the unit is then torn (mixed tags),
    /// which is exactly the state [`ShardedSortJob::publish_unit`]
    /// recovers from on redo.
    fn publish_final<P: Participation>(
        &self,
        lo: usize,
        values: &[usize],
        fwd: &mut ForwardAbandon<'_, '_, P>,
        ins: &impl Instrument,
    ) -> bool {
        for (r, &v) in values.iter().enumerate() {
            debug_assert_eq!(v & PENDING, 0, "finals are untagged");
            self.out_perm[lo + r].store(v, Ordering::Release);
            if (r + 1) % PUBLISH_CONSULT_EVERY == 0 {
                ins.checkpoint();
                if !fwd.keep_going() {
                    return false;
                }
            }
        }
        self.moves.fetch_add(values.len() as u64, Ordering::Relaxed);
        ins.bytes(values.len() as u64 * 8);
        true
    }

    /// Classifies every element of partition block `blk` with the
    /// [`SplitterLadder`], storing `piece_of` and accumulating the
    /// block's per-piece histogram into `counts` (length `pieces`,
    /// zeroed by the caller). Returns the splitter comparisons
    /// performed, for the `classify_steps` telemetry. Deterministic in
    /// `(keys, blk)`, so concurrent or redone invocations write
    /// identical values everywhere.
    fn classify_block(&self, blk: usize, counts: &mut [u32]) -> u64 {
        let span = self.block_span(blk);
        if self.pieces == 1 {
            // No splitters: everything is bucket 0 and the `piece_of`
            // entries already hold their initial zeros.
            counts[0] = span.len() as u32;
            return 0;
        }
        // Interleave LANES keys per walk: the lanes descend the ladder
        // in lockstep, so the latency-bound rung-load chains overlap
        // instead of serializing (see `SplitterLadder::piece_for_lanes`).
        // The remainder tail falls back to the per-key walk.
        const LANES: usize = 8;
        let steps = self.ladder.steps_per_key() * span.len() as u64;
        let mut at = span.start;
        while at + LANES <= span.end {
            let lanes: [&K; LANES] = core::array::from_fn(|j| &self.keys[at + j]);
            for (j, piece) in self.ladder.piece_for_lanes(lanes).into_iter().enumerate() {
                self.piece_of[at + j].store(piece as u32, Ordering::Relaxed);
                counts[piece] += 1;
            }
            at += LANES;
        }
        for i in at..span.end {
            let piece = self.ladder.piece_for(&self.keys[i]);
            self.piece_of[i].store(piece as u32, Ordering::Relaxed);
            counts[piece] += 1;
        }
        steps
    }

    /// Bucket start offsets and per-block destination offsets, reduced
    /// from the fused `block_counts` histograms the partition phase
    /// published — `O(B·P)` per call, paid once per participant at
    /// fill-phase entry. Through PR 8 this began with an `O(n)` rescan
    /// of every element's classification *per participant*; the fused
    /// histograms delete that pass from every worker's critical path
    /// (the E29 measurement), and `setup_steps` pins the reduction at
    /// exactly `B·P` reads.
    fn column_offsets(&self, ins: &impl Instrument) -> (Vec<usize>, Vec<usize>) {
        let pieces = self.pieces;
        let mut offsets = vec![0usize; self.blocks * pieces];
        for (slot, count) in offsets.iter_mut().zip(&self.block_counts) {
            *slot = count.load(Ordering::Relaxed) as usize;
        }
        ins.phase_setup(self.block_counts.len() as u64);
        ins.bytes(self.block_counts.len() as u64 * 4);
        let mut starts = vec![0usize; pieces + 1];
        for piece in 0..pieces {
            let total: usize = (0..self.blocks)
                .map(|blk| offsets[blk * pieces + piece])
                .sum();
            starts[piece + 1] = starts[piece] + total;
        }
        // Convert per-block counts into absolute destination offsets.
        let mut running = starts[..pieces].to_vec();
        for blk in 0..self.blocks {
            for piece in 0..pieces {
                let count = offsets[blk * pieces + piece];
                offsets[blk * pieces + piece] = running[piece];
                running[piece] += count;
            }
        }
        (starts, offsets)
    }

    /// The element range of partition block `blk`.
    fn block_span(&self, blk: usize) -> std::ops::Range<usize> {
        let start = blk * self.pgrain;
        start..((start + self.pgrain).min(self.keys.len()))
    }

    /// The largest work unit the chunker will emit: `(τ-1)·n/S`
    /// elements, so greedy assignment's `max ≤ avg + largest` bound
    /// lands under `τ·n/S`.
    fn chunk_cap(&self) -> usize {
        let slack = self.config.max_shard_imbalance - 1.0;
        ((slack * self.keys.len() as f64 / self.shards as f64) as usize).max(1)
    }

    /// Cuts the populated buckets into work units: equality buckets
    /// into chunks of at most [`ShardedSortJob::chunk_cap`] slots
    /// (safe because their order is already final), range buckets
    /// whole. Pure in the completed classification.
    fn plan_units(&self, starts: &[usize]) -> Vec<WorkUnit> {
        let cap = self.chunk_cap();
        let mut units = Vec::new();
        for piece in 0..self.pieces {
            let (lo, hi) = (starts[piece], starts[piece + 1]);
            if lo == hi {
                continue;
            }
            if piece % 2 == 1 {
                let mut at = lo;
                while at < hi {
                    let end = (at + cap).min(hi);
                    units.push(WorkUnit {
                        lo: at,
                        hi: end,
                        equality: true,
                        piece,
                    });
                    at = end;
                }
            } else {
                units.push(WorkUnit {
                    lo,
                    hi,
                    equality: false,
                    piece,
                });
            }
        }
        units
    }

    /// Greedy largest-first (LPT) assignment of work units to shards:
    /// units sorted by size descending (position ascending on ties),
    /// each placed on the least-loaded shard, lowest index on ties.
    /// Fully deterministic, so every participant — and
    /// [`ShardedSortJob::shard_report`] — recomputes the identical
    /// assignment from the classification alone.
    fn assign_units(&self, units: &[WorkUnit]) -> Vec<Vec<WorkUnit>> {
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by_key(|&u| (Reverse(units[u].len()), units[u].lo));
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
            (0..self.shards).map(|s| Reverse((0usize, s))).collect();
        let mut assignment: Vec<Vec<WorkUnit>> = vec![Vec::new(); self.shards];
        for u in order {
            let Reverse((load, shard)) = heap.pop().expect("one slot per shard");
            assignment[shard].push(units[u]);
            heap.push(Reverse((load + units[u].len(), shard)));
        }
        assignment
    }
}

impl<K: Ord> ShardedSortJob<K> {
    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the job is empty (never true; `new` requires 2+ keys).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The shard count `S`.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The normalized robustness knobs this job runs under.
    pub fn config(&self) -> ShardConfig {
        self.config
    }

    /// Bucket count `P = 2d + 1` for `d` distinct splitters — range and
    /// equality buckets interleaved in key order.
    pub fn buckets(&self) -> usize {
        self.pieces
    }

    /// The strictly increasing splitters the deduplicating sampler
    /// chose at construction — what the classify kernel walks. Exposed
    /// so the E26e classify timing can run [`piece_by_search`] and the
    /// [`SplitterLadder`] over the exact splitter set a real job uses.
    pub fn splitters(&self) -> &[K] {
        self.ladder.splitters()
    }

    /// Auxiliary bytes the Fill/shard pipeline allocates beyond the
    /// output permutation: the `B·P·8` destination-offset table every
    /// fill participant reduces privately (the E26f `aux_bytes ≤ B·P·8`
    /// pin).
    pub fn aux_bytes(&self) -> u64 {
        (self.blocks * self.pieces) as u64 * 8
    }

    /// Elements per partition block.
    pub fn partition_grain(&self) -> usize {
        self.pgrain
    }

    /// Partition block count `B` (the fill phase's job count).
    pub fn partition_blocks(&self) -> usize {
        self.blocks
    }

    /// Whether phase 1 (classification) is complete.
    fn partition_done(&self) -> bool {
        self.partition_wat.all_done()
    }

    /// Whether phase 2 (bucket fill) is complete.
    fn fill_done(&self) -> bool {
        self.fill_wat.all_done()
    }

    /// Whether the sorted permutation is fully computed.
    pub fn is_complete(&self) -> bool {
        self.shard_wat.all_done()
    }

    /// A structured snapshot of the sharded pipeline's progress: the
    /// three WAT frontiers folded into a [`ProgressReport`] so the
    /// sharded path plugs into the same [`crate::Watchdog`] /
    /// [`crate::WatchdogRegistry`] machinery as the single-tree
    /// [`SortJob`](crate::SortJob). Partition and fill jobs fold into
    /// the report's build frontier, shard-sort claims into its scatter
    /// frontier.
    ///
    /// There are no per-participant heartbeat slots on this path, so
    /// `workers` is empty and `tracked_slots` is zero; health
    /// classification then rides entirely on frontier movement, which
    /// the WATs keep exact. Two successive observations with no
    /// frontier motion classify [`Wedged`](crate::Health::Wedged), a
    /// crawling cohort [`Progressing`](crate::Health::Progressing) —
    /// exactly the verdicts the heartbeat view would give, minus the
    /// per-thread reaped/stalled split.
    pub fn progress(&self) -> ProgressReport {
        let phase = if self.fill_done() {
            SortPhase::ShardSort
        } else if self.partition_done() {
            SortPhase::Fill
        } else {
            SortPhase::Partition
        };
        ProgressReport {
            complete: self.is_complete(),
            phase,
            participants: self.participants.load(Ordering::Relaxed),
            workers: Vec::new(),
            tracked_slots: 0,
            aliased_participants: 0,
            build_jobs_done: self.partition_wat.done_jobs() + self.fill_wat.done_jobs(),
            build_jobs_total: self.partition_wat.jobs() + self.fill_wat.jobs(),
            scatter_jobs_done: self.shard_wat.done_jobs(),
            scatter_jobs_total: self.shard_wat.jobs(),
        }
    }

    /// The sorted permutation: entry `r` is the index (1-based) of the
    /// rank-`r + 1` element — the same contract as
    /// [`crate::SortJob::permutation`], and bit-identical to it for the
    /// same keys (pinned by the differential suite).
    ///
    /// # Panics
    ///
    /// Panics if the sort is not complete.
    pub fn permutation(&self) -> Vec<usize> {
        assert!(self.is_complete(), "sort not complete");
        self.out_perm
            .iter()
            .map(|slot| {
                let raw = slot.load(Ordering::Acquire);
                debug_assert_eq!(
                    raw & PENDING,
                    0,
                    "a complete job holds only final (untagged) values"
                );
                raw
            })
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
    /// leaving the job intact.
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
            self.out_perm
                .iter()
                .map(|slot| self.keys[slot.load(Ordering::Acquire) - 1].clone()),
        );
    }
}

impl<K: Ord + Clone> ShardedSortJob<K> {
    /// Per-shard and per-bucket statistics for the completed run — the
    /// payload [`crate::WaitFreeSorter::sort_sharded_with_report`]
    /// attaches to its [`crate::SortReport`]. Shard sizes are the
    /// greedily assigned unit loads (recomputed from the same pure
    /// function the workers use), so
    /// [`crate::ShardReport::imbalance`] measures exactly the balance
    /// the assignment achieved against the requested
    /// [`ShardConfig::max_shard_imbalance`].
    ///
    /// # Panics
    ///
    /// Panics if the sort is not complete (sizes are only meaningful
    /// once classification has finished).
    pub fn shard_report(&self) -> ShardReport {
        assert!(self.is_complete(), "sort not complete");
        // Column sums of the fused per-block histograms — O(B·P), the
        // same reduction fill-phase entry runs, instead of rescanning
        // all n classifications.
        let mut piece_sizes = vec![0usize; self.pieces];
        for (idx, count) in self.block_counts.iter().enumerate() {
            piece_sizes[idx % self.pieces] += count.load(Ordering::Relaxed) as usize;
        }
        let mut starts = vec![0usize; self.pieces + 1];
        for piece in 0..self.pieces {
            starts[piece + 1] = starts[piece] + piece_sizes[piece];
        }
        let assignment = self.assign_units(&self.plan_units(&starts));
        let per_shard: Vec<ShardStat> = (0..self.shards)
            .map(|shard| ShardStat {
                size: assignment[shard].iter().map(WorkUnit::len).sum(),
                claims: self.shard_claims[shard].load(Ordering::Relaxed),
            })
            .collect();
        let buckets: Vec<BucketStat> = piece_sizes
            .iter()
            .enumerate()
            .map(|(piece, &size)| BucketStat {
                size,
                equality: piece % 2 == 1,
            })
            .collect();
        let equality_buckets = buckets.iter().filter(|b| b.equality && b.size > 0).count();
        ShardReport {
            shards: self.shards,
            partition_blocks: self.blocks,
            partition_grain: self.pgrain,
            per_shard,
            buckets,
            equality_buckets,
            requested_imbalance: self.config.max_shard_imbalance,
            aux_bytes: self.aux_bytes(),
            moves: self.moves.load(Ordering::Relaxed),
            cycle_restarts: self.cycle_restarts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::QuitAfter;

    fn mixed_keys(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 2654435761) % 1013).collect()
    }

    #[test]
    fn single_participant_sorts_across_shard_counts() {
        for shards in [1, 2, 8, 64] {
            let keys = mixed_keys(500);
            let mut expect = keys.clone();
            expect.sort_unstable();
            let job = ShardedSortJob::new(keys, shards);
            job.run();
            assert!(job.is_complete());
            assert_eq!(job.into_sorted(), expect, "shards {shards}");
        }
    }

    #[test]
    fn permutation_matches_single_tree_job_exactly() {
        // Duplicate-heavy keys: the tie-break order is the hard part.
        let keys: Vec<u64> = (0..600).map(|i| (i * 7) % 13).collect();
        let single = crate::SortJob::new(keys.clone());
        single.run();
        for shards in [1, 2, 8, 64] {
            let sharded = ShardedSortJob::new(keys.clone(), shards);
            sharded.run();
            assert_eq!(
                sharded.permutation(),
                single.permutation(),
                "shards {shards}"
            );
        }
    }

    #[test]
    fn randomized_allocation_sorts() {
        let keys = mixed_keys(800);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let job = ShardedSortJob::with_workers(keys, NativeAllocation::Randomized, 2, 8);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let job = &job;
                s.spawn(move || job.run());
            }
        });
        assert_eq!(job.into_sorted(), expect);
    }

    #[test]
    fn quitter_then_late_joiner_completes() {
        for allocation in [
            NativeAllocation::Deterministic,
            NativeAllocation::Randomized,
        ] {
            // Sweep the abandonment point across the whole run so every
            // phase boundary — including mid-inner-sort — is hit.
            for budget in (1..200).step_by(13) {
                let keys = mixed_keys(300);
                let mut expect = keys.clone();
                expect.sort_unstable();
                let job = ShardedSortJob::with_workers(keys, allocation, 2, 8);
                job.participate(&mut QuitAfter(budget));
                job.run();
                assert!(job.is_complete());
                assert_eq!(job.into_sorted(), expect, "{allocation:?} budget {budget}");
            }
        }
    }

    #[test]
    fn all_equal_keys_spread_across_shards() {
        // The PR-5 stride sampler collapsed an all-equal input into one
        // shard (imbalance == S). Deduplicated splitters put the whole
        // input into one equality bucket, and chunked assignment
        // spreads it: the measured imbalance must respect the default
        // τ = 2.0.
        let keys = vec![7u64; 100];
        let job = ShardedSortJob::new(keys.clone(), 16);
        job.run();
        let report = job.shard_report();
        assert_eq!(report.equality_buckets, 1, "one equality bucket holds all");
        assert!(
            report.imbalance() <= 2.0,
            "imbalance {} exceeds requested 2.0",
            report.imbalance()
        );
        assert!(
            report.per_shard.iter().filter(|s| s.size > 0).count() > 1,
            "chunking must engage more than one shard"
        );
        assert_eq!(job.into_sorted(), keys);
    }

    #[test]
    fn empty_and_singleton_shards_are_harmless() {
        // Fewer work units than shards: the unassigned shards stay
        // empty and their claims publish nothing.
        let keys = vec![3u64, 1, 4, 1, 5];
        let job = ShardedSortJob::new(keys.clone(), 16);
        job.run();
        let report = job.shard_report();
        assert_eq!(report.per_shard.iter().map(|s| s.size).sum::<usize>(), 5);
        assert!(report.per_shard.iter().any(|s| s.size == 0));
        assert_eq!(job.into_sorted(), vec![1, 1, 3, 4, 5]);
    }

    #[test]
    fn shard_report_counts_sizes_and_claims() {
        let keys = mixed_keys(2000);
        let job = ShardedSortJob::new(keys, 8);
        job.run();
        let report = job.shard_report();
        assert_eq!(report.shards, 8);
        assert_eq!(report.per_shard.len(), 8);
        assert_eq!(report.per_shard.iter().map(|s| s.size).sum::<usize>(), 2000);
        // A lone crash-free worker claims each shard exactly once.
        assert!(report.per_shard.iter().all(|s| s.claims == 1));
        assert!(report.imbalance() >= 1.0);
        assert_eq!(report.partition_blocks, job.partition_blocks());
        assert_eq!(report.partition_grain, job.partition_grain());
        // The per-bucket view covers the input too, and the requested
        // balance target rides along for achieved-vs-requested checks.
        assert_eq!(report.buckets.len(), job.buckets());
        assert_eq!(report.buckets.iter().map(|b| b.size).sum::<usize>(), 2000);
        assert_eq!(report.requested_imbalance, 2.0);
        assert!(report.within_requested());
    }

    #[test]
    fn recommended_shards_scales_and_clamps() {
        assert_eq!(recommended_shards(100, 1), 1);
        assert_eq!(recommended_shards(100, 4), 4);
        assert_eq!(recommended_shards(100_000, 4), 12);
        assert_eq!(recommended_shards(10_000_000, 4), 256);
        assert_eq!(recommended_shards(3, 64), 3, "never more shards than keys");
        assert_eq!(recommended_shards(0, 4), 1);
    }

    #[test]
    fn splitters_are_deduplicated_and_balance_duplicates() {
        // Ten distinct values, 32 shards: the old sampler emitted 31
        // splitters with duplicates and could populate at most ten
        // shards; the robust sampler deduplicates (so splitters are
        // strictly increasing), every value gets an equality bucket,
        // and chunking spreads the load across more shards than there
        // are distinct values.
        let keys: Vec<u64> = (0..1000).map(|i| i % 10).collect();
        let job = ShardedSortJob::new(keys, 32);
        assert!(job.splitters().windows(2).all(|w| w[0] < w[1]));
        job.run();
        let report = job.shard_report();
        assert_eq!(report.equality_buckets, 10, "one per distinct value");
        assert!(
            report.per_shard.iter().filter(|s| s.size > 0).count() > 10,
            "chunked equality buckets must engage more shards than distinct values"
        );
        assert!(
            report.imbalance() <= 2.0,
            "imbalance {}",
            report.imbalance()
        );
    }

    #[test]
    fn sample_splitters_dedups_all_equal_samples() {
        // The regression at sampler granularity: all-equal keys used to
        // yield `shards - 1` copies of the same splitter.
        let splitters = sample_splitters(&vec![7u64; 500], 16, 8);
        assert_eq!(splitters, vec![7]);
        // And a two-valued input yields exactly the two values.
        let two: Vec<u64> = (0..500).map(|i| (i % 2) * 9).collect();
        assert_eq!(sample_splitters(&two, 16, 8), vec![0, 9]);
    }

    #[test]
    fn multi_level_recursion_matches_single_tree() {
        // A tight τ shrinks the chunk cap below the range-bucket sizes,
        // so max_levels = 2 re-shards them one level down; the
        // permutation must stay bit-identical to the single tree.
        let keys = mixed_keys(5000);
        let single = crate::SortJob::new(keys.clone());
        single.run();
        for max_levels in [2, 3] {
            let config = ShardConfig {
                overpartition_factor: 1,
                max_shard_imbalance: 1.2,
                max_levels,
            };
            let job = ShardedSortJob::with_config(
                keys.clone(),
                NativeAllocation::Deterministic,
                2,
                2,
                config,
            );
            job.run();
            assert!(job.is_complete());
            assert_eq!(
                job.permutation(),
                single.permutation(),
                "max_levels {max_levels}"
            );
        }
    }

    #[test]
    fn config_normalization_tames_degenerate_knobs() {
        let wild = ShardConfig {
            overpartition_factor: 0,
            max_shard_imbalance: f64::NAN,
            max_levels: 0,
        }
        .normalized();
        assert_eq!(wild, ShardConfig::default().normalized());
        let low = ShardConfig {
            overpartition_factor: 1_000_000,
            max_shard_imbalance: 0.5,
            max_levels: 99,
        }
        .normalized();
        assert_eq!(low.overpartition_factor, 64);
        assert_eq!(low.max_shard_imbalance, 2.0);
        assert_eq!(low.max_levels, 4);
        // Degenerate knobs still sort (and keep the stable permutation).
        let keys = mixed_keys(400);
        let single = crate::SortJob::new(keys.clone());
        single.run();
        let job = ShardedSortJob::with_config(
            keys,
            NativeAllocation::Deterministic,
            2,
            8,
            ShardConfig {
                overpartition_factor: 0,
                max_shard_imbalance: -3.0,
                max_levels: 0,
            },
        );
        job.run();
        assert_eq!(job.permutation(), single.permutation());
    }

    #[test]
    #[should_panic(expected = "at least two keys")]
    fn rejects_tiny_input() {
        ShardedSortJob::new(vec![1], 4);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn rejects_zero_shards() {
        ShardedSortJob::new(vec![2, 1], 0);
    }

    #[test]
    #[should_panic(expected = "sort not complete")]
    fn permutation_before_completion_panics() {
        ShardedSortJob::new(vec![2, 1], 2).permutation();
    }

    #[test]
    fn try_with_workers_hands_back_rejected_keys() {
        let det = NativeAllocation::Deterministic;
        // Every shape the panicking constructor rejects comes back as
        // Err with the keys intact for a sequential fallback.
        match ShardedSortJob::try_with_workers(vec![1u64], det, 2, 4) {
            Err(keys) => assert_eq!(keys, vec![1]),
            Ok(_) => panic!("tiny input must be rejected"),
        }
        assert!(ShardedSortJob::try_with_workers(vec![2u64, 1], det, 0, 4).is_err());
        assert!(ShardedSortJob::try_with_workers(vec![2u64, 1], det, 2, 0).is_err());
        let job = ShardedSortJob::try_with_workers(vec![3u64, 1, 2], det, 2, 2)
            .expect("valid shape constructs");
        job.run();
        assert_eq!(job.into_sorted(), vec![1, 2, 3]);
    }

    #[test]
    fn ladder_matches_binary_search_on_equality_edges() {
        // The folded equality rung's boundary cases: keys equal to the
        // first and last splitter, keys just off every splitter, and
        // keys outside the whole splitter range.
        let splitters = vec![10u64, 20, 30, 40, 50];
        let ladder = SplitterLadder::new(&splitters);
        for key in [0, 9, 10, 11, 15, 20, 29, 30, 31, 40, 49, 50, 51, 99] {
            assert_eq!(
                ladder.piece_for(&key),
                piece_by_search(&splitters, &key),
                "key {key}"
            );
        }
        assert_eq!(ladder.piece_for(&10), 1, "first splitter's equality bucket");
        assert_eq!(ladder.piece_for(&50), 9, "last splitter's equality bucket");
        assert_eq!(ladder.piece_for(&99), 10, "open-ended top range bucket");
    }

    #[test]
    fn ladder_handles_degenerate_splitter_sets() {
        // Single splitter (the all-equal input's shape after dedup):
        // exactly three buckets, the middle one the equality bucket.
        let single = SplitterLadder::new(&[7u64]);
        for key in [0u64, 6, 7, 8, 100] {
            assert_eq!(single.piece_for(&key), piece_by_search(&[7u64], &key));
        }
        assert_eq!(single.piece_for(&7), 1);
        // No splitters: everything is bucket 0 and no rungs are walked.
        let empty: SplitterLadder<u64> = SplitterLadder::new(&[]);
        assert_eq!(empty.piece_for(&42), 0);
        assert_eq!(empty.steps_per_key(), 0);
    }

    #[test]
    fn ladder_pads_to_power_of_two_with_fixed_step_count() {
        for d in 1..=40usize {
            let splitters: Vec<u64> = (0..d as u64).map(|i| i * 3 + 1).collect();
            let ladder = SplitterLadder::new(&splitters);
            assert_eq!(ladder.rungs.len(), (d + 1).next_power_of_two(), "d {d}");
            assert_eq!(
                ladder.steps_per_key(),
                u64::from(ladder.rungs.len().trailing_zeros()) + 2
            );
            // Exhaustive key sweep across every boundary at this d.
            for key in 0..=(3 * d as u64 + 2) {
                assert_eq!(
                    ladder.piece_for(&key),
                    piece_by_search(&splitters, &key),
                    "d {d} key {key}"
                );
            }
        }
    }

    #[test]
    fn interleaved_lanes_match_the_per_key_walk() {
        // The block kernel classifies full chunks through the
        // interleaved walk and the tail through `piece_for`; pin the
        // two bit-identical across splitter counts that straddle the
        // padding boundaries, including duplicate-heavy key streams.
        for d in [1usize, 2, 5, 7, 8, 15, 33] {
            let splitters: Vec<u64> = (0..d as u64).map(|i| i * 5 + 2).collect();
            let ladder = SplitterLadder::new(&splitters);
            let keys: Vec<u64> = (0..64u64).map(|i| (i * 11) % (5 * d as u64 + 4)).collect();
            for chunk in keys.chunks_exact(8) {
                let lanes: [&u64; 8] = core::array::from_fn(|j| &chunk[j]);
                let got = ladder.piece_for_lanes(lanes);
                for (j, key) in chunk.iter().enumerate() {
                    assert_eq!(got[j], ladder.piece_for(key), "d {d} key {key}");
                }
            }
        }
        let empty: SplitterLadder<u64> = SplitterLadder::new(&[]);
        assert_eq!(empty.piece_for_lanes([&1u64, &2, &3, &4]), [0; 4]);
    }

    #[test]
    fn ladder_matches_search_across_large_padding_boundaries() {
        // The splitter counts a factor-64 config reaches at high shard
        // counts, straddling the power-of-two paddings (1023 pads to
        // 1024 rungs, 1024 to 2048, ...). Every key on, between, and
        // outside the splitters, through both the per-key and the
        // interleaved walk.
        for d in [1023usize, 1024, 1025, 2047, 2048, 4096] {
            let splitters: Vec<u64> = (0..d as u64).map(|i| i * 3 + 1).collect();
            let ladder = SplitterLadder::new(&splitters);
            assert_eq!(ladder.rungs.len(), (d + 1).next_power_of_two(), "d {d}");
            assert_eq!(ladder.splitters(), &splitters[..]);
            let keys: Vec<u64> = (0..=(3 * d as u64 + 8)).collect();
            for chunk in keys.chunks(8) {
                let expect: Vec<usize> = chunk
                    .iter()
                    .map(|k| piece_by_search(&splitters, k))
                    .collect();
                let walked: Vec<usize> = chunk.iter().map(|k| ladder.piece_for(k)).collect();
                assert_eq!(walked, expect, "d {d} keys {chunk:?}");
                if let Ok(lanes) = <[&u64; 8]>::try_from(chunk.iter().collect::<Vec<_>>()) {
                    assert_eq!(ladder.piece_for_lanes(lanes).to_vec(), expect, "d {d}");
                }
            }
        }
    }

    fn stable_permutation(keys: &[u64]) -> Vec<usize> {
        let mut perm: Vec<usize> = (1..=keys.len()).collect();
        perm.sort_by_key(|&i| (keys[i - 1], i));
        perm
    }

    fn two_worker_job(keys: Vec<u64>) -> ShardedSortJob<u64> {
        ShardedSortJob::with_workers(keys, NativeAllocation::Deterministic, 2, 8)
    }

    #[test]
    fn permutation_matches_stable_oracle_across_shapes() {
        // Every shape class the slot protocol special-cases — range
        // heavy, duplicate heavy (equality units final at fill),
        // pre-sorted (run units published as they are), and all-equal.
        let shapes: Vec<(&str, Vec<u64>)> = vec![
            ("mixed", mixed_keys(700)),
            ("dupes", (0..700).map(|i| (i * 7) % 13).collect()),
            ("sorted", (0..700).collect()),
            ("reversed", (0..700).rev().collect()),
            ("all_equal", vec![9u64; 700]),
        ];
        for (name, keys) in shapes {
            let expect = stable_permutation(&keys);
            let job = two_worker_job(keys);
            job.run();
            assert_eq!(job.permutation(), expect, "{name}");
            assert_eq!(
                job.shard_report().cycle_restarts,
                0,
                "{name}: a crash-free single-threaded run never tears a unit"
            );
        }
    }

    #[test]
    fn in_place_survives_abandonment_at_every_budget() {
        // Whatever torn state the quitter leaves — a half-filled block,
        // a half-published unit — the late joiner must recover to the
        // exact stable permutation with no element duplicated or
        // dropped.
        let keys = mixed_keys(300);
        let expect = stable_permutation(&keys);
        for allocation in [
            NativeAllocation::Deterministic,
            NativeAllocation::Randomized,
        ] {
            for budget in (1..200).step_by(13) {
                let job = ShardedSortJob::with_workers(keys.clone(), allocation, 2, 8);
                job.participate(&mut QuitAfter(budget));
                job.run();
                assert!(job.is_complete());
                assert_eq!(job.permutation(), expect, "{allocation:?} budget {budget}");
            }
        }
    }

    #[test]
    fn torn_unit_is_rebuilt_and_counted() {
        // Reproduce exactly the state a worker crashed mid-publication
        // leaves behind — some of a range unit's slots already final
        // (untagged), the rest still pending — and pin that the next
        // claimant refuses the torn snapshot, rebuilds the unit's fill
        // order from the stable classification, counts the restart,
        // and still lands on the stable permutation.
        let keys: Vec<u64> = (0..600).rev().collect();
        let expect = stable_permutation(&keys);
        let job = two_worker_job(keys);
        let ins = crate::metrics::NoInstrument;
        let mut p = RunToCompletion;
        job.partition_phase(0, 2, &mut p, &ins);
        assert!(job.partition_done());
        let starts = job.fill_phase(0, 2, &mut p, &ins);
        assert!(job.fill_done());
        let units = job.plan_units(&starts);
        let unit = units
            .iter()
            .find(|u| !u.equality && u.len() > 1)
            .expect("a reversed input has multi-element range buckets");
        // Untag the unit's first slot, as the crashed claimant's one
        // completed final store would have.
        let raw = job.out_perm[unit.lo].load(Ordering::Relaxed);
        assert_ne!(raw & PENDING, 0, "range slots leave the fill tagged");
        job.out_perm[unit.lo].store(raw & !PENDING, Ordering::Relaxed);
        job.run();
        assert!(job.is_complete());
        let report = job.shard_report();
        assert!(
            report.cycle_restarts >= 1,
            "the mixed-tag unit must be detected and rebuilt"
        );
        assert_eq!(job.permutation(), expect);
    }

    #[test]
    fn aux_bytes_are_the_offsets_table_alone() {
        let job = two_worker_job(mixed_keys(2000));
        let table = (job.partition_blocks() * job.buckets()) as u64 * 8;
        assert_eq!(job.aux_bytes(), table, "the B·P offsets table only");
        job.run();
        let report = job.shard_report();
        assert_eq!(report.aux_bytes, table);
        let range_slots: usize = report
            .buckets
            .iter()
            .filter(|b| !b.equality)
            .map(|b| b.size)
            .sum();
        assert_eq!(
            report.moves,
            (2000 + range_slots) as u64,
            "a crash-free lone worker fills every slot once and republishes each range slot once"
        );
    }
}
