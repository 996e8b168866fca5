//! Native sort telemetry: per-worker counters behind a crate-private
//! `Instrument` handle, aggregated into a [`SortReport`].
//!
//! The PRAM simulator measures the paper's quantities directly
//! (`pram::Metrics` counts every shared-memory operation and charges
//! QRQW time); real threads have no such vantage point, so this module
//! gives each worker a private counter block — a [`MetricSlot`] — that it
//! increments with plain (non-atomic) stores as it runs. Slots are
//! cache-line padded so two workers' live counters never share a line,
//! and nothing is read until the workers have joined.
//!
//! Instrumentation is threaded through the phases as a generic
//! `Instrument` parameter. The uninstrumented entry points pass
//! `NoInstrument`, whose methods are empty `#[inline]` bodies — after
//! monomorphization the plain `sort` path carries no trace of the
//! counters at all.
//!
//! The headline statistic is [`SortReport::cas_failure_rate`]: the
//! fraction of child-pointer `compare_exchange` attempts that lost a
//! race. A CAS is only attempted after the slot was observed `EMPTY`
//! (Figure 4's read-then-CAS), so a failure is always evidence that
//! another thread wrote the same cell concurrently — the closest native
//! analogue of the paper's §1.2 contention measure ("the maximum number
//! of concurrent accesses to any single variable"). See DESIGN.md §9 for
//! what the proxy does and does not capture.

use std::cell::Cell;
use std::time::Duration;

use crate::watchdog::SortPhase;

/// Phase-1 (build) counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildMetrics {
    /// Child-pointer `compare_exchange` attempts. Each is issued only
    /// after the slot was observed `EMPTY`, so single-threaded runs see
    /// exactly `n - 1` attempts (one successful install per element).
    pub cas_attempts: u64,
    /// Attempts that lost the slot to a concurrent writer — the
    /// contention proxy. Zero in any single-threaded run.
    pub cas_failures: u64,
    /// Tree levels stepped during insertion descents (one per node
    /// visited on the root-to-install path, install level included).
    /// Matches the simulator's per-level CAS count for the same input.
    pub descent_steps: u64,
    /// Build-WAT job claims: elements this worker inserted, duplicates
    /// included. Counted per *element* regardless of WAT grain, so the
    /// figure stays comparable across grain settings.
    pub claims: u64,
    /// Build-WAT leaf blocks this worker entered — the structure-level
    /// claim traffic the grain amortizes. Equals `claims` at grain 1;
    /// roughly `claims / grain` otherwise.
    pub block_claims: u64,
    /// Build-WAT bookkeeping steps: internal-node hops (deterministic
    /// WAT) or non-claiming probes (LC-WAT).
    pub probes: u64,
}

/// Counters for the tree-walking phases 2 (sum) and 3 (place).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalMetrics {
    /// Nodes entered (a skip still counts as an entry).
    pub visits: u64,
    /// Entries cut short because another worker had already completed
    /// the subtree (`size > 0` / `place_done` observed set).
    pub skips: u64,
}

/// Counters for one WAT-driven phase of the sharded path (partition,
/// fill, or shard sort — see [`crate::ShardedSortJob`]). The unit a
/// `claim` counts differs per phase: one *element classified*
/// (partition), one *block written into the buckets* (fill), or one
/// *shard entered* (shard sort). All three are zero on the single-tree
/// path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardPhaseMetrics {
    /// WAT job claims this worker executed, duplicates (redone work)
    /// included.
    pub claims: u64,
    /// WAT leaf blocks entered (see [`BuildMetrics::block_claims`]).
    /// Equals `claims` in the fill and shard-sort phases, whose WATs run
    /// at grain 1.
    pub block_claims: u64,
    /// WAT bookkeeping steps (internal hops / non-claiming probes).
    pub probes: u64,
    /// Phase-entry bookkeeping steps. Only the fill phase records any:
    /// one per `(block, bucket)` cell of the fused-histogram reduction
    /// at [`crate::ShardedSortJob`] fill-phase entry — exactly `B·P`
    /// per participant, the red-first pin that no participant rescans
    /// the `n` classifications to enter the phase.
    pub setup_steps: u64,
    /// Batch classify-kernel invocations: partition blocks this worker
    /// classified, redos included. Zero outside the partition phase.
    pub kernel_blocks: u64,
    /// Splitter comparisons the classify kernel performed across those
    /// blocks: the [`crate::SplitterLadder`] performs a fixed count per
    /// element ([`crate::SplitterLadder::steps_per_key`]). It does not
    /// feed
    /// [`PhaseMetrics::total_ops`] — the per-element partition `claims`
    /// already represent that work at element granularity.
    pub classify_steps: u64,
    /// Shared-array and key bytes this worker read or wrote in the
    /// phase — the sharded path's memory-traffic ledger (E26f). Counts
    /// `keys`/`piece_of`/histogram/`out_perm` traffic plus key clones
    /// into unit-sort inputs; private scratch bookkeeping and the inner
    /// unit sorts are excluded.
    pub bytes_touched: u64,
}

/// Phase-4 (scatter) counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScatterMetrics {
    /// Scatter-WAT job claims: rank slots this worker wrote, duplicates
    /// included. Per *element*, grain-independent (see
    /// [`BuildMetrics::claims`]).
    pub claims: u64,
    /// Scatter-WAT leaf blocks this worker entered (see
    /// [`BuildMetrics::block_claims`]).
    pub block_claims: u64,
    /// Scatter-WAT bookkeeping steps (internal hops / non-claiming
    /// probes).
    pub probes: u64,
}

/// One counter block per phase — the per-phase half of a [`SortReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseMetrics {
    /// Phase 1: pivot-tree construction.
    pub build: BuildMetrics,
    /// Phase 2: subtree sizes.
    pub sum: TraversalMetrics,
    /// Phase 3: ranks.
    pub place: TraversalMetrics,
    /// Phase 4: scatter by rank.
    pub scatter: ScatterMetrics,
    /// Sharded phase 1: splitter classification (zero on the
    /// single-tree path). A claim is one element classified.
    pub partition: ShardPhaseMetrics,
    /// Sharded phase 2: bucket writes (zero on the single-tree path).
    /// A claim is one partition block written into the buckets.
    pub fill: ShardPhaseMetrics,
    /// Sharded phase 3: shard claims (zero on the single-tree path).
    /// A claim is one shard entered; the inner per-shard sorts record
    /// into `build`/`sum`/`place`/`scatter` like any other sort.
    pub shard_sort: ShardPhaseMetrics,
}

impl PhaseMetrics {
    /// Adds `other`'s counts into `self` (worker → aggregate folding).
    pub fn absorb(&mut self, other: &PhaseMetrics) {
        self.build.cas_attempts += other.build.cas_attempts;
        self.build.cas_failures += other.build.cas_failures;
        self.build.descent_steps += other.build.descent_steps;
        self.build.claims += other.build.claims;
        self.build.block_claims += other.build.block_claims;
        self.build.probes += other.build.probes;
        self.sum.visits += other.sum.visits;
        self.sum.skips += other.sum.skips;
        self.place.visits += other.place.visits;
        self.place.skips += other.place.skips;
        self.scatter.claims += other.scatter.claims;
        self.scatter.block_claims += other.scatter.block_claims;
        self.scatter.probes += other.scatter.probes;
        for (mine, theirs) in [
            (&mut self.partition, &other.partition),
            (&mut self.fill, &other.fill),
            (&mut self.shard_sort, &other.shard_sort),
        ] {
            mine.claims += theirs.claims;
            mine.block_claims += theirs.block_claims;
            mine.probes += theirs.probes;
            mine.setup_steps += theirs.setup_steps;
            mine.kernel_blocks += theirs.kernel_blocks;
            mine.classify_steps += theirs.classify_steps;
            mine.bytes_touched += theirs.bytes_touched;
        }
    }

    /// Total counted operations across all phases — a coarse native
    /// *work* figure (the analogue of the simulator's `total_ops`).
    pub fn total_ops(&self) -> u64 {
        self.build.cas_attempts
            + self.build.descent_steps
            + self.build.claims
            + self.build.probes
            + self.sum.visits
            + self.place.visits
            + self.scatter.claims
            + self.scatter.probes
            + self.partition.claims
            + self.partition.probes
            + self.fill.claims
            + self.fill.probes
            + self.shard_sort.claims
            + self.shard_sort.probes
    }
}

/// One worker's counters for a whole `participate` call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Per-phase counts for this worker alone.
    pub phases: PhaseMetrics,
    /// `keep_going` checkpoints consulted (wait-free operation
    /// boundaries — the same events that tick the heartbeat epoch).
    pub checkpoints: u64,
    /// WAT steps (claims + probes) taken after the worker's own initial
    /// assignment was complete — Figure 2's helping traversal. A lone
    /// worker helps through everything by construction, so the share is
    /// interesting *relative to claims* when workers race: high help
    /// with few claims means the worker mostly confirmed others' work.
    /// All LC-WAT steps count as help (random probing has no reserved
    /// assignment).
    pub help_steps: u64,
}

/// One shard's vital statistics inside a [`ShardReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStat {
    /// Elements the splitters routed into this shard. Sizes sum to `n`;
    /// a skewed sample shows up here as outlier sizes.
    pub size: usize,
    /// Times the shard's sort closure was entered, across all workers.
    /// Exactly 1 per shard in a crash-free single-threaded run; higher
    /// counts mean the WAT handed the shard out again (a racing double
    /// claim, or a redo after the first claimant crashed mid-shard).
    pub claims: u64,
}

/// One overpartitioned bucket's vital statistics inside a
/// [`ShardReport`]. Buckets alternate range/equality in key order
/// (bucket `2i` holds keys strictly between splitters, `2i + 1` keys
/// equal to splitter `i`), so the vector is also the key-order layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BucketStat {
    /// Elements classified into this bucket. Bucket sizes sum to `n`.
    pub size: usize,
    /// Whether this is an equality bucket (all elements share one key
    /// value, so the bucket is publishable by a trivial fill and may be
    /// chunked across shards).
    pub equality: bool,
}

/// Per-shard telemetry for a sharded run, carried in
/// [`SortReport::shard`] by
/// [`crate::WaitFreeSorter::sort_sharded_with_report`].
#[derive(Clone, Debug, Default)]
pub struct ShardReport {
    /// Shard count `S` the job was built with.
    pub shards: usize,
    /// Partition blocks `B` (the fill phase's work units).
    pub partition_blocks: usize,
    /// Elements per partition block (the last block may be short).
    pub partition_grain: usize,
    /// Per-shard size and claim counts, indexed by shard. A shard's
    /// size is the total of the work units greedily assigned to it.
    pub per_shard: Vec<ShardStat>,
    /// Per-bucket sizes in key order (range and equality interleaved) —
    /// the overpartitioned view behind the shard assignment.
    pub buckets: Vec<BucketStat>,
    /// Number of *populated* equality buckets: how many distinct
    /// splitter values actually absorbed duplicates. An all-equal input
    /// reports exactly 1.
    pub equality_buckets: usize,
    /// The τ the job was configured with
    /// ([`crate::ShardConfig::max_shard_imbalance`]) — compare against
    /// the achieved [`ShardReport::imbalance`].
    pub requested_imbalance: f64,
    /// Auxiliary bytes the Fill/shard pipeline allocated beyond the
    /// output permutation itself: the `B·P·8` destination-offset table
    /// alone. E26f pins it at exactly `B·P·8`.
    pub aux_bytes: u64,
    /// Element moves (slot writes) across fill + shard publication,
    /// redone and raced duplicates included. A crash-free run moves
    /// every element once through the fill plus one republication per
    /// range slot — the exact count E26f pins.
    pub moves: u64,
    /// Times a range unit was found torn (mixed pending/final tags — a
    /// claimant crashed or raced mid-publish) and its fill order was
    /// rebuilt from the stable classification. Always zero in
    /// crash-free single-threaded runs.
    pub cycle_restarts: u64,
}

impl ShardReport {
    /// The largest shard's size over the ideal `n / shards` — 1.0 is a
    /// perfectly balanced split, higher means the sampled splitters let
    /// one shard swell (the quantity the `O(S log S)` oversampling
    /// bounds with high probability on random inputs).
    /// Degenerate telemetry (empty input, zero shards, all-zero shard
    /// sizes) reports a neutral 1.0 — never `NaN` or infinity, so the
    /// value is always safe to serialize and the bench validators can
    /// reject non-finite fields unconditionally.
    pub fn imbalance(&self) -> f64 {
        let n: usize = self.per_shard.iter().map(|s| s.size).sum();
        if n == 0 || self.shards == 0 {
            return 1.0;
        }
        let max = self.per_shard.iter().map(|s| s.size).max().unwrap_or(0);
        let ratio = max as f64 * self.shards as f64 / n as f64;
        if ratio.is_finite() {
            ratio
        } else {
            1.0
        }
    }

    /// Whether the achieved [`ShardReport::imbalance`] met the
    /// requested τ. Reports built by the sharded job always carry the
    /// normalized (> 1.0) request, so this is a plain comparison.
    pub fn within_requested(&self) -> bool {
        self.imbalance() <= self.requested_imbalance
    }
}

/// Aggregated telemetry for one sorting run, returned by
/// [`crate::WaitFreeSorter::sort_with_report`] /
/// [`crate::WaitFreeSorter::run_job_with_report`].
#[derive(Clone, Debug)]
pub struct SortReport {
    /// Counts summed over all workers, grouped by phase.
    pub per_phase: PhaseMetrics,
    /// Each worker's own counts, in spawn order.
    pub per_worker: Vec<WorkerMetrics>,
    /// Wall-clock time from first spawn to last join.
    pub elapsed: Duration,
    /// `build.cas_failures / build.cas_attempts`, or `0.0` when no CAS
    /// was attempted — the native §1.2 contention proxy.
    pub cas_failure_rate: f64,
    /// Per-shard statistics when the run went through the sharded path
    /// ([`crate::WaitFreeSorter::sort_sharded_with_report`]); `None` for
    /// single-tree runs.
    pub shard: Option<ShardReport>,
}

impl SortReport {
    /// Folds per-worker counts into a report.
    pub(crate) fn aggregate(per_worker: Vec<WorkerMetrics>, elapsed: Duration) -> SortReport {
        let mut per_phase = PhaseMetrics::default();
        for w in &per_worker {
            per_phase.absorb(&w.phases);
        }
        let attempts = per_phase.build.cas_attempts;
        let cas_failure_rate = if attempts == 0 {
            0.0
        } else {
            per_phase.build.cas_failures as f64 / attempts as f64
        };
        SortReport {
            per_phase,
            per_worker,
            elapsed,
            cas_failure_rate,
            shard: None,
        }
    }

    /// The report of a run that never started (inputs shorter than two
    /// keys are returned as-is without spawning workers).
    pub(crate) fn empty() -> SortReport {
        SortReport::aggregate(Vec::new(), Duration::ZERO)
    }

    /// Attaches per-shard statistics: the sharded front-ends and the
    /// service's sharded publish path call this on completed jobs.
    pub(crate) fn with_shard(mut self, shard: ShardReport) -> SortReport {
        self.shard = Some(shard);
        self
    }

    /// Total counted operations across all workers and phases.
    pub fn total_ops(&self) -> u64 {
        self.per_phase.total_ops()
    }

    /// Help steps summed over workers.
    pub fn help_steps(&self) -> u64 {
        self.per_worker.iter().map(|w| w.help_steps).sum()
    }

    /// Checkpoints summed over workers.
    pub fn checkpoints(&self) -> u64 {
        self.per_worker.iter().map(|w| w.checkpoints).sum()
    }
}

/// Counter sink consulted on the sort's hot paths. All methods default
/// to empty bodies so the uninstrumented path monomorphizes to nothing.
pub(crate) trait Instrument {
    /// The participant moved to `phase`; subsequent events belong to it.
    #[inline]
    fn enter_phase(&self, _phase: SortPhase) {}
    /// A child-pointer CAS was attempted; `failed` = lost the race.
    #[inline]
    fn cas(&self, _failed: bool) {}
    /// One level of an insertion descent.
    #[inline]
    fn descent_step(&self) {}
    /// A WAT job claim (routed to build or scatter by current phase).
    #[inline]
    fn claim(&self) {}
    /// A WAT leaf-block entry (routed by current phase). Fires once per
    /// block where `claim` fires once per item, so it neither feeds
    /// `help_steps` nor `total_ops` — the per-item claim already
    /// represents that work.
    #[inline]
    fn block_claim(&self) {}
    /// A WAT bookkeeping step (routed by current phase).
    #[inline]
    fn probe(&self) {}
    /// A sum/place node entry (routed by current phase).
    #[inline]
    fn visit(&self) {}
    /// A sum/place entry that found the subtree already complete.
    #[inline]
    fn skip(&self) {}
    /// A `keep_going` consultation.
    #[inline]
    fn checkpoint(&self) {}
    /// A batch classify kernel finished one partition block, having
    /// performed `steps` splitter comparisons (routed by current
    /// phase). Like `block_claim`, the invocation itself never feeds
    /// `help_steps` or `total_ops` — the per-item claims already do.
    #[inline]
    fn kernel_block(&self, _steps: u64) {}
    /// Phase-entry bookkeeping of `steps` elements (routed by current
    /// phase) — the fill phase's `O(B·P)` histogram reduction.
    #[inline]
    fn phase_setup(&self, _steps: u64) {}
    /// `n` bytes of shared-array or key traffic on the sharded path
    /// (routed by current phase) — the sharded path's memory ledger.
    /// Counts reads and writes of the shared arrays (`keys`,
    /// `piece_of`, histograms, `out_perm`) plus key clones into
    /// unit-sort inputs; private scratch bookkeeping is excluded, and
    /// inner single-tree unit sorts are uninstrumented for bytes.
    #[inline]
    fn bytes(&self, _n: u64) {}
    /// The worker's own initial WAT assignment is complete; subsequent
    /// claims/probes in this phase are helping steps.
    #[inline]
    fn own_assignment_done(&self) {}
}

/// The no-op sink used by the uninstrumented entry points.
pub(crate) struct NoInstrument;

impl Instrument for NoInstrument {}

/// The recording sink: interior-mutable so the work and `keep_going`
/// closures can share it, plain `Cell` stores so recording costs a
/// register-width store per event.
#[derive(Debug)]
pub(crate) struct LocalCounters {
    phase: Cell<SortPhase>,
    helping: Cell<bool>,
    build_cas_attempts: Cell<u64>,
    build_cas_failures: Cell<u64>,
    build_descent_steps: Cell<u64>,
    build_claims: Cell<u64>,
    build_block_claims: Cell<u64>,
    build_probes: Cell<u64>,
    sum_visits: Cell<u64>,
    sum_skips: Cell<u64>,
    place_visits: Cell<u64>,
    place_skips: Cell<u64>,
    scatter_claims: Cell<u64>,
    scatter_block_claims: Cell<u64>,
    scatter_probes: Cell<u64>,
    partition: ShardCells,
    fill: ShardCells,
    shard_sort: ShardCells,
    checkpoints: Cell<u64>,
    help_steps: Cell<u64>,
}

/// One sharded phase's live counters, in [`ShardPhaseMetrics`] field
/// order; the constants below name the indices.
type ShardCells = [Cell<u64>; 7];

/// Index names for the [`ShardCells`] blocks above.
const CLAIMS: usize = 0;
const BLOCK_CLAIMS: usize = 1;
const PROBES: usize = 2;
const SETUP_STEPS: usize = 3;
const KERNEL_BLOCKS: usize = 4;
const CLASSIFY_STEPS: usize = 5;
const BYTES: usize = 6;

impl Default for LocalCounters {
    fn default() -> Self {
        LocalCounters {
            phase: Cell::new(SortPhase::Build),
            helping: Cell::new(false),
            build_cas_attempts: Cell::new(0),
            build_cas_failures: Cell::new(0),
            build_descent_steps: Cell::new(0),
            build_claims: Cell::new(0),
            build_block_claims: Cell::new(0),
            build_probes: Cell::new(0),
            sum_visits: Cell::new(0),
            sum_skips: Cell::new(0),
            place_visits: Cell::new(0),
            place_skips: Cell::new(0),
            scatter_claims: Cell::new(0),
            scatter_block_claims: Cell::new(0),
            scatter_probes: Cell::new(0),
            partition: Default::default(),
            fill: Default::default(),
            shard_sort: Default::default(),
            checkpoints: Cell::new(0),
            help_steps: Cell::new(0),
        }
    }
}

#[inline]
fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

fn snapshot_cells(cells: &ShardCells) -> ShardPhaseMetrics {
    ShardPhaseMetrics {
        claims: cells[CLAIMS].get(),
        block_claims: cells[BLOCK_CLAIMS].get(),
        probes: cells[PROBES].get(),
        setup_steps: cells[SETUP_STEPS].get(),
        kernel_blocks: cells[KERNEL_BLOCKS].get(),
        classify_steps: cells[CLASSIFY_STEPS].get(),
        bytes_touched: cells[BYTES].get(),
    }
}

impl LocalCounters {
    fn snapshot(&self) -> WorkerMetrics {
        WorkerMetrics {
            phases: PhaseMetrics {
                build: BuildMetrics {
                    cas_attempts: self.build_cas_attempts.get(),
                    cas_failures: self.build_cas_failures.get(),
                    descent_steps: self.build_descent_steps.get(),
                    claims: self.build_claims.get(),
                    block_claims: self.build_block_claims.get(),
                    probes: self.build_probes.get(),
                },
                sum: TraversalMetrics {
                    visits: self.sum_visits.get(),
                    skips: self.sum_skips.get(),
                },
                place: TraversalMetrics {
                    visits: self.place_visits.get(),
                    skips: self.place_skips.get(),
                },
                scatter: ScatterMetrics {
                    claims: self.scatter_claims.get(),
                    block_claims: self.scatter_block_claims.get(),
                    probes: self.scatter_probes.get(),
                },
                partition: snapshot_cells(&self.partition),
                fill: snapshot_cells(&self.fill),
                shard_sort: snapshot_cells(&self.shard_sort),
            },
            checkpoints: self.checkpoints.get(),
            help_steps: self.help_steps.get(),
        }
    }

    #[inline]
    fn help_if_helping(&self) {
        if self.helping.get() {
            bump(&self.help_steps);
        }
    }

    /// The live counter block for the current sharded phase, if the
    /// participant is in one.
    #[inline]
    fn shard_cells(&self) -> Option<&ShardCells> {
        match self.phase.get() {
            SortPhase::Partition => Some(&self.partition),
            SortPhase::Fill => Some(&self.fill),
            SortPhase::ShardSort => Some(&self.shard_sort),
            _ => None,
        }
    }
}

impl Instrument for LocalCounters {
    #[inline]
    fn enter_phase(&self, phase: SortPhase) {
        self.phase.set(phase);
        // Each phase's WAT hands out a fresh initial assignment.
        self.helping.set(false);
    }

    #[inline]
    fn cas(&self, failed: bool) {
        bump(&self.build_cas_attempts);
        if failed {
            bump(&self.build_cas_failures);
        }
    }

    #[inline]
    fn descent_step(&self) {
        bump(&self.build_descent_steps);
    }

    #[inline]
    fn claim(&self) {
        match self.phase.get() {
            SortPhase::Scatter => bump(&self.scatter_claims),
            SortPhase::Partition => bump(&self.partition[CLAIMS]),
            SortPhase::Fill => bump(&self.fill[CLAIMS]),
            SortPhase::ShardSort => bump(&self.shard_sort[CLAIMS]),
            _ => bump(&self.build_claims),
        }
        self.help_if_helping();
    }

    #[inline]
    fn block_claim(&self) {
        match self.phase.get() {
            SortPhase::Scatter => bump(&self.scatter_block_claims),
            SortPhase::Partition => bump(&self.partition[BLOCK_CLAIMS]),
            SortPhase::Fill => bump(&self.fill[BLOCK_CLAIMS]),
            SortPhase::ShardSort => bump(&self.shard_sort[BLOCK_CLAIMS]),
            _ => bump(&self.build_block_claims),
        }
    }

    #[inline]
    fn probe(&self) {
        match self.phase.get() {
            SortPhase::Scatter => bump(&self.scatter_probes),
            SortPhase::Partition => bump(&self.partition[PROBES]),
            SortPhase::Fill => bump(&self.fill[PROBES]),
            SortPhase::ShardSort => bump(&self.shard_sort[PROBES]),
            _ => bump(&self.build_probes),
        }
        self.help_if_helping();
    }

    #[inline]
    fn visit(&self) {
        match self.phase.get() {
            SortPhase::Place => bump(&self.place_visits),
            _ => bump(&self.sum_visits),
        }
    }

    #[inline]
    fn skip(&self) {
        match self.phase.get() {
            SortPhase::Place => bump(&self.place_skips),
            _ => bump(&self.sum_skips),
        }
    }

    #[inline]
    fn checkpoint(&self) {
        bump(&self.checkpoints);
    }

    #[inline]
    fn kernel_block(&self, steps: u64) {
        if let Some(cells) = self.shard_cells() {
            bump(&cells[KERNEL_BLOCKS]);
            let c = &cells[CLASSIFY_STEPS];
            c.set(c.get() + steps);
        }
    }

    #[inline]
    fn phase_setup(&self, steps: u64) {
        if let Some(cells) = self.shard_cells() {
            let c = &cells[SETUP_STEPS];
            c.set(c.get() + steps);
        }
    }

    #[inline]
    fn bytes(&self, n: u64) {
        if let Some(cells) = self.shard_cells() {
            let c = &cells[BYTES];
            c.set(c.get() + n);
        }
    }

    #[inline]
    fn own_assignment_done(&self) {
        self.helping.set(true);
    }
}

/// One worker's live counter block, padded to two cache lines (the
/// span hardware prefetchers treat as a unit on x86) so adjacent
/// workers' hot stores never false-share. Hand one slot to each worker
/// via [`crate::SortJob::participate_instrumented`] and read it back
/// with [`MetricSlot::snapshot`] once the worker has returned.
///
/// A slot is `Send` but deliberately not `Sync` (the counters are plain
/// `Cell`s): exactly one thread may record into it at a time.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct MetricSlot {
    counters: LocalCounters,
}

impl MetricSlot {
    /// A fresh all-zero slot.
    pub fn new() -> Self {
        MetricSlot::default()
    }

    pub(crate) fn counters(&self) -> &LocalCounters {
        &self.counters
    }

    /// The counts recorded so far, as a plain value.
    pub fn snapshot(&self) -> WorkerMetrics {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_routes_by_phase() {
        let c = LocalCounters::default();
        c.cas(false);
        c.cas(true);
        c.descent_step();
        c.block_claim();
        c.claim();
        c.probe();
        c.visit();
        c.enter_phase(SortPhase::Sum);
        c.visit();
        c.skip();
        c.enter_phase(SortPhase::Place);
        c.visit();
        c.enter_phase(SortPhase::Scatter);
        c.block_claim();
        c.claim();
        c.claim();
        c.probe();
        c.checkpoint();
        let m = c.snapshot();
        assert_eq!(m.phases.build.cas_attempts, 2);
        assert_eq!(m.phases.build.cas_failures, 1);
        assert_eq!(m.phases.build.descent_steps, 1);
        assert_eq!(m.phases.build.claims, 1);
        assert_eq!(m.phases.build.block_claims, 1);
        assert_eq!(m.phases.build.probes, 1);
        // Build-phase visit routes to sum (only sum/place ever visit).
        assert_eq!(m.phases.sum.visits, 2);
        assert_eq!(m.phases.sum.skips, 1);
        assert_eq!(m.phases.place.visits, 1);
        assert_eq!(m.phases.scatter.claims, 2);
        assert_eq!(m.phases.scatter.block_claims, 1);
        assert_eq!(m.phases.scatter.probes, 1);
        assert_eq!(m.checkpoints, 1);
    }

    #[test]
    fn recorder_routes_sharded_phases() {
        let c = LocalCounters::default();
        c.enter_phase(SortPhase::Partition);
        c.block_claim();
        c.claim();
        c.claim();
        c.probe();
        c.kernel_block(5);
        c.kernel_block(3);
        c.bytes(100);
        c.enter_phase(SortPhase::Fill);
        c.claim();
        c.block_claim();
        c.phase_setup(12);
        c.bytes(40);
        c.enter_phase(SortPhase::ShardSort);
        c.claim();
        c.probe();
        c.bytes(7);
        // An inner per-shard sort re-enters Build mid-shard-phase; its
        // events must land in the ordinary single-tree buckets...
        c.enter_phase(SortPhase::Build);
        c.cas(false);
        c.claim();
        // Outside any sharded phase, kernel/setup/bytes events are
        // dropped (they have no single-tree analogue to route to).
        c.kernel_block(9);
        c.phase_setup(9);
        c.bytes(999);
        // ...and the shard phase resumes where it left off.
        c.enter_phase(SortPhase::ShardSort);
        c.claim();
        let m = c.snapshot();
        assert_eq!(m.phases.partition.claims, 2);
        assert_eq!(m.phases.partition.block_claims, 1);
        assert_eq!(m.phases.partition.probes, 1);
        assert_eq!(m.phases.partition.kernel_blocks, 2);
        assert_eq!(m.phases.partition.classify_steps, 8);
        assert_eq!(m.phases.partition.setup_steps, 0);
        assert_eq!(m.phases.partition.bytes_touched, 100);
        assert_eq!(m.phases.fill.claims, 1);
        assert_eq!(m.phases.fill.block_claims, 1);
        assert_eq!(m.phases.fill.setup_steps, 12);
        assert_eq!(m.phases.fill.kernel_blocks, 0);
        assert_eq!(m.phases.fill.bytes_touched, 40);
        assert_eq!(m.phases.shard_sort.bytes_touched, 7);
        assert_eq!(m.phases.shard_sort.claims, 2);
        assert_eq!(m.phases.shard_sort.probes, 1);
        assert_eq!(m.phases.build.cas_attempts, 1);
        assert_eq!(m.phases.build.claims, 1);

        // The new buckets flow through aggregation and total_ops.
        assert_eq!(m.phases.shard_sort.kernel_blocks, 0);
        assert_eq!(m.phases.shard_sort.setup_steps, 0);

        let r = SortReport::aggregate(vec![m, m], Duration::ZERO);
        assert_eq!(r.per_phase.partition.claims, 4);
        assert_eq!(r.per_phase.partition.kernel_blocks, 4);
        assert_eq!(r.per_phase.partition.classify_steps, 16);
        assert_eq!(r.per_phase.fill.claims, 2);
        assert_eq!(r.per_phase.fill.setup_steps, 24);
        assert_eq!(r.per_phase.fill.bytes_touched, 80);
        assert_eq!(r.per_phase.shard_sort.claims, 4);
        // Per worker: partition 2+1, fill 1+0, shard 2+1 (claims+probes),
        // plus build cas 1 and claim 1 — block claims never feed
        // total_ops.
        assert_eq!(r.total_ops(), 2 * 9);
        assert!(
            r.shard.is_none(),
            "plain aggregation carries no shard stats"
        );
    }

    #[test]
    fn shard_report_imbalance_is_max_over_ideal() {
        let report = ShardReport {
            shards: 4,
            partition_blocks: 2,
            partition_grain: 64,
            per_shard: vec![
                ShardStat {
                    size: 10,
                    claims: 1,
                },
                ShardStat {
                    size: 30,
                    claims: 1,
                },
                ShardStat {
                    size: 40,
                    claims: 2,
                },
                ShardStat { size: 0, claims: 1 },
            ],
            requested_imbalance: 2.0,
            ..ShardReport::default()
        };
        // max 40 over ideal 80/4 = 20 → 2.0.
        assert!((report.imbalance() - 2.0).abs() < 1e-12);
        assert!(report.within_requested());
        assert!(!ShardReport {
            requested_imbalance: 1.5,
            ..report.clone()
        }
        .within_requested());
    }

    #[test]
    fn imbalance_is_finite_for_degenerate_reports() {
        // Empty input, zero shards, all-zero shard sizes: every
        // degenerate shape must yield a neutral finite 1.0, never
        // NaN or infinity (0/0 and x/0 are the naive formula's traps).
        let empty = ShardReport {
            shards: 4,
            partition_blocks: 0,
            partition_grain: 64,
            ..ShardReport::default()
        };
        assert_eq!(empty.imbalance(), 1.0);
        let zero_shards = ShardReport::default();
        assert_eq!(zero_shards.imbalance(), 1.0);
        let all_zero_sizes = ShardReport {
            shards: 2,
            partition_blocks: 1,
            partition_grain: 64,
            per_shard: vec![
                ShardStat { size: 0, claims: 1 },
                ShardStat { size: 0, claims: 1 },
            ],
            ..ShardReport::default()
        };
        assert_eq!(all_zero_sizes.imbalance(), 1.0);
        assert!(all_zero_sizes.imbalance().is_finite());
    }

    #[test]
    fn help_steps_count_only_after_own_assignment() {
        let c = LocalCounters::default();
        c.claim();
        c.probe();
        c.own_assignment_done();
        c.claim();
        c.probe();
        // Block entries never count as help: the per-item claims inside
        // the block already do.
        c.block_claim();
        assert_eq!(c.snapshot().help_steps, 2);
        // A new phase resets the helping flag.
        c.enter_phase(SortPhase::Scatter);
        c.claim();
        assert_eq!(c.snapshot().help_steps, 2);
    }

    #[test]
    fn aggregate_computes_failure_rate() {
        let mut a = WorkerMetrics::default();
        a.phases.build.cas_attempts = 6;
        a.phases.build.cas_failures = 1;
        let mut b = WorkerMetrics::default();
        b.phases.build.cas_attempts = 2;
        b.phases.build.cas_failures = 1;
        let r = SortReport::aggregate(vec![a, b], Duration::from_millis(5));
        assert_eq!(r.per_phase.build.cas_attempts, 8);
        assert_eq!(r.per_phase.build.cas_failures, 2);
        assert!((r.cas_failure_rate - 0.25).abs() < 1e-12);
        assert_eq!(r.per_worker.len(), 2);
    }

    #[test]
    fn empty_report_has_zero_rate() {
        let r = SortReport::empty();
        assert_eq!(r.cas_failure_rate, 0.0);
        assert_eq!(r.total_ops(), 0);
        assert_eq!(r.help_steps(), 0);
        assert_eq!(r.checkpoints(), 0);
    }

    #[test]
    fn no_instrument_is_inert() {
        // Compiles and does nothing — the uninstrumented path's contract.
        let n = NoInstrument;
        n.enter_phase(SortPhase::Place);
        n.cas(true);
        n.descent_step();
        n.claim();
        n.block_claim();
        n.probe();
        n.visit();
        n.skip();
        n.checkpoint();
        n.kernel_block(3);
        n.phase_setup(7);
        n.own_assignment_done();
    }

    #[test]
    fn metric_slot_is_padded() {
        assert!(std::mem::align_of::<MetricSlot>() >= 128);
        let slot = MetricSlot::new();
        slot.counters().cas(false);
        assert_eq!(slot.snapshot().phases.build.cas_attempts, 1);
    }
}
