//! Native multi-threaded implementation of the wait-free sorting
//! algorithm of Shavit, Upfal and Zemach (PODC 1997), using std atomics.
//!
//! Where the [`wfsort`] crate runs the algorithm on a simulated CRCW PRAM
//! (to measure the quantities the paper's lemmas bound), this crate runs
//! the same three phases on real threads:
//!
//! * child pointers are installed with `compare_exchange` (Figure 4);
//! * subtree sizes and ranks are *benign races* — every writer stores the
//!   same deterministic value — published with release stores;
//! * work allocation uses the same Work Assignment Trees, so a reaped or
//!   crashed thread's work is picked up by survivors.
//!
//! The headline property carries over: [`SortJob::participate`] may be
//! called from any number of threads, joining and abandoning at will, and
//! the sort completes as long as any one participant keeps running.
//!
//! That claim is exercised by a chaos harness built into the crate:
//! [`ChaosPlan`] scripts seeded, per-worker fault schedules (crash,
//! stall, pause, jitter) injected at participation checkpoints via
//! [`ChaosParticipation`]; a [`Watchdog`] diffs heartbeat snapshots
//! ([`ProgressReport`]) to tell reaped-but-progressing runs from wedged
//! ones; and [`WaitFreeSorter::sort_with_plan`] /
//! [`WaitFreeSorter::sort_with_deadline`] expose graceful degradation as
//! ordinary sorting entry points.
//!
//! For large inputs a *sharded* path ([`ShardedSortJob`],
//! [`WaitFreeSorter::sort_sharded`]) puts sample-sort splitters in front
//! of the algorithm: partition into [`recommended_shards`] buckets, then
//! run one independent pivot-tree sort per shard, every phase driven by
//! the same Work Assignment Trees so crash recovery holds at shard
//! granularity. It computes exactly the permutation the single-tree path
//! does.
//!
//! Above the one-array front-ends sits a service layer ([`service`]):
//! [`SortService`] runs many tenants' jobs over a shared worker pool
//! with admission control, per-job deadlines and budgets, pooled
//! [`SortArena`]s, and chaos-proven tenant isolation — a [`ChaosPlan`]
//! that crashes every worker on one job strands only that job, which a
//! [`WatchdogRegistry`]-backed recovery path hands to a fresh stint.
//! The one-array front-ends themselves are thin wrappers over a single
//! [`SortOptions`] builder pipeline.
//!
//! A telemetry layer ([`metrics`]) mirrors the simulator's measurement
//! role on real threads: [`WaitFreeSorter::sort_with_report`] returns a
//! [`SortReport`] of per-phase and per-worker operation counts, with the
//! build phase's CAS-failure rate standing in for the paper's §1.2
//! contention measure (DESIGN.md §9).
//!
//! # Example
//!
//! ```
//! use wfsort_native::WaitFreeSorter;
//!
//! let data: Vec<u64> = (0..10_000).rev().collect();
//! let sorted = WaitFreeSorter::new(4).sort(&data);
//! assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//! ```
//!
//! [`wfsort`]: ../wfsort/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod fault;
mod job;
mod lcwat;
pub mod metrics;
pub mod service;
mod shard;
mod sorter;
mod tree;
mod wat;
mod watchdog;

pub use arena::SortArena;
pub use fault::{
    ChaosParticipation, ChaosPlan, CheckpointCounter, FaultAction, SharedBudget, WithDeadline,
};
pub use job::{
    descent_side, recommended_grain, NativeAllocation, Participation, QuitAfter, RunToCompletion,
    SortJob, DEFAULT_TRACKED_PARTICIPANTS,
};
pub use lcwat::AtomicLcWat;
pub use metrics::{
    BucketStat, BuildMetrics, MetricSlot, PhaseMetrics, ScatterMetrics, ShardPhaseMetrics,
    ShardReport, ShardStat, SortReport, TraversalMetrics, WorkerMetrics,
};
pub use service::{
    JobError, JobOptions, JobReport, JobResult, JobTicket, Rejected, ServiceConfig, ServiceStats,
    SortService,
};
pub use shard::{piece_by_search, recommended_shards, ShardConfig, ShardedSortJob, SplitterLadder};
pub use sorter::{sort_with_churn, SortOptions, SortOutcome, UntilFlag, WaitFreeSorter};
pub use tree::{SharedTree, Side, EMPTY};
pub use wat::{Assignment, AtomicWat};
pub use watchdog::{
    Health, ParticipantProgress, ProgressReport, SortPhase, Watchdog, WatchdogRegistry,
};
