//! Differential tests: the sharded large-N path against the single-tree
//! path, swept over the shared adversarial shape battery.
//!
//! The sharded pipeline (duplicate-robust splitter partition → bucket
//! fill → greedy bucket→shard assignment with per-unit sorts) is
//! specified to compute *exactly* the permutation the single-tree
//! [`SortJob`] computes — the fill phase preserves original-index order
//! within each bucket, so the inner sorts' `(key, local index)`
//! tie-breaks compose to the global `(key, index)` order. That lets
//! these tests compare permutations element-for-element against the
//! stable `(key, index)` oracle instead of settling for "both sorted",
//! across shard counts, thread counts, allocation flavors, robustness
//! configs, abandonment points, and chaos storms. Every job here runs
//! the in-place exchange (the Fill stages bucket contents in the output
//! permutation itself), so these are also its fault gates.
//!
//! Input shapes come from [`wait_free_sort::testshapes`], the shared
//! adversarial battery (duplicate floods, Zipf skew, pre-sorted runs,
//! periodic sawtooths) — the shapes that historically break
//! splitter-based partitioning.

use wait_free_sort::testshapes;
use wait_free_sort::wfsort_native::{
    piece_by_search, recommended_shards, ChaosParticipation, ChaosPlan, MetricSlot,
    NativeAllocation, QuitAfter, RunToCompletion, ShardConfig, ShardedSortJob, SortJob,
    SortOptions, SplitterLadder, WaitFreeSorter,
};

const SHARD_SWEEP: [usize; 4] = [1, 2, 8, 64];

/// The stable permutation computed the boring way: 1-based indices
/// ordered by `(key, index)` — the oracle both sorting paths must match.
fn stable_permutation(keys: &[u64]) -> Vec<usize> {
    let mut perm: Vec<usize> = (1..=keys.len()).collect();
    perm.sort_by_key(|&i| (keys[i - 1], i));
    perm
}

/// Single-threaded, deterministic allocation: the sharded permutation
/// must be bit-identical to the single-tree one for every adversarial
/// shape and shard count — including duplicate-heavy shapes where a
/// stability bug would sort correctly but permute differently.
#[test]
fn sharded_permutation_is_bit_identical_to_single_tree() {
    for (shape, keys) in testshapes::adversarial_suite(900, 26) {
        let single = SortJob::new(keys.clone());
        single.run();
        let expect = single.permutation();
        assert_eq!(expect, stable_permutation(&keys), "{shape}: oracle");
        for shards in SHARD_SWEEP {
            let sharded = ShardedSortJob::new(keys.clone(), shards);
            sharded.run();
            assert_eq!(
                sharded.permutation(),
                expect,
                "{shape}: S={shards} diverged from the single tree"
            );
        }
    }
}

/// The two classify kernels over the full adversarial battery: the
/// job's 8-lane [`SplitterLadder`] and the [`piece_by_search`] binary
/// search it is pinned against must route every key to the same bucket
/// over the exact splitter set the job sampled — including the
/// duplicate floods whose equality-bucket routing the ladder folds into
/// its final rung compare — and the job, sized for a one-worker cohort
/// (large partition blocks, so the interleaved walk and its per-key
/// tail both run), must still produce the stable permutation.
#[test]
fn both_kernels_are_bit_identical_across_the_adversarial_battery() {
    for (shape, keys) in testshapes::adversarial_suite(900, 26) {
        let expect = stable_permutation(&keys);
        for shards in SHARD_SWEEP {
            let job = ShardedSortJob::with_workers(
                keys.clone(),
                NativeAllocation::Deterministic,
                1,
                shards,
            );
            assert_kernels_agree(job.splitters(), &keys, &format!("{shape}: S={shards}"));
            job.run();
            assert_eq!(
                job.permutation(),
                expect,
                "{shape}: S={shards} pgrain={} diverged from the stable oracle",
                job.partition_grain()
            );
        }
    }
}

/// Classifies every key with the per-key ladder walk, the 8-lane walk
/// and the binary-search reference over `splitters`, and requires all
/// three to agree.
fn assert_kernels_agree(splitters: &[u64], keys: &[u64], what: &str) {
    let ladder = SplitterLadder::new(splitters);
    for chunk in keys.chunks(8) {
        let lanes: [&u64; 8] = std::array::from_fn(|l| &chunk[l.min(chunk.len() - 1)]);
        let walked = ladder.piece_for_lanes(lanes);
        for (l, key) in chunk.iter().enumerate() {
            let reference = piece_by_search(splitters, key);
            assert_eq!(ladder.piece_for(key), reference, "{what}: key {key}");
            assert_eq!(walked[l], reference, "{what}: key {key} in an 8-lane walk");
        }
    }
}

/// The in-place exchange over the full adversarial battery, one worker
/// with deterministic allocation: the permutation must equal the stable
/// oracle on every shape and shard count — including the duplicate
/// floods whose equality buckets the in-place fill publishes as final
/// values without any shard-phase pass — while the only auxiliary
/// allocation stays the `B·P·8`-byte offsets table and a crash-free run
/// rebuilds no unit.
#[test]
fn in_place_strategy_is_bit_identical_across_the_adversarial_battery() {
    for (shape, keys) in testshapes::adversarial_suite(900, 36) {
        let expect = stable_permutation(&keys);
        for shards in SHARD_SWEEP {
            let job = ShardedSortJob::with_workers(
                keys.clone(),
                NativeAllocation::Deterministic,
                1,
                shards,
            );
            job.run();
            assert_eq!(
                job.permutation(),
                expect,
                "{shape}: in-place S={shards} diverged from the stable oracle"
            );
            let report = job.shard_report();
            let table = (job.partition_blocks() * job.buckets()) as u64 * 8;
            assert_eq!(report.aux_bytes, table, "{shape}: S={shards}");
            assert_eq!(report.cycle_restarts, 0, "{shape}: S={shards}");
        }
    }
}

/// Four racing threads, both WAT flavors: races may reorder *who* does
/// the work but never *what* gets written — two claimants publishing
/// the same unit concurrently write byte-identical final values, so the
/// permutation is a pure function of the keys and must still match the
/// single-tree one. The sweep includes the equality-bucket boundary
/// shapes (all-equal, two-valued, runs-of-duplicates), so racing
/// workers publish run units and pivot-tree units side by side.
#[test]
fn four_thread_sharded_runs_agree_with_single_tree() {
    for (shape, keys) in testshapes::adversarial_suite(2_000, 27) {
        let expect = stable_permutation(&keys);
        for allocation in [
            NativeAllocation::Deterministic,
            NativeAllocation::Randomized,
        ] {
            for shards in SHARD_SWEEP {
                let job = ShardedSortJob::with_workers(keys.clone(), allocation, 4, shards);
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let job = &job;
                        s.spawn(move || job.run());
                    }
                });
                assert_eq!(
                    job.permutation(),
                    expect,
                    "{shape}: {allocation:?} S={shards} diverged under 4 threads"
                );
            }
        }
    }
}

/// Four racing threads through the non-default robustness configs: the
/// minimal overpartition factor, a tight τ that forces heavy equality
/// chunking, and the multi-level path re-sharding oversized range
/// buckets — each over a duplicate-flood shape so equality-bucket
/// boundaries land inside racing workers' assignments.
#[test]
fn four_thread_runs_agree_across_robustness_configs() {
    let configs = [
        ShardConfig {
            overpartition_factor: 1,
            ..ShardConfig::default()
        },
        ShardConfig {
            max_shard_imbalance: 1.2,
            ..ShardConfig::default()
        },
        ShardConfig {
            overpartition_factor: 1,
            max_shard_imbalance: 1.2,
            max_levels: 2,
        },
    ];
    for (shape, keys) in [
        ("two-valued", testshapes::two_valued(2_000, 40)),
        (
            "runs-of-duplicates",
            testshapes::runs_of_duplicates(2_000, 17, 41),
        ),
        ("uniform-random", testshapes::uniform(2_000, 42)),
    ] {
        let expect = stable_permutation(&keys);
        for config in configs {
            for shards in [8usize, 64] {
                let job = ShardedSortJob::with_config(
                    keys.clone(),
                    NativeAllocation::Deterministic,
                    4,
                    shards,
                    config,
                );
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let job = &job;
                        s.spawn(move || job.run());
                    }
                });
                assert_eq!(
                    job.permutation(),
                    expect,
                    "{shape}: {config:?} S={shards} diverged under 4 threads"
                );
            }
        }
    }
}

/// Chaos storms at shard granularity: seeded plans reap 75% of a
/// 4-worker cohort at random checkpoints, so crash points land inside
/// fill CAS loops and mid-publication windows; the survivors (no caller
/// fallback) must finish every phase, rebuild every torn unit, and
/// still produce the single-tree permutation. The duplicate-flood
/// shape routes most elements through equality buckets (final at
/// fill), leaving the range units small and tearable. 25 seeds × 4
/// shard counts = 100 storms.
#[test]
fn chaos_storms_preserve_parity_across_shard_counts() {
    let keys = testshapes::few_distinct(800, 64, 28); // hardest ties
    let expect = stable_permutation(&keys);
    for shards in SHARD_SWEEP {
        for seed in 0..25u64 {
            let plan = ChaosPlan::random_crashes(4, 0.75, 150, seed);
            assert!(plan.survivors() >= 1, "seed {seed}: no survivor");
            let job = ShardedSortJob::with_workers(
                keys.clone(),
                NativeAllocation::Deterministic,
                plan.workers(),
                shards,
            );
            std::thread::scope(|s| {
                for w in 0..plan.workers() {
                    let (job, plan) = (&job, &plan);
                    s.spawn(move || job.participate(&mut ChaosParticipation::new(plan, w)));
                }
            });
            assert!(
                job.is_complete(),
                "S={shards} seed {seed}: survivors failed to complete"
            );
            assert_eq!(
                job.permutation(),
                expect,
                "S={shards} seed {seed}: storm changed the permutation"
            );
        }
    }
}

/// Chaos storms through the overpartitioned and multi-level paths: the
/// crash points now land inside equality-chunk trivial fills and inner
/// re-shard jobs, and redoing a whole shard must rewrite identical
/// values. Two duplicate floods × two configs × 10 seeds.
#[test]
fn chaos_storms_preserve_parity_on_robust_configs() {
    let configs = [
        ShardConfig {
            overpartition_factor: 1,
            max_shard_imbalance: 1.2,
            max_levels: 1,
        },
        ShardConfig {
            overpartition_factor: 2,
            max_shard_imbalance: 1.2,
            max_levels: 2,
        },
    ];
    for keys in [testshapes::all_equal(800), testshapes::two_valued(800, 29)] {
        let expect = stable_permutation(&keys);
        for config in configs {
            for seed in 0..10u64 {
                let plan = ChaosPlan::random_crashes(4, 0.75, 150, seed);
                let job = ShardedSortJob::with_config(
                    keys.clone(),
                    NativeAllocation::Deterministic,
                    plan.workers(),
                    8,
                    config,
                );
                std::thread::scope(|s| {
                    for w in 0..plan.workers() {
                        let (job, plan) = (&job, &plan);
                        s.spawn(move || job.participate(&mut ChaosParticipation::new(plan, w)));
                    }
                });
                assert!(job.is_complete(), "{config:?} seed {seed}");
                assert_eq!(job.permutation(), expect, "{config:?} seed {seed}");
            }
        }
    }
}

/// The all-crash edge through the public front-end: every scripted
/// worker dies at checkpoint 3, so the caller finishes all three phases
/// alone (wait-freedom at shard granularity).
#[test]
fn sort_sharded_with_plan_survives_total_crash() {
    let keys = testshapes::sawtooth(600, 199);
    let mut expect = keys.clone();
    expect.sort_unstable();
    let mut plan = ChaosPlan::new(4);
    for w in 0..4 {
        plan = plan.crash_at(w, 3);
    }
    for shards in SHARD_SWEEP {
        let sorted = WaitFreeSorter::new(2).sort_sharded_with_plan(&keys, &plan, shards);
        assert_eq!(sorted, expect, "S={shards}");
    }
}

/// Abandonment sweep: a quitter abandons after every possible number of
/// participation checks — hitting phase boundaries, mid-block points,
/// and mid-inner-sort points — and a late joiner must always be able to
/// finish from exactly that state. The publish gates guarantee a
/// half-sorted shard was never marked done.
#[test]
fn every_abandonment_point_is_recoverable_by_a_late_joiner() {
    let keys = testshapes::uniform(400, 30);
    let expect = stable_permutation(&keys);
    for allocation in [
        NativeAllocation::Deterministic,
        NativeAllocation::Randomized,
    ] {
        for budget in (1..400).step_by(7) {
            let job = ShardedSortJob::with_workers(keys.clone(), allocation, 2, 8);
            job.participate(&mut QuitAfter(budget));
            job.run();
            assert!(job.is_complete(), "{allocation:?} budget {budget}");
            assert_eq!(
                job.permutation(),
                expect,
                "{allocation:?} budget {budget}: quitter corrupted the sort"
            );
        }
    }
}

/// Abandonment sweep through the multi-level path: the quitter can now
/// die inside an inner re-shard job's own three phases, and the outer
/// publish gate must still keep the half-finished shard unclaimed.
#[test]
fn abandonment_inside_recursion_is_recoverable() {
    let keys = testshapes::uniform(400, 33);
    let expect = stable_permutation(&keys);
    let config = ShardConfig {
        overpartition_factor: 1,
        max_shard_imbalance: 1.2,
        max_levels: 2,
    };
    for budget in (1..400).step_by(7) {
        let job = ShardedSortJob::with_config(
            keys.clone(),
            NativeAllocation::Deterministic,
            2,
            2,
            config,
        );
        job.participate(&mut QuitAfter(budget));
        job.run();
        assert!(job.is_complete(), "budget {budget}");
        assert_eq!(job.permutation(), expect, "budget {budget}");
    }
}

/// Abandonment sweep with the classify kernels cross-checked: a quitter
/// can die between the block-start item (which classified the whole
/// block with the ladder and published its histogram) and the block's
/// trailing no-op items, and a late joiner redoing the block must
/// rewrite byte-identical `piece_of` entries *and* byte-identical
/// histogram counts. The ladder over the job's splitters must agree
/// with the binary-search reference on every key, so the redone block
/// routes exactly as [`piece_by_search`] would.
#[test]
fn abandonment_is_recoverable_under_both_kernels() {
    let keys = testshapes::runs_of_duplicates(400, 11, 34);
    let expect = stable_permutation(&keys);
    for budget in (1..400).step_by(13) {
        let job = ShardedSortJob::with_workers(keys.clone(), NativeAllocation::Deterministic, 2, 8);
        assert_kernels_agree(job.splitters(), &keys, &format!("budget {budget}"));
        job.participate(&mut QuitAfter(budget));
        job.run();
        assert!(job.is_complete(), "budget {budget}");
        assert_eq!(job.permutation(), expect, "budget {budget}");
    }
}

/// Red-first pin for the ISSUE-9 fused histogram: entering the Fill
/// phase must cost O(B·P) — the per-block histogram reduction — not the
/// O(n) `piece_of` re-scan every participant used to pay. A second
/// participant joining after the sort is already complete does no claim
/// work at all, so its fill-phase `setup_steps` is *exactly* the
/// offset-table reduction; against the pre-fusion `column_offsets()`
/// this assertion reads `n` (50 000), not `B·P` (a few hundred).
#[test]
fn fill_entry_setup_is_blocks_times_pieces_not_n() {
    let n = 50_000usize;
    let keys = testshapes::uniform(n, 35);
    let job = ShardedSortJob::with_workers(keys, NativeAllocation::Deterministic, 2, 8);
    let table = (job.partition_blocks() * job.buckets()) as u64;
    assert!(
        table < n as u64 / 4,
        "shape precondition: B·P = {table} must be far below n = {n} for this pin to bite"
    );

    let first = MetricSlot::new();
    job.participate_instrumented(&mut RunToCompletion, &first);
    assert!(job.is_complete());

    // The late joiner: the partition and fill WATs are fully done, so
    // beyond the idempotent redo of its own initial-assignment block
    // (the WAT runs that one without consulting the done bit) its only
    // fill-phase cost is rebuilding the offset table from the published
    // histograms.
    let late = MetricSlot::new();
    job.participate_instrumented(&mut RunToCompletion, &late);

    for (who, slot) in [("first", &first), ("late", &late)] {
        let m = slot.snapshot();
        assert_eq!(
            m.phases.fill.setup_steps, table,
            "{who} participant's fill entry must reduce exactly the B·P histogram table"
        );
    }
    assert!(
        late.snapshot().phases.partition.claims <= job.partition_grain() as u64,
        "late joiner re-claims at most its initial block — everything else was done"
    );
}

/// Single-threaded, crash-free, deterministic allocation: every sharded
/// counter is exactly pinned. One worker claims each element once in
/// partition, each block once in fill, each shard once in shard-sort;
/// the per-shard claim counts are all 1; assigned sizes sum to `n`; and
/// the inner pivot-tree sorts' scatter claims cover exactly the
/// elements of work units that actually needed a tree — equality
/// chunks, singletons, and already-non-decreasing range buckets are
/// trivial fills and claim nothing.
#[test]
fn single_threaded_sharded_counters_are_exactly_pinned() {
    let n = 2_000usize;
    for (shape, keys) in [
        ("uniform-random", testshapes::uniform(n, 31)),
        ("few-distinct", testshapes::few_distinct(n, 64, 31)),
        ("sawtooth", testshapes::sawtooth(n, 199)),
    ] {
        for shards in SHARD_SWEEP {
            let (sorted, report) = WaitFreeSorter::new(1).sort_sharded_with_report(&keys, shards);
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(sorted, expect, "{shape} S={shards}");

            let shard = report.shard.as_ref().expect("sharded report payload");
            let blocks = shard.partition_blocks as u64;
            assert_eq!(shard.shards, shards, "{shape} S={shards}");
            assert_eq!(
                report.per_phase.partition.claims, n as u64,
                "{shape} S={shards}: partition claims ≠ n"
            );
            assert_eq!(
                report.per_phase.partition.block_claims, blocks,
                "{shape} S={shards}: partition block claims ≠ B"
            );
            assert_eq!(
                report.per_phase.fill.claims, blocks,
                "{shape} S={shards}: fill claims ≠ B"
            );
            assert_eq!(
                report.per_phase.partition.kernel_blocks, blocks,
                "{shape} S={shards}: a lone worker classifies each block exactly once"
            );
            assert_eq!(
                report.per_phase.fill.setup_steps,
                blocks * shard.buckets.len() as u64,
                "{shape} S={shards}: fill entry reduces exactly the B·P histogram table"
            );
            assert_eq!(
                report.per_phase.shard_sort.claims, shards as u64,
                "{shape} S={shards}: shard-sort claims ≠ S"
            );
            assert_eq!(report.per_phase.partition.probes, 0, "deterministic WAT");
            assert_eq!(shard.per_shard.len(), shards);
            assert_eq!(
                shard.per_shard.iter().map(|s| s.size).sum::<usize>(),
                n,
                "{shape} S={shards}: sizes do not cover the input"
            );
            assert!(
                shard.per_shard.iter().all(|s| s.claims == 1),
                "{shape} S={shards}: a crash-free lone worker claims each shard once"
            );
            assert!(shard.imbalance() >= 1.0, "{shape} S={shards}");
            assert_eq!(
                shard.buckets.iter().map(|b| b.size).sum::<usize>(),
                n,
                "{shape} S={shards}: bucket sizes do not cover the input"
            );

            // Reconstruct which range buckets needed a pivot tree. A
            // range bucket's members are exactly the input keys inside
            // its closed value span (neighboring buckets hold values
            // outside it), in original order — if that order is already
            // non-decreasing the unit was a trivial fill, otherwise its
            // inner sort claimed one scatter slot per element.
            let mut start = 0usize;
            let mut inner_elems = 0usize;
            for b in &shard.buckets {
                let end = start + b.size;
                if !b.equality && b.size >= 2 {
                    let (lo, hi) = (sorted[start], sorted[end - 1]);
                    let members: Vec<u64> = keys
                        .iter()
                        .copied()
                        .filter(|&k| k >= lo && k <= hi)
                        .collect();
                    assert_eq!(members.len(), b.size, "{shape} S={shards}: span");
                    if !members.windows(2).all(|w| w[0] <= w[1]) {
                        inner_elems += b.size;
                    }
                }
                start = end;
            }
            assert_eq!(
                report.per_phase.scatter.claims, inner_elems as u64,
                "{shape} S={shards}: inner scatter claims"
            );
        }
    }
}

/// Regression pin for the PR-5 splitter bug: stride sampling without
/// deduplication turns an all-equal input into S copies of one splitter,
/// `partition_point(|s| s <= key)` routes every key past all of them,
/// and a single shard swallows the whole input (imbalance ≈ S). The
/// robust overpartitioned path must bound the measured imbalance by the
/// requested τ = 2.0 instead — and still produce the stable permutation.
///
/// Written red-first: against the stride sampler this fails with
/// imbalance == S for every S ≥ 2.
#[test]
fn overpartitioning_bounds_all_equal_imbalance() {
    let n = 40_000usize;
    let keys = wait_free_sort::testshapes::all_equal(n);
    for shards in [8usize, 64] {
        let (sorted, report) = WaitFreeSorter::new(2).sort_sharded_with_report(&keys, shards);
        assert_eq!(sorted, keys, "S={shards}");
        let shard = report.shard.expect("sharded report payload");
        let imbalance = shard.imbalance();
        assert!(
            imbalance <= 2.0,
            "S={shards}: all-equal imbalance {imbalance} exceeds the requested 2.0 \
             (duplicate splitters collapsed the input into one shard)"
        );
        assert_eq!(
            shard.equality_buckets, 1,
            "S={shards}: one value, one bucket"
        );
    }
}

/// The ISSUE-7 acceptance gate at full scale: all-equal, Zipf(1.0), and
/// pre-sorted inputs at N = 1M with S ∈ {8, 64} must come out with
/// measured imbalance ≤ 2.0 *and* a permutation bit-identical to the
/// single-tree path's. The single-tree oracle is computed by a stable
/// std sort over `(key, index)` — the same permutation by construction
/// (pinned against the real single-tree job at smaller N above), since
/// actually running a million monotone inserts through one pivot tree is
/// the quadratic cliff the sharded path exists to avoid.
///
/// Runs in seconds even under debug: the mass-weighted splitter sample
/// routes every heavy value into an equality bucket (a trivial fill), so
/// no duplicate chain ever reaches a pivot tree.
#[test]
fn acceptance_shapes_at_one_million_meet_the_balance_bound() {
    let n = 1_000_000usize;
    for (shape, keys) in [
        ("all-equal", testshapes::all_equal(n)),
        ("zipf-1.0", testshapes::zipf(n, 1024, 7)),
        ("pre-sorted", testshapes::presorted(n)),
    ] {
        let expect = stable_permutation(&keys);
        for shards in [8usize, 64] {
            let outcome = SortOptions::new()
                .threads(4)
                .shards(shards)
                .report(true)
                .run(&keys);
            assert_eq!(
                outcome.permutation, expect,
                "{shape} S={shards}: permutation diverged at N=1M"
            );
            let report = outcome.report.expect("report requested");
            let shard = report.shard.expect("sharded payload");
            let imbalance = shard.imbalance();
            assert!(
                imbalance <= 2.0,
                "{shape} S={shards}: imbalance {imbalance} > 2.0 at N=1M"
            );
            assert!(shard.within_requested(), "{shape} S={shards}");
        }
    }
}

/// Red-first regression for ISSUE-10's in-place abandonment story: a
/// worker crashed mid-cycle — mid-fill-block (half the unit's slots
/// still empty), or mid-publication (mixed pending/final tags) — must
/// leave a state from which survivors redo the block whole, with **no
/// element duplicated and none dropped**. The permutation-is-a-bijection
/// check is the direct no-dup/no-drop pin; the oracle equality pins the
/// order on top. Swept over both WAT flavors, with the quit budget
/// walking through every phase.
///
/// Red-first: against a strawman in-place fill that used plain stores
/// instead of CAS-from-empty, a preempted filler waking after survivors
/// finalized the unit resurrects its stale fill value over a final one —
/// the bijection check catches exactly that duplicate/drop pair.
#[test]
fn in_place_abandonment_never_duplicates_or_drops_an_element() {
    let keys = testshapes::runs_of_duplicates(400, 11, 37);
    let expect = stable_permutation(&keys);
    for allocation in [
        NativeAllocation::Deterministic,
        NativeAllocation::Randomized,
    ] {
        for budget in (1..400).step_by(13) {
            let job = ShardedSortJob::with_workers(keys.clone(), allocation, 2, 8);
            job.participate(&mut QuitAfter(budget));
            job.run();
            assert!(job.is_complete(), "{allocation:?} budget {budget}");
            let perm = job.permutation();
            let mut seen = vec![false; keys.len()];
            for &v in &perm {
                assert!(
                    v >= 1 && v <= keys.len() && !seen[v - 1],
                    "{allocation:?} budget {budget}: element {v} duplicated or out of range"
                );
                seen[v - 1] = true;
            }
            assert_eq!(
                perm, expect,
                "{allocation:?} budget {budget}: order diverged"
            );
        }
    }
}

/// Chaos storms on the in-place path: seeded plans reap 75% of a
/// 4-worker cohort at random checkpoints, so crash points land inside
/// fill CAS loops and mid-publication windows; survivors must rebuild
/// every torn unit and still produce the stable permutation, with no
/// element duplicated or dropped. The duplicate-flood shape routes most
/// elements through equality buckets (final at fill), leaving the range
/// units small and tearable.
#[test]
fn chaos_storms_preserve_parity_in_place() {
    let keys = testshapes::few_distinct(800, 64, 38);
    let expect = stable_permutation(&keys);
    for shards in [2usize, 8] {
        for seed in 0..15u64 {
            let plan = ChaosPlan::random_crashes(4, 0.75, 150, seed);
            assert!(plan.survivors() >= 1, "seed {seed}: no survivor");
            let job = ShardedSortJob::with_workers(
                keys.clone(),
                NativeAllocation::Deterministic,
                plan.workers(),
                shards,
            );
            std::thread::scope(|s| {
                for w in 0..plan.workers() {
                    let (job, plan) = (&job, &plan);
                    s.spawn(move || job.participate(&mut ChaosParticipation::new(plan, w)));
                }
            });
            assert!(job.is_complete(), "S={shards} seed {seed}");
            let perm = job.permutation();
            let mut seen = vec![false; keys.len()];
            for &v in &perm {
                assert!(
                    v >= 1 && v <= keys.len() && !seen[v - 1],
                    "S={shards} seed {seed}: element {v} duplicated or out of range"
                );
                seen[v - 1] = true;
            }
            assert_eq!(
                perm, expect,
                "S={shards} seed {seed}: storm changed the in-place permutation"
            );
        }
    }
}

/// Four racing live threads — no crashes, just races — on the in-place
/// path: two claimants publishing the same unit concurrently write
/// byte-identical final values, so the permutation stays a pure function
/// of the keys under any interleaving.
#[test]
fn racing_threads_agree_in_place() {
    for (shape, keys) in [
        ("uniform-random", testshapes::uniform(2_000, 39)),
        ("two-valued", testshapes::two_valued(2_000, 39)),
    ] {
        let expect = stable_permutation(&keys);
        for allocation in [
            NativeAllocation::Deterministic,
            NativeAllocation::Randomized,
        ] {
            let job = ShardedSortJob::with_workers(keys.clone(), allocation, 4, 8);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let job = &job;
                    s.spawn(move || job.run());
                }
            });
            assert_eq!(
                job.permutation(),
                expect,
                "{shape}: {allocation:?} diverged under 4 racing in-place threads"
            );
        }
    }
}

/// The in-place job at the sizes around its edges — two and three keys,
/// inputs just under, at and just over the 64-element partition-block
/// floor (one, one and two blocks), and a 16-block input — with one
/// shard, two, and one per key: the
/// permutation matches the stable oracle and the only auxiliary
/// allocation is the `B·P·8`-byte destination-offset table.
#[test]
fn small_jobs_match_the_oracle_with_only_the_offsets_table() {
    for n in [2usize, 3, 63, 64, 65, 1000] {
        let keys = testshapes::few_distinct(n, 7, n as u64);
        let expect = stable_permutation(&keys);
        for shards in [1, 2, n] {
            let job = ShardedSortJob::new(keys.clone(), shards);
            let table = (job.partition_blocks() * job.buckets()) as u64 * 8;
            assert_eq!(job.aux_bytes(), table, "n={n} S={shards}");
            job.run();
            assert_eq!(job.permutation(), expect, "n={n} S={shards}");
            let report = job.shard_report();
            assert_eq!(report.aux_bytes, table, "n={n} S={shards}");
            assert_eq!(report.cycle_restarts, 0, "n={n} S={shards}");
        }
    }
}

/// `recommended_shards` feeds the zero-config front-end; pin its shape
/// so a regression can't silently turn the sharded path into a one-shard
/// (pure overhead) or 10⁶-shard (pure bookkeeping) configuration.
#[test]
fn recommended_shards_tracks_input_and_cohort() {
    assert_eq!(recommended_shards(1_000, 1), 1);
    assert_eq!(recommended_shards(1_000, 8), 8);
    assert_eq!(recommended_shards(1 << 20, 4), 128);
    assert_eq!(recommended_shards(1 << 30, 4), 256, "capped");
    assert_eq!(recommended_shards(5, 16), 5, "never exceeds n");
    // And the zero-config entry point actually sorts with it.
    let keys: Vec<u64> = (0..9_000u64).rev().collect();
    let sorted = WaitFreeSorter::new(4).sort_sharded(&keys);
    assert_eq!(sorted, (0..9_000u64).collect::<Vec<_>>());
}
