//! Equivalence suite for the `SortOptions` unification: every named
//! `sort_*` front-end on `WaitFreeSorter` is a thin wrapper over the
//! builder's single `run` path, so each wrapper must produce exactly
//! the output of the equivalent builder call — and both must match a
//! sequential baseline, under plans, deadlines, shards, and arenas.

use std::time::Duration;

use wait_free_sort::wfsort_native::{
    ChaosPlan, NativeAllocation, ShardConfig, SortArena, SortOptions, WaitFreeSorter,
};

fn random_keys(n: usize, seed: u64) -> Vec<u64> {
    use prng::Prng;
    let mut rng = Prng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..1_000_000)).collect()
}

fn expect_sorted(keys: &[u64]) -> Vec<u64> {
    let mut out = keys.to_vec();
    out.sort_unstable();
    out
}

#[test]
fn builder_and_wrappers_agree_on_plain_sorts() {
    for (n, threads, seed) in [
        (0usize, 2usize, 1u64),
        (1, 2, 2),
        (500, 1, 3),
        (5_000, 4, 4),
    ] {
        let keys = random_keys(n, seed);
        let expect = expect_sorted(&keys);
        let sorter = WaitFreeSorter::new(threads);
        assert_eq!(sorter.sort(&keys), expect, "sort n={n} t={threads}");
        assert_eq!(
            sorter.options().run(&keys).sorted,
            expect,
            "options n={n} t={threads}"
        );
        let (sorted, _report) = sorter.sort_with_report(&keys);
        assert_eq!(sorted, expect, "report n={n} t={threads}");
    }
}

#[test]
fn builder_and_wrappers_agree_on_sharded_sorts() {
    let keys = random_keys(20_000, 5);
    let expect = expect_sorted(&keys);
    let sorter = WaitFreeSorter::new(4);
    assert_eq!(sorter.sort_sharded(&keys), expect);
    assert_eq!(sorter.sort_sharded_with(&keys, 16), expect);
    assert_eq!(sorter.options().shards(16).run(&keys).sorted, expect);
    // Auto shard selection (0) and the single-tree path compute the
    // same permutation, not just the same multiset.
    assert_eq!(
        sorter.options().shards(0).run(&keys).permutation,
        sorter.options().run(&keys).permutation
    );
}

#[test]
fn builder_tolerates_every_degenerate_shape_the_raw_paths_reject() {
    // The raw sharded constructors panic on n < 2; the builder falls
    // back to a sequential copy. Shard counts above n and `shards(0)`
    // (auto) are fine too.
    for shards in [0usize, 1, 7, 1_000] {
        for n in [0usize, 1, 2, 3] {
            let keys = random_keys(n, 6 + n as u64);
            let outcome = SortOptions::new().threads(2).shards(shards).run(&keys);
            assert_eq!(
                outcome.sorted,
                expect_sorted(&keys),
                "n={n} shards={shards}"
            );
            assert_eq!(outcome.permutation.len(), n);
        }
    }
}

#[test]
fn shard_robustness_knobs_flow_through_and_normalize() {
    // The builder exposes the overpartition factor, the balance target
    // τ, and the recursion depth; degenerate values (0 factor, τ ≤ 1 or
    // non-finite, 0 levels) normalize to the defaults instead of
    // panicking or changing the output.
    let defaults = SortOptions::new().shard_config();
    assert_eq!(defaults, ShardConfig::default());
    let normalized = SortOptions::new()
        .overpartition_factor(0)
        .max_shard_imbalance(f64::NAN)
        .max_levels(0)
        .shard_config();
    assert_eq!(normalized, defaults);
    assert_eq!(
        SortOptions::new()
            .overpartition_factor(4)
            .max_shard_imbalance(1.5)
            .max_levels(2)
            .shard_config(),
        ShardConfig {
            overpartition_factor: 4,
            max_shard_imbalance: 1.5,
            max_levels: 2,
        }
    );

    // Every knob combination — including the degenerate ones — sorts a
    // duplicate flood to the same stable permutation as the defaults.
    let keys: Vec<u64> = (0..3_000u64).map(|i| (i * 13) % 7).collect();
    let baseline = SortOptions::new().threads(2).shards(8).run(&keys);
    for (factor, tau, levels) in [
        (0usize, 0.0f64, 0usize), // all-degenerate: pure defaults
        (1, 2.0, 1),              // minimal robust sampler
        (16, 1.2, 1),             // heavy overpartitioning, tight τ
        (1, 1.2, 2),              // multi-level recursion engaged
    ] {
        let outcome = SortOptions::new()
            .threads(2)
            .shards(8)
            .overpartition_factor(factor)
            .max_shard_imbalance(tau)
            .max_levels(levels)
            .report(true)
            .run(&keys);
        assert_eq!(
            outcome.permutation, baseline.permutation,
            "factor={factor} tau={tau} levels={levels}"
        );
        let shard = outcome.report.unwrap().shard.unwrap();
        assert!(
            shard.requested_imbalance > 1.0,
            "factor={factor} tau={tau} levels={levels}: report carries normalized τ"
        );
    }
}

#[test]
fn plan_and_deadline_wrappers_match_builder_composition() {
    let keys = random_keys(4_000, 7);
    let expect = expect_sorted(&keys);
    let sorter = WaitFreeSorter::new(4);
    let plan = ChaosPlan::random_crashes(4, 0.75, 100, 17);

    assert_eq!(sorter.sort_with_plan(&keys, &plan), expect);
    assert_eq!(
        sorter.options().plan(plan.clone()).run(&keys).sorted,
        expect
    );
    assert_eq!(sorter.sort_with_deadline(&keys, Duration::ZERO), expect);
    assert_eq!(
        sorter.options().deadline(Duration::ZERO).run(&keys).sorted,
        expect
    );
    assert_eq!(
        sorter.sort_with_deadline_under(&keys, Duration::ZERO, &plan),
        expect
    );
    assert_eq!(
        sorter
            .options()
            .deadline(Duration::ZERO)
            .plan(plan)
            .run(&keys)
            .sorted,
        expect
    );
}

#[test]
fn total_crash_plan_still_sorts_through_builder() {
    let keys = random_keys(2_000, 8);
    // Every scripted worker crashes immediately; the calling thread is
    // the survivor of last resort in the builder's drive path.
    let plan = ChaosPlan::new(3)
        .crash_at(0, 1)
        .crash_at(1, 1)
        .crash_at(2, 1);
    let outcome = SortOptions::new()
        .threads(3)
        .plan(plan)
        .report(true)
        .run(&keys);
    assert_eq!(outcome.sorted, expect_sorted(&keys));
    // Cohort slots: 3 plan workers + the fallback caller.
    assert_eq!(outcome.report.unwrap().per_worker.len(), 4);
}

#[test]
fn casualties_wrapper_still_always_completes() {
    let keys = random_keys(3_000, 9);
    let expect = expect_sorted(&keys);
    for abandon_after in [1usize, 10, 1_000] {
        assert_eq!(
            WaitFreeSorter::new(4).sort_with_casualties(&keys, abandon_after),
            expect,
            "abandon_after={abandon_after}"
        );
    }
    // Single-threaded: no helpers to kill, plain sort.
    assert_eq!(
        WaitFreeSorter::new(1).sort_with_casualties(&keys, 1),
        expect
    );
}

#[test]
fn cached_key_wrapper_is_stable_and_matches_builder_permutation() {
    let words: Vec<String> = (0..200)
        .map(|i| {
            let len = (i * 7) % 5 + 1;
            std::iter::repeat_n(char::from(b'a' + (i % 26) as u8), len).collect()
        })
        .collect();
    let by_len = WaitFreeSorter::new(2).sort_by_cached_key(&words, |w| w.len());
    // Stability: equal keys keep input order.
    let mut expect = words.clone();
    expect.sort_by_key(|w| w.len());
    assert_eq!(by_len, expect);
}

#[test]
fn run_into_matches_run_across_arena_rounds() {
    let opts = SortOptions::new().threads(2).report(true);
    let mut arena: SortArena<u64> = SortArena::new();
    let mut out = Vec::new();
    for round in 0..3u64 {
        let keys = random_keys(2_000 + 300 * round as usize, 20 + round);
        let report = opts.run_into(&keys, &mut arena, &mut out);
        let outcome = opts.run(&keys);
        assert_eq!(out, outcome.sorted, "round {round}");
        assert!(report.is_some());
    }
    assert_eq!(arena.sorts(), 3);
    assert_eq!(arena.recycled(), 2);
}

#[test]
fn allocation_and_grain_knobs_flow_through() {
    let keys = random_keys(4_000, 30);
    let expect = expect_sorted(&keys);
    let outcome = SortOptions::new()
        .threads(2)
        .allocation(NativeAllocation::Randomized)
        .grain(8)
        .report(true)
        .run(&keys);
    assert_eq!(outcome.sorted, expect);
    // Randomized WAT descent probes instead of reserving assignments.
    assert!(outcome.report.unwrap().per_phase.build.probes > 0);
}
