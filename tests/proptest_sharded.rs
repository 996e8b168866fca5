//! Property tests for the sharded large-N path: random keys (duplicates
//! encouraged), named adversarial shapes from
//! [`wait_free_sort::testshapes`], shard counts, thread counts,
//! robustness configs, and abandonment points must never make the
//! sharded permutation diverge from the single-tree one. Each property
//! is a seeded loop over [`testshapes::for_each_case`]; a failure names
//! its case seed.

use wait_free_sort::testshapes::{self, for_each_case, vec_of};
use wait_free_sort::wfsort_native::{
    piece_by_search, NativeAllocation, QuitAfter, ShardConfig, ShardedSortJob, SortJob,
    SplitterLadder, WaitFreeSorter,
};

/// Every shape in the shared adversarial battery, under random shard
/// counts and random (possibly degenerate) robustness knobs, still
/// computes exactly the single-tree permutation — the knobs tune
/// balance, never the output.
#[test]
fn adversarial_shapes_match_single_tree_under_any_config() {
    for_each_case(
        "adversarial_shapes_match_single_tree_under_any_config",
        48,
        |rng| {
            let (shape, keys) = testshapes::random_shape(rng, 2..300);
            let shards = rng.gen_range(1usize..40);
            let factor = rng.gen_range(0usize..12);
            let tau_tenths = rng.gen_range(10u32..40);
            let levels = rng.gen_range(0usize..3);
            let single = SortJob::new(keys.clone());
            single.run();
            let expect = single.permutation();
            let config = ShardConfig {
                overpartition_factor: factor,
                max_shard_imbalance: f64::from(tau_tenths) / 10.0,
                max_levels: levels,
            };
            let job = ShardedSortJob::with_config(
                keys,
                NativeAllocation::Deterministic,
                2,
                shards,
                config,
            );
            job.run();
            assert_eq!(job.permutation(), expect, "{shape}");
        },
    );
}

/// For random keys, shard counts (including S > n, so empty and
/// singleton shards appear), and thread counts, the sharded path
/// produces exactly the single-tree permutation — the stability
/// contract at property scale.
#[test]
fn sharded_permutation_matches_single_tree() {
    for_each_case("sharded_permutation_matches_single_tree", 48, |rng| {
        let keys = vec_of(rng, 2..300, |r| r.gen_range(0u64..48));
        let shards = rng.gen_range(1usize..80);
        let threads = rng.gen_range(1usize..4);
        let single = SortJob::new(keys.clone());
        single.run();
        let expect = single.permutation();

        let job =
            ShardedSortJob::with_workers(keys, NativeAllocation::Deterministic, threads, shards);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| job.run());
            }
        });
        assert_eq!(job.permutation(), expect);
    });
}

/// Same property under the randomized LC-WAT flavor: random probing
/// reorders claims, never values.
#[test]
fn randomized_sharded_permutation_matches_single_tree() {
    for_each_case(
        "randomized_sharded_permutation_matches_single_tree",
        48,
        |rng| {
            let keys = vec_of(rng, 2..300, |r| r.gen_range(0u64..48));
            let shards = rng.gen_range(1usize..40);
            let single = SortJob::new(keys.clone());
            single.run();
            let expect = single.permutation();

            let job = ShardedSortJob::with_workers(keys, NativeAllocation::Randomized, 2, shards);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| job.run());
                }
            });
            assert_eq!(job.permutation(), expect);
        },
    );
}

/// A quitter abandoning after a random number of checks leaves a state
/// from which a late joiner recovers the exact single-tree permutation —
/// the publish gates make half-done shards invisible, and the mixed-tag
/// snapshot protocol makes half-published units rebuildable.
#[test]
fn abandoned_sharded_jobs_recover_exactly() {
    for_each_case("abandoned_sharded_jobs_recover_exactly", 48, |rng| {
        let keys = vec_of(rng, 2..200, |r| r.gen_range(0u64..32));
        let shards = rng.gen_range(1usize..24);
        let budget = rng.gen_range(1usize..500);
        let single = SortJob::new(keys.clone());
        single.run();
        let expect = single.permutation();

        let job = ShardedSortJob::with_workers(keys, NativeAllocation::Deterministic, 2, shards);
        job.participate(&mut QuitAfter(budget));
        job.run();
        assert!(job.is_complete());
        assert_eq!(job.permutation(), expect);
    });
}

/// The public front-end agrees with std sort for random inputs and
/// shard counts (the trivial n < 2 passthrough included).
#[test]
fn sort_sharded_with_matches_std() {
    for_each_case("sort_sharded_with_matches_std", 48, |rng| {
        let keys = vec_of(rng, 0..250, |r| r.gen_range(0u64..1_000));
        let shards = rng.gen_range(1usize..32);
        let threads = rng.gen_range(1usize..4);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let sorted = WaitFreeSorter::new(threads).sort_sharded_with(&keys, shards);
        assert_eq!(sorted, expect);
    });
}

/// The kernel-equivalence pin at property scale: for a random
/// strictly-increasing splitter set (built by sort+dedup, including the
/// empty set) and random probe keys, the branchless padded ladder
/// classifies every key to exactly the piece the reference binary
/// search does — equality buckets, both end splitters, and keys outside
/// the splitter range included. The probe pool is drawn from the same
/// narrow domain as the splitters so equality hits are common, then
/// widened with the splitters themselves and their off-by-one
/// neighbors.
#[test]
fn ladder_classification_matches_binary_search() {
    for_each_case("ladder_classification_matches_binary_search", 48, |rng| {
        let mut splitters = vec_of(rng, 0..150, |r| r.gen_range(0u64..500));
        let probes = vec_of(rng, 1..100, |r| r.gen_range(0u64..500));
        splitters.sort_unstable();
        splitters.dedup();
        let ladder = SplitterLadder::new(&splitters);
        for &key in probes.iter().chain(splitters.iter()) {
            for key in [key.saturating_sub(1), key, key.saturating_add(1)] {
                assert_eq!(
                    ladder.piece_for(&key),
                    piece_by_search(&splitters, &key),
                    "key {key} against {} splitters",
                    splitters.len()
                );
            }
        }
    });
}
