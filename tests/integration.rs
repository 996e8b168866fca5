//! Cross-crate integration tests: every sorting implementation in the
//! workspace must agree with every other (and with `std`) on the same
//! inputs, across execution substrates.

use wait_free_sort::baselines::{BitonicNetwork, LockedParallelSorter, SimulatedNetworkSorter};
use wait_free_sort::pram::{failure::FailurePlan, RandomScheduler, SyncScheduler};
use wait_free_sort::testshapes::{few_distinct, sawtooth, uniform};
use wait_free_sort::wfsort::low_contention::LowContentionSorter;
use wait_free_sort::wfsort::{
    check_sorted_permutation, Allocation, PramSorter, SortConfig, Workload,
};
use wait_free_sort::wfsort_native::{NativeAllocation, SortArena, WaitFreeSorter};

/// Every implementation sorts the same input to the same output.
#[test]
fn all_sorters_agree() {
    let n = 256; // 4^4 so the LC sorter participates
    for (wi, w) in Workload::all().into_iter().enumerate() {
        let keys = w.generate(n, 77 + wi as u64);
        let mut expect = keys.clone();
        expect.sort_unstable();

        let det = PramSorter::new(SortConfig::new(32)).sort(&keys).unwrap();
        assert_eq!(det.sorted, expect, "PramSorter deterministic / {w}");

        let rnd = PramSorter::new(SortConfig::new(32).allocation(Allocation::Randomized))
            .sort(&keys)
            .unwrap();
        assert_eq!(rnd.sorted, expect, "PramSorter randomized / {w}");

        let lc = LowContentionSorter::default().sort(&keys).unwrap();
        assert_eq!(lc.sorted, expect, "LowContentionSorter / {w}");

        let native = WaitFreeSorter::new(4).sort(&keys);
        assert_eq!(native, expect, "WaitFreeSorter / {w}");

        let sim = SimulatedNetworkSorter::new(16).sort(&keys).unwrap();
        assert_eq!(sim.sorted, expect, "SimulatedNetworkSorter / {w}");

        let locked_input: Vec<u64> = keys.iter().map(|&k| (k + 10_000) as u64).collect();
        let locked = LockedParallelSorter::new(4).sort(&locked_input);
        let locked_back: Vec<i64> = locked.into_iter().map(|k| k as i64 - 10_000).collect();
        assert_eq!(locked_back, expect, "LockedParallelSorter / {w}");

        let mut bitonic_data = keys.clone();
        BitonicNetwork::new(n).sort_parallel(&mut bitonic_data, 4);
        assert_eq!(bitonic_data, expect, "BitonicNetwork / {w}");
    }
}

/// The PRAM sort is correct under every scheduler in the crate.
#[test]
fn pram_sort_under_all_schedulers() {
    let keys = Workload::UniformRandom.generate(96, 5);
    let sorter = PramSorter::new(SortConfig::new(12).seed(5));
    let no_failures = FailurePlan::new();

    let sync = sorter
        .sort_under(&keys, &mut SyncScheduler, &no_failures)
        .unwrap();
    check_sorted_permutation(&keys, &sync.sorted).unwrap();

    let mut random = RandomScheduler::new(3, 0.3);
    let rnd = sorter.sort_under(&keys, &mut random, &no_failures).unwrap();
    check_sorted_permutation(&keys, &rnd.sorted).unwrap();

    let mut single = wait_free_sort::pram::SingleStepScheduler::new();
    let seq = sorter.sort_under(&keys, &mut single, &no_failures).unwrap();
    check_sorted_permutation(&keys, &seq.sorted).unwrap();

    let mut rr = wait_free_sort::pram::RoundRobinScheduler::new(9, 3);
    let rrr = sorter.sort_under(&keys, &mut rr, &no_failures).unwrap();
    check_sorted_permutation(&keys, &rrr.sorted).unwrap();
}

/// Write-once watching (Lemma 2.5's "child pointers, once set, are never
/// changed") holds through a full concurrent sort run.
#[test]
fn child_pointers_are_write_once_during_full_sort() {
    let keys = Workload::UniformRandom.generate(128, 11);
    let sorter = PramSorter::new(SortConfig::new(128).seed(11));
    let mut prepared = sorter.prepare(&keys);
    for region in prepared.layout.elems.child_regions() {
        prepared
            .machine
            .memory_mut()
            .watch_write_once(region.range());
    }
    // Any write-once violation panics inside the run.
    prepared
        .machine
        .run(&mut SyncScheduler, prepared.budget)
        .unwrap();
    let out = prepared.layout.read_output(prepared.machine.memory());
    check_sorted_permutation(&keys, &out).unwrap();
}

/// Crash storms on every wait-free implementation; all still sort.
#[test]
fn crash_storms_across_implementations() {
    let keys = Workload::RandomPermutation.generate(64, 21);
    let mut expect = keys.clone();
    expect.sort_unstable();
    for seed in 0..5 {
        let plan = FailurePlan::random_crashes(8, 0.8, 500, seed);

        let det = PramSorter::new(SortConfig::new(8).seed(seed))
            .sort_under(&keys, &mut SyncScheduler, &plan)
            .unwrap();
        assert_eq!(det.sorted, expect, "PramSorter seed {seed}");

        let sim = SimulatedNetworkSorter::new(8)
            .sort_under(&keys, &mut SyncScheduler, &plan)
            .unwrap();
        assert_eq!(sim.sorted, expect, "SimulatedNetworkSorter seed {seed}");
    }
    // LC sorter has P = N = 64 processors; crash 60 of them.
    for seed in 0..3 {
        let plan = FailurePlan::random_crashes(64, 0.94, 1_000, seed);
        let lc = LowContentionSorter::default()
            .sort_under(&keys, &mut SyncScheduler, &plan)
            .unwrap();
        assert_eq!(lc.sorted, expect, "LowContentionSorter seed {seed}");
    }
}

/// The native implementation interoperates with simulator-validated
/// outputs on identical inputs (same tie-breaking rule).
#[test]
fn native_and_pram_produce_identical_permutations() {
    // With duplicate keys the *permutation* (not just the keys) must
    // agree, because both tie-break by element index.
    let keys: Vec<i64> = vec![5, 3, 5, 3, 5, 1, 1, 3];
    let job = wait_free_sort::wfsort_native::SortJob::new(keys.clone());
    job.run();
    let native_perm = job.permutation();
    assert_eq!(native_perm, vec![6, 7, 2, 4, 8, 1, 3, 5]);
}

/// Empty and unit inputs across the public entry points.
#[test]
fn degenerate_inputs_everywhere() {
    assert!(PramSorter::new(SortConfig::new(4))
        .sort(&[])
        .unwrap()
        .sorted
        .is_empty());
    assert_eq!(
        PramSorter::new(SortConfig::new(4))
            .sort(&[9])
            .unwrap()
            .sorted,
        vec![9]
    );
    assert!(WaitFreeSorter::new(2).sort::<u64>(&[]).is_empty());
    assert_eq!(WaitFreeSorter::new(2).sort(&[4u64]), vec![4]);
    assert!(SimulatedNetworkSorter::new(2)
        .sort(&[])
        .unwrap()
        .sorted
        .is_empty());
}

/// Model requirements, verified: the paper's algorithms genuinely need
/// the CRCW model they are stated in — enforcing CREW or EREW on a
/// multi-processor run fails, while any single-processor run is
/// trivially EREW-clean.
#[test]
fn algorithms_require_crcw() {
    use wait_free_sort::pram::{MachineError, ModelPolicy};

    let keys = Workload::RandomPermutation.generate(32, 3);

    // P >= 2 deterministic sort violates CREW (everyone CASes the root).
    let sorter = PramSorter::new(SortConfig::new(4).seed(3));
    let mut prepared = sorter.prepare(&keys);
    prepared.machine.enforce_model(ModelPolicy::Crew);
    let err = prepared
        .machine
        .run(&mut SyncScheduler, prepared.budget)
        .unwrap_err();
    assert!(matches!(
        err,
        MachineError::ModelViolation {
            policy: ModelPolicy::Crew,
            ..
        }
    ));

    // A single processor is EREW-clean by construction.
    let solo = PramSorter::new(SortConfig::new(1).seed(3));
    let mut prepared = solo.prepare(&keys);
    prepared.machine.enforce_model(ModelPolicy::Erew);
    prepared
        .machine
        .run(&mut SyncScheduler, prepared.budget)
        .expect("one processor can never collide with itself");
    let out = prepared.layout.read_output(prepared.machine.memory());
    check_sorted_permutation(&keys, &out).unwrap();
}

/// A recycled arena keeps producing the stable sort across rounds of
/// different lengths, key mixes and allocation flavors — storage reuse,
/// not state reuse — and agrees with a fresh sort of the same keys.
#[test]
fn arena_reuse_matches_fresh_sorts() {
    let sorter = WaitFreeSorter::new(2);
    let mut arena = SortArena::new();
    let mut out = Vec::new();
    // The lengths shrink, grow past the first round, then shrink again;
    // the flavor switch makes the arena rebuild its work trees.
    for (round, (keys, allocation)) in [
        (uniform(900, 13), NativeAllocation::Deterministic),
        (few_distinct(800, 64, 13), NativeAllocation::Randomized),
        (sawtooth(1000, 199), NativeAllocation::Randomized),
        (uniform(300, 14), NativeAllocation::Deterministic),
    ]
    .iter()
    .enumerate()
    {
        let mut expect = keys.clone();
        expect.sort();
        let options = sorter.options().allocation(*allocation);
        options.run_into(keys, &mut arena, &mut out);
        assert_eq!(out, expect, "arena sort diverged on round {round}");
        assert_eq!(
            options.run(keys).sorted,
            expect,
            "fresh sort diverged on round {round}"
        );
        assert!(arena.is_warm(), "arena should retain storage after a sort");
    }
    assert_eq!(arena.recycled(), 3);
}

/// Heavyweight stress runs, excluded from the default suite; run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "stress: large native sorts (run with --ignored in release)"]
fn stress_native_large_sorts() {
    use prng::Prng;
    let mut rng = Prng::seed_from_u64(1);
    let keys: Vec<u64> = (0..1_000_000).map(|_| rng.next_u64()).collect();
    let mut expect = keys.clone();
    expect.sort_unstable();
    let sorted = WaitFreeSorter::new(8).sort(&keys);
    assert_eq!(sorted, expect);
    let casualty = WaitFreeSorter::new(8).sort_with_casualties(&keys, 10_000);
    assert_eq!(casualty, expect);
}

/// Large simulated runs, excluded from the default suite.
#[test]
#[ignore = "stress: large PRAM sorts (run with --ignored in release)"]
fn stress_pram_large_sorts() {
    let n = 4096;
    let keys = Workload::RandomPermutation.generate(n, 2);
    let det = PramSorter::new(SortConfig::new(n).seed(2))
        .sort(&keys)
        .unwrap();
    check_sorted_permutation(&keys, &det.sorted).unwrap();
    assert_eq!(det.report.metrics.max_contention, n - 1);

    let lc = wait_free_sort::wfsort::low_contention::LowContentionSorter::default()
        .sort(&keys)
        .unwrap();
    check_sorted_permutation(&keys, &lc.sorted).unwrap();
    assert!(lc.report.metrics.max_contention <= 64); // sqrt(4096)
}
