//! E26 — the sharded large-N path raced against the single pivot tree:
//! sharded-vs-single throughput with the permutation-parity check run
//! inline (the differential claim is *in* the artifact, not asserted
//! from memory), per-configuration shard balance, single-threaded
//! counter pins that make the sharded phases' claim traffic exact, and
//! the E26d/E28 adversarial-shape battery proving the duplicate-robust
//! partitioner holds `imbalance ≤ τ` on the shapes that break naive
//! splitter sampling, the E26e/E29 classify timing (the interleaved
//! splitter ladder against the `piece_by_search` reference) with the
//! fused-histogram Fill-entry pin, and the E26f/E30 in-place ledger
//! pinning the exchange's `aux_bytes ≤ B·P·8` cap and its exact
//! crash-free move count — persisted as the schema-stable
//! `BENCH_sharded.json` (v5) perf artifact.
//!
//! The sharded path ([`wfsort_native::ShardedSortJob`]) oversamples
//! `S · overpartition_factor` splitter candidates, deduplicates them,
//! and classifies elements into strictly-ordered range pieces plus an
//! explicit *equality bucket* per surviving splitter — so a duplicate
//! flood lands in chunkable equality buckets instead of one overloaded
//! shard. Buckets are assigned to shards greedily by measured size
//! (LPT), and each shard sorts its units with its own small packed
//! pivot tree (equality and pre-sorted units are final as filled). The
//! bucket fill preserves original-index order, so the sharded
//! permutation is *identical* to the single-tree one, ties and all;
//! every comparison row re-proves that.
//!
//! All swept inputs come from [`wait_free_sort::testshapes`], the same
//! battery the parity and property suites use.
//!
//! Run: `cargo run --release -p bench --bin e26_sharded_bench`
//! CI smoke: `... e26_sharded_bench -- --quick`
//! Schema gate: `... e26_sharded_bench -- --validate <path>`
//!
//! When `BENCH_OUTPUT_DIR` is set, a missing or invalid artifact is a
//! hard error (exit 1), not a warning — CI depends on the file.

use std::process::ExitCode;

use bench::json::SHARDED_SCHEMA;
use bench::{f2, timed, validate_sharded_bench, write_artifact, Table};
use wait_free_sort::testshapes;
use wfsort_native::{
    piece_by_search, recommended_grain, MetricSlot, NativeAllocation, RunToCompletion,
    ShardedSortJob, SortJob, SortOptions, SplitterLadder, WaitFreeSorter,
};

/// The throughput-sweep trio (the E24/E25 lineage, now drawn from the
/// shared battery): uniform random keys, few-distinct keys (splitter
/// duplicates force equality buckets), and a sawtooth (periodic — the
/// adversarial case for a strided sample).
fn shapes(n: usize) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("uniform-random", testshapes::uniform(n, 26)),
        ("few-distinct", testshapes::few_distinct(n, 64, 26)),
        ("sawtooth", testshapes::sawtooth(n, 1009)),
    ]
}

/// The E26d robustness battery: the three acceptance shapes from the
/// duplicate-robust partitioning work — a total duplicate flood, heavy
/// Zipf(1.0) skew, and a pre-sorted ramp.
fn adversarial_shapes(n: usize) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("all-equal", testshapes::all_equal(n)),
        ("zipf-1.0", testshapes::zipf(n, 1024, 7)),
        ("pre-sorted", testshapes::presorted(n)),
    ]
}

/// Is `perm` (1-based indices into `keys`) a sorted order of `keys`?
fn perm_is_sorted(keys: &[u64], perm: &[usize]) -> bool {
    perm.len() == keys.len() && perm.windows(2).all(|w| keys[w[0] - 1] <= keys[w[1] - 1])
}

/// The stable `(key, original index)` permutation — the analytic oracle
/// every sort path in this repo must reproduce exactly. 1-based, like
/// the jobs' `permutation()`.
fn stable_permutation(keys: &[u64]) -> Vec<usize> {
    let mut perm: Vec<usize> = (1..=keys.len()).collect();
    perm.sort_by_key(|&i| (keys[i - 1], i));
    perm
}

/// Best-of-`repeats` wall time for the sharded path, plus the last
/// run's permutation (deterministic, so every repeat computes the same
/// one) and whether every run's output was sorted.
fn time_sharded(
    keys: &[u64],
    threads: usize,
    shards: usize,
    repeats: usize,
) -> (f64, Vec<usize>, bool) {
    let sorter = WaitFreeSorter::new(threads);
    let mut best = f64::INFINITY;
    let mut perm = Vec::new();
    let mut ok = true;
    for _ in 0..repeats {
        let job = ShardedSortJob::with_workers(
            keys.to_vec(),
            NativeAllocation::Deterministic,
            threads,
            shards,
        );
        let (_, secs) = timed(|| sorter.run_sharded_job(&job));
        perm = job.permutation();
        ok &= perm_is_sorted(keys, &perm);
        best = best.min(secs);
    }
    (best, perm, ok)
}

/// The same measurement through the single-tree path, grain matched to
/// the sorter's recommendation so the comparison is tuned-vs-tuned.
fn time_single(keys: &[u64], threads: usize, repeats: usize) -> (f64, Vec<usize>, bool) {
    let sorter = WaitFreeSorter::new(threads);
    let grain = recommended_grain(keys.len(), threads);
    let mut best = f64::INFINITY;
    let mut perm = Vec::new();
    let mut ok = true;
    for _ in 0..repeats {
        let job = SortJob::with_grain(
            keys.to_vec(),
            NativeAllocation::Deterministic,
            threads,
            grain,
        );
        let (_, secs) = timed(|| sorter.run_job(&job));
        perm = job.permutation();
        ok &= perm_is_sorted(keys, &perm);
        best = best.min(secs);
    }
    (best, perm, ok)
}

/// Best-of-`repeats` time for one classification pass over all of
/// `keys`, plus the pass's checksum (the sum of the piece ids, so the
/// two passes can be compared and neither can be optimized away).
fn time_classify(keys: &[u64], repeats: usize, pass: impl Fn(&[u64]) -> usize) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut sum = 0;
    for _ in 0..repeats {
        let (acc, secs) = timed(|| pass(keys));
        sum = std::hint::black_box(acc);
        best = best.min(secs);
    }
    (best, sum)
}

/// The Partition phase's classification work: the interleaved walk (8
/// lanes through [`SplitterLadder::piece_for_lanes`], per-key tail).
fn ladder_pass(ladder: &SplitterLadder<u64>, keys: &[u64]) -> usize {
    let chunks = keys.chunks_exact(8);
    let tail = chunks.remainder();
    let mut acc = 0usize;
    for chunk in chunks {
        let lanes: [&u64; 8] = std::array::from_fn(|j| &chunk[j]);
        acc += ladder.piece_for_lanes(lanes).iter().sum::<usize>();
    }
    acc + tail.iter().map(|key| ladder.piece_for(key)).sum::<usize>()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|a| a == "--validate") {
        let path = match args.get(at + 1) {
            Some(p) => p,
            None => {
                eprintln!("--validate needs a path");
                return ExitCode::FAILURE;
            }
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: could not read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match validate_sharded_bench(&text) {
            Ok(entries) => {
                println!("{path}: valid {SHARDED_SCHEMA} with {entries} entries");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let quick = args.iter().any(|a| a == "--quick");
    let n = if quick { 20_000 } else { 100_000 };
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let shard_counts: &[usize] = if quick { &[8, 64] } else { &[8, 64, 256] };
    let repeats = if quick { 3 } else { 5 };

    // E26a — sharded vs single-tree throughput, with the permutation
    // parity re-proved on every row. Speedup = single/sharded, so > 1
    // means sharding won.
    let mut comparison = Vec::new();
    let mut a = Table::new(&[
        "shape",
        "threads",
        "shards",
        "sharded ms",
        "single ms",
        "speedup",
    ]);
    let mut sharded_losses = 0usize;
    for (shape, keys) in shapes(n) {
        for &threads in thread_counts {
            let (single_ms, single_perm, single_ok) = time_single(&keys, threads, repeats);
            assert!(
                single_ok,
                "single-tree output unsorted at {threads}x{shape}"
            );
            for &shards in shard_counts {
                let (sharded_ms, sharded_perm, sharded_ok) =
                    time_sharded(&keys, threads, shards, repeats);
                assert!(
                    sharded_ok,
                    "sharded output unsorted at {threads}x{shards}x{shape}"
                );
                assert_eq!(
                    sharded_perm, single_perm,
                    "permutation mismatch at {threads}x{shards}x{shape}"
                );
                let speedup = single_ms / sharded_ms;
                if speedup < 1.0 {
                    sharded_losses += 1;
                }
                a.row(vec![
                    shape.into(),
                    threads.to_string(),
                    shards.to_string(),
                    f2(sharded_ms * 1e3),
                    f2(single_ms * 1e3),
                    format!("{speedup:.2}x"),
                ]);
                comparison.push(format!(
                    concat!(
                        "{{\"shape\":\"{}\",\"n\":{},\"threads\":{},\"shards\":{},",
                        "\"sharded_ms\":{:.3},\"single_ms\":{:.3},\"speedup\":{:.3},",
                        "\"sharded_sorted\":true,\"single_sorted\":true,",
                        "\"permutation_match\":true}}"
                    ),
                    shape,
                    n,
                    threads,
                    shards,
                    sharded_ms * 1e3,
                    single_ms * 1e3,
                    speedup,
                ));
            }
        }
    }
    a.print(&format!(
        "E26a: sharded vs single-tree at N = {n} (best of {repeats}; \
         speedup = single/sharded; every row's permutations matched \
         element-for-element)"
    ));
    if sharded_losses > 0 {
        eprintln!(
            "warning: sharded slower than single-tree on {sharded_losses} \
             configuration(s) — expected at small n/S or on a 1-CPU host \
             where threads timeslice; the counter pins below are the \
             load-bearing columns"
        );
    }

    // E26b — shard balance under the deterministic overpartitioned
    // sample. Sizes are a pure function of (keys, shards, config), so
    // one run per configuration is exact; imbalance is max/ideal
    // (1.0 = perfect).
    let n_balance = if quick { 20_000 } else { 50_000 };
    let mut balance = Vec::new();
    let mut b = Table::new(&["shape", "shards", "max shard", "ideal", "imbalance"]);
    for (shape, keys) in shapes(n_balance) {
        for &shards in shard_counts {
            let (sorted, report) = WaitFreeSorter::new(1).sort_sharded_with_report(&keys, shards);
            assert!(
                sorted.windows(2).all(|w| w[0] <= w[1]),
                "balance run unsorted at {shards}x{shape}"
            );
            let shard = report.shard.as_ref().expect("sharded report");
            let max_shard = shard.per_shard.iter().map(|s| s.size).max().unwrap_or(0);
            let sizes_sum: usize = shard.per_shard.iter().map(|s| s.size).sum();
            assert_eq!(sizes_sum, n_balance, "shard sizes must cover n");
            b.row(vec![
                shape.into(),
                shards.to_string(),
                max_shard.to_string(),
                (n_balance / shards).max(1).to_string(),
                format!("{:.2}x", shard.imbalance()),
            ]);
            balance.push(format!(
                concat!(
                    "{{\"shape\":\"{}\",\"n\":{},\"shards\":{},",
                    "\"max_shard\":{},\"sizes_sum\":{},\"imbalance\":{:.4}}}"
                ),
                shape,
                n_balance,
                shards,
                max_shard,
                sizes_sum,
                shard.imbalance(),
            ));
        }
    }
    b.print(&format!(
        "E26b: shard balance at N = {n_balance} (deterministic \
         overpartitioned splitter sample; imbalance = max/ideal, 1.0 is \
         perfect; duplicate-heavy shapes stay bounded because equal keys \
         land in chunkable equality buckets)"
    ));

    // E26c — single-threaded counter pins across the acceptance sweep
    // S ∈ {1, 2, 8, 64}. One crash-free worker claims every unit
    // exactly once, so each count is a closed-form function of
    // (n, grain, shards) that the validator recomputes.
    let n_pins = 4096usize;
    let pin_keys = testshapes::uniform(n_pins, 2626);
    let mut counter_pins = Vec::new();
    let mut c = Table::new(&[
        "shards",
        "pgrain",
        "blocks",
        "partition claims",
        "fill claims",
        "shard claims",
    ]);
    for shards in [1usize, 2, 8, 64] {
        let (sorted, report) = WaitFreeSorter::new(1).sort_sharded_with_report(&pin_keys, shards);
        assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "pin run unsorted at {shards} shards"
        );
        let shard = report.shard.as_ref().expect("sharded report");
        let p = &report.per_phase;
        assert_eq!(p.partition.claims, n_pins as u64, "one claim per element");
        assert_eq!(
            p.partition.block_claims, shard.partition_blocks as u64,
            "one block claim per partition block"
        );
        assert_eq!(
            p.fill.claims, shard.partition_blocks as u64,
            "the fill phase claims partition blocks"
        );
        assert_eq!(p.shard_sort.claims, shards as u64, "one claim per shard");
        c.row(vec![
            shards.to_string(),
            shard.partition_grain.to_string(),
            shard.partition_blocks.to_string(),
            p.partition.claims.to_string(),
            p.fill.claims.to_string(),
            p.shard_sort.claims.to_string(),
        ]);
        counter_pins.push(format!(
            concat!(
                "{{\"n\":{},\"shards\":{},\"partition_grain\":{},",
                "\"partition_blocks\":{},\"partition_claims\":{},",
                "\"partition_block_claims\":{},\"fill_claims\":{},",
                "\"shard_sort_claims\":{},\"sorted\":true}}"
            ),
            n_pins,
            shards,
            shard.partition_grain,
            shard.partition_blocks,
            p.partition.claims,
            p.partition.block_claims,
            p.fill.claims,
            p.shard_sort.claims,
        ));
    }
    c.print(&format!(
        "E26c: single-threaded claim pins at N = {n_pins} (deterministic \
         runs are exact; the validator recomputes every column)"
    ));

    // E26d — the adversarial robustness battery (EXPERIMENTS.md E28).
    // Every acceptance shape at the acceptance size must come in under
    // the default balance target τ = 2.0 *and* reproduce the stable
    // `(key, index)` permutation bit-for-bit. These are asserts, not
    // table-only observations: a regression aborts the run.
    //
    // The oracle chain: at `cross_n` the real single-tree job is run and
    // pinned equal to the analytic stable permutation (pre-sorted and
    // all-equal inputs are the single tree's quadratic worst case, so
    // the full-size check uses the oracle instead of an hours-long
    // monotone-insert run; tests/sharded_parity.rs pins the same
    // equivalence independently).
    let n_adversarial = if quick { 20_000 } else { 1_000_000 };
    let adv_threads = if quick { 2 } else { 4 };
    let cross_n = 20_000;
    for (shape, keys) in adversarial_shapes(cross_n) {
        let single = SortJob::new(keys.clone());
        single.run();
        assert_eq!(
            single.permutation(),
            stable_permutation(&keys),
            "single-tree vs stable oracle at {shape} n={cross_n}"
        );
    }
    let mut adversarial = Vec::new();
    let mut d = Table::new(&[
        "shape",
        "shards",
        "eq buckets",
        "buckets",
        "max shard",
        "imbalance",
        "τ",
    ]);
    for (shape, keys) in adversarial_shapes(n_adversarial) {
        let oracle = stable_permutation(&keys);
        for &shards in &[8usize, 64] {
            let outcome = SortOptions::new()
                .threads(adv_threads)
                .shards(shards)
                .report(true)
                .run(&keys);
            assert_eq!(
                outcome.permutation, oracle,
                "sharded vs single-tree permutation at {shape} S={shards}"
            );
            let report = outcome.report.expect("report requested");
            let shard = report.shard.expect("sharded report");
            let imbalance = shard.imbalance();
            assert!(
                imbalance <= shard.requested_imbalance,
                "{shape} S={shards}: imbalance {imbalance:.2} exceeds \
                 requested {:.2}",
                shard.requested_imbalance
            );
            assert!(shard.within_requested(), "{shape} S={shards}");
            let max_shard = shard.per_shard.iter().map(|s| s.size).max().unwrap_or(0);
            d.row(vec![
                shape.into(),
                shards.to_string(),
                shard.equality_buckets.to_string(),
                shard.buckets.len().to_string(),
                max_shard.to_string(),
                format!("{imbalance:.2}x"),
                format!("{:.1}", shard.requested_imbalance),
            ]);
            adversarial.push(format!(
                concat!(
                    "{{\"shape\":\"{}\",\"n\":{},\"shards\":{},",
                    "\"equality_buckets\":{},\"imbalance\":{:.4},",
                    "\"requested_imbalance\":{:.2},\"within_requested\":true,",
                    "\"permutation_match\":true}}"
                ),
                shape,
                n_adversarial,
                shards,
                shard.equality_buckets,
                imbalance,
                shard.requested_imbalance,
            ));
        }
    }
    d.print(&format!(
        "E26d: adversarial balance at N = {n_adversarial} (duplicate \
         floods and skew under the overpartitioned, deduplicated sampler; \
         every row asserted imbalance ≤ τ and permutation == stable \
         (key, index) oracle — itself pinned to the single tree at \
         N = {cross_n} above)"
    ));

    // E26e — classify timing (EXPERIMENTS.md E29). One instrumented
    // lone-worker sort per row supplies the real sampled splitters and
    // the fused-histogram telemetry the validator re-pins:
    // `fill_setup_steps` must be exactly B·P — the Fill-entry scan the
    // fusion deleted was O(n) — and the permutation must equal the
    // stable `(key, index)` oracle. The timed columns then run one
    // classification pass over all N keys through the ladder and
    // through the `piece_by_search` reference, whose checksums must
    // agree. In full mode the uniform rows are the acceptance gate:
    // best-of ladder time must not regress past the reference.
    let n_classify = if quick { 20_000 } else { 1_000_000 };
    let classify_repeats = if quick { 2 } else { 5 };
    let mut classify = Vec::new();
    let mut e = Table::new(&[
        "shape",
        "shards",
        "splitters",
        "binary ms",
        "ladder ms",
        "speedup",
        "B·P setup",
    ]);
    for (shape, keys) in shapes(n_classify) {
        let oracle = stable_permutation(&keys);
        for &shards in &[8usize, 64] {
            let job = ShardedSortJob::with_workers(
                keys.to_vec(),
                NativeAllocation::Deterministic,
                1,
                shards,
            );
            let slot = MetricSlot::new();
            job.participate_instrumented(&mut RunToCompletion, &slot);
            let m = slot.snapshot();
            let (blocks, pieces) = (job.partition_blocks(), job.buckets());
            let perm = job.permutation();
            assert!(
                perm_is_sorted(&keys, &perm),
                "output unsorted at {shards}x{shape}"
            );
            assert_eq!(
                perm, oracle,
                "permutation vs stable oracle at {shards}x{shape}"
            );

            let splitters = job.splitters();
            let ladder = SplitterLadder::new(splitters);
            let (binary_ms, binary_sum) = time_classify(&keys, classify_repeats, |keys| {
                keys.iter().map(|key| piece_by_search(splitters, key)).sum()
            });
            let (ladder_ms, ladder_sum) =
                time_classify(&keys, classify_repeats, |keys| ladder_pass(&ladder, keys));
            assert_eq!(
                ladder_sum, binary_sum,
                "{shape} S={shards}: ladder and reference classified differently"
            );
            let speedup = binary_ms / ladder_ms.max(f64::EPSILON);
            if !quick && shape == "uniform-random" {
                assert!(
                    speedup >= 1.0,
                    "{shape} S={shards}: ladder regressed to {speedup:.3}x of the \
                     binary-search reference at N = {n_classify} (best of \
                     {classify_repeats})"
                );
            }
            assert_eq!(
                m.phases.fill.setup_steps,
                (blocks * pieces) as u64,
                "{shape} S={shards}: fill entry must reduce exactly the B·P table"
            );
            e.row(vec![
                shape.into(),
                shards.to_string(),
                ((pieces - 1) / 2).to_string(),
                f2(binary_ms * 1e3),
                f2(ladder_ms * 1e3),
                format!("{speedup:.2}x"),
                format!("{}·{}", blocks, pieces),
            ]);
            classify.push(format!(
                concat!(
                    "{{\"shape\":\"{}\",\"n\":{},\"shards\":{},\"splitters\":{},",
                    "\"buckets\":{},\"partition_blocks\":{},",
                    "\"binary_ms\":{:.3},\"ladder_ms\":{:.3},\"speedup\":{:.3},",
                    "\"kernel_blocks\":{},\"classify_steps\":{},",
                    "\"fill_setup_steps\":{},\"sorted\":true,",
                    "\"permutation_match\":true}}"
                ),
                shape,
                n_classify,
                shards,
                (pieces - 1) / 2,
                pieces,
                blocks,
                binary_ms * 1e3,
                ladder_ms * 1e3,
                speedup,
                m.phases.partition.kernel_blocks,
                m.phases.partition.classify_steps,
                m.phases.fill.setup_steps,
            ));
        }
    }
    e.print(&format!(
        "E26e: classify timing at N = {n_classify} (one classification \
         pass over all N keys against the job's real splitters, best of \
         {classify_repeats}; speedup = binary/ladder, > 1 means the \
         interleaved ladder beat the piece_by_search reference; every \
         sort matched the stable oracle; fill-entry setup pinned at B·P)"
    ));

    // E26f — the in-place ledger (EXPERIMENTS.md E30). For every
    // throughput shape an instrumented lone worker sorts the keys, and
    // four claims are asserted in-binary before anything reaches the
    // artifact (the validator then recomputes them from the rows): the
    // permutation equals the stable oracle; the auxiliary allocation is
    // at most the B·P·8 destination-offset table; a crash-free run
    // never tears a unit (cycle_restarts = 0); and the run moved
    // exactly n + range_slots elements — every element once through
    // the fill, plus one republication per range-bucket slot
    // (equality buckets are final at fill time).
    let n_inplace = if quick { 20_000 } else { 1_000_000 };
    let mut inplace = Vec::new();
    let mut f = Table::new(&[
        "shape",
        "shards",
        "aux bytes",
        "B·P·8 cap",
        "range slots",
        "moves",
        "bytes touched",
    ]);
    for (shape, keys) in shapes(n_inplace) {
        let oracle = stable_permutation(&keys);
        for &shards in &[8usize, 64] {
            let job = ShardedSortJob::with_workers(
                keys.to_vec(),
                NativeAllocation::Deterministic,
                1,
                shards,
            );
            let slot = MetricSlot::new();
            job.participate_instrumented(&mut RunToCompletion, &slot);
            let m = slot.snapshot();
            let bytes = m.phases.fill.bytes_touched + m.phases.shard_sort.bytes_touched;
            let (blocks, pieces) = (job.partition_blocks(), job.buckets());
            let report = job.shard_report();
            let perm = job.permutation();
            assert!(
                perm_is_sorted(&keys, &perm),
                "output unsorted at {shards}x{shape}"
            );
            assert_eq!(
                perm, oracle,
                "permutation vs stable oracle at {shards}x{shape}"
            );
            let aux_cap = (blocks * pieces) as u64 * 8;
            assert!(
                report.aux_bytes <= aux_cap,
                "{shape} S={shards}: aux {} bytes exceeds the B·P·8 cap {aux_cap}",
                report.aux_bytes
            );
            let range_slots: usize = report
                .buckets
                .iter()
                .filter(|b| !b.equality)
                .map(|b| b.size)
                .sum();
            assert_eq!(
                report.moves,
                (n_inplace + range_slots) as u64,
                "{shape} S={shards}: a crash-free run moves n + range_slots elements"
            );
            assert_eq!(
                report.cycle_restarts, 0,
                "{shape} S={shards}: crash-free run tore a unit"
            );
            f.row(vec![
                shape.into(),
                shards.to_string(),
                report.aux_bytes.to_string(),
                aux_cap.to_string(),
                range_slots.to_string(),
                report.moves.to_string(),
                bytes.to_string(),
            ]);
            inplace.push(format!(
                concat!(
                    "{{\"shape\":\"{}\",\"n\":{},\"shards\":{},",
                    "\"partition_blocks\":{},\"buckets\":{},",
                    "\"aux_bytes\":{},\"aux_cap\":{},",
                    "\"range_slots\":{},\"moves\":{},\"bytes_touched\":{},",
                    "\"cycle_restarts\":{},\"sorted\":true,",
                    "\"permutation_match\":true}}"
                ),
                shape,
                n_inplace,
                shards,
                blocks,
                pieces,
                report.aux_bytes,
                aux_cap,
                range_slots,
                report.moves,
                bytes,
                report.cycle_restarts,
            ));
        }
    }
    f.print(&format!(
        "E26f: in-place ledger at N = {n_inplace} (lone instrumented \
         worker; aux = bytes of auxiliary allocation beyond the output \
         permutation, capped at B·P·8; moves = n + range slots exactly in \
         a crash-free run; bytes = Fill + shard-sort shared-array ledger; \
         every row's permutation matched the stable oracle)"
    ));

    let artifact = format!(
        "{{\"schema\":\"{SHARDED_SCHEMA}\",\"experiment\":\"e26_sharded_bench\",\
         \"quick\":{quick},\
         \"comparison\":[\n{}\n],\
         \"balance\":[\n{}\n],\
         \"counter_pins\":[\n{}\n],\
         \"adversarial\":[\n{}\n],\
         \"classify\":[\n{}\n],\
         \"inplace\":[\n{}\n]}}\n",
        comparison.join(",\n"),
        balance.join(",\n"),
        counter_pins.join(",\n"),
        adversarial.join(",\n"),
        classify.join(",\n"),
        inplace.join(",\n"),
    );
    // Self-gate before writing: a malformed artifact must never land.
    if let Err(e) = validate_sharded_bench(&artifact) {
        eprintln!("error: generated artifact fails its own schema: {e}");
        return ExitCode::FAILURE;
    }
    if std::env::var_os("BENCH_OUTPUT_DIR").is_some() {
        match write_artifact("BENCH_sharded.json", &artifact) {
            Some(path) => match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| validate_sharded_bench(&t).map_err(|e| e.to_string()))
            {
                Ok(entries) => {
                    println!("\nBENCH_sharded.json: {entries} entries, schema {SHARDED_SCHEMA}")
                }
                Err(e) => {
                    eprintln!("error: written artifact failed re-validation: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => {
                eprintln!("error: BENCH_OUTPUT_DIR is set but the artifact was not written");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("(BENCH_OUTPUT_DIR unset: BENCH_sharded.json not persisted)");
    }

    println!(
        "\nPaper tie-in (§1.2): the paper's O(N log N / P) bound charges \
         every element a descent through one shared tree, so the root is \
         a contention point the moment P stops scaling with N. Splitter \
         sharding in front of the tree (Axtmann–Sanders style) turns one \
         global rendezvous into S independent small trees, equality \
         buckets keep duplicate floods from re-serializing the split, and \
         the WAT machinery keeps the fault story: a crashed worker's \
         shard is redone whole by survivors. The in-place exchange keeps \
         the paper's low-contention discipline — disjoint writes, \
         monotone slot states — with a B·P offset table as its only \
         auxiliary allocation. Timings above are from a single shared \
         host; the permutation-parity, counter-pin, adversarial-balance, \
         and memory-ledger columns are the load-bearing ones."
    );
    ExitCode::SUCCESS
}
