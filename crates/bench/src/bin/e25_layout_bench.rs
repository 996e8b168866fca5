//! E25 — grain size and storage reuse on the native hot path: the
//! block-grain sweep of WAT claim traffic and the arena-reuse
//! amortization, persisted as the schema-stable `BENCH_layout.json`
//! perf artifact.
//!
//! The packed-vs-legacy pivot-tree race this binary used to run (E25a)
//! and its cache-line ledger (E25b) were retired with the legacy layout
//! once the packed [`wfsort_native::SharedTree`] had won the comparison
//! (EXPERIMENTS.md E25 keeps the recorded table; DESIGN.md §10 the
//! rationale).
//!
//! Run: `cargo run --release -p bench --bin e25_layout_bench`
//! CI smoke: `... e25_layout_bench -- --quick`
//! Schema gate: `... e25_layout_bench -- --validate <path>`
//!
//! When `BENCH_OUTPUT_DIR` is set, a missing or invalid artifact is a
//! hard error (exit 1), not a warning — CI depends on the file.

use std::process::ExitCode;

use bench::json::LAYOUT_SCHEMA;
use bench::{f2, timed, validate_layout_bench, write_artifact, Table};
use prng::Prng;
use wfsort_native::{recommended_grain, NativeAllocation, SortArena, SortJob, WaitFreeSorter};

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
        return match validate_layout_bench(&text) {
            Ok(entries) => {
                println!("{path}: valid {LAYOUT_SCHEMA} with {entries} entries");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let quick = args.iter().any(|a| a == "--quick");

    // E25c — grain sweep: block-grained work assignment shrinks the WAT
    // claim traffic by ~B while per-element claims stay put. Single
    // thread, deterministic allocation: every count below is exact, and
    // the validator recomputes build_block_claims from (n, grain).
    let n_sweep = 4096u64;
    let sweep_keys: Vec<u64> = {
        let mut rng = Prng::seed_from_u64(2525);
        (0..n_sweep).map(|_| rng.next_u64()).collect()
    };
    let mut sweep_expect = sweep_keys.clone();
    sweep_expect.sort_unstable();
    let mut grain_sweep = Vec::new();
    let mut c = Table::new(&[
        "grain",
        "build claims",
        "build block claims",
        "scatter block claims",
        "ms",
    ]);
    let mut claims_at_grain_1 = 0u64;
    for grain in [1usize, 2, 7, 64] {
        let job = SortJob::with_grain(
            sweep_keys.clone(),
            NativeAllocation::Deterministic,
            1,
            grain,
        );
        let (report, secs) = timed(|| WaitFreeSorter::new(1).run_job_with_report(&job));
        assert_eq!(job.into_sorted(), sweep_expect, "sweep run unsorted");
        let p = &report.per_phase;
        let jobs = (n_sweep - 1).div_ceil(grain as u64);
        assert_eq!(
            p.build.block_claims, jobs,
            "single-threaded block claims must equal ceil((n-1)/grain)"
        );
        if grain == 1 {
            claims_at_grain_1 = p.build.block_claims;
            assert_eq!(
                p.build.claims, p.build.block_claims,
                "grain 1: one block per item"
            );
        } else {
            assert_eq!(
                p.build.claims, claims_at_grain_1,
                "per-element claims are grain-independent"
            );
        }
        c.row(vec![
            grain.to_string(),
            p.build.claims.to_string(),
            p.build.block_claims.to_string(),
            p.scatter.block_claims.to_string(),
            f2(secs * 1e3),
        ]);
        grain_sweep.push(format!(
            concat!(
                "{{\"n\":{},\"grain\":{},\"build_claims\":{},",
                "\"build_block_claims\":{},\"scatter_block_claims\":{},",
                "\"elapsed_ms\":{:.3},\"sorted\":true}}"
            ),
            n_sweep,
            grain,
            p.build.claims,
            p.build.block_claims,
            p.scatter.block_claims,
            secs * 1e3,
        ));
        // The headline acceptance gate: the auto-selected grain (B = 64
        // at this n and worker count, present in the sweep) cuts
        // build-phase WAT claim traffic by at least 4x at N = 4096.
        // Small sweep grains reduce by exactly their own factor (the
        // equality assert above), so only grains >= 4 can clear 4x.
        if grain >= 4 {
            assert!(
                p.build.block_claims * 4 <= claims_at_grain_1,
                "grain {grain} cut block claims only {claims_at_grain_1} -> {}",
                p.build.block_claims
            );
        }
    }
    assert_eq!(
        recommended_grain(n_sweep as usize, 1),
        64,
        "the sweep must include the auto-selected grain"
    );
    c.print(&format!(
        "E25c: WAT claim traffic vs grain at N = {n_sweep}, 1 thread \
         (block claims shrink ~Bx; per-element claims are pinned)"
    ));

    // E25d — arena reuse: total time for `rounds` sorts with a fresh job
    // each round vs recycling one SortArena.
    let n_arena = if quick { 4096 } else { 20_000 };
    let rounds = if quick { 8 } else { 12 };
    let sorter = WaitFreeSorter::new(if quick { 2 } else { 4 });
    let arena_keys: Vec<Vec<u64>> = (0..rounds)
        .map(|r| {
            let mut rng = Prng::seed_from_u64(4200 + r as u64);
            (0..n_arena).map(|_| rng.next_u64()).collect()
        })
        .collect();
    let mut arena_ok = true;
    let (_, fresh_secs) = timed(|| {
        for keys in &arena_keys {
            let sorted = sorter.sort(keys);
            arena_ok &= sorted.windows(2).all(|w| w[0] <= w[1]);
        }
    });
    let mut arena = SortArena::new();
    let mut out = Vec::new();
    let (_, arena_secs) = timed(|| {
        for keys in &arena_keys {
            sorter.sort_into(keys, &mut arena, &mut out);
            arena_ok &= out.windows(2).all(|w| w[0] <= w[1]);
        }
    });
    assert!(arena_ok, "arena round produced unsorted output");
    let mut d = Table::new(&["rounds", "n", "fresh ms", "arena ms", "saved"]);
    d.row(vec![
        rounds.to_string(),
        n_arena.to_string(),
        f2(fresh_secs * 1e3),
        f2(arena_secs * 1e3),
        format!("{:+.1}%", (1.0 - arena_secs / fresh_secs) * 1e2),
    ]);
    d.print(
        "E25d: allocation amortization — fresh job per sort vs one \
         recycled SortArena (same keys, same sorter)",
    );
    let arena_json = format!(
        concat!(
            "{{\"n\":{},\"rounds\":{},\"fresh_ms\":{:.3},\"arena_ms\":{:.3},",
            "\"sorted\":true}}"
        ),
        n_arena,
        rounds,
        fresh_secs * 1e3,
        arena_secs * 1e3,
    );

    let artifact = format!(
        "{{\"schema\":\"{LAYOUT_SCHEMA}\",\"experiment\":\"e25_layout_bench\",\
         \"quick\":{quick},\
         \"grain_sweep\":[\n{}\n],\
         \"arena\":[\n{}\n]}}\n",
        grain_sweep.join(",\n"),
        arena_json,
    );
    // Self-gate before writing: a malformed artifact must never land.
    if let Err(e) = validate_layout_bench(&artifact) {
        eprintln!("error: generated artifact fails its own schema: {e}");
        return ExitCode::FAILURE;
    }
    if std::env::var_os("BENCH_OUTPUT_DIR").is_some() {
        match write_artifact("BENCH_layout.json", &artifact) {
            Some(path) => match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| validate_layout_bench(&t).map_err(|e| e.to_string()))
            {
                Ok(entries) => {
                    println!("\nBENCH_layout.json: {entries} entries, schema {LAYOUT_SCHEMA}")
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
        eprintln!("(BENCH_OUTPUT_DIR unset: BENCH_layout.json not persisted)");
    }

    println!(
        "\nPaper tie-in (§3): block-grained work assignment divides the \
         WAT claim CAS traffic by the grain while leaving the paper's \
         per-element operation counts — and the PRAM-parity pins built \
         on them — untouched. Timings above are from a single shared \
         host; the deterministic counter columns are the load-bearing \
         ones."
    );
    ExitCode::SUCCESS
}
