//! Chaos-harness acceptance tests for the native sorter: seeded fault
//! plans, exhaustive crash-window sweeps, deadline-bounded sorting, and
//! the progress watchdog.
//!
//! The native mirror of `tests/wait_freedom.rs`: where that file scripts
//! PRAM-cycle failures through `FailurePlan`, these tests script
//! participation-checkpoint failures through `ChaosPlan` and assert the
//! same headline property — any surviving participant (or, at worst, the
//! calling thread) completes the sort, under every fault schedule tried.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use wait_free_sort::testshapes::{few_distinct, sawtooth, uniform};
use wait_free_sort::wfsort_native::{
    recommended_grain, ChaosParticipation, ChaosPlan, CheckpointCounter, Health, NativeAllocation,
    Participation, QuitAfter, RunToCompletion, SortJob, WaitFreeSorter, Watchdog, WithDeadline,
    DEFAULT_TRACKED_PARTICIPANTS,
};

fn random_keys(n: usize, seed: u64) -> Vec<u64> {
    use prng::Prng;
    let mut rng = Prng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..1_000_000)).collect()
}

/// The oracle: 1-based indices of `keys` in a stable sort by key — the
/// `(key, index)` order every native job must reproduce exactly.
fn stable_permutation(keys: &[u64]) -> Vec<usize> {
    let mut perm: Vec<usize> = (1..=keys.len()).collect();
    perm.sort_by_key(|&i| keys[i - 1]);
    perm
}

/// Drives `job` with one `ChaosParticipation` worker per plan slot and
/// reports whether the workers alone completed it.
fn run_cohort(job: &SortJob<u64>, plan: &ChaosPlan) -> bool {
    std::thread::scope(|s| {
        for w in 0..plan.workers() {
            s.spawn(move || job.participate(&mut ChaosParticipation::new(plan, w)));
        }
    });
    job.is_complete()
}

/// The core acceptance sweep: 200+ seeded crash storms, each reaping 75%
/// of a 4-worker cohort at random checkpoints. Every run must be
/// completed *by the workers themselves* (no caller fallback) and sorted
/// correctly, and the storm must be reproducible from its seed alone.
#[test]
fn seeded_crash_storm_sweep_200() {
    let keys = random_keys(600, 42);
    let mut expect = keys.clone();
    expect.sort_unstable();
    for seed in 0..200u64 {
        let plan = ChaosPlan::random_crashes(4, 0.75, 150, seed);
        assert!(plan.survivors() >= 1, "seed {seed}: no survivor");
        // The plan is a pure function of its seed.
        let replay = ChaosPlan::random_crashes(4, 0.75, 150, seed);
        for w in 0..4 {
            assert_eq!(plan.script(w), replay.script(w), "seed {seed} worker {w}");
        }
        let job = SortJob::new(keys.clone());
        assert!(
            run_cohort(&job, &plan),
            "seed {seed}: survivors failed to complete the sort"
        );
        assert_eq!(job.into_sorted(), expect, "seed {seed}: wrong output");
    }
}

/// Storms with jitter layered on top: background stalls perturb the
/// interleaving but can never perturb the output.
#[test]
fn seeded_storm_with_jitter_sweep() {
    let keys = random_keys(400, 7);
    let mut expect = keys.clone();
    expect.sort_unstable();
    for seed in 0..40u64 {
        let plan = ChaosPlan::random_crashes(4, 0.5, 120, seed).with_jitter(0.1, 200);
        let job = SortJob::new(keys.clone());
        assert!(run_cohort(&job, &plan), "seed {seed}");
        assert_eq!(job.into_sorted(), expect, "seed {seed}");
    }
}

/// Pause/revive storms (the §1.1 undetectable-restart adversary): nobody
/// crashes, so every cohort finishes — delayed, never blocked.
#[test]
fn pause_revive_storm_completes() {
    let keys = random_keys(400, 9);
    let mut expect = keys.clone();
    expect.sort_unstable();
    for seed in 0..10u64 {
        let plan = ChaosPlan::random_pause_revive(3, 4, 100, seed);
        let job = SortJob::new(keys.clone());
        assert!(run_cohort(&job, &plan), "seed {seed}");
        assert_eq!(job.into_sorted(), expect, "seed {seed}");
    }
}

/// The native mirror of `exhaustive_single_crash_window_sweep`: measure
/// how many checkpoints a solo run of a small input consults, then crash
/// a worker at *every* one of those checkpoints in turn, with a single
/// clean partner. No crash window may corrupt the sort.
#[test]
fn exhaustive_single_crash_checkpoint_sweep() {
    let keys = random_keys(24, 11);
    let mut expect = keys.clone();
    expect.sort_unstable();

    // Window size: checkpoints a solo uninterrupted run consults.
    let baseline = SortJob::new(keys.clone());
    let mut counter = CheckpointCounter::new(RunToCompletion);
    baseline.participate(&mut counter);
    assert!(baseline.is_complete());
    assert_eq!(baseline.into_sorted(), expect);
    let windows = counter.count();
    assert!(windows > 0);

    for c in 0..windows {
        let plan = ChaosPlan::new(2).crash_at(0, c);
        let job = SortJob::new(keys.clone());
        assert!(
            run_cohort(&job, &plan),
            "crash at checkpoint {c}/{windows}: partner failed to finish"
        );
        assert_eq!(
            job.into_sorted(),
            expect,
            "crash at checkpoint {c}/{windows}: wrong output"
        );
    }
}

/// `sort_with_plan` survives a plan that crashes *every* worker
/// immediately: the calling thread is the survivor of last resort.
#[test]
fn sort_with_plan_survives_total_cohort_loss() {
    let keys = random_keys(2_000, 13);
    let mut expect = keys.clone();
    expect.sort_unstable();
    let plan = ChaosPlan::new(4)
        .crash_at(0, 0)
        .crash_at(1, 0)
        .crash_at(2, 0)
        .crash_at(3, 0);
    assert_eq!(plan.survivors(), 0);
    let sorted = WaitFreeSorter::new(4).sort_with_plan(&keys, &plan);
    assert_eq!(sorted, expect);
}

/// `sort_with_plan` under randomized storms across allocation of work to
/// many workers: output is always the full sort.
#[test]
fn sort_with_plan_randomized_storms() {
    let keys = random_keys(1_500, 17);
    let mut expect = keys.clone();
    expect.sort_unstable();
    let sorter = WaitFreeSorter::new(4);
    for seed in 0..25u64 {
        let plan = ChaosPlan::random_crashes(6, 0.8, 200, seed).with_jitter(0.05, 100);
        assert_eq!(sorter.sort_with_plan(&keys, &plan), expect, "seed {seed}");
    }
}

/// A zero deadline reaps every helper at its first checkpoint; the caller
/// still returns the correct sort.
#[test]
fn sort_with_deadline_zero_is_correct() {
    let keys = random_keys(3_000, 19);
    let mut expect = keys.clone();
    expect.sort_unstable();
    let sorter = WaitFreeSorter::new(4);
    assert_eq!(sorter.sort_with_deadline(&keys, Duration::ZERO), expect);
    assert_eq!(
        sorter.sort_with_deadline(&keys, Duration::from_millis(5)),
        expect
    );
}

/// A helper whose deadline already expired at entry does *zero* work:
/// `WithDeadline` checks the clock on its very first consultation, so the
/// inner participation is never consulted and the caller does everything.
#[test]
fn expired_deadline_at_entry_means_zero_helper_occupancy() {
    let keys = random_keys(1_500, 37);
    let mut expect = keys.clone();
    expect.sort_unstable();

    let job = SortJob::new(keys);
    // A deadline strictly in the past (falling back to "now" on platforms
    // where Instant cannot represent it).
    let until = Instant::now()
        .checked_sub(Duration::from_secs(1))
        .unwrap_or_else(Instant::now);
    let counts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let job = &job;
                s.spawn(move || {
                    let mut p = WithDeadline::new(CheckpointCounter::new(RunToCompletion), until);
                    job.participate(&mut p);
                    assert!(p.expired());
                    p.into_inner().count()
                })
            })
            .collect();
        // The caller ignores the deadline and finishes alone.
        job.run();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert!(job.is_complete());
    assert_eq!(job.into_sorted(), expect);
    assert_eq!(
        counts,
        vec![0, 0, 0],
        "expired helpers consulted checkpoints"
    );
}

/// A deadline racing the final checkpoints: whatever instant the deadline
/// lands on, the sort is correct and each helper overshoots the deadline
/// by at most one clock-sampling window (16 checkpoints).
#[test]
fn deadline_racing_the_final_checkpoint_bounds_occupancy() {
    /// Counts inner consultations that happen at-or-after the deadline —
    /// the occupancy `WithDeadline` is supposed to bound.
    struct LateProbe {
        until: Instant,
        late: u64,
    }
    impl Participation for LateProbe {
        fn keep_going(&mut self) -> bool {
            if Instant::now() >= self.until {
                self.late += 1;
            }
            true
        }
    }

    let keys = random_keys(2_000, 41);
    let mut expect = keys.clone();
    expect.sort_unstable();
    // Deadlines from "immediately" up past typical completion time, so
    // across the sweep some run has the deadline land mid-run or right at
    // the final checkpoints.
    for micros in [0u64, 20, 100, 500, 2_000, 20_000] {
        let job = SortJob::new(keys.clone());
        let until = Instant::now() + Duration::from_micros(micros);
        let late = std::thread::scope(|s| {
            let handle = {
                let job = &job;
                s.spawn(move || {
                    let mut p = WithDeadline::new(LateProbe { until, late: 0 }, until);
                    job.participate(&mut p);
                    p.into_inner().late
                })
            };
            job.run();
            handle.join().unwrap()
        });
        assert!(job.is_complete());
        assert_eq!(
            job.into_sorted(),
            expect,
            "deadline {micros}us: wrong output"
        );
        assert!(
            late <= 16,
            "deadline {micros}us: helper consulted {late} checkpoints past the deadline"
        );
    }
}

/// Deadline *and* chaos at once: every helper crashes at checkpoint zero
/// under a zero deadline, and the caller still finishes alone.
#[test]
fn sort_with_deadline_under_total_chaos() {
    let keys = random_keys(2_000, 23);
    let mut expect = keys.clone();
    expect.sort_unstable();
    let plan = ChaosPlan::new(3)
        .crash_at(0, 0)
        .crash_at(1, 0)
        .crash_at(2, 0);
    let sorted = WaitFreeSorter::new(4).sort_with_deadline_under(&keys, Duration::ZERO, &plan);
    assert_eq!(sorted, expect);
}

/// The watchdog tells a reaped-but-progressing run from a wedged one:
/// a worker that quits early reads as `Progressing { reaped: 1, .. }`,
/// a subsequent idle window reads as `Wedged`, and fresh participation
/// flips it back to `Progressing` and eventually `Complete`.
#[test]
fn watchdog_distinguishes_reaped_from_wedged() {
    let keys = random_keys(4_000, 29);
    let job = SortJob::new(keys);
    let mut dog = Watchdog::new(&job);

    // Untouched job: nothing has ever moved.
    assert_eq!(dog.observe(), Health::Wedged);

    // One worker is reaped mid-build. That is progress (work happened),
    // and the report attributes it: one advancing-then-departed worker.
    let plan = ChaosPlan::new(1).crash_at(0, 50);
    job.participate(&mut ChaosParticipation::new(&plan, 0));
    match dog.observe() {
        Health::Progressing {
            advancing, reaped, ..
        } => {
            assert_eq!(advancing, 1);
            assert_eq!(reaped, 1);
        }
        h => panic!("expected Progressing after reaped worker, got {h:?}"),
    }
    let report = dog.report().unwrap().clone();
    assert!(!report.complete);
    assert_eq!(report.reaped_workers(), 1);
    assert_eq!(report.live_workers(), 0);

    // Nobody is working now: the same incomplete job reads Wedged, not
    // Progressing — reaped history does not mask a global stall.
    assert_eq!(dog.observe(), Health::Wedged);

    // A fresh participant clears the wedge, as wait-freedom promises.
    job.run();
    assert_eq!(dog.observe(), Health::Complete);
    let done = dog.report().unwrap();
    assert!(done.complete);
    assert_eq!(done.reaped_workers(), 0);
    assert_eq!(done.build_jobs_done, done.build_jobs_total);
    assert_eq!(done.scatter_jobs_done, done.scatter_jobs_total);
}

/// `ProgressReport` is inspectable mid-run: frontiers move monotonically
/// and the display summary carries the numbers.
#[test]
fn progress_report_tracks_frontiers() {
    let keys = random_keys(1_000, 31);
    let job = SortJob::new(keys);
    let before = job.progress();
    assert!(!before.complete);
    assert_eq!(before.participants, 0);
    assert_eq!(before.build_jobs_done, 0);
    assert_eq!(before.scatter_jobs_done, 0);
    assert!(before.build_jobs_total > 0);

    job.run();
    let after = job.progress();
    assert!(after.complete);
    assert_eq!(after.participants, 1);
    assert_eq!(after.build_jobs_done, after.build_jobs_total);
    assert_eq!(after.scatter_jobs_done, after.scatter_jobs_total);
    let text = after.to_string();
    assert!(text.contains("complete"), "got: {text}");
    let frontier = format!("build {}/{}", after.build_jobs_done, after.build_jobs_total);
    assert!(text.contains(&frontier), "got: {text}");
}

/// Runs normally except for one controlled freeze: at the second
/// checkpoint it flags `parked`, then spins until `release` — a live,
/// wedged participant with a deterministic park point.
struct Gated<'a> {
    release: &'a AtomicBool,
    parked: &'a AtomicBool,
    checks: usize,
}

impl Participation for Gated<'_> {
    fn keep_going(&mut self) -> bool {
        self.checks += 1;
        if self.checks == 2 {
            self.parked.store(true, Ordering::Release);
            while !self.release.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
        true
    }
}

/// Regression test for the heartbeat slot-aliasing bug: participant ids
/// used to be folded into a hard-coded 64-slot table (`tid % 64`), so
/// the 65th joiner silently shared slot 0 with a reaped thread — the
/// report showed a departed worker as live, and the watchdog could read
/// a wedged cohort as progressing. `SortJob::with_tracked` now sizes the
/// table to the announced worker count; this test drives one more
/// participant than the old hard-coded capacity and asserts the late
/// joiner gets its own, correctly attributed row.
#[test]
fn heartbeats_track_more_workers_than_the_old_fixed_table() {
    let workers = DEFAULT_TRACKED_PARTICIPANTS + 1;
    let keys = random_keys(6_000, 37);
    let job = SortJob::with_tracked(keys, NativeAllocation::Deterministic, workers);

    // The first 64 participants join and are reaped almost immediately.
    for _ in 0..DEFAULT_TRACKED_PARTICIPANTS {
        job.participate(&mut QuitAfter(1));
    }
    assert!(!job.is_complete(), "quitters alone must not finish the job");

    let release = AtomicBool::new(false);
    let parked = AtomicBool::new(false);
    let mut dog = Watchdog::new(&job);
    std::thread::scope(|s| {
        s.spawn(|| {
            job.participate(&mut Gated {
                release: &release,
                parked: &parked,
                checks: 0,
            });
        });
        while !parked.load(Ordering::Acquire) {
            std::thread::yield_now();
        }

        // With the old indexing the report had 64 rows and the late
        // joiner aliased slot 0, resurrecting a reaped thread. Now every
        // participant has its own row and nothing is aliased.
        let report = job.progress();
        assert_eq!(report.tracked_slots, workers);
        assert_eq!(report.aliased_participants, 0);
        assert_eq!(report.participants, workers);
        assert_eq!(report.workers.len(), workers);
        assert!(
            report.workers[..DEFAULT_TRACKED_PARTICIPANTS]
                .iter()
                .all(|w| w.departed),
            "the reaped cohort must read as departed"
        );
        let late = &report.workers[DEFAULT_TRACKED_PARTICIPANTS];
        assert!(!late.departed, "the parked worker is live, not reaped");
        assert!(late.epoch > 0, "the parked worker published progress");
        assert_eq!(report.live_workers(), 1);

        // The watchdog sees through the reaped pile: the parked live
        // worker stops the epoch clock, so the second observation is a
        // true global stall, not Progressing-by-alias.
        assert!(matches!(dog.observe(), Health::Progressing { .. }));
        assert_eq!(dog.observe(), Health::Wedged);

        release.store(true, Ordering::Release);
    });
    assert!(job.is_complete(), "released worker finishes the sort");
    assert_eq!(dog.observe(), Health::Complete);
}

/// Joiners beyond the heartbeat table are no longer silently folded into
/// old slots: the report counts them as aliased, keeping live/reaped
/// attribution honest for the rows it does track.
#[test]
fn default_job_counts_aliased_late_joiners() {
    let keys = random_keys(3_000, 41);
    let job = SortJob::new(keys);
    for _ in 0..DEFAULT_TRACKED_PARTICIPANTS + 6 {
        job.participate(&mut QuitAfter(1));
    }
    let report = job.progress();
    assert_eq!(report.tracked_slots, DEFAULT_TRACKED_PARTICIPANTS);
    assert_eq!(report.participants, DEFAULT_TRACKED_PARTICIPANTS + 6);
    assert_eq!(report.aliased_participants, 6);
    assert_eq!(report.workers.len(), DEFAULT_TRACKED_PARTICIPANTS);
    let text = report.to_string();
    assert!(text.contains("[6 aliased]"), "got: {text}");
}

/// The crash storm above, swept across block grains: reap 75% of a
/// 4-worker cohort at random checkpoints and require the survivors to
/// finish the exact stable permutation at every grain. Block-grained
/// claiming changes how much work a mid-block crash strands, so
/// wait-freedom under churn must be re-proven per grain.
#[test]
fn chaos_storm_completes_across_grain_sweep() {
    let keys = random_keys(600, 3);
    let expect = stable_permutation(&keys);
    for grain in [1usize, 2, 7, 64] {
        for seed in 0..12u64 {
            let plan = ChaosPlan::random_crashes(4, 0.75, 150, seed);
            let job = SortJob::with_grain(keys.clone(), NativeAllocation::Deterministic, 4, grain);
            assert!(
                run_cohort(&job, &plan),
                "B={grain} seed {seed}: cohort left the sort incomplete"
            );
            assert_eq!(job.permutation(), expect, "B={grain} seed {seed}");
        }
    }
}

/// Racing cohorts may split the work differently at every grain, but
/// never the result: each run reproduces the stable permutation on the
/// uniform, few-distinct (long equal-key chains) and sawtooth (highly
/// predictable descents) shapes.
#[test]
fn concurrent_outputs_agree_across_grains() {
    let n = 1500;
    for (shape, keys) in [
        ("uniform", uniform(n, 11)),
        ("few-distinct", few_distinct(n, 64, 11)),
        ("sawtooth", sawtooth(n, 199)),
    ] {
        let expect = stable_permutation(&keys);
        for grain in [1usize, 2, 7, 64] {
            let job = SortJob::with_grain(keys.clone(), NativeAllocation::Deterministic, 4, grain);
            WaitFreeSorter::new(4).run_job(&job);
            assert_eq!(job.permutation(), expect, "{shape}/B={grain}");
        }
    }
}

/// The recommended grain feeds the default constructors; pin its shape
/// so the sweeps above provably cover the auto-selected values.
#[test]
fn recommended_grain_is_clamped_and_swept() {
    assert_eq!(recommended_grain(4096, 1), 64, "big n, one worker: cap");
    assert_eq!(recommended_grain(16, 4), 1, "tiny n: floor");
    assert_eq!(recommended_grain(112, 7), 2);
    assert_eq!(recommended_grain(4096, 8), 64);
    assert_eq!(recommended_grain(1024, 2), 64);
    assert_eq!(recommended_grain(1024, 16), 8);
}
