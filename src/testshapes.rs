//! Deterministic adversarial input generators shared by the test and
//! bench harnesses.
//!
//! Every sharded-path claim in this repo is differential ("bit-identical
//! to the single-tree permutation") or quantitative ("imbalance ≤ τ"),
//! and both kinds are only as strong as the input shapes they are swept
//! over. This module centralizes the shapes that historically break
//! splitter-based partitioning — duplicate floods, heavy skew,
//! pre-sorted and periodic inputs — so `tests/sharded_parity.rs`,
//! `tests/proptest_sharded.rs`, and `e26_sharded_bench` all draw from
//! one list instead of each hand-rolling a subset.
//!
//! Everything here is a pure function of its arguments: the generators
//! seed a [`Prng`] explicitly, so a failing case replays from its
//! printed `(shape, n, seed)` triple alone.
//!
//! The property suites (`tests/proptest_*.rs`) are plain seeded loops:
//! [`for_each_case`] runs a property on a fixed number of cases, each
//! drawing its inputs from its own seeded [`Prng`] (with [`vec_of`] and
//! [`random_shape`] among the helpers), and names the seed of a failing
//! case so it replays.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use prng::Prng;

/// `n` copies of one key — the shape that collapses naive splitter
/// sampling entirely (every sampled candidate is equal, so without
/// deduplication every "splitter" is the same key and one shard
/// receives the whole input).
pub fn all_equal(n: usize) -> Vec<u64> {
    vec![7; n]
}

/// Random draws from exactly two values: the smallest nontrivial
/// duplicate-flood, with both equality-bucket boundaries exercised.
pub fn two_valued(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..2u64) * 1000).collect()
}

/// Zipf(1.0) draws over `1..=universe`: value `k` with probability
/// proportional to `1/k`, the canonical heavy-skew shape from the
/// robust sample-sort literature. Sampled by binary search over an
/// integer cumulative-weight table (no floating-point RNG), so the
/// output is identical on every platform for a given seed.
pub fn zipf(n: usize, universe: u64, seed: u64) -> Vec<u64> {
    assert!(universe >= 1, "zipf needs a non-empty universe");
    // Fixed-point harmonic weights: weight(k) = SCALE / k.
    const SCALE: u64 = 1 << 24;
    let mut cumulative = Vec::with_capacity(universe as usize);
    let mut total = 0u64;
    for k in 1..=universe {
        total += SCALE / k;
        cumulative.push(total);
    }
    let mut rng = Prng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let r = rng.gen_range(0..total);
            cumulative.partition_point(|&c| c <= r) as u64 + 1
        })
        .collect()
}

/// `0, 1, …, n-1`: already sorted. Harmless for splitters, adversarial
/// for insertion-order pivot trees (monotone inserts build a path), so
/// any path that feeds a pre-sorted run through a pivot tree shows up
/// as a timing cliff here.
pub fn presorted(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

/// `n-1, …, 1, 0`: sorted backwards — the mirror pivot-tree path case.
pub fn reverse_sorted(n: usize) -> Vec<u64> {
    (0..n as u64).rev().collect()
}

/// `0, 1, …, ⌈n/2⌉-1, …, 1, 0`: an ascending run followed by its
/// mirror — two monotone runs meeting at a peak, so both halves of the
/// pivot-tree path case and every range bucket holding keys from both
/// runs out of order.
pub fn organ_pipe(n: usize) -> Vec<u64> {
    (0..n).map(|i| i.min(n - 1 - i) as u64).collect()
}

/// `i % period`: the periodic shape that aliases with stride-positioned
/// splitter samples (the E25/E26 worst case for sampling).
pub fn sawtooth(n: usize, period: u64) -> Vec<u64> {
    assert!(period >= 1, "sawtooth needs a non-zero period");
    (0..n as u64).map(|i| i % period).collect()
}

/// Random values repeated in runs of `run_len`: long equal-key chains at
/// random positions, stressing both equality buckets and the stable
/// tie-break order across run boundaries.
pub fn runs_of_duplicates(n: usize, run_len: usize, seed: u64) -> Vec<u64> {
    assert!(run_len >= 1, "runs need a non-zero length");
    let mut rng = Prng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let value = rng.gen_range(0..1_000u64);
        let take = run_len.min(n - out.len());
        out.extend(std::iter::repeat_n(value, take));
    }
    out
}

/// Uniform random draws over the full `u64` range — the benign control
/// shape every sweep should include.
pub fn uniform(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Random draws from `values` distinct keys — long equal chains with a
/// controllable distinct count.
pub fn few_distinct(n: usize, values: u64, seed: u64) -> Vec<u64> {
    assert!(values >= 1, "need at least one distinct value");
    let mut rng = Prng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..values)).collect()
}

/// The named adversarial battery: every shape above at size `n`, as
/// `(name, keys)` pairs. This is the list the sharded parity suite and
/// the E26/E28 balance tables sweep; add new adversarial shapes here so
/// every harness picks them up at once.
pub fn adversarial_suite(n: usize, seed: u64) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("uniform-random", uniform(n, seed)),
        ("all-equal", all_equal(n)),
        ("two-valued", two_valued(n, seed ^ 1)),
        ("zipf-1.0", zipf(n, 1024, seed ^ 2)),
        ("pre-sorted", presorted(n)),
        ("reverse-sorted", reverse_sorted(n)),
        ("organ-pipe", organ_pipe(n)),
        ("sawtooth", sawtooth(n, 199)),
        ("runs-of-duplicates", runs_of_duplicates(n, 17, seed ^ 3)),
        ("few-distinct", few_distinct(n, 64, seed ^ 4)),
    ]
}

/// One shape of [`adversarial_suite`], chosen at random, at a random size
/// in `sizes` and a random seed. Every shape of the suite can be drawn.
pub fn random_shape(rng: &mut Prng, sizes: Range<usize>) -> (&'static str, Vec<u64>) {
    let n = rng.gen_range(sizes);
    let mut suite = adversarial_suite(n, rng.next_u64());
    let shape = rng.gen_range(0..suite.len());
    suite.swap_remove(shape)
}

/// A vector of random length in `len` whose items `item` draws.
pub fn vec_of<T>(
    rng: &mut Prng,
    len: Range<usize>,
    mut item: impl FnMut(&mut Prng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}

/// A uniform `f64` in `[0, 1)` with 53 random bits.
pub fn unit_f64(rng: &mut Prng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The seed of case `case` of the property `name`: distinct across
/// properties and cases, fixed across runs.
fn case_seed(name: &str, case: u32) -> u64 {
    // FNV-1a over the name, then the case index mixed in.
    let hash = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    });
    hash ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `property` on `cases` cases, each with a [`Prng`] seeded from
/// the property's name and the case index. A failing case is reported
/// with its index and seed before its panic propagates; running the
/// property body once on `Prng::seed_from_u64(seed)` replays it.
pub fn for_each_case(name: &str, cases: u32, mut property: impl FnMut(&mut Prng)) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            property(&mut Prng::seed_from_u64(seed))
        }));
        if let Err(panic) = outcome {
            eprintln!("property `{name}` failed at case {case} of {cases}: seed {seed:#018x}");
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_sized() {
        for (name, keys) in adversarial_suite(257, 42) {
            assert_eq!(keys.len(), 257, "{name}");
            let again: Vec<(&str, Vec<u64>)> = adversarial_suite(257, 42);
            let twin = &again.iter().find(|(n2, _)| *n2 == name).unwrap().1;
            assert_eq!(&keys, twin, "{name} must replay from its seed");
        }
    }

    #[test]
    fn zipf_is_heavy_headed() {
        let keys = zipf(10_000, 1024, 9);
        assert!(keys.iter().all(|&k| (1..=1024).contains(&k)));
        // Value 1 carries ~1/H(1024) ≈ 13% of the mass; even a weak
        // sampler should put well over 5% of draws there.
        let ones = keys.iter().filter(|&&k| k == 1).count();
        assert!(ones > 500, "zipf head too light: {ones}");
    }

    #[test]
    fn runs_have_equal_chains() {
        let keys = runs_of_duplicates(100, 10, 3);
        assert_eq!(keys.len(), 100);
        assert!(keys.chunks(10).all(|c| c.iter().all(|&k| k == c[0])));
    }

    #[test]
    fn cases_replay_from_their_seeds() {
        let mut first = Vec::new();
        for_each_case("replay", 5, |rng| {
            first.push(vec_of(rng, 0..9, |r| r.next_u64()))
        });
        let mut again = Vec::new();
        for_each_case("replay", 5, |rng| {
            again.push(vec_of(rng, 0..9, |r| r.next_u64()))
        });
        assert_eq!(first, again);
        let replayed = vec_of(
            &mut Prng::seed_from_u64(case_seed("replay", 3)),
            0..9,
            |r| r.next_u64(),
        );
        assert_eq!(replayed, first[3]);
        assert_ne!(case_seed("replay", 0), case_seed("other", 0));
    }

    #[test]
    fn organ_pipe_rises_then_falls() {
        assert_eq!(organ_pipe(7), vec![0, 1, 2, 3, 2, 1, 0]);
        assert_eq!(organ_pipe(6), vec![0, 1, 2, 2, 1, 0]);
        assert_eq!(organ_pipe(1), vec![0]);
        assert!(organ_pipe(0).is_empty());
    }

    #[test]
    fn random_shapes_come_from_the_battery() {
        let names: Vec<&str> = adversarial_suite(2, 0).iter().map(|(n, _)| *n).collect();
        let mut drawn = vec![false; names.len()];
        let mut rng = Prng::seed_from_u64(1);
        for _ in 0..200 {
            let (name, keys) = random_shape(&mut rng, 2..40);
            assert!((2..40).contains(&keys.len()));
            let at = names
                .iter()
                .position(|n| *n == name)
                .expect("a battery shape");
            drawn[at] = true;
        }
        // The draw range follows the suite, so a newly added shape is
        // drawn too.
        assert!(drawn.iter().all(|&d| d), "undrawn shapes: {drawn:?}");
    }
}
