//! Property tests for the packed pivot-tree layout (DESIGN.md §10): the
//! branchless traversal-order helper against the simulator's bit
//! decoder. Each property is a seeded loop over
//! [`testshapes::for_each_case`]; a failure names its case seed.

use wait_free_sort::pram::Pid;
use wait_free_sort::testshapes::for_each_case;
use wait_free_sort::wfsort_native::{descent_side, Side};

/// `descent_side` must agree with the simulator's `Pid::bit` for every
/// depth below `usize::BITS` — the two models must walk sum and place
/// traversals in the same order or the parity pins in
/// tests/native_metrics.rs mean nothing. (At or beyond `usize::BITS`
/// the native helper wraps while `Pid::bit` saturates; both are fixed,
/// correct orders — see `descent_side`'s docs — so the contract is
/// scoped to real depths.)
#[test]
fn descent_side_matches_simulator_bit() {
    for_each_case("descent_side_matches_simulator_bit", 64, |rng| {
        let tid = rng.gen_range(0usize..1_000_000);
        let depth = rng.gen_range(0u32..usize::BITS);
        assert_eq!(
            descent_side(tid, depth),
            Side::from_bit(Pid::new(tid).bit(depth))
        );
    });
}
