//! Reusable sort storage: keep one [`SortArena`] around and repeated
//! sorts stop paying the per-call allocation bill.
//!
//! A fresh [`SortJob`] allocates the packed pivot-tree cells, two WAT
//! node vectors, the permutation vector, the heartbeat slots, and a copy
//! of the keys — all `O(n)`, all thrown away when the job is dropped.
//! [`crate::WaitFreeSorter::sort_into`] instead parks the finished job in
//! an arena; the next sort resets the atomics in place (plain `get_mut`
//! stores — exclusive access between sorts means no synchronization is
//! needed, and the crate stays `forbid(unsafe_code)`) and only grows a
//! vector when the input outgrows it.

use crate::job::{NativeAllocation, SortJob};

/// Retained storage for repeated sorts over the same key type.
///
/// # Examples
///
/// ```
/// use wfsort_native::{SortArena, WaitFreeSorter};
///
/// let sorter = WaitFreeSorter::new(2);
/// let mut arena = SortArena::new();
/// let mut out = Vec::new();
/// for round in 0..3u64 {
///     let keys: Vec<u64> = (0..100).map(|i| (i * 37 + round) % 101).collect();
///     sorter.sort_into(&keys, &mut arena, &mut out);
///     assert!(out.windows(2).all(|w| w[0] <= w[1]));
/// }
/// ```
#[derive(Debug)]
pub struct SortArena<K: Ord> {
    job: Option<SortJob<K>>,
    sorts: u64,
    recycled: u64,
}

impl<K: Ord> Default for SortArena<K> {
    fn default() -> Self {
        SortArena::new()
    }
}

impl<K: Ord> SortArena<K> {
    /// An empty arena; the first sort through it allocates, later sorts
    /// recycle.
    pub fn new() -> Self {
        SortArena {
            job: None,
            sorts: 0,
            recycled: 0,
        }
    }

    /// Whether the arena currently holds recyclable storage.
    pub fn is_warm(&self) -> bool {
        self.job.is_some()
    }

    /// Jobs prepared through this arena over its lifetime — the reuse
    /// telemetry a pooled-arena host (one arena per worker, shared
    /// across tenants, as [`crate::service::SortService`] pools them)
    /// reads to confirm the allocation bill is actually amortized.
    pub fn sorts(&self) -> u64 {
        self.sorts
    }

    /// How many of those [`SortArena::sorts`] recycled retained storage
    /// instead of allocating fresh. Survives [`SortArena::clear`]: a
    /// clear only forfeits the *next* prepare's recycling.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Drops the retained storage.
    pub fn clear(&mut self) {
        self.job = None;
    }

    /// Readies a job for sorting `keys`: recycles the retained storage
    /// when warm (rebuilding only the work-assignment trees, and only
    /// when `allocation` switches flavor), allocates fresh otherwise.
    /// The returned job is unstarted; run it via [`SortJob::participate`]
    /// (or a [`crate::WaitFreeSorter`] front-end) and read the result
    /// with [`SortJob::sorted_into`] — it stays parked in the arena for
    /// the next call.
    ///
    /// # Panics
    ///
    /// Panics if `keys` has fewer than 2 elements, or `tracked` or
    /// `grain` is zero.
    pub fn prepare(
        &mut self,
        keys: &[K],
        allocation: NativeAllocation,
        tracked: usize,
        grain: usize,
    ) -> &SortJob<K>
    where
        K: Clone,
    {
        self.sorts += 1;
        match &mut self.job {
            Some(job) => {
                self.recycled += 1;
                job.recycle_from_slice(keys, allocation, tracked, grain);
            }
            None => {
                self.job = Some(SortJob::with_grain(
                    keys.to_vec(),
                    allocation,
                    tracked,
                    grain,
                ));
            }
        }
        self.job.as_ref().expect("just installed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::recommended_grain;

    #[test]
    fn arena_recycles_across_shapes() {
        let mut arena: SortArena<u64> = SortArena::new();
        assert!(!arena.is_warm());
        let mut out = Vec::new();
        for (round, n) in [(0u64, 400usize), (1, 700), (2, 64), (3, 700)] {
            let keys: Vec<u64> = (0..n as u64)
                .map(|i| (i * 2654435761) % 1013 + round)
                .collect();
            let grain = recommended_grain(n, 2);
            let job = arena.prepare(&keys, NativeAllocation::Deterministic, 2, grain);
            job.run();
            job.sorted_into(&mut out);
            let mut expect = keys;
            expect.sort_unstable();
            assert_eq!(out, expect, "round {round}");
            assert!(arena.is_warm());
        }
        arena.clear();
        assert!(!arena.is_warm());
        // Four prepares: the first allocated, the other three recycled.
        assert_eq!(arena.sorts(), 4);
        assert_eq!(arena.recycled(), 3);
        // Clearing forfeits only the next prepare's recycling.
        let keys: Vec<u64> = (0..10).rev().collect();
        arena.prepare(&keys, NativeAllocation::Deterministic, 2, 4);
        assert_eq!(arena.sorts(), 5);
        assert_eq!(arena.recycled(), 3);
    }

    #[test]
    fn warm_arena_survives_concurrent_cohorts() {
        let mut arena: SortArena<i64> = SortArena::new();
        let mut out = Vec::new();
        for round in 0..3 {
            let keys: Vec<i64> = (0..2000).map(|i| (i * 193 + round) % 997).collect();
            let job = arena.prepare(&keys, NativeAllocation::Deterministic, 4, 8);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(move || job.run());
                }
            });
            job.sorted_into(&mut out);
            let mut expect = keys;
            expect.sort_unstable();
            assert_eq!(out, expect, "round {round}");
        }
    }
}
