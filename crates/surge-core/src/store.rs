//! Sharded cell storage shared by the exact detectors.
//!
//! The detection pipeline keys all per-cell state by [`CellId`]. A single
//! `HashMap<CellId, C>` serializes ingest: every event mutates the one map,
//! so `on_event` cannot fan out across cores. [`ShardedCellStore`] splits the
//! cell universe into `2^k` disjoint shards by a **spatial hash** of the cell
//! coordinates ([`shard_of_cell`]); any two cells in different shards can be
//! mutated concurrently, which is what `surge-stream`'s shard mesh
//! exploits — each shard worker owns one shard's map exclusively for the
//! whole run.
//!
//! The hash is deterministic (no per-process seeding), so shard assignment —
//! and therefore every shard-ordered traversal — is reproducible across runs
//! and machines. Neighbouring cells land in unrelated shards on purpose:
//! hot spots cover a handful of *adjacent* cells (Lemma 1), and spreading
//! those across shards balances ingest load where a block-partition would
//! funnel a burst into one worker.
//!
//! [`CellStore`] is the map-shaped trait both the sharded store and a plain
//! `HashMap` (the unsharded baseline) implement; detector code written
//! against it is oblivious to the sharding.

use std::collections::HashMap;

use crate::grid::CellId;

/// The shard owning cell `id` in a store with `shard_count` shards.
///
/// `shard_count` must be a power of two. The mixer is Fibonacci hashing on
/// each coordinate with distinct odd multipliers, folded (`h ^ (h >> 32)`)
/// so the high-entropy upper bits reach the low bits the mask keeps —
/// small grid coordinates stay well spread.
#[inline]
pub fn shard_of_cell(id: CellId, shard_count: usize) -> usize {
    debug_assert!(shard_count.is_power_of_two(), "shard count must be 2^k");
    let h = (id.0 as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((id.1 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    let mixed = h ^ (h >> 32);
    (mixed as usize) & (shard_count - 1)
}

/// Map-shaped access to per-cell state, implemented by both the sharded
/// store and a plain `HashMap` (the unsharded baseline).
///
/// Iteration order is unspecified for both implementations; callers needing
/// determinism must collect and sort ids (every dirty-snapshot path does).
pub trait CellStore<C> {
    /// Number of cells stored.
    fn len(&self) -> usize;
    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Whether `id` is present.
    fn contains(&self, id: CellId) -> bool;
    /// The cell `id`, if present.
    fn get(&self, id: CellId) -> Option<&C>;
    /// Mutable access to cell `id`, if present.
    fn get_mut(&mut self, id: CellId) -> Option<&mut C>;
    /// The cell `id`, inserting `default()` first if absent.
    fn get_or_insert_with(&mut self, id: CellId, default: impl FnOnce() -> C) -> &mut C;
    /// Removes and returns cell `id`.
    fn remove(&mut self, id: CellId) -> Option<C>;
    /// Visits every `(id, cell)` pair in unspecified order.
    fn for_each(&self, f: impl FnMut(CellId, &C));
}

impl<C> CellStore<C> for HashMap<CellId, C> {
    fn len(&self) -> usize {
        HashMap::len(self)
    }
    fn contains(&self, id: CellId) -> bool {
        self.contains_key(&id)
    }
    fn get(&self, id: CellId) -> Option<&C> {
        HashMap::get(self, &id)
    }
    fn get_mut(&mut self, id: CellId) -> Option<&mut C> {
        HashMap::get_mut(self, &id)
    }
    fn get_or_insert_with(&mut self, id: CellId, default: impl FnOnce() -> C) -> &mut C {
        self.entry(id).or_insert_with(default)
    }
    fn remove(&mut self, id: CellId) -> Option<C> {
        HashMap::remove(self, &id)
    }
    fn for_each(&self, mut f: impl FnMut(CellId, &C)) {
        for (id, c) in self {
            f(*id, c);
        }
    }
}

/// Per-cell state partitioned into `2^k` spatial-hash shards.
///
/// [`shards_mut`](Self::shards_mut) exposes the shards as disjoint `&mut`
/// slices so per-shard workers can ingest concurrently under scoped threads;
/// all single-cell operations route through [`shard_of_cell`].
#[derive(Debug, Clone)]
pub struct ShardedCellStore<C> {
    shards: Vec<HashMap<CellId, C>>,
}

impl<C> ShardedCellStore<C> {
    /// A store with `shard_count` shards, rounded up to a power of two
    /// (minimum 1).
    pub fn new(shard_count: usize) -> Self {
        let n = shard_count.max(1).next_power_of_two();
        ShardedCellStore {
            shards: (0..n).map(|_| HashMap::new()).collect(),
        }
    }

    /// Number of shards (a power of two).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning cell `id`.
    #[inline]
    pub fn shard_of(&self, id: CellId) -> usize {
        shard_of_cell(id, self.shards.len())
    }

    /// Shard `s`'s cell map.
    #[inline]
    pub fn shard(&self, s: usize) -> &HashMap<CellId, C> {
        &self.shards[s]
    }

    /// Mutable access to shard `s`'s cell map.
    #[inline]
    pub fn shard_mut(&mut self, s: usize) -> &mut HashMap<CellId, C> {
        &mut self.shards[s]
    }

    /// All shards as a slice (read-only fan-out).
    #[inline]
    pub fn shards(&self) -> &[HashMap<CellId, C>] {
        &self.shards
    }

    /// All shards as disjoint mutable maps — the parallel-ingest entry
    /// point: hand each worker one element.
    #[inline]
    pub fn shards_mut(&mut self) -> &mut [HashMap<CellId, C>] {
        &mut self.shards
    }
}

impl<C> CellStore<C> for ShardedCellStore<C> {
    fn len(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }
    fn contains(&self, id: CellId) -> bool {
        self.shards[self.shard_of(id)].contains_key(&id)
    }
    fn get(&self, id: CellId) -> Option<&C> {
        self.shards[self.shard_of(id)].get(&id)
    }
    fn get_mut(&mut self, id: CellId) -> Option<&mut C> {
        let s = self.shard_of(id);
        self.shards[s].get_mut(&id)
    }
    fn get_or_insert_with(&mut self, id: CellId, default: impl FnOnce() -> C) -> &mut C {
        let s = self.shard_of(id);
        self.shards[s].entry(id).or_insert_with(default)
    }
    fn remove(&mut self, id: CellId) -> Option<C> {
        let s = self.shard_of(id);
        self.shards[s].remove(&id)
    }
    fn for_each(&self, mut f: impl FnMut(CellId, &C)) {
        for shard in &self.shards {
            for (id, c) in shard {
                f(*id, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedCellStore::<u32>::new(0).shard_count(), 1);
        assert_eq!(ShardedCellStore::<u32>::new(1).shard_count(), 1);
        assert_eq!(ShardedCellStore::<u32>::new(3).shard_count(), 4);
        assert_eq!(ShardedCellStore::<u32>::new(8).shard_count(), 8);
    }

    #[test]
    fn shard_assignment_is_total_and_stable() {
        for count in [1usize, 2, 8, 64] {
            for i in -20..20i64 {
                for j in -20..20i64 {
                    let s = shard_of_cell((i, j), count);
                    assert!(s < count);
                    assert_eq!(s, shard_of_cell((i, j), count), "stable");
                }
            }
        }
    }

    #[test]
    fn adjacent_cells_spread_across_shards() {
        // A 16×16 block of adjacent cells should not collapse into a few of
        // 8 shards — the whole point of hashing over block partitioning.
        let mut counts = [0usize; 8];
        for i in 0..16i64 {
            for j in 0..16i64 {
                counts[shard_of_cell((i, j), 8)] += 1;
            }
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 0, "shard {s} empty over an adjacent block: {counts:?}");
        }
        let max = *counts.iter().max().unwrap();
        assert!(max <= 3 * (256 / 8), "skewed shard load: {counts:?}");
    }

    #[test]
    fn store_roundtrip_and_len() {
        let mut store: ShardedCellStore<u32> = ShardedCellStore::new(4);
        assert!(store.is_empty());
        for i in 0..50i64 {
            *store.get_or_insert_with((i, -i), || 0) += i as u32;
        }
        assert_eq!(store.len(), 50);
        assert!(store.contains((7, -7)));
        assert_eq!(store.get((7, -7)), Some(&7));
        *store.get_mut((7, -7)).unwrap() += 1;
        assert_eq!(store.remove((7, -7)), Some(8));
        assert_eq!(store.len(), 49);
        assert!(!store.contains((7, -7)));
        let mut seen = 0;
        store.for_each(|_, _| seen += 1);
        assert_eq!(seen, 49);
    }

    #[test]
    fn hashmap_impl_matches_sharded_behaviour() {
        let mut plain: HashMap<CellId, u32> = HashMap::new();
        let mut sharded: ShardedCellStore<u32> = ShardedCellStore::new(8);
        for i in 0..30i64 {
            *CellStore::get_or_insert_with(&mut plain, (i, i * 2), || 1) += 1;
            *sharded.get_or_insert_with((i, i * 2), || 1) += 1;
        }
        assert_eq!(CellStore::len(&plain), sharded.len());
        for i in 0..30i64 {
            assert_eq!(CellStore::get(&plain, (i, i * 2)), sharded.get((i, i * 2)));
        }
    }
}
