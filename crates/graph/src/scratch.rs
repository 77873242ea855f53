//! Per-thread pooled scratch for per-query arrays indexed by data-vertex id.
//!
//! Several steps of a query need an array with one slot per data vertex: the
//! refinement marks and the candidate-edge index of the candidate space, the
//! inverse candidate index of reservation-guard generation, and the owner array
//! of the backtracking engines. Allocating and zeroing such an array per query
//! makes a query's cost grow with |V_D| even when its candidate space has a
//! handful of vertices. This module hands out two kinds of scratch from a
//! per-thread pool instead, so after a thread's first query the per-query cost
//! follows the candidate space:
//!
//! * [`VertexMap`] maps data-vertex ids to `u32`. Every entry carries the epoch
//!   it was written in, and an entry reads as present only while its epoch is the
//!   map's current one, so emptying the map is an epoch bump
//!   ([`VertexMap::clear`]). The storage is fully cleared only when the epoch
//!   wraps, once every 2³² − 1 clears.
//! * [`OwnerArray`] is a dense `u16` array that stays all zero while it sits in
//!   the pool: every normal return of an engine has unassigned its vertices
//!   before the array goes back. An array dropped while its thread is unwinding
//!   is freed instead of pooled, since the unwound search may have left
//!   assignments behind.
//!
//! Both are taken from the current thread's pool and given back when dropped;
//! the pool lends storage out by value and holds no borrow while the caller
//! runs, so two nested takes on one thread get distinct storage and user code
//! (an embedding sink, say) may itself run queries. Storage only grows: a take
//! for more ids than the pooled storage covers resizes it, a take for fewer
//! reuses it as is. Threads spawned per run (the parallel driver's workers)
//! take their scratch from a fresh pool, which dies with the thread.

use crate::types::VertexId;
use std::cell::Cell;
use std::ops::{Deref, DerefMut};

/// Most storage blocks of each kind one thread keeps pooled; a give-back beyond
/// this frees the storage.
const POOLED_PER_KIND: usize = 4;

thread_local! {
    static MAPS: Cell<Vec<MapStorage>> = const { Cell::new(Vec::new()) };
    static OWNERS: Cell<Vec<Vec<u16>>> = const { Cell::new(Vec::new()) };
}

/// Pops one pooled storage block, if this thread has one.
fn pool_take<T: 'static>(pool: &'static std::thread::LocalKey<Cell<Vec<T>>>) -> Option<T> {
    pool.try_with(|cell| {
        let mut blocks = cell.take();
        let block = blocks.pop();
        cell.set(blocks);
        block
    })
    .ok()
    .flatten()
}

/// Returns `block` to this thread's pool; frees it when the pool is full or the
/// thread's pool is already gone.
fn pool_give<T: 'static>(pool: &'static std::thread::LocalKey<Cell<Vec<T>>>, block: T) {
    let _ = pool.try_with(|cell| {
        let mut blocks = cell.take();
        if blocks.len() < POOLED_PER_KIND {
            blocks.push(block);
        }
        cell.set(blocks);
    });
}

/// One slot of a [`VertexMap`]: the value and the epoch it was written in.
#[derive(Clone, Copy, Default)]
struct Entry {
    stamp: u32,
    value: u32,
}

/// The storage a [`VertexMap`] lends from the pool. Stamp 0 is never a live
/// epoch, so zeroed entries read as absent.
#[derive(Default)]
struct MapStorage {
    entries: Vec<Entry>,
    epoch: u32,
}

/// An epoch-stamped map from data-vertex ids to `u32`, taken from the current
/// thread's pool and given back on drop. See the [module docs](self).
pub struct VertexMap {
    storage: MapStorage,
    /// The ids this map covers: `0..id_bound`; the storage may be longer.
    id_bound: usize,
}

impl VertexMap {
    /// Takes an empty map over the ids `0..id_bound` from this thread's pool. Only
    /// this call allocates: when the thread has no pooled map, or the pooled one
    /// covers fewer ids.
    pub fn take(id_bound: usize) -> VertexMap {
        let mut storage = pool_take(&MAPS).unwrap_or_default();
        if storage.entries.len() < id_bound {
            storage.entries.resize(id_bound, Entry::default());
        }
        let mut map = VertexMap { storage, id_bound };
        map.clear();
        map
    }

    /// A map whose next [`VertexMap::clear`] moves it to epoch `epoch + 1`, so
    /// tests can drive the epoch across its wrap.
    #[cfg(test)]
    fn take_at_epoch(id_bound: usize, epoch: u32) -> VertexMap {
        let mut map = VertexMap::take(id_bound);
        map.storage.epoch = epoch;
        map
    }

    // Lookups run inside the candidate-space and reservation loops, once per
    // scanned neighbour; they must never allocate.
    // gup-lint: region(no_alloc)
    /// Empties the map: an epoch bump, or a full clear when the epoch wraps.
    #[inline]
    pub fn clear(&mut self) {
        if self.storage.epoch == u32::MAX {
            for entry in &mut self.storage.entries {
                entry.stamp = 0;
            }
            self.storage.epoch = 1;
        } else {
            self.storage.epoch += 1;
        }
    }

    /// Maps `v` to `value`, replacing any earlier value.
    #[inline]
    pub fn insert(&mut self, v: VertexId, value: u32) {
        debug_assert!((v as usize) < self.id_bound, "vertex {v} out of range");
        self.storage.entries[v as usize] = Entry {
            stamp: self.storage.epoch,
            value,
        };
    }

    /// The value of `v`, if it was inserted since the last clear.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<u32> {
        match self.storage.entries.get(v as usize) {
            Some(entry) if entry.stamp == self.storage.epoch => Some(entry.value),
            _ => None,
        }
    }

    /// `true` if `v` was inserted since the last clear and not removed.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.get(v).is_some()
    }

    /// Removes `v` from the map.
    #[inline]
    pub fn remove(&mut self, v: VertexId) {
        if let Some(entry) = self.storage.entries.get_mut(v as usize) {
            entry.stamp = 0;
        }
    }
    // gup-lint: end_region
}

impl Drop for VertexMap {
    fn drop(&mut self) {
        // Stale entries are harmless: the next take clears by an epoch bump.
        pool_give(&MAPS, std::mem::take(&mut self.storage));
    }
}

/// A dense `u16` array over data-vertex ids, all zero when taken, from the
/// current thread's pool. It dereferences to a slice of at least the requested
/// length, so lookups are plain indexed reads.
///
/// The holder must set every slot it wrote back to zero before a normal drop;
/// a drop while the thread is unwinding frees the array instead of pooling it.
pub struct OwnerArray {
    slots: Vec<u16>,
}

impl OwnerArray {
    /// Takes an all-zero array of at least `len` slots from this thread's pool.
    /// Allocates only when the thread has no pooled array or the pooled one is
    /// shorter.
    pub fn take(len: usize) -> OwnerArray {
        let slots = match pool_take(&OWNERS) {
            Some(mut slots) => {
                if slots.len() < len {
                    slots.resize(len, 0);
                }
                slots
            }
            None => vec![0; len],
        };
        OwnerArray { slots }
    }
}

impl Deref for OwnerArray {
    type Target = [u16];

    #[inline]
    fn deref(&self) -> &[u16] {
        &self.slots
    }
}

impl DerefMut for OwnerArray {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u16] {
        &mut self.slots
    }
}

impl Drop for OwnerArray {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // An unwound search may have left vertices assigned.
            return;
        }
        debug_assert!(
            self.slots.iter().all(|&owner| owner == 0),
            "an owner array went back to the pool with vertices still assigned"
        );
        pool_give(&OWNERS, std::mem::take(&mut self.slots));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn assert_empty(map: &VertexMap) {
        for v in 0..map.id_bound as VertexId {
            assert_eq!(map.get(v), None, "vertex {v} reads as present");
        }
    }

    #[test]
    fn insert_get_remove_and_clear() {
        let mut map = VertexMap::take(10);
        assert_empty(&map);
        map.insert(3, 7);
        map.insert(9, 0);
        assert_eq!(map.get(3), Some(7));
        assert!(map.contains(9));
        assert!(!map.contains(4));
        map.insert(3, 8);
        assert_eq!(map.get(3), Some(8));
        map.remove(3);
        assert_eq!(map.get(3), None);
        // Reads past the covered range are absent, not out of bounds.
        assert_eq!(map.get(10), None);
        assert_eq!(map.get(VertexId::MAX), None);
        map.clear();
        assert_empty(&map);
    }

    #[test]
    fn entries_from_before_an_epoch_wrap_read_as_absent() {
        // An earlier use writes entries at the low epochs 1, 2 and 3, the
        // epochs a wrapped map passes through again.
        let storage_ptr;
        {
            let mut early = VertexMap::take_at_epoch(8, 0);
            for epoch in 1..=3u32 {
                early.clear();
                assert_eq!(early.storage.epoch, epoch);
                early.insert(epoch, epoch);
            }
            storage_ptr = early.storage.entries.as_ptr();
        }
        // The same storage, taken again just below the wrap.
        let mut map = VertexMap::take_at_epoch(8, u32::MAX - 3);
        assert_eq!(map.storage.entries.as_ptr(), storage_ptr);
        let mut epochs_seen = Vec::new();
        // Each round writes at a different epoch, then clears; the fourth
        // clear wraps the epoch back to 1.
        for round in 0..6u32 {
            map.clear();
            epochs_seen.push(map.storage.epoch);
            assert_empty(&map);
            let v = (round + 4) % 8;
            map.insert(v, round + 100);
            assert_eq!(map.get(v), Some(round + 100));
        }
        assert_eq!(
            epochs_seen,
            vec![u32::MAX - 2, u32::MAX - 1, u32::MAX, 1, 2, 3]
        );
        map.clear();
        assert_empty(&map);
    }

    #[test]
    fn a_map_taken_at_another_size_reads_empty_over_its_whole_range() {
        let n = 64;
        {
            let mut map = VertexMap::take(n);
            for v in 0..n as VertexId {
                map.insert(v, v);
            }
        }
        {
            // Grown past the pooled storage.
            let mut map = VertexMap::take(2 * n);
            assert_eq!(map.id_bound, 2 * n);
            assert_empty(&map);
            for v in 0..2 * n as VertexId {
                map.insert(v, v + 1);
            }
        }
        // Smaller than the pooled storage.
        let map = VertexMap::take(n);
        assert_eq!(map.id_bound, n);
        assert_empty(&map);
        for v in n as VertexId..2 * n as VertexId {
            assert_eq!(map.get(v), None);
        }
    }

    #[test]
    fn nested_takes_get_distinct_maps() {
        let mut outer = VertexMap::take(16);
        outer.insert(5, 1);
        {
            let mut inner = VertexMap::take(16);
            assert_empty(&inner);
            inner.insert(5, 2);
            inner.insert(6, 3);
            assert_eq!(inner.get(5), Some(2));
        }
        assert_eq!(outer.get(5), Some(1));
        assert_eq!(outer.get(6), None);
        // The inner map went back to the pool; a new take reads empty again.
        let again = VertexMap::take(16);
        assert_empty(&again);
        assert_ne!(
            again.storage.entries.as_ptr(),
            outer.storage.entries.as_ptr()
        );
    }

    #[test]
    fn owner_arrays_are_pooled_zeroed_and_grow() {
        let first_ptr;
        {
            let mut owner = OwnerArray::take(32);
            assert!(owner.len() >= 32);
            assert!(owner.iter().all(|&o| o == 0));
            owner[7] = 3;
            owner[7] = 0;
            first_ptr = owner.as_ptr();
        }
        let owner = OwnerArray::take(16);
        assert_eq!(owner.as_ptr(), first_ptr, "a normal drop pools the array");
        assert!(owner.len() >= 16);
        drop(owner);
        let owner = OwnerArray::take(100);
        assert!(owner.len() >= 100);
        assert!(owner.iter().all(|&o| o == 0));
    }

    #[test]
    fn an_owner_array_dropped_while_unwinding_is_not_pooled() {
        // Empty this thread's pool so the next take below is the one under test.
        while pool_take(&OWNERS).is_some() {}
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let mut owner = OwnerArray::take(64);
            owner[10] = 2;
            owner[63] = 1;
            panic!("a sink panicked mid-search");
        }));
        assert!(unwound.is_err());
        assert!(pool_take(&OWNERS).is_none(), "the unwound array was pooled");
        let owner = OwnerArray::take(64);
        assert!(owner.iter().all(|&o| o == 0));
    }
}
