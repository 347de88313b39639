//! The cache's shape: the constants it is built with and the values it
//! derives from the backend it wraps and the slot count it is given.
//! Nothing here is settable; [`crate::MagazineCache::with_slots`] is the
//! one value a caller chooses.

/// Bytes a class's magazine starts with: a class of `size` bytes starts at
/// `clamp(MAGAZINE_BYTES / size, 2, MAGAZINE_ENTRIES)` entries, so every
/// class from 512 B to 16 KiB starts with 32 KiB.
const MAGAZINE_BYTES: usize = 32 << 10;

/// Entries the magazines of the smallest classes start with.
const MAGAZINE_ENTRIES: usize = 64;

/// Ceiling for grown capacities (entries).  Growth also stops at an eighth
/// of the byte budget per magazine.
pub(crate) const MAX_MAGAZINE_ENTRIES: usize = 8192;

/// Full magazines each depot shard keeps per class; a further park of the
/// class spills to the backend.
pub(crate) const DEPOT_MAGAZINES: usize = 64;

/// Thread slots per depot shard.
const SLOTS_PER_SHARD: usize = 4;

/// The capacity a class of `size` bytes starts with.
pub(crate) fn initial_capacity(size: usize) -> usize {
    (MAGAZINE_BYTES / size.max(1)).clamp(2, MAGAZINE_ENTRIES)
}

/// The slot table for `requested` slots: at least one, rounded up to a
/// power of two.
pub(crate) fn slot_count(requested: usize) -> usize {
    requested.max(1).next_power_of_two()
}

/// Depot shards for a table of `slots` slots: one per four, at least one.
pub(crate) fn shard_count(slots: usize) -> usize {
    (slots / SLOTS_PER_SHARD).max(1)
}

/// The byte budget over a backend managing `total_memory` bytes: a quarter
/// of it.
pub(crate) fn budget(total_memory: usize) -> usize {
    (total_memory / 4).max(1)
}

#[cfg(test)]
mod tests {
    use nbbs::{BuddyConfig, NbbsOneLevel};

    use super::*;
    use crate::MagazineCache;

    fn tree() -> NbbsOneLevel {
        NbbsOneLevel::new(BuddyConfig::new(1 << 16, 8, 1 << 12).unwrap())
    }

    #[test]
    fn capacity_scales_down_with_class_size() {
        assert_eq!(initial_capacity(8), 64);
        assert_eq!(initial_capacity(1024), 32);
        assert_eq!(initial_capacity(16 << 10), 2);
        assert_eq!(initial_capacity(64 << 10), 2);
        // A cache starts every class at its derived capacity.
        let cache = MagazineCache::new(tree());
        let capacities: Vec<usize> = (0..cache.class_count())
            .map(|c| cache.magazine_capacity(c))
            .collect();
        assert_eq!(capacities, [64, 64, 64, 64, 64, 64, 64, 32, 16, 8]);
    }

    #[test]
    fn explicit_slots_round_up_to_power_of_two() {
        assert_eq!(slot_count(0), 1);
        assert_eq!(slot_count(3), 4);
        assert_eq!(slot_count(9), 16);
        assert_eq!(MagazineCache::with_slots(tree(), 3).slot_count(), 4);
        let auto = MagazineCache::new(tree()).slot_count();
        assert!(auto.is_power_of_two());
        assert!(auto >= 1);
    }

    #[test]
    fn shards_never_exceed_slots() {
        for slots in [1, 2, 4, 8, 16, 64] {
            let shards = shard_count(slots);
            assert!(shards.is_power_of_two());
            assert!(
                shards >= 1 && shards <= slots,
                "{slots} slots, {shards} shards"
            );
        }
        assert_eq!(shard_count(4), 1);
        assert_eq!(shard_count(8), 2);
        let shape = |slots| {
            let cache = MagazineCache::with_slots(tree(), slots);
            (cache.slot_count(), cache.depot_shard_count())
        };
        assert_eq!(shape(0), (1, 1));
        assert_eq!(shape(3), (4, 1));
        assert_eq!(shape(8), (8, 2));
        assert_eq!(shape(9), (16, 4));
        let auto = MagazineCache::new(tree());
        assert!(auto.depot_shard_count().is_power_of_two());
        assert!(auto.depot_shard_count() <= auto.slot_count());
    }

    #[test]
    fn budget_defaults_to_a_quarter_of_memory() {
        assert_eq!(budget(64 << 20), 16 << 20);
        assert_eq!(budget(1), 1, "never a zero budget");
        assert_eq!(
            MagazineCache::new(tree()).cache_bytes_budget(),
            (1 << 16) / 4
        );
    }
}
