//! Configuration of the magazine cache layer.

/// Tuning knobs for [`crate::MagazineCache`].
///
/// Every size class up to the backend's `max_size` is cached.
/// [`CacheConfig::magazine_capacity`] and [`CacheConfig::magazine_bytes`]
/// only seed the *initial* magazine capacity of each class; the cache then
/// grows a class's capacity when its bursts keep spilling past the depot
/// (Bonwick's dynamic magazine resizing), staying within
/// [`CacheConfig::max_magazine_capacity`] and an eighth of
/// [`CacheConfig::cache_bytes_budget`] per magazine.  Capacities never
/// shrink: byte-budget pressure flushes magazines instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Initial maximum entries in one magazine (applies to the smallest
    /// classes; the adaptive controller may grow past this, up to
    /// [`CacheConfig::max_magazine_capacity`]).
    pub magazine_capacity: usize,
    /// Initial per-magazine byte budget: a class's starting capacity is
    /// `clamp(magazine_bytes / class_size, 2, magazine_capacity)`.
    pub magazine_bytes: usize,
    /// Maximum full magazines each depot *shard* retains per size class
    /// before flushes start returning chunks to the backend; `0` bypasses
    /// the depot (overflow goes straight back to the backend and refills
    /// always come from it).
    ///
    /// The memory one class can strand is bounded by
    /// `depot_shards * depot_magazines` magazines and, globally, by
    /// [`CacheConfig::cache_bytes_budget`].
    pub depot_magazines: usize,
    /// Number of depot shards (one per group of thread slots): full/empty
    /// magazine exchange stays within the calling thread's shard, so chunk
    /// circulation stops at the slot-group boundary — the analogue of
    /// per-NUMA-node depots.  `None` sizes the shard set from
    /// [`nbbs_sync::available_cpus`] (about one shard per two CPUs);
    /// the resolved count is a power of two and never exceeds the slot
    /// count.
    pub depot_shards: Option<usize>,
    /// Number of thread slots (each slot holds one pair of magazines per
    /// class).  A thread looks for its slot at its
    /// [`nbbs_sync::thread_stripe`] and owns it if it claims it first
    /// ([`nbbs_sync::owned`]'s claim rule): an owner enters with plain
    /// stores, and keeps the slot until its exit drain gives it up.  A
    /// thread whose stripe another live thread holds uses that stripe's
    /// shared slot, under its lock; the shared slots are extra and not
    /// counted here.  `None` sizes the table with [`nbbs_sync::default_stripes`] —
    /// the size of the facade's odometer, so a thread that owns its slot
    /// here looks at the same stripe of the odometer.
    pub slots: Option<usize>,
    /// Ceiling for adaptively grown magazine capacities (entries); at a
    /// class's initial capacity it keeps that class from growing.  Each
    /// class is additionally capped so a single magazine never exceeds 1/8
    /// of the cache byte budget.
    pub max_magazine_capacity: usize,
    /// Byte budget bounding what the cache keeps parked.  The budget is
    /// split evenly across the depot shards: a shard refuses to park
    /// further magazines once its own parked bytes reach its share (the
    /// gate reads one shard-local counter, never a global sum), and a
    /// refused magazine goes back to the backend whole, its class keeping
    /// its capacity.  The budget also caps adaptive growth — one magazine
    /// never exceeds an eighth of it.
    /// Slot-resident magazines are bounded by those capacity ceilings
    /// rather than by the budget directly.  `None` resolves to a quarter
    /// of the backend's managed memory.
    pub cache_bytes_budget: Option<usize>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            magazine_capacity: 64,
            magazine_bytes: 32 << 10,
            depot_magazines: 64,
            depot_shards: None,
            slots: None,
            max_magazine_capacity: 8192,
            cache_bytes_budget: None,
        }
    }
}

impl CacheConfig {
    /// Initial magazine capacity for a class of `class_size` bytes.
    pub(crate) fn capacity_for(&self, class_size: usize) -> usize {
        (self.magazine_bytes / class_size.max(1)).clamp(2, self.magazine_capacity.max(2))
    }

    /// Resolved slot count (a power of two for cheap modulo).
    pub(crate) fn resolved_slots(&self) -> usize {
        match self.slots {
            Some(n) => n.max(1).next_power_of_two(),
            None => nbbs_sync::default_stripes(),
        }
    }

    /// Resolved depot shard count: a power of two, at least 1, at most the
    /// resolved slot count (a shard with no slots routed to it would be
    /// dead weight).
    pub(crate) fn resolved_shards(&self) -> usize {
        let slots = self.resolved_slots();
        let requested = match self.depot_shards {
            Some(n) => n.max(1),
            None => nbbs_sync::available_cpus().map_or(4, |n| (n / 2).max(1)),
        };
        requested.next_power_of_two().min(slots)
    }

    /// Resolved cache byte budget for a backend managing `total_memory`.
    pub(crate) fn resolved_budget(&self, total_memory: usize) -> usize {
        self.cache_bytes_budget
            .unwrap_or_else(|| (total_memory / 4).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_scales_down_with_class_size() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.capacity_for(8), 64);
        assert_eq!(cfg.capacity_for(1024), 32);
        assert_eq!(cfg.capacity_for(16 << 10), 2);
    }

    #[test]
    fn explicit_slots_round_up_to_power_of_two() {
        let cfg = CacheConfig {
            slots: Some(3),
            ..CacheConfig::default()
        };
        assert_eq!(cfg.resolved_slots(), 4);
        let auto = CacheConfig::default().resolved_slots();
        assert!(auto.is_power_of_two());
        assert!(auto >= 1);
    }

    #[test]
    fn shards_never_exceed_slots() {
        let cfg = CacheConfig {
            slots: Some(4),
            depot_shards: Some(64),
            ..CacheConfig::default()
        };
        assert_eq!(cfg.resolved_shards(), 4);
        let cfg = CacheConfig {
            slots: Some(16),
            depot_shards: Some(3),
            ..CacheConfig::default()
        };
        assert_eq!(cfg.resolved_shards(), 4, "rounded up to a power of two");
        let auto = CacheConfig::default().resolved_shards();
        assert!(auto.is_power_of_two());
        assert!(auto >= 1);
        assert!(auto <= CacheConfig::default().resolved_slots());
    }

    #[test]
    fn budget_defaults_to_a_quarter_of_memory() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.resolved_budget(64 << 20), 16 << 20);
        let explicit = CacheConfig {
            cache_bytes_budget: Some(1 << 10),
            ..CacheConfig::default()
        };
        assert_eq!(explicit.resolved_budget(64 << 20), 1 << 10);
    }
}
