//! Allocator configuration.
//!
//! A buddy system is fully described by three power-of-two quantities: the
//! size of the managed region (`total_memory`), the size of the smallest
//! allocatable chunk (`min_size` — the paper's *allocation unit*, the size
//! tracked by the leaves of the tree) and the size of the largest chunk a
//! single request may obtain (`max_size`, available at the paper's
//! `max_level`).  The paper's user-space evaluation uses `min_size = 8 B` and
//! `max_size = 16 KiB`; the kernel-level comparison uses page granularity.

use crate::error::ConfigError;

/// Maximum supported tree depth.
///
/// The node arrays bound it: a tree of depth `d` keeps `2^(d+1)` nodes, so
/// at depth 30 the 1-level store alone reserves 2 GiB of node bytes to
/// describe an 8 GiB region in 8-byte units, far beyond anything practical.
/// (`index[]` records a level plus one in a byte, which this cap keeps
/// well within range.)
pub const MAX_DEPTH: u32 = 30;

/// Policy used by the level scan of `NBALLOC` to pick its starting node.
///
/// §III-B of the paper: *“not necessarily such a search has to start from the
/// first node at that level. Rather, starting from scattered points will more
/// likely lead concurrent allocations […] to target different free nodes.”*
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanPolicy {
    /// Every scan starts from the first node of the target level.
    ///
    /// Matches a textbook first-fit buddy search; maximizes conflicts between
    /// concurrent allocations of the same size (used by the scan-start
    /// ablation).
    FirstFit,
    /// Scans start from a per-thread scattered position (hash of the thread
    /// id) and wrap around the level.  This is the paper's recommendation and
    /// the default.
    #[default]
    Scattered,
}

/// Configuration of a buddy allocator instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuddyConfig {
    total_memory: usize,
    min_size: usize,
    max_size: usize,
    scan_policy: ScanPolicy,
}

impl BuddyConfig {
    /// Creates a configuration managing `total_memory` bytes with allocation
    /// units of `min_size` bytes and a per-request cap of `max_size` bytes.
    ///
    /// All three values must be powers of two with
    /// `min_size <= max_size <= total_memory`.
    ///
    /// # Examples
    ///
    /// ```
    /// use nbbs::BuddyConfig;
    ///
    /// // The paper's user-space configuration scaled to a 1 MiB arena:
    /// // 8-byte allocation units, 16 KiB maximum request.
    /// let config = BuddyConfig::new(1 << 20, 8, 1 << 14).unwrap();
    /// assert_eq!(config.depth(), 17);      // log2(1 MiB / 8 B)
    /// assert_eq!(config.max_level(), 6);   // log2(1 MiB / 16 KiB)
    /// ```
    pub fn new(total_memory: usize, min_size: usize, max_size: usize) -> Result<Self, ConfigError> {
        if total_memory == 0 || !total_memory.is_power_of_two() {
            return Err(ConfigError::TotalNotPowerOfTwo(total_memory));
        }
        if min_size == 0 || !min_size.is_power_of_two() {
            return Err(ConfigError::MinNotPowerOfTwo(min_size));
        }
        if max_size == 0 || !max_size.is_power_of_two() {
            return Err(ConfigError::MaxNotPowerOfTwo(max_size));
        }
        if min_size > max_size {
            return Err(ConfigError::MinAboveMax {
                min: min_size,
                max: max_size,
            });
        }
        if max_size > total_memory {
            return Err(ConfigError::MaxAboveTotal {
                max: max_size,
                total: total_memory,
            });
        }
        let depth = (total_memory / min_size).trailing_zeros();
        if depth > MAX_DEPTH {
            return Err(ConfigError::TooDeep {
                depth,
                limit: MAX_DEPTH,
            });
        }
        Ok(BuddyConfig {
            total_memory,
            min_size,
            max_size,
            scan_policy: ScanPolicy::default(),
        })
    }

    /// Convenience constructor where a single request may span the whole
    /// region (`max_size == total_memory`).
    pub fn whole_region(total_memory: usize, min_size: usize) -> Result<Self, ConfigError> {
        Self::new(total_memory, min_size, total_memory)
    }

    /// Returns a copy of this configuration with the given scan policy.
    #[must_use]
    pub fn with_scan_policy(mut self, policy: ScanPolicy) -> Self {
        self.scan_policy = policy;
        self
    }

    /// Total managed memory in bytes.
    #[inline]
    pub fn total_memory(&self) -> usize {
        self.total_memory
    }

    /// Allocation-unit size in bytes (size tracked by the tree leaves).
    #[inline]
    pub fn min_size(&self) -> usize {
        self.min_size
    }

    /// Largest size a single request may obtain, in bytes.
    #[inline]
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// The scan-start policy used by allocations.
    #[inline]
    pub fn scan_policy(&self) -> ScanPolicy {
        self.scan_policy
    }

    /// Depth of the tree: leaves live at this level (root is level 0).
    ///
    /// Paper: `d = log2(total_memory / min_size)`.
    #[inline]
    pub fn depth(&self) -> u32 {
        (self.total_memory / self.min_size).trailing_zeros()
    }

    /// The topmost level at which allocations may be served.
    ///
    /// Paper: `max_level = log2(total_memory / max_size)`.
    #[inline]
    pub fn max_level(&self) -> u32 {
        (self.total_memory / self.max_size).trailing_zeros()
    }

    /// Number of allocation units (tree leaves).
    #[inline]
    pub fn unit_count(&self) -> usize {
        self.total_memory / self.min_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_configuration_derives_levels() {
        let c = BuddyConfig::new(1 << 16, 16, 1 << 12).unwrap();
        assert_eq!(c.total_memory(), 1 << 16);
        assert_eq!(c.min_size(), 16);
        assert_eq!(c.max_size(), 1 << 12);
        assert_eq!(c.depth(), 12);
        assert_eq!(c.max_level(), 4);
        assert_eq!(c.unit_count(), 1 << 12);
        assert_eq!(c.scan_policy(), ScanPolicy::Scattered);
    }

    #[test]
    fn whole_region_sets_max_level_zero() {
        let c = BuddyConfig::whole_region(4096, 64).unwrap();
        assert_eq!(c.max_level(), 0);
        assert_eq!(c.max_size(), 4096);
        assert_eq!(c.depth(), 6);
    }

    #[test]
    fn paper_user_space_configuration() {
        // min 8 B, max 16 KiB as in §IV, over a 16 MiB arena.
        let c = BuddyConfig::new(16 << 20, 8, 16 << 10).unwrap();
        assert_eq!(c.depth(), 21);
        assert_eq!(c.max_level(), 10);
    }

    #[test]
    fn rejects_non_power_of_two_values() {
        assert_eq!(
            BuddyConfig::new(1000, 8, 64).unwrap_err(),
            ConfigError::TotalNotPowerOfTwo(1000)
        );
        assert_eq!(
            BuddyConfig::new(1024, 24, 64).unwrap_err(),
            ConfigError::MinNotPowerOfTwo(24)
        );
        assert_eq!(
            BuddyConfig::new(1024, 8, 96).unwrap_err(),
            ConfigError::MaxNotPowerOfTwo(96)
        );
        assert_eq!(
            BuddyConfig::new(0, 8, 8).unwrap_err(),
            ConfigError::TotalNotPowerOfTwo(0)
        );
        assert_eq!(
            BuddyConfig::new(1024, 0, 8).unwrap_err(),
            ConfigError::MinNotPowerOfTwo(0)
        );
    }

    #[test]
    fn rejects_inconsistent_orderings() {
        assert_eq!(
            BuddyConfig::new(1024, 128, 64).unwrap_err(),
            ConfigError::MinAboveMax { min: 128, max: 64 }
        );
        assert_eq!(
            BuddyConfig::new(1024, 8, 2048).unwrap_err(),
            ConfigError::MaxAboveTotal {
                max: 2048,
                total: 1024
            }
        );
    }

    #[test]
    fn rejects_excessive_depth() {
        let err = BuddyConfig::new(1 << 40, 1, 1 << 20).unwrap_err();
        assert!(matches!(err, ConfigError::TooDeep { depth: 40, .. }));
    }

    #[test]
    fn single_leaf_tree_is_allowed() {
        let c = BuddyConfig::new(64, 64, 64).unwrap();
        assert_eq!(c.depth(), 0);
        assert_eq!(c.max_level(), 0);
        assert_eq!(c.unit_count(), 1);
    }

    #[test]
    fn scan_policy_round_trip() {
        let c = BuddyConfig::new(1024, 8, 1024)
            .unwrap()
            .with_scan_policy(ScanPolicy::FirstFit);
        assert_eq!(c.scan_policy(), ScanPolicy::FirstFit);
    }
}
