//! Error types for allocator configuration, allocation, and release.

use std::fmt;

/// Errors produced while validating a [`crate::BuddyConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `total_memory` is zero or not a power of two.
    TotalNotPowerOfTwo(usize),
    /// `min_size` is zero or not a power of two.
    MinNotPowerOfTwo(usize),
    /// `max_size` is zero or not a power of two.
    MaxNotPowerOfTwo(usize),
    /// `min_size` exceeds `max_size`.
    MinAboveMax {
        /// Requested minimum chunk size.
        min: usize,
        /// Requested maximum chunk size.
        max: usize,
    },
    /// `max_size` exceeds `total_memory`.
    MaxAboveTotal {
        /// Requested maximum chunk size.
        max: usize,
        /// Total managed memory.
        total: usize,
    },
    /// The resulting tree would be deeper than the supported limit.
    TooDeep {
        /// Tree depth implied by the configuration.
        depth: u32,
        /// Maximum supported depth.
        limit: u32,
    },
    /// A widened multi-node geometry ([`crate::Geometry::widened`]) would
    /// exceed the address space.
    WidenedTotalOverflow {
        /// Per-node managed bytes.
        per_node: usize,
        /// Widened slot count (node count rounded up to a power of two).
        slots: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::TotalNotPowerOfTwo(v) => {
                write!(f, "total_memory ({v}) must be a non-zero power of two")
            }
            ConfigError::MinNotPowerOfTwo(v) => {
                write!(f, "min_size ({v}) must be a non-zero power of two")
            }
            ConfigError::MaxNotPowerOfTwo(v) => {
                write!(f, "max_size ({v}) must be a non-zero power of two")
            }
            ConfigError::MinAboveMax { min, max } => {
                write!(f, "min_size ({min}) must not exceed max_size ({max})")
            }
            ConfigError::MaxAboveTotal { max, total } => {
                write!(f, "max_size ({max}) must not exceed total_memory ({total})")
            }
            ConfigError::TooDeep { depth, limit } => {
                write!(f, "tree depth {depth} exceeds the supported limit {limit}")
            }
            ConfigError::WidenedTotalOverflow { per_node, slots } => {
                write!(
                    f,
                    "widened region ({per_node} B x {slots} slots) overflows the address space"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors produced by a fallible allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The requested size exceeds the allocator's `max_size`.
    TooLarge {
        /// Requested size in bytes.
        requested: usize,
        /// Largest size a single request may ask for.
        max_size: usize,
    },
    /// No free chunk of the required order is currently available.
    ///
    /// This is the buddy-system notion of exhaustion: enough total memory may
    /// be free, but it is fragmented across smaller or transiently-busy
    /// chunks.
    OutOfMemory {
        /// Requested size in bytes.
        requested: usize,
    },
    /// The attempt failed for a reason expected to clear shortly.
    ///
    /// Unlike [`AllocError::OutOfMemory`] — which means the required order is
    /// genuinely unavailable and must propagate immediately — a transient
    /// failure is worth a bounded retry with backoff before the caller
    /// escalates.  No tree or wrapper in the product returns it; today it
    /// comes only from `nbbs-chaos`'s injected faults.
    Transient {
        /// Requested size in bytes.
        requested: usize,
    },
}

impl AllocError {
    /// `true` for failures worth a bounded retry; `false` for hard failures
    /// ([`AllocError::TooLarge`], [`AllocError::OutOfMemory`]) that must
    /// propagate immediately.
    #[inline]
    pub fn is_transient(&self) -> bool {
        matches!(self, AllocError::Transient { .. })
    }
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AllocError::TooLarge { requested, max_size } => write!(
                f,
                "requested {requested} bytes but the allocator serves at most {max_size} bytes per request"
            ),
            AllocError::OutOfMemory { requested } => {
                write!(f, "no free chunk available for a {requested}-byte request")
            }
            AllocError::Transient { requested } => {
                write!(
                    f,
                    "a {requested}-byte request failed transiently; a bounded retry may succeed"
                )
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Errors produced by a fallible release attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeError {
    /// The offset lies outside the managed region.
    OutOfRange {
        /// Offending offset.
        offset: usize,
        /// Size of the managed region.
        total_memory: usize,
    },
    /// The offset is not aligned to the allocation unit.
    Misaligned {
        /// Offending offset.
        offset: usize,
        /// Allocation-unit size.
        min_size: usize,
    },
    /// The offset does not correspond to a live allocation.
    NotAllocated {
        /// Offending offset.
        offset: usize,
    },
}

impl fmt::Display for FreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FreeError::OutOfRange {
                offset,
                total_memory,
            } => write!(
                f,
                "offset {offset} is outside the managed region of {total_memory} bytes"
            ),
            FreeError::Misaligned { offset, min_size } => write!(
                f,
                "offset {offset} is not aligned to the {min_size}-byte allocation unit"
            ),
            FreeError::NotAllocated { offset } => {
                write!(
                    f,
                    "offset {offset} does not correspond to a live allocation"
                )
            }
        }
    }
}

impl std::error::Error for FreeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_messages_mention_values() {
        let e = ConfigError::MinAboveMax { min: 64, max: 32 };
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("32"));
        let e = ConfigError::TooDeep {
            depth: 60,
            limit: 40,
        };
        assert!(e.to_string().contains("60"));
    }

    #[test]
    fn alloc_error_messages_mention_values() {
        let e = AllocError::TooLarge {
            requested: 1 << 20,
            max_size: 1 << 14,
        };
        assert!(e.to_string().contains(&(1usize << 20).to_string()));
        let e = AllocError::OutOfMemory { requested: 128 };
        assert!(e.to_string().contains("128"));
        let e = AllocError::Transient { requested: 256 };
        assert!(e.to_string().contains("256"));
    }

    #[test]
    fn only_transient_is_transient() {
        assert!(AllocError::Transient { requested: 8 }.is_transient());
        assert!(!AllocError::OutOfMemory { requested: 8 }.is_transient());
        assert!(!AllocError::TooLarge {
            requested: 8,
            max_size: 4
        }
        .is_transient());
    }

    #[test]
    fn free_error_messages_mention_values() {
        let e = FreeError::Misaligned {
            offset: 100,
            min_size: 64,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("64"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: std::error::Error>(_: E) {}
        assert_err(ConfigError::TotalNotPowerOfTwo(3));
        assert_err(AllocError::OutOfMemory { requested: 1 });
        assert_err(FreeError::NotAllocated { offset: 0 });
    }
}
