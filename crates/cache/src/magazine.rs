//! Magazines: bounded LIFO stacks of chunk offsets, one size class each.

/// A bounded stack of chunk offsets belonging to one size class.
///
/// The LIFO order deliberately hands back the most recently freed chunk
/// first, which is the one most likely to still be cache-hot — the same
/// reasoning as Bonwick's magazine layer in the Solaris slab allocator.
/// A pop owes nothing: under the global shell the region beneath committed
/// every entry's pages when the tree granted the chunk to a refill.
#[derive(Debug)]
pub(crate) struct Magazine {
    entries: Vec<usize>,
    capacity: usize,
}

impl Magazine {
    /// Creates an empty magazine holding at most `capacity` offsets.
    pub(crate) fn new(capacity: usize) -> Self {
        Magazine {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum number of offsets this magazine holds.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Raises an *empty* magazine's capacity to `capacity` (the adaptive
    /// controller only ever grows a class's capacity, and magazines adopt
    /// it at rotation/refill points, where they hold nothing).
    pub(crate) fn grow_to(&mut self, capacity: usize) {
        debug_assert!(self.is_empty(), "resizing a non-empty magazine");
        debug_assert!(capacity >= self.capacity(), "capacities only grow");
        self.entries.reserve(capacity);
        self.capacity = capacity;
    }

    /// Current number of cached offsets.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity()
    }

    /// Whether a push fits the buffer the magazine has: a drain takes the
    /// buffer ([`Magazine::take_all`]), and the next pushes grow a new one.
    #[inline]
    pub(crate) fn has_room(&self) -> bool {
        self.entries.len() < self.entries.capacity()
    }

    /// Parks an offset; the caller must have checked [`Magazine::is_full`].
    /// Allocates when the buffer has no room ([`Magazine::has_room`]).
    #[inline]
    pub(crate) fn push(&mut self, offset: usize) {
        debug_assert!(!self.is_full());
        self.entries.push(offset);
    }

    /// Pops the most recently pushed offset.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<usize> {
        self.entries.pop()
    }

    /// Removes and returns all cached offsets.  The buffer goes with them:
    /// the next push allocates a new one.
    pub(crate) fn take_all(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.entries)
    }

    /// Read-only view of the cached offsets.
    pub(crate) fn entries(&self) -> &[usize] {
        &self.entries
    }
}

/// The pair of magazines a thread slot keeps per size class (Bonwick's
/// two-magazine scheme: `loaded` serves the hot path, `previous` buffers a
/// full/empty magazine so a burst of frees or allocations at the boundary
/// does not thrash the depot).
#[derive(Debug)]
pub(crate) struct ClassMags {
    pub(crate) loaded: Magazine,
    pub(crate) previous: Magazine,
    /// An empty magazine kept aside for the next overflow rotation, so a
    /// depot round-trip (full magazine in, empty out) recirculates the
    /// empty's buffer instead of freeing it and heap-allocating a fresh one.
    pub(crate) spare: Option<Magazine>,
}

impl ClassMags {
    pub(crate) fn new(capacity: usize) -> Self {
        ClassMags {
            loaded: Magazine::new(capacity),
            previous: Magazine::new(capacity),
            spare: None,
        }
    }

    /// Total offsets cached by this pair.
    pub(crate) fn len(&self) -> usize {
        self.loaded.len() + self.previous.len()
    }

    /// A hit: pops from `loaded`, swapping `previous` in when `loaded` is
    /// empty.  `None` when both are empty.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<usize> {
        if self.loaded.is_empty() {
            std::mem::swap(&mut self.loaded, &mut self.previous);
        }
        self.loaded.pop()
    }

    /// A parked free, which never allocates: pushes into `loaded`, swapping
    /// an empty `previous` in when `loaded` is full.  `false` (and nothing
    /// pushed) when both are full, or when the magazine it would push into
    /// has no room in its buffer because a drain took it:
    /// [`ClassMags::push_growing`] parks there.
    #[inline]
    pub(crate) fn push(&mut self, offset: usize) -> bool {
        self.push_into(offset, false)
    }

    /// [`ClassMags::push`] that grows a drained magazine's buffer as
    /// `Vec::push` does (allocating): `false` only when both are full.
    pub(crate) fn push_growing(&mut self, offset: usize) -> bool {
        self.push_into(offset, true)
    }

    #[inline]
    fn push_into(&mut self, offset: usize, grow: bool) -> bool {
        if self.loaded.is_full() {
            if !self.previous.is_empty() {
                return false;
            }
            std::mem::swap(&mut self.loaded, &mut self.previous);
        }
        if !grow && !self.loaded.has_room() {
            return false;
        }
        self.loaded.push(offset);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order_and_bounds() {
        let mut m = Magazine::new(2);
        assert!(m.is_empty());
        assert_eq!(m.capacity(), 2);
        m.push(8);
        m.push(16);
        assert!(m.is_full());
        assert_eq!(m.len(), 2);
        assert_eq!(m.pop(), Some(16));
        assert_eq!(m.pop(), Some(8));
        assert_eq!(m.pop(), None);
    }

    #[test]
    fn grow_to_raises_an_empty_magazines_capacity() {
        let mut m = Magazine::new(2);
        m.grow_to(8);
        assert_eq!(m.capacity(), 8);
        for off in 0..8 {
            m.push(off * 8);
        }
        assert!(m.is_full());
        assert_eq!(m.take_all().len(), 8);
        // A drained magazine has no buffer; growing it takes a new one.
        m.grow_to(16);
        assert_eq!(m.capacity(), 16);
        assert!(m.entries.capacity() >= 16);
        for off in 0..16 {
            m.push(off * 8);
        }
        assert!(m.is_full());
    }

    #[test]
    fn take_all_empties_the_magazine() {
        let mut m = Magazine::new(4);
        m.push(0);
        m.push(64);
        assert_eq!(m.entries(), &[0, 64]);
        let all = m.take_all();
        assert_eq!(all, vec![0, 64]);
        assert!(m.is_empty());
    }

    #[test]
    fn the_pair_swaps_at_its_boundaries() {
        let mut pair = ClassMags::new(2);
        assert_eq!(pair.pop(), None, "both empty");
        for off in [0, 8, 16, 24] {
            assert!(pair.push(off));
        }
        assert!(!pair.push(32), "both full");
        assert_eq!((pair.loaded.len(), pair.previous.len()), (2, 2));
        assert_eq!(pair.pop(), Some(24));
        assert_eq!(pair.pop(), Some(16));
        assert_eq!(pair.pop(), Some(8), "previous swapped in");
        assert_eq!(pair.pop(), Some(0));
        assert_eq!(pair.pop(), None);
    }

    #[test]
    fn a_drained_pair_refuses_the_push_that_would_allocate() {
        let mut pair = ClassMags::new(8);
        assert!(pair.push(0));
        assert!(pair.loaded.take_all() == [0] && pair.previous.take_all().is_empty());
        assert!(!pair.push(8), "no buffer left to push into");
        assert_eq!(pair.len(), 0);
        assert!(pair.push_growing(8));
        // The grown buffer takes the next pushes until it is full again.
        let room = pair.loaded.entries.capacity() - 1;
        assert!(room > 0);
        for i in 0..room {
            assert!(pair.push(16 + 8 * i), "push {i} fits the grown buffer");
        }
        assert!(!pair.push(4096), "the buffer is full below the capacity");
        assert!(pair.push_growing(4096));
        assert_eq!(pair.len(), room + 2);
    }

    #[test]
    fn a_magazine_is_four_words() {
        assert_eq!(
            std::mem::size_of::<Magazine>(),
            std::mem::size_of::<Vec<usize>>() + 8
        );
    }

    #[test]
    fn class_pair_counts_both_magazines() {
        let mut pair = ClassMags::new(2);
        pair.loaded.push(0);
        pair.previous.push(8);
        pair.previous.push(16);
        assert_eq!(pair.len(), 3);
    }
}
