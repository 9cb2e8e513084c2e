//! A fixed-capacity bit set over automaton states.

/// A set of states represented as packed bits.
///
/// Reachability sweeps and the FPRAS's membership tests manipulate sets over a
/// fixed universe `0..capacity`; a bitset keeps those O(m/64) per step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StateSet {
    bits: Vec<u64>,
    capacity: usize,
}

impl StateSet {
    /// The empty set over a universe of `capacity` states.
    pub fn new(capacity: usize) -> Self {
        StateSet {
            bits: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The universe size this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts a state; returns true if it was newly added.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        let (w, b) = (i / 64, i % 64);
        let fresh = self.bits[w] & (1 << b) == 0;
        self.bits[w] |= 1 << b;
        fresh
    }

    /// Removes a state.
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.bits[i / 64] &= !(1 << (i % 64));
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Empties the set, keeping the capacity.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// True iff no state is present.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Number of states present.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place union; both sets must share a capacity.
    pub fn union_with(&mut self, other: &StateSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// In-place intersection; both sets must share a capacity.
    pub fn intersect_with(&mut self, other: &StateSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    /// True iff the sets share no state.
    pub fn is_disjoint(&self, other: &StateSet) -> bool {
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & b == 0)
    }

    /// The packed 64-bit word at index `wi` (states `64·wi .. 64·wi+63`).
    ///
    /// Word-level access is the contract the FPRAS union kernel builds on:
    /// two sets of equal capacity have aligned words, so "do these sets
    /// intersect within word `wi`" is a single `&`.
    #[inline]
    pub fn word(&self, wi: usize) -> u64 {
        self.bits[wi]
    }

    /// All packed words, little-endian in state order (`capacity/64` rounded
    /// up of them).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Iterates over present states in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        bit_indices(&self.bits)
    }
}

/// The indices of the set bits of packed words (the layout of
/// [`StateSet::words`]), in increasing order.
pub fn bit_indices(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut word = w;
        std::iter::from_fn(move || {
            if word == 0 {
                return None;
            }
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            Some(wi * 64 + b)
        })
    })
}

impl FromIterator<usize> for StateSet {
    /// Collects states; capacity is one past the maximum element.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |&m| m + 1);
        let mut set = StateSet::new(cap);
        for i in items {
            set.insert(i);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = StateSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0), "re-insert reports not fresh");
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert_eq!(s.len(), 2);
        s.remove(0);
        assert!(!s.contains(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_ops() {
        let mut a = StateSet::new(100);
        let mut b = StateSet::new(100);
        a.insert(1);
        a.insert(70);
        b.insert(70);
        b.insert(99);
        assert!(!a.is_disjoint(&b));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 70, 99]);
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![70]);
        b.clear();
        assert!(b.is_empty());
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn iter_order() {
        let s: StateSet = [5usize, 3, 64, 127].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 5, 64, 127]);
        assert_eq!(s.capacity(), 128);
    }

    #[test]
    fn empty_universe() {
        let s = StateSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
