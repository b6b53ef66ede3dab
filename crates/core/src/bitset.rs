//! A fixed-capacity bit set used for reachability maps.
//!
//! The paper (§2, §3) uses "reachability bit maps ... one bit position per
//! node" both to suppress transitive arcs during backward DAG construction
//! and to compute the `#descendants` heuristic as a population count. This
//! is that structure.

/// A fixed-capacity set of `usize` indices backed by `u64` words.
///
/// ```
/// use dagsched_core::BitSet;
/// let mut a = BitSet::new(100);
/// a.insert(3);
/// a.insert(99);
/// assert!(a.contains(3));
/// assert!(!a.contains(4));
/// assert_eq!(a.count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// An empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> BitSet {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Insert `ix`. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `ix >= capacity`.
    pub fn insert(&mut self, ix: usize) -> bool {
        assert!(
            ix < self.capacity,
            "bit index {ix} out of capacity {}",
            self.capacity
        );
        let (w, b) = (ix / 64, ix % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Remove `ix` from the set.
    pub fn remove(&mut self, ix: usize) {
        if ix < self.capacity {
            self.words[ix / 64] &= !(1 << (ix % 64));
        }
    }

    /// Whether `ix` is in the set.
    pub fn contains(&self, ix: usize) -> bool {
        ix < self.capacity && self.words[ix / 64] & (1 << (ix % 64)) != 0
    }

    /// In-place union (`self |= other`).
    ///
    /// Equal capacities are a contract, checked in debug builds: with a
    /// larger `other` the word-zip would silently drop the high bits, and
    /// with a smaller one the result would be capacity-dependent. Use
    /// [`BitSet::union_with_resize`] where growth is intended. The check
    /// is a `debug_assert` because this is the hot inner loop of the
    /// paper's reachability-map machinery, and every in-tree caller
    /// unions maps drawn from one same-capacity pool.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Union that grows `self` to `other`'s capacity first when needed,
    /// so no bit of `other` can be dropped.
    pub fn union_with_resize(&mut self, other: &BitSet) {
        if other.capacity > self.capacity {
            self.capacity = other.capacity;
            self.words.resize(other.capacity.div_ceil(64), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Population count: number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate over set indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Empty the set and change its capacity in place, keeping the backing
    /// allocation when possible. After `reset(c)` the set is
    /// indistinguishable from `BitSet::new(c)`; this is what lets the
    /// per-worker [`crate::Scratch`] arena reuse one bitmap pool across
    /// blocks of different sizes without reallocating.
    pub fn reset(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.words.clear();
        self.words.resize(capacity.div_ceil(64), 0);
    }

    /// Build a set directly from backing words (used to hand out rows of
    /// a [`BitMatrix`] as standalone sets).
    pub(crate) fn from_words(words: Vec<u64>, capacity: usize) -> BitSet {
        debug_assert_eq!(words.len(), capacity.div_ceil(64));
        BitSet { words, capacity }
    }
}

/// A dense `rows × cols` bit matrix in one flat `u64` allocation — the
/// paper's "one bit position per node" reachability maps laid out so a
/// whole map is one contiguous word run.
///
/// Compared to a `Vec<BitSet>` this removes the per-row allocation and
/// lets row-into-row unions ([`BitMatrix::or_row_into`]) and population
/// counts compile to straight word loops, which is what the SoA DAG core
/// uses for successor rows, transitive-arc suppression and the
/// `#descendants` heuristic.
///
/// ```
/// use dagsched_core::BitMatrix;
/// let mut m = BitMatrix::new(3, 100);
/// m.set(0, 99);
/// m.set(1, 7);
/// m.or_row_into(1, 0); // row 0 |= row 1
/// assert!(m.contains(0, 99) && m.contains(0, 7));
/// assert_eq!(m.row_count_ones(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    words: Vec<u64>,
    rows: usize,
    cols: usize,
    row_words: usize,
}

impl BitMatrix {
    /// An all-zero `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> BitMatrix {
        let row_words = cols.div_ceil(64);
        BitMatrix {
            words: vec![0; rows * row_words],
            rows,
            cols,
            row_words,
        }
    }

    /// Zero the matrix and change its shape in place, keeping the backing
    /// allocation when possible (the [`crate::Scratch`] arena reuses one
    /// matrix across blocks of different sizes).
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.row_words = cols.div_ceil(64);
        self.words.clear();
        self.words.resize(rows * self.row_words, 0);
    }

    /// Bytes of word storage held.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Set bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    pub fn set(&mut self, r: usize, c: usize) {
        assert!(
            r < self.rows && c < self.cols,
            "bit ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        self.words[r * self.row_words + c / 64] |= 1 << (c % 64);
    }

    /// Whether bit `(r, c)` is set (out-of-range is `false`).
    pub fn contains(&self, r: usize, c: usize) -> bool {
        r < self.rows
            && c < self.cols
            && self.words[r * self.row_words + c / 64] & (1 << (c % 64)) != 0
    }

    /// Row `r` as a word slice.
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.row_words..(r + 1) * self.row_words]
    }

    /// Word `w` of row `r`. Lets callers scan a row's bits 64 at a time
    /// (the Landskov variant walks the *complement* of an ancestor row
    /// this way to enumerate unpruned candidate pairs) where per-bit
    /// [`BitMatrix::contains`] probes would re-derive the flat index
    /// and re-check both bounds on every pair.
    #[inline]
    pub fn row_word(&self, r: usize, w: usize) -> u64 {
        self.words[r * self.row_words + w]
    }

    /// Whole-word union of row `src` into row `dst` (`dst |= src`).
    /// A self-union is a no-op.
    pub fn or_row_into(&mut self, src: usize, dst: usize) {
        assert!(src < self.rows && dst < self.rows, "row out of range");
        let rw = self.row_words;
        if src == dst || rw == 0 {
            return;
        }
        let (s, d) = (src * rw, dst * rw);
        // Split the flat buffer so both rows can be borrowed at once.
        if s < d {
            let (lo, hi) = self.words.split_at_mut(d);
            for (a, b) in hi[..rw].iter_mut().zip(&lo[s..s + rw]) {
                *a |= b;
            }
        } else {
            let (lo, hi) = self.words.split_at_mut(s);
            for (a, b) in lo[d..d + rw].iter_mut().zip(&hi[..rw]) {
                *a |= b;
            }
        }
    }

    /// Population count of row `r`.
    pub fn row_count_ones(&self, r: usize) -> usize {
        self.row(r).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate the set column indices of row `r` in ascending order.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(r).iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Copy row `r` out as a standalone [`BitSet`] of capacity `cols`.
    pub fn row_to_bitset(&self, r: usize) -> BitSet {
        BitSet::from_words(self.row(r).to_vec(), self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "second insert reports not-new");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn union_accumulates() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(1);
        b.insert(2);
        b.insert(70);
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 70]);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut s = BitSet::new(200);
        let ixs = [0usize, 5, 63, 64, 65, 127, 128, 199];
        for &i in &ixs {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), ixs.to_vec());
        assert_eq!(s.count(), ixs.len());
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::new(10);
        s.insert(3);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn reset_is_equivalent_to_new() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(129);
        // Shrink: stale high bits must not survive.
        s.reset(10);
        assert_eq!(s, BitSet::new(10));
        s.insert(9);
        // Grow again across a word boundary.
        s.reset(200);
        assert_eq!(s, BitSet::new(200));
        assert!(!s.contains(9));
        s.insert(199);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![199]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn union_capacity_mismatch_panics_in_debug() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(20);
        a.union_with(&b);
    }

    #[test]
    fn union_with_resize_keeps_high_bits_at_word_boundaries() {
        // The silent-truncation hazard lives exactly at the u64 word
        // seams: a high bit at 63 shares self's single word, 64 and 65
        // live in a word self doesn't have yet.
        for &hi in &[63usize, 64, 65] {
            let mut a = BitSet::new(10);
            a.insert(3);
            let mut b = BitSet::new(hi + 1);
            b.insert(hi);
            a.union_with_resize(&b);
            assert_eq!(a.capacity(), hi + 1, "grew to other's capacity");
            assert!(a.contains(3) && a.contains(hi), "hi={hi}");
            assert_eq!(a.count(), 2, "hi={hi}");
        }
    }

    #[test]
    fn union_with_resize_with_smaller_other_is_plain_union() {
        for &cap in &[63usize, 64, 65] {
            let mut a = BitSet::new(cap + 64);
            a.insert(cap + 1);
            let mut b = BitSet::new(cap);
            b.insert(cap - 1);
            a.union_with_resize(&b);
            assert_eq!(a.capacity(), cap + 64);
            assert!(a.contains(cap - 1) && a.contains(cap + 1));
        }
    }

    #[test]
    fn matrix_set_contains_rows() {
        let mut m = BitMatrix::new(3, 130);
        m.set(0, 0);
        m.set(0, 129);
        m.set(2, 64);
        assert!(m.contains(0, 0) && m.contains(0, 129) && m.contains(2, 64));
        assert!(!m.contains(1, 0));
        assert!(
            !m.contains(0, 1000) && !m.contains(9, 0),
            "out of range is false"
        );
        assert_eq!(m.row_count_ones(0), 2);
        assert_eq!(m.row_iter(0).collect::<Vec<_>>(), vec![0, 129]);
        assert_eq!(m.row_iter(1).count(), 0);
    }

    #[test]
    fn matrix_or_row_into_both_directions() {
        for &cols in &[63usize, 64, 65, 200] {
            let mut m = BitMatrix::new(4, cols);
            m.set(1, cols - 1);
            m.set(3, 5);
            m.or_row_into(1, 0); // upward (src below dst)
            m.or_row_into(3, 0); // downward
            m.or_row_into(0, 0); // self-union no-op
            assert!(m.contains(0, cols - 1) && m.contains(0, 5), "cols={cols}");
            assert_eq!(m.row_count_ones(0), 2, "cols={cols}");
            // Source rows are untouched.
            assert_eq!(m.row_count_ones(1), 1);
            assert_eq!(m.row_count_ones(3), 1);
        }
    }

    #[test]
    fn matrix_reset_is_equivalent_to_new() {
        let mut m = BitMatrix::new(5, 100);
        m.set(4, 99);
        m.reset(2, 65);
        assert_eq!(m, BitMatrix::new(2, 65));
        m.set(1, 64);
        assert!(m.contains(1, 64));
        m.reset(8, 300);
        assert_eq!(m, BitMatrix::new(8, 300));
    }

    #[test]
    fn matrix_row_to_bitset_round_trips() {
        let mut m = BitMatrix::new(2, 130);
        m.set(1, 0);
        m.set(1, 129);
        let s = m.row_to_bitset(1);
        assert_eq!(s.capacity(), 130);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
    }
}
