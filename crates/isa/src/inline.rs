//! A fixed-capacity list stored inline, for the per-instruction operand,
//! definition and use lists of the compile hot path.
//!
//! Every list an [`Instruction`](crate::Instruction) carries or derives
//! has a small bound fixed by the instruction format: at most two
//! register sources, and at most [`MAX_USES`](crate::MAX_USES) uses and
//! [`MAX_DEFS`](crate::MAX_DEFS) definitions. Holding them in an array
//! instead of a `Vec` makes `Instruction` `Copy` and lets the passes that
//! walk every instruction run without touching the allocator.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// A list of at most `N` values, stored inline.
///
/// It dereferences to a slice, so callers iterate, index, `contains` and
/// `len` it exactly as they would a `Vec`. Equality, hashing and `Debug`
/// go through that slice: a list hashes and prints bit-identically to a
/// `Vec` holding the same values.
///
/// ```
/// use dagsched_isa::{InlineList, Reg};
/// let mut regs: InlineList<Reg, 2> = InlineList::new();
/// regs.push(Reg::o(0));
/// regs.push(Reg::o(1));
/// assert_eq!(regs, vec![Reg::o(0), Reg::o(1)]);
/// assert_eq!(format!("{regs:?}"), format!("{:?}", vec![Reg::o(0), Reg::o(1)]));
/// ```
#[derive(Clone, Copy)]
pub struct InlineList<T, const N: usize> {
    len: u8,
    /// Slots at `len..` hold `T::default()`; nothing reads them.
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineList<T, N> {
    /// An empty list.
    pub fn new() -> InlineList<T, N> {
        const {
            assert!(
                N <= u8::MAX as usize,
                "InlineList capacity must fit in a u8"
            )
        };
        InlineList {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// A list holding a copy of `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` holds more than `N` values.
    pub fn from_slice(values: &[T]) -> InlineList<T, N> {
        let mut list = InlineList::new();
        for &v in values {
            list.push(v);
        }
        list
    }

    /// Append `value`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds `N` values: every caller sizes
    /// `N` for the most values its input can produce, so a full list is a
    /// bug in that bound.
    pub fn push(&mut self, value: T) {
        let len = self.len as usize;
        assert!(len < N, "InlineList capacity {N} exceeded");
        self.items[len] = value;
        self.len += 1;
    }
}

impl<T, const N: usize> InlineList<T, N> {
    fn as_slice(&self) -> &[T] {
        &self.items[..self.len as usize]
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.items[..self.len as usize]
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineList<T, N> {
    fn default() -> InlineList<T, N> {
        InlineList::new()
    }
}

impl<T, const N: usize> Deref for InlineList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> DerefMut for InlineList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: Hash, const N: usize> Hash for InlineList<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineList<T, N> {
    fn eq(&self, other: &InlineList<T, N>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for InlineList<T, N> {}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for InlineList<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a mut InlineList<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

impl<T: Copy, const N: usize> IntoIterator for InlineList<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn behaves_like_the_vec_it_replaces() {
        let mut list: InlineList<u16, 4> = InlineList::new();
        let mut vec: Vec<u16> = Vec::new();
        assert_eq!(list, vec);
        for v in [7, 3, 9] {
            list.push(v);
            vec.push(v);
            assert_eq!(list, vec);
            assert_eq!(hash_of(&list), hash_of(&vec));
            assert_eq!(format!("{list:?}"), format!("{vec:?}"));
            assert_eq!(format!("{list:#?}"), format!("{vec:#?}"));
        }
        assert!(list.contains(&3));
        assert_eq!(list[2], 9);
        assert_eq!(list.into_iter().collect::<Vec<_>>(), vec);
        list.swap(0, 1);
        assert_eq!(list, vec![3, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "capacity 2 exceeded")]
    fn pushing_past_capacity_panics() {
        let _: InlineList<u16, 2> = InlineList::from_slice(&[1, 2, 3]);
    }
}
