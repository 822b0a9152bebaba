//! A short list stored inline: the container behind a transaction's legs
//! and signatures.
//!
//! A transaction carries a handful of object operations and one signature
//! per payer, and the generator's transactions have at most three legs and
//! two payers. Two `Vec`s would put both lists in heap allocations of their
//! own beside the transaction's `Arc`; [`InlineVec`] keeps them inside the
//! transaction, so a generated transaction is one allocation.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A list of `Copy` elements that keeps up to `N` of them inline and moves
/// all of them to a heap `Vec` once a push exceeds `N`. It derefs to `[T]`
/// and compares, hashes and debug-prints exactly as that slice does, so a
/// digest over an `InlineVec` equals the digest over a `Vec` of the same
/// elements.
///
/// The list only grows (push, extend), so it never moves back inline.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    /// Number of elements in `inline` while `spill` is `None`.
    len: usize,
    /// Element storage up to the `N`th element; slots at `len..` are filler.
    inline: [T; N],
    /// Every element, once there have been more than `N`. Behind an `Arc`
    /// (copied on write), so a list that never spills pays one pointer for
    /// it where a boxed slice would cost two.
    spill: Option<Arc<Vec<T>>>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        Self {
            len: 0,
            inline: [T::default(); N],
            spill: None,
        }
    }

    /// Have the elements moved to the heap?
    pub fn spilled(&self) -> bool {
        self.spill.is_some()
    }

    /// Append `value`, moving every element to the heap if it is the
    /// `N + 1`th.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.spill.is_none() && self.len < N {
            self.inline[self.len] = value;
            self.len += 1;
        } else {
            self.push_spilled(value);
        }
    }

    /// [`InlineVec::push`] past the inline capacity, kept out of line so the
    /// inline push stays a store and an increment.
    #[cold]
    fn push_spilled(&mut self, value: T) {
        let spill = self.spill.get_or_insert_with(|| {
            let mut spill = Vec::with_capacity(2 * N + 1);
            spill.extend_from_slice(&self.inline);
            Arc::new(spill)
        });
        Arc::make_mut(spill).push(value);
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.spill {
            Some(spill) => spill,
            None => &self.inline[..self.len],
        }
    }
}

impl<T: Clone, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.spill {
            Some(spill) => Arc::make_mut(spill).as_mut_slice(),
            None => &mut self.inline[..self.len],
        }
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    /// Keeps a list longer than `N` in the given allocation.
    fn from(items: Vec<T>) -> Self {
        if items.len() > N {
            return Self {
                spill: Some(Arc::new(items)),
                ..Self::new()
            };
        }
        items.into_iter().collect()
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut list = Self::new();
        list.extend(items);
        list
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::Digest;

    type Small = InlineVec<u64, 3>;

    /// Everything observable about `list` equals what `model` shows.
    fn assert_matches(list: &Small, model: &[u64], what: &str) {
        assert_eq!(&**list, model, "{what}: elements");
        assert_eq!(list.spilled(), model.len() > 3, "{what}: spilled");
        assert_eq!(format!("{list:?}"), format!("{model:?}"), "{what}: Debug");
        assert_eq!(
            Digest::of(list),
            Digest::of(&model.to_vec()),
            "{what}: digest"
        );
    }

    /// An oracle against `Vec<u64>` for every length 0 to N + 2, through
    /// each way of building the list.
    #[test]
    fn inline_vec_matches_vec_across_the_spill_boundary() {
        for len in 0..=5u64 {
            let model: Vec<u64> = (10..10 + len).collect();
            let mut pushed = Small::new();
            for &item in &model {
                pushed.push(item);
            }
            assert_matches(&pushed, &model, &format!("push {len}"));
            let mut extended = Small::default();
            extended.extend(model.iter().copied());
            assert_matches(&extended, &model, &format!("extend {len}"));
            let collected: Small = model.iter().copied().collect();
            assert_matches(&collected, &model, &format!("collect {len}"));
            let converted = Small::from(model.clone());
            assert_matches(&converted, &model, &format!("from vec {len}"));
            assert!(pushed == extended && extended == collected && collected == converted);

            // A clone is independent of its source, on either side of the
            // boundary, whether it grows or is written in place.
            let mut grown = converted.clone();
            grown.push(99);
            let mut grown_model = model.clone();
            grown_model.push(99);
            assert_matches(&grown, &grown_model, &format!("clone+push {len}"));
            let mut written = converted.clone();
            let mut written_model = model.clone();
            if let (Some(item), Some(expected)) = (written.last_mut(), written_model.last_mut()) {
                *item = 7;
                *expected = 7;
            }
            assert_matches(&written, &written_model, &format!("clone+write {len}"));
            assert_matches(&converted, &model, &format!("source of clones {len}"));
            assert!(grown != converted);
        }
    }
}
