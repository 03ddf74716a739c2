//! Splittable parallel iterators: the adaptor surface geofm chains after a
//! `par_*` call.
//!
//! Every iterator here knows its length and can be cut at any index into two
//! iterators over the same items. [`IndexedParallelIterator::for_each`] uses
//! that to hand contiguous pieces to the pool the caller is installed in; a
//! piece runs as the plain sequential loop over its items.

use crate::pool;

/// An exactly sized parallel iterator that can be cut at any index.
pub trait IndexedParallelIterator: Sized + Send {
    /// The item type.
    type Item: Send;
    /// The sequential iterator that runs one piece.
    type SeqIter: Iterator<Item = Self::Item>;

    /// Number of items.
    fn len(&self) -> usize;

    /// True when there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cut into the items before `index` and the items from `index` on.
    /// `index` must not exceed [`len`](Self::len).
    fn split_at(self, index: usize) -> (Self, Self);

    /// The items, in order, as a sequential iterator on this thread.
    fn into_seq(self) -> Self::SeqIter;

    /// Pair every item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self, offset: 0 }
    }

    /// Pair items with `other`'s, stopping at the shorter of the two.
    fn zip<Z: IndexedParallelIterator>(self, other: Z) -> Zip<Self, Z> {
        Zip { a: self, b: other }
    }

    /// Map every item through `f`; drain the result with [`Map::collect`].
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Call `op` on every item. Inside [`ThreadPool::install`] the items are
    /// cut into one contiguous piece per pool thread (at most one per item):
    /// the caller runs the first piece and the pool's helpers the rest.
    /// Anywhere else this is the plain loop on the calling thread.
    ///
    /// [`ThreadPool::install`]: crate::ThreadPool::install
    fn for_each<F>(self, op: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        pool::for_each(self, op);
    }
}

/// Iterator returned by [`IndexedParallelIterator::enumerate`].
#[derive(Debug)]
pub struct Enumerate<P> {
    base: P,
    offset: usize,
}

impl<P: IndexedParallelIterator> IndexedParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);
    type SeqIter = std::iter::Zip<std::ops::Range<usize>, P::SeqIter>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.base.split_at(index);
        let offset = self.offset;
        (Enumerate { base: head, offset }, Enumerate { base: tail, offset: offset + index })
    }

    fn into_seq(self) -> Self::SeqIter {
        (self.offset..self.offset + self.base.len()).zip(self.base.into_seq())
    }
}

/// Iterator returned by [`IndexedParallelIterator::zip`].
#[derive(Debug)]
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: IndexedParallelIterator, B: IndexedParallelIterator> IndexedParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type SeqIter = std::iter::Zip<A::SeqIter, B::SeqIter>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a_head, a_tail) = self.a.split_at(index);
        let (b_head, b_tail) = self.b.split_at(index);
        (Zip { a: a_head, b: b_head }, Zip { a: a_tail, b: b_tail })
    }

    fn into_seq(self) -> Self::SeqIter {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

/// Iterator returned by [`IndexedParallelIterator::map`].
#[derive(Debug)]
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> Map<P, F>
where
    P: IndexedParallelIterator,
    F: Fn(P::Item) -> R + Sync + Send,
{
    /// Collect the mapped items in order. This drains on the calling thread:
    /// no kernel collects, so only `for_each` splits.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        self.base.into_seq().map(self.f).collect()
    }
}
