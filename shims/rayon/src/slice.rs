//! Parallel iterators over slices: `par_iter`, `par_iter_mut`, `par_chunks`
//! and `par_chunks_mut`.

use crate::iter::IndexedParallelIterator;

/// `par_iter`/`par_chunks` over shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T`.
    fn par_iter(&self) -> Iter<'_, T>;

    /// Parallel iterator over `chunk_size`-element chunks; the last may be
    /// shorter.
    ///
    /// # Panics
    /// Panics if `chunk_size` is 0.
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T>;
}

/// `par_iter_mut`/`par_chunks_mut` over mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over `&mut T`.
    fn par_iter_mut(&mut self) -> IterMut<'_, T>;

    /// Parallel iterator over mutable `chunk_size`-element chunks; the last
    /// may be shorter.
    ///
    /// # Panics
    /// Panics if `chunk_size` is 0.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> Iter<'_, T> {
        Iter { slice: self }
    }

    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
        assert!(chunk_size != 0, "chunk size must be non-zero");
        Chunks { slice: self, size: chunk_size }
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> IterMut<'_, T> {
        IterMut { slice: self }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk size must be non-zero");
        ChunksMut { slice: self, size: chunk_size }
    }
}

/// Iterator returned by [`ParallelSlice::par_iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> IndexedParallelIterator for Iter<'a, T> {
    type Item = &'a T;
    type SeqIter = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.slice.split_at(index);
        (Iter { slice: head }, Iter { slice: tail })
    }

    fn into_seq(self) -> Self::SeqIter {
        self.slice.iter()
    }
}

/// Iterator returned by [`ParallelSliceMut::par_iter_mut`].
#[derive(Debug)]
pub struct IterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> IndexedParallelIterator for IterMut<'a, T> {
    type Item = &'a mut T;
    type SeqIter = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.slice.split_at_mut(index);
        (IterMut { slice: head }, IterMut { slice: tail })
    }

    fn into_seq(self) -> Self::SeqIter {
        self.slice.iter_mut()
    }
}

/// Iterator returned by [`ParallelSlice::par_chunks`].
#[derive(Debug)]
pub struct Chunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> IndexedParallelIterator for Chunks<'a, T> {
    type Item = &'a [T];
    type SeqIter = std::slice::Chunks<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let at = index.saturating_mul(self.size).min(self.slice.len());
        let (head, tail) = self.slice.split_at(at);
        (Chunks { slice: head, size: self.size }, Chunks { slice: tail, size: self.size })
    }

    fn into_seq(self) -> Self::SeqIter {
        self.slice.chunks(self.size)
    }
}

/// Iterator returned by [`ParallelSliceMut::par_chunks_mut`].
#[derive(Debug)]
pub struct ChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> IndexedParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    type SeqIter = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let at = index.saturating_mul(self.size).min(self.slice.len());
        let (head, tail) = self.slice.split_at_mut(at);
        (ChunksMut { slice: head, size: self.size }, ChunksMut { slice: tail, size: self.size })
    }

    fn into_seq(self) -> Self::SeqIter {
        self.slice.chunks_mut(self.size)
    }
}
