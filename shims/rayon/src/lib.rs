//! Offline shim for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no crates-io access, so this crate implements
//! the part of rayon's API that geofm uses, with rayon's signatures: the
//! slice `par_iter`/`par_iter_mut`/`par_chunks`/`par_chunks_mut` iterators,
//! their `enumerate`, `zip`, `map`/`collect` and `for_each` adaptors,
//! [`ThreadPoolBuilder`], [`ThreadPool::install`] and
//! [`current_num_threads`].
//!
//! `for_each` runs in parallel inside [`ThreadPool::install`]: it cuts the
//! items into `min(width, len)` contiguous pieces, runs the first on the
//! calling thread and hands the rest to the pool's helper threads, which
//! start with the first `for_each` that splits. Outside any `install`, or
//! in a pool of width 1, it is the plain sequential loop on the calling
//! thread. Each piece visits its items in order, so a call whose items
//! write disjoint outputs gives bit-identical results at every width. A
//! panic in any piece reaches the caller of `for_each` once every piece is
//! over.
//!
//! Two differences from rayon: `install` runs its closure on the calling
//! thread, not on a pool thread, and `map(..).collect()` drains on the
//! calling thread. Swapping the real crate back in needs no source change
//! outside the workspace manifest.

mod iter;
mod pool;
mod slice;

pub use iter::{Enumerate, IndexedParallelIterator, Map, Zip};
pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};
pub use slice::{Chunks, ChunksMut, Iter, IterMut, ParallelSlice, ParallelSliceMut};

/// Drop-in for `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::IndexedParallelIterator;
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_match_chunks() {
        let v = [1, 2, 3, 4, 5];
        let par: Vec<Vec<i32>> = v.par_chunks(2).map(|c| c.to_vec()).collect();
        assert_eq!(par, vec![vec![1, 2], vec![3, 4], vec![5]]);
    }

    #[test]
    fn par_iter_mut_applies_in_order() {
        let mut v = vec![1, 2, 3];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x += i as i32);
        assert_eq!(v, vec![1, 3, 5]);
    }

    #[test]
    fn zip_chains_work() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let mut b = [0.0f32; 4];
        b.par_chunks_mut(2).zip(a.par_chunks(2)).for_each(|(dst, src)| {
            dst.copy_from_slice(src);
        });
        assert_eq!(a, b);
    }
}
