//! The shim's parallel contract: every adaptor chain geofm uses gives the
//! sequential result at every pool width, panics reach the `install`
//! caller, `for_each` outside a pool stays on the calling thread, and
//! `install` nests.

use rayon::prelude::*;
use rayon::{current_num_threads, ThreadPool, ThreadPoolBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

fn pool(width: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(width).build().expect("spawn pool helpers")
}

/// Lengths covering empty, shorter than the width, and uneven splits.
const LENS: [usize; 7] = [0, 1, 2, 3, 5, 7, 13];

/// `f(len)` at widths 1..=4 equals `f(len)` outside any pool.
fn same_at_every_width<T: PartialEq + std::fmt::Debug + Send>(f: impl Fn(usize) -> T + Sync) {
    for len in LENS {
        let want = f(len);
        for width in 1..=4 {
            let got = pool(width).install(|| f(len));
            assert_eq!(got, want, "len {len}, width {width}");
        }
    }
}

fn values(n: usize, salt: f32) -> Vec<f32> {
    (0..n).map(|i| i as f32 * 0.75 + salt).collect()
}

#[test]
fn chunks_mut_enumerate() {
    // matmul panels, bmm slabs, scene images
    same_at_every_width(|len| {
        let mut out = vec![0.0f32; len * 3];
        out.par_chunks_mut(3).enumerate().for_each(|(i, chunk)| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 10 + j) as f32;
            }
        });
        out
    });
}

#[test]
fn chunks_mut_with_a_short_tail() {
    same_at_every_width(|len| {
        let mut out = vec![0u32; len * 2 + 1];
        out.par_chunks_mut(2).enumerate().for_each(|(i, chunk)| chunk.fill(i as u32 + 1));
        out
    });
}

#[test]
fn three_way_zip_of_layernorm_forward() {
    same_at_every_width(|len| {
        let d = 4;
        let x = values(len * d, 0.5);
        let mut xhat = vec![0.0f32; len * d];
        let mut rstd = vec![0.0f32; len];
        xhat.par_chunks_mut(d).zip(x.par_chunks(d)).zip(rstd.par_iter_mut()).for_each(
            |((out, row), rs)| {
                let mean = row.iter().sum::<f32>() / d as f32;
                *rs = 1.0 / (mean + 1.0);
                for (o, &v) in out.iter_mut().zip(row) {
                    *o = (v - mean) * *rs;
                }
            },
        );
        (xhat, rstd)
    });
}

#[test]
fn four_way_zip_of_layernorm_backward() {
    same_at_every_width(|len| {
        let d = 3;
        let dy = values(len * d, -1.0);
        let xhat = values(len * d, 2.0);
        let rstd = values(len, 0.25);
        let mut dx = vec![0.0f32; len * d];
        dx.par_chunks_mut(d)
            .zip(dy.par_chunks(d))
            .zip(xhat.par_chunks(d))
            .zip(rstd.par_iter())
            .for_each(|(((dxr, dyr), xr), &rs)| {
                let s: f32 = dyr.iter().zip(xr).map(|(a, b)| a * b).sum();
                for ((o, &a), &b) in dxr.iter_mut().zip(dyr).zip(xr) {
                    *o = rs * (a - b * s);
                }
            });
        dx
    });
}

#[test]
fn iter_mut_zip_iter() {
    // the elementwise kernels
    same_at_every_width(|len| {
        let other = values(len, 3.0);
        let mut out = values(len, -2.0);
        out.par_iter_mut().zip(other.par_iter()).for_each(|(a, &b)| *a = *a * b + 1.0);
        out
    });
}

#[test]
fn chunks_mut_zip_iter_mut_enumerate() {
    // segmented scenes: images and labels side by side
    same_at_every_width(|len| {
        let mut images = vec![0u8; len * 2];
        let mut labels = vec![vec![0u8; 2]; len];
        images.par_chunks_mut(2).zip(labels.par_iter_mut()).enumerate().for_each(
            |(i, (img, lab))| {
                img.fill(i as u8);
                lab[1] = i as u8 + 100;
            },
        );
        (images, labels)
    });
}

#[test]
fn zip_stops_at_the_shorter_side() {
    same_at_every_width(|len| {
        let short = values(len, 1.0);
        let mut long = vec![0.0f32; len + 3];
        long.par_iter_mut().zip(short.par_iter()).for_each(|(a, &b)| *a = b);
        long
    });
}

#[test]
fn map_collect_keeps_order() {
    same_at_every_width(|len| {
        let v = values(len, 0.0);
        v.par_chunks(2).map(|c| c.iter().sum::<f32>()).collect::<Vec<f32>>()
    });
}

#[test]
fn every_piece_runs_on_its_own_thread() {
    // each piece blocks until all have started, so none can be taken back
    for width in 2..=4 {
        let started = Barrier::new(width);
        let threads = Mutex::new(Vec::new());
        pool(width).install(|| {
            assert_eq!(current_num_threads(), width);
            let mut v = vec![0u8; width];
            v.par_iter_mut().for_each(|_| {
                started.wait();
                threads.lock().unwrap().push(thread::current().id());
            });
        });
        let mut ids = threads.into_inner().unwrap();
        ids.sort_by_key(|id| format!("{id:?}"));
        ids.dedup();
        assert_eq!(ids.len(), width, "width {width}");
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// Width-2 `for_each` over two items that run on the caller (item 0) and
/// the helper (item 1) at the same time.
fn two_pieces(p: &ThreadPool, body: impl Fn(usize) + Sync) -> Result<(), String> {
    let both = Barrier::new(2);
    let items = [0usize, 1];
    catch_unwind(AssertUnwindSafe(|| {
        p.install(|| {
            items.par_iter().for_each(|&i| {
                both.wait();
                body(i);
            })
        })
    }))
    .map_err(panic_text)
}

/// The pool still splits across both of its threads.
fn assert_pool_works(p: &ThreadPool) {
    let caller = thread::current().id();
    let helper: Mutex<Option<ThreadId>> = Mutex::new(None);
    two_pieces(p, |i| {
        if i == 1 {
            *helper.lock().unwrap() = Some(thread::current().id());
        }
    })
    .expect("no panic");
    let helper = helper.into_inner().unwrap().expect("item 1 ran");
    assert_ne!(helper, caller);
}

#[test]
fn helper_panic_reaches_the_install_caller() {
    let p = pool(2);
    let caller = thread::current().id();
    let caller_done = AtomicBool::new(false);
    let err = two_pieces(&p, |i| {
        if i == 1 {
            assert_ne!(thread::current().id(), caller);
            panic!("helper piece failed");
        }
        thread::sleep(Duration::from_millis(5));
        caller_done.store(true, Ordering::SeqCst);
    });
    assert_eq!(err, Err("helper piece failed".to_string()));
    assert!(caller_done.load(Ordering::SeqCst));
    assert_pool_works(&p);
}

#[test]
fn caller_panic_waits_for_the_pieces_in_flight() {
    let p = pool(2);
    let helper_done = AtomicBool::new(false);
    let err = two_pieces(&p, |i| {
        if i == 0 {
            panic!("caller piece failed");
        }
        thread::sleep(Duration::from_millis(5));
        helper_done.store(true, Ordering::SeqCst);
    });
    assert_eq!(err, Err("caller piece failed".to_string()));
    assert!(helper_done.load(Ordering::SeqCst), "resumed before the helper's piece ended");
    assert_pool_works(&p);
}

#[test]
fn the_first_piece_panic_wins() {
    let p = pool(2);
    let err = two_pieces(&p, |i| panic!("piece {i}"));
    assert_eq!(err, Err("piece 0".to_string()));
    assert_pool_works(&p);
}

#[test]
fn outside_install_for_each_stays_on_the_caller() {
    let me = thread::current().id();
    assert_eq!(current_num_threads(), 1);
    let mut v = vec![0u8; 64];
    v.par_chunks_mut(3).for_each(|_| assert_eq!(thread::current().id(), me));
    v.par_iter_mut().zip([1u8; 64].par_iter()).for_each(|(a, &b)| {
        assert_eq!(thread::current().id(), me);
        *a = b;
    });
    assert_eq!(v, vec![1u8; 64]);
    pool(1).install(|| {
        assert_eq!(current_num_threads(), 1);
        v.par_iter_mut().for_each(|_| assert_eq!(thread::current().id(), me));
    });
}

#[test]
fn nested_install_restores_the_outer_pool() {
    let (outer, inner) = (pool(2), pool(3));
    assert_eq!(current_num_threads(), 1);
    outer.install(|| {
        assert_eq!(current_num_threads(), 2);
        inner.install(|| assert_eq!(current_num_threads(), 3));
        assert_eq!(current_num_threads(), 2);
        let unwound = catch_unwind(AssertUnwindSafe(|| inner.install(|| panic!("inner"))));
        assert!(unwound.is_err());
        assert_eq!(current_num_threads(), 2);
    });
    assert_eq!(current_num_threads(), 1);
}

#[test]
fn nested_for_each_runs_in_place() {
    let p = pool(2);
    let out = p.install(|| {
        let mut rows = vec![vec![0u32; 5]; 4];
        rows.par_iter_mut().enumerate().for_each(|(i, row)| {
            row.par_iter_mut().enumerate().for_each(|(j, v)| *v = (i * 10 + j) as u32);
        });
        rows
    });
    let want: Vec<Vec<u32>> =
        (0..4).map(|i| (0..5).map(|j| (i * 10 + j) as u32).collect()).collect();
    assert_eq!(out, want);
}

#[test]
fn one_pool_installed_on_two_threads() {
    // the second caller finds the helpers busy and runs in place
    let p = pool(2);
    let start = Barrier::new(2);
    thread::scope(|s| {
        let workers: Vec<_> = (0..2u32)
            .map(|t| {
                let (p, start) = (&p, &start);
                s.spawn(move || {
                    start.wait();
                    p.install(|| {
                        let mut v = vec![0u32; 40];
                        for _ in 0..4 {
                            v.par_iter_mut().enumerate().for_each(|(i, x)| *x += i as u32 + t);
                        }
                        v
                    })
                })
            })
            .collect();
        for (t, w) in workers.into_iter().enumerate() {
            let want: Vec<u32> = (0..40).map(|i| 4 * (i + t as u32)).collect();
            assert_eq!(w.join().unwrap(), want);
        }
    });
}

#[test]
#[should_panic(expected = "chunk size must be non-zero")]
fn par_chunks_of_zero_panics() {
    let _ = [1, 2, 3].par_chunks(0);
}

#[test]
#[should_panic(expected = "chunk size must be non-zero")]
fn par_chunks_mut_of_zero_panics() {
    let _ = [1, 2, 3].par_chunks_mut(0);
}
