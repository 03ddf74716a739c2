//! Property tests: collectives must agree with their sequential reference
//! for arbitrary rank counts, buffer lengths, and contents.

use geofm_collectives::Group;
use proptest::prelude::*;

fn reference_sum(inputs: &[Vec<f32>]) -> Vec<f32> {
    let len = inputs[0].len();
    let mut out = vec![0.0f32; len];
    for input in inputs {
        for (o, &v) in out.iter_mut().zip(input) {
            *o += v;
        }
    }
    out
}

fn run_all_reduce(inputs: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    let ranks = inputs.len();
    let handles = Group::create(ranks);
    let results: Vec<std::sync::Mutex<Vec<f32>>> =
        (0..ranks).map(|_| std::sync::Mutex::new(Vec::new())).collect();
    std::thread::scope(|s| {
        for (h, input) in handles.into_iter().zip(inputs.iter()) {
            let results = &results;
            let mut buf = input.clone();
            s.spawn(move || {
                let rank = h.rank();
                h.all_reduce(&mut buf);
                *results[rank].lock().unwrap() = buf;
            });
        }
    });
    results.into_iter().map(|m| m.into_inner().unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_reduce_matches_reference(
        ranks in 1usize..6,
        len in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let inputs: Vec<Vec<f32>> =
            (0..ranks).map(|_| (0..len).map(|_| next() * 4.0).collect()).collect();
        let expect = reference_sum(&inputs);
        for (r, res) in run_all_reduce(inputs).iter().enumerate() {
            for (a, e) in res.iter().zip(&expect) {
                prop_assert!((a - e).abs() < 1e-3, "rank {}: {} vs {}", r, a, e);
            }
        }
    }

    #[test]
    fn reduce_scatter_concatenation_is_all_reduce(
        ranks in 1usize..5,
        len in 1usize..30,
        seed in 0u64..1000,
    ) {
        let inputs: Vec<Vec<f32>> = (0..ranks)
            .map(|r| (0..len).map(|i| ((seed as usize + r * 31 + i * 7) % 13) as f32).collect())
            .collect();
        let expect = reference_sum(&inputs);
        let handles = Group::create(ranks);
        let results: Vec<std::sync::Mutex<Vec<f32>>> =
            (0..ranks).map(|_| std::sync::Mutex::new(Vec::new())).collect();
        std::thread::scope(|s| {
            for (h, input) in handles.into_iter().zip(inputs.iter()) {
                let results = &results;
                s.spawn(move || {
                    let rank = h.rank();
                    let mut shard = Vec::new();
                    h.reduce_scatter(input, &mut shard);
                    *results[rank].lock().unwrap() = shard;
                });
            }
        });
        let concat: Vec<f32> =
            results.into_iter().flat_map(|m| m.into_inner().unwrap()).collect();
        prop_assert_eq!(concat, expect);
    }
}
