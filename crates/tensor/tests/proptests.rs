//! Property-based tests for tensor algebra invariants.

use geofm_tensor::{matmul, matmul_a_bt, matmul_at_b, Tensor};
use proptest::prelude::*;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(&[rows, cols], v))
}

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..12, 1usize..12, 1usize..12)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition((m, k, n) in dims(), seed in 0u64..1000) {
        let mut rng = geofm_tensor::TensorRng::seed_from(seed);
        let a = rng.randn(&[m, k], 1.0);
        let b1 = rng.randn(&[k, n], 1.0);
        let b2 = rng.randn(&[k, n], 1.0);
        let lhs = matmul(&a, &b1.add(&b2));
        let rhs = matmul(&a, &b1).add(&matmul(&a, &b2));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn matmul_scalar_commutes((m, k, n) in dims(), seed in 0u64..1000, alpha in -3.0f32..3.0) {
        let mut rng = geofm_tensor::TensorRng::seed_from(seed);
        let a = rng.randn(&[m, k], 1.0);
        let b = rng.randn(&[k, n], 1.0);
        let lhs = matmul(&a.scale(alpha), &b);
        let rhs = matmul(&a, &b).scale(alpha);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn transpose_variants_agree((m, k, n) in dims(), seed in 0u64..1000) {
        let mut rng = geofm_tensor::TensorRng::seed_from(seed);
        let a = rng.randn(&[m, k], 1.0);
        let b = rng.randn(&[k, n], 1.0);
        let direct = matmul(&a, &b);
        // (Aᵀ)ᵀ·B via the fused kernel must equal A·B.
        let via_at = matmul_at_b(&a.transpose2(), &b);
        prop_assert!(direct.max_abs_diff(&via_at) < 1e-3);
        // A·(Bᵀ)ᵀ must equal A·B bit for bit: both accumulate in ascending k.
        let via_bt = matmul_a_bt(&a, &b.transpose2());
        prop_assert_eq!(bits(&direct), bits(&via_bt));
    }

    #[test]
    fn softmax_rows_are_probabilities(t in tensor_strategy(4, 9)) {
        let mut s = t.clone();
        s.softmax_rows_inplace();
        for r in 0..4 {
            let row = s.row(r);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(t in tensor_strategy(3, 5), shift in -50.0f32..50.0) {
        let mut a = t.clone();
        a.softmax_rows_inplace();
        let mut b = t.map(|v| v + shift);
        b.softmax_rows_inplace();
        prop_assert!(a.max_abs_diff(&b) < 1e-4);
    }

    #[test]
    fn sum_rows_matches_total(t in tensor_strategy(6, 7)) {
        let per_col = t.sum_rows();
        prop_assert!((per_col.sum() - t.sum()).abs() < 1e-2);
    }

    #[test]
    fn gather_then_scatter_restores_selected_rows(seed in 0u64..1000) {
        let mut rng = geofm_tensor::TensorRng::seed_from(seed);
        let base = rng.randn(&[8, 5], 1.0);
        let idx: Vec<usize> = (0..8).filter(|i| i % 2 == 0).collect();
        let picked = base.gather_rows(&idx);
        let mut rebuilt = Tensor::zeros(&[8, 5]);
        rebuilt.scatter_add_rows(&idx, &picked);
        for &i in &idx {
            for j in 0..5 {
                prop_assert!((rebuilt.at(&[i, j]) - base.at(&[i, j])).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn l2_norm_triangle_inequality(seed in 0u64..1000) {
        let mut rng = geofm_tensor::TensorRng::seed_from(seed);
        let a = rng.randn(&[64], 1.0);
        let b = rng.randn(&[64], 1.0);
        prop_assert!(a.add(&b).l2_norm() <= a.l2_norm() + b.l2_norm() + 1e-4);
    }
}
