//! Property tests for the statistics substrate.

#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math

use enhancenet_stats::{kmeans, mae, mape, metrics_at_horizon, rmse, welch_t_test};
use enhancenet_tensor::Tensor;
use proptest::prelude::*;

fn series(n: usize) -> impl Strategy<Value = (Tensor, Tensor)> {
    (prop::collection::vec(1.0f32..100.0, n), prop::collection::vec(-5.0f32..5.0, n)).prop_map(
        move |(truth, noise)| {
            let t = Tensor::from_vec(truth.clone(), &[n]);
            let p = Tensor::from_vec(truth.iter().zip(&noise).map(|(a, b)| a + b).collect(), &[n]);
            (p, t)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rmse_dominates_mae((p, t) in series(16)) {
        prop_assert!(rmse(&p, &t) + 1e-5 >= mae(&p, &t));
    }

    #[test]
    fn metrics_are_nonnegative_and_zero_iff_exact((p, t) in series(16)) {
        prop_assert!(mae(&p, &t) >= 0.0);
        prop_assert!(rmse(&p, &t) >= 0.0);
        prop_assert!(mape(&p, &t) >= 0.0);
        prop_assert_eq!(mae(&t, &t), 0.0);
    }

    #[test]
    fn mae_is_translation_detectable((_, t) in series(16), shift in 0.5f32..5.0) {
        let shifted = t.map(|v| v + shift);
        prop_assert!((mae(&shifted, &t) - shift).abs() < 1e-4);
    }

    #[test]
    fn metrics_scale_equivariance((p, t) in series(16), k in 1.0f32..10.0) {
        // MAE and RMSE scale linearly with the data; MAPE is invariant.
        let pk = p.mul_scalar(k);
        let tk = t.mul_scalar(k);
        prop_assert!((mae(&pk, &tk) - k * mae(&p, &t)).abs() < 1e-2 * k);
        prop_assert!((mape(&pk, &tk) - mape(&p, &t)).abs() < 1e-2);
    }

    #[test]
    fn t_test_symmetry(a in prop::collection::vec(0.0f32..10.0, 5..20),
                       b in prop::collection::vec(0.0f32..10.0, 5..20)) {
        let ab = welch_t_test(&a, &b);
        let ba = welch_t_test(&b, &a);
        prop_assert!((ab.t + ba.t).abs() < 1e-9);
        prop_assert!((ab.p_value - ba.p_value).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&ab.p_value));
    }

    #[test]
    fn t_test_shifted_samples_get_smaller_p(base in prop::collection::vec(0.0f32..1.0, 10..20)) {
        let near: Vec<f32> = base.iter().map(|v| v + 0.1).collect();
        let far: Vec<f32> = base.iter().map(|v| v + 10.0).collect();
        let p_near = welch_t_test(&base, &near).p_value;
        let p_far = welch_t_test(&base, &far).p_value;
        prop_assert!(p_far <= p_near + 1e-12);
        prop_assert!(p_far < 1e-6);
    }

    #[test]
    fn kmeans_assignments_are_valid(seed in 0u64..100, k in 1usize..4) {
        let pts = enhancenet_tensor::TensorRng::seed(seed).normal(&[12, 3], 0.0, 1.0);
        let (assign, centroids) = kmeans(&pts, k, seed, 30);
        prop_assert_eq!(assign.len(), 12);
        prop_assert!(assign.iter().all(|&a| a < k));
        prop_assert_eq!(centroids.shape(), &[k, 3]);
        prop_assert!(!centroids.has_non_finite());
    }

    #[test]
    fn kmeans_puts_each_point_nearest_its_centroid(seed in 0u64..50) {
        let pts = enhancenet_tensor::TensorRng::seed(seed).normal(&[10, 2], 0.0, 2.0);
        let (assign, centroids) = kmeans(&pts, 3, seed, 100);
        let d2 = |i: usize, c: usize| -> f32 {
            (0..2).map(|k| (pts.at(&[i, k]) - centroids.at(&[c, k])).powi(2)).sum()
        };
        // Lloyd's algorithm terminates with every point at (one of) its
        // nearest centroids.
        for i in 0..10 {
            let own = d2(i, assign[i]);
            for c in 0..3 {
                prop_assert!(own <= d2(i, c) + 1e-4);
            }
        }
    }

    #[test]
    fn horizon_metrics_match_manual_slice(seed in 0u64..50) {
        let mut rng = enhancenet_tensor::TensorRng::seed(seed);
        let p = rng.normal(&[2, 4, 3], 50.0, 5.0);
        let t = rng.normal(&[2, 4, 3], 50.0, 5.0);
        let m = metrics_at_horizon(&p, &t, 2);
        let manual = mae(&p.index_axis(1, 1), &t.index_axis(1, 1));
        prop_assert!((m.mae - manual).abs() < 1e-5);
    }
}
