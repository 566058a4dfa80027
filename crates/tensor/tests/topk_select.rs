//! Top-k pattern selection against a sort-based oracle.
//!
//! `TopkPattern::from_scores` selects with a bounded heap and a chunked
//! floor test. The oracle below is the plain comparator sort it replaced:
//! order every column by (score descending, column ascending), keep the
//! first `k`, store them ascending. NaN ranks below every number, and rows
//! with no score > 0 keep their diagonal plus the smallest other columns.

use enhancenet_tensor::TopkPattern;
use proptest::prelude::*;
use std::cmp::Ordering;

/// The reference selection for one row: a full comparator sort.
fn reference_row(row: usize, scores: &[f32], k: usize) -> Vec<u32> {
    let mut out: Vec<u32> = if !scores.iter().any(|&s| s > 0.0) {
        std::iter::once(row as u32)
            .chain((0..scores.len() as u32).filter(|&c| c as usize != row))
            .collect()
    } else {
        let rank = |s: f32| if s.is_nan() { f32::NEG_INFINITY } else { s };
        let mut order: Vec<u32> = (0..scores.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (scores[a as usize], scores[b as usize]);
            // NaN sorts last; numbers compare by value, so -0.0 ties 0.0.
            (sa.is_nan().cmp(&sb.is_nan()))
                .then(rank(sb).partial_cmp(&rank(sa)).unwrap_or(Ordering::Equal))
                .then(a.cmp(&b))
        });
        order
    };
    out.truncate(k);
    out.sort_unstable();
    out
}

fn pattern(rows: &[Vec<f32>], k: usize) -> TopkPattern {
    let n = rows[0].len();
    TopkPattern::from_scores(rows.len(), n, k, |i, buf| buf.copy_from_slice(&rows[i]))
}

fn assert_matches_reference(rows: &[Vec<f32>], k: usize) {
    let p = pattern(rows, k);
    for (i, scores) in rows.iter().enumerate() {
        assert_eq!(p.row_cols(i), reference_row(i, scores, k), "row {i}, k {k}: {scores:?}");
    }
}

/// Strategy: an odd or prime width up to ~300 and one of the budgets the
/// selection special-cases or stresses.
fn width_and_k() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![Just(1usize), Just(3), Just(7), Just(31), Just(97), Just(211), Just(293)]
        .prop_flat_map(|n| {
            let ks = [1, 2.min(n), (n / 2).max(1), (n - 1).max(1), n];
            (Just(n), (0usize..ks.len()).prop_map(move |i| ks[i]))
        })
}

/// Strategy: up to 6 rows of small integer scores (heavy ties), with some
/// rows pushed to all non-positive (dead).
fn rows_for(n: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    let row = (prop::collection::vec(-3i32..4, n), 0u8..3).prop_map(|(vals, dead)| {
        vals.iter().map(|&v| if dead == 0 { -(v.abs() as f32) } else { v as f32 }).collect()
    });
    prop::collection::vec(row, 1..=n.min(6))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn selection_matches_the_sort_oracle(
        (rows, k) in width_and_k().prop_flat_map(|(n, k)| (rows_for(n), Just(k)))
    ) {
        assert_matches_reference(&rows, k);
    }
}

#[test]
fn banded_parallel_selection_matches_the_sort_oracle() {
    // 1024 × 1024 clears the parallel threshold, so rows run in rayon bands
    // sharing per-thread scratch.
    let n = 1024;
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| ((i * 31 + j * 17) % 23) as f32 - if i % 5 == 0 { 30.0 } else { 8.0 })
                .collect()
        })
        .collect();
    for k in [1, 32, 513] {
        assert_matches_reference(&rows, k);
    }
}

#[test]
fn nan_scores_rank_below_every_number() {
    let nan = f32::NAN;
    let row = vec![nan, 1.0, nan, 2.0, f32::NEG_INFINITY, nan, 0.5];
    let expect: [&[u32]; 7] = [
        &[3],
        &[1, 3],
        &[1, 3, 6],
        &[1, 3, 4, 6],
        &[0, 1, 3, 4, 6],
        &[0, 1, 2, 3, 4, 6],
        &[0, 1, 2, 3, 4, 5, 6],
    ];
    for (k, cols) in (1..=7).zip(expect) {
        assert_eq!(pattern(std::slice::from_ref(&row), k).row_cols(0), cols, "k = {k}");
    }
    // The result depends on the scores, not on where the NaNs sit relative
    // to the numbers the selection visits first.
    let rotated: Vec<f32> =
        (0..64).map(|j| if j % 3 == 0 { nan } else { (j % 7) as f32 + 1.0 }).collect();
    for shift in [0, 1, 2, 17] {
        let mut r = rotated.clone();
        r.rotate_left(shift);
        assert_matches_reference(&[r], 10);
    }
    // Mostly NaN: the top 4 must reach past the three numbers into a NaN
    // column, even though whole chunks of NaN report no maximum.
    let mut sparse = vec![nan; 64];
    sparse[0] = f32::NEG_INFINITY;
    sparse[7] = f32::NEG_INFINITY;
    sparse[40] = 5.0;
    assert_eq!(pattern(std::slice::from_ref(&sparse), 4).row_cols(0), &[0, 1, 7, 40]);
    // A row whose only positive score is surrounded by NaN stays live; a
    // row with NaN and no positive score is dead and keeps its diagonal.
    let p = pattern(&[vec![nan, nan, 3.0, nan], vec![nan, nan, -1.0, nan]], 2);
    assert_eq!(p.row_cols(0), &[0, 2]);
    assert_eq!(p.row_cols(1), &[0, 1]);
}

#[test]
fn signed_zeros_tie_and_break_toward_the_smaller_column() {
    let row = vec![0.0, 1.0, -0.0, 0.0, -0.0];
    assert_eq!(pattern(std::slice::from_ref(&row), 2).row_cols(0), &[0, 1]);
    assert_eq!(pattern(&[row], 3).row_cols(0), &[0, 1, 2]);
}
