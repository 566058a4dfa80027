//! Order statistics and the run-comparison rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this binary prints match
//! the ones that function gives for the same values.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_TAIL: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// there are no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-quantile, refused (`None`) unless at least
/// [`MIN_TAIL`] samples lie strictly beyond its rank.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    // The epsilon keeps an exact product such as 0.95 * 200 on its rank
    // despite binary rounding of `q`.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    (n - rank >= MIN_TAIL).then(|| v[rank - 1])
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// computes them; `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// True when `a` reads strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Outcome of comparing one metric on one workload across two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classifies `new` against `base` (runs paired by index):
///
/// * improved — the new side wins at least nine tenths of the pairs (ties
///   count for neither) and its median is better by more than the base
///   side's own quartile distance;
/// * unresolved — otherwise, when either side's spread exceeds `bound`,
///   unless every new run reads better than every base run;
/// * regressed — the new median is worse than the base median by more
///   than `bound` (a share of the base median);
/// * unchanged — everything else.
pub fn classify(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(mb), Some(mn)) = (median(base), median(new)) else {
        return Verdict::Unresolved;
    };
    let pairs = base.len().min(new.len());
    let wins = base.iter().zip(new).filter(|&(&b, &n)| better.beats(n, b)).count();
    let (q1, q3) = quartiles(base).unwrap_or((mb, mb));
    let gain = match better {
        Better::Lower => mb - mn,
        Better::Higher => mn - mb,
    };
    if pairs > 0 && wins * 10 >= pairs * 9 && gain > q3 - q1 {
        return Verdict::Improved;
    }
    let noisy = [base, new].iter().any(|side| spread(side).is_none_or(|s| s > bound));
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better.beats(n, b)));
    if noisy && !all_better {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Lower => mn / mb - 1.0,
        Better::Higher => 1.0 - mn / mb,
    };
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 sits at rank 190: exactly ten samples beyond.
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        assert_eq!(percentile(&v[..199], 0.95), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10).map(|i| center + jitter * f64::from(i % 5) - 2.0 * jitter).collect()
    }

    #[test]
    fn classify_separates_the_four_verdicts() {
        let base = runs(100.0, 0.5);
        assert_eq!(classify(&base, &runs(100.2, 0.5), Better::Lower, 0.1), Verdict::Unchanged);
        assert_eq!(classify(&base, &runs(80.0, 0.5), Better::Lower, 0.1), Verdict::Improved);
        assert_eq!(classify(&base, &runs(130.0, 0.5), Better::Lower, 0.1), Verdict::Regressed);
        // Higher-is-better mirrors the direction.
        assert_eq!(classify(&base, &runs(130.0, 0.5), Better::Higher, 0.1), Verdict::Improved);
        assert_eq!(classify(&base, &runs(80.0, 0.5), Better::Higher, 0.1), Verdict::Regressed);
        // A spread wider than the bound leaves a small shift unresolved.
        let wide = runs(100.0, 20.0);
        assert_eq!(classify(&wide, &runs(102.0, 20.0), Better::Lower, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn classify_wide_spread_but_every_run_better_is_not_unresolved() {
        let base: Vec<f64> = (0..10).map(|i| 200.0 + 30.0 * f64::from(i)).collect();
        let new: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        assert_eq!(classify(&base, &new, Better::Lower, 0.05), Verdict::Improved);
        // Every new run better, but by less than the base's own quartile
        // distance: no gain to claim, and no regression hidden by noise.
        let base: Vec<f64> = (0..10).map(|i| 200.0 + 30.0 * f64::from(i)).collect();
        let new: Vec<f64> = (0..10).map(|i| 190.0 + f64::from(i)).collect();
        assert_eq!(classify(&base, &new, Better::Lower, 0.05), Verdict::Unchanged);
        // One new run inside the base range turns the same spread into
        // an unresolved verdict.
        let mut mixed = new.clone();
        mixed[0] = 260.0;
        assert_eq!(classify(&base, &mixed, Better::Lower, 0.05), Verdict::Unresolved);
    }
}
