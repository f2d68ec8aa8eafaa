//! Estimators: percentiles, medians, and the `e2e.max_rate_mps` rate search.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks (the "type 7" rule numpy and spreadsheets use). Returns
/// `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(quantile_sorted(&v, q))
}

/// [`quantile`] on an already sorted, non-empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Size of the windows [`Latency::windowed`] takes its p99 over: the
/// smallest sample with ten values beyond its 99th percentile.
pub const P99_WINDOW: usize = 1000;

/// p50 and p99 of one latency sample, with its size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Latency {
    /// Samples the percentiles were taken over.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Latency {
    /// Summarizes a sample; all zeros when it is empty.
    pub fn of(values: &[f64]) -> Latency {
        if values.is_empty() {
            return Latency::default();
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Latency {
            count: v.len(),
            p50: quantile_sorted(&v, 0.5),
            p99: quantile_sorted(&v, 0.99),
        }
    }

    /// Summarizes a sample given in send order, robust to host noise:
    /// the p50 and p99 are taken within each window of [`P99_WINDOW`]
    /// consecutive messages, and the lower quartile of each across windows
    /// is reported (a sample shorter than two windows is one window). Host
    /// noise on a shared machine (vCPU steal, wake-up delays) only ever
    /// adds latency and comes in episodes, so it raises some windows; a
    /// change in the gateway's own latency raises all of them.
    pub fn windowed(values: &[f64]) -> Latency {
        let windows = values.len() / P99_WINDOW;
        if windows < 2 {
            return Latency::of(values);
        }
        let per_window: Vec<Latency> = (0..windows)
            .map(|w| {
                let end = if w + 1 == windows {
                    values.len()
                } else {
                    (w + 1) * P99_WINDOW
                };
                Latency::of(&values[w * P99_WINDOW..end])
            })
            .collect();
        let q25 = |f: fn(&Latency) -> f64| {
            let v: Vec<f64> = per_window.iter().map(f).collect();
            quantile(&v, 0.25).unwrap_or(0.0)
        };
        Latency {
            count: values.len(),
            p50: q25(|l| l.p50),
            p99: q25(|l| l.p99),
        }
    }
}

/// Search for the highest offered rate that passes a probe, by bisection
/// in log space inside `[lo, hi]`.
///
/// The first probe is `lo` itself. If `lo` fails, the bracket moves down
/// (`hi = lo`, `lo = lo / 4`) until a rate passes. Once a passing floor is
/// known, each probe halves the bracket's log width, so after `k`
/// bisections the answer is within a factor `(hi / lo)^(1 / 2^k)` of the
/// true threshold. The result is the highest rate that passed (or the
/// bracket floor when none did).
#[derive(Debug, Clone)]
pub struct RateSearch {
    lo: f64,
    hi: f64,
    lo_passed: bool,
    probes_left: usize,
}

impl RateSearch {
    /// A search over `[lo, hi]` with a budget of `probes` probes.
    pub fn new(lo: f64, hi: f64, probes: usize) -> Self {
        assert!(lo > 0.0 && hi > lo, "rate bracket must satisfy 0 < lo < hi");
        RateSearch {
            lo,
            hi,
            lo_passed: false,
            probes_left: probes,
        }
    }

    /// The next rate to probe, or `None` when the budget is spent.
    pub fn next_rate(&self) -> Option<f64> {
        if self.probes_left == 0 {
            None
        } else if !self.lo_passed {
            Some(self.lo)
        } else {
            Some((self.lo * self.hi).sqrt())
        }
    }

    /// Records the outcome of probing `rate` (the value `next_rate` gave).
    pub fn record(&mut self, rate: f64, passed: bool) {
        self.probes_left = self.probes_left.saturating_sub(1);
        if !self.lo_passed {
            if passed {
                self.lo_passed = true;
            } else {
                self.hi = self.lo;
                self.lo /= 4.0;
            }
        } else if passed {
            self.lo = rate;
        } else {
            self.hi = rate;
        }
    }

    /// The highest passing rate found so far.
    pub fn result(&self) -> f64 {
        self.lo
    }

    /// Current ratio between the bracket's ends (the answer's resolution).
    pub fn resolution(&self) -> f64 {
        self.hi / self.lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert!((quantile(&v, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_of_uniform_ramp() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = Latency::of(&v);
        assert_eq!(l.count, 1000);
        assert!((l.p50 - 500.5).abs() < 1e-9);
        assert!((l.p99 - 990.01).abs() < 1e-9);
        assert_eq!(Latency::of(&[]), Latency::default());
    }

    #[test]
    fn windowed_p99_ignores_noisy_windows() {
        let mut v = vec![1.0; 5000];
        for i in (1000..1100).chain(2500..2600) {
            v[i] = 50.0; // stalls inside the second and third windows
        }
        assert!(Latency::of(&v).p99 >= 50.0);
        let w = Latency::windowed(&v);
        assert_eq!(w.p99, 1.0);
        assert_eq!(w.p50, 1.0);
        assert_eq!(w.count, 5000);
        // A noise episode covering half the run does not move the median.
        let mut half = vec![1.0; 4000];
        for x in &mut half[..2000] {
            *x = 3.0;
        }
        assert_eq!(Latency::of(&half).p50, 2.0);
        assert_eq!(Latency::windowed(&half).p50, 1.0);
        // A tail that every window shares is reported.
        let mut t = vec![1.0; 4000];
        for x in t.iter_mut().step_by(50) {
            *x = 9.0;
        }
        assert_eq!(Latency::windowed(&t).p99, 9.0);
        // Short samples fall back to the plain estimator.
        assert_eq!(
            Latency::windowed(&v[..1500]).p99,
            Latency::of(&v[..1500]).p99
        );
    }

    /// Drives the search against a step function passing below `threshold`.
    fn search(threshold: f64, lo: f64, hi: f64, probes: usize) -> RateSearch {
        let mut s = RateSearch::new(lo, hi, probes);
        while let Some(r) = s.next_rate() {
            s.record(r, r <= threshold);
        }
        s
    }

    #[test]
    fn rate_search_converges_below_threshold() {
        let s = search(333.0, 100.0, 1600.0, 8);
        let found = s.result();
        assert!(found <= 333.0, "reported rate {found} must have passed");
        assert!(found > 333.0 / s.resolution(), "{found} too far below");
        assert!(
            s.resolution() < 1.05,
            "7 bisections of 16x: {}",
            s.resolution()
        );
    }

    #[test]
    fn rate_search_moves_down_when_floor_fails() {
        let s = search(30.0, 100.0, 1600.0, 6);
        assert!(
            s.result() <= 30.0 && s.result() >= 25.0 / 1.5,
            "{}",
            s.result()
        );
    }

    #[test]
    fn rate_search_is_monotone_in_threshold() {
        let mut last = 0.0;
        for t in [120.0, 200.0, 400.0, 800.0, 1500.0] {
            let r = search(t, 100.0, 1600.0, 7).result();
            assert!(r >= last, "threshold {t}: {r} < {last}");
            last = r;
        }
    }
}
