//! Exact statistics over raw samples.
//!
//! Every reported latency is a nearest-rank percentile of the raw
//! samples, never a histogram bucket edge. A percentile is reportable
//! only when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! "p99" always rests on ten real tail observations. Spreads across
//! repeated runs use the same quartile rule as Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method).

use std::fmt;

/// Samples that must lie strictly beyond a percentile's rank before it
/// is printed.
pub const MIN_BEYOND: usize = 10;

/// Statistics were asked of an empty sample set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptySamples;

impl fmt::Display for EmptySamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("statistics of an empty sample set")
    }
}

impl std::error::Error for EmptySamples {}

/// A non-empty set of raw samples, sorted ascending.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaNs last, by `total_cmp`).
    ///
    /// # Errors
    ///
    /// [`EmptySamples`] when `values` is empty.
    pub fn new(mut values: Vec<f64>) -> Result<Self, EmptySamples> {
        if values.is_empty() {
            return Err(EmptySamples);
        }
        values.sort_by(f64::total_cmp);
        Ok(Self { sorted: values })
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// 1-based nearest rank of quantile `q` (`ceil(q·n)`, clamped to
    /// `1..=n`).
    fn rank(&self, q: f64) -> usize {
        let n = self.sorted.len();
        ((q * n as f64).ceil() as usize).clamp(1, n)
    }

    /// The nearest-rank `q`-quantile: the smallest sample with at
    /// least `q·n` samples at or below it.
    pub fn percentile(&self, q: f64) -> f64 {
        self.sorted[self.rank(q) - 1]
    }

    /// [`Samples::percentile`], but only when at least [`MIN_BEYOND`]
    /// samples lie strictly beyond its rank.
    pub fn reportable(&self, q: f64) -> Option<f64> {
        (self.len() - self.rank(q) >= MIN_BEYOND).then(|| self.percentile(q))
    }

    /// The smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// The largest sample.
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// The arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// The share of samples strictly above `limit`.
    pub fn share_above(&self, limit: f64) -> f64 {
        let above = self.sorted.len() - self.sorted.partition_point(|v| *v <= limit);
        above as f64 / self.sorted.len() as f64
    }
}

/// Samples a p99 needs to have ten samples beyond it: the least a
/// window must hold to count, and the least a timed phase measures.
pub const P99_SAMPLES: usize = 1_000;

/// Latency samples summarized per fixed window of completion time.
///
/// On a virtual machine whose cores are shared with other tenants, their
/// load can slow the benchmark by a third or more, for stretches from
/// under a second to minutes. A run's whole-sample percentiles then
/// land wherever the mix of slow and fast stretches happens to put
/// them. Each window is taken within one stretch, and the fastest
/// window — lowest p50, lowest p99, highest rate, each taken
/// separately — is the program's own cost with the least interference,
/// which repeats from run to run unless a slow stretch covers the whole
/// run. The best of more windows reads better, so two runs compare only
/// when they measured for the same time.
///
/// Samples must arrive in completion order. Each window is reduced to
/// its [`Window`] summary as soon as it closes, so memory stays bounded
/// by one window's samples however long the run.
#[derive(Debug, Clone)]
pub struct Windows {
    width_s: f64,
    index: usize,
    samples: Vec<f64>,
    first_s: f64,
    last_s: f64,
    closed: Vec<Window>,
}

/// One window's statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Nearest-rank p50.
    pub p50: f64,
    /// Nearest-rank p99.
    pub p99: f64,
    /// Completions per second between the window's first and last.
    pub rate: f64,
}

/// A phase's windows, summarized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Lowest p50, lowest p99 and highest rate over the windows.
    pub best: Window,
    /// Median p50, p99 and rate over the windows.
    pub median: Window,
    /// Windows that held [`P99_SAMPLES`].
    pub windows: usize,
}

impl Windows {
    /// Empty windows of `width_s` seconds.
    pub fn new(width_s: f64) -> Self {
        Self {
            width_s,
            index: 0,
            samples: Vec::new(),
            first_s: 0.0,
            last_s: 0.0,
            closed: Vec::new(),
        }
    }

    /// Windows of `width_s` over operations that completed `at_s[i]`
    /// seconds into the phase and took `values[i]`.
    pub fn of(width_s: f64, at_s: &[f64], values: &[f64]) -> Self {
        let mut w = Self::new(width_s);
        for (at, v) in at_s.iter().zip(values) {
            w.push(*at, *v);
        }
        w
    }

    /// Records one operation that completed `at_s` seconds into the
    /// phase and took `value`.
    pub fn push(&mut self, at_s: f64, value: f64) {
        let index = (at_s.max(0.0) / self.width_s) as usize;
        if index != self.index {
            self.close();
            self.index = index;
        }
        if self.samples.is_empty() {
            self.first_s = at_s;
        }
        self.last_s = at_s;
        self.samples.push(value);
    }

    fn close(&mut self) {
        let n = self.samples.len();
        let samples = std::mem::take(&mut self.samples);
        let span = self.last_s - self.first_s;
        if n < P99_SAMPLES || span <= 0.0 {
            return;
        }
        if let Ok(s) = Samples::new(samples) {
            self.closed.push(Window {
                p50: s.percentile(0.5),
                p99: s.percentile(0.99),
                rate: (n - 1) as f64 / span,
            });
        }
    }

    /// Closes the last window and summarizes them all.
    ///
    /// # Errors
    ///
    /// [`EmptySamples`] when no window held [`P99_SAMPLES`].
    pub fn finish(mut self) -> Result<Summary, EmptySamples> {
        self.close();
        let w = &self.closed;
        let col = |f: fn(&Window) -> f64| Samples::new(w.iter().map(f).collect());
        let (p50, p99, rate) = (col(|w| w.p50)?, col(|w| w.p99)?, col(|w| w.rate)?);
        Ok(Summary {
            best: Window {
                p50: p50.min(),
                p99: p99.min(),
                rate: rate.max(),
            },
            median: Window {
                p50: p50.percentile(0.5),
                p99: p99.percentile(0.5),
                rate: rate.percentile(0.5),
            },
            windows: w.len(),
        })
    }
}

/// Median and quartiles of one metric across repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Spread {
    /// Quartiles by Python's `statistics.quantiles(values, n=4)`; with
    /// one value every field is that value.
    ///
    /// # Errors
    ///
    /// [`EmptySamples`] when `values` is empty.
    pub fn of(values: &[f64]) -> Result<Self, EmptySamples> {
        let s = Samples::new(values.to_vec())?;
        let d = &s.sorted;
        let cut = |i: usize| -> f64 {
            if d.len() == 1 {
                return d[0];
            }
            // statistics.quantiles, method="exclusive", n=4.
            let (n, m) = (4i64, d.len() as i64 + 1);
            let j = (i as i64 * m / n).clamp(1, d.len() as i64 - 1);
            let delta = (i as i64 * m - j * n) as f64;
            let j = j as usize;
            (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
        };
        Ok(Self {
            median: cut(2),
            q1: cut(1),
            q3: cut(3),
            min: s.min(),
            max: s.max(),
        })
    }

    /// The interquartile range as a share of the median (0 for a zero
    /// median).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector_nearest_rank() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect()).unwrap();
        assert_eq!(s.len(), 100);
        assert_eq!(s.percentile(0.5), 50.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(s.mean(), 50.5);
        assert_eq!(s.share_above(90.0), 0.1);
    }

    #[test]
    fn ties_resolve_to_the_tied_value() {
        let s = Samples::new(vec![3.0, 1.0, 3.0, 3.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.percentile(0.5), 3.0);
        assert_eq!(s.percentile(0.2), 2.0);
        assert_eq!(s.percentile(0.1), 1.0);
        assert_eq!(s.share_above(2.0), 4.0 / 6.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = Samples::new(vec![7.5]).unwrap();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.percentile(q), 7.5);
        }
        assert_eq!(s.reportable(0.5), None, "nothing lies beyond it");
        let spread = Spread::of(&[7.5]).unwrap();
        assert_eq!((spread.median, spread.q1, spread.q3), (7.5, 7.5, 7.5));
        assert_eq!(spread.iqr_share(), 0.0);
    }

    #[test]
    fn empty_input_is_a_typed_error() {
        assert_eq!(Samples::new(Vec::new()).unwrap_err(), EmptySamples);
        assert_eq!(Spread::of(&[]).unwrap_err(), EmptySamples);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        // p99 of 1000 samples has rank 990: exactly ten lie beyond.
        let s = Samples::new((1..=1000).map(f64::from).collect()).unwrap();
        assert_eq!(s.reportable(0.99), Some(990.0));
        // One sample fewer leaves nine beyond rank 990.
        let s = Samples::new((1..=999).map(f64::from).collect()).unwrap();
        assert_eq!(s.reportable(0.99), None);
        assert!(s.reportable(0.98).is_some());
        // A median needs twenty samples.
        let s = Samples::new((1..=19).map(f64::from).collect()).unwrap();
        assert_eq!(s.reportable(0.5), None);
        let s = Samples::new((1..=20).map(f64::from).collect()).unwrap();
        assert_eq!(s.reportable(0.5), Some(10.0));
    }

    #[test]
    fn windows_report_the_fastest_stretch() {
        let mut w = Windows::new(1.0);
        // Window 0: slow, 1000/s; window 1: fast, 2000/s; window 2:
        // too few samples to count.
        for i in 0..1_000 {
            w.push(0.001 * f64::from(i), 20.0 + f64::from(i % 100));
        }
        for i in 0..2_000 {
            w.push(1.0 + 0.0005 * f64::from(i), 10.0 + f64::from(i % 100));
        }
        for i in 0..999 {
            w.push(2.0 + 0.0001 * f64::from(i), 1.0);
        }
        let s = w.finish().unwrap();
        assert_eq!(s.windows, 2);
        assert_eq!((s.best.p50, s.best.p99), (59.0, 108.0));
        assert!((s.best.rate - 1999.0 / 0.9995).abs() < 1e-6);
        assert_eq!(s.median.p50, 59.0, "nearest-rank median of two windows");
        assert!(Windows::new(1.0).finish().is_err());
        let mut w = Windows::of(1.0, &[0.1, 0.2], &[1.0, 2.0]);
        w.push(0.3, 3.0);
        assert_eq!(
            w.finish().unwrap_err(),
            EmptySamples,
            "below the window floor"
        );
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&values).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max), (1.0, 10.0));
        assert!((s.iqr_share() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // Two values: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Spread::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }
}
