//! Sample statistics and the closed-loop timing helper.

use std::time::Instant;

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (the "inclusive" method), `q` in `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of the usual tail percentiles that has at least ten
/// samples beyond it, or `None` when `n` supports no tail beyond the
/// median.
pub fn supported_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&p| n as f64 * f64::from(100 - p) / 100.0 >= 10.0)
}

/// The benchmark's one wall clock. Its readings are reported, never fed
/// back into the program's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Self {
        // lint:allow(determinism_taint): the benchmark's single wall clock; readings are only reported
        Stopwatch(Instant::now())
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One timed quantity: the per-call samples plus how to summarise them.
pub struct Timing {
    pub samples: Vec<f64>,
}

impl Timing {
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// `median … (n = …)`, plus the supported tail percentile.
    pub fn describe(&self) -> String {
        let n = self.samples.len();
        let tail = match supported_percentile(n) {
            Some(p) => format!(
                ", p{p} {:.6}",
                quantile(&self.samples, f64::from(p) / 100.0)
            ),
            None => ", no tail percentile at this count".to_owned(),
        };
        format!("median {:.6}{tail} (n = {n})", self.median())
    }
}

/// Two call kinds sharing one closed loop and one time budget. Each
/// step runs the kind whose timed seconds are furthest behind its share,
/// so both kinds sample the whole window and a slow spell of the host
/// falls on both alike. Warm-up calls are the caller's, before the loop.
pub struct SharedLoop {
    budget_s: f64,
    share: [f64; 2],
    min_calls: usize,
    start: Stopwatch,
    samples: [Vec<f64>; 2],
}

impl SharedLoop {
    /// Kind 0 gets `share0` of the time, kind 1 the rest; each is timed at
    /// least `min_calls` times.
    pub fn new(budget_s: f64, share0: f64, min_calls: usize) -> Self {
        SharedLoop {
            budget_s,
            share: [share0, 1.0 - share0],
            min_calls,
            start: Stopwatch::start(),
            samples: [Vec::new(), Vec::new()],
        }
    }

    /// The kind to call next, or `None` when the loop is done.
    pub fn next_kind(&self) -> Option<usize> {
        let done = self.start.secs() >= self.budget_s
            && self.samples.iter().all(|s| s.len() >= self.min_calls);
        if done {
            return None;
        }
        let lag = |k: usize| self.samples[k].iter().sum::<f64>() / self.share[k].max(1e-9);
        Some(if lag(0) <= lag(1) { 0 } else { 1 })
    }

    pub fn record(&mut self, kind: usize, secs: f64) {
        self.samples[kind].push(secs);
    }

    pub fn finish(self) -> [Timing; 2] {
        self.samples.map(|samples| Timing { samples })
    }
}

/// Median seconds per call of `f` over a short closed loop: used by the
/// per-layer probes, whose single calls can be far below a millisecond.
/// Calls are grouped so that each timed sample covers at least ~1 ms.
pub fn probe_secs<T>(budget_s: f64, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let t = Stopwatch::start();
    std::hint::black_box(f());
    let one = t.secs().max(1e-9);
    let group = ((1e-3 / one).ceil() as usize).max(1);
    let start = Stopwatch::start();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.secs() < budget_s {
        let t = Stopwatch::start();
        for _ in 0..group {
            std::hint::black_box(f());
        }
        samples.push(t.secs() / group as f64);
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_beyond() {
        assert_eq!(supported_percentile(39), None);
        assert_eq!(supported_percentile(40), Some(75));
        assert_eq!(supported_percentile(100), Some(90));
        assert_eq!(supported_percentile(1000), Some(99));
    }
}
