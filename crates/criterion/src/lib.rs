//! Vendored offline subset of the `criterion` crate.
//!
//! Supports the API surface this workspace's benches use —
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkId`], `b.iter(..)`,
//! and the `criterion_group!`/`criterion_main!` macros (including the
//! `name/config/targets` form). Each benchmark is warmed up once, then
//! timed sample-by-sample over `sample_size` samples; the **median** wall
//! time per iteration is printed to stdout (robust against one slow
//! outlier sample, unlike a mean over a single aggregate interval). No
//! plotting or baseline storage. [`time_median`] exposes the same
//! warmup-then-median loop as a plain function for tools (the host
//! throughput gate) that need a `Duration` back instead of stdout.

#![forbid(unsafe_code)]

use std::fmt;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Prevent the optimizer from discarding a value (re-export of
/// `std::hint::black_box`).
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Identifies one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// A two-part id: `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id that is just the parameter's rendering.
    pub fn from_parameter(parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> BenchmarkId {
        BenchmarkId { name: name.into() }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> BenchmarkId {
        BenchmarkId { name }
    }
}

/// Batch sizing hint for [`Bencher::iter_batched`]. The shim times one
/// input per iteration regardless, so the variants only mirror the
/// upstream API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration setup output.
    SmallInput,
    /// Large per-iteration setup output.
    LargeInput,
    /// One setup call per sample.
    PerIteration,
}

/// Median of a set of per-sample durations. Empty input yields
/// [`Duration::ZERO`] rather than dividing by a zero sample count.
fn median_of(samples: &mut [Duration]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort_unstable();
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2
    }
}

/// Run `f` once as warm-up, then time it `samples` more times and return
/// the median per-call wall time. `samples == 0` skips timing entirely
/// and returns [`Duration::ZERO`] (no zero division). This is the exact
/// loop [`Bencher::iter`] uses, exposed for tools that need the number
/// back.
pub fn time_median<R, F: FnMut() -> R>(samples: usize, mut f: F) -> Duration {
    time_medians(
        samples,
        &mut [|| {
            std_black_box(f());
        }],
    )[0]
}

/// [`time_median`] for several closures at once, sampled round-robin:
/// one warm-up round, then `samples` rounds that time each closure once.
/// Host-speed drift during the measurement then moves every closure
/// alike, so ratios between the medians hold on a loaded host — the
/// host-throughput gate builds on it.
pub fn time_medians<F: FnMut()>(samples: usize, fs: &mut [F]) -> Vec<Duration> {
    fs.iter_mut().for_each(|f| f()); // warm-up
    let mut timed = vec![Vec::with_capacity(samples); fs.len()];
    for _ in 0..samples {
        for (f, t) in fs.iter_mut().zip(&mut timed) {
            let start = Instant::now();
            f();
            t.push(start.elapsed());
        }
    }
    timed.iter_mut().map(|t| median_of(t)).collect()
}

/// Timing loop handle passed to bench closures.
pub struct Bencher {
    samples: usize,
    /// Median wall time per iteration over all samples.
    median: Duration,
}

impl Bencher {
    /// Time `f`, running it `samples` times after one warm-up call; each
    /// sample is timed individually and the median is reported.
    pub fn iter<R, F: FnMut() -> R>(&mut self, f: F) {
        self.median = time_median(self.samples, f);
    }

    /// Time `routine` over fresh inputs from `setup`; only the routine is
    /// timed. One warm-up pair runs first, matching [`Bencher::iter`].
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        std_black_box(routine(setup())); // warm-up
        let mut timed: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                std_black_box(routine(input));
                start.elapsed()
            })
            .collect();
        self.median = median_of(&mut timed);
    }
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Set how many timed iterations each benchmark runs.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Run one standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Criterion {
        run_one(id, self.sample_size, f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Run one benchmark in the group with an input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Run one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id.into()), self.sample_size, f);
        self
    }

    /// Close the group (reporting is per-benchmark, so this is a no-op).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, samples: usize, mut f: F) {
    let mut b = Bencher {
        samples,
        median: Duration::ZERO,
    };
    f(&mut b);
    println!(
        "bench {label:<56} {:>12.3?}/iter median ({samples} samples)",
        b.median
    );
}

/// Declare a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut n = 0u64;
        Criterion::default()
            .sample_size(3)
            .bench_function("count", |b| b.iter(|| n += 1));
        assert_eq!(n, 4, "1 warm-up + 3 samples");
    }

    #[test]
    fn group_runs_with_input() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        let mut hits = 0;
        g.sample_size(2)
            .bench_with_input(BenchmarkId::from_parameter(7), &7usize, |b, &x| {
                b.iter(|| hits += x)
            });
        g.finish();
        assert_eq!(hits, 7 * 3);
    }

    #[test]
    fn time_median_counts_and_guards_zero_samples() {
        let mut n = 0u64;
        let d = time_median(5, || n += 1);
        assert_eq!(n, 6, "1 warm-up + 5 samples");
        assert!(d >= Duration::ZERO);

        // Zero samples: one warm-up call, no timing, no zero division.
        let mut m = 0u64;
        assert_eq!(time_median(0, || m += 1), Duration::ZERO);
        assert_eq!(m, 1, "warm-up still runs");
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        let mut v = [
            Duration::from_micros(10),
            Duration::from_micros(11),
            Duration::from_secs(100), // outlier
        ];
        assert_eq!(median_of(&mut v), Duration::from_micros(11));
        let mut even = [
            Duration::from_micros(10),
            Duration::from_micros(20),
            Duration::from_micros(30),
            Duration::from_secs(100),
        ];
        assert_eq!(median_of(&mut even), Duration::from_micros(25));
        assert_eq!(median_of(&mut []), Duration::ZERO);
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
