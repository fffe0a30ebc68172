//! The measurement loop shared by every workload: repeated set-up,
//! repeated timed runs (interleaved untraced/traced when tracing),
//! exact-repeat checks on work counters and outputs, and the reduction
//! of raw samples to the reported metrics.

use crate::stats::{median, peak_rss_mb};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;
use vmtherm_obs::names;

/// Per-run values keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;
/// Deterministic work counts keyed by counter name.
pub type Counts = BTreeMap<&'static str, u64>;

/// One output check; a failed check counts in `failed`.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether the output passed.
    pub ok: bool,
}

impl Check {
    /// A named check outcome.
    #[must_use]
    pub fn new(name: impl Into<String>, ok: bool) -> Check {
        Check {
            name: name.into(),
            ok,
        }
    }
}

/// What one timed run of a workload produced.
#[derive(Debug, Default)]
pub struct Run {
    /// End-to-end values of this run (`run_s`, `train_s`, ...).
    pub end_to_end: Values,
    /// Per-layer times of this run, measured outside the layers.
    pub layer: Values,
    /// Raw samples for order statistics, by key: pooled over runs, or
    /// reduced position by position (`EXPERIMENT_TICK_US`).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Deterministic work counts; must repeat exactly across runs.
    pub counts: Counts,
    /// FNV-1a fold over the run's outputs; must repeat exactly.
    pub fingerprint: u64,
    /// Output checks made inside the run.
    pub checks: Vec<Check>,
}

/// A benchmark workload.
pub trait Workload {
    /// Inputs built by set-up and shared by every run.
    type Input: Sync;
    /// What the post-run checks need from one run.
    type Output: Send;

    /// Builds the inputs from the seed. Returns end-to-end values
    /// measured during set-up (e.g. `train_s` where training is set-up).
    fn setup(seed: u64) -> (Self::Input, Values);

    /// One timed run; spans go to `tracer` when it is enabled.
    fn run(input: &Self::Input, tracer: &mut Tracer) -> (Run, Self::Output);

    /// Checks made once after the timed runs, on the first run's output;
    /// `traced` says whether this is a traced invocation. May add
    /// per-layer values (e.g. from a serial replay).
    fn finish(
        input: &Self::Input,
        output: &Self::Output,
        traced: bool,
        tracer: &mut Tracer,
    ) -> (Vec<Check>, Values);
}

/// Set-ups timed before each run; `setup_s` is the median of all of them.
pub const SETUPS_PER_RUN: usize = 2;
/// Fewest timed runs of each kind per invocation.
pub const MIN_RUNS: usize = 3;

/// Everything measured in one invocation.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up durations (s).
    pub setup_s: Vec<f64>,
    /// End-to-end values reported by set-up, one map per set-up.
    pub setup_values: Vec<Values>,
    /// Untraced runs.
    pub plain: Vec<Run>,
    /// Traced runs (empty unless tracing).
    pub traced: Vec<Run>,
    /// Post-run checks.
    pub finish_checks: Vec<Check>,
    /// Per-layer values from `finish`.
    pub finish_layer: Values,
    /// Per-layer self time (s) of each span name, median over traced runs.
    pub self_seconds: Values,
    /// Peak resident memory of the process (MiB).
    pub peak_rss_mb: f64,
    /// Spans of the traced runs, rendered as JSON lines.
    pub spans_jsonl: String,
}

/// One discarded warm-up run, then rounds of `SETUPS_PER_RUN` timed
/// set-ups followed by one timed run, until `seconds` have passed and
/// there are `MIN_RUNS` runs of each kind. Spreading the set-ups over the
/// whole measurement keeps a short burst of host noise from deciding
/// `setup_s`. With `trace`, untraced and traced runs alternate so both
/// see the same host conditions; the obs layer is reset and enabled only
/// around traced runs.
pub fn measure<W: Workload>(seed: u64, seconds: f64, trace: bool) -> Measured {
    let mut m = Measured::default();
    let mut tracer = Tracer::new(false);
    let (warm, _) = W::setup(seed);
    drop(run_on_fresh_thread::<W>(&warm, &mut tracer));
    drop(warm);

    let mut input = None;
    let mut first_output = None;
    let started = Instant::now();
    let mut run_id = 0u32;
    loop {
        for _ in 0..SETUPS_PER_RUN {
            let ((built, values), s) = timed(|| W::setup(seed));
            m.setup_s.push(s);
            m.setup_values.push(values);
            input = Some(built);
        }
        let current = input.as_ref().expect("SETUPS_PER_RUN > 0");
        let traced_turn = trace && run_id % 2 == 1;
        tracer.set_run(traced_turn, run_id);
        if traced_turn {
            vmtherm_obs::global().reset();
            vmtherm_obs::set_enabled(true);
        }
        let (mut run, output) = run_on_fresh_thread::<W>(current, &mut tracer);
        vmtherm_obs::set_enabled(false);
        if traced_turn {
            run.counts.extend(obs_counts());
            m.traced.push(run);
        } else {
            m.plain.push(run);
        }
        first_output.get_or_insert(output);
        run_id += 1;
        let enough = m.plain.len() >= MIN_RUNS && (!trace || m.traced.len() >= MIN_RUNS);
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let input = input.expect("at least one set-up");
    let output = first_output.expect("at least one run");
    tracer.set_run(trace, run_id);
    let (checks, extras) = W::finish(&input, &output, trace, &mut tracer);
    m.finish_checks = checks;
    m.finish_layer = extras;

    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in (0..run_id).filter(|r| trace && r % 2 == 1) {
        for (name, s) in tracer.self_seconds(r) {
            per_name.entry(name).or_default().push(s);
        }
    }
    m.self_seconds = per_name
        .into_iter()
        .map(|(name, xs)| (name, median(&xs)))
        .collect();
    m.peak_rss_mb = peak_rss_mb();
    if trace {
        m.spans_jsonl = tracer.to_jsonl();
    }
    m
}

/// Runs `W::run` on a thread of its own. The thermal integrator batches
/// its substep counter in a thread-local backlog that is flushed every
/// 1024 substeps and survives a registry reset; on a fresh thread every
/// run starts from an empty backlog, so the count it reads repeats
/// exactly (the last partial batch of each run goes uncounted).
fn run_on_fresh_thread<W: Workload>(input: &W::Input, tracer: &mut Tracer) -> (Run, W::Output) {
    std::thread::scope(|scope| match scope.spawn(|| W::run(input, tracer)).join() {
        Ok(out) => out,
        Err(panic) => std::panic::resume_unwind(panic),
    })
}

/// Checks that every run of one kind reports the same work counts and
/// output fingerprint as the first.
#[must_use]
pub fn repeat_checks(kind: &str, runs: &[Run]) -> Vec<Check> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    runs.iter()
        .enumerate()
        .skip(1)
        .flat_map(|(i, r)| {
            [
                Check::new(
                    format!("{kind} run {i}: work counts repeat"),
                    r.counts == first.counts,
                ),
                Check::new(
                    format!("{kind} run {i}: output fingerprint repeats"),
                    r.fingerprint == first.fingerprint,
                ),
            ]
        })
        .collect()
}

/// Median of `name` over `runs` (0 when no run reports it) and the
/// number of samples it came from.
#[must_use]
pub fn median_of(runs: &[Run], name: &str, layer: bool) -> (f64, usize) {
    let xs: Vec<f64> = runs
        .iter()
        .filter_map(|r| {
            if layer {
                r.layer.get(name).copied()
            } else {
                r.end_to_end.get(name).copied()
            }
        })
        .collect();
    (median(&xs), xs.len())
}

/// Reads the obs work counters a traced run accumulated.
pub fn obs_counts() -> BTreeMap<&'static str, u64> {
    let registry = vmtherm_obs::global();
    [
        ("svm.smo.iterations", names::METRIC_SMO_ITERATIONS),
        ("svm.kernel.cache_hits", names::METRIC_KERNEL_CACHE_HITS),
        ("svm.kernel.cache_misses", names::METRIC_KERNEL_CACHE_MISSES),
        ("svm.cv.folds", names::METRIC_CV_FOLDS),
        ("sim.thermal.substeps", names::METRIC_THERMAL_SUBSTEPS),
        ("core.calibration.updates", names::METRIC_GAMMA_UPDATES),
        (
            "core.monitor.forecasts_issued",
            names::METRIC_FORECASTS_ISSUED,
        ),
    ]
    .into_iter()
    .map(|(key, metric)| (key, registry.counter(metric).get()))
    .collect()
}

/// Per-layer metrics that are order statistics of pooled raw samples:
/// `<key>.pNN` pools the samples traced runs recorded under `key`.
#[must_use]
pub fn pooled_quantile(metric: &str) -> Option<(&str, f64)> {
    let (key, q) = metric.rsplit_once(".p")?;
    let q: f64 = q.parse().ok()?;
    Some((key, q / 100.0))
}

/// Raw tick latencies (µs) of `fleet-monitor`, pooled over runs.
pub const TICK_US: &str = "tick_us";
/// Host µs per simulated tick of each campaign experiment, in the
/// campaign's order, which every run of an invocation repeats.
pub const EXPERIMENT_TICK_US: &str = "experiment_tick_us";

/// Each position's median over the runs that recorded `key`: every run
/// of a campaign runs the same experiments in the same order, so this is
/// each experiment's typical cost, and a host stall that hit one run's
/// experiment does not become the tail.
#[must_use]
pub fn median_per_position(runs: &[Run], key: &str) -> Vec<f64> {
    let series: Vec<&Vec<f64>> = runs.iter().filter_map(|r| r.samples.get(key)).collect();
    let len = series.iter().map(|xs| xs.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| median(&series.iter().map(|xs| xs[i]).collect::<Vec<f64>>()))
        .collect()
}

/// Every sample recorded under `key` by `runs`.
#[must_use]
pub fn pooled_samples(runs: &[Run], key: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.samples.get(key))
        .flatten()
        .copied()
        .collect()
}

/// FNV-1a fold over 64-bit words: a stable output fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Folds one word.
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds the bits of a float.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// SplitMix64: derives independent sub-seeds from the command-line seed.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_in_one_run_does_not_reach_the_per_position_median() {
        let run = |xs: [f64; 3]| Run {
            samples: BTreeMap::from([(EXPERIMENT_TICK_US, xs.to_vec())]),
            ..Run::default()
        };
        let runs = [
            run([1.0, 10.0, 3.0]),
            run([2.0, 2.0, 30.0]),
            run([3.0, 4.0, 5.0]),
        ];
        assert_eq!(
            median_per_position(&runs, EXPERIMENT_TICK_US),
            vec![2.0, 4.0, 5.0]
        );
        assert!(median_per_position(&runs, TICK_US).is_empty());
    }
}
