//! `vmtherm-perfbench`: one command that runs a vmtherm workload through
//! the public APIs of `vmtherm-sim`, `vmtherm-svm` and `vmtherm-core`,
//! checks its outputs, and prints every metric by name with its unit.
//!
//! ```text
//! vmtherm-perfbench --workload <paper-grid|bulk-train|fleet-monitor>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! vmtherm-perfbench --manifest        # prints the metric catalogue as BENCHMARK.json
//! vmtherm-perfbench --reference-rows  # prints paper-grid's reference table
//! ```
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics,
//! measured with `vmtherm_obs` disabled. With `--trace 1` untraced and
//! traced runs alternate and the last line reports the per-layer
//! metrics, timed by spans the benchmark records around its own calls
//! into each layer, plus the work counts of `vmtherm_obs::global()`.

mod bulk_train;
mod catalogue;
mod fleet_monitor;
mod harness;
mod paper_grid;
mod reference;
mod scenario;
mod stats;
mod trace;

use harness::{
    measure, median_of, median_per_position, pooled_quantile, pooled_samples, repeat_checks, Check,
    Measured, Run, Values, EXPERIMENT_TICK_US, TICK_US,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Command-line options.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--manifest" {
            return Ok(None);
        }
        if flag == "--reference-rows" {
            paper_grid::print_reference_rows();
            std::process::exit(0);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", catalogue::manifest());
            return;
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let measured = match args.workload.as_str() {
        "paper-grid" => measure::<paper_grid::PaperGrid>(args.seed, args.seconds, args.trace),
        "bulk-train" => measure::<bulk_train::BulkTrain>(args.seed, args.seconds, args.trace),
        "fleet-monitor" => {
            measure::<fleet_monitor::FleetMonitorWorkload>(args.seed, args.seconds, args.trace)
        }
        other => {
            eprintln!("error: unknown workload {other} (paper-grid, bulk-train, fleet-monitor)");
            std::process::exit(2);
        }
    };
    report(&args, &measured);
}

fn report(args: &Args, m: &Measured) {
    let mut checks: Vec<Check> = Vec::new();
    checks.extend(
        m.plain
            .iter()
            .chain(&m.traced)
            .flat_map(|r| r.checks.iter().cloned()),
    );
    checks.extend(repeat_checks("untraced", &m.plain));
    checks.extend(repeat_checks("traced", &m.traced));
    checks.extend(m.finish_checks.iter().cloned());
    if let (Some(p), Some(t)) = (m.plain.first(), m.traced.first()) {
        checks.push(Check::new(
            "traced and untraced runs give the same outputs",
            p.fingerprint == t.fingerprint,
        ));
    }
    let failed = checks.iter().filter(|c| !c.ok).count();
    for c in &checks {
        if !c.ok {
            println!("FAILED check: {}", c.name);
        }
    }

    let mut metrics: Vec<(&'static str, f64, &'static str, usize)> = Vec::new();
    if args.trace {
        let layer = layer_values(m);
        for spec in catalogue::PER_LAYER {
            let (value, n) = layer.get(spec.name).copied().unwrap_or((0.0, 0));
            metrics.push((spec.name, value, spec.unit, n));
        }
    } else {
        for spec in catalogue::END_TO_END {
            let (value, n) = end_to_end_value(m, spec.name);
            metrics.push((spec.name, value, spec.unit, n));
        }
    }

    println!(
        "workload {} seed {} trace {}: {} untraced + {} traced runs, {} set-ups",
        args.workload,
        args.seed,
        u8::from(args.trace),
        m.plain.len(),
        m.traced.len(),
        m.setup_s.len()
    );
    for (name, value, unit, n) in &metrics {
        println!("  {name:<34} {value:>16.6} {unit:<8} (samples: {n})");
    }
    println!(
        "  {:<34} {:>16.6} ratio    ({failed} of {} checks failed)",
        "failed_ratio",
        failed as f64 / checks.len().max(1) as f64,
        checks.len()
    );
    for (name, s) in &m.self_seconds {
        println!("  self time {name:<24} {s:>12.6} s");
    }
    let detail = detail_json(args, m, &checks);
    println!("{detail}");
    write_outputs(args, m, &detail);

    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0,
        checks.len()
    );
    for (i, (name, value, unit, _)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    line.push_str("}}");
    println!("{line}");
}

/// End-to-end value: tick percentiles as order statistics (see
/// [`tick_quantile`]), else the median over untraced runs, else over
/// set-ups.
fn end_to_end_value(m: &Measured, name: &str) -> (f64, usize) {
    match name {
        "setup_s" => (stats::median(&m.setup_s), m.setup_s.len()),
        "peak_rss_mb" => (m.peak_rss_mb, 1),
        "tick_p50_us" => tick_quantile(m, 0.50),
        "tick_p99_us" => tick_quantile(m, 0.99),
        _ => {
            let (v, n) = median_of(&m.plain, name, false);
            if n > 0 {
                return (v, n);
            }
            let xs: Vec<f64> = m
                .setup_values
                .iter()
                .filter_map(|v| v.get(name).copied())
                .collect();
            (stats::median(&xs), xs.len())
        }
    }
}

/// Tick latency quantile: over the raw ticks of every untraced run where
/// the workload ticks (`fleet-monitor`), else over each campaign
/// experiment's median host µs per simulated tick.
fn tick_quantile(m: &Measured, q: f64) -> (f64, usize) {
    let ticks = pooled_samples(&m.plain, TICK_US);
    let xs = if ticks.is_empty() {
        median_per_position(&m.plain, EXPERIMENT_TICK_US)
    } else {
        ticks
    };
    (stats::quantile(&xs, q), xs.len())
}

/// Per-layer values: medians of traced-run times, counts of the first
/// traced run, post-run extras, self times and the tracing overhead.
fn layer_values(m: &Measured) -> BTreeMap<&'static str, (f64, usize)> {
    let mut out = BTreeMap::new();
    let names: Vec<&'static str> = m
        .traced
        .iter()
        .flat_map(|r| r.layer.keys().copied())
        .collect();
    for name in names {
        out.insert(name, median_of(&m.traced, name, true));
    }
    for spec in catalogue::PER_LAYER {
        if let Some((key, q)) = pooled_quantile(spec.name) {
            let xs = pooled_samples(&m.traced, key);
            if !xs.is_empty() {
                out.insert(spec.name, (stats::quantile(&xs, q), xs.len()));
            }
        }
    }
    if let Some(first) = m.traced.first() {
        for (name, count) in &first.counts {
            out.insert(*name, (*count as f64, 1));
        }
        let hits = first
            .counts
            .get("svm.kernel.cache_hits")
            .copied()
            .unwrap_or(0);
        let misses = first
            .counts
            .get("svm.kernel.cache_misses")
            .copied()
            .unwrap_or(0);
        out.insert("svm.kernel.hit_ratio", (ratio(hits, hits + misses), 1));
        let scored = first
            .counts
            .get("core.monitor.forecasts_scored")
            .copied()
            .unwrap_or(0);
        let issued = first
            .counts
            .get("core.monitor.forecasts_issued")
            .copied()
            .unwrap_or(0);
        out.insert("core.monitor.scored_ratio", (ratio(scored, issued), 1));
    }
    for (name, v) in &m.finish_layer {
        out.insert(*name, (*v, 1));
    }
    for (name, s) in &m.self_seconds {
        if let Some(key) = catalogue::self_time_metric(name) {
            out.insert(key, (*s, m.traced.len()));
        }
    }
    let (plain, np) = median_of(&m.plain, "run_s", false);
    let (traced, nt) = median_of(&m.traced, "run_s", false);
    if np > 0 && nt > 0 {
        out.insert(
            "obs.overhead_pct",
            ((traced / plain - 1.0) * 100.0, np.min(nt)),
        );
    }
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT")
    )
}

fn values_json(values: &Values) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn runs_json(runs: &[Run]) -> String {
    let body: Vec<String> = runs
        .iter()
        .map(|r| {
            let counts: Vec<String> =
                r.counts.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!(
                "{{\"end_to_end\": {}, \"layer\": {}, \"counts\": {{{}}}, \"fingerprint\": \"{:016x}\"}}",
                values_json(&r.end_to_end),
                values_json(&r.layer),
                counts.join(", "),
                r.fingerprint
            )
        })
        .collect();
    format!("[{}]", body.join(", "))
}

/// The full record of one invocation: host, raw samples, checks.
fn detail_json(args: &Args, m: &Measured, checks: &[Check]) -> String {
    let setup: Vec<String> = m.setup_s.iter().map(|s| num(*s)).collect();
    let check_list: Vec<String> = checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": \"{}\", \"ok\": {}}}",
                c.name.replace('"', "'"),
                c.ok
            )
        })
        .collect();
    format!(
        "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": {}, \"setup_s\": [{}], \"untraced_runs\": {}, \"traced_runs\": {}, \"self_seconds\": {}, \"checks\": [{}]}}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host_json(),
        setup.join(", "),
        runs_json(&m.plain),
        runs_json(&m.traced),
        values_json(&m.self_seconds),
        check_list.join(", ")
    )
}

/// Writes the detail record and, for traced invocations, the spans
/// under `perfbench/out/`. A write failure is reported, not fatal.
fn write_outputs(args: &Args, m: &Measured, detail: &str) {
    let dir = std::path::Path::new("perfbench").join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let result = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), format!("{detail}\n")))
        .and_then(|()| {
            if args.trace {
                std::fs::write(dir.join(format!("{stem}.spans.jsonl")), &m.spans_jsonl)
            } else {
                Ok(())
            }
        });
    if let Err(e) = result {
        eprintln!("warning: could not write {}: {e}", dir.display());
    }
}
