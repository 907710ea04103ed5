//! Paper-shape end-to-end benchmark of the RIHGCN workspace.
//!
//! ```text
//! cargo run --release --manifest-path stbench/Cargo.toml -- \
//!     --workload train|serve_http --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation runs one workload in its own process at the paper's
//! shape (N=207, F=64, q=128, M=4, T=12, horizon 12) on a fixed budget of
//! [`THREADS`] worker threads, checks its outputs, and prints one JSON
//! result line last: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (plus a Chrome trace under `stbench/out/`) with
//! `--trace 1`. A failed check makes the run exit non-zero. See
//! `stbench/README.md` for the workloads and the metric map.

mod layers;
mod report;
mod serve_http;
mod setup;
mod steal;
mod trace;
mod train;

use report::{median, quantile, result_json, Metric};
use std::time::Instant;

#[global_allocator]
static ALLOC: st_obs::alloc::CountingAlloc = st_obs::alloc::CountingAlloc;

/// Worker threads for the parallel kernels, fixed so runs on hosts with
/// different core counts measure the same schedule.
const THREADS: usize = 2;
/// Full set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 2;

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds {seconds} must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(what());
            }
        }
    }
}

/// Times repeated full set-ups. The first runs from process start; later
/// ones from their [`Setups::begin`].
pub struct Setups {
    repeats: usize,
    mark: Instant,
    times: Vec<f64>,
}

impl Setups {
    fn repeats(&self) -> usize {
        self.repeats
    }

    fn begin(&mut self) {
        if !self.times.is_empty() {
            self.mark = Instant::now();
        }
    }

    fn done(&mut self) {
        self.times.push(self.mark.elapsed().as_secs_f64());
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order, from a run's
/// throughput, MAE, peak RSS and per-class latency samples (seconds).
pub fn end_to_end(
    setups: &Setups,
    throughput: f64,
    mae: f64,
    peak_rss_mb: Option<f64>,
    forecast_s: &[f64],
    read_s: &[f64],
    observe_s: &[f64],
) -> Vec<Metric> {
    let ms = |xs: &[f64], q: f64| 1e3 * quantile(xs, q);
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric("setup_s", median(&setups.times), "s"),
        metric("throughput_per_s", throughput, "1/s"),
        metric("forecast_mae", mae, "mph"),
        metric("peak_rss_mb", peak_rss_mb.unwrap_or(f64::NAN), "MB"),
        metric("forecast_p50_ms", ms(forecast_s, 0.5), "ms"),
        metric("forecast_p90_ms", ms(forecast_s, 0.9), "ms"),
        metric("read_p50_ms", ms(read_s, 0.5), "ms"),
        metric("observe_p50_ms", ms(observe_s, 0.5), "ms"),
    ]
}

/// Writes the traced run's Chrome trace under `stbench/out/` and validates
/// it with `st_obs::trace::validate_chrome_trace`.
pub fn write_trace(json: &str, checks: &mut Checks) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace.json");
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json));
    checks.check(written.is_ok(), || format!("write {path}: {written:?}"));
    let valid = st_obs::trace::validate_chrome_trace(json);
    checks.check(valid.is_ok(), || format!("chrome trace: {valid:?}"));
    eprintln!("trace written to {path}");
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stbench: {e}");
            std::process::exit(2);
        }
    };
    st_par::set_num_threads(THREADS);
    trace::set_enabled(args.trace);
    let mut setups = Setups {
        repeats: if args.trace { 1 } else { SETUP_REPEATS },
        mark: process_start,
        times: Vec::new(),
    };
    let mut checks = Checks::default();
    let result = match args.workload.as_str() {
        "train" => train::run(&args, &mut setups, &mut checks),
        "serve_http" => serve_http::run(&args, &mut setups, &mut checks),
        other => Err(format!("unknown workload {other:?} (train, serve_http)")),
    };
    let metrics = match result {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("stbench: {e}");
            std::process::exit(1);
        }
    };
    for e in &checks.errors {
        eprintln!("stbench: check failed: {e}");
    }
    let correct = checks.failed == 0;
    match result_json(correct, checks.attempted, checks.failed, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("stbench: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
