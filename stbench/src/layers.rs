//! The traced run's layer probe and per-layer metric assembly.
//!
//! After a traced workload, [`probe`] calls each layer's public functions
//! directly at the paper's shapes — the LSTM-gate and graph-convolution
//! GEMMs, a checkpoint round trip, B=1 online forecasts, recycled forwards,
//! training windows and Adam steps, and the `wire` codecs — so every
//! per-layer metric exists on every workload. [`per_layer`] then folds the
//! recorded spans and counters into the metric list.

use crate::report::{median, Metric};
use crate::setup::{self, Data};
use crate::trace::{self, span, timed};
use crate::Checks;
use rihgcn_core::{save_checkpoint, Forecaster, OnlineForecaster, RihgcnModel};
use st_data::WindowSampler;
use st_nn::Adam;
use st_obs::alloc::CountingAlloc;
use st_serve::{format_observation, format_steps, parse_observation};
use st_tensor::{rng, uniform_matrix, Matrix};

/// Calls per probed operation; the median is reported.
const REPS: usize = 3;
/// Calls per GEMM shape.
const GEMM_REPS: usize = 10;
/// Calls per `wire` codec.
const WIRE_REPS: usize = 10;

/// What the probe measured beyond its spans.
pub struct Probe {
    /// Checkpoint of the probed model (train's HTTP burst serves it).
    pub ckpt: Vec<u8>,
    metrics: Vec<Metric>,
}

/// GFLOP/s of `REPS` calls of `f`, which performs `flops` per call.
fn gflops(name: &'static str, flops: f64, mut f: impl FnMut() -> Matrix) -> f64 {
    let mut total = 0.0;
    for _ in 0..GEMM_REPS {
        let (out, took) = timed(name, &mut f);
        std::hint::black_box(out);
        total += took.as_secs_f64();
    }
    flops * GEMM_REPS as f64 / total / 1e9
}

fn kernels() -> Vec<Metric> {
    let n = setup::NODES;
    let mut r = rng(11);
    let mut gate = [0.0; 3];
    let mut gate_flops = 0.0;
    let mut gate_bytes = 0.0;
    // LSTM gates feed 4·q = 512 gate columns from x·Wx (k = 132: HGCN
    // output plus the 4 input features) and h·Wh (k = q = 128).
    for k in [132, 128] {
        let x = uniform_matrix(&mut r, n, k, -1.0, 1.0);
        let w = uniform_matrix(&mut r, k, 512, -1.0, 1.0);
        let g = uniform_matrix(&mut r, n, 512, -1.0, 1.0);
        let flops = 2.0 * (n * k * 512) as f64;
        gate[0] += gflops("tensor.gate_gemm", flops, || x.matmul(&w)) / 2.0;
        gate[1] += gflops("tensor.gate_gemm_tn", flops, || x.matmul_tn(&g)) / 2.0;
        gate[2] += gflops("tensor.gate_gemm_nt", flops, || g.matmul_nt(&w)) / 2.0;
        gate_flops += flops / 2.0;
        gate_bytes += 8.0 * (n * k + k * 512 + n * 512) as f64 / 2.0;
    }
    let support = uniform_matrix(&mut r, n, n, 0.0, 1.0);
    let x = uniform_matrix(&mut r, n, 4, -1.0, 1.0);
    let graph_flops = 2.0 * (n * n * 4) as f64;
    let graph = gflops("tensor.graph_gemm", graph_flops, || support.matmul(&x));
    let graph_bytes = 8.0 * (n * n + n * 4 + n * 4) as f64;
    vec![
        metric("tensor.gate_gemm_gflops", gate[0], "GFLOP/s"),
        metric("tensor.gate_gemm_tn_gflops", gate[1], "GFLOP/s"),
        metric("tensor.gate_gemm_nt_gflops", gate[2], "GFLOP/s"),
        metric("tensor.graph_gemm_gflops", graph, "GFLOP/s"),
        metric("tensor.gate_gemm_mflop", gate_flops / 1e6, "MFLOP"),
        metric("tensor.gate_gemm_mb", gate_bytes / 1e6, "MB"),
        metric("tensor.graph_gemm_mflop", graph_flops / 1e6, "MFLOP"),
        metric("tensor.graph_gemm_mb", graph_bytes / 1e6, "MB"),
    ]
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Calls each layer's public functions on `model` (see the module docs).
/// Leaves the model with updated parameters.
pub fn probe(model: &mut RihgcnModel, data: &Data, checks: &mut Checks) -> Result<Probe, String> {
    let mut metrics = kernels();

    let mut ckpt = Vec::new();
    span("core.checkpoint_save", || {
        save_checkpoint(model, &data.z, &mut ckpt)
    })
    .map_err(|e| format!("probe checkpoint save: {e}"))?;
    let mut online = span("core.checkpoint_load", || {
        OnlineForecaster::from_checkpoint(&mut &ckpt[..])
    })
    .map_err(|e| format!("probe checkpoint load: {e}"))?;
    span("core.online_push", || {
        for t in 0..online.history() {
            let (values, mask, slot) = data.observation(t);
            online.push(values, mask, slot);
        }
    });
    let snapshot = online.snapshot().ok_or("probe window not full")?;
    let mut forecast = Vec::new();
    for _ in 0..=REPS {
        // The first call grows the tape pool; `per_layer` drops it.
        forecast = span("core.forecast_batch1", || {
            online.forecast_batch(std::slice::from_ref(&snapshot))
        })
        .pop()
        .unwrap_or_default();
    }
    checks.check(forecast.iter().all(Matrix::is_finite), || {
        "probe forecast is not finite".into()
    });

    let sampler = WindowSampler::paper_default();
    let stride = sampler.num_windows(data.norm.train.num_times()) / (REPS + 1);
    let windows: Vec<_> = (0..=REPS)
        .map(|i| sampler.window_at(&data.norm.train, i * stride))
        .collect();
    for w in &windows {
        span("core.forward", || model.forward_recycled(w));
    }
    // One window warms the training pool; the counted ones follow.
    span("core.train_window", || {
        model.accumulate_gradients(&windows[0])
    });
    let pool_before = model.training_pool_stats().unwrap_or_default();
    let allocs_before = CountingAlloc::allocations();
    let par_before = st_par::stats();
    let mut losses = Vec::new();
    for w in &windows[1..] {
        losses.push(span("core.train_window", || model.accumulate_gradients(w)));
    }
    let pool_after = model.training_pool_stats().unwrap_or_default();
    let allocs = (CountingAlloc::allocations() - allocs_before) as f64 / REPS as f64;
    let regions = (st_par::stats().par_regions - par_before.par_regions) as f64 / REPS as f64;
    checks.check(losses.iter().all(|l| l.is_finite()), || {
        format!("probe training losses {losses:?}")
    });
    let hits = (pool_after.hits - pool_before.hits) as f64;
    let misses = (pool_after.misses - pool_before.misses) as f64;
    let free_mb = model.training_pool_free_bytes().unwrap_or(0) as f64 / 1e6;

    let mut adam = Adam::new(model.params(), 1e-3);
    for _ in 0..REPS {
        span("nn.adam_step", || adam.step(model.params_mut()));
    }
    model.params_mut().zero_grads();
    checks.check(model.params().is_finite(), || "probe Adam left NaNs".into());

    let body = {
        let (values, mask, slot) = data.observation(0);
        format_observation(slot, &values, &mask)
    };
    for _ in 0..WIRE_REPS {
        std::hint::black_box(span("serve.format_steps", || format_steps(1, &forecast)));
        let parsed = span("serve.parse_observation", || {
            parse_observation(&body, setup::NODES, 4)
        });
        checks.check(parsed.is_ok(), || format!("parse_observation: {parsed:?}"));
    }

    metrics.extend([
        metric("autodiff.pool_hit_rate", hits / (hits + misses), "ratio"),
        metric("autodiff.allocs_per_window", allocs, "count"),
        metric("autodiff.pool_free_mb", free_mb, "MB"),
        metric("par.regions_per_window", regions, "count"),
    ]);
    Ok(Probe { ckpt, metrics })
}

/// Median of the spans called `name`, in milliseconds, skipping the first
/// `skip` (warm-up) calls.
fn span_ms(spans: &[trace::Span], name: &str, skip: usize) -> f64 {
    let all = trace::durations(spans, name);
    1e3 * median(&all[skip.min(all.len().saturating_sub(1))..])
}

/// Total seconds of the spans called `name` (a setup step that may run
/// once per interval).
fn span_s(spans: &[trace::Span], name: &str) -> f64 {
    trace::durations(spans, name).iter().sum()
}

/// Assembles every per-layer metric, gates span coverage of each traced
/// phase at 95%, and writes the Chrome trace.
pub fn per_layer(
    probe: Probe,
    serve: Vec<Metric>,
    forecast_p50_ms: f64,
    trace_overhead: f64,
    par_utilization: f64,
    checks: &mut Checks,
) -> Vec<Metric> {
    let spans = trace::spans();
    let train_window = span_ms(&spans, "core.train_window", 1);
    let forward = span_ms(&spans, "core.forward", 0);
    let batch1 = span_ms(&spans, "core.forecast_batch1", 1);
    let coverage = trace::phase_coverage(&spans);
    for &(phase, share) in &coverage {
        checks.check(share >= 0.95, || {
            format!("layer spans cover {:.1}% of {phase}", 100.0 * share)
        });
    }
    let min_coverage = coverage.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
    crate::write_trace(&trace::chrome_json(&spans), checks);

    let mut out = vec![
        metric("data.generate_s", span_s(&spans, "data.generate"), "s"),
        metric("data.prepare_s", span_s(&spans, "data.prepare"), "s"),
        metric("graph.profiles_s", span_s(&spans, "graph.profiles"), "s"),
        metric("graph.partition_s", span_s(&spans, "graph.partition"), "s"),
        metric(
            "graph.temporal_adjacency_s",
            span_s(&spans, "graph.temporal_adjacency"),
            "s",
        ),
        metric("core.build_s", span_s(&spans, "core.build"), "s"),
        metric("core.from_parts_s", span_s(&spans, "core.from_parts"), "s"),
        metric(
            "core.checkpoint_save_s",
            1e-3 * span_ms(&spans, "core.checkpoint_save", 0),
            "s",
        ),
        metric(
            "core.checkpoint_load_s",
            1e-3 * span_ms(&spans, "core.checkpoint_load", 0),
            "s",
        ),
        metric("core.train_window_ms", train_window, "ms"),
        metric("core.backward_ms", train_window - forward, "ms"),
        metric("core.forward_ms", forward, "ms"),
        metric("core.forecast_batch1_ms", batch1, "ms"),
        metric("nn.adam_step_ms", span_ms(&spans, "nn.adam_step", 0), "ms"),
        metric("par.utilization", par_utilization, "ratio"),
        metric("serve.http_overhead_ms", forecast_p50_ms - batch1, "ms"),
        metric(
            "serve.format_steps_ms",
            span_ms(&spans, "serve.format_steps", 0),
            "ms",
        ),
        metric(
            "serve.parse_observation_ms",
            span_ms(&spans, "serve.parse_observation", 0),
            "ms",
        ),
        metric("obs.trace_overhead_frac", trace_overhead, "ratio"),
        metric("obs.span_coverage", min_coverage, "ratio"),
    ];
    out.extend(probe.metrics);
    out.extend(serve);
    out
}
