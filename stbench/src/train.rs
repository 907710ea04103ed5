//! `train`: one epoch of the public `fit` over a fixed slice of training
//! windows (batch 16, validation included), then `evaluate_prediction` on
//! fixed test windows — repeated for the run's budget.
//!
//! Tape forward and backward, Adam, the buffer pool and the parallel
//! kernels do nearly all the work; HTTP, shards and batching do none. The
//! model is wrapped in a [`Forecaster`] that times every call `fit` and
//! `evaluate_prediction` make into it, so each call class gets its own
//! latency samples without changing the loop. Each call and each epoch
//! also records the host's CPU steal during it, and the end-to-end
//! metrics come from the calm ones (see [`crate::steal`]).

use crate::layers;
use crate::report::{median, Metric};
use crate::serve_http::{self, Service, Ticks};
use crate::setup::{self, Data};
use crate::steal;
use crate::trace::{self, span};
use crate::{Args, Checks, Setups};
use rihgcn_core::{
    evaluate_prediction, fit, Forecaster, OnlineForecaster, RihgcnModel, TrainConfig,
};
use st_data::{WindowSample, WindowSampler};
use st_nn::ParamStore;
use st_tensor::Matrix;
use std::cell::RefCell;
use std::time::Instant;

/// Training windows per `fit` epoch (one mini-batch of at most 16).
const TRAIN_WINDOWS: usize = 4;
/// Validation windows per epoch.
const VAL_WINDOWS: usize = 2;
/// Test windows scored per cycle: enough forecasts for a p90.
const EVAL_WINDOWS: usize = 8;
/// Length of the traced run's HTTP burst, in seconds.
const BURST_S: f64 = 2.0;

/// One timed unit of work: wall seconds and the share the host stole.
type Unit = (f64, f64);

/// The model plus per-call latency samples.
struct Timed {
    model: RihgcnModel,
    train_s: Vec<Unit>,
    val_s: RefCell<Vec<Unit>>,
    predict_s: RefCell<Vec<Unit>>,
}

impl Forecaster for Timed {
    fn params(&self) -> &ParamStore {
        self.model.params()
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        self.model.params_mut()
    }

    fn accumulate_gradients(&mut self, sample: &WindowSample) -> f64 {
        let mark = steal::mark();
        let loss = span("core.train_window", || {
            self.model.accumulate_gradients(sample)
        });
        self.train_s.push(mark.share());
        loss
    }

    fn loss(&self, sample: &WindowSample) -> f64 {
        let mark = steal::mark();
        let loss = span("core.val_loss", || Forecaster::loss(&self.model, sample));
        self.val_s.borrow_mut().push(mark.share());
        loss
    }

    fn predict(&self, sample: &WindowSample) -> Vec<Matrix> {
        let mark = steal::mark();
        let out = span("core.predict", || self.model.predict(sample));
        self.predict_s.borrow_mut().push(mark.share());
        out
    }
}

/// `count` windows spread evenly over a split.
fn spread(ds: &st_data::TrafficDataset, count: usize) -> Vec<WindowSample> {
    let sampler = WindowSampler::paper_default();
    let stride = sampler.num_windows(ds.num_times()) / count;
    (0..count)
        .map(|i| sampler.window_at(ds, i * stride))
        .collect()
}

struct Prepared {
    data: Data,
    timed: Timed,
    train: Vec<WindowSample>,
    val: Vec<WindowSample>,
    eval: Vec<WindowSample>,
}

fn prepare(seed: u64, layered: bool) -> Prepared {
    let data = setup::data(seed);
    let mut model = setup::model(&data.norm.train, layered);
    let (train, val, eval) = span("data.windows", || {
        (
            spread(&data.norm.train, TRAIN_WINDOWS),
            spread(&data.norm.val, VAL_WINDOWS),
            spread(&data.norm.test, EVAL_WINDOWS),
        )
    });
    // Grow the recycled training tape's pool before timing.
    span("core.warmup_window", || {
        model.accumulate_gradients(&train[0]);
        model.params_mut().zero_grads();
    });
    Prepared {
        data,
        timed: Timed {
            model,
            train_s: Vec::new(),
            val_s: RefCell::new(Vec::new()),
            predict_s: RefCell::new(Vec::new()),
        },
        train,
        val,
        eval,
    }
}

/// Epoch-plus-evaluation cycles until `budget` would be exceeded (at least
/// one). Returns each epoch's `fit` throughput (training windows/s) with
/// its steal share, and the MAE of the first cycle's evaluation.
fn cycles(p: &mut Prepared, budget: f64, checks: &mut Checks) -> (Vec<Unit>, f64) {
    let tc = TrainConfig {
        max_epochs: 1,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let start = Instant::now();
    let mut throughput = Vec::new();
    let mut first_mae = f64::NAN;
    loop {
        let mark = steal::mark();
        let report = span("core.fit", || fit(&mut p.timed, &p.train, &p.val, &tc));
        let (took, stolen) = mark.share();
        let losses_ok = report
            .train_losses
            .iter()
            .chain(&report.val_losses)
            .all(|l| l.is_finite());
        checks.check(losses_ok, || format!("non-finite fit losses: {report:?}"));
        throughput.push((TRAIN_WINDOWS as f64 / took, stolen));
        let scores = span("core.evaluate", || {
            evaluate_prediction(&p.timed, &p.eval, &p.data.z)
        });
        checks.check(scores.mae.is_finite(), || {
            format!("non-finite MAE {scores}")
        });
        if throughput.len() == 1 {
            first_mae = scores.mae;
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / throughput.len() as f64 > budget {
            break;
        }
    }
    (throughput, first_mae)
}

/// The recycled training tape and a fresh inference session must agree
/// bit for bit on a window's loss.
fn oracle_check(model: &mut RihgcnModel, sample: &WindowSample, checks: &mut Checks) {
    let fresh = Forecaster::loss(model, sample);
    let recycled = model.accumulate_gradients(sample);
    model.params_mut().zero_grads();
    checks.check(fresh.to_bits() == recycled.to_bits(), || {
        format!("recycled training loss {recycled} != fresh loss {fresh}")
    });
    checks.check(model.params().is_finite(), || {
        "trained parameters are not finite".into()
    });
}

/// Runs the workload and returns its metrics.
pub fn run(args: &Args, setups: &mut Setups, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let par_before = st_par::stats();
    for _ in 1..setups.repeats() {
        setups.begin();
        drop(prepare(args.seed, false));
        setups.done();
    }
    setups.begin();
    let mut p = span("phase.setup", || prepare(args.seed, args.trace));
    setups.done();

    let (untraced, (throughput, mae)) = if args.trace {
        trace::set_enabled(false);
        let plain = cycles(&mut p, args.seconds / 2.0, checks).0;
        trace::set_enabled(true);
        (
            Some(plain),
            span("phase.run", || cycles(&mut p, args.seconds / 2.0, checks)),
        )
    } else {
        (None, cycles(&mut p, args.seconds, checks))
    };
    let peak_rss = crate::report::peak_rss_mb();
    let par_after = st_par::stats();
    checks.attempted += (p.timed.train_s.len()
        + p.timed.val_s.borrow().len()
        + p.timed.predict_s.borrow().len()) as u64;
    oracle_check(&mut p.timed.model, &p.val[0], checks);

    if !args.trace {
        return Ok(crate::end_to_end(
            setups,
            median(&steal::calm_values("train epochs", &throughput)),
            mae,
            peak_rss,
            &steal::calm_values("train predict calls", &p.timed.predict_s.borrow()),
            &steal::calm_values("train val calls", &p.timed.val_s.borrow()),
            &steal::calm_values("train window calls", &p.timed.train_s),
        ));
    }

    let rate = |units: &[Unit]| median(&units.iter().map(|u| u.0).collect::<Vec<_>>());
    let plain = untraced.expect("traced runs time an untraced half");
    let overhead = 1.0 - rate(&throughput) / rate(&plain);
    let probe = span("phase.probe", || {
        layers::probe(&mut p.timed.model, &p.data, checks)
    })?;
    // No HTTP in this workload: a short burst of serve_http ticks on the
    // probed model gives the serve-layer metrics a value here too.
    let (serve, forecast_p50_ms) = span("phase.probe", || -> Result<_, String> {
        let online = span("core.checkpoint_load", || {
            OnlineForecaster::from_checkpoint(&mut &probe.ckpt[..])
        })
        .map_err(|e| format!("burst checkpoint load: {e}"))?;
        let mut service = Service::start(&p.data, online)?;
        service.fill(checks);
        service.warm_up(checks);
        let before = service.scrape(checks);
        let mut ticks = Ticks::default();
        let (count, _) = service.run(BURST_S, &mut ticks, checks);
        let after = service.scrape(checks);
        service.stop();
        Ok((
            serve_http::serve_layer(&before, &after, count, checks),
            1e3 * median(&ticks.latencies(false).forecast_s),
        ))
    })?;
    Ok(layers::per_layer(
        probe,
        serve,
        forecast_p50_ms,
        overhead,
        crate::report::par_utilization(&par_before, &par_after),
        checks,
    ))
}
