//! `serve_http`: one network's sensor feed against the HTTP service.
//!
//! Closed loop over one keep-alive connection: each tick posts the next
//! held-out slot, then reads the forecast once at the new window version
//! (a cache miss, one B=1 tape run) and four more times at the same
//! version (coalescing-cache hits: HTTP and `wire` work only). Forecast
//! latency is bound by the forward pass; read and observe latency by HTTP
//! and `wire`. The shard never sees two distinct versions at once, so
//! batching is bypassed. The end-to-end metrics come from the ticks the
//! host did not steal CPU from (see [`crate::steal`]).

use crate::layers;
use crate::report::{median, scrape, scrape_labelled_sum, Metric};
use crate::setup::{self, Data};
use crate::steal;
use crate::trace::{span, timed};
use crate::{Args, Checks, Setups};
use rihgcn_core::{save_checkpoint, OnlineForecaster, RihgcnModel};
use st_serve::{format_observation, parse_steps, HttpClient, ServeConfig, Server};
use st_tensor::Matrix;
use std::time::{Duration, Instant};

/// Cache-hit reads after each miss.
const HITS_PER_TICK: usize = 4;
/// `forecast_mae` scores the first this-many forecasts, a fixed set per
/// seed however many ticks the run fits.
const MAE_TICKS: usize = 50;

/// A running single-tenant server plus the one client connection feeding
/// it from the held-out test split.
pub struct Service<'a> {
    data: &'a Data,
    server: Server,
    client: HttpClient,
    /// Next test-split timestamp to post.
    next_t: usize,
    history: usize,
    horizon: usize,
}

/// One tick's latency samples (seconds), its wall time and the share of
/// it the host stole.
#[derive(Default)]
struct Tick {
    wall_s: f64,
    steal: f64,
    observe_s: Option<f64>,
    forecast_s: Option<f64>,
    read_s: Vec<f64>,
}

/// The per-class latency samples (seconds) and tick rate of a set of
/// ticks.
pub struct Latencies {
    pub observe_s: Vec<f64>,
    pub forecast_s: Vec<f64>,
    pub read_s: Vec<f64>,
    pub ticks_per_s: f64,
}

/// The ticks and outputs of a run.
#[derive(Default)]
pub struct Ticks {
    ticks: Vec<Tick>,
    /// Cache-miss forecasts answered so far.
    forecasts: usize,
    /// `(last posted test timestamp, forecast)` of the first and last tick.
    pub first: Option<(usize, Vec<Matrix>)>,
    pub last: Option<(usize, Vec<Matrix>)>,
    abs_err: f64,
    scored: f64,
}

impl Ticks {
    /// Masked MAE of the scored forecasts in original units (mph).
    pub fn mae(&self) -> f64 {
        self.abs_err / self.scored
    }

    /// Cache-miss forecasts answered so far.
    pub fn forecasts(&self) -> usize {
        self.forecasts
    }

    /// Samples and tick rate of every tick, or of the calm ones only.
    pub fn latencies(&self, calm_only: bool) -> Latencies {
        let shares: Vec<f64> = self.ticks.iter().map(|t| t.steal).collect();
        let calm = if calm_only {
            let calm = steal::calm(&shares);
            steal::log("serve_http ticks", &calm, &shares);
            calm
        } else {
            vec![true; shares.len()]
        };
        let kept: Vec<&Tick> = self
            .ticks
            .iter()
            .zip(&calm)
            .filter_map(|(t, &c)| c.then_some(t))
            .collect();
        Latencies {
            observe_s: kept.iter().filter_map(|t| t.observe_s).collect(),
            forecast_s: kept.iter().filter_map(|t| t.forecast_s).collect(),
            read_s: kept.iter().flat_map(|t| t.read_s.iter().copied()).collect(),
            ticks_per_s: kept.len() as f64 / kept.iter().map(|t| t.wall_s).sum::<f64>(),
        }
    }
}

/// Counter deltas scraped from `/metrics` around a run of ticks.
pub struct Scrape {
    text: String,
}

impl Scrape {
    fn get(&self, series: &str) -> f64 {
        scrape(&self.text, series).unwrap_or(f64::NAN)
    }
}

impl<'a> Service<'a> {
    /// Starts the server on `online` (one shard, one HTTP worker, shipped
    /// batching defaults) and connects the client.
    pub fn start(data: &'a Data, online: OnlineForecaster) -> Result<Self, String> {
        let history = online.history();
        let horizon = online.horizon();
        let server = span("serve.start", || {
            Server::start(
                online,
                ServeConfig {
                    workers: 1,
                    shards: 1,
                    ..ServeConfig::default()
                },
            )
        })
        .map_err(|e| format!("server start: {e}"))?;
        let client = HttpClient::connect(&server.local_addr().to_string(), Duration::from_secs(60))
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Self {
            data,
            server,
            client,
            next_t: 0,
            history,
            horizon,
        })
    }

    /// Ticks left before the forecast horizon runs past the test split.
    fn ticks_left(&self) -> usize {
        (self.data.raw_test.num_times() + 1).saturating_sub(self.next_t + self.horizon + 1)
    }

    /// Posts the next held-out slot: sensor values where observed, zeros
    /// elsewhere, and the observation mask.
    fn observe(&mut self, checks: &mut Checks) -> Option<f64> {
        let t = self.next_t;
        self.next_t += 1;
        let body = span("serve.format_observation", || {
            let (values, mask, slot) = self.data.observation(t);
            format_observation(slot, &values, &mask)
        });
        let (resp, took) = timed("serve.observe_request", || {
            self.client.request("POST", "/observe", &body)
        });
        let ok = matches!(&resp, Ok(r) if r.status == 200);
        checks.check(ok, || {
            format!("POST /observe t={t}: {:?}", resp.map(|r| r.status))
        });
        ok.then_some(took.as_secs_f64())
    }

    /// `GET /forecast`, returning the body and its latency.
    fn forecast(&mut self, name: &'static str, checks: &mut Checks) -> Option<(String, f64)> {
        let (resp, took) = timed(name, || self.client.request("GET", "/forecast", ""));
        match resp {
            Ok(r) if r.status == 200 => {
                checks.check(true, String::new);
                Some((r.body, took.as_secs_f64()))
            }
            other => {
                checks.check(false, || {
                    format!("GET /forecast: {:?}", other.map(|r| r.status))
                });
                None
            }
        }
    }

    /// Posts the first `history` slots so the window is full.
    pub fn fill(&mut self, checks: &mut Checks) {
        span("serve.fill_window", || {
            for _ in 0..self.history {
                self.observe(checks);
            }
        });
    }

    /// One warm-up forecast so the engine's tape pool exists before timing.
    pub fn warm_up(&mut self, checks: &mut Checks) {
        self.forecast("serve.warmup_forecast", checks);
    }

    /// One tick: observe, one miss, [`HITS_PER_TICK`] hits. Checks status,
    /// version, shape and finiteness, and that hits repeat the miss body.
    fn tick(&mut self, tick: &mut Tick, ticks: &mut Ticks, checks: &mut Checks) {
        tick.observe_s = self.observe(checks);
        let t = self.next_t - 1;
        let Some((body, s)) = self.forecast("serve.forecast_request", checks) else {
            return;
        };
        tick.forecast_s = Some(s);
        ticks.forecasts += 1;
        let parsed = span("serve.parse_steps", || parse_steps(&body));
        let expected_version = self.next_t as u64;
        let steps = match parsed {
            Ok((version, steps))
                if version == expected_version
                    && steps.len() == self.horizon
                    && steps
                        .iter()
                        .all(|m| m.shape() == (setup::NODES, 4) && m.is_finite()) =>
            {
                checks.check(true, String::new);
                steps
            }
            other => {
                checks.check(false, || {
                    format!(
                        "forecast at t={t}: want version {expected_version}, got {:?}",
                        other.map(|(v, s)| (v, s.len()))
                    )
                });
                return;
            }
        };
        for _ in 0..HITS_PER_TICK {
            if let Some((hit, s)) = self.forecast("serve.read_request", checks) {
                checks.check(hit == body, || {
                    format!("cache hit at t={t} differs from miss")
                });
                tick.read_s.push(s);
            }
        }
        if ticks.forecasts <= MAE_TICKS {
            let test = &self.data.raw_test;
            for (h, pred) in steps.iter().enumerate() {
                let tt = t + 1 + h;
                for n in 0..setup::NODES {
                    for f in 0..pred.cols() {
                        let m = test.mask[(n, f, tt)];
                        ticks.abs_err += m * (pred[(n, f)] - test.values[(n, f, tt)]).abs();
                        ticks.scored += m;
                    }
                }
            }
        }
        if ticks.first.is_none() {
            ticks.first = Some((t, steps));
        } else {
            ticks.last = Some((t, steps));
        }
    }

    /// Ticks until `budget` would be exceeded (at least one tick).
    pub fn run(&mut self, budget: f64, ticks: &mut Ticks, checks: &mut Checks) -> (usize, f64) {
        let start = Instant::now();
        let mut count = 0;
        while self.ticks_left() > 0 {
            let mark = steal::mark();
            let mut tick = Tick::default();
            self.tick(&mut tick, ticks, checks);
            (tick.wall_s, tick.steal) = mark.share();
            ticks.ticks.push(tick);
            count += 1;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed + elapsed / count as f64 > budget {
                break;
            }
        }
        (count, start.elapsed().as_secs_f64())
    }

    /// `GET /metrics` over the same connection (the single worker is bound
    /// to it).
    pub fn scrape(&mut self, checks: &mut Checks) -> Scrape {
        let text = span("serve.metrics_request", || self.client.get_ok("/metrics"));
        checks.check(text.is_ok(), || format!("GET /metrics: {text:?}"));
        Scrape {
            text: text.unwrap_or_default(),
        }
    }

    /// Closes the connection and drains the server.
    pub fn stop(self) {
        drop(self.client);
        span("serve.shutdown", || self.server.shutdown());
    }
}

/// The serve-layer counters of a run of ticks, from scrapes before and
/// after. Checks that per-shard request counters sum to the engine total,
/// that every miss ran the model once and every hit was served from cache.
pub fn serve_layer(
    before: &Scrape,
    after: &Scrape,
    ticks: usize,
    checks: &mut Checks,
) -> Vec<Metric> {
    let delta = |series: &str| after.get(series) - before.get(series);
    let shard_sum = scrape_labelled_sum(&after.text, "st_serve_shard_requests_total");
    let engine = after.get("st_serve_engine_requests_total");
    checks.check(shard_sum == Some(engine), || {
        format!("per-shard requests {shard_sum:?} != engine total {engine}")
    });
    let tape_runs = delta("st_serve_tape_runs_total");
    let hits = delta("st_serve_cache_hits_total");
    checks.check(tape_runs == ticks as f64, || {
        format!("{tape_runs} tape runs for {ticks} cache-miss forecasts")
    });
    checks.check(hits == (ticks * HITS_PER_TICK) as f64, || {
        format!("{hits} cache hits for {ticks} ticks")
    });
    let pool_hits = delta("st_serve_pool_acquires_total{outcome=\"hit\"}");
    let pool_misses = delta("st_serve_pool_acquires_total{outcome=\"miss\"}");
    vec![
        Metric {
            name: "serve.cache_hit_ratio",
            value: hits / (hits + tape_runs),
            unit: "ratio",
        },
        Metric {
            name: "serve.tape_runs",
            value: tape_runs,
            unit: "count",
        },
        Metric {
            name: "serve.batch_mean",
            value: delta("st_serve_batch_size_sum") / delta("st_serve_batch_size_count"),
            unit: "count",
        },
        Metric {
            name: "serve.pool_hit_rate",
            value: pool_hits / (pool_hits + pool_misses),
            unit: "ratio",
        },
    ]
}

/// Loads a fresh forecaster from the checkpoint, pushes the window that
/// preceded test timestamp `t` and checks its forecast is bit-identical
/// to what the server answered.
fn oracle_check(ckpt: &[u8], data: &Data, t: usize, served: &[Matrix], checks: &mut Checks) {
    let mut oracle = match OnlineForecaster::from_checkpoint(&mut &ckpt[..]) {
        Ok(o) => o,
        Err(e) => return checks.check(false, || format!("oracle checkpoint load: {e}")),
    };
    for tt in t + 1 - oracle.history()..=t {
        let (values, mask, slot) = data.observation(tt);
        oracle.push(values, mask, slot);
    }
    let expected = oracle.forecast().unwrap_or_default();
    let same = expected.len() == served.len()
        && expected.iter().zip(served).all(|(a, b)| {
            a.shape() == b.shape()
                && a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        });
    checks.check(same, || {
        format!("HTTP forecast at t={t} differs from the in-process oracle")
    });
}

/// What set-up builds before the service starts: data, the source model
/// and its checkpoint bytes.
struct Prepared {
    data: Data,
    model: RihgcnModel,
    ckpt: Vec<u8>,
}

fn prepare(seed: u64, layered: bool, checks: &mut Checks) -> Result<Prepared, String> {
    let data = setup::data(seed);
    let model = setup::model(&data.norm.train, layered);
    let mut ckpt = Vec::new();
    span("core.checkpoint_save", || {
        save_checkpoint(&model, &data.z, &mut ckpt)
    })
    .map_err(|e| format!("checkpoint save: {e}"))?;
    checks.check(true, String::new);
    Ok(Prepared { data, model, ckpt })
}

fn start<'a>(p: &'a Prepared, checks: &mut Checks) -> Result<Service<'a>, String> {
    let online = span("core.checkpoint_load", || {
        OnlineForecaster::from_checkpoint(&mut &p.ckpt[..])
    })
    .map_err(|e| format!("checkpoint load: {e}"))?;
    let mut service = Service::start(&p.data, online)?;
    service.fill(checks);
    service.warm_up(checks);
    Ok(service)
}

/// Runs the workload and returns its metrics.
pub fn run(args: &Args, setups: &mut Setups, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let par_before = st_par::stats();
    // Earlier set-ups only time themselves; the last one serves the run.
    for _ in 1..setups.repeats() {
        setups.begin();
        let p = prepare(args.seed, false, checks)?;
        let service = start(&p, checks)?;
        setups.done();
        service.stop();
    }
    setups.begin();
    let p = span("phase.setup", || prepare(args.seed, args.trace, checks))?;
    let mut service = span("phase.setup", || start(&p, checks))?;
    setups.done();

    let before = service.scrape(checks);
    let mut ticks = Ticks::default();
    let (untraced, traced) = if args.trace {
        // Same loop twice, spans off then on: the throughput ratio is the
        // recorder's overhead.
        crate::trace::set_enabled(false);
        let plain = service.run(args.seconds / 2.0, &mut ticks, checks);
        crate::trace::set_enabled(true);
        let traced = span("phase.run", || {
            service.run(args.seconds / 2.0, &mut ticks, checks)
        });
        (Some(plain), traced)
    } else {
        (None, service.run(args.seconds, &mut ticks, checks))
    };
    let peak_rss = crate::report::peak_rss_mb();
    let total_ticks = traced.0 + untraced.map_or(0, |u| u.0);
    let after = service.scrape(checks);
    let serve_metrics = serve_layer(&before, &after, total_ticks, checks);
    let par_after = st_par::stats();
    service.stop();

    for (t, served) in [&ticks.first, &ticks.last].into_iter().flatten() {
        oracle_check(&p.ckpt, &p.data, *t, served, checks);
    }
    if ticks.forecasts() < 100 {
        eprintln!(
            "stbench: only {} cache-miss forecasts; p90 has fewer than 10 samples beyond it",
            ticks.forecasts()
        );
    }

    if !args.trace {
        let calm = ticks.latencies(true);
        return Ok(crate::end_to_end(
            setups,
            calm.ticks_per_s,
            ticks.mae(),
            peak_rss,
            &calm.forecast_s,
            &calm.read_s,
            &calm.observe_s,
        ));
    }

    let (plain_ticks, plain_s) = untraced.expect("traced runs time an untraced half");
    let overhead = 1.0 - (traced.0 as f64 / traced.1) / (plain_ticks as f64 / plain_s);
    let mut model = p.model;
    let probe = span("phase.probe", || layers::probe(&mut model, &p.data, checks))?;
    let forecast_p50_ms = 1e3 * median(&ticks.latencies(false).forecast_s);
    Ok(layers::per_layer(
        probe,
        serve_metrics,
        forecast_p50_ms,
        overhead,
        crate::report::par_utilization(&par_before, &par_after),
        checks,
    ))
}
