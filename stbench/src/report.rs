//! Small helpers the workloads share: percentiles, the `VmHWM` reader,
//! the `/metrics` scrape parser and the result-line JSON writer.

pub use rihgcn_bench::timing::percentile;

/// Nearest-rank percentile of an unsorted sample set (sorts a copy).
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    percentile(&sorted, p)
}

/// Nearest-rank median (the lower middle element on an even count).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set (`VmHWM`) in kB from a `/proc/<pid>/status` text.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// This process's peak resident set in MB (10⁶ bytes), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_kb(&status).map(|kb| kb as f64 * 1024.0 / 1e6)
}

/// Value of one exposition-format series, e.g. `st_serve_tape_runs_total`
/// or `st_serve_shard_requests_total{shard="0"}`. The series must match
/// the whole sample name including its labels.
pub fn scrape(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

/// Sum of every labelled sample of a family, e.g. all
/// `st_serve_shard_requests_total{shard="…"}` rows. Unlabelled samples
/// and other families sharing the prefix are not counted.
pub fn scrape_labelled_sum(text: &str, family: &str) -> Option<f64> {
    let mut sum = None;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some(rest) = line.strip_prefix(family).and_then(|r| r.strip_prefix('{')) else {
            continue;
        };
        let (_, value) = rest.split_once("} ")?;
        *sum.get_or_insert(0.0) += value.trim().parse::<f64>().ok()?;
    }
    sum
}

/// Share of the parallel regions' worker budget spent busy between two
/// `st_par::stats` readings.
pub fn par_utilization(before: &st_par::ParStats, after: &st_par::ParStats) -> f64 {
    (after.busy_ns - before.busy_ns) as f64 / (after.capacity_ns - before.capacity_ns) as f64
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. Values print with Rust's shortest round-trip form, so
/// every measured digit survives.
///
/// # Errors
///
/// Returns the name of the first non-finite metric (JSON has no NaN/∞).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if i > 0 {
            out.push_str(", ");
        }
        // Whole-number floats print as `3.0`, which is still a JSON number.
        out.push_str(&format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.0);
        assert_eq!(quantile(&xs, 0.9), 4.0);
        let tens: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&tens, 0.9), 90.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn vm_hwm_parses_proc_status() {
        let status = "Name:\tstbench\nVmPeak:\t 9000 kB\nVmHWM:\t  420228 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(420_228));
        assert_eq!(vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t x kB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn scrape_matches_whole_series_names() {
        let text = "# HELP st_serve_tape_runs_total Model runs.\n\
                    # TYPE st_serve_tape_runs_total counter\n\
                    st_serve_tape_runs_total 41\n\
                    st_serve_tape_runs_total_extra 9\n\
                    st_serve_shard_requests_total{shard=\"0\"} 30\n\
                    st_serve_shard_requests_total{shard=\"1\"} 12\n\
                    st_serve_shard_requests_totalx{shard=\"2\"} 5\n\
                    st_serve_latency_sum 1.5e3\n";
        assert_eq!(scrape(text, "st_serve_tape_runs_total"), Some(41.0));
        assert_eq!(scrape(text, "st_serve_latency_sum"), Some(1500.0));
        assert_eq!(
            scrape(text, "st_serve_shard_requests_total{shard=\"1\"}"),
            Some(12.0)
        );
        assert_eq!(scrape(text, "st_serve_missing"), None);
        assert_eq!(
            scrape_labelled_sum(text, "st_serve_shard_requests_total"),
            Some(42.0)
        );
        assert_eq!(scrape_labelled_sum(text, "st_serve_tape_runs_total"), None);
        assert_eq!(scrape_labelled_sum("x{a=\"1\"} nan?\n", "x"), None);
    }

    #[test]
    fn result_json_is_parseable_and_keeps_digits() {
        let metrics = [
            Metric {
                name: "setup_s",
                value: 8.123456789012345,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: 1500.0,
                unit: "MB",
            },
        ];
        let line = result_json(true, 10, 0, &metrics).unwrap();
        let json = st_obs::json::parse(&line).unwrap();
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(
            setup.get("value"),
            Some(&st_obs::json::Json::Num(8.123456789012345))
        );
        assert!(line.contains("\"attempted\": 10"));
        assert!(line.contains("1500.0"));
        let bad = [Metric {
            name: "x",
            value: f64::NAN,
            unit: "s",
        }];
        assert!(result_json(true, 1, 0, &bad).is_err());
    }
}
