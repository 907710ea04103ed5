//! Host CPU steal: time the hypervisor ran something else while this
//! VM's vCPUs wanted to run.
//!
//! On a shared host, steal comes in episodes of tens of seconds, and
//! during one the paper-shape forward runs up to 1.8× slower (its two
//! `st_par` workers meet at barriers, so a stall on either vCPU stalls
//! both). Steal only ever adds time, and the kernel counts it in
//! `/proc/stat`. So each timed unit of work (a `serve_http` tick, a
//! `train` model call or epoch) records the steal it saw, and the latency
//! and throughput metrics are taken over the calm units only (see
//! [`calm`]). Units are picked by the host's counter, never by their own
//! latency, so a slower program still reads slower.

use std::time::Instant;

/// Steal share up to which a unit always counts as calm. Quiet stretches
/// of a shared 2-vCPU host sit at 0–2%; episodes reach 10–25%.
pub const CALM_STEAL: f64 = 0.02;

/// Share of a run's units that counts as calm however much was stolen,
/// so a run stolen from throughout still reports, from its calmest part.
pub const CALM_FLOOR: f64 = 0.25;

/// Clock ticks per second of the `/proc/stat` counters (`USER_HZ`, fixed
/// at 100 in the Linux ABI).
const USER_HZ: f64 = 100.0;

/// Summed steal ticks over all CPUs and the CPU count, from the text of
/// `/proc/stat`.
pub fn parse_proc_stat(text: &str) -> Option<(u64, usize)> {
    let mut lines = text.lines();
    let total = lines.next()?.strip_prefix("cpu ")?;
    // user nice system idle iowait irq softirq steal ...
    let steal = total.split_whitespace().nth(7)?.parse().ok()?;
    let cpus = lines
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    (cpus > 0).then_some((steal, cpus))
}

fn read() -> Option<(u64, usize)> {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// A reading taken before a unit of work.
pub struct Mark {
    at: Instant,
    stat: Option<(u64, usize)>,
}

/// Takes a reading; read it again with [`Mark::share`] after the unit.
pub fn mark() -> Mark {
    let stat = read();
    Mark {
        at: Instant::now(),
        stat,
    }
}

impl Mark {
    /// Wall seconds since the mark, and the share of all CPUs' time in
    /// them that was stolen (0 where `/proc/stat` is unavailable).
    pub fn share(&self) -> (f64, f64) {
        let wall = self.at.elapsed().as_secs_f64();
        let share = match (self.stat, read()) {
            (Some((before, cpus)), Some((after, _))) => {
                after.saturating_sub(before) as f64 / (USER_HZ * wall * cpus as f64)
            }
            _ => 0.0,
        };
        (wall, share)
    }
}

/// Which units are calm, from each unit's steal share: those at or below
/// [`CALM_STEAL`], or, where fewer qualify, the calmest [`CALM_FLOOR`] of
/// the units (with ties).
pub fn calm(shares: &[f64]) -> Vec<bool> {
    if shares.is_empty() {
        return Vec::new();
    }
    let cut = crate::report::quantile(shares, CALM_FLOOR).max(CALM_STEAL);
    shares.iter().map(|&s| s <= cut).collect()
}

/// The values of the calm units among `(value, steal share)` pairs,
/// reported on stderr as `what`.
pub fn calm_values(what: &str, units: &[(f64, f64)]) -> Vec<f64> {
    let shares: Vec<f64> = units.iter().map(|&(_, s)| s).collect();
    let calm = calm(&shares);
    log(what, &calm, &shares);
    units
        .iter()
        .zip(&calm)
        .filter_map(|(&(v, _), &c)| c.then_some(v))
        .collect()
}

/// Reports on stderr how many of a run's units were calm.
pub fn log(what: &str, calm: &[bool], shares: &[f64]) {
    let kept = calm.iter().filter(|&&c| c).count();
    let mean = shares.iter().sum::<f64>() / shares.len().max(1) as f64;
    eprintln!(
        "stbench: {what}: {kept} of {} units calm (mean steal {:.1}%)",
        calm.len(),
        100.0 * mean
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_gives_steal_and_cpu_count() {
        let text = "cpu  2345372 0 135338 2239857 471 0 1541 50284 0 0\n\
                    cpu0 1177831 0 68545 1113774 246 0 748 25050 0 0\n\
                    cpu1 1167541 0 66793 1126082 225 0 793 25233 0 0\n\
                    intr 1 2 3\nctxt 9\n";
        assert_eq!(parse_proc_stat(text), Some((50284, 2)));
        assert_eq!(parse_proc_stat("cpu  1 2 3\ncpu0 1 2 3\n"), None);
        assert_eq!(parse_proc_stat("intr 1\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 3 4 5 6 7 8\n"), None);
        if std::path::Path::new("/proc/stat").exists() {
            assert!(read().is_some());
        }
    }

    #[test]
    fn calm_keeps_quiet_units_and_at_least_the_calmest_quarter() {
        // A quiet run keeps every unit at or under 2%.
        assert_eq!(
            calm(&[0.0, 0.01, 0.04, 0.02]),
            vec![true, true, false, true]
        );
        // A run stolen from throughout keeps its calmest quarter.
        let shares = [0.2, 0.1, 0.3, 0.15, 0.4, 0.12, 0.25, 0.35];
        assert_eq!(
            calm(&shares),
            vec![false, true, false, false, false, true, false, false]
        );
        assert!(calm(&[]).is_empty());
        assert_eq!(
            calm_values("test", &[(1.0, 0.3), (2.0, 0.0), (3.0, 0.05)]),
            vec![2.0]
        );
    }
}
