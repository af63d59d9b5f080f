//! Order statistics, closed-loop driving and process memory.

use std::time::Instant;

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The `q`-quantile of `v` by nearest rank.
pub fn quantile(v: &[f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

/// Drives a closed loop: an optional untimed warm-up call, then calls
/// back to back until `seconds` have passed and at least `min_calls`
/// were timed. Each call returns `(operations, seconds)` measured
/// around the serving call alone; the result is each timed call's rate.
pub fn closed_loop(
    seconds: f64,
    min_calls: usize,
    warm_up: bool,
    mut call: impl FnMut() -> (u64, f64),
) -> Vec<f64> {
    if warm_up {
        call();
    }
    let started = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < min_calls || started.elapsed().as_secs_f64() < seconds {
        let (ops, secs) = call();
        rates.push(ops as f64 / secs.max(1e-9));
    }
    rates
}

/// Repeats a set-up until it ran at least `min_reps` times and for at
/// least `min_secs`, dropping each build before the next starts.
/// Returns the last build and every set-up's seconds.
pub fn repeat_setup<T>(
    min_reps: usize,
    min_secs: f64,
    mut set_up: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < min_reps.max(1) || started.elapsed().as_secs_f64() < min_secs {
        drop(last.take());
        let t = Instant::now();
        last = Some(set_up());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("set up at least once"), times)
}

/// `min/q1/median/q3/max (n)` of a sample and every value in order,
/// for the human-readable lines.
pub fn describe(v: &[f64]) -> String {
    let q = |p| quantile(v, p).unwrap_or(f64::NAN);
    let all: Vec<String> = v.iter().map(|x| format!("{x:.4e}")).collect();
    format!(
        "min {:.4e} q1 {:.4e} median {:.4e} q3 {:.4e} max {:.4e} (n {}) [{}]",
        q(0.0),
        q(0.25),
        median(v).unwrap_or(f64::NAN),
        q(0.75),
        q(1.0),
        v.len(),
        all.join(" ")
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
    }

    #[test]
    fn closed_loop_times_at_least_min_calls() {
        let mut calls = 0;
        let rates = closed_loop(0.0, 3, true, || {
            calls += 1;
            (10, 0.5)
        });
        assert_eq!(calls, 4);
        assert_eq!(rates, vec![20.0; 3]);
    }
}
