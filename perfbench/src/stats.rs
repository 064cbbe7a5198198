//! Order statistics over latency samples, and the honesty rule for tail
//! percentiles: a percentile is only printed as a number when at least ten
//! samples lie beyond it.

use std::time::Duration;

/// Samples needed beyond a percentile before it is reported as a number.
const BEYOND: f64 = 10.0;

/// A bag of measurements (any unit; the caller names it).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Linear-interpolated quantile (`q` in `0..=1`); 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let pos = q.clamp(0.0, 1.0) * (self.values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.values[lo] + (self.values[hi] - self.values[lo]) * frac
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// True when at least ten samples lie beyond quantile `q`.
    pub fn supports(&self, q: f64) -> bool {
        self.values.len() as f64 * (1.0 - q) >= BEYOND
    }

    /// One report line for percentile `q` of these samples, with the sample
    /// count. A percentile the sample cannot support is named as such
    /// instead of printed.
    pub fn line(&mut self, name: &str, unit: &str, q: f64) -> String {
        let n = self.len();
        if self.supports(q) || q <= 0.5 {
            format!("{name:<24} {:>12.4} {unit:<6} (n={n})", self.quantile(q))
        } else {
            let need = (BEYOND / (1.0 - q)).ceil() as usize;
            format!(
                "{name:<24} {:>12} {unit:<6} (n={n}; needs n>={need} for ten samples beyond it)",
                "unsupported"
            )
        }
    }
}

/// Consecutive time windows a measurement is split into for the reported
/// end-to-end figures.
pub const WINDOWS: usize = 10;

/// Splits `(time, value)` points over `[0, span]` into [`WINDOWS`]
/// consecutive windows and applies `figure` to each non-empty one.
fn per_window(points: &[(f64, f64)], span: f64, figure: impl Fn(&mut Samples) -> f64) -> Samples {
    let mut windows = vec![Samples::new(); WINDOWS];
    for &(t, v) in points {
        let k = if span > 0.0 { (t / span * WINDOWS as f64) as usize } else { 0 };
        windows[k.min(WINDOWS - 1)].push(v);
    }
    let mut out = Samples::new();
    for w in windows.iter_mut().filter(|w| w.len() > 0) {
        out.push(figure(w));
    }
    out
}

/// Quantile `q` of the values in each window, taken at the median over the
/// windows: a burst of interference from the rest of the machine (steal
/// time) that covers a few windows does not move it, a change that slows
/// the program in most of the run does.
pub fn windowed_quantile(points: &[(f64, f64)], span: f64, q: f64) -> f64 {
    per_window(points, span, |w| w.quantile(q)).median()
}

/// Events per second in each window of `[0, span]` (events after `span`
/// are ignored), the median over the windows.
pub fn windowed_rate(times: &[f64], span: f64) -> f64 {
    let width = (span / WINDOWS as f64).max(1e-9);
    let points: Vec<(f64, f64)> = times.iter().filter(|&&t| t <= span).map(|&t| (t, 0.0)).collect();
    per_window(&points, span, |w| w.len() as f64 / width).median()
}

/// Median of a small list of values (set-up rounds, per-rung overheads).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

/// CPU seconds (user + system, all threads, live or exited) a process has
/// used, from procfs. Ticks the hypervisor stole from the machine are
/// accounted as steal time, not to the process, so unlike wall time this
/// does not grow when other tenants preempt the machine.
pub fn cpu_secs(pid: &str) -> Result<f64, String> {
    /// `sysconf(_SC_CLK_TCK)` on Linux.
    const TICKS_PER_SEC: f64 = 100.0;
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest =
        stat.rsplit_once(')').map(|(_, r)| r).ok_or_else(|| format!("{path}: bad format"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) / TICKS_PER_SEC),
        _ => Err(format!("{path}: no utime/stime")),
    }
}

/// Peak resident set size of a process in MiB (`VmHWM` from procfs).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}
