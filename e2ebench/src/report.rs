//! Result bookkeeping shared by the workloads: operation counts, named
//! metrics, order statistics, the round loop and the final JSON line.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Attempted and failed operations (pushes, advances, waves, finishes,
/// valuation batches, queries and oracle checks).
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Named metrics of one round or one run, with their units.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.insert(name, (value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map(|v| v.0).unwrap_or(0.0)
    }

    /// Per-metric median over rounds (every round reports the same names).
    pub fn median_of(rounds: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        let Some(first) = rounds.first() else {
            return out;
        };
        for (&name, &(_, unit)) in &first.values {
            let vals: Vec<f64> = rounds.iter().map(|m| m.get(name)).collect();
            out.set(name, median(&vals), unit);
        }
        out
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.values.iter().map(|(&n, &(v, u))| (n, v, u))
    }
}

/// Median of `v` (mean of the middle pair for even lengths; 0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The best decile of per-round values: the 10th percentile when lower
/// is better, the 90th when higher is better (nearest rank).
///
/// Why not the median: on shared 2-vCPU machines the same code runs up
/// to 2x slower in contended phases lasting a second or two. The median
/// over rounds lands in either regime depending on how much of a run was
/// contended; the best decile tracks the uncontended cost of the program
/// and repeats far more tightly across runs (see README.md).
pub fn best_decile(v: &[f64], lower_is_better: bool) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let q = if lower_is_better { 0.10 } else { 0.90 };
    percentile(&s, q)
}

/// Nearest-rank percentile `q ∈ [0, 1]` of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(p50, p99)` of unsorted samples.
pub fn p50_p99(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (percentile(samples, 0.50), percentile(samples, 0.99))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Progress line for the wrapper: the ops a phase is about to attempt. If
/// the process dies before the matching [`phase_done`], the wrapper counts
/// them as failed.
pub fn phase_start(phase: &str, planned_ops: u64) {
    println!("# phase {phase} planned {planned_ops}");
    let _ = std::io::stdout().flush();
}

/// Progress line closing a phase started with [`phase_start`].
pub fn phase_done(phase: &str, ops: Ops) {
    println!(
        "# phase {phase} done attempted {} failed {}",
        ops.attempted, ops.failed
    );
    let _ = std::io::stdout().flush();
}

/// Rounds after which the peak resident set is read.
pub const RSS_ROUNDS: usize = 3;

/// Runs `round(i)` until `seconds` have passed and at least `min_rounds`
/// (≥ [`RSS_ROUNDS`]) rounds completed. Every round builds its own inputs
/// and program state, so rounds are independent repetitions of one
/// pinned replay. Also returns the process's peak resident set (MiB)
/// after the first [`RSS_ROUNDS`] rounds: a fixed amount of work, so the
/// value does not depend on how many rounds fit into `seconds` (the
/// allocator's high-water mark keeps creeping up over dozens of rounds
/// while the resident set stays flat).
pub fn run_rounds<R>(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> R,
) -> (Vec<R>, f64) {
    let t0 = Instant::now();
    let mut out = Vec::new();
    let mut rss = 0.0;
    while out.len() < min_rounds.max(RSS_ROUNDS) || t0.elapsed().as_secs_f64() < seconds {
        out.push(round(out.len()));
        if out.len() == RSS_ROUNDS {
            rss = peak_rss_mib();
        }
    }
    (out, rss)
}

/// Prints the result object as the last line of stdout.
pub fn print_result(correct: bool, ops: Ops, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    );
}
