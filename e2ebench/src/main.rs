//! Layer-attributed end-to-end benchmark of the temporal-probabilistic
//! set-operation engine.
//!
//! ```text
//! e2ebench --workload <alert_pipeline|tenant_ingest|batch_query>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload replays a pinned, seeded script in a closed loop (one
//! replay thread issues the next call as soon as the previous one
//! returns) for `--seconds`, in independent rounds that rebuild inputs
//! and program state. `--trace 0` reports the end-to-end metrics with all
//! instrumentation off; `--trace 1` alternates untraced and traced rounds
//! and reports the per-layer table. Both run the workload's correctness
//! oracles after the timed rounds. See `README.md` next to this crate.

mod alert;
mod batch;
mod report;
mod sink;
mod stream;
mod tenant;
mod trace;

use report::{best_decile, median, print_result, Metrics, Ops};
use trace::Attribution;

/// The seed no workload or claim is tuned on: a claimed gain must also
/// hold when the benchmark runs with it.
pub const HELD_OUT_SEED: u64 = 9001;

/// The per-layer metrics of `--trace 1`, with their units. Every workload
/// reports all of them; a layer a workload does not run reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("engine.push.calls", "count"),
    ("engine.push.busy_s", "s"),
    ("engine.push.ns_per_tuple", "ns"),
    ("engine.push.late", "count"),
    ("gapped.retrains", "count"),
    ("gapped.model_misses", "count"),
    ("gapped.shift_p99", "slots"),
    ("gapped.occupancy_permille", "permille"),
    ("engine.advance.calls", "count"),
    ("engine.advance.busy_s", "s"),
    ("engine.advance.p50_ms", "ms"),
    ("engine.advance.p99_ms", "ms"),
    ("engine.advance.released", "tuples"),
    ("engine.advance.windows", "count"),
    ("engine.advance.deltas", "count"),
    ("engine.advance.sharded_share", "ratio"),
    ("engine.advance.region_balance_max", "ratio"),
    ("stage.drain_s", "s"),
    ("stage.plan_s", "s"),
    ("stage.sweep_s", "s"),
    ("stage.finalize_s", "s"),
    ("stage.seal_retire_s", "s"),
    ("sub.region_s", "s"),
    ("sub.stitch_reduce_s", "s"),
    ("sub.emit_s", "s"),
    ("sub.retrain_s", "s"),
    ("pipeline.deltas", "count"),
    ("pipeline.state_rows_peak", "rows"),
    ("pipeline.op.source_s", "s"),
    ("pipeline.op.hash_join_s", "s"),
    ("pipeline.op.aggregate_s", "s"),
    ("pipeline.untraced_s", "s"),
    ("sink.delta_calls", "count"),
    ("sink.delta_s", "s"),
    ("sink.watermark_s", "s"),
    ("sink.retire_s", "s"),
    ("valuation.roots", "count"),
    ("valuation.busy_s", "s"),
    ("valuation.ns_per_root", "ns"),
    ("arena.resident_bytes_peak", "bytes"),
    ("arena.live_nodes_peak", "count"),
    ("arena.retired_segments", "count"),
    ("arena.interior_retired_segments", "count"),
    ("vars.live_peak", "count"),
    ("vars.released", "count"),
    ("server.waves", "count"),
    ("server.wave_p50_ms", "ms"),
    ("server.wave_p99_ms", "ms"),
    ("server.push_row_busy_s", "s"),
    ("server.hot_region_workers", "count"),
    ("query.parse_s", "s"),
    ("query.eval_s", "s"),
    ("query.output_tuples", "tuples"),
    ("ops.union_s", "s"),
    ("ops.intersect_s", "s"),
    ("ops.except_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans_dropped", "count"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Whether round `i` is traced: `--trace 1` alternates untraced
    /// rounds (the overhead baseline) and traced ones.
    pub fn traced(&self, i: usize) -> bool {
        self.trace && i % 2 == 1
    }

    /// Rounds every run makes at least (medians need several).
    pub fn min_rounds(&self) -> usize {
        if self.trace {
            4
        } else {
            3
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a u64")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds: not a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One timed round of a workload.
pub struct Round {
    pub setup_s: f64,
    /// From the first timed call to the return of the last one, without
    /// the span drains of a traced round.
    pub wall_s: f64,
    /// Input tuples the round processed.
    pub tuples: u64,
    /// p50 and p99 of the round's arrival-to-emit latencies (ms).
    pub pct: (f64, f64),
    /// Latency samples of the round.
    pub samples: u64,
    pub ops: Ops,
    /// Traced rounds: the attribution and the workload's layer metrics.
    pub traced: Option<(Attribution, Metrics)>,
}

/// Folds the rounds and the oracle phase into the run's result.
pub fn finish(
    args: &Args,
    rounds: Vec<Round>,
    peak_rss_mb: f64,
    oracle: Ops,
) -> (bool, Ops, Metrics) {
    let mut ops = oracle;
    for r in &rounds {
        ops.absorb(r.ops);
    }
    let (traced, plain): (Vec<&Round>, Vec<&Round>) =
        rounds.iter().partition(|r| r.traced.is_some());
    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    let tputs: Vec<f64> = plain.iter().map(|r| r.tuples as f64 / r.wall_s).collect();
    let p50s: Vec<f64> = plain.iter().map(|r| r.pct.0).collect();
    let p99s: Vec<f64> = plain.iter().map(|r| r.pct.1).collect();
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# {} untraced rounds, {} traced; median untraced wall {:.4} s",
        plain.len(),
        traced.len(),
        median(&walls)
    );
    println!("# round walls (s): {}", list(&walls));
    println!("# round setups (s): {}", list(&setups));
    println!("# round emit p50 (ms): {}", list(&p50s));
    println!("# round emit p99 (ms): {}", list(&p99s));
    let per_round = plain.first().map_or(0, |r| r.samples);
    println!(
        "# emit latency: {per_round} samples per round ({} beyond p99), {} rounds",
        per_round / 100,
        plain.len()
    );
    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&setups), "s");
    e2e.set("tuples_per_s", best_decile(&tputs, false), "tuples/s");
    e2e.set("emit_p50_ms", best_decile(&p50s, true), "ms");
    e2e.set("emit_p99_ms", best_decile(&p99s, true), "ms");
    e2e.set("peak_rss_mb", peak_rss_mb, "MiB");
    for (name, value, unit) in e2e.iter() {
        println!("# e2e {name} {value:.6} {unit}");
    }
    println!(
        "# e2e failed_op_ratio {:.6} ratio ({} of {} ops)",
        ops.failed as f64 / ops.attempted.max(1) as f64,
        ops.failed,
        ops.attempted
    );
    if !args.trace {
        return (ops.failed == 0, ops, e2e);
    }

    // Trace health: every drain lossless, every advance tiled by its
    // stages, the layers' self times tiling >= 95% of the wall.
    let mut layer_rounds = Vec::new();
    for r in &traced {
        let (attr, layers) = r.traced.as_ref().expect("traced round");
        let mut m = Metrics::default();
        for &(name, unit) in LAYERS {
            m.set(name, 0.0, unit);
        }
        for (name, value, unit) in layers.iter() {
            assert!(
                LAYERS.iter().any(|&(n, _)| n == name),
                "layer metric {name} is not listed in LAYERS"
            );
            m.set(name, value, unit);
        }
        let coverage = attr.total_self_s() / r.wall_s;
        m.set("trace.coverage", coverage, "ratio");
        m.set("trace.spans_dropped", attr.spans_dropped as f64, "count");
        ops.check(attr.spans_dropped == 0);
        ops.check(attr.tile_failures == 0);
        ops.check(coverage >= 0.95);
        if attr.tile_failures > 0 {
            println!(
                "# trace: {} advances not tiled by their stages",
                attr.tile_failures
            );
        }
        layer_rounds.push(m);
    }
    let mut layers = Metrics::median_of(&layer_rounds);
    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    layers.set(
        "trace.overhead_ratio",
        median(&traced_walls) / median(&walls),
        "ratio",
    );
    if let Some((attr, _)) = traced.last().and_then(|r| r.traced.as_ref()) {
        let wall = traced.last().map(|r| r.wall_s).unwrap_or(1.0);
        println!("# layer self times of the last traced round (wall {wall:.4} s, drains {:.4} s excluded):", attr.drain_ns as f64 * 1e-9);
        let mut rows: Vec<(&str, f64)> =
            attr.self_ns.iter().map(|(&k, &v)| (k, v * 1e-9)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (key, s) in rows {
            println!(
                "#   {key:<28} self {s:>9.4} s  {:>6.2}%  busy {:>9.4} s",
                100.0 * s / wall,
                attr.busy_s(key)
            );
        }
    }
    for (name, value, unit) in layers.iter() {
        println!("# layer {name} {value:.6} {unit}");
    }
    (ops.failed == 0, ops, layers)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "# workload {} seed {} held_out_seed {HELD_OUT_SEED} nproc {} seconds {} trace {}",
        args.workload,
        args.seed,
        report::nproc(),
        args.seconds,
        args.trace as u8
    );
    let (correct, ops, metrics) = match args.workload.as_str() {
        "alert_pipeline" => alert::run(&args),
        "tenant_ingest" => tenant::run(&args),
        "batch_query" => batch::run(&args),
        other => {
            eprintln!("e2ebench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    print_result(correct, ops, &metrics);
}
