//! One runner per table and figure of §VII.
//!
//! Every function regenerates the corresponding artifact of the paper at a
//! `TP_SCALE`-adjusted size and returns either a rendered table (Tables
//! II–IV) or an [`ExperimentResult`] (the figures) whose rows are the x-axis
//! values and whose columns are approaches — the same series the paper
//! plots. [`BenchReport`] bundles the three gated `bench_lawa` sections:
//! memoized valuation, continuous vs naive re-batch, and observability
//! overhead.

use std::fmt::Write as _;

use tp_baselines::Approach;
use tp_core::ops::SetOp;
use tp_core::relation::{TpRelation, VarTable};
use tp_workloads::{
    overlapping_factor, shifted_copy, DatasetStats, MeteoConfig, SynthConfig, WebkitConfig,
};

use crate::runner::{default_cap, run_one, scaled};

/// One line of a figure: an approach and its runtime (ms) per x value
/// (`None` = unsupported or size-capped, rendered as `-`).
#[derive(Debug, Clone)]
pub struct Series {
    /// Approach name.
    pub name: String,
    /// Runtime in milliseconds per x value.
    pub values: Vec<Option<f64>>,
}

/// A regenerated figure.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Identifier, e.g. "Fig. 7a".
    pub id: String,
    /// Human-readable description.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// The x values, already formatted.
    pub xs: Vec<String>,
    /// One series per approach.
    pub series: Vec<Series>,
    /// Free-form annotations (measured overlap factors, caps, …).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Renders the result as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {}: {} ==", self.id, self.title);
        let _ = write!(out, "{:<16}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "{:>14}", s.name);
        }
        let _ = writeln!(out);
        for (i, x) in self.xs.iter().enumerate() {
            let _ = write!(out, "{x:<16}");
            for s in &self.series {
                match s.values.get(i).copied().flatten() {
                    Some(ms) => {
                        let _ = write!(out, "{ms:>12.1}ms");
                    }
                    None => {
                        let _ = write!(out, "{:>14}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// The measured values of an approach, if present.
    pub fn series_of(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Renders the result as CSV (header `x,<approach>…`; empty cells for
    /// unsupported/capped points) — convenient for external plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label);
        for s in &self.series {
            let _ = write!(out, ",{}", s.name);
        }
        let _ = writeln!(out);
        for (i, x) in self.xs.iter().enumerate() {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.values.get(i).copied().flatten() {
                    Some(ms) => {
                        let _ = write!(out, ",{ms:.3}");
                    }
                    None => {
                        let _ = write!(out, ",");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

fn sweep(
    id: &str,
    title: &str,
    x_label: &str,
    approaches: &[Approach],
    op: SetOp,
    inputs: Vec<(String, TpRelation, TpRelation)>,
) -> ExperimentResult {
    let mut series: Vec<Series> = approaches
        .iter()
        .map(|a| Series {
            name: a.name().to_string(),
            values: Vec::with_capacity(inputs.len()),
        })
        .collect();
    let mut xs = Vec::with_capacity(inputs.len());
    for (x, r, s) in &inputs {
        xs.push(x.clone());
        for (a, line) in approaches.iter().zip(series.iter_mut()) {
            line.values.push(run_one(*a, op, r, s, default_cap(*a)));
        }
    }
    ExperimentResult {
        id: id.to_string(),
        title: title.to_string(),
        x_label: x_label.to_string(),
        xs,
        series,
        notes: Vec::new(),
    }
}

/// Table II: the support matrix.
pub fn table2_support() -> String {
    format!(
        "== Table II: approach/operation support ==\n{}",
        tp_baselines::support_matrix()
    )
}

/// Table III: the synthetic robustness datasets and their measured
/// overlapping factors.
pub fn table3_datasets() -> String {
    let tuples = scaled(10_000);
    let mut out = String::from("== Table III: robustness dataset characteristics ==\n");
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>12} {:>12} {:>10}",
        "nominal", "measured", "max len (R)", "max len (S)", "tuples"
    );
    for nominal in [0.03, 0.1, 0.4, 0.6, 0.8] {
        let cfg = SynthConfig::table3_preset(nominal, tuples, 17);
        let mut vars = VarTable::new();
        let (r, s) = tp_workloads::synth::generate(&cfg, &mut vars);
        let measured = overlapping_factor(&r, &s);
        let _ = writeln!(
            out,
            "{nominal:<10} {measured:>10.3} {:>12} {:>12} {tuples:>10}",
            cfg.r.max_interval_len, cfg.s.max_interval_len
        );
    }
    out
}

/// Table IV: profiles of the (simulated) real-world datasets.
pub fn table4_datasets() -> String {
    let mut vars = VarTable::new();
    let meteo = tp_workloads::meteo::generate(
        &MeteoConfig {
            tuples: scaled(100_000),
            ..Default::default()
        },
        &mut vars,
    );
    let webkit = tp_workloads::webkit::generate(
        &WebkitConfig {
            files: scaled(20_000),
            tuples: scaled(100_000),
            ..Default::default()
        },
        &mut vars,
    );
    format!(
        "== Table IV: real-world dataset properties (simulated) ==\n{}\n{}",
        DatasetStats::measure(&meteo).render("Meteo (simulated)"),
        DatasetStats::measure(&webkit).render("Webkit (simulated)")
    )
}

fn fig7_inputs(sizes: &[usize]) -> Vec<(String, TpRelation, TpRelation)> {
    sizes
        .iter()
        .map(|&n| {
            let mut vars = VarTable::new();
            let (r, s) = tp_workloads::synth::generate(
                &SynthConfig::single_fact(n, 20 + n as u64),
                &mut vars,
            );
            (format!("{}K", n / 1000), r, s)
        })
        .collect()
}

/// Default x axis of the small-synthetic experiments: the paper's
/// 20K–200K sweep divided by 10 (grow with `TP_SCALE`).
pub fn small_sizes() -> Vec<usize> {
    (1..=10).map(|i| scaled(2_000) * i).collect()
}

/// Fig. 7a/7b/7c: runtime on smaller synthetic datasets (single fact,
/// overlapping factor ≈ 0.6), all applicable approaches per operation.
pub fn fig7_small_synthetic() -> Vec<ExperimentResult> {
    let sizes = small_sizes();
    let inputs = fig7_inputs(&sizes);
    let mut results = vec![
        sweep(
            "Fig. 7a",
            "TP set intersection, smaller synthetic datasets",
            "tuples",
            &[
                Approach::Lawa,
                Approach::Oip,
                Approach::Ti,
                Approach::Tpdb,
                Approach::Norm,
            ],
            SetOp::Intersect,
            inputs.clone(),
        ),
        sweep(
            "Fig. 7b",
            "TP set difference, smaller synthetic datasets",
            "tuples",
            &[Approach::Lawa, Approach::Norm],
            SetOp::Except,
            inputs.clone(),
        ),
        sweep(
            "Fig. 7c",
            "TP set union, smaller synthetic datasets",
            "tuples",
            &[Approach::Lawa, Approach::Tpdb, Approach::Norm],
            SetOp::Union,
            inputs,
        ),
    ];
    for r in &mut results {
        r.notes.push(format!(
            "sizes are paper/10 by default; NORM/TPDB capped at {} tuples (quadratic)",
            scaled(6_000)
        ));
    }
    results
}

/// Fig. 8: TP set intersection on larger synthetic datasets, LAWA vs OIP
/// (the only approaches that scale).
pub fn fig8_large_synthetic() -> ExperimentResult {
    let sizes: Vec<usize> = (1..=5).map(|i| scaled(500_000) * i).collect();
    let inputs = fig7_inputs(&sizes);
    let mut result = sweep(
        "Fig. 8",
        "TP set intersection, larger synthetic datasets",
        "tuples",
        &[Approach::Lawa, Approach::Oip],
        SetOp::Intersect,
        inputs,
    );
    result
        .notes
        .push("paper sweeps 5M-50M; defaults are /10 (TP_SCALE=10 for paper size)".into());
    result
}

/// Fig. 9a: robustness of `∩Tp` against the overlapping factor (LAWA vs
/// OIP, fixed cardinality).
pub fn fig9a_overlap() -> ExperimentResult {
    let tuples = scaled(1_000_000);
    let factors = [0.03, 0.1, 0.4, 0.6, 0.8];
    let inputs: Vec<(String, TpRelation, TpRelation)> = factors
        .iter()
        .map(|&f| {
            let mut vars = VarTable::new();
            let (r, s) = tp_workloads::synth::generate(
                &SynthConfig::table3_preset(f, tuples, 31),
                &mut vars,
            );
            (format!("{:.2}", overlapping_factor(&r, &s)), r, s)
        })
        .collect();
    let mut result = sweep(
        "Fig. 9a",
        "robustness vs overlapping factor (TP set intersection)",
        "overlap",
        &[Approach::Lawa, Approach::Oip],
        SetOp::Intersect,
        inputs,
    );
    result.notes.push(format!(
        "cardinality fixed at {tuples} tuples (paper: 30M); x values are measured factors"
    ));
    result
}

/// Fig. 9b: robustness of `∩Tp` against the number of distinct facts
/// (all five approaches, fixed cardinality).
pub fn fig9b_facts() -> ExperimentResult {
    let tuples = scaled(4_000);
    let fact_counts = [tuples / 2, 100, 10, 5, 1];
    let inputs: Vec<(String, TpRelation, TpRelation)> = fact_counts
        .iter()
        .map(|&facts| {
            let mut vars = VarTable::new();
            let (r, s) = tp_workloads::synth::generate(
                &SynthConfig::with_facts(tuples, facts.max(1), 47),
                &mut vars,
            );
            (format!("{facts}F"), r, s)
        })
        .collect();
    let mut result = sweep(
        "Fig. 9b",
        "robustness vs number of distinct facts (TP set intersection)",
        "facts",
        &[
            Approach::Norm,
            Approach::Lawa,
            Approach::Oip,
            Approach::Ti,
            Approach::Tpdb,
        ],
        SetOp::Intersect,
        inputs,
    );
    result.notes.push(format!(
        "cardinality fixed at {tuples} tuples (paper: 60K), overlap ≈ 0.6"
    ));
    result
}

fn real_world_sweep(
    id_prefix: &str,
    dataset: &str,
    full_r: &TpRelation,
    full_s: &TpRelation,
) -> Vec<ExperimentResult> {
    // Random subsets of increasing size, like the paper's 20K-200K runs.
    let sizes = small_sizes();
    let subset = |rel: &TpRelation, n: usize| -> TpRelation {
        // Deterministic subset: every k-th tuple, preserving duplicate-
        // freeness (a subset of a duplicate-free relation is duplicate-free).
        let k = (rel.len() / n.max(1)).max(1);
        rel.iter()
            .step_by(k)
            .take(n)
            .cloned()
            .collect::<TpRelation>()
    };
    let inputs: Vec<(String, TpRelation, TpRelation)> = sizes
        .iter()
        .map(|&n| {
            (
                format!("{}K", n / 1000),
                subset(full_r, n),
                subset(full_s, n),
            )
        })
        .collect();
    vec![
        sweep(
            &format!("{id_prefix}a"),
            &format!("TP set intersection, {dataset}"),
            "tuples",
            &[
                Approach::Lawa,
                Approach::Oip,
                Approach::Ti,
                Approach::Tpdb,
                Approach::Norm,
            ],
            SetOp::Intersect,
            inputs.clone(),
        ),
        sweep(
            &format!("{id_prefix}b"),
            &format!("TP set difference, {dataset}"),
            "tuples",
            &[Approach::Lawa, Approach::Norm],
            SetOp::Except,
            inputs.clone(),
        ),
        sweep(
            &format!("{id_prefix}c"),
            &format!("TP set union, {dataset}"),
            "tuples",
            &[Approach::Lawa, Approach::Tpdb, Approach::Norm],
            SetOp::Union,
            inputs,
        ),
    ]
}

/// Fig. 10a–c: the three TP set operations over the (simulated) Meteo Swiss
/// dataset and its shifted counterpart.
pub fn fig10_meteo() -> Vec<ExperimentResult> {
    let mut vars = VarTable::new();
    let max_size = *small_sizes().last().expect("non-empty");
    let r = tp_workloads::meteo::generate(
        &MeteoConfig {
            tuples: max_size,
            ..Default::default()
        },
        &mut vars,
    );
    let s = shifted_copy(&r, "s", 20 * 600, 5, &mut vars);
    real_world_sweep("Fig. 10", "Meteo Swiss (simulated)", &r, &s)
}

/// Result of the memoized-valuation benchmark backing the lineage-arena
/// acceptance criterion: repeated `prob::marginal` calls on the shared
/// sublineages of overlapping LAWA windows, arena-memoized vs. the legacy
/// un-memoized tree walker.
#[derive(Debug, Clone)]
pub struct LawaValuationBench {
    /// Tuples per base relation.
    pub tuples: usize,
    /// Number of chained `∪Tp` levels (deepens the shared sublineages).
    pub levels: usize,
    /// Valuation rounds over the final relation.
    pub rounds: usize,
    /// Output tuples valuated per round.
    pub output_tuples: usize,
    /// Total tree-semantic lineage nodes valuated per round.
    pub lineage_nodes: u64,
    /// Milliseconds for `rounds` sweeps with the legacy tree walker.
    pub tree_walker_ms: f64,
    /// Milliseconds for `rounds` sweeps with the arena-memoized marginal.
    pub arena_memoized_ms: f64,
    /// Largest |Σ tree − Σ arena| over the rounds (must be ≈ 0).
    pub max_sum_delta: f64,
}

impl LawaValuationBench {
    /// `tree_walker_ms / arena_memoized_ms`.
    pub fn speedup(&self) -> f64 {
        self.tree_walker_ms / self.arena_memoized_ms.max(1e-9)
    }

    /// The failed gates (empty = pass): memoization must win ≥ 2× and
    /// both paths must agree to 1e-6.
    pub fn gates(&self) -> Vec<String> {
        failed([
            (
                self.speedup() >= 2.0,
                format!("speedup: memoized valuation {:.2}× < 2×", self.speedup()),
            ),
            (
                self.max_sum_delta < 1e-6,
                format!(
                    "max_sum_delta: tree and arena valuation disagree by {:.3e} (gate: < 1e-6)",
                    self.max_sum_delta
                ),
            ),
        ])
    }

    /// Human-readable summary line.
    pub fn render(&self) -> String {
        format!(
            "== BENCH lawa: memoized valuation ==\n\
             {} tuples × {} union levels → {} output tuples, {} lineage nodes/round\n\
             tree walker   {:>10.1} ms  ({} rounds)\n\
             arena memoized{:>10.1} ms  ({} rounds)\n\
             speedup       {:>10.2}×   (max Σ-delta {:.2e})\n",
            self.tuples,
            self.levels,
            self.output_tuples,
            self.lineage_nodes,
            self.tree_walker_ms,
            self.rounds,
            self.arena_memoized_ms,
            self.rounds,
            self.speedup(),
            self.max_sum_delta,
        )
    }
}

/// Benchmarks repeated marginal valuation over the output of a chain of
/// `∪Tp` operations whose LAWA windows stay aligned — the paper's
/// overlapping-streams scenario, where every window of level `i` carries the
/// level `i−1` window's lineage as a shared subformula. Every output tuple
/// is valuated `rounds` times with (a) the legacy recursive tree walker (no
/// memo; walks the full formula every call) and (b) the arena-backed
/// memoized [`tp_core::prob::marginal`]. Both paths compute identical
/// probabilities; the arena path valuates every *unique* interned node once
/// across all tuples and all rounds.
pub fn lawa_valuation_bench(tuples: usize, levels: usize, rounds: usize) -> LawaValuationBench {
    use tp_core::lineage::LineageTree;

    let (acc, vars) = shared_subformula_workload(tuples, levels);
    let vars = &vars;
    let output_tuples = acc.len();
    let lineage_nodes: u64 = acc.iter().map(|t| t.lineage.size() as u64).sum();

    // Legacy baseline: expand once (not timed), then walk per call.
    let trees: Vec<LineageTree> = acc.iter().map(|t| t.lineage.to_tree()).collect();
    let (tree_walker_ms, tree_sums) = crate::runner::time_ms(|| {
        let mut sums = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let mut sum = 0.0;
            for tree in &trees {
                sum += tree.independent_prob(vars).expect("vars registered");
            }
            sums.push(sum);
        }
        sums
    });

    // Arena path: cold cache (freshly cleared), memoized across tuples and
    // rounds.
    vars.clear_valuation_cache();
    let (arena_memoized_ms, arena_sums) = crate::runner::time_ms(|| {
        let mut sums = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let mut sum = 0.0;
            for t in acc.iter() {
                sum += tp_core::prob::marginal(&t.lineage, vars).expect("vars registered");
            }
            sums.push(sum);
        }
        sums
    });

    let max_sum_delta = tree_sums
        .iter()
        .zip(&arena_sums)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    LawaValuationBench {
        tuples,
        levels,
        rounds,
        output_tuples,
        lineage_nodes,
        tree_walker_ms,
        arena_memoized_ms,
        max_sum_delta,
    }
}

/// Builds the paper's Fig. 4 motif at benchmark scale: per fact, one
/// *long-lived* tuple per level (its lineage accumulates into a deep
/// ∨-chain under repeated `∪Tp`), finally unioned with a stream of many
/// *short* tuples. Every short tuple clips one LAWA window out of the
/// long tuple's validity, so all `cells` windows of a fact carry the same
/// deep chain as a shared subformula — exactly the repeated-lineage
/// pattern the memoized valuation exists for.
fn shared_subformula_workload(tuples: usize, levels: usize) -> (TpRelation, VarTable) {
    use tp_core::fact::Fact;
    use tp_core::interval::Interval;
    use tp_core::ops::union;

    let facts = (tuples / 100).clamp(1, 512);
    let cells = (tuples / facts).max(1);
    let granule = 10i64;
    let span = cells as i64 * granule;
    let mut vars = VarTable::new();
    let mut rng_p = 0u64;
    let mut next_p = move || {
        // Deterministic pseudo-probabilities in (0.05, 0.95).
        rng_p = rng_p
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        0.05 + 0.9 * ((rng_p >> 11) as f64 / (1u64 << 53) as f64)
    };
    let mut long_level = |tag: &str, vars: &mut VarTable| -> TpRelation {
        let rows: Vec<_> = (0..facts)
            .map(|f| (Fact::single(f as i64), Interval::at(0, span), next_p()))
            .collect();
        TpRelation::base(tag, rows, vars).expect("one long tuple per fact")
    };
    let mut acc = long_level("d0", &mut vars);
    for i in 1..levels.max(2) {
        let next = long_level(&format!("d{i}"), &mut vars);
        acc = union(&acc, &next);
    }
    // The short-tuple stream: `cells` aligned tuples per fact.
    let mut grid_rows = Vec::with_capacity(facts * cells);
    for f in 0..facts {
        for j in 0..cells as i64 {
            grid_rows.push((
                Fact::single(f as i64),
                Interval::at(j * granule, (j + 1) * granule),
                next_p(),
            ));
        }
    }
    let grid = TpRelation::base("s", grid_rows, &mut vars).expect("grid is duplicate-free");
    acc = union(&acc, &grid);
    (acc, vars)
}

/// Result of the streaming acceptance benchmark: the incremental engine
/// against the naive alternative that re-runs batch LAWA over the full
/// released prefix on every watermark advance.
#[derive(Debug, Clone)]
pub struct StreamingBench {
    /// Tuples per input relation.
    pub tuples: usize,
    /// Arrival events replayed.
    pub arrivals: usize,
    /// Watermark advances in the schedule.
    pub advances: u64,
    /// Wall milliseconds for the incremental engine (all three ops from
    /// one sweep per advance).
    pub incremental_ms: f64,
    /// Wall milliseconds for naive re-run-batch-per-watermark (all three
    /// ops).
    pub naive_rebatch_ms: f64,
    /// `Insert` deltas emitted across ops.
    pub inserts: u64,
    /// `Extend` deltas emitted across ops.
    pub extends: u64,
    /// Whether the streamed results are tuple-identical to batch LAWA for
    /// all three operations (checked outside the timed sections).
    pub batch_equal: bool,
}

impl StreamingBench {
    /// `naive_rebatch_ms / incremental_ms`.
    pub fn speedup(&self) -> f64 {
        self.naive_rebatch_ms / self.incremental_ms.max(1e-9)
    }

    /// The failed gates (empty = pass): streamed ≡ batch, and the engine
    /// must beat naive re-batch ≥ 2×.
    pub fn gates(&self) -> Vec<String> {
        failed([
            (
                self.batch_equal,
                "streaming.batch_equal: streamed results diverge from batch LAWA".to_string(),
            ),
            (
                self.speedup() >= 2.0,
                format!(
                    "streaming.speedup: incremental engine only {:.2}× over naive re-batch (gate: 2×)",
                    self.speedup()
                ),
            ),
        ])
    }
}

/// Benchmarks continuous LAWA on the single-fact synthetic workload:
/// `tuples` per relation arrive out of order (lateness 4) with a watermark
/// advance every `advance_every` arrivals. The incremental engine sweeps
/// each released prefix once; the naive baseline re-runs batch LAWA over
/// everything released so far at every advance — the "batch re-run" mode
/// of operation the streaming engine exists to replace.
pub fn streaming_bench(tuples: usize, advance_every: usize) -> StreamingBench {
    use tp_core::ops::apply;
    use tp_stream::{CountingSink, EngineConfig, ReplayConfig, StreamScript};

    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::single_fact(tuples, 91), &mut vars);
    let script = StreamScript::from_pair(
        &r,
        &s,
        &ReplayConfig {
            lateness: 4,
            advance_every,
            seed: 23,
        },
    );

    // Timed: incremental engine, counting sink (no materialization cost).
    let mut counter = CountingSink::new();
    let (incremental_ms, totals) =
        crate::runner::time_ms(|| script.run_into(EngineConfig::default(), &mut counter));

    // Timed: naive re-run per watermark.
    let (naive_rebatch_ms, naive) =
        crate::runner::time_ms(|| script.run_naive_rebatch(&SetOp::ALL));

    // Untimed: equivalence of both modes with batch.
    let (sink, _) = script.run(EngineConfig::default());
    let batch_equal = SetOp::ALL.iter().all(|&op| {
        let batch = apply(op, &r, &s).canonicalized();
        sink.relation(op).canonicalized() == batch
            && naive
                .iter()
                .find(|(o, _)| *o == op)
                .map(|(_, rel)| rel.canonicalized() == batch)
                .unwrap_or(false)
    });

    StreamingBench {
        tuples,
        arrivals: script.arrivals(),
        advances: totals.advances,
        incremental_ms,
        naive_rebatch_ms,
        inserts: totals.inserts,
        extends: totals.extends,
        batch_equal,
    }
}

/// The `observability` section of `bench_lawa`: the cost and
/// correctness of the always-on observability layer. The same replay runs
/// fully instrumented (metrics + stage spans, the default) and with every
/// instrumentation layer force-disabled; the gates are
///
/// * **byte-identity** — both runs produce the *identical* delta log
///   (instrumentation must never touch engine logic),
/// * **overhead** — instrumented wall within 1.10× of the baseline
///   (min-of-rounds each, alternating),
/// * **schema** — the Prometheus text and JSON snapshots and the
///   chrome://tracing export are well-formed and carry the expected
///   metric families,
/// * **coverage** — stage spans tile ≥ 95 % of every advance span (1.0 by
///   construction of the stage cursor).
#[derive(Debug, Clone)]
pub struct ObservabilityBench {
    /// Tuples per input relation.
    pub tuples: usize,
    /// Watermark advances in the schedule.
    pub advances: u64,
    /// Timing rounds per variant (min taken).
    pub rounds: usize,
    /// Wall milliseconds of the instrumented replay (min of rounds).
    pub instrumented_ms: f64,
    /// Wall milliseconds of the uninstrumented replay (min of rounds).
    pub baseline_ms: f64,
    /// Whether both variants produced byte-identical delta logs.
    pub logs_identical: bool,
    /// Whether the Prometheus text snapshot carries the expected families.
    pub prometheus_ok: bool,
    /// Whether the JSON snapshot parses as well-formed JSON.
    pub json_ok: bool,
    /// Whether the chrome://tracing export parses and is non-empty.
    pub trace_ok: bool,
    /// Σ stage-span durations / Σ advance-span durations.
    pub stage_coverage: f64,
}

impl ObservabilityBench {
    /// Instrumented-over-baseline wall ratio (the CI gate is ≤ 1.10).
    pub fn overhead_ratio(&self) -> f64 {
        self.instrumented_ms / self.baseline_ms.max(1e-9)
    }

    /// The failed gates (empty = pass): byte-identical logs, well-formed
    /// exports, stage coverage ≥ 95 % and overhead ≤ 1.10×.
    pub fn gates(&self) -> Vec<String> {
        failed([
            (
                self.logs_identical,
                "observability.logs_identical: instrumented and uninstrumented runs emitted \
                 different delta logs"
                    .to_string(),
            ),
            (
                self.prometheus_ok,
                "observability.prometheus_ok: Prometheus text lacks an expected family".to_string(),
            ),
            (
                self.json_ok,
                "observability.json_ok: JSON metrics snapshot is malformed".to_string(),
            ),
            (
                self.trace_ok,
                "observability.trace_ok: chrome://tracing export is empty or malformed".to_string(),
            ),
            (
                self.stage_coverage >= 0.95,
                format!(
                    "observability.stage_coverage: stage spans cover only {:.1}% of advance \
                     wall time (gate: >= 95%)",
                    self.stage_coverage * 100.0
                ),
            ),
            (
                self.overhead_ratio() <= 1.10,
                format!(
                    "observability.overhead_ratio: {:.3}× (gate: <= 1.10×)",
                    self.overhead_ratio()
                ),
            ),
        ])
    }
}

/// Runs the replay once and returns `(wall_ms, delta log)`. The engine
/// covers the layers under measurement: reclaim mode (arena seal/retire
/// gauges), region-parallel sweeps (worker sub-spans), and the gapped
/// ingestion index (retrain spans, miss/shift metrics).
fn observability_run(
    script: &tp_stream::StreamScript,
    obs: tp_stream::ObsConfig,
) -> (f64, tp_stream::MaterializingSink) {
    use tp_stream::{EngineConfig, MaterializingSink, ParallelConfig, ReclaimConfig};

    let mut sink = MaterializingSink::new();
    let cfg = EngineConfig {
        reclaim: Some(ReclaimConfig::default()),
        parallel: Some(ParallelConfig {
            workers: 2,
            min_tuples: 64,
            cuts: None,
        }),
        obs,
        ..Default::default()
    };
    let (ms, _) = crate::runner::time_ms(|| script.run_into(cfg.clone(), &mut sink));
    (ms, sink)
}

/// Benchmarks the observability layer on the single-fact synthetic
/// workload: `tuples` per relation, a watermark advance every
/// `advance_every` arrivals, `rounds` alternating timing rounds per
/// variant. See [`ObservabilityBench`] for the gates.
pub fn observability_bench(
    tuples: usize,
    advance_every: usize,
    rounds: usize,
) -> ObservabilityBench {
    use tp_stream::{ObsConfig, ReplayConfig, StreamScript};

    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::single_fact(tuples, 91), &mut vars);
    let script = StreamScript::from_pair(
        &r,
        &s,
        &ReplayConfig {
            lateness: 4,
            advance_every,
            seed: 23,
        },
    );

    // Readings land in a private registry so the bench measures this run
    // only; the span context is filtered by the unique tenant label below.
    let registry = std::sync::Arc::new(tp_obs::MetricsRegistry::new());
    let ctx_label = "bench-observability";
    let instrumented_cfg = || ObsConfig {
        enabled: true,
        tenant: Some(ctx_label.to_string()),
        registry: Some(std::sync::Arc::clone(&registry)),
    };
    let baseline_cfg = || ObsConfig {
        enabled: false,
        ..Default::default()
    };

    // Warm-up (discarded) + differential pass: both variants must produce
    // byte-identical delta logs.
    let (_, log_on) = observability_run(&script, instrumented_cfg());
    tp_stream::set_obs_enabled(false);
    let (_, log_off) = observability_run(&script, baseline_cfg());
    tp_stream::set_obs_enabled(true);
    let logs_identical = log_on.deltas == log_off.deltas;

    // Alternating timed rounds, min per variant (steady-state cost; the
    // min is robust against scheduler noise on shared runners).
    let (mut instrumented_ms, mut baseline_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds.max(1) {
        tp_obs::clear_trace();
        let (on_ms, _) = observability_run(&script, instrumented_cfg());
        instrumented_ms = instrumented_ms.min(on_ms);
        tp_stream::set_obs_enabled(false);
        let (off_ms, _) = observability_run(&script, baseline_cfg());
        tp_stream::set_obs_enabled(true);
        baseline_ms = baseline_ms.min(off_ms);
    }

    // Export gates, read off the final instrumented round (its spans are
    // the only ones recorded since the last clear).
    let text = registry.prometheus_text();
    let prometheus_ok = [
        "tp_advances_total",
        "tp_advance_ns",
        "tp_stage_ns",
        "tp_windows_total",
    ]
    .iter()
    .all(|name| text.contains(name));
    let json_ok = tp_obs::json::validate(&registry.json()).is_ok();
    let ctx = tp_obs::ctx_id(ctx_label);
    let spans: Vec<_> = tp_obs::snapshot_spans()
        .into_iter()
        .filter(|e| e.ctx == ctx)
        .collect();
    let trace_ok =
        !spans.is_empty() && tp_obs::json::validate(&tp_obs::chrome_trace_json(&spans)).is_ok();
    let stage_sum: u64 = spans
        .iter()
        .filter(|e| e.cat == "stage")
        .map(|e| e.dur_ns)
        .sum();
    let advance_sum: u64 = spans
        .iter()
        .filter(|e| e.cat == "advance")
        .map(|e| e.dur_ns)
        .sum();
    let stage_coverage = stage_sum as f64 / advance_sum.max(1) as f64;

    let advances = script
        .events
        .iter()
        .filter(|e| matches!(e, tp_stream::ReplayEvent::Advance(_)))
        .count() as u64;
    ObservabilityBench {
        tuples,
        advances,
        rounds: rounds.max(1),
        instrumented_ms,
        baseline_ms,
        logs_identical,
        prometheus_ok,
        json_ok,
        trace_ok,
        stage_coverage,
    }
}

/// The failed checks among `checks`, as messages (empty = all pass). A
/// NaN reading compares false and therefore fails its check.
fn failed<const N: usize>(checks: [(bool, String); N]) -> Vec<String> {
    checks
        .into_iter()
        .filter(|(ok, _)| !ok)
        .map(|(_, msg)| msg)
        .collect()
}

/// The `BENCH_lawa.json` artifact: the memoized-valuation acceptance
/// benchmark (top-level fields) plus the `streaming` and `observability`
/// sections — the three contracts that need a release-build wall clock
/// and so cannot live in `cargo test`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Memoized valuation vs the legacy tree walker.
    pub valuation: LawaValuationBench,
    /// Incremental engine vs naive re-run per watermark.
    pub streaming: StreamingBench,
    /// Observability layer: instrumented-vs-uninstrumented cost + exports.
    pub observability: ObservabilityBench,
    /// The `TP_SCALE` the run used.
    pub tp_scale: f64,
    /// Hardware threads of the machine that ran it.
    pub hardware_threads: usize,
}

impl BenchReport {
    /// Renders the report as JSON. The valuation fields stay top-level so
    /// existing consumers of `BENCH_lawa.json` keep working.
    pub fn to_json(&self) -> String {
        let (v, s, o) = (&self.valuation, &self.streaming, &self.observability);
        format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"lawa_memoized_valuation\",\n",
                "  \"tuples\": {},\n",
                "  \"levels\": {},\n",
                "  \"rounds\": {},\n",
                "  \"output_tuples\": {},\n",
                "  \"lineage_nodes\": {},\n",
                "  \"tree_walker_ms\": {:.3},\n",
                "  \"arena_memoized_ms\": {:.3},\n",
                "  \"speedup\": {:.2},\n",
                "  \"max_sum_delta\": {:.3e},\n",
                "  \"lineage_equality\": \"O(1) LineageRef compare\",\n",
                "  \"tp_scale\": {},\n",
                "  \"hardware_threads\": {},\n",
                "  \"streaming\": {{\n",
                "    \"tuples\": {},\n",
                "    \"arrivals\": {},\n",
                "    \"advances\": {},\n",
                "    \"incremental_ms\": {:.3},\n",
                "    \"naive_rebatch_ms\": {:.3},\n",
                "    \"speedup\": {:.2},\n",
                "    \"inserts\": {},\n",
                "    \"extends\": {},\n",
                "    \"batch_equal\": {}\n",
                "  }},\n",
                "  \"observability\": {{\n",
                "    \"tuples\": {},\n",
                "    \"advances\": {},\n",
                "    \"rounds\": {},\n",
                "    \"instrumented_ms\": {:.3},\n",
                "    \"baseline_ms\": {:.3},\n",
                "    \"overhead_ratio\": {:.3},\n",
                "    \"logs_identical\": {},\n",
                "    \"prometheus_ok\": {},\n",
                "    \"json_ok\": {},\n",
                "    \"trace_ok\": {},\n",
                "    \"stage_coverage\": {:.4},\n",
                "    \"note\": \"same replay instrumented (metrics + stage spans, the default) vs \
                 force-disabled; the delta logs must be byte-identical, stage spans must tile >= \
                 95% of each advance, and the instrumented wall must stay within 1.10x\"\n",
                "  }}\n",
                "}}\n",
            ),
            v.tuples,
            v.levels,
            v.rounds,
            v.output_tuples,
            v.lineage_nodes,
            v.tree_walker_ms,
            v.arena_memoized_ms,
            v.speedup(),
            v.max_sum_delta,
            self.tp_scale,
            self.hardware_threads,
            s.tuples,
            s.arrivals,
            s.advances,
            s.incremental_ms,
            s.naive_rebatch_ms,
            s.speedup(),
            s.inserts,
            s.extends,
            s.batch_equal,
            o.tuples,
            o.advances,
            o.rounds,
            o.instrumented_ms,
            o.baseline_ms,
            o.overhead_ratio(),
            o.logs_identical,
            o.prometheus_ok,
            o.json_ok,
            o.trace_ok,
            o.stage_coverage,
        )
    }

    /// Every failed gate of every section, one message each, prefixed by
    /// the JSON key it reads (empty = the run passes).
    pub fn gates(&self) -> Vec<String> {
        let mut out = self.valuation.gates();
        out.extend(self.streaming.gates());
        out.extend(self.observability.gates());
        out
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = self.valuation.render();
        let (s, o) = (&self.streaming, &self.observability);
        let _ = writeln!(
            out,
            "\n== BENCH lawa: continuous vs naive re-batch ({} tuples/rel, {} advances) ==\n\
             incremental engine     {:>9.1} ms   ({} inserts, {} extends, all 3 ops)\n\
             naive re-run per wmark {:>9.1} ms\n\
             speedup                {:>9.2}×   (batch-equal: {})",
            s.tuples,
            s.advances,
            s.incremental_ms,
            s.inserts,
            s.extends,
            s.naive_rebatch_ms,
            s.speedup(),
            s.batch_equal,
        );
        let _ = writeln!(
            out,
            "\n== BENCH lawa: observability overhead ({} tuples/rel, {} advances, min of {} rounds) ==\n\
             instrumented           {:>9.1} ms   (metrics + stage spans, the default)\n\
             uninstrumented         {:>9.1} ms   (every layer force-disabled)\n\
             overhead               {:>9.2}×   (gate <= 1.10)\n\
             gates                  logs-identical: {}  prometheus: {}  json: {}  trace: {}  stage coverage: {:.1}%",
            o.tuples,
            o.advances,
            o.rounds,
            o.instrumented_ms,
            o.baseline_ms,
            o.overhead_ratio(),
            o.logs_identical,
            o.prometheus_ok,
            o.json_ok,
            o.trace_ok,
            o.stage_coverage * 100.0,
        );
        let _ = writeln!(
            out,
            "\nTP_SCALE={}, {} hardware thread(s)",
            self.tp_scale, self.hardware_threads
        );
        out
    }
}

/// Fig. 11a–c: the three TP set operations over the (simulated) WebKit
/// dataset and its shifted counterpart.
pub fn fig11_webkit() -> Vec<ExperimentResult> {
    let mut vars = VarTable::new();
    let max_size = *small_sizes().last().expect("non-empty");
    let r = tp_workloads::webkit::generate(
        &WebkitConfig {
            files: max_size / 3,
            tuples: max_size,
            ..Default::default()
        },
        &mut vars,
    );
    let s = shifted_copy(&r, "s", 10_000, 5, &mut vars);
    real_world_sweep("Fig. 11", "WebKit (simulated)", &r, &s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lawa_valuation_bench_is_consistent_and_memoization_wins() {
        let b = lawa_valuation_bench(4_000, 48, 8);
        assert!(b.output_tuples > 0);
        assert!(
            b.max_sum_delta < 1e-6,
            "paths disagree: {}",
            b.max_sum_delta
        );
        // Correctness only here: the ≥2× speedup is a wall-clock property,
        // gated by `experiments -- bench_lawa` on a release build —
        // asserting a timing ratio inside `cargo test` on a shared runner
        // would flake on noisy neighbors.
        assert!(b.tree_walker_ms > 0.0 && b.arena_memoized_ms > 0.0);
        assert!(b.speedup().is_finite());
    }

    #[test]
    fn streaming_bench_is_batch_equal() {
        let b = streaming_bench(1_500, 100);
        assert!(b.batch_equal, "stream/naive/batch results diverged");
        assert!(b.advances > 1);
        assert!(b.inserts > 0);
        assert!(b.incremental_ms > 0.0 && b.naive_rebatch_ms > 0.0);
        assert!(b.speedup().is_finite());
    }

    /// A report whose every reading sits comfortably inside its gate.
    fn passing_report() -> BenchReport {
        BenchReport {
            valuation: LawaValuationBench {
                tuples: 100,
                levels: 4,
                rounds: 2,
                output_tuples: 100,
                lineage_nodes: 1_000,
                tree_walker_ms: 10.0,
                arena_memoized_ms: 1.0,
                max_sum_delta: 0.0,
            },
            streaming: StreamingBench {
                tuples: 100,
                arrivals: 200,
                advances: 4,
                incremental_ms: 1.0,
                naive_rebatch_ms: 10.0,
                inserts: 10,
                extends: 2,
                batch_equal: true,
            },
            observability: ObservabilityBench {
                tuples: 100,
                advances: 4,
                rounds: 1,
                instrumented_ms: 1.0,
                baseline_ms: 1.0,
                logs_identical: true,
                prometheus_ok: true,
                json_ok: true,
                trace_ok: true,
                stage_coverage: 1.0,
            },
            tp_scale: 0.1,
            hardware_threads: 2,
        }
    }

    /// The object keys of `json` in document order (the report has no
    /// escaped quotes, so every odd `"`-split piece is a string and a
    /// string followed by `:` is a key).
    fn keys(json: &str) -> Vec<&str> {
        let pieces: Vec<&str> = json.split('"').collect();
        (1..pieces.len())
            .step_by(2)
            .filter(|&i| {
                pieces
                    .get(i + 1)
                    .is_some_and(|next| next.trim_start().starts_with(':'))
            })
            .map(|i| pieces[i])
            .collect()
    }

    #[test]
    fn each_doctored_field_trips_exactly_its_own_gate() {
        assert_eq!(passing_report().gates(), Vec::<String>::new());
        type Doctor = fn(&mut BenchReport);
        let doctors: [(&str, Doctor); 12] = [
            ("speedup", |r| r.valuation.arena_memoized_ms = 6.0),
            ("max_sum_delta", |r| r.valuation.max_sum_delta = 1e-3),
            ("max_sum_delta", |r| r.valuation.max_sum_delta = f64::NAN),
            ("streaming.batch_equal", |r| r.streaming.batch_equal = false),
            ("streaming.speedup", |r| r.streaming.naive_rebatch_ms = 1.5),
            ("observability.logs_identical", |r| {
                r.observability.logs_identical = false
            }),
            ("observability.prometheus_ok", |r| {
                r.observability.prometheus_ok = false
            }),
            ("observability.json_ok", |r| r.observability.json_ok = false),
            ("observability.trace_ok", |r| {
                r.observability.trace_ok = false
            }),
            ("observability.stage_coverage", |r| {
                r.observability.stage_coverage = 0.9
            }),
            ("observability.stage_coverage", |r| {
                r.observability.stage_coverage = f64::NAN
            }),
            ("observability.overhead_ratio", |r| {
                r.observability.instrumented_ms = 1.2
            }),
        ];
        for (key, doctor) in doctors {
            let mut report = passing_report();
            doctor(&mut report);
            let tripped = report.gates();
            assert_eq!(tripped.len(), 1, "{key}: {tripped:?}");
            assert!(
                tripped[0].starts_with(&format!("{key}:")),
                "{key} tripped the wrong gate: {tripped:?}"
            );
        }
    }

    #[test]
    fn report_json_is_valid_and_keeps_the_kept_keys() {
        let json = passing_report().to_json();
        tp_obs::json::validate(&json).expect("report JSON is well-formed");
        assert_eq!(
            keys(&json),
            [
                // Valuation (top level).
                "experiment",
                "tuples",
                "levels",
                "rounds",
                "output_tuples",
                "lineage_nodes",
                "tree_walker_ms",
                "arena_memoized_ms",
                "speedup",
                "max_sum_delta",
                "lineage_equality",
                "tp_scale",
                "hardware_threads",
                "streaming",
                "tuples",
                "arrivals",
                "advances",
                "incremental_ms",
                "naive_rebatch_ms",
                "speedup",
                "inserts",
                "extends",
                "batch_equal",
                "observability",
                "tuples",
                "advances",
                "rounds",
                "instrumented_ms",
                "baseline_ms",
                "overhead_ratio",
                "logs_identical",
                "prometheus_ok",
                "json_ok",
                "trace_ok",
                "stage_coverage",
                "note",
            ]
        );
        // A non-finite reading cannot reach the artifact: it renders as
        // `NaN`/`inf`, which the validator rejects.
        let mut report = passing_report();
        report.valuation.max_sum_delta = f64::NAN;
        assert!(tp_obs::json::validate(&report.to_json()).is_err());
    }

    #[test]
    fn measured_report_is_valid_and_correct() {
        let report = BenchReport {
            valuation: lawa_valuation_bench(800, 8, 2),
            streaming: streaming_bench(600, 80),
            observability: observability_bench(400, 16, 1),
            tp_scale: 1.0,
            hardware_threads: 1,
        };
        tp_obs::json::validate(&report.to_json()).expect("report JSON is well-formed");
        // Only the timing gates may fail on a debug build / shared runner.
        for msg in report.gates() {
            assert!(
                [
                    "speedup:",
                    "streaming.speedup:",
                    "observability.overhead_ratio:"
                ]
                .iter()
                .any(|timing| msg.starts_with(timing)),
                "correctness gate failed: {msg}"
            );
        }
        let rendered = report.render();
        assert!(rendered.contains("memoized valuation"));
        assert!(rendered.contains("naive re-batch"));
        assert!(rendered.contains("observability overhead"));
    }

    #[test]
    fn tables_render() {
        let t2 = table2_support();
        assert!(t2.contains("LAWA"));
        assert!(t2.contains("Table II"));
    }

    #[test]
    fn sweep_renders_and_skips_unsupported() {
        let mut vars = VarTable::new();
        let (r, s) = tp_workloads::synth::generate(&SynthConfig::single_fact(200, 3), &mut vars);
        let res = sweep(
            "Fig. X",
            "test",
            "tuples",
            &[Approach::Lawa, Approach::Ti],
            SetOp::Except,
            vec![("200".into(), r, s)],
        );
        assert_eq!(res.series.len(), 2);
        assert!(res.series_of("LAWA").unwrap().values[0].is_some());
        assert!(res.series_of("TI").unwrap().values[0].is_none());
        let rendered = res.render();
        assert!(rendered.contains("Fig. X"));
        assert!(rendered.contains('-'));
    }
}
#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn csv_rendering() {
        let res = ExperimentResult {
            id: "Fig. T".into(),
            title: "t".into(),
            x_label: "tuples".into(),
            xs: vec!["1K".into(), "2K".into()],
            series: vec![
                Series {
                    name: "LAWA".into(),
                    values: vec![Some(1.5), Some(3.0)],
                },
                Series {
                    name: "NORM".into(),
                    values: vec![Some(9.0), None],
                },
            ],
            notes: vec![],
        };
        let csv = res.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "tuples,LAWA,NORM");
        assert_eq!(lines[1], "1K,1.500,9.000");
        assert_eq!(lines[2], "2K,3.000,"); // capped cell empty
    }
}
