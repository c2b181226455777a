//! `alert_pipeline`: one reclaiming [`StreamEngine`] maintaining the
//! join+aggregate alert plan on its `∪`/`∩` taps, with a [`ValuatingSink`]
//! on all three operations.
//!
//! Input: short-lived join keys. [`LIVE_KEYS`] keys are live in every
//! epoch; each lives [`KEY_LIFETIME_EPOCHS`] epochs with one tuple per side
//! per epoch, so the plan's aggregate groups reach hundreds of join rows.
//! Arrivals are nearly in order (lateness a quarter epoch) and every
//! advance closes one epoch's worth of tuples (tens), below the region
//! executor's `min_tuples`: the sweep stays sequential, and the pipeline
//! and valuation do the work.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tp_core::arena::{LineageArena, MAX_SHARDS};
use tp_core::fact::Fact;
use tp_core::interval::Interval;
use tp_core::ops::{self, SetOp};
use tp_core::prob;
use tp_core::relation::{TpRelation, VarTable};
use tp_relalg::{bind_sources, AggFn, Plan, Relation, Schema};
use tp_stream::{
    encode_relation, BufferKind, CountingSink, EngineConfig, IngestOutcome, MaterializingSink,
    ObsConfig, ParallelConfig, ReclaimConfig, ReplayConfig, ReplayEvent, StreamEngine,
    StreamScript, StreamSink, ValuatingSink, WatermarkPolicy,
};

use crate::report::{nproc, p50_p99, phase_done, phase_start, run_rounds, Metrics, Ops};
use crate::sink::{Fingerprint, TimedSink};
use crate::stream::{emit_latencies_ms, stream_layers, AdvanceAgg};
use crate::trace::{Attribution, Call};
use crate::{finish, Args, Round};

/// Time points per epoch.
const STRIDE: i64 = 64;
/// Epochs per replay (2 × 16 × 125 = 4k arrivals).
const EPOCHS: i64 = 125;
/// Join keys live in every epoch.
const LIVE_KEYS: i64 = 16;
/// Epochs one join key lives. Key lifetime dominates this workload's cost
/// (the join and aggregate state per key grow with it); it is pinned here
/// and recorded in BENCHMARK.json, not tuned.
const KEY_LIFETIME_EPOCHS: i64 = 8;
/// Maximum arrival delay after a tuple's start.
const LATENESS: i64 = STRIDE / 4;
/// The engine's sequential-sweep floor (`ParallelConfig::min_tuples`).
const MIN_TUPLES: usize = 512;
const TAPS: [SetOp; 2] = [SetOp::Union, SetOp::Intersect];

struct Input {
    r: TpRelation,
    s: TpRelation,
    vars: VarTable,
    script: StreamScript,
}

/// Builds the short-lived-key pair and its replay script from `seed`.
fn generate(seed: u64) -> Input {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_epoch = LIVE_KEYS / KEY_LIFETIME_EPOCHS;
    let mut rows: [Vec<(Fact, Interval, f64)>; 2] = [Vec::new(), Vec::new()];
    for e in 0..EPOCHS {
        for age in 0..KEY_LIFETIME_EPOCHS {
            for j in 0..per_epoch {
                // Keys born in epochs -(lifetime - 1) .. e; non-negative ids.
                let key = (e - age + KEY_LIFETIME_EPOCHS) * per_epoch + j;
                for side in &mut rows {
                    // Inside the epoch, so one key's tuples never overlap.
                    let off = rng.random_range(0..STRIDE / 2);
                    let len = rng.random_range(STRIDE / 4..=STRIDE / 2);
                    let start = e * STRIDE + off;
                    let p = rng.random_range(0.05..0.95);
                    side.push((Fact::single(key), Interval::at(start, start + len), p));
                }
            }
        }
    }
    let mut vars = VarTable::new();
    let [rows_r, rows_s] = rows;
    let r = TpRelation::base("r", rows_r, &mut vars).expect("key rows are duplicate-free");
    let s = TpRelation::base("s", rows_s, &mut vars).expect("key rows are duplicate-free");
    let script = StreamScript::from_pair(
        &r,
        &s,
        &ReplayConfig {
            lateness: LATENESS,
            advance_every: 2 * LIVE_KEYS as usize,
            seed: seed ^ 0xa1e7,
        },
    );
    Input { r, s, vars, script }
}

/// The alert rule: join the two taps on the key, then count and take the
/// latest end per key (source rows are `[k, ts, te]`).
fn plan() -> Plan {
    let leaf = || Plan::values(Relation::empty(Schema::new(["k", "ts", "te"])));
    leaf()
        .hash_join(leaf(), vec![0], vec![0])
        .aggregate(vec![0], vec![AggFn::Count, AggFn::Max(2)])
}

fn engine(traced: bool) -> StreamEngine {
    let cfg = EngineConfig {
        ops: SetOp::ALL.to_vec(),
        policy: WatermarkPolicy::Manual,
        verify_batch: false,
        reclaim: Some(ReclaimConfig {
            keep_epochs: 2,
            shards: MAX_SHARDS,
            vars: None,
            interior: true,
        }),
        parallel: Some(ParallelConfig {
            workers: nproc(),
            min_tuples: MIN_TUPLES,
            cuts: None,
        }),
        buffer: BufferKind::Sorted,
        obs: ObsConfig {
            enabled: traced,
            tenant: Some("alert".into()),
            registry: None,
        },
        reopt_every: None,
    };
    StreamEngine::with_plan(cfg, &plan(), &TAPS).expect("alert plan compiles")
}

/// What one replay measured.
struct Replay {
    wall_ns: u64,
    latencies: Vec<f64>,
    ops: Ops,
    late: u64,
    attr: Attribution,
    agg: AdvanceAgg,
    advance_ns: Vec<f64>,
    state_rows_peak: usize,
}

/// Replays `events` into `engine` as fast as it accepts them.
fn drive<S: StreamSink>(
    engine: &mut StreamEngine,
    sink: &mut TimedSink<&VarTable, S>,
    events: Vec<ReplayEvent>,
    traced: bool,
) -> Replay {
    let mut starts = Vec::with_capacity(events.len());
    let mut marks = Vec::new();
    for e in &events {
        match e {
            ReplayEvent::Arrive(_, t) => starts.push(t.interval.start()),
            ReplayEvent::Advance(w) => marks.push(*w),
        }
    }
    let mut push_ret = Vec::with_capacity(starts.len());
    let mut ret = Vec::with_capacity(marks.len() + 1);
    let mut rep = Replay {
        wall_ns: 0,
        latencies: Vec::new(),
        ops: Ops::default(),
        late: 0,
        attr: Attribution::default(),
        agg: AdvanceAgg::default(),
        advance_ns: Vec::new(),
        state_rows_peak: 0,
    };
    if traced {
        tp_obs::clear_trace();
    }
    let first = tp_obs::now_ns();
    let after_advance = |rep: &mut Replay,
                         engine: &StreamEngine,
                         res: &Result<tp_stream::AdvanceStats, tp_stream::StreamError>,
                         t0: u64,
                         t1: u64| {
        rep.ops.check(res.is_ok());
        if !traced {
            return;
        }
        let h0 = tp_obs::now_ns();
        if let Ok(stats) = res {
            rep.agg.add(stats);
        }
        rep.advance_ns.push((t1 - t0) as f64);
        if let Some(p) = engine.pipeline() {
            rep.state_rows_peak = rep.state_rows_peak.max(p.state_rows());
        }
        rep.attr.drain_ns += tp_obs::now_ns() - h0;
        rep.attr
            .step(&[Call::new("engine.advance", t0, t1)], &[], "engine.push");
    };
    for e in events {
        match e {
            ReplayEvent::Arrive(side, t) => {
                let t0 = if traced { tp_obs::now_ns() } else { 0 };
                let outcome = engine.push(side, t);
                let t1 = tp_obs::now_ns();
                push_ret.push(t1);
                let accepted = outcome == IngestOutcome::Accepted;
                rep.ops.check(accepted);
                rep.late += u64::from(!accepted);
                if traced {
                    rep.attr.leaf("engine.push", t1 - t0);
                }
            }
            ReplayEvent::Advance(w) => {
                let t0 = tp_obs::now_ns();
                let res = engine.advance(w, sink);
                let t1 = tp_obs::now_ns();
                ret.push(t1);
                after_advance(&mut rep, engine, &res, t0, t1);
            }
        }
    }
    let t0 = tp_obs::now_ns();
    let res = engine.finish(sink);
    let t1 = tp_obs::now_ns();
    ret.push(t1);
    after_advance(&mut rep, engine, &res, t0, t1);
    rep.wall_ns = t1 - first - rep.attr.drain_ns;
    // Every valuation batch the sink ran is one op; a failing one panics
    // inside the shipped sink, which the wrapper records as an abort.
    rep.ops.attempted += sink.valuation_batches;
    rep.latencies = emit_latencies_ms(&starts, &push_ret, &marks, &ret);
    rep
}

fn round(args: &Args, i: usize) -> (Round, Fingerprint) {
    let traced = args.traced(i);
    let arena = LineageArena::shared(MAX_SHARDS);
    let _scope = LineageArena::enter(&arena);
    tp_stream::set_obs_enabled(traced);
    let t0 = Instant::now();
    let Input { vars, script, .. } = generate(args.seed);
    let mut engine = engine(traced);
    let ctx = tp_obs::ctx_id("alert");
    let mut sink = TimedSink::new(
        ValuatingSink::new(CountingSink::new(), &vars),
        ctx,
        traced,
        false,
    );
    let setup_s = t0.elapsed().as_secs_f64();
    let arrivals = script.arrivals() as u64;
    phase_start(
        &format!("round{i}"),
        arrivals + 2 * (script.advances() as u64 + 1),
    );
    let mut rep = drive(&mut engine, &mut sink, script.events, traced);
    phase_done(&format!("round{i}"), rep.ops);
    let pct = p50_p99(&mut rep.latencies);
    let traced_part = traced.then(|| {
        let attr = std::mem::take(&mut rep.attr);
        let mut m = Metrics::default();
        stream_layers(
            &mut m,
            &attr,
            &rep.agg,
            "engine.push",
            &mut rep.advance_ns,
            sink.delta_calls,
        );
        m.set("engine.push.late", rep.late as f64, "count");
        m.set("pipeline.deltas", rep.agg.pipeline_deltas as f64, "count");
        m.set(
            "pipeline.state_rows_peak",
            rep.state_rows_peak as f64,
            "rows",
        );
        let mut ops_s = 0.0;
        for (name, key) in [
            ("pipeline.op.source_s", "pipeline.op.source"),
            ("pipeline.op.hash_join_s", "pipeline.op.hash_join"),
            ("pipeline.op.aggregate_s", "pipeline.op.aggregate"),
        ] {
            m.set(name, attr.busy_s(key), "s");
            ops_s += attr.busy_s(key);
        }
        m.set(
            "pipeline.untraced_s",
            attr.busy_s("stage.finalize") - ops_s - attr.busy_s("sink.watermark"),
            "s",
        );
        // The pair's registry is append-only: every variable stays live.
        m.set("vars.live_peak", vars.live_vars() as f64, "count");
        (attr, m)
    });
    let round = Round {
        setup_s,
        wall_s: rep.wall_ns as f64 * 1e-9,
        tuples: arrivals,
        pct,
        samples: arrivals,
        ops: rep.ops,
        traced: traced_part,
    };
    (round, sink.fingerprint)
}

/// Replays the script once more with a materializing sink, outside the
/// timed rounds, and checks it against the batch oracles.
fn oracle(args: &Args, fingerprints: &[Fingerprint]) -> Ops {
    let arena = LineageArena::shared(MAX_SHARDS);
    let _scope = LineageArena::enter(&arena);
    tp_stream::set_obs_enabled(false);
    let Input { r, s, vars, script } = generate(args.seed);
    let mut engine = engine(false);
    let mut sink = TimedSink::new(
        ValuatingSink::new(MaterializingSink::new(), &vars),
        tp_obs::ctx_id("alert"),
        false,
        true,
    );
    let rep = drive(&mut engine, &mut sink, script.events, false);
    let mut ops = rep.ops;
    for fp in fingerprints {
        ops.check(*fp == sink.fingerprint);
    }
    let batch: Vec<TpRelation> = SetOp::ALL
        .iter()
        .map(|&op| ops::apply(op, &r, &s))
        .collect();
    // Set-op deltas against batch LAWA on the script's pair.
    for (k, &op) in SetOp::ALL.iter().enumerate() {
        let ok = sink.inner().relation(op).canonicalized() == batch[k].canonicalized();
        if !ok {
            println!("# oracle: {op} deltas differ from batch LAWA");
        }
        ops.check(ok);
    }
    // The standing view against the batch plan over the batch taps.
    let schema = Schema::new(["k", "ts", "te"]);
    let tables: Vec<Relation> = TAPS
        .iter()
        .map(|&op| {
            let k = SetOp::ALL.iter().position(|&o| o == op).expect("tap op");
            encode_relation(&batch[k], &schema)
        })
        .collect();
    let mut expect = bind_sources(&plan(), &tables).execute().rows;
    expect.sort();
    let mut got = engine
        .pipeline()
        .expect("plan attached")
        .materialized()
        .rows;
    got.sort();
    if expect != got {
        println!("# oracle: standing view differs from the batch plan");
    }
    ops.check(expect == got);
    // Valuated inserts against the per-root marginal.
    for (k, &op) in SetOp::ALL.iter().enumerate() {
        let by_start: std::collections::HashMap<_, _> = batch[k]
            .iter()
            .map(|t| ((t.fact.clone(), t.interval.start()), t.lineage))
            .collect();
        let kept: Vec<_> = sink.kept().iter().filter(|v| v.op == op).collect();
        let ok = kept.len() == batch[k].len()
            && kept.iter().all(|v| {
                by_start
                    .get(&(v.fact.clone(), v.interval.start()))
                    .and_then(|l| prob::marginal(l, &vars).ok())
                    .is_some_and(|p| (p - v.p).abs() <= 1e-12)
            });
        if !ok {
            println!("# oracle: {op} valuated inserts differ from prob::marginal");
        }
        ops.check(ok);
    }
    ops
}

pub fn run(args: &Args) -> (bool, Ops, Metrics) {
    let mut fingerprints = Vec::new();
    let (rounds, rss) = run_rounds(args.seconds, args.min_rounds(), |i| {
        let (round, fp) = round(args, i);
        fingerprints.push(fp);
        round
    });
    println!(
        "# alert_pipeline: {} live keys x {EPOCHS} epochs, keys live {KEY_LIFETIME_EPOCHS} epochs, lateness {LATENESS}",
        LIVE_KEYS
    );
    phase_start("oracle", fingerprints.len() as u64 + 7);
    let oracle_ops = oracle(args, &fingerprints);
    phase_done("oracle", oracle_ops);
    finish(args, rounds, rss, oracle_ops)
}
