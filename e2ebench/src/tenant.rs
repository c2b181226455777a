//! `tenant_ingest`: a [`StreamServer`] with eight tenants on one wave
//! schedule, fed row by row through `push_row` (each tenant registers its
//! variables in its own sliding registry).
//!
//! One hot tenant carries ~95% of the rows: its advances release
//! thousands of tuples (far above `region_min_tuples`), and its rows
//! arrive shuffled under a wide lateness bound of two epochs. The seven
//! small tenants are the shipped `multi_tenant_alerts` shape — a few
//! dozen rows per epoch, shuffled only within their epoch. Every tenant's
//! sink is a `ValuatingSink` on `−Tp` only; no tenant runs a plan. Ingest,
//! drain, sweep, seal/retire and var release do the work; pipeline and
//! valuation are nearly idle.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tp_core::arena::{LineageArena, MAX_SHARDS};
use tp_core::ops::{self, SetOp};
use tp_core::prob;
use tp_core::relation::VarTable;
use tp_stream::{
    BufferKind, CountingSink, IngestOutcome, MaterializingSink, ObsConfig, ServerConfig,
    StreamServer, StreamSink, TenantId, ValuatingSink,
};
use tp_workloads::{multi_tenant_stream, MultiTenantConfig, TenantEvent, TenantScript};

use crate::report::{nproc, p50_p99, phase_done, phase_start, run_rounds, Metrics, Ops};
use crate::sink::{Fingerprint, TimedSink};
use crate::stream::{emit_latencies_ms, stream_layers, AdvanceAgg};
use crate::trace::{Attribution, Call};
use crate::{finish, Args, Round};

/// Time points per epoch; every tenant advances at mid-epoch and epoch end.
const STRIDE: i64 = 64;
const EPOCHS: usize = 32;
const SMALL_TENANTS: usize = 7;
/// Rows per side per epoch of a small tenant, over this many facts.
const SMALL_PER_EPOCH: usize = 16;
const SMALL_FACTS: usize = 8;
/// Rows per side per epoch of the hot tenant, over this many facts.
const HOT_PER_EPOCH: usize = 2048;
const HOT_FACTS: usize = 512;
/// The hot tenant's arrival delay bound: two epochs.
const HOT_LATENESS: i64 = 2 * STRIDE;
const REGION_MIN_TUPLES: usize = 512;

/// The hot tenant first, then the small ones.
fn scripts(seed: u64) -> Vec<TenantScript> {
    let small = multi_tenant_stream(&MultiTenantConfig {
        tenants: SMALL_TENANTS,
        epochs: EPOCHS,
        per_epoch: SMALL_PER_EPOCH,
        facts: SMALL_FACTS,
        stride: STRIDE,
        seed,
    });
    let hot = multi_tenant_stream(&MultiTenantConfig {
        tenants: 1,
        epochs: EPOCHS,
        per_epoch: HOT_PER_EPOCH,
        facts: HOT_FACTS,
        stride: STRIDE,
        seed: seed ^ 0x407,
    })
    .remove(0);
    let mut out = vec![shuffle_wide(hot, seed)];
    out.extend(small);
    out
}

/// Re-orders a script's arrivals by `start + delay`, `delay` uniform in
/// `[0, HOT_LATENESS]`, keeping its wave schedule: before the advance to
/// `w` it pushes every row that has arrived by `w + HOT_LATENESS`, which
/// includes every row starting below `w` — so no row is ever late.
fn shuffle_wide(src: TenantScript, seed: u64) -> TenantScript {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5b0f);
    let mut waves = Vec::new();
    let mut arrivals = Vec::new();
    for e in src.events {
        match e {
            TenantEvent::Advance(w) => waves.push(w),
            TenantEvent::Arrive { interval, .. } => {
                let at = interval.start() + rng.random_range(0..=HOT_LATENESS);
                arrivals.push((at, rng.random::<u64>(), e));
            }
        }
    }
    arrivals.sort_by_key(|a| (a.0, a.1));
    let mut events = Vec::with_capacity(arrivals.len() + waves.len());
    let mut rest = arrivals.into_iter().peekable();
    for w in waves {
        while let Some((at, ..)) = rest.peek() {
            if *at >= w + HOT_LATENESS {
                break;
            }
            events.push(rest.next().expect("peeked").2);
        }
        events.push(TenantEvent::Advance(w));
    }
    events.extend(rest.map(|a| a.2));
    TenantScript {
        name: "hot".into(),
        events,
    }
}

type Sink<S> = TimedSink<Arc<VarTable>, S>;

fn server<S: StreamSink + Send>(
    scripts: &[TenantScript],
    traced: bool,
    keep: bool,
    inner: impl Fn() -> S,
) -> (StreamServer<Sink<S>>, Vec<TenantId>) {
    let mut server = StreamServer::new(ServerConfig {
        ops: SetOp::ALL.to_vec(),
        keep_epochs: 2,
        shards: MAX_SHARDS,
        workers: nproc(),
        region_min_tuples: REGION_MIN_TUPLES,
        buffer: BufferKind::Sorted,
        obs: ObsConfig {
            enabled: traced,
            tenant: None,
            registry: None,
        },
        reopt_every: None,
    });
    let ids = scripts
        .iter()
        .map(|script| {
            let ctx = tp_obs::ctx_id(&script.name);
            server.add_tenant_with(script.name.clone(), |vars| {
                let valuating =
                    ValuatingSink::new(inner(), Arc::clone(vars)).with_ops(&[SetOp::Except]);
                TimedSink::new(valuating, ctx, traced, keep)
            })
        })
        .collect();
    (server, ids)
}

struct Replay {
    wall_ns: u64,
    latencies: Vec<f64>,
    arrivals: u64,
    ops: Ops,
    late: u64,
    attr: Attribution,
    agg: AdvanceAgg,
    wave_ns: Vec<f64>,
    hot_region_workers: usize,
    live_vars_peak: usize,
}

/// Replays every tenant's script as collective waves: each tenant pushes
/// its rows up to its next advance, then the whole fleet advances.
fn drive<S: StreamSink + Send>(
    server: &mut StreamServer<Sink<S>>,
    ids: &[TenantId],
    scripts: Vec<TenantScript>,
    traced: bool,
) -> Replay {
    let waves: Vec<i64> = scripts[0]
        .events
        .iter()
        .filter_map(|e| match e {
            TenantEvent::Advance(w) => Some(*w),
            TenantEvent::Arrive { .. } => None,
        })
        .collect();
    let total: usize = scripts.iter().map(TenantScript::arrivals).sum();
    let mut iters: Vec<_> = scripts.into_iter().map(|s| s.events.into_iter()).collect();
    let mut starts = Vec::with_capacity(total);
    let mut push_ret = Vec::with_capacity(total);
    let mut ret = Vec::with_capacity(waves.len() + 1);
    let mut rep = Replay {
        wall_ns: 0,
        latencies: Vec::new(),
        arrivals: total as u64,
        ops: Ops::default(),
        late: 0,
        attr: Attribution::default(),
        agg: AdvanceAgg::default(),
        wave_ns: Vec::new(),
        hot_region_workers: 0,
        live_vars_peak: 0,
    };
    if traced {
        tp_obs::clear_trace();
    }
    let first = tp_obs::now_ns();
    for wave in 0..=waves.len() {
        for (k, events) in iters.iter_mut().enumerate() {
            for e in events.by_ref() {
                let TenantEvent::Arrive {
                    side,
                    fact,
                    interval,
                    p,
                } = e
                else {
                    // All tenants share the wave schedule.
                    rep.ops.check(e == TenantEvent::Advance(waves[wave]));
                    break;
                };
                starts.push(interval.start());
                let t0 = if traced { tp_obs::now_ns() } else { 0 };
                let res = server.push_row(ids[k], side, fact, interval, p);
                let t1 = tp_obs::now_ns();
                push_ret.push(t1);
                let accepted = matches!(res, Ok(IngestOutcome::Accepted));
                rep.ops.check(accepted);
                rep.late += u64::from(!accepted);
                if traced {
                    rep.attr.leaf("engine.push", t1 - t0);
                }
            }
        }
        let t0 = tp_obs::now_ns();
        let results = if wave < waves.len() {
            server.advance_all(waves[wave])
        } else {
            server.finish_all()
        };
        let t1 = tp_obs::now_ns();
        ret.push(t1);
        for r in &results {
            rep.ops.check(r.is_ok());
        }
        if traced {
            let h0 = tp_obs::now_ns();
            for r in results.iter().flatten() {
                rep.agg.add(r);
            }
            rep.wave_ns.push((t1 - t0) as f64);
            rep.hot_region_workers = rep
                .hot_region_workers
                .max(server.engine(ids[0]).region_workers());
            let live: usize = ids.iter().map(|&id| server.vars(id).live_vars()).sum();
            rep.live_vars_peak = rep.live_vars_peak.max(live);
            rep.attr.drain_ns += tp_obs::now_ns() - h0;
            rep.attr
                .step(&[Call::new("server.wave", t0, t1)], &[], "engine.push");
        }
    }
    rep.wall_ns = ret.last().copied().unwrap_or(first) - first - rep.attr.drain_ns;
    for &id in ids {
        rep.ops.attempted += server.sink(id).valuation_batches;
    }
    rep.latencies = emit_latencies_ms(&starts, &push_ret, &waves, &ret);
    rep
}

fn round(args: &Args, i: usize) -> (Round, Vec<Fingerprint>) {
    let traced = args.traced(i);
    let arena = LineageArena::shared(MAX_SHARDS);
    let _scope = LineageArena::enter(&arena);
    tp_stream::set_obs_enabled(traced);
    let t0 = Instant::now();
    let scripts = scripts(args.seed);
    let (mut server, ids) = server(&scripts, traced, false, CountingSink::new);
    let setup_s = t0.elapsed().as_secs_f64();
    let planned: usize = scripts
        .iter()
        .map(|s| s.arrivals() + 2 * (s.advances() + 1))
        .sum();
    phase_start(&format!("round{i}"), planned as u64);
    let mut rep = drive(&mut server, &ids, scripts, traced);
    phase_done(&format!("round{i}"), rep.ops);
    let pct = p50_p99(&mut rep.latencies);
    let fingerprints = ids.iter().map(|&id| server.sink(id).fingerprint).collect();
    let traced_part = traced.then(|| {
        let attr = std::mem::take(&mut rep.attr);
        let mut m = Metrics::default();
        let delta_calls = ids.iter().map(|&id| server.sink(id).delta_calls).sum();
        let mut advance_ns: Vec<f64> = attr.advance_span_ns.iter().map(|&n| n as f64).collect();
        stream_layers(
            &mut m,
            &attr,
            &rep.agg,
            "engine.push",
            &mut advance_ns,
            delta_calls,
        );
        m.set("engine.push.late", rep.late as f64, "count");
        m.set("vars.live_peak", rep.live_vars_peak as f64, "count");
        let (w50, w99) = p50_p99(&mut rep.wave_ns);
        m.set("server.waves", rep.wave_ns.len() as f64, "count");
        m.set("server.wave_p50_ms", w50 * 1e-6, "ms");
        m.set("server.wave_p99_ms", w99 * 1e-6, "ms");
        m.set("server.push_row_busy_s", attr.busy_s("engine.push"), "s");
        m.set(
            "server.hot_region_workers",
            rep.hot_region_workers as f64,
            "count",
        );
        (attr, m)
    });
    let round = Round {
        setup_s,
        wall_s: rep.wall_ns as f64 * 1e-9,
        tuples: rep.arrivals,
        pct,
        samples: rep.arrivals,
        ops: rep.ops,
        traced: traced_part,
    };
    (round, fingerprints)
}

/// Replays once more with materializing sinks, outside the timed rounds,
/// and checks every tenant against batch LAWA over its own rows.
fn oracle(args: &Args, fingerprints: &[Vec<Fingerprint>]) -> Ops {
    let arena = LineageArena::shared(MAX_SHARDS);
    let _scope = LineageArena::enter(&arena);
    tp_stream::set_obs_enabled(false);
    let scripts = scripts(args.seed);
    let (mut server, ids) = server(&scripts, false, true, MaterializingSink::new);
    let rep = drive(&mut server, &ids, scripts.clone(), false);
    let mut ops = rep.ops;
    let reference: Vec<Fingerprint> = ids.iter().map(|&id| server.sink(id).fingerprint).collect();
    for fp in fingerprints {
        ops.check(*fp == reference);
    }
    for (script, &id) in scripts.iter().zip(&ids) {
        let mut vars = VarTable::new();
        let (r, s) = script.relations(&mut vars);
        let sink = server.sink(id);
        for op in SetOp::ALL {
            let batch = ops::apply(op, &r, &s);
            let ok = sink.inner().relation(op).canonicalized() == batch.canonicalized();
            if !ok {
                println!(
                    "# oracle: tenant {} {op} differs from batch LAWA",
                    script.name
                );
            }
            ops.check(ok);
            if op == SetOp::Except {
                let by_start: std::collections::HashMap<_, _> = batch
                    .iter()
                    .map(|t| ((t.fact.clone(), t.interval.start()), t.lineage))
                    .collect();
                let kept = sink.kept();
                let ok = kept.len() == batch.len()
                    && kept.iter().all(|v| {
                        by_start
                            .get(&(v.fact.clone(), v.interval.start()))
                            .and_then(|l| prob::marginal(l, &vars).ok())
                            .is_some_and(|p| (p - v.p).abs() <= 1e-12)
                    });
                if !ok {
                    println!(
                        "# oracle: tenant {} valuated inserts differ from prob::marginal",
                        script.name
                    );
                }
                ops.check(ok);
            }
        }
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
        "# tenant_ingest: 1 hot tenant ({HOT_PER_EPOCH} rows/side/epoch, lateness {HOT_LATENESS}) + {SMALL_TENANTS} small ({SMALL_PER_EPOCH} rows/side/epoch), {EPOCHS} epochs, {} wave workers",
        nproc()
    );
    phase_start(
        "oracle",
        fingerprints.len() as u64 + 4 * (SMALL_TENANTS as u64 + 1),
    );
    let oracle_ops = oracle(args, &fingerprints);
    phase_done("oracle", oracle_ops);
    finish(args, rounds, rss, oracle_ops)
}
