//! `batch_query`: the `tpdb query` path. A [`Database`] of §VII-B
//! synthetic pairs answers a fixed rotation of parsed TP set queries
//! (`∪`, `∩`, `−` and one nested query per pair), and every answer is
//! valuated with one `prob::marginal_batch` call. Batch LAWA and cold
//! valuation batches do the work; no ingest buffer, server, reclamation
//! or pipeline runs.

use std::time::Instant;

use tp_baselines::Approach;
use tp_core::arena::{LineageArena, MAX_SHARDS};
use tp_core::db::Database;
use tp_core::error::Result as CoreResult;
use tp_core::lineage::Lineage;
use tp_core::ops::{self, SetOp};
use tp_core::prob;
use tp_core::query::Query;
use tp_core::relation::TpRelation;
use tp_workloads::synth::{self, SynthConfig};

use crate::report::{p50_p99, phase_done, phase_start, run_rounds, Metrics, Ops};
use crate::trace::{Attribution, Call};
use crate::{finish, Args, Round};

/// Relation pairs `(a{i}, b{i})` in the database.
const PAIRS: usize = 4;
/// Tuples per relation, spread over `FACTS` facts.
const TUPLES: usize = 2000;
const FACTS: usize = 32;
/// Queries per round (the rotation of 16 distinct queries, repeated):
/// 20 samples beyond each round's p99.
const QUERIES: usize = 2000;

fn database(seed: u64) -> Database {
    let mut db = Database::new();
    for i in 0..PAIRS {
        let cfg = SynthConfig::with_facts(TUPLES, FACTS, seed.wrapping_mul(0x9e37) + i as u64);
        let (r, s) = synth::generate(&cfg, db.vars_mut());
        db.add_relation(format!("a{i}"), r)
            .expect("synth relations are duplicate-free");
        db.add_relation(format!("b{i}"), s)
            .expect("synth relations are duplicate-free");
    }
    db
}

/// Query `q` of the rotation.
fn query_text(q: usize) -> String {
    let i = q % PAIRS;
    let j = (i + 1) % PAIRS;
    match (q / PAIRS) % 4 {
        0 => format!("a{i} union b{i}"),
        1 => format!("a{i} intersect b{i}"),
        2 => format!("a{i} except b{i}"),
        _ => format!("(a{i} union b{i}) except (a{j} intersect b{j})"),
    }
}

/// `Query::eval`, with each set operation timed as a nested call.
fn eval_timed(q: &Query, db: &Database, calls: &mut Vec<Call>) -> CoreResult<TpRelation> {
    Ok(match q {
        Query::Rel(name) => db.relation(name)?.clone(),
        Query::Op(op, l, r) => {
            let left = eval_timed(l, db, calls)?;
            let right = eval_timed(r, db, calls)?;
            let t0 = tp_obs::now_ns();
            let out = ops::apply(*op, &left, &right);
            let key = match op {
                SetOp::Union => "ops.union",
                SetOp::Intersect => "ops.intersect",
                SetOp::Except => "ops.except",
            };
            calls.push(Call::new(key, t0, tp_obs::now_ns()));
            out
        }
        Query::Select(attr, value, q) => {
            ops::select_attr_eq(&eval_timed(q, db, calls)?, *attr, value)
        }
        Query::Project(cols, q) => ops::project(&eval_timed(q, db, calls)?, cols),
    })
}

/// The same query answered without LAWA, each operator by the fastest
/// baseline that supports it: `∪` by TPDB, `∩` by the Timeline Index and
/// `−` by NORM (the only one with `−`).
fn eval_reference(q: &Query, db: &Database) -> CoreResult<TpRelation> {
    match q {
        Query::Op(op, l, r) => {
            let (l, r) = (eval_reference(l, db)?, eval_reference(r, db)?);
            match op {
                SetOp::Union => Approach::Tpdb.run(*op, &l, &r),
                SetOp::Intersect => Approach::Ti.run(*op, &l, &r),
                SetOp::Except => Approach::Norm.run(*op, &l, &r),
            }
        }
        other => other.eval(db),
    }
}

/// Output tuples and summed marginals of one round, compared across rounds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Fingerprint {
    tuples: u64,
    p_sum: f64,
}

fn round(args: &Args, i: usize) -> (Round, Fingerprint) {
    let traced = args.traced(i);
    let arena = LineageArena::shared(MAX_SHARDS);
    let _scope = LineageArena::enter(&arena);
    tp_stream::set_obs_enabled(traced);
    let t0 = Instant::now();
    let db = database(args.seed);
    let texts: Vec<String> = (0..QUERIES).map(query_text).collect();
    let setup_s = t0.elapsed().as_secs_f64();
    // Input tuples each query reads (harness bookkeeping, untimed).
    let inputs: u64 = texts
        .iter()
        .map(|t| {
            let q = Query::parse(t).expect("rotation parses");
            q.relation_occurrences()
                .iter()
                .map(|(name, n)| db.relation(name).map_or(0, |r| r.len() * n) as u64)
                .sum::<u64>()
        })
        .sum();
    phase_start(&format!("round{i}"), 2 * QUERIES as u64);
    let mut ops = Ops::default();
    let mut fp = Fingerprint::default();
    let mut latencies = Vec::with_capacity(QUERIES);
    let mut attr = Attribution::default();
    let mut output_tuples = 0u64;
    if traced {
        tp_obs::clear_trace();
    }
    let first = tp_obs::now_ns();
    let mut last = first;
    for text in &texts {
        let t0 = tp_obs::now_ns();
        let (answer, calls, inner) = if traced {
            let parsed = Query::parse(text);
            let t1 = tp_obs::now_ns();
            let mut inner = Vec::new();
            let out = parsed.and_then(|q| eval_timed(&q, &db, &mut inner));
            let t2 = tp_obs::now_ns();
            let ps = out.as_ref().ok().map(|rel| {
                let lineages: Vec<Lineage> = rel.iter().map(|t| t.lineage).collect();
                prob::marginal_batch(&lineages, db.vars())
            });
            let t3 = tp_obs::now_ns();
            let calls = vec![
                Call::new("query.parse", t0, t1),
                Call::new("query.eval", t1, t2),
                Call::new("valuation", t2, t3),
            ];
            ((out, ps), calls, inner)
        } else {
            let out = Query::parse(text).and_then(|q| q.eval(&db));
            let ps = out.as_ref().ok().map(|rel| {
                let lineages: Vec<Lineage> = rel.iter().map(|t| t.lineage).collect();
                prob::marginal_batch(&lineages, db.vars())
            });
            ((out, ps), Vec::new(), Vec::new())
        };
        last = tp_obs::now_ns();
        latencies.push((last - t0) as f64 * 1e-6);
        let (out, ps) = answer;
        ops.check(out.is_ok());
        let ps = ps.and_then(Result::ok);
        ops.check(ps.is_some());
        if let (Ok(rel), Some(ps)) = (&out, &ps) {
            fp.tuples += rel.len() as u64;
            fp.p_sum += ps.iter().sum::<f64>();
            output_tuples += rel.len() as u64;
        }
        if traced {
            let h0 = tp_obs::now_ns();
            *attr.arg.entry("valuation").or_default() += out.as_ref().map_or(0, |r| r.len() as u64);
            attr.drain_ns += tp_obs::now_ns() - h0;
            attr.step(&calls, &inner, "query.eval");
        }
    }
    let wall_ns = last - first - attr.drain_ns;
    phase_done(&format!("round{i}"), ops);
    let traced_part = traced.then(|| {
        let mut m = Metrics::default();
        m.set("query.parse_s", attr.busy_s("query.parse"), "s");
        m.set("query.eval_s", attr.busy_s("query.eval"), "s");
        m.set("query.output_tuples", output_tuples as f64, "tuples");
        m.set("ops.union_s", attr.busy_s("ops.union"), "s");
        m.set("ops.intersect_s", attr.busy_s("ops.intersect"), "s");
        m.set("ops.except_s", attr.busy_s("ops.except"), "s");
        let roots = attr.arg("valuation");
        m.set("valuation.roots", roots as f64, "count");
        m.set("valuation.busy_s", attr.busy_s("valuation"), "s");
        m.set(
            "valuation.ns_per_root",
            attr.busy_s("valuation") * 1e9 / roots.max(1) as f64,
            "ns",
        );
        (attr, m)
    });
    let round = Round {
        setup_s,
        wall_s: wall_ns as f64 * 1e-9,
        tuples: inputs,
        samples: latencies.len() as u64,
        pct: p50_p99(&mut latencies),
        ops,
        traced: traced_part,
    };
    (round, fp)
}

/// Checks every distinct query of the rotation against the baselines
/// ([`eval_reference`]) and its marginals against the per-root
/// `prob::marginal`, outside the timed rounds; and every round's
/// fingerprint against the others.
fn oracle(args: &Args, fingerprints: &[Fingerprint]) -> Ops {
    let mut ops = Ops::default();
    for fp in fingerprints {
        ops.check(*fp == fingerprints[0]);
    }
    let arena = LineageArena::shared(MAX_SHARDS);
    let _scope = LineageArena::enter(&arena);
    tp_stream::set_obs_enabled(false);
    let db = database(args.seed);
    let mut texts: Vec<String> = (0..QUERIES).map(query_text).collect();
    texts.sort();
    texts.dedup();
    for text in &texts {
        let q = Query::parse(text).expect("rotation parses");
        let (Ok(got), Ok(reference)) = (q.eval(&db), eval_reference(&q, &db)) else {
            ops.check(false);
            ops.check(false);
            continue;
        };
        let ok = got.canonicalized() == reference.canonicalized();
        if !ok {
            println!("# oracle: `{text}` differs from the reference evaluation");
        }
        ops.check(ok);
        let lineages: Vec<Lineage> = got.iter().map(|t| t.lineage).collect();
        let ok = prob::marginal_batch(&lineages, db.vars()).is_ok_and(|ps| {
            ps.iter()
                .zip(&lineages)
                .all(|(p, l)| prob::marginal(l, db.vars()).is_ok_and(|m| (m - p).abs() <= 1e-12))
        });
        if !ok {
            println!("# oracle: `{text}` marginals differ from prob::marginal");
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
        "# batch_query: {PAIRS} synth pairs of {TUPLES} tuples over {FACTS} facts, {QUERIES} queries per round"
    );
    phase_start("oracle", fingerprints.len() as u64 + 32);
    let oracle_ops = oracle(args, &fingerprints);
    phase_done("oracle", oracle_ops);
    finish(args, rounds, rss, oracle_ops)
}
