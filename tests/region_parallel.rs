//! The stitch invariant of region-parallel LAWA: **any** region plan —
//! random cut counts and positions, empty regions, duplicate-timestamp
//! boundaries, cuts outside the data span — yields results byte-identical
//! to the sequential sweep, at both layers:
//!
//! * `tp_core::window::region_windows` versus `all_windows` (the window
//!   stream itself), and
//! * a `tp_stream::StreamEngine` with region-parallel advances versus the
//!   sequential engine (the emitted delta log, compared delta for delta
//!   through the differential oracle in `tests/common/oracle.rs`).
//!
//! Plus the composition with reclaim mode (private arenas, retirement) and
//! the `finish` flush, which must ride the same advance path.

mod common;

use common::oracle::{assert_delta_logs_identical, assert_stream_matches_batch};
use common::{arb_raw_relation, build_relation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tp_core::window::{all_windows, region_windows, RegionPlan};
use tp_stream::{
    CollectingSink, EngineConfig, MaterializingSink, ParallelConfig, ReclaimConfig, ReplayConfig,
    Side, StreamEngine, StreamScript,
};
use tp_workloads::{
    skewed_synth_stream, sliding_synth_stream, SkewedConfig, SlidingConfig, SynthConfig,
};
use tpdb::prelude::*;

/// Strategy for arbitrary cut vectors: unsorted, duplicated, and partly
/// outside the generated relations' time span (starts lie in `0..40`).
fn arb_cuts() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-10i64..60, 0..=9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_region_plan_yields_the_sequential_window_stream(
        raw_r in arb_raw_relation(24),
        raw_s in arb_raw_relation(24),
        cuts in arb_cuts(),
    ) {
        let mut vars = VarTable::new();
        let r = build_relation("r", &raw_r, &mut vars);
        let s = build_relation("s", &raw_s, &mut vars);
        let plan = RegionPlan::from_cuts(cuts.clone());
        let got = region_windows(r.tuples(), s.tuples(), &plan);
        let batch = all_windows(r.tuples(), s.tuples());
        prop_assert_eq!(got, batch, "cuts {:?}", cuts);
    }

    #[test]
    fn any_pinned_plan_through_the_engine_is_delta_identical(
        raw_r in arb_raw_relation(20),
        raw_s in arb_raw_relation(20),
        cuts in arb_cuts(),
        advance_every in 1usize..32,
    ) {
        let mut vars = VarTable::new();
        let r = build_relation("r", &raw_r, &mut vars);
        let s = build_relation("s", &raw_s, &mut vars);
        let script = StreamScript::from_pair(
            &r,
            &s,
            &ReplayConfig {
                lateness: 3,
                advance_every,
                seed: 0xC0FFEE,
            },
        );
        let run = |parallel: Option<ParallelConfig>| {
            let mut sink = MaterializingSink::new();
            script.run_into(
                EngineConfig {
                    parallel,
                    ..Default::default()
                },
                &mut sink,
            );
            sink
        };
        let sequential = run(None);
        let pinned = run(Some(ParallelConfig {
            workers: 4,
            min_tuples: 0,
            cuts: Some(cuts.clone()),
        }));
        assert_delta_logs_identical(&pinned, &sequential, &format!("cuts {cuts:?}"));
        // And the applied result still equals batch LAWA (tuples, lineage,
        // marginals) — the full oracle contract.
        let applied = pinned.replay();
        assert_stream_matches_batch(&applied, &r, &s, &vars);
    }
}

/// The random-cut differential at workload scale: a 20k-tuple synth pair
/// over 50 facts (the proptest above sees at most 24 tuples), eight seeded
/// random plans, each with duplicate cuts and empty regions on both sides
/// of the data span.
#[test]
fn seeded_plans_on_a_generated_workload_yield_the_sequential_window_stream() {
    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::with_facts(20_000, 50, 9), &mut vars);
    let (r, s) = (r.sorted(), s.sorted());
    let batch = all_windows(r.tuples(), s.tuples());
    let (lo, hi) = r
        .iter()
        .chain(s.iter())
        .fold((i64::MAX, i64::MIN), |(lo, hi), t| {
            (lo.min(t.interval.start()), hi.max(t.interval.end()))
        });
    let mut rng = StdRng::seed_from_u64(0x5EED_4E10);
    for plan_no in 0..8 {
        let n = rng.random_range(1..=32usize);
        let mut cuts: Vec<i64> = (0..n).map(|_| rng.random_range(lo..=hi)).collect();
        let dups = rng.random_range(1..=n);
        cuts.extend_from_within(..dups);
        cuts.extend([lo - 9, lo - 3, hi + 4, hi + 11]);
        let plan = RegionPlan::from_cuts(cuts.clone());
        let got = region_windows(r.tuples(), s.tuples(), &plan);
        assert!(got == batch, "plan {plan_no} diverges: cuts {cuts:?}");
    }
}

/// Balanced planning (the production path) at several worker budgets over
/// the workloads built to stress it — the smooth sliding stream and the
/// Zipf-hot skewed stream.
#[test]
fn balanced_plans_are_delta_identical_across_worker_counts() {
    for skewed in [false, true] {
        let mut vars = VarTable::new();
        let w = if skewed {
            skewed_synth_stream(
                &SkewedConfig {
                    epochs: 10,
                    per_epoch: 60,
                    ..Default::default()
                },
                &mut vars,
            )
        } else {
            sliding_synth_stream(
                &SlidingConfig {
                    epochs: 10,
                    per_epoch: 48,
                    ..Default::default()
                },
                &mut vars,
            )
        };
        let run = |parallel: Option<ParallelConfig>| {
            let mut sink = MaterializingSink::new();
            w.script.run_into(
                EngineConfig {
                    parallel,
                    ..Default::default()
                },
                &mut sink,
            );
            sink
        };
        let sequential = run(None);
        for workers in [2usize, 3, 8] {
            let parallel = run(Some(ParallelConfig {
                workers,
                min_tuples: 0,
                cuts: None,
            }));
            assert_delta_logs_identical(
                &parallel,
                &sequential,
                &format!("skewed={skewed}, {workers} workers"),
            );
        }
        let applied = sequential.replay();
        assert_stream_matches_batch(&applied, &w.r, &w.s, &vars);
    }
}

#[test]
fn parallel_reclaiming_engine_is_delta_identical_and_still_plateaus() {
    // Region workers intern into the engine's PRIVATE arena; the delta
    // log, the retirement totals and the memory plateau must all match
    // the sequential reclaiming engine.
    let mut vars = VarTable::new();
    let w = sliding_synth_stream(
        &SlidingConfig {
            epochs: 60,
            ..Default::default()
        },
        &mut vars,
    );
    let run = |parallel: Option<ParallelConfig>| {
        let mut engine = StreamEngine::new(EngineConfig {
            reclaim: Some(ReclaimConfig {
                keep_epochs: 2,
                ..Default::default()
            }),
            parallel,
            ..Default::default()
        });
        let mut sink = MaterializingSink::new();
        let mut live_samples = Vec::new();
        for event in &w.script.events {
            match event {
                tp_stream::ReplayEvent::Arrive(side, t) => {
                    engine.push(*side, t.clone());
                }
                tp_stream::ReplayEvent::Advance(wm) => {
                    engine.advance(*wm, &mut sink).unwrap();
                    live_samples.push(engine.arena_stats().unwrap().nodes);
                }
            }
        }
        engine.finish(&mut sink).unwrap();
        (sink, engine.reclaimed(), live_samples)
    };
    let (seq_sink, seq_reclaimed, _) = run(None);
    let (par_sink, par_reclaimed, par_samples) = run(Some(ParallelConfig {
        workers: 4,
        min_tuples: 0,
        cuts: None,
    }));
    assert_delta_logs_identical(&par_sink, &seq_sink, "reclaim + parallel");
    assert_eq!(par_reclaimed, seq_reclaimed);
    assert!(seq_reclaimed.0 > 10, "soak retired almost nothing");
    common::oracle::assert_plateau(&par_samples, 8, 2.0, "parallel reclaiming engine");
    common::oracle::assert_materialized_matches_batch(&par_sink, &w.r, &w.s, &vars);
}

#[test]
fn finish_flush_rides_the_parallel_advance_path() {
    // Push a fat buffered backlog and NEVER advance manually: the whole
    // sweep happens inside finish, which must shard it by region exactly
    // like a mid-stream advance would.
    let mut rng = StdRng::seed_from_u64(0x9E6104);
    let build_events = || {
        let mut vars = VarTable::new();
        let mut events = Vec::new();
        for f in 0..6i64 {
            for k in 0..50i64 {
                for (side, off) in [(Side::Left, 0i64), (Side::Right, 2)] {
                    let id = vars.register(format!("v{f}_{k}_{off}"), 0.5).unwrap();
                    events.push((
                        side,
                        TpTuple::new(
                            Fact::single(f),
                            Lineage::var(id),
                            Interval::at(10 * k + off, 10 * k + off + 7),
                        ),
                    ));
                }
            }
        }
        events
    };
    let mut events = build_events();
    for i in (1..events.len()).rev() {
        let j = rng.random_range(0..=i);
        events.swap(i, j);
    }
    let run = |parallel: Option<ParallelConfig>| {
        let mut engine = StreamEngine::new(EngineConfig {
            parallel,
            ..Default::default()
        });
        let mut sink = MaterializingSink::new();
        for (side, t) in &events {
            engine.push(*side, t.clone());
        }
        let stats = engine.finish(&mut sink).unwrap();
        (sink, stats)
    };
    let (seq_sink, seq_stats) = run(None);
    assert_eq!(seq_stats.regions_used, 1);
    let (par_sink, par_stats) = run(Some(ParallelConfig {
        workers: 4,
        min_tuples: 64,
        cuts: None,
    }));
    assert!(
        par_stats.regions_used > 1,
        "finish's flush stayed sequential ({} tuple pieces)",
        par_stats.region_tuples
    );
    assert!(par_stats.region_balance() >= 1.0);
    assert_delta_logs_identical(&par_sink, &seq_sink, "finish flush");
}

#[test]
fn region_gauges_reflect_skew() {
    // On the Zipf-hot stream the balanced planner must still spread load:
    // every fat advance shards, and the reported balance stays finite and
    // sane (max/mean within the region count by definition).
    let mut vars = VarTable::new();
    let w = skewed_synth_stream(
        &SkewedConfig {
            epochs: 6,
            per_epoch: 80,
            ..Default::default()
        },
        &mut vars,
    );
    let mut engine = StreamEngine::new(EngineConfig {
        parallel: Some(ParallelConfig {
            workers: 4,
            min_tuples: 32,
            cuts: None,
        }),
        ..Default::default()
    });
    let mut sink = CollectingSink::new();
    let mut fat_advances = 0usize;
    for event in &w.script.events {
        match event {
            tp_stream::ReplayEvent::Arrive(side, t) => {
                engine.push(*side, t.clone());
            }
            tp_stream::ReplayEvent::Advance(wm) => {
                let stats = engine.advance(*wm, &mut sink).unwrap();
                if stats.region_tuples >= 32 {
                    fat_advances += 1;
                    assert!(stats.regions_used > 1, "fat advance stayed sequential");
                    let balance = stats.region_balance();
                    assert!(balance >= 1.0, "balance {balance} below 1");
                    assert!(
                        balance <= stats.regions_used as f64 + 1e-9,
                        "balance {balance} exceeds region count {}",
                        stats.regions_used
                    );
                }
            }
        }
    }
    engine.finish(&mut sink).unwrap();
    assert!(fat_advances > 0, "workload produced no fat advances");
    assert_stream_matches_batch(&sink, &w.r, &w.s, &vars);
}

/// The sampling-bias fix: `RegionPlan::balanced` step-samples at most 2048
/// start points from the *arrival-ordered* buffer, so an arrival order that
/// aliases with the sampling stride (here: even pushes in a hot cluster,
/// odd pushes spread wide — stride 2 sees only the cluster) yields cuts
/// that pile half the data into one region. The gapped index hands the
/// planner the exact ts-sorted starts, so its cuts are true quantiles. Same
/// pushes, same deltas — only the balance differs.
#[test]
fn index_cuts_dominate_aliased_sampled_cuts() {
    let run = |buffer: tp_stream::BufferKind| {
        let mut vars = VarTable::new();
        let mut engine = StreamEngine::new(EngineConfig {
            parallel: Some(ParallelConfig {
                workers: 4,
                min_tuples: 64,
                cuts: None,
            }),
            buffer,
            ..Default::default()
        });
        let mut sink = MaterializingSink::new();
        for i in 0..6000i64 {
            // Aliased arrival: even pushes land in the hot cluster
            // [0, 3000), odd pushes spread over [100_000, 220_000).
            let start = if i % 2 == 0 {
                i / 2
            } else {
                100_000 + (i / 2) * 40
            };
            let id = vars.register(format!("t{i}"), 0.5).unwrap();
            engine.push(
                Side::Left,
                TpTuple::new(
                    Fact::single(i),
                    Lineage::var(id),
                    Interval::at(start, start + 1),
                ),
            );
        }
        let stats = engine.advance(300_000, &mut sink).unwrap();
        (stats, sink)
    };
    let (legacy, legacy_log) = run(tp_stream::BufferKind::Legacy);
    let (sorted, sorted_log) = run(tp_stream::BufferKind::Sorted);
    assert_delta_logs_identical(&sorted_log, &legacy_log, "aliased arrival");
    assert_eq!(sorted.regions_used, 4, "index plan filled the budget");
    // Sampled cuts all land inside the hot cluster: the last region soaks
    // up every spread tuple (~2.5× the mean). Index cuts are exact.
    assert!(
        legacy.region_balance() > 2.0,
        "expected aliased sampling to skew, got balance {}",
        legacy.region_balance()
    );
    assert!(
        sorted.region_balance() < 1.2,
        "index cuts should be near-perfect, got balance {}",
        sorted.region_balance()
    );
}

/// On the Zipf-hot skewed stream with advances fat enough to force the
/// legacy planner into sampling (step > 1), the index's exact cuts must
/// never balance *worse* than the sampled ones — and the delta logs stay
/// byte-identical throughout.
#[test]
fn index_cuts_dominate_sampled_cuts_on_skewed_stream() {
    let mut vars = VarTable::new();
    let w = skewed_synth_stream(
        &SkewedConfig {
            epochs: 6,
            per_epoch: 2400, // 4800 pieces per advance → sampling step 2
            ..Default::default()
        },
        &mut vars,
    );
    let run = |buffer: tp_stream::BufferKind| {
        let mut engine = StreamEngine::new(EngineConfig {
            parallel: Some(ParallelConfig {
                workers: 4,
                min_tuples: 64,
                cuts: None,
            }),
            buffer,
            ..Default::default()
        });
        let mut sink = MaterializingSink::new();
        let mut balances = Vec::new();
        for event in &w.script.events {
            match event {
                tp_stream::ReplayEvent::Arrive(side, t) => {
                    engine.push(*side, t.clone());
                }
                tp_stream::ReplayEvent::Advance(wm) => {
                    let stats = engine.advance(*wm, &mut sink).unwrap();
                    if stats.regions_used > 1 {
                        balances.push(stats.region_balance());
                    }
                }
            }
        }
        engine.finish(&mut sink).unwrap();
        (balances, sink)
    };
    let (legacy_bal, legacy_log) = run(tp_stream::BufferKind::Legacy);
    let (sorted_bal, sorted_log) = run(tp_stream::BufferKind::Sorted);
    assert_delta_logs_identical(&sorted_log, &legacy_log, "skewed stream");
    assert!(!sorted_bal.is_empty(), "no parallel advances happened");
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        avg(&sorted_bal) <= avg(&legacy_bal) + 0.05,
        "index cuts balanced worse than sampled cuts: {} vs {}",
        avg(&sorted_bal),
        avg(&legacy_bal)
    );
}
