//! Property tests for the continuous LAWA engine (`tp-stream`): for random
//! inputs, *any* arrival permutation within the lateness bound and *any*
//! watermark schedule, the streamed results of all three set operations
//! must be tuple-, interval-, lineage- and marginal-identical to batch LAWA
//! on the same inputs.
//!
//! All equivalence checks go through the shared differential oracle
//! (`tests/common/oracle.rs`).

mod common;

use common::oracle::{assert_plateau, assert_stream_matches_batch};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tp_stream::{
    CollectingSink, EngineConfig, ReplayConfig, ReplayEvent, Side, StreamEngine, StreamScript,
};
use tp_workloads::SynthConfig;
use tpdb::prelude::*;

#[test]
fn random_synth_streams_match_batch_for_all_ops() {
    let mut rng = StdRng::seed_from_u64(0x57AE_A401);
    for case in 0..25u64 {
        let mut vars = VarTable::new();
        let tuples = rng.random_range(50..400usize);
        let facts = rng.random_range(1..8usize);
        let cfg = if rng.random::<bool>() {
            SynthConfig::with_facts(tuples, facts, 100 + case)
        } else {
            SynthConfig::with_zipf_facts(tuples, facts, 1.1, 100 + case)
        };
        let (r, s) = tp_workloads::synth::generate(&cfg, &mut vars);
        let replay = ReplayConfig {
            lateness: rng.random_range(0..10i64),
            advance_every: rng.random_range(1..64usize),
            seed: 500 + case,
        };
        let script = StreamScript::from_pair(&r, &s, &replay);
        let (sink, totals) = script.run(EngineConfig::default());
        assert_eq!(totals.late, [0, 0], "case {case}: scripts never drop");
        assert_stream_matches_batch(&sink, &r, &s, &vars);
    }
}

#[test]
fn adversarial_watermark_schedules_match_batch() {
    // Extremes: an advance after every single arrival, and one big-bang
    // advance at the very end.
    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::with_facts(300, 4, 9), &mut vars);
    for advance_every in [1usize, usize::MAX] {
        let script = StreamScript::from_pair(
            &r,
            &s,
            &ReplayConfig {
                lateness: 6,
                advance_every: advance_every.min(10_000),
                seed: 3,
            },
        );
        let (sink, _) = script.run(EngineConfig::default());
        assert_stream_matches_batch(&sink, &r, &s, &vars);
    }
}

#[test]
fn engine_internal_cross_check_passes_on_random_streams() {
    // The engine's own verify mode re-runs batch LAWA over the closed
    // region after every advance; it must stay silent on random streams.
    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::with_facts(150, 3, 21), &mut vars);
    let script = StreamScript::from_pair(
        &r,
        &s,
        &ReplayConfig {
            lateness: 5,
            advance_every: 16,
            seed: 11,
        },
    );
    let (sink, _) = script.run(EngineConfig {
        verify_batch: true,
        ..Default::default()
    });
    assert_stream_matches_batch(&sink, &r, &s, &vars);
}

#[test]
fn random_manual_schedules_with_scrambled_pushes_match_batch() {
    // Not script-generated: pushes are scrambled arbitrarily (no lateness
    // discipline at all) and the watermark only ever advances to times at
    // or below every unpushed tuple's start, so nothing is late.
    let mut rng = StdRng::seed_from_u64(0x57AE_A402);
    for case in 0..10u64 {
        let mut vars = VarTable::new();
        let (r, s) =
            tp_workloads::synth::generate(&SynthConfig::with_facts(120, 2, 40 + case), &mut vars);
        let mut events: Vec<(Side, TpTuple)> = r
            .iter()
            .map(|t| (Side::Left, t.clone()))
            .chain(s.iter().map(|t| (Side::Right, t.clone())))
            .collect();
        // Fisher-Yates scramble.
        for i in (1..events.len()).rev() {
            let j = rng.random_range(0..=i);
            events.swap(i, j);
        }
        let mut engine = StreamEngine::default();
        let mut sink = CollectingSink::new();
        let mut min_unpushed: Vec<i64> = Vec::new();
        for (idx, (side, t)) in events.iter().enumerate() {
            engine.push(*side, t.clone());
            // Occasionally advance to the lowest start among unpushed
            // tuples (the tightest watermark that cannot drop anything).
            if rng.random::<f64>() < 0.2 {
                min_unpushed.clear();
                min_unpushed.extend(events[idx + 1..].iter().map(|(_, t)| t.interval.start()));
                let safe = min_unpushed.iter().copied().min().unwrap_or(i64::MAX - 1);
                if safe > engine.watermark() {
                    engine.advance(safe, &mut sink).unwrap();
                }
            }
        }
        engine.finish(&mut sink).unwrap();
        assert_eq!(engine.late_dropped(), [0, 0], "case {case}");
        assert_stream_matches_batch(&sink, &r, &s, &vars);
    }
}

#[test]
fn reclaiming_sliding_stream_plateaus_and_stays_batch_identical() {
    // ISSUE 3 acceptance: a sliding-window replay of ≥ 50 epochs through a
    // *reclaiming* engine must (a) plateau in arena node count at steady
    // state and (b) remain tuple-, lineage- and marginal-identical to
    // batch LAWA over the same inputs.
    use tp_stream::{MaterializingSink, ReclaimConfig, ReplayEvent};
    use tp_workloads::{sliding_synth_stream, SlidingConfig};

    let mut vars = VarTable::new();
    let epochs = 60usize;
    let w = sliding_synth_stream(
        &SlidingConfig {
            epochs,
            ..Default::default()
        },
        &mut vars,
    );
    let mut engine = StreamEngine::new(tp_stream::EngineConfig {
        reclaim: Some(ReclaimConfig {
            keep_epochs: 2,
            ..Default::default()
        }),
        ..Default::default()
    });
    // Deltas are materialized as trees the moment they arrive (the
    // reclaim-mode consumption contract), so results survive retirement
    // and can be re-interned into the global arena for comparison.
    let mut sink = MaterializingSink::new();
    let mut live_samples: Vec<usize> = Vec::new();
    let mut advances = 0usize;
    for event in &w.script.events {
        match event {
            ReplayEvent::Arrive(side, t) => {
                engine.push(*side, t.clone());
            }
            ReplayEvent::Advance(wm) => {
                engine.advance(*wm, &mut sink).unwrap();
                advances += 1;
                live_samples.push(engine.arena_stats().unwrap().nodes);
            }
        }
    }
    engine.finish(&mut sink).unwrap();
    assert_eq!(engine.late_dropped(), [0, 0]);
    assert!(advances >= 50, "only {advances} epochs replayed");

    // (a) Plateau: steady-state residency stays within 2× of the warm-up
    // footprint (one window's worth of lineage), independent of history.
    let (retired_segments, retired_nodes) = engine.reclaimed();
    assert!(
        retired_segments as usize >= advances / 2,
        "only {retired_segments} segments retired over {advances} advances"
    );
    assert!(retired_nodes > 0);
    assert_eq!(sink.retired_segments, retired_segments);
    assert_plateau(&live_samples, 8, 2.0, "arena nodes");

    // (b) Equivalence: replay the materialized deltas into the global
    // arena and compare — tuples, intervals, lineage (via interning the
    // trees: identical formulas ⇒ identical handles), then marginals.
    common::oracle::assert_materialized_matches_batch(&sink, &w.r, &w.s, &vars);
}

#[test]
fn replay_scripts_cover_out_of_order_arrivals() {
    // Sanity on the harness itself: with a positive lateness bound, the
    // generated arrival order actually differs from the sorted order (the
    // permutations the equivalence tests claim to cover do occur).
    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::single_fact(200, 5), &mut vars);
    let script = StreamScript::from_pair(
        &r,
        &s,
        &ReplayConfig {
            lateness: 8,
            advance_every: 32,
            seed: 17,
        },
    );
    let starts: Vec<i64> = script
        .events
        .iter()
        .filter_map(|e| match e {
            ReplayEvent::Arrive(_, t) => Some(t.interval.start()),
            _ => None,
        })
        .collect();
    assert!(
        starts.windows(2).any(|w| w[0] > w[1]),
        "arrivals were fully ordered; the lateness bound generated no permutation"
    );
}
