//! Property suite of the gapped learned timestamp index (`BufferKind`):
//! for any arrival permutation within the lateness bound, an engine on the
//! gapped index must behave **byte-identically** to one on the legacy
//! sorted buffer — same delta logs (the strongest oracle the suite has),
//! sequential and region-parallel, reclaim on and off, through `finish`.

mod common;

use common::oracle::{assert_delta_logs_identical, assert_materialized_matches_batch};
use tp_stream::{
    BufferKind, EngineConfig, MaterializingSink, ParallelConfig, ReclaimConfig, ReplayConfig,
    ReplayEvent, StreamEngine, StreamScript,
};
use tp_workloads::{skewed_synth_stream, sliding_synth_stream, SkewedConfig, SlidingConfig};
use tpdb::prelude::*;

/// Replays `script` through one engine with the given config; returns the
/// materialized delta log (finish included by the script's epilogue).
fn run(script: &StreamScript, cfg: EngineConfig) -> MaterializingSink {
    let mut sink = MaterializingSink::new();
    script.run_into(cfg, &mut sink);
    sink
}

/// The differential gate of the tentpole: every engine mode must agree
/// byte-for-byte across the two buffer kinds on the same replay.
fn assert_index_matches_legacy(script: &StreamScript, ctx: &str) {
    let parallel = || {
        Some(ParallelConfig {
            workers: 4,
            min_tuples: 64,
            cuts: None,
        })
    };
    let modes: Vec<(&str, EngineConfig)> = vec![
        ("sequential", EngineConfig::default()),
        (
            "parallel",
            EngineConfig {
                parallel: parallel(),
                ..Default::default()
            },
        ),
        (
            "reclaim",
            EngineConfig {
                reclaim: Some(ReclaimConfig::default()),
                ..Default::default()
            },
        ),
        (
            "reclaim+parallel",
            EngineConfig {
                reclaim: Some(ReclaimConfig::default()),
                parallel: parallel(),
                ..Default::default()
            },
        ),
    ];
    for (mode, cfg) in modes {
        let legacy = run(
            script,
            EngineConfig {
                buffer: BufferKind::Legacy,
                ..cfg.clone()
            },
        );
        let sorted = run(
            script,
            EngineConfig {
                buffer: BufferKind::Sorted,
                ..cfg
            },
        );
        assert_delta_logs_identical(&sorted, &legacy, &format!("{ctx} [{mode}]"));
    }
}

#[test]
fn sliding_stream_is_byte_identical_across_buffer_kinds() {
    let mut vars = VarTable::new();
    let w = sliding_synth_stream(
        &SlidingConfig {
            epochs: 24,
            per_epoch: 40,
            ..Default::default()
        },
        &mut vars,
    );
    // The workload's own schedule plus harsher permutations: heavier
    // lateness shuffles and watermarks slicing mid-tuple.
    assert_index_matches_legacy(&w.script, "sliding (native schedule)");
    for (lateness, advance_every, seed) in [(0, 64, 1), (48, 32, 2), (160, 7, 3)] {
        let script = StreamScript::from_pair(
            &w.r,
            &w.s,
            &ReplayConfig {
                lateness,
                advance_every,
                seed,
            },
        );
        assert_index_matches_legacy(
            &script,
            &format!("sliding lateness={lateness} advance_every={advance_every}"),
        );
    }
}

#[test]
fn skewed_stream_is_byte_identical_across_buffer_kinds() {
    let mut vars = VarTable::new();
    let w = skewed_synth_stream(
        &SkewedConfig {
            epochs: 16,
            ..Default::default()
        },
        &mut vars,
    );
    assert_index_matches_legacy(&w.script, "skewed (native schedule)");
    let script = StreamScript::from_pair(
        &w.r,
        &w.s,
        &ReplayConfig {
            lateness: 96,
            advance_every: 48,
            seed: 11,
        },
    );
    assert_index_matches_legacy(&script, "skewed (shuffled)");
}

/// Adversarial arrival orders the model must survive: strictly reversed
/// batches (every insert lands at the buffer's front) and an interleave of
/// two distant epochs (bimodal key space under one model).
#[test]
fn adversarial_arrival_orders_are_byte_identical() {
    let mut vars = VarTable::new();
    let w = sliding_synth_stream(
        &SlidingConfig {
            epochs: 12,
            per_epoch: 32,
            ..Default::default()
        },
        &mut vars,
    );
    let mut events = Vec::new();
    let mut batch = Vec::new();
    for ev in &w.script.events {
        match ev {
            ReplayEvent::Arrive(..) => batch.push(ev.clone()),
            ReplayEvent::Advance(_) => {
                batch.reverse(); // adversarial: reverse every inter-advance batch
                events.append(&mut batch);
                events.push(ev.clone());
            }
        }
    }
    batch.reverse();
    events.append(&mut batch);
    let script = StreamScript { events };
    assert_index_matches_legacy(&script, "reversed batches");

    // The index's gap accounting stays plausible on every advance of the
    // gapped engine: zero would mean it never held data, above 1000
    // broken accounting. (`finish` only flushes the carried residue of an
    // already drained buffer, so it may legitimately read 0.)
    let mut engine = StreamEngine::new(EngineConfig {
        buffer: BufferKind::Sorted,
        ..Default::default()
    });
    let mut sink = MaterializingSink::new();
    let mut advances = 0;
    for ev in &script.events {
        match ev {
            ReplayEvent::Arrive(side, t) => {
                engine.push(*side, t.clone());
            }
            ReplayEvent::Advance(wm) => {
                let stats = engine.advance(*wm, &mut sink).expect("script monotone");
                let occ = stats.gap_occupancy_permille;
                assert!(
                    occ > 0 && occ <= 1000,
                    "advance {advances}: implausible gap occupancy {occ}‰"
                );
                advances += 1;
            }
        }
    }
    assert!(advances >= 12, "only {advances} advances");
    let fin = engine.finish(&mut sink).expect("final advance");
    assert!(fin.gap_occupancy_permille <= 1000);
}

/// End-to-end reclaim-mode oracle on the index engine itself (not just
/// index-vs-legacy): materialized deltas replay to the batch result.
#[test]
fn index_engine_reclaim_run_matches_batch_oracle() {
    let mut vars = VarTable::new();
    let w = sliding_synth_stream(
        &SlidingConfig {
            epochs: 20,
            per_epoch: 24,
            ..Default::default()
        },
        &mut vars,
    );
    let sink = run(
        &w.script,
        EngineConfig {
            buffer: BufferKind::Sorted,
            reclaim: Some(ReclaimConfig::default()),
            parallel: Some(ParallelConfig {
                workers: 3,
                min_tuples: 32,
                cuts: None,
            }),
            ..Default::default()
        },
    );
    assert_materialized_matches_batch(&sink, &w.r, &w.s, &vars);
}
