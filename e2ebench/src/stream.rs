//! Pieces shared by the two streaming workloads: arrival-to-emit latency,
//! per-advance counter aggregation and the traced layer table.

use tp_stream::AdvanceStats;

use crate::report::{median, p50_p99, Metrics};
use crate::trace::Attribution;

/// Arrival-to-emit latencies in ms: tuple `i` (start `starts[i]`,
/// `push_ret[i]` the return of its push) is emitted by the first advance
/// whose watermark passes its start — `marks[k]` returned at `ret[k]`;
/// tuples no advance passes are emitted by the final flush, which returned
/// at `ret[marks.len()]`. Watermarks are monotone and a push is never
/// late, so that advance comes after the push.
pub fn emit_latencies_ms(starts: &[i64], push_ret: &[u64], marks: &[i64], ret: &[u64]) -> Vec<f64> {
    starts
        .iter()
        .zip(push_ret)
        .map(|(&s, &pushed)| {
            let k = marks.partition_point(|&w| w <= s);
            (ret[k].saturating_sub(pushed)) as f64 * 1e-6
        })
        .collect()
}

/// Counters folded over the [`AdvanceStats`] of a traced round.
#[derive(Debug, Default)]
pub struct AdvanceAgg {
    pub calls: u64,
    pub released: u64,
    pub windows: u64,
    pub deltas: u64,
    pub sharded: u64,
    pub balance_max: f64,
    pub retrains: u64,
    pub model_misses: u64,
    pub shift_p99_max: u32,
    pub occupancy: Vec<f64>,
    pub resident_peak: u64,
    pub live_nodes_peak: u64,
    pub retired_segments: u64,
    pub interior_retired: u64,
    pub released_vars: u64,
    pub pipeline_deltas: u64,
}

impl AdvanceAgg {
    pub fn add(&mut self, s: &AdvanceStats) {
        self.calls += 1;
        self.released += (s.released[0] + s.released[1]) as u64;
        self.windows += s.windows as u64;
        self.deltas += s.inserts + s.extends;
        if s.regions_used > 1 {
            self.sharded += 1;
        }
        self.balance_max = self.balance_max.max(s.region_balance());
        self.retrains += s.index_retrains;
        self.model_misses += s.index_model_misses;
        self.shift_p99_max = self.shift_p99_max.max(s.shift_distance_p99);
        if s.released[0] + s.released[1] > 0 {
            self.occupancy.push(s.gap_occupancy_permille as f64);
        }
        self.resident_peak = self.resident_peak.max(s.arena_resident_bytes);
        self.live_nodes_peak = self.live_nodes_peak.max(s.arena_live_nodes);
        self.retired_segments += s.retired_segments;
        self.interior_retired += s.interior_retired_segments;
        self.released_vars += s.released_vars;
        self.pipeline_deltas += s.pipeline_deltas;
    }
}

/// Fills the layer metrics every streaming workload shares. `advance_ns`
/// holds one duration per engine advance (the replay thread's call for a single
/// engine, the engine's own `advance` span under a server).
pub fn stream_layers(
    m: &mut Metrics,
    attr: &Attribution,
    agg: &AdvanceAgg,
    push_key: &'static str,
    advance_ns: &mut [f64],
    delta_calls: u64,
) {
    let pushes = attr.count(push_key);
    let push_s = attr.busy_s(push_key);
    m.set("engine.push.calls", pushes as f64, "count");
    m.set("engine.push.busy_s", push_s, "s");
    m.set(
        "engine.push.ns_per_tuple",
        push_s * 1e9 / pushes.max(1) as f64,
        "ns",
    );
    m.set("gapped.retrains", agg.retrains as f64, "count");
    m.set("gapped.model_misses", agg.model_misses as f64, "count");
    m.set("gapped.shift_p99", agg.shift_p99_max as f64, "slots");
    m.set(
        "gapped.occupancy_permille",
        median(&agg.occupancy),
        "permille",
    );
    let (p50, p99) = p50_p99(advance_ns);
    m.set("engine.advance.calls", agg.calls as f64, "count");
    m.set(
        "engine.advance.busy_s",
        advance_ns.iter().sum::<f64>() * 1e-9,
        "s",
    );
    m.set("engine.advance.p50_ms", p50 * 1e-6, "ms");
    m.set("engine.advance.p99_ms", p99 * 1e-6, "ms");
    m.set("engine.advance.released", agg.released as f64, "tuples");
    m.set("engine.advance.windows", agg.windows as f64, "count");
    m.set("engine.advance.deltas", agg.deltas as f64, "count");
    m.set(
        "engine.advance.sharded_share",
        agg.sharded as f64 / agg.calls.max(1) as f64,
        "ratio",
    );
    m.set(
        "engine.advance.region_balance_max",
        agg.balance_max,
        "ratio",
    );
    for (name, key) in [
        ("stage.drain_s", "stage.drain"),
        ("stage.plan_s", "stage.plan"),
        ("stage.sweep_s", "stage.sweep"),
        ("stage.finalize_s", "stage.finalize"),
        ("stage.seal_retire_s", "stage.seal_retire"),
        ("sub.region_s", "sub.region"),
        ("sub.stitch_reduce_s", "sub.stitch_reduce"),
        ("sub.emit_s", "sub.emit"),
        ("sub.retrain_s", "sub.retrain"),
        ("sink.delta_s", "sink.delta"),
        ("sink.watermark_s", "sink.watermark"),
        ("sink.retire_s", "sink.retire"),
        ("valuation.busy_s", "valuation"),
    ] {
        m.set(name, attr.busy_s(key), "s");
    }
    m.set("sink.delta_calls", delta_calls as f64, "count");
    let roots = attr.arg("valuation");
    m.set("valuation.roots", roots as f64, "count");
    m.set(
        "valuation.ns_per_root",
        attr.busy_s("valuation") * 1e9 / roots.max(1) as f64,
        "ns",
    );
    m.set(
        "arena.resident_bytes_peak",
        agg.resident_peak as f64,
        "bytes",
    );
    m.set("arena.live_nodes_peak", agg.live_nodes_peak as f64, "count");
    m.set(
        "arena.retired_segments",
        agg.retired_segments as f64,
        "count",
    );
    m.set(
        "arena.interior_retired_segments",
        agg.interior_retired as f64,
        "count",
    );
    m.set("vars.released", agg.released_vars as f64, "count");
}
