//! Layer attribution for the traced runs.
//!
//! The benchmark times every call into the program from outside (a
//! [`Call`] on the replay thread) and, after each advance, wave or query,
//! drains the span rings the program already fills (engine `advance`,
//! its `stage` partition and `sub` spans, `valuate_batch`) plus the
//! `bench` spans of the timing sink decorator. Every span is hung under
//! its parent — the innermost span of the right kind that contains its
//! start — and each layer's **self time** is its duration minus the part
//! its children cover. Where siblings overlap in time (tenants advancing
//! on different wave workers, region workers of one sweep), each
//! elementary interval is split evenly among the siblings covering it, so
//! the self times of all layers partition the replay thread's call time exactly:
//! their sum over the end-to-end wall is `trace.coverage`.

use std::collections::BTreeMap;

use tp_obs::{clear_trace, now_ns, snapshot_spans, SpanEvent, DEFAULT_RING_CAP};

/// One call into the program, timed on the replay thread.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub key: &'static str,
    pub ts: u64,
    pub end: u64,
}

impl Call {
    pub fn new(key: &'static str, ts: u64, end: u64) -> Self {
        Call { key, ts, end }
    }
}

/// Span-derived totals of one traced round.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Self time per layer key (ns); sums to the replay thread's call time.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Inclusive time per layer key (ns), summed over spans/calls.
    pub busy_ns: BTreeMap<&'static str, u64>,
    /// Number of spans/calls per layer key.
    pub count: BTreeMap<&'static str, u64>,
    /// Sum of the spans' payload argument per key (e.g. valuated roots).
    pub arg: BTreeMap<&'static str, u64>,
    /// Durations of the engines' own `advance` spans (ns).
    pub advance_span_ns: Vec<u64>,
    /// Advances whose stage spans did not tile the `advance` span.
    pub tile_failures: u64,
    /// Spans that may have been overwritten in a full ring.
    pub spans_dropped: u64,
    /// Time spent draining and attributing spans (excluded from the wall).
    pub drain_ns: u64,
}

// Tree levels, outermost first.
/// A replay-thread call.
const CALL: u8 = 0;
/// An engine's whole-advance span.
const ADVANCE: u8 = 1;
/// One of the stages partitioning an advance.
const STAGE: u8 = 2;
/// A `sub` span of an engine (region, stitch, emit, retrain, operator).
const SUB: u8 = 3;
/// A callback of the timing sink.
const SINK: u8 = 4;
/// A `valuate_batch` span, inside a sink's watermark callback.
const VALUATION: u8 = 5;
/// A harness-timed call nested in a replay-thread call.
const NESTED: u8 = 6;

/// A node of one step's span tree.
struct Node {
    key: &'static str,
    level: u8,
    ctx: u32,
    tid: u32,
    ts: u64,
    end: u64,
    children: Vec<usize>,
}

/// Maps a recorded span to its layer key and tree level, or `None` for
/// spans no layer owns.
fn classify(e: &SpanEvent) -> Option<(&'static str, u8)> {
    Some(match (e.cat, e.name) {
        ("advance", _) => ("engine.advance.span", ADVANCE),
        ("stage", "drain") => ("stage.drain", STAGE),
        ("stage", "plan") => ("stage.plan", STAGE),
        ("stage", "sweep") => ("stage.sweep", STAGE),
        ("stage", "finalize") => ("stage.finalize", STAGE),
        ("stage", "seal_retire") => ("stage.seal_retire", STAGE),
        ("stage", "verify") => ("stage.verify", STAGE),
        ("sub", "valuate_batch") => ("valuation", VALUATION),
        ("sub", "region") => ("sub.region", SUB),
        ("sub", "stitch_reduce") => ("sub.stitch_reduce", SUB),
        ("sub", "emit") => ("sub.emit", SUB),
        ("sub", "retrain") => ("sub.retrain", SUB),
        ("sub", "source") => ("pipeline.op.source", SUB),
        ("sub", "hash_join") => ("pipeline.op.hash_join", SUB),
        ("sub", "aggregate") => ("pipeline.op.aggregate", SUB),
        ("sub", "nl_join") => ("pipeline.op.nl_join", SUB),
        ("sub", "select") => ("pipeline.op.select", SUB),
        ("sub", "project") => ("pipeline.op.project", SUB),
        ("sub", "union_all") => ("pipeline.op.union_all", SUB),
        ("sub", "distinct") => ("pipeline.op.distinct", SUB),
        ("bench", name) => (name, SINK),
        _ => return None,
    })
}

impl Attribution {
    /// Adds a leaf call (no program spans inside it) — pushes, parses,
    /// batch valuations.
    pub fn leaf(&mut self, key: &'static str, dur_ns: u64) {
        *self.self_ns.entry(key).or_default() += dur_ns as f64;
        *self.busy_ns.entry(key).or_default() += dur_ns;
        *self.count.entry(key).or_default() += 1;
    }

    /// Drains the span rings and attributes everything recorded since the
    /// previous drain to `calls` (the step's replay-thread calls) and to
    /// `inner` (harness-timed calls nested in one of them). Spans that
    /// start outside every call (an index rebuild inside a push) are
    /// carved out of the `carve_from` layer, whose time was added with
    /// [`Attribution::leaf`].
    pub fn step(&mut self, calls: &[Call], inner: &[Call], carve_from: &'static str) {
        let t0 = now_ns();
        let events = snapshot_spans();
        clear_trace();
        if events.len() >= DEFAULT_RING_CAP {
            self.spans_dropped += (events.len() + 1 - DEFAULT_RING_CAP) as u64;
        }
        let mut nodes: Vec<Node> = Vec::with_capacity(calls.len() + inner.len() + events.len());
        for (level, list) in [(CALL, calls), (NESTED, inner)] {
            for c in list {
                nodes.push(Node {
                    key: c.key,
                    level,
                    ctx: u32::MAX,
                    tid: 0,
                    ts: c.ts,
                    end: c.end.max(c.ts),
                    children: Vec::new(),
                });
            }
        }
        for e in &events {
            let Some((key, level)) = classify(e) else {
                continue;
            };
            nodes.push(Node {
                key,
                level,
                ctx: e.ctx,
                tid: e.tid,
                ts: e.ts_ns,
                end: e.ts_ns + e.dur_ns,
                children: Vec::new(),
            });
        }
        for n in &nodes {
            *self.busy_ns.entry(n.key).or_default() += n.end - n.ts;
            *self.count.entry(n.key).or_default() += 1;
        }
        for e in &events {
            if let Some((key, _)) = classify(e) {
                *self.arg.entry(key).or_default() += e.arg;
            }
        }
        // Parent of each non-root node: the innermost eligible span that
        // contains its start.
        let contains = |p: &Node, c: &Node| p.ts <= c.ts && c.ts <= p.end;
        let mut roots = Vec::new();
        for i in 0..nodes.len() {
            let c = &nodes[i];
            let eligible = |p: &Node| -> bool {
                match c.level {
                    NESTED | ADVANCE => p.level == CALL,
                    STAGE => p.level == ADVANCE && p.ctx == c.ctx,
                    SUB => p.level == STAGE && p.ctx == c.ctx,
                    SINK => (p.level == STAGE || p.key == "sub.emit") && p.ctx == c.ctx,
                    VALUATION => p.key == "sink.watermark" && p.tid == c.tid,
                    _ => false,
                }
            };
            let parent = (0..nodes.len())
                .filter(|&j| j != i && eligible(&nodes[j]) && contains(&nodes[j], c))
                .min_by_key(|&j| nodes[j].end - nodes[j].ts);
            let (key, level, dur) = (c.key, c.level, (c.end - c.ts) as f64);
            match parent {
                Some(p) => nodes[p].children.push(i),
                None if level == CALL => roots.push(i),
                None => {
                    // Recorded outside every call of this step: inside a
                    // push since the previous drain (only index rebuilds
                    // do that).
                    *self.self_ns.entry(carve_from).or_default() -= dur;
                    *self.self_ns.entry(key).or_default() += dur;
                }
            }
        }
        for n in &nodes {
            if n.key == "engine.advance.span" {
                let stages: u64 = n
                    .children
                    .iter()
                    .filter(|&&k| nodes[k].level == STAGE)
                    .map(|&k| nodes[k].end - nodes[k].ts)
                    .sum();
                self.advance_span_ns.push(n.end - n.ts);
                if stages != n.end - n.ts {
                    self.tile_failures += 1;
                }
            }
        }
        for r in roots {
            self.attribute(&nodes, r, 1.0);
        }
        self.drain_ns += now_ns() - t0;
    }

    /// Splits node `i`'s duration (scaled by `weight`) into its self time
    /// and its children's shares, recursively.
    fn attribute(&mut self, nodes: &[Node], i: usize, weight: f64) {
        let n = &nodes[i];
        let clip = |k: usize| (nodes[k].ts.max(n.ts), nodes[k].end.min(n.end));
        let mut bounds = vec![n.ts, n.end];
        for &k in &n.children {
            let (a, b) = clip(k);
            bounds.push(a);
            bounds.push(b);
        }
        bounds.sort_unstable();
        bounds.dedup();
        let mut own = 0.0;
        let mut share = vec![0.0f64; n.children.len()];
        let mut covering = Vec::new();
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            covering.clear();
            for (ci, &k) in n.children.iter().enumerate() {
                let (ka, kb) = clip(k);
                if ka <= a && b <= kb {
                    covering.push(ci);
                }
            }
            let len = (b - a) as f64;
            if covering.is_empty() {
                own += len;
            } else {
                for &ci in &covering {
                    share[ci] += len / covering.len() as f64;
                }
            }
        }
        *self.self_ns.entry(n.key).or_default() += own * weight;
        for (ci, &k) in n.children.iter().enumerate() {
            let dur = (nodes[k].end - nodes[k].ts).max(1) as f64;
            self.attribute(nodes, k, weight * share[ci] / dur);
        }
    }

    /// Inclusive seconds of a layer key.
    pub fn busy_s(&self, key: &str) -> f64 {
        self.busy_ns.get(key).copied().unwrap_or(0) as f64 * 1e-9
    }

    pub fn count(&self, key: &str) -> u64 {
        self.count.get(key).copied().unwrap_or(0)
    }

    pub fn arg(&self, key: &str) -> u64 {
        self.arg.get(key).copied().unwrap_or(0)
    }

    /// Sum of all self times, in seconds.
    pub fn total_self_s(&self) -> f64 {
        self.self_ns.values().sum::<f64>() * 1e-9
    }
}
