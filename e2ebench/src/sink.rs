//! The benchmark's sink decorator: it wraps the shipped [`ValuatingSink`],
//! consumes its valuated inserts after every watermark the way an alert
//! monitor would, fingerprints the delta stream for the cross-round
//! check, and — in traced rounds — records each callback as a `bench`
//! span on the calling thread's ring.

use std::borrow::Borrow;

use tp_core::arena::SegmentId;
use tp_core::interval::TimePoint;
use tp_core::ops::SetOp;
use tp_core::relation::VarTable;
use tp_obs::{now_ns, record_span};
use tp_stream::{Delta, StreamSink, ValuatedDelta, ValuatingSink};

/// What one stream produced, compared across rounds of one seed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    pub inserts: u64,
    pub extends: u64,
    pub valuated: u64,
    /// Sum of valuated probabilities, in emission order (bit-exact when
    /// the stream is deterministic).
    pub p_sum: f64,
}

pub struct TimedSink<V, S> {
    inner: ValuatingSink<V, S>,
    /// Span context of the engine this sink listens to.
    ctx: u32,
    traced: bool,
    /// Keep the valuated inserts (the oracle round) instead of folding
    /// them into the fingerprint only.
    keep: bool,
    kept: Vec<ValuatedDelta>,
    pub fingerprint: Fingerprint,
    pub delta_calls: u64,
    /// Valuation batches the wrapped sink ran (watermarks with inserts).
    pub valuation_batches: u64,
    delta_first: u64,
    delta_ns: u64,
}

impl<V: Borrow<VarTable>, S: StreamSink> TimedSink<V, S> {
    pub fn new(inner: ValuatingSink<V, S>, ctx: u32, traced: bool, keep: bool) -> Self {
        TimedSink {
            inner,
            ctx,
            traced,
            keep,
            kept: Vec::new(),
            fingerprint: Fingerprint::default(),
            delta_calls: 0,
            valuation_batches: 0,
            delta_first: 0,
            delta_ns: 0,
        }
    }

    pub fn inner(&self) -> &S {
        self.inner.inner()
    }

    /// Valuated inserts kept by an oracle round.
    pub fn kept(&self) -> &[ValuatedDelta] {
        &self.kept
    }

    fn watermark(&mut self, w: TimePoint) {
        self.inner.on_watermark(w);
        let batch = self.inner.drain_valuated();
        if !batch.is_empty() {
            self.valuation_batches += 1;
        }
        for v in &batch {
            self.fingerprint.valuated += 1;
            self.fingerprint.p_sum += v.p;
        }
        if self.keep {
            self.kept.extend(batch);
        }
    }
}

impl<V: Borrow<VarTable>, S: StreamSink> StreamSink for TimedSink<V, S> {
    fn on_delta(&mut self, op: SetOp, delta: &Delta) {
        self.delta_calls += 1;
        match delta {
            Delta::Insert(_) => self.fingerprint.inserts += 1,
            Delta::Extend { .. } => self.fingerprint.extends += 1,
        }
        if !self.traced {
            self.inner.on_delta(op, delta);
            return;
        }
        let t0 = now_ns();
        self.inner.on_delta(op, delta);
        if self.delta_ns == 0 {
            self.delta_first = t0;
        }
        self.delta_ns += (now_ns() - t0).max(1);
    }

    fn on_watermark(&mut self, w: TimePoint) {
        if !self.traced {
            self.watermark(w);
            return;
        }
        // The delta callbacks of this advance, as one span of their summed
        // length starting at the first callback (they all sit inside the
        // sweep stage, where nothing else is a child).
        if self.delta_ns > 0 {
            record_span(
                "sink.delta",
                "bench",
                self.delta_first,
                self.delta_ns,
                self.ctx,
                0,
            );
            self.delta_ns = 0;
        }
        let t0 = now_ns();
        self.watermark(w);
        record_span("sink.watermark", "bench", t0, now_ns() - t0, self.ctx, 0);
    }

    fn on_retire(&mut self, seg: SegmentId) {
        if !self.traced {
            self.inner.on_retire(seg);
            return;
        }
        let t0 = now_ns();
        self.inner.on_retire(seg);
        record_span("sink.retire", "bench", t0, now_ns() - t0, self.ctx, 0);
    }
}
