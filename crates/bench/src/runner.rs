//! Timing helpers and result rendering.

use std::time::Instant;

use tp_baselines::Approach;
use tp_core::ops::SetOp;
use tp_core::relation::TpRelation;

/// Wall-clock milliseconds taken by `f`, plus its result.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// The experiment scale factor from the `TP_SCALE` environment variable
/// (see [`parse_scale`]). Paper-sized experiments need roughly
/// `TP_SCALE=10`.
pub fn scale() -> f64 {
    parse_scale(std::env::var("TP_SCALE").ok().as_deref())
}

/// Parses a raw `TP_SCALE` value: a finite positive number, or 1.0 when
/// unset or anything else (`inf` would saturate every scaled size to
/// `usize::MAX`).
pub fn parse_scale(raw: Option<&str>) -> f64 {
    raw.and_then(|v| v.parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v > 0.0)
        .unwrap_or(1.0)
}

/// `n` scaled by [`scale`], rounded, at least 1.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()).round() as usize).max(1)
}

/// Runs one `(approach, op)` measurement. Returns `None` when the approach
/// does not support the operation (Table II) or exceeds its size cap.
///
/// `cap` guards the quadratic approaches: the paper ran them for hours; the
/// default harness skips sizes where a quadratic baseline would dominate
/// total runtime (the printed tables mark these as `-`).
pub fn run_one(
    approach: Approach,
    op: SetOp,
    r: &TpRelation,
    s: &TpRelation,
    cap: Option<usize>,
) -> Option<f64> {
    if !approach.supports(op) {
        return None;
    }
    if let Some(cap) = cap {
        if r.len().max(s.len()) > cap {
            return None;
        }
    }
    let (ms, out) = time_ms(|| approach.run(op, r, s).expect("support checked"));
    // Keep the optimizer honest: the output length must be observed.
    std::hint::black_box(out.len());
    Some(ms)
}

/// Per-approach size cap for the default harness scale. Quadratic
/// approaches (NORM, TPDB) get a cap that keeps a full figure under a few
/// seconds; everything else runs unbounded. Scales with `TP_SCALE`.
pub fn default_cap(approach: Approach) -> Option<usize> {
    match approach {
        Approach::Norm | Approach::Tpdb => Some(scaled(6_000)),
        Approach::Ti => Some(scaled(200_000)),
        Approach::Lawa | Approach::Oip => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::fact::Fact;
    use tp_core::interval::Interval;
    use tp_core::relation::VarTable;

    #[test]
    fn time_ms_returns_result() {
        let (ms, v) = time_ms(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn scale_defaults_to_one() {
        // The test environment does not set TP_SCALE.
        if std::env::var("TP_SCALE").is_err() {
            assert_eq!(scale(), 1.0);
            assert_eq!(scaled(100), 100);
        }
    }

    #[test]
    fn parse_scale_accepts_only_finite_positive_values() {
        assert_eq!(parse_scale(Some("0.1")), 0.1);
        assert_eq!(parse_scale(Some("10")), 10.0);
        for rejected in ["inf", "-inf", "NaN", "-1", "0", "", "ten"] {
            assert_eq!(parse_scale(Some(rejected)), 1.0, "{rejected:?}");
        }
        assert_eq!(parse_scale(None), 1.0);
    }

    #[test]
    fn run_one_skips_unsupported_and_capped() {
        let mut vars = VarTable::new();
        let r = TpRelation::base(
            "r",
            vec![(Fact::single("x"), Interval::at(1, 5), 0.5)],
            &mut vars,
        )
        .unwrap();
        assert!(run_one(Approach::Ti, SetOp::Except, &r, &r, None).is_none());
        assert!(run_one(Approach::Lawa, SetOp::Except, &r, &r, Some(0)).is_none());
        assert!(run_one(Approach::Lawa, SetOp::Except, &r, &r, Some(10)).is_some());
    }
}
