//! Time points, half-open intervals and Allen's interval relations.
//!
//! The paper's temporal attribute `T` has domain `ΩT × ΩT` over a finite,
//! ordered set of time points. We model time points as `i64` and intervals
//! as half-open ranges `[start, end)` — the convention used throughout the
//! paper (e.g. tuple `('milk', a1, [2,10), 0.3)` is valid on days 2..=9).

use std::fmt;

use crate::error::{Error, Result};

/// A discrete time point. The granularity (days, milliseconds, …) is up to
/// the application; the Meteo workload uses 10-minute ticks, WebKit uses
/// milliseconds.
pub type TimePoint = i64;

/// A non-empty half-open time interval `[start, end)`.
///
/// Invariant: `start < end`. Empty intervals are unrepresentable, matching
/// the paper's model where every tuple is valid for at least one time point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    start: TimePoint,
    end: TimePoint,
}

impl Interval {
    /// Creates `[start, end)`, failing if the interval would be empty.
    ///
    /// `TimePoint::MAX` and `TimePoint::MIN` are rejected as endpoints: they
    /// are reserved as sweep sentinels (LAWA initializes `winTe` to
    /// `TimePoint::MAX`; `prevWinTe` to `TimePoint::MIN`), and allowing them
    /// in data would also make `duration` overflow.
    pub fn new(start: TimePoint, end: TimePoint) -> Result<Self> {
        if start > TimePoint::MIN && end < TimePoint::MAX && start < end {
            Ok(Interval { start, end })
        } else {
            Err(Error::EmptyInterval { start, end })
        }
    }

    /// Creates `[start, end)`, panicking if `start >= end`.
    ///
    /// Convenience for literals in tests and examples.
    #[track_caller]
    pub fn at(start: TimePoint, end: TimePoint) -> Self {
        Self::new(start, end).expect("interval literal must satisfy start < end")
    }

    /// Inclusive start point.
    #[inline]
    pub fn start(&self) -> TimePoint {
        self.start
    }

    /// Exclusive end point.
    #[inline]
    pub fn end(&self) -> TimePoint {
        self.end
    }

    /// Number of time points covered by the interval (`end - start`).
    #[inline]
    pub fn duration(&self) -> i64 {
        self.end - self.start
    }

    /// Whether time point `t` lies inside `[start, end)`.
    #[inline]
    pub fn contains(&self, t: TimePoint) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether the two intervals share at least one time point.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Whether `self` ends exactly where `other` starts or vice versa.
    #[inline]
    pub fn adjacent(&self, other: &Interval) -> bool {
        self.end == other.start || other.end == self.start
    }

    /// The intersection of two intervals, if non-empty.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(Interval { start, end })
    }

    /// The smallest interval covering both inputs (only meaningful when they
    /// overlap or are adjacent; callers coalescing runs use it that way).
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Iterator over the time points contained in the interval.
    pub fn points(&self) -> impl Iterator<Item = TimePoint> {
        self.start..self.end
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{})", self.start, self.end)
    }
}

/// Allen's thirteen interval relations (\[Allen 1983\], paper reference \[32\]).
///
/// The TPDB baseline grounds `∩Tp` with one deduction rule per *overlapping*
/// relation (the six relations under which two intervals share a time point
/// plus `Equals`, i.e. `Overlaps`, `OverlappedBy`, `During`, `Contains`,
/// `Starts`, `StartedBy`, `Finishes`, `FinishedBy`, `Equals` — the paper
/// counts 6 by treating the symmetric start/finish pairs together).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllenRelation {
    /// `a` ends before `b` starts.
    Before,
    /// `a` starts after `b` ends.
    After,
    /// `a.end == b.start`.
    Meets,
    /// `b.end == a.start`.
    MetBy,
    /// `a` starts first, they overlap, `b` ends last.
    Overlaps,
    /// `b` starts first, they overlap, `a` ends last.
    OverlappedBy,
    /// `a` strictly inside `b`.
    During,
    /// `b` strictly inside `a`.
    Contains,
    /// Same start, `a` ends first.
    Starts,
    /// Same start, `b` ends first.
    StartedBy,
    /// Same end, `a` starts last.
    Finishes,
    /// Same end, `b` starts last.
    FinishedBy,
    /// Identical intervals.
    Equals,
}

impl AllenRelation {
    /// Classifies the relation of `a` with respect to `b`.
    pub fn classify(a: &Interval, b: &Interval) -> AllenRelation {
        use std::cmp::Ordering::*;
        use AllenRelation::*;
        match (a.start.cmp(&b.start), a.end.cmp(&b.end)) {
            (Equal, Equal) => Equals,
            (Equal, Less) => Starts,
            (Equal, Greater) => StartedBy,
            (Greater, Equal) => Finishes,
            (Less, Equal) => FinishedBy,
            (Greater, Less) => During,
            (Less, Greater) => Contains,
            (Less, Less) => {
                if a.end < b.start {
                    Before
                } else if a.end == b.start {
                    Meets
                } else {
                    Overlaps
                }
            }
            (Greater, Greater) => {
                if b.end < a.start {
                    After
                } else if b.end == a.start {
                    MetBy
                } else {
                    OverlappedBy
                }
            }
        }
    }

    /// The nine relations under which the intervals share a time point.
    pub const OVERLAPPING: [AllenRelation; 9] = [
        AllenRelation::Overlaps,
        AllenRelation::OverlappedBy,
        AllenRelation::During,
        AllenRelation::Contains,
        AllenRelation::Starts,
        AllenRelation::StartedBy,
        AllenRelation::Finishes,
        AllenRelation::FinishedBy,
        AllenRelation::Equals,
    ];

    /// Whether this relation implies a shared time point.
    pub fn is_overlapping(&self) -> bool {
        !matches!(
            self,
            AllenRelation::Before
                | AllenRelation::After
                | AllenRelation::Meets
                | AllenRelation::MetBy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_interval() {
        assert!(Interval::new(3, 3).is_err());
        assert!(Interval::new(5, 2).is_err());
        assert!(Interval::new(2, 5).is_ok());
    }

    #[test]
    fn rejects_sentinel_endpoints() {
        assert!(Interval::new(0, TimePoint::MAX).is_err());
        assert!(Interval::new(TimePoint::MIN, 0).is_err());
        assert!(Interval::new(TimePoint::MIN + 1, TimePoint::MAX - 1).is_ok());
    }

    #[test]
    fn contains_is_half_open() {
        let i = Interval::at(2, 10);
        assert!(i.contains(2));
        assert!(i.contains(9));
        assert!(!i.contains(10));
        assert!(!i.contains(1));
    }

    #[test]
    fn duration_counts_points() {
        assert_eq!(Interval::at(2, 10).duration(), 8);
        assert_eq!(Interval::at(0, 1).duration(), 1);
    }

    #[test]
    fn overlap_detection() {
        let a = Interval::at(1, 4);
        assert!(a.overlaps(&Interval::at(3, 6)));
        assert!(a.overlaps(&Interval::at(0, 2)));
        assert!(a.overlaps(&Interval::at(1, 4)));
        // Adjacent intervals share no time point under half-open semantics.
        assert!(!a.overlaps(&Interval::at(4, 6)));
        assert!(!a.overlaps(&Interval::at(-3, 1)));
    }

    #[test]
    fn adjacency() {
        let a = Interval::at(1, 4);
        assert!(a.adjacent(&Interval::at(4, 9)));
        assert!(a.adjacent(&Interval::at(0, 1)));
        assert!(!a.adjacent(&Interval::at(5, 9)));
    }

    #[test]
    fn intersection() {
        let a = Interval::at(1, 6);
        assert_eq!(a.intersect(&Interval::at(4, 9)), Some(Interval::at(4, 6)));
        assert_eq!(a.intersect(&Interval::at(6, 9)), None);
        assert_eq!(a.intersect(&Interval::at(2, 3)), Some(Interval::at(2, 3)));
    }

    #[test]
    fn hull_covers_both() {
        assert_eq!(
            Interval::at(1, 3).hull(&Interval::at(3, 8)),
            Interval::at(1, 8)
        );
    }

    #[test]
    fn points_iterator() {
        let pts: Vec<_> = Interval::at(2, 5).points().collect();
        assert_eq!(pts, vec![2, 3, 4]);
    }

    #[test]
    fn interval_display() {
        assert_eq!(Interval::at(2, 10).to_string(), "[2,10)");
    }

    #[test]
    fn allen_classification_all_thirteen() {
        use AllenRelation::*;
        let c = |a: (i64, i64), b: (i64, i64)| {
            AllenRelation::classify(&Interval::at(a.0, a.1), &Interval::at(b.0, b.1))
        };
        assert_eq!(c((1, 2), (3, 4)), Before);
        assert_eq!(c((3, 4), (1, 2)), After);
        assert_eq!(c((1, 3), (3, 5)), Meets);
        assert_eq!(c((3, 5), (1, 3)), MetBy);
        assert_eq!(c((1, 4), (2, 6)), Overlaps);
        assert_eq!(c((2, 6), (1, 4)), OverlappedBy);
        assert_eq!(c((2, 3), (1, 5)), During);
        assert_eq!(c((1, 5), (2, 3)), Contains);
        assert_eq!(c((1, 3), (1, 5)), Starts);
        assert_eq!(c((1, 5), (1, 3)), StartedBy);
        assert_eq!(c((4, 5), (1, 5)), Finishes);
        assert_eq!(c((1, 5), (4, 5)), FinishedBy);
        assert_eq!(c((1, 5), (1, 5)), Equals);
    }

    #[test]
    fn overlapping_relations_consistent_with_overlaps() {
        // Exhaustive over a small grid: classify() is overlapping iff
        // Interval::overlaps agrees.
        for a0 in 0..5 {
            for a1 in (a0 + 1)..6 {
                for b0 in 0..5 {
                    for b1 in (b0 + 1)..6 {
                        let a = Interval::at(a0, a1);
                        let b = Interval::at(b0, b1);
                        let rel = AllenRelation::classify(&a, &b);
                        assert_eq!(
                            rel.is_overlapping(),
                            a.overlaps(&b),
                            "a={a} b={b} rel={rel:?}"
                        );
                    }
                }
            }
        }
    }
}
