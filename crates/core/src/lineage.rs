//! Data lineage: Boolean formulas over base-tuple identifiers, stored as
//! handles into the hash-consed [`crate::arena::LineageArena`].
//!
//! A lineage expression λ consists of tuple identifiers (Boolean random
//! variables, assumed independent) and the connectives ¬, ∧, ∨ (§III). For a
//! base tuple, λ is the atomic variable of the tuple itself; for result
//! tuples, λ is built by the lineage-concatenation functions of Table I:
//!
//! ```text
//! and(λ1, λ2)    = (λ1) ∧ (λ2)
//! andNot(λ1, λ2) = (λ1)            if λ2 = null
//!                  (λ1) ∧ ¬(λ2)    otherwise
//! or(λ1, λ2)     = (λ1)            if λ2 = null
//!                  (λ2)            if λ1 = null
//!                  (λ1) ∨ (λ2)     otherwise
//! ```
//!
//! "null" (no tuple valid) is modelled as `Option::None`; the functions are
//! [`Lineage::and`], [`Lineage::and_not`] and [`Lineage::or_opt`].
//!
//! Equivalence of lineage expressions — needed by change preservation
//! (Def. 2) — is checked *syntactically* (structural equality), exactly as
//! the paper's implementation does (footnote 1: logical equivalence of
//! Boolean formulas is co-NP-complete). Because formulas are hash-consed,
//! that syntactic check is a single integer comparison: `a == b` iff the two
//! handles point at the same interned node. Cloning a lineage is a `Copy` of
//! eight bytes, so the window advancer, coalescing, and every set operation
//! concatenate and compare lineage in O(1) per step.
//!
//! Handles are relative to the thread's *current* arena — the process
//! global by default, or a private reclaimable arena entered with
//! [`LineageArena::enter`] (the streaming engine's bounded-memory mode).
//!
//! Consumers that need the classic recursive representation (oracle
//! comparisons against an independent implementation, serialization
//! debugging) can convert through [`Lineage::to_tree`] /
//! [`Lineage::from_tree`]; see [`LineageTree`].

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::arena::{LineageArena, LineageNode, LineageRef};

/// Identifier of a base tuple, acting as an independent Boolean random
/// variable in lineage formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId(pub u64);

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A Boolean lineage formula: a `Copy` handle into the global hash-consed
/// arena.
///
/// Structural equality between independently computed results (LAWA vs. the
/// snapshot oracle vs. the baselines) is meaningful — identical formulas
/// intern to identical handles — and costs one integer compare. Connectives
/// are binary, mirroring the shape produced by the Table I concatenation
/// functions.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lineage(LineageRef);

/// One level of a formula, as returned by [`Lineage::kind`]. Children are
/// themselves `Copy` handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineageKind {
    /// An atomic base-tuple variable.
    Var(TupleId),
    /// Negation ¬λ.
    Not(Lineage),
    /// Conjunction (λ1) ∧ (λ2).
    And(Lineage, Lineage),
    /// Disjunction (λ1) ∨ (λ2).
    Or(Lineage, Lineage),
}

/// Runs `f` against this thread's current arena (the innermost
/// [`LineageArena::enter`] scope, or the process-global arena). Every
/// `Lineage` operation goes through here, so a streaming engine can host
/// its formulas in a private, reclaimable arena.
fn with_arena<T>(f: impl FnOnce(&LineageArena) -> T) -> T {
    LineageArena::with_current(f)
}

impl Lineage {
    /// The atomic lineage of a base tuple.
    pub fn var(id: TupleId) -> Self {
        Lineage(with_arena(|a| a.intern(LineageNode::Var(id))))
    }

    /// ¬λ.
    pub fn negate(self) -> Self {
        Lineage(with_arena(|a| a.intern(LineageNode::Not(self.0))))
    }

    /// Table I `and`: `(λ1) ∧ (λ2)`. Used by `∩Tp`.
    pub fn and(l1: &Lineage, l2: &Lineage) -> Lineage {
        Lineage(with_arena(|a| a.intern(LineageNode::And(l1.0, l2.0))))
    }

    /// Table I `andNot`: `(λ1)` if λ2 is null, else `(λ1) ∧ ¬(λ2)`.
    /// Used by `−Tp`.
    pub fn and_not(l1: &Lineage, l2: Option<&Lineage>) -> Lineage {
        match l2 {
            None => *l1,
            Some(l2) => Lineage::and(l1, &l2.negate()),
        }
    }

    /// Table I `or`: null-tolerant disjunction. Returns `None` only when
    /// both operands are null. Used by `∪Tp`.
    pub fn or_opt(l1: Option<&Lineage>, l2: Option<&Lineage>) -> Option<Lineage> {
        match (l1, l2) {
            (None, None) => None,
            (Some(l1), None) => Some(*l1),
            (None, Some(l2)) => Some(*l2),
            (Some(l1), Some(l2)) => Some(Lineage::or(l1, l2)),
        }
    }

    /// Plain binary disjunction (both operands present).
    pub fn or(l1: &Lineage, l2: &Lineage) -> Lineage {
        Lineage(with_arena(|a| a.intern(LineageNode::Or(l1.0, l2.0))))
    }

    /// The interned handle — the O(1) identity used by equality, hashing
    /// and the valuation caches.
    pub fn node_ref(&self) -> LineageRef {
        self.0
    }

    /// Reconstructs a handle from a ref previously obtained via
    /// [`Lineage::node_ref`].
    pub fn from_node_ref(r: LineageRef) -> Lineage {
        Lineage(r)
    }

    /// The top-level connective with `Copy` child handles.
    pub fn kind(&self) -> LineageKind {
        match with_arena(|a| a.node(self.0)) {
            LineageNode::Var(id) => LineageKind::Var(id),
            LineageNode::Not(c) => LineageKind::Not(Lineage(c)),
            LineageNode::And(a, b) => LineageKind::And(Lineage(a), Lineage(b)),
            LineageNode::Or(a, b) => LineageKind::Or(Lineage(a), Lineage(b)),
        }
    }

    /// The variable of an atomic lineage, `None` for derived formulas.
    pub fn as_var(&self) -> Option<TupleId> {
        match with_arena(|a| a.node(self.0)) {
            LineageNode::Var(id) => Some(id),
            _ => None,
        }
    }

    /// The smallest arena segment reachable from the formula's sub-DAG
    /// (see [`crate::arena::LineageArena::min_segment`]): a traversal of
    /// this formula only touches segments in `[min_segment, segment]`.
    /// The streaming engine's retire schedule treats a live formula as
    /// keeping that whole range alive.
    pub fn min_segment(&self) -> crate::arena::SegmentId {
        with_arena(|a| a.min_segment(self.0))
    }

    /// Collects the distinct variables of the formula, in ascending order.
    pub fn vars(&self) -> BTreeSet<TupleId> {
        with_arena(|arena| {
            if let Some(list) = arena.var_list(self.0) {
                return list.iter().copied().collect();
            }
            // DAG traversal with a visited set: shared subformulas are
            // walked once, so this is linear in the number of unique nodes;
            // stored sublists short-circuit their subtrees. One view pins
            // the touched segments for the whole walk.
            let view = arena.view();
            let mut out = BTreeSet::new();
            let mut seen: BTreeSet<LineageRef> = BTreeSet::new();
            let mut stack = vec![self.0];
            while let Some(r) = stack.pop() {
                if !seen.insert(r) {
                    continue;
                }
                if let Some(list) = view.var_list(r) {
                    out.extend(list.iter().copied());
                    continue;
                }
                match view.node(r) {
                    LineageNode::Var(id) => {
                        out.insert(id);
                    }
                    LineageNode::Not(c) => stack.push(c),
                    LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                        stack.push(a);
                        stack.push(b);
                    }
                }
            }
            out
        })
    }

    /// Total number of variable *occurrences* (with multiplicity), from the
    /// arena's per-node metadata — O(1).
    pub fn var_occurrences(&self) -> usize {
        usize::try_from(with_arena(|a| a.occurrences(self.0))).unwrap_or(usize::MAX)
    }

    /// Whether the formula is in one-occurrence form (1OF): no tuple
    /// identifier occurs more than once (§V-B). Marginal probabilities of
    /// 1OF formulas over independent variables are computable in linear time
    /// (Corollary 1). Answered from interned metadata in O(1); for formulas
    /// beyond [`crate::arena::VAR_LIST_CAP`] occurrences with interleaved
    /// variable ranges the answer may be conservatively `false` (valuation
    /// then takes the always-correct Shannon path).
    pub fn is_one_occurrence_form(&self) -> bool {
        with_arena(|a| a.one_of(self.0))
    }

    /// Number of nodes in the formula tree (tree semantics, counted with
    /// multiplicity under sharing) — O(1) from interned metadata.
    pub fn size(&self) -> usize {
        usize::try_from(with_arena(|a| a.size(self.0))).unwrap_or(usize::MAX)
    }

    /// Tree-semantic multiplicity of every variable, accumulated over the
    /// shared DAG in one topological pass (linear in unique nodes; one
    /// pinned view for the whole walk).
    pub fn var_multiplicities(&self) -> HashMap<TupleId, u64> {
        with_arena(|arena| {
            let view = arena.view();
            // Postorder to get a topological order of the sub-DAG.
            let mut order: Vec<LineageRef> = Vec::new();
            let mut seen: BTreeSet<LineageRef> = BTreeSet::new();
            let mut stack: Vec<(LineageRef, bool)> = vec![(self.0, false)];
            while let Some((r, expanded)) = stack.pop() {
                if expanded {
                    order.push(r);
                    continue;
                }
                if !seen.insert(r) {
                    continue;
                }
                stack.push((r, true));
                match view.node(r) {
                    LineageNode::Var(_) => {}
                    LineageNode::Not(c) => stack.push((c, false)),
                    LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                        stack.push((a, false));
                        stack.push((b, false));
                    }
                }
            }
            // Reverse topological: propagate multiplicities root → leaves.
            let mut mult: HashMap<LineageRef, u64> = HashMap::new();
            mult.insert(self.0, 1);
            let mut counts: HashMap<TupleId, u64> = HashMap::new();
            for &r in order.iter().rev() {
                let m = mult.get(&r).copied().unwrap_or(0);
                match view.node(r) {
                    LineageNode::Var(id) => {
                        *counts.entry(id).or_default() += m;
                    }
                    LineageNode::Not(c) => {
                        *mult.entry(c).or_default() += m;
                    }
                    LineageNode::And(a, b) | LineageNode::Or(a, b) => {
                        *mult.entry(a).or_default() += m;
                        *mult.entry(b).or_default() += m;
                    }
                }
            }
            counts
        })
    }

    /// Evaluates the formula under a truth assignment of the variables.
    /// Shared subformulas are evaluated once (per-call memo over the DAG);
    /// the arena lock is taken once for the whole walk.
    pub fn eval(&self, assignment: &impl Fn(TupleId) -> bool) -> bool {
        use crate::arena::{ArenaView, FastMap};
        fn rec(
            l: LineageRef,
            view: &ArenaView<'_>,
            assignment: &impl Fn(TupleId) -> bool,
            memo: &mut FastMap<LineageRef, bool>,
        ) -> bool {
            if let Some(&v) = memo.get(&l) {
                return v;
            }
            let v = match view.node(l) {
                LineageNode::Var(id) => assignment(id),
                LineageNode::Not(c) => !rec(c, view, assignment, memo),
                LineageNode::And(a, b) => {
                    rec(a, view, assignment, memo) && rec(b, view, assignment, memo)
                }
                LineageNode::Or(a, b) => {
                    rec(a, view, assignment, memo) || rec(b, view, assignment, memo)
                }
            };
            memo.insert(l, v);
            v
        }
        with_arena(|arena| {
            let view = arena.view();
            let mut memo = FastMap::default();
            rec(self.0, &view, assignment, &mut memo)
        })
    }

    /// Substitutes a truth value for a variable and simplifies constants
    /// away. Returns `Ok(simplified)` or `Err(value)` when the whole formula
    /// collapses to the constant `value`. Used by Shannon expansion in
    /// [`crate::prob`]. Subformulas that cannot contain the variable (per
    /// the arena's variable summaries) are returned untouched without a
    /// walk.
    pub fn condition(&self, var: TupleId, value: bool) -> std::result::Result<Lineage, bool> {
        fn rec(
            l: Lineage,
            var: TupleId,
            value: bool,
            memo: &mut HashMap<LineageRef, std::result::Result<Lineage, bool>>,
        ) -> std::result::Result<Lineage, bool> {
            if !with_arena(|a| a.may_contain(l.0, var)) {
                return Ok(l);
            }
            if let Some(cached) = memo.get(&l.0) {
                return *cached;
            }
            let out = match l.kind() {
                LineageKind::Var(id) => {
                    if id == var {
                        Err(value)
                    } else {
                        Ok(l)
                    }
                }
                LineageKind::Not(c) => match rec(c, var, value, memo) {
                    Ok(inner) => Ok(inner.negate()),
                    Err(v) => Err(!v),
                },
                LineageKind::And(a, b) => {
                    match (rec(a, var, value, memo), rec(b, var, value, memo)) {
                        (Err(false), _) | (_, Err(false)) => Err(false),
                        (Err(true), Ok(x)) | (Ok(x), Err(true)) => Ok(x),
                        (Err(true), Err(true)) => Err(true),
                        (Ok(x), Ok(y)) => Ok(Lineage::and(&x, &y)),
                    }
                }
                LineageKind::Or(a, b) => {
                    match (rec(a, var, value, memo), rec(b, var, value, memo)) {
                        (Err(true), _) | (_, Err(true)) => Err(true),
                        (Err(false), Ok(x)) | (Ok(x), Err(false)) => Ok(x),
                        (Err(false), Err(false)) => Err(false),
                        (Ok(x), Ok(y)) => Ok(Lineage::or(&x, &y)),
                    }
                }
            };
            memo.insert(l.0, out);
            out
        }
        let mut memo = HashMap::new();
        rec(*self, var, value, &mut memo)
    }

    /// Renders the formula with a custom variable labeller (e.g. the paper's
    /// `a1`, `c2` names from a [`crate::relation::VarTable`]).
    pub fn display_with<F>(&self, label: F) -> LineageDisplay<F>
    where
        F: Fn(TupleId) -> String,
    {
        LineageDisplay {
            lineage: *self,
            label,
        }
    }

    /// Expands the handle into the owned recursive [`LineageTree`]
    /// (tree semantics: shared nodes are duplicated). Compatibility layer
    /// for consumers comparing against independent implementations.
    pub fn to_tree(&self) -> LineageTree {
        fn rec(r: LineageRef, view: &crate::arena::ArenaView<'_>) -> LineageTree {
            let child = |c| Arc::new(rec(c, view));
            match view.node(r) {
                LineageNode::Var(id) => LineageTree::Var(id),
                LineageNode::Not(c) => LineageTree::Not(child(c)),
                LineageNode::And(a, b) => LineageTree::And(child(a), child(b)),
                LineageNode::Or(a, b) => LineageTree::Or(child(a), child(b)),
            }
        }
        with_arena(|arena| {
            let view = arena.view();
            rec(self.0, &view)
        })
    }

    /// Interns a recursive [`LineageTree`] back into the arena.
    pub fn from_tree(tree: &LineageTree) -> Lineage {
        match tree {
            LineageTree::Var(id) => Lineage::var(*id),
            LineageTree::Not(c) => Lineage::from_tree(c).negate(),
            LineageTree::And(a, b) => Lineage::and(&Lineage::from_tree(a), &Lineage::from_tree(b)),
            LineageTree::Or(a, b) => Lineage::or(&Lineage::from_tree(a), &Lineage::from_tree(b)),
        }
    }
}

impl fmt::Debug for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lineage#{}({})", self.0.index(), self)
    }
}

impl fmt::Display for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|id| format!("t{}", id.0)))
    }
}

/// The classic recursive lineage representation, kept as a compatibility
/// layer: oracle-style consumers can walk it without touching the arena,
/// and property tests compare arena results against computations on this
/// tree. Convert with [`Lineage::to_tree`] / [`Lineage::from_tree`].
///
/// Children are reference-counted, so the Table I constructors are O(1)
/// over existing trees: `LineageTree::And(l.clone(), r.clone())` bumps two
/// counts and allocates one node, and cloning a tree is shallow. Equality
/// is structural (with a pointer-equality shortcut on shared children),
/// and both `==` and drop walk the tree with an explicit stack, so a long
/// left-deep `Or` fold — one node per member of a standing group — neither
/// compares nor frees by recursion.
#[derive(Debug, Clone)]
pub enum LineageTree {
    /// An atomic base-tuple variable.
    Var(TupleId),
    /// Negation ¬λ.
    Not(Arc<LineageTree>),
    /// Conjunction (λ1) ∧ (λ2).
    And(Arc<LineageTree>, Arc<LineageTree>),
    /// Disjunction (λ1) ∨ (λ2).
    Or(Arc<LineageTree>, Arc<LineageTree>),
}

impl PartialEq for LineageTree {
    fn eq(&self, other: &Self) -> bool {
        type Pair<'t> = (&'t Arc<LineageTree>, &'t Arc<LineageTree>);
        let mut stack: Vec<Pair<'_>> = Vec::new();
        let (mut a, mut b) = (self, other);
        loop {
            let kids: [Option<Pair<'_>>; 2] = match (a, b) {
                (LineageTree::Var(x), LineageTree::Var(y)) if x == y => [None, None],
                (LineageTree::Not(x), LineageTree::Not(y)) => [Some((x, y)), None],
                (LineageTree::And(a1, a2), LineageTree::And(b1, b2))
                | (LineageTree::Or(a1, a2), LineageTree::Or(b1, b2)) => {
                    [Some((a1, b1)), Some((a2, b2))]
                }
                _ => return false,
            };
            stack.extend(
                kids.into_iter()
                    .flatten()
                    .filter(|(x, y)| !Arc::ptr_eq(x, y)),
            );
            match stack.pop() {
                Some((x, y)) => (a, b) = (x, y),
                None => return true,
            }
        }
    }
}

impl Eq for LineageTree {}

// Recursive, unlike `==`: the only hasher is the Shannon-expansion memo
// in `prob::exact`, whose other tree walks recurse as well; standing
// pipelines' fold spines are never hashed.
impl Hash for LineageTree {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            LineageTree::Var(id) => id.hash(state),
            LineageTree::Not(c) => c.hash(state),
            LineageTree::And(a, b) | LineageTree::Or(a, b) => {
                a.hash(state);
                b.hash(state);
            }
        }
    }
}

impl Drop for LineageTree {
    fn drop(&mut self) {
        // Detach every uniquely owned interior child onto an explicit
        // stack (leaving a leaf in its place), so each node is freed with
        // leaf or shared children only: the default drop would recurse
        // once per node of a left-deep fold spine.
        fn detach(node: &mut LineageTree, stack: &mut Vec<LineageTree>) {
            let (a, b) = match node {
                LineageTree::Var(_) => return,
                LineageTree::Not(c) => (c, None),
                LineageTree::And(a, b) | LineageTree::Or(a, b) => (a, Some(b)),
            };
            for child in std::iter::once(a).chain(b) {
                if let Some(inner) = Arc::get_mut(child) {
                    if !matches!(inner, LineageTree::Var(_)) {
                        stack.push(std::mem::replace(inner, LineageTree::Var(TupleId(0))));
                    }
                }
            }
        }
        let mut stack = Vec::new();
        detach(self, &mut stack);
        while let Some(mut node) = stack.pop() {
            detach(&mut node, &mut stack);
        }
    }
}

impl LineageTree {
    /// Evaluates the tree under a truth assignment (plain recursion).
    pub fn eval(&self, assignment: &impl Fn(TupleId) -> bool) -> bool {
        match self {
            LineageTree::Var(id) => assignment(*id),
            LineageTree::Not(c) => !c.eval(assignment),
            LineageTree::And(a, b) => a.eval(assignment) && b.eval(assignment),
            LineageTree::Or(a, b) => a.eval(assignment) || b.eval(assignment),
        }
    }

    /// Collects the distinct variables of the tree.
    pub fn vars(&self) -> BTreeSet<TupleId> {
        fn rec(t: &LineageTree, out: &mut BTreeSet<TupleId>) {
            match t {
                LineageTree::Var(id) => {
                    out.insert(*id);
                }
                LineageTree::Not(c) => rec(c, out),
                LineageTree::And(a, b) | LineageTree::Or(a, b) => {
                    rec(a, out);
                    rec(b, out);
                }
            }
        }
        let mut out = BTreeSet::new();
        rec(self, &mut out);
        out
    }

    /// Variable occurrences with multiplicity (plain recursion).
    pub fn var_occurrences(&self) -> usize {
        match self {
            LineageTree::Var(_) => 1,
            LineageTree::Not(c) => c.var_occurrences(),
            LineageTree::And(a, b) | LineageTree::Or(a, b) => {
                a.var_occurrences() + b.var_occurrences()
            }
        }
    }

    /// Whether no variable occurs more than once (reference implementation
    /// of the 1OF check).
    pub fn is_one_occurrence_form(&self) -> bool {
        fn rec(t: &LineageTree, seen: &mut BTreeSet<TupleId>) -> bool {
            match t {
                LineageTree::Var(id) => seen.insert(*id),
                LineageTree::Not(c) => rec(c, seen),
                LineageTree::And(a, b) | LineageTree::Or(a, b) => rec(a, seen) && rec(b, seen),
            }
        }
        let mut seen = BTreeSet::new();
        rec(self, &mut seen)
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        match self {
            LineageTree::Var(_) => 1,
            LineageTree::Not(c) => 1 + c.size(),
            LineageTree::And(a, b) | LineageTree::Or(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// The legacy un-memoized independence-assumption valuation: walks the
    /// whole tree on every call. Exact for 1OF formulas; the baseline the
    /// arena-backed memoized valuation is benchmarked against. The var
    /// store is locked once for the whole walk, not per node.
    pub fn independent_prob(&self, vars: &crate::relation::VarTable) -> crate::error::Result<f64> {
        self.independent_prob_with(&vars.prob_reader())
    }

    fn independent_prob_with(
        &self,
        probs: &crate::relation::ProbReader<'_>,
    ) -> crate::error::Result<f64> {
        Ok(match self {
            LineageTree::Var(id) => probs.prob(*id)?,
            LineageTree::Not(c) => 1.0 - c.independent_prob_with(probs)?,
            LineageTree::And(a, b) => {
                a.independent_prob_with(probs)? * b.independent_prob_with(probs)?
            }
            LineageTree::Or(a, b) => {
                let (pa, pb) = (
                    a.independent_prob_with(probs)?,
                    b.independent_prob_with(probs)?,
                );
                1.0 - (1.0 - pa) * (1.0 - pb)
            }
        })
    }

    /// Substitutes a truth value for a variable and simplifies constants
    /// away, entirely on the transient tree — nothing is interned. This is
    /// the conditioning step Shannon expansion uses
    /// ([`crate::prob::exact`]), so the expansion's scratch subformulas
    /// live and die with the call instead of accumulating in the
    /// process-global arena.
    pub fn condition(&self, var: TupleId, value: bool) -> std::result::Result<LineageTree, bool> {
        match self {
            LineageTree::Var(id) => {
                if *id == var {
                    Err(value)
                } else {
                    Ok(self.clone())
                }
            }
            LineageTree::Not(c) => match c.condition(var, value) {
                Ok(inner) => Ok(LineageTree::Not(Arc::new(inner))),
                Err(v) => Err(!v),
            },
            LineageTree::And(a, b) => match (a.condition(var, value), b.condition(var, value)) {
                (Err(false), _) | (_, Err(false)) => Err(false),
                (Err(true), Ok(x)) | (Ok(x), Err(true)) => Ok(x),
                (Err(true), Err(true)) => Err(true),
                (Ok(x), Ok(y)) => Ok(LineageTree::And(Arc::new(x), Arc::new(y))),
            },
            LineageTree::Or(a, b) => match (a.condition(var, value), b.condition(var, value)) {
                (Err(true), _) | (_, Err(true)) => Err(true),
                (Err(false), Ok(x)) | (Ok(x), Err(false)) => Ok(x),
                (Err(false), Err(false)) => Err(false),
                (Ok(x), Ok(y)) => Ok(LineageTree::Or(Arc::new(x), Arc::new(y))),
            },
        }
    }

    /// Multiplicity of every variable (plain recursion over the tree).
    pub fn var_multiplicities(&self) -> HashMap<TupleId, u64> {
        fn rec(t: &LineageTree, out: &mut HashMap<TupleId, u64>) {
            match t {
                LineageTree::Var(id) => *out.entry(*id).or_default() += 1,
                LineageTree::Not(c) => rec(c, out),
                LineageTree::And(a, b) | LineageTree::Or(a, b) => {
                    rec(a, out);
                    rec(b, out);
                }
            }
        }
        let mut out = HashMap::new();
        rec(self, &mut out);
        out
    }
}

/// Display adapter produced by [`Lineage::display_with`].
pub struct LineageDisplay<F> {
    lineage: Lineage,
    label: F,
}

impl<F> LineageDisplay<F>
where
    F: Fn(TupleId) -> String,
{
    fn fmt_rec(&self, l: Lineage, f: &mut fmt::Formatter<'_>, parent: u8) -> fmt::Result {
        // Precedence: Not > And > Or. Parenthesize when a child binds looser
        // than its parent, matching the paper's rendering c1∧¬(a1∨b1).
        let kind = l.kind();
        let prec = match kind {
            LineageKind::Var(_) => 3,
            LineageKind::Not(_) => 2,
            LineageKind::And(_, _) => 1,
            LineageKind::Or(_, _) => 0,
        };
        let needs_parens = prec < parent;
        if needs_parens {
            write!(f, "(")?;
        }
        match kind {
            LineageKind::Var(id) => write!(f, "{}", (self.label)(id))?,
            LineageKind::Not(c) => {
                write!(f, "¬")?;
                self.fmt_rec(c, f, 2)?;
            }
            LineageKind::And(a, b) => {
                self.fmt_rec(a, f, 1)?;
                write!(f, "∧")?;
                self.fmt_rec(b, f, 1)?;
            }
            LineageKind::Or(a, b) => {
                self.fmt_rec(a, f, 0)?;
                write!(f, "∨")?;
                self.fmt_rec(b, f, 0)?;
            }
        }
        if needs_parens {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl<F> fmt::Display for LineageDisplay<F>
where
    F: Fn(TupleId) -> String,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_rec(self.lineage, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u64) -> Lineage {
        Lineage::var(TupleId(i))
    }

    #[test]
    fn table1_and() {
        let l = Lineage::and(&v(1), &v(2));
        assert_eq!(l.to_string(), "t1∧t2");
    }

    #[test]
    fn table1_and_not_with_null() {
        // andNot(λ1, null) = λ1
        assert_eq!(Lineage::and_not(&v(1), None), v(1));
        // andNot(λ1, λ2) = λ1 ∧ ¬λ2
        assert_eq!(Lineage::and_not(&v(1), Some(&v(2))).to_string(), "t1∧¬t2");
    }

    #[test]
    fn table1_or_null_cases() {
        assert_eq!(Lineage::or_opt(None, None), None);
        assert_eq!(Lineage::or_opt(Some(&v(1)), None), Some(v(1)));
        assert_eq!(Lineage::or_opt(None, Some(&v(2))), Some(v(2)));
        assert_eq!(
            Lineage::or_opt(Some(&v(1)), Some(&v(2)))
                .unwrap()
                .to_string(),
            "t1∨t2"
        );
    }

    #[test]
    fn paper_example_rendering() {
        // c2 ∧ ¬(a1 ∨ b1) from Fig. 1c.
        let c2 = v(6);
        let a1 = v(1);
        let b1 = v(4);
        let l = Lineage::and_not(&c2, Lineage::or_opt(Some(&a1), Some(&b1)).as_ref());
        let rendered = l
            .display_with(|id| match id.0 {
                1 => "a1".into(),
                4 => "b1".into(),
                6 => "c2".into(),
                _ => unreachable!(),
            })
            .to_string();
        assert_eq!(rendered, "c2∧¬(a1∨b1)");
    }

    #[test]
    fn vars_and_occurrences() {
        let l = Lineage::and(&Lineage::or(&v(1), &v(2)), &v(1));
        assert_eq!(
            l.vars().into_iter().collect::<Vec<_>>(),
            vec![TupleId(1), TupleId(2)]
        );
        assert_eq!(l.var_occurrences(), 3);
        assert_eq!(l.size(), 5);
    }

    #[test]
    fn one_occurrence_form_detection() {
        assert!(v(1).is_one_occurrence_form());
        assert!(Lineage::and(&v(1), &v(2)).is_one_occurrence_form());
        assert!(Lineage::and_not(&v(1), Some(&Lineage::or(&v(2), &v(3)))).is_one_occurrence_form());
        // Repeated variable => not 1OF.
        assert!(!Lineage::and(&v(1), &v(1)).is_one_occurrence_form());
        assert!(!Lineage::or(&Lineage::and(&v(1), &v(2)), &v(2)).is_one_occurrence_form());
    }

    #[test]
    fn eval_truth_tables() {
        let l = Lineage::and_not(&v(1), Some(&v(2)));
        let assign = |a: bool, b: bool| move |id: TupleId| if id.0 == 1 { a } else { b };
        assert!(l.eval(&assign(true, false)));
        assert!(!l.eval(&assign(true, true)));
        assert!(!l.eval(&assign(false, false)));

        let l = Lineage::or(&v(1), &v(2));
        assert!(l.eval(&assign(false, true)));
        assert!(!l.eval(&assign(false, false)));
    }

    #[test]
    fn condition_simplifies() {
        // (t1 ∧ t2) | t1=true  =>  t2
        let l = Lineage::and(&v(1), &v(2));
        assert_eq!(l.condition(TupleId(1), true), Ok(v(2)));
        // (t1 ∧ t2) | t1=false =>  false
        assert_eq!(l.condition(TupleId(1), false), Err(false));
        // (t1 ∨ t2) | t1=true  =>  true
        let l = Lineage::or(&v(1), &v(2));
        assert_eq!(l.condition(TupleId(1), true), Err(true));
        // ¬t1 | t1=false => true
        assert_eq!(v(1).negate().condition(TupleId(1), false), Err(true));
        // unrelated var untouched
        assert_eq!(v(1).condition(TupleId(9), true), Ok(v(1)));
    }

    #[test]
    fn condition_nested() {
        // t1 ∧ ¬(t2 ∨ t3) | t2=false => t1 ∧ ¬t3
        let l = Lineage::and_not(&v(1), Some(&Lineage::or(&v(2), &v(3))));
        let got = l.condition(TupleId(2), false).unwrap();
        assert_eq!(got, Lineage::and_not(&v(1), Some(&v(3))));
        // ... | t2=true => false
        assert_eq!(l.condition(TupleId(2), true), Err(false));
    }

    #[test]
    fn structural_equality_is_syntactic() {
        // t1 ∨ t2 and t2 ∨ t1 are logically equivalent but syntactically
        // different — the paper's implementation (and ours) treats them as
        // different lineages.
        assert_ne!(Lineage::or(&v(1), &v(2)), Lineage::or(&v(2), &v(1)));
        assert_eq!(Lineage::or(&v(1), &v(2)), Lineage::or(&v(1), &v(2)));
    }

    #[test]
    fn hash_consing_makes_equality_a_ref_compare() {
        // Structurally identical formulas built independently share a node.
        let a = Lineage::and_not(&v(10), Some(&Lineage::or(&v(11), &v(12))));
        let b = Lineage::and_not(&v(10), Some(&Lineage::or(&v(11), &v(12))));
        assert_eq!(a.node_ref(), b.node_ref());
        assert_eq!(a, b);
        // And the handle survives a round trip.
        assert_eq!(Lineage::from_node_ref(a.node_ref()), a);
    }

    #[test]
    fn display_parenthesization() {
        // Or under And gets parens; And under Or does not need them.
        let or_under_and = Lineage::and(&Lineage::or(&v(1), &v(2)), &v(3));
        assert_eq!(or_under_and.to_string(), "(t1∨t2)∧t3");
        let and_under_or = Lineage::or(&Lineage::and(&v(1), &v(2)), &v(3));
        assert_eq!(and_under_or.to_string(), "t1∧t2∨t3");
        let not_var = v(1).negate();
        assert_eq!(not_var.to_string(), "¬t1");
        let not_of_and = Lineage::and(&v(1), &v(2)).negate();
        assert_eq!(not_of_and.to_string(), "¬(t1∧t2)");
    }

    #[test]
    fn tree_round_trip() {
        let l = Lineage::and_not(&v(5), Some(&Lineage::or(&v(6), &v(7))));
        let tree = l.to_tree();
        assert_eq!(tree.size(), l.size());
        assert_eq!(tree.vars(), l.vars());
        assert_eq!(tree.var_occurrences(), l.var_occurrences());
        assert_eq!(tree.is_one_occurrence_form(), l.is_one_occurrence_form());
        assert_eq!(Lineage::from_tree(&tree), l);
    }

    #[test]
    fn var_multiplicities_follow_tree_semantics() {
        // (t1 ∨ t2) ∧ (t1 ∨ t3): t1 twice, t2/t3 once — also when the
        // shared node or(t1, t2) is reused.
        let shared = Lineage::or(&v(1), &v(2));
        let l = Lineage::and(&shared, &Lineage::or(&v(1), &v(3)));
        let m = l.var_multiplicities();
        assert_eq!(m[&TupleId(1)], 2);
        assert_eq!(m[&TupleId(2)], 1);
        assert_eq!(m[&TupleId(3)], 1);
        // Deep sharing: and(x, x) doubles every count of x.
        let twice = Lineage::and(&shared, &shared);
        let m = twice.var_multiplicities();
        assert_eq!(m[&TupleId(1)], 2);
        assert_eq!(m[&TupleId(2)], 2);
    }

    /// A left-deep `Or` spine over `n` leaves, built bottom-up the way a
    /// standing group folds its members.
    fn spine(n: u64) -> LineageTree {
        (1..n).fold(LineageTree::Var(TupleId(0)), |acc, i| {
            LineageTree::Or(Arc::new(acc), Arc::new(LineageTree::Var(TupleId(i))))
        })
    }

    #[test]
    fn deep_spines_compare_and_drop_without_recursion() {
        // Deep enough that one stack frame per node would overflow the
        // test thread.
        let n = 1_000_000;
        let (a, b) = (spine(n), spine(n));
        assert!(a == b, "independently built spines are structurally equal");
        let LineageTree::Or(left, _) = &a else {
            panic!("a spine is an Or")
        };
        let other = LineageTree::Or(left.clone(), Arc::new(LineageTree::Var(TupleId(n))));
        assert!(a != other, "the last leaf differs");
        drop(other);
        drop(a);
        drop(b);
    }

    #[test]
    fn tree_equality_and_hash_are_structural_across_sharing() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |t: &LineageTree| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        let shared = Arc::new(v(1).to_tree());
        let x = LineageTree::And(shared.clone(), shared.clone());
        let y = Lineage::and(&v(1), &v(1)).to_tree();
        assert_eq!(x, y);
        assert_eq!(hash(&x), hash(&y));
        assert_ne!(x, LineageTree::Or(shared.clone(), shared));
        assert_ne!(y, Lineage::and(&v(1), &v(2)).to_tree());
    }
}
