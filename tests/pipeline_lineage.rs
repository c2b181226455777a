//! Published lineage of standing pipelines, against an independent model.
//!
//! Operator state shares lineage subtrees (`Arc`-backed `LineageTree`s)
//! and distinct/aggregate groups republish from a cached output. Neither
//! may change *what* a view publishes: `materialized_lineage_view` must
//! return trees structurally equal (`==`) to the classic shape — a
//! left-deep `Or` over each group's members in arrival order, where a
//! join member is `And(left, right)` of the tapped tuples' trees.
//!
//! The model below re-derives that shape from nothing but the engine's
//! delta log (recorded per advance, lineage expanded with `to_tree`) and
//! freshly built trees: tap rows follow the `Extend` retract-and-regrow
//! rule, joins emit per port in arrival order, groups keep member lists,
//! and a plan swap replays the standing tap rows in sorted order. The
//! check runs after every advance, so it covers groups just hit by an
//! `Extend` and the first views published by a re-optimized DAG.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use tp_relalg::{AggFn, Plan, Predicate, Relation, Row, Schema};
use tp_stream::{
    encode_row, CollectingSink, Delta, EngineConfig, ReclaimConfig, ReplayConfig, ReplayEvent,
    StreamEngine, StreamScript, StreamSink,
};
use tp_workloads::SynthConfig;
use tpdb::prelude::*;

fn leaf() -> Plan {
    Plan::values(Relation::empty(Schema::new(["k", "ts", "te"])))
}

/// One engine delta with its lineage expanded on arrival.
struct Recorded {
    op: SetOp,
    fact: Fact,
    tree: LineageTree,
    interval: Interval,
    /// `Extend` (grow the fact's latest row) rather than `Insert`.
    extend: bool,
}

/// Forwards to a `CollectingSink` and records the current advance's deltas.
#[derive(Default)]
struct Recorder {
    sink: CollectingSink,
    batch: Vec<Recorded>,
    extends: usize,
}

impl StreamSink for Recorder {
    fn on_delta(&mut self, op: SetOp, delta: &Delta) {
        self.sink.on_delta(op, delta);
        let (fact, lineage, interval, extend) = match delta {
            Delta::Insert(t) => (t.fact.clone(), t.lineage, t.interval, false),
            Delta::Extend {
                fact,
                lineage,
                from,
                to,
            } => (fact.clone(), *lineage, Interval::at(*from, *to), true),
        };
        self.extends += usize::from(extend);
        self.batch.push(Recorded {
            op,
            fact,
            tree: lineage.to_tree(),
            interval,
            extend,
        });
    }
}

#[derive(Clone, PartialEq)]
struct Instance {
    row: Row,
    tree: LineageTree,
}

/// The plan shapes the model knows.
#[derive(Clone, Copy)]
enum Shape {
    /// Join of the two taps on `k`, then a per-`k` aggregate.
    JoinAggregate,
    /// Union-all of the two taps, projected to `k`, then distinct.
    Distinct,
}

struct Model {
    shape: Shape,
    taps: [SetOp; 2],
    /// Per tap: the latest row per fact (what an `Extend` regrows).
    last: [HashMap<Fact, Instance>; 2],
    /// Per tap: the standing rows, sorted (the swap's replay order).
    standing: [BTreeMap<Row, Vec<LineageTree>>; 2],
    /// Join state: each side's instances in arrival order.
    sides: [Vec<Instance>; 2],
    /// Group key → members in arrival order.
    groups: BTreeMap<Row, Vec<Instance>>,
}

impl Model {
    fn new(shape: Shape, taps: [SetOp; 2]) -> Self {
        Model {
            shape,
            taps,
            last: Default::default(),
            standing: Default::default(),
            sides: Default::default(),
            groups: BTreeMap::new(),
        }
    }

    /// Applies one advance: each tap's deltas in arrival order, tap 0
    /// first (the sources drain in that order).
    fn advance(&mut self, batch: &[Recorded]) {
        for (tap, op) in self.taps.into_iter().enumerate() {
            for d in batch.iter().filter(|d| d.op == op) {
                for (ins, inst) in self.source(tap, d) {
                    self.downstream(tap, ins, inst);
                }
            }
        }
    }

    /// A tap's row changes for one delta: an `Insert` (or an `Extend` of
    /// a fact never seen) adds a row; an `Extend` retracts the fact's
    /// latest row and re-adds it grown, with the same lineage.
    fn source(&mut self, tap: usize, d: &Recorded) -> Vec<(bool, Instance)> {
        let fresh = Instance {
            row: encode_row(&d.fact, d.interval),
            tree: d.tree.clone(),
        };
        let (old, new) = match self.last[tap].get(&d.fact) {
            Some(prev) if d.extend => {
                let mut grown = prev.clone();
                *grown.row.last_mut().unwrap() = Value::int(d.interval.end());
                (Some(prev.clone()), grown)
            }
            _ => (None, fresh),
        };
        self.last[tap].insert(d.fact.clone(), new.clone());
        let mut out = Vec::new();
        if let Some(old) = old {
            let trees = self.standing[tap].get_mut(&old.row).unwrap();
            let at = trees.iter().position(|t| *t == old.tree).unwrap();
            trees.remove(at);
            if trees.is_empty() {
                self.standing[tap].remove(&old.row);
            }
            out.push((false, old));
        }
        self.standing[tap]
            .entry(new.row.clone())
            .or_default()
            .push(new.tree.clone());
        out.push((true, new));
        out
    }

    fn downstream(&mut self, port: usize, ins: bool, inst: Instance) {
        match self.shape {
            Shape::Distinct => {
                let row = vec![inst.row[0].clone()];
                self.group(
                    ins,
                    Instance {
                        row: row.clone(),
                        tree: inst.tree,
                    },
                    row,
                );
            }
            Shape::JoinAggregate => {
                let key = inst.row[0].clone();
                if !ins {
                    let at = self.sides[port].iter().position(|x| *x == inst).unwrap();
                    self.sides[port].remove(at);
                }
                let matches: Vec<Instance> = self.sides[1 - port]
                    .iter()
                    .filter(|o| o.row[0] == key)
                    .cloned()
                    .collect();
                for o in matches {
                    let (l, r) = if port == 0 { (&inst, &o) } else { (&o, &inst) };
                    let joined = Instance {
                        row: l.row.iter().chain(&r.row).cloned().collect(),
                        tree: LineageTree::And(Arc::new(l.tree.clone()), Arc::new(r.tree.clone())),
                    };
                    self.group(ins, joined, vec![key.clone()]);
                }
                if ins {
                    self.sides[port].push(inst);
                }
            }
        }
    }

    fn group(&mut self, ins: bool, inst: Instance, key: Row) {
        let members = self.groups.entry(key.clone()).or_default();
        if ins {
            members.push(inst);
        } else {
            let at = members.iter().position(|m| *m == inst).unwrap();
            members.remove(at);
            if members.is_empty() {
                self.groups.remove(&key);
            }
        }
    }

    /// A plan swap: operator state is rebuilt by replaying every tap's
    /// standing rows as inserts, tap 0 first, rows in sorted order.
    fn rebuild(&mut self) {
        self.sides = Default::default();
        self.groups.clear();
        for tap in 0..2 {
            let rows: Vec<(Row, Vec<LineageTree>)> = self.standing[tap]
                .iter()
                .map(|(row, trees)| (row.clone(), trees.clone()))
                .collect();
            for (row, trees) in rows {
                for tree in trees {
                    let inst = Instance {
                        row: row.clone(),
                        tree,
                    };
                    self.downstream(tap, true, inst);
                }
            }
        }
    }

    /// Each group's expected lineage: a left-deep `Or` over its members.
    fn expected(&self) -> Vec<(Row, LineageTree)> {
        self.groups
            .iter()
            .map(|(key, members)| {
                let mut it = members.iter().map(|m| m.tree.clone());
                let first = it.next().unwrap();
                let fold = it.fold(first, |acc, t| LineageTree::Or(Arc::new(acc), Arc::new(t)));
                (key.clone(), fold)
            })
            .collect()
    }

    fn largest_group(&self) -> usize {
        self.groups.values().map(Vec::len).max().unwrap_or(0)
    }
}

/// Replays a synth stream through an engine running `plan`, checking the
/// published lineage against the model after every advance. With
/// `swap_at = Some(n)`, the pipeline is re-optimized after advance `n`
/// (and must swap). Returns `(extends seen, largest group seen)`.
fn check_published_lineage(
    plan: &Plan,
    shape: Shape,
    reclaim: bool,
    swap_at: Option<usize>,
) -> (usize, usize) {
    let taps = [SetOp::Union, SetOp::Intersect];
    let mut vars = VarTable::new();
    let (r, s) = tp_workloads::synth::generate(&SynthConfig::with_facts(120, 6, 41), &mut vars);
    let script = StreamScript::from_pair(
        &r,
        &s,
        &ReplayConfig {
            lateness: 3,
            advance_every: 6,
            seed: 9,
        },
    );
    let cfg = EngineConfig {
        reclaim: reclaim.then(|| ReclaimConfig {
            keep_epochs: 2,
            ..Default::default()
        }),
        ..Default::default()
    };
    let mut engine = StreamEngine::with_plan(cfg, plan, &taps).expect("plan compiles");
    let mut rec = Recorder::default();
    let mut model = Model::new(shape, taps);
    let mut largest = 0;
    let mut advances = 0usize;
    let mut check = |engine: &mut StreamEngine, rec: &mut Recorder, model: &mut Model| {
        model.advance(&std::mem::take(&mut rec.batch));
        advances += 1;
        if swap_at == Some(advances) {
            assert!(
                engine.pipeline_mut().unwrap().reoptimize(),
                "precondition: the re-optimizer swaps the plan"
            );
            model.rebuild();
        }
        let got: Vec<(Row, LineageTree)> = engine
            .pipeline()
            .unwrap()
            .materialized_lineage()
            .into_iter()
            .map(|(row, tree)| (row[..1].to_vec(), tree))
            .collect();
        assert!(
            got == model.expected(),
            "published lineage differs from the model after advance {advances}"
        );
        largest = largest.max(model.largest_group());
    };
    for event in &script.events {
        match event {
            ReplayEvent::Arrive(side, t) => {
                engine.push(*side, t.clone());
            }
            ReplayEvent::Advance(wm) => {
                engine.advance(*wm, &mut rec).unwrap();
                check(&mut engine, &mut rec, &mut model);
            }
        }
    }
    engine.finish(&mut rec).unwrap();
    check(&mut engine, &mut rec, &mut model);
    if swap_at.is_some() {
        assert_eq!(engine.pipeline().unwrap().reopts(), 1);
    }
    (rec.extends, largest)
}

#[test]
fn join_aggregate_publishes_left_deep_or_of_joined_members() {
    let plan = leaf()
        .hash_join(leaf(), vec![0], vec![0])
        .aggregate(vec![0], vec![AggFn::Count, AggFn::Max(2)]);
    for reclaim in [false, true] {
        let (extends, largest) =
            check_published_lineage(&plan, Shape::JoinAggregate, reclaim, None);
        assert!(extends > 0, "vacuous: no Extend retract-and-regrow");
        assert!(largest > 2, "vacuous: groups never folded");
    }
}

#[test]
fn distinct_publishes_left_deep_or_of_instances() {
    let plan = leaf().union_all(leaf()).project(vec![0]).distinct();
    for reclaim in [false, true] {
        let (extends, largest) = check_published_lineage(&plan, Shape::Distinct, reclaim, None);
        assert!(extends > 0, "vacuous: no Extend retract-and-regrow");
        assert!(largest > 2, "vacuous: groups never folded");
    }
}

#[test]
fn plan_swap_republishes_the_replayed_member_order() {
    // A keyed nested-loop join: the re-optimizer turns it into a hash
    // join, rebuilding every group from the standing tap rows.
    let plan = leaf()
        .nl_join(leaf(), Predicate::col_eq(0, 3))
        .aggregate(vec![0], vec![AggFn::Count]);
    let (extends, largest) = check_published_lineage(&plan, Shape::JoinAggregate, false, Some(4));
    assert!(extends > 0, "vacuous: no Extend retract-and-regrow");
    assert!(largest > 2, "vacuous: groups never folded");
}
