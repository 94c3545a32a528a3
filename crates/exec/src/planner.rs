//! The conventional query optimizer: access-path selection and greedy
//! pointer-join ordering.
//!
//! This is deliberately a classic early-90s planner: per-class access paths
//! (index when a predicate allows it, scan otherwise), then a greedy join
//! order that always expands the cheapest frontier relationship, with
//! System-R-style selectivity estimates. It runs in three stages over one
//! [`Estimator`]: [`Estimator::load`] resolves the query's statistics once,
//! [`Estimator::order`] picks the driving class and the step order from
//! those numbers alone, and [`Estimator::materialize`] builds the plan the
//! order describes. [`plan_query`] is the three in sequence.
//!
//! # Costing a candidate by its difference
//!
//! The semantic optimizer asks (through [`crate::CostBasedOracle`]) what a
//! query would cost with one selective predicate, one join predicate or one
//! class removed. Such a candidate is never built: [`Estimator::order`]
//! runs on the working query with a [`Without`] that makes it step over
//! what the candidate lacks. The estimate has the same bits as
//! `plan_query(&candidate)?.estimated_cost`, because
//!
//! * removing with `Vec::retain` keeps the order of classes, relationships
//!   and predicates, so stepping over an element enumerates exactly what
//!   the built candidate would;
//! * every number comes from the same arithmetic in the same order — a
//!   conjunction's selectivity is `Iterator::product` from `1.0` over the
//!   predicates left, then `clamp`; ties go to the first candidate under
//!   strict `<`;
//! * only one class's access estimate depends on a removed selective
//!   predicate, and that one is estimated again under the mask;
//! * there is one ordering loop, so the planner and the oracle cannot
//!   drift apart.
//!
//! `crates/exec/tests/prop_estimate.rs` checks the equality on generated
//! databases and query shapes.
//!
//! [`Estimator::load`] also works out each class's residual conjunction —
//! how many of the query's selective predicates are on the class, and the
//! `product` of their selectivities — once, with the class's access
//! estimate. [`Estimator::order`] reads those numbers for every frontier
//! candidate instead of filtering the query's predicates again; only the
//! class a [`Without::Sel`] masks is worked out again, in the estimate
//! [`Estimator::decide`] patches in.
//!
//! # Planning once
//!
//! When a formulation has asked the oracle anything, the oracle's
//! estimator already holds the statistics of the query the formulation
//! ends with: a decision that adopts a difference edits the carried
//! statistics as the caller edits the query.
//! [`CostBasedOracle::plan_formulated`](crate::CostBasedOracle::plan_formulated)
//! builds the cached plan from them, through [`Estimator::plan`]:
//!
//! * `load` is never run again;
//! * `order` is not run again either when the last decision was adopted —
//!   the candidate's order is then the working query's, and the order,
//!   estimated cost and rows that decision computed are the plan's;
//! * a formulation that made no decision loads once, as [`plan_query`]
//!   does.
//!
//! The plan equals [`plan_query`]'s field for field, costs to the bit, for
//! the reasons a difference costs what its candidate does: the carried
//! statistics are those a fresh load of the working query computes, in
//! the same order, and the adopted order is the one `order` computes on the
//! working query, its root position moved past the removed class. The
//! property test above checks it after whole formulations, and a debug
//! build compares every such plan with [`plan_query`]'s.

use sqo_catalog::{CatalogError, ClassId, RelId, StatsSnapshot};
use sqo_query::{JoinPredicate, Query, SelPredicate};
use sqo_storage::Database;

use crate::cost::CostModel;
use crate::error::ExecError;
use crate::plan::{AccessPath, ClassAccess, JoinStep, PhysicalPlan};

/// What a candidate query lacks that the query it is costed on has.
#[derive(Debug, Clone, Copy)]
pub enum Without<'q> {
    /// Every selective predicate equal to this one.
    Sel(&'q SelPredicate),
    /// Every join predicate equal to this one.
    Join(&'q JoinPredicate),
    /// The class, with its relationships, predicates and join predicates.
    Class(ClassId),
}

/// A decision rule over the estimated costs `(with, without)`.
pub(crate) type Rule = fn(f64, f64) -> bool;

/// A selective predicate's share of the statistics.
#[derive(Debug, Clone, Copy)]
struct PredView {
    selectivity: f64,
    /// An index on the attribute can serve the predicate's value set.
    indexable: bool,
}

/// A relationship's endpoints and its average fan-out seen from each.
#[derive(Debug, Clone, Copy)]
struct RelView {
    ends: (ClassId, ClassId),
    fanout: (f64, f64),
}

impl RelView {
    fn involves(&self, class: ClassId) -> bool {
        self.ends.0 == class || self.ends.1 == class
    }
}

/// The cheapest way to drive a query from one class: a scan (`None`) or a
/// probe of the index on the class's `probe`-th predicate; and the
/// class's residual conjunction when a join step reaches it.
#[derive(Debug, Clone, Copy)]
struct ClassEstimate {
    probe: Option<usize>,
    cost: f64,
    rows: f64,
    /// The selective predicates on the class.
    preds: usize,
    /// [`conjunction`] of their selectivities.
    selectivity: f64,
}

/// The classes an order has bound so far, flagged by id.
#[derive(Debug, Default)]
struct Bound(Vec<bool>);

impl Bound {
    fn clear(&mut self) {
        self.0.clear();
    }

    fn contains(&self, class: ClassId) -> bool {
        self.0.get(class.index()).copied().unwrap_or(false)
    }

    fn insert(&mut self, class: ClassId) {
        if self.0.len() <= class.index() {
            self.0.resize(class.index() + 1, false);
        }
        self.0[class.index()] = true;
    }
}

/// One step of the chosen order; the counts are its shares of
/// [`Estimator::join_filters`] and [`Estimator::link_filters`].
#[derive(Debug, Clone, Copy)]
struct StepOrder {
    rel: RelId,
    from_class: ClassId,
    to_class: ClassId,
    join_filters: usize,
    link_filters: usize,
}

/// The statistics of one query, the order chosen from them, and the cost a
/// formulation carries from one decision to the next. Every buffer is
/// reused: once warm, costing a difference allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Estimator {
    /// Parallel to `query.selective_predicates`.
    preds: Vec<PredView>,
    /// Parallel to `query.relationships`; `None` is not in the catalog.
    rels: Vec<Option<RelView>>,
    /// Parallel to `query.classes`.
    classes: Vec<ClassEstimate>,
    /// Output of the last [`Estimator::order`]: the driving class's
    /// position, the steps, and their filters end to end.
    root: usize,
    steps: Vec<StepOrder>,
    join_filters: Vec<JoinPredicate>,
    link_filters: Vec<(RelId, ClassId, ClassId)>,
    bound: Bound,
    /// Whether a working query is loaded, and its estimated cost and rows
    /// (`None`: it cannot be planned).
    loaded: bool,
    cost: Option<(f64, f64)>,
    /// The order in `self` is the working query's: the last decision
    /// adopted its difference.
    ordered: bool,
}

/// The predicates on `class` that `without` leaves, in query order.
fn class_preds<'a>(
    query: &'a Query,
    preds: &'a [PredView],
    class: ClassId,
    without: Option<Without<'a>>,
) -> impl Iterator<Item = PredView> + Clone + 'a {
    query
        .selective_predicates
        .iter()
        .zip(preds)
        .filter(move |(p, _)| {
            p.attr.class == class && !matches!(without, Some(Without::Sel(s)) if s == *p)
        })
        .map(|(_, view)| *view)
}

/// Conjunction selectivity under the independence assumption (the System R
/// inheritance the paper's optimizer would have shared).
fn conjunction(preds: impl Iterator<Item = PredView>) -> f64 {
    preds.map(|view| view.selectivity).product::<f64>().clamp(0.0, 1.0)
}

/// Best access path for `class` if it were the driving class.
fn estimate_class(
    stats: &StatsSnapshot,
    model: &CostModel,
    query: &Query,
    preds: &[PredView],
    class: ClassId,
    without: Option<Without<'_>>,
) -> ClassEstimate {
    let of_class = class_preds(query, preds, class, without);
    let count = of_class.clone().count();
    let selectivity = conjunction(of_class.clone());
    let (cost, rows) = model.scan_estimate(stats, class, count, selectivity);
    let mut best = ClassEstimate { probe: None, cost, rows, preds: count, selectivity };
    for (i, view) in of_class.clone().enumerate().filter(|(_, view)| view.indexable) {
        let rest = of_class.clone().enumerate().filter(|(j, _)| *j != i).map(|(_, view)| view);
        let (cost, rows) =
            model.index_estimate(stats, class, count - 1, conjunction(rest), view.selectivity);
        if cost < best.cost {
            best = ClassEstimate { probe: Some(i), cost, rows, ..best };
        }
    }
    best
}

/// Join predicates that become checkable when `to_class` is bound on top of
/// `bound` — the single source both for candidate *costing* (`.count()`)
/// and for the winning step's filter list, so the two can never diverge.
/// `to_class` is not bound yet, so no earlier step can have applied one.
fn step_join_filters<'q>(
    query: &'q Query,
    bound: &'q Bound,
    to_class: ClassId,
    without: Option<Without<'q>>,
) -> impl Iterator<Item = &'q JoinPredicate> {
    query
        .join_predicates
        .iter()
        .filter(move |j| !matches!(without, Some(Without::Join(m)) if m == *j))
        .filter(move |j| {
            let (x, y) = j.classes();
            let after = |c: ClassId| c == to_class || bound.contains(c);
            after(x) && after(y) && (x == to_class || y == to_class)
        })
}

/// Cycle edges closed when `to_class` is bound via `rel`: the other
/// relationships whose both endpoints are then bound. Shared between
/// costing and the filter list like [`step_join_filters`]; a removed class
/// is never bound, so its relationships never qualify.
fn step_link_filters<'q>(
    query: &'q Query,
    rels: &'q [Option<RelView>],
    bound: &'q Bound,
    rel: RelId,
    to_class: ClassId,
) -> impl Iterator<Item = (RelId, ClassId, ClassId)> + 'q {
    query.relationships.iter().zip(rels).filter_map(move |(&r2, view)| {
        let (x, y) = (*view)?.ends;
        let after = |c: ClassId| c == to_class || bound.contains(c);
        (r2 != rel && after(x) && after(y) && (x == to_class || y == to_class))
            .then_some((r2, x, y))
    })
}

impl Estimator {
    /// Stage 1: touches the [`Database::stats`] snapshot once per selective
    /// predicate, relationship and class of `query`; everything after reads
    /// what this resolved.
    fn load(&mut self, db: &Database, query: &Query, model: &CostModel) {
        let (catalog, stats) = (db.catalog(), db.stats());
        self.preds.clear();
        self.preds.extend(query.selective_predicates.iter().map(|p| PredView {
            selectivity: model.selectivity(stats, p),
            indexable: db.index(p.attr).is_some_and(|index| index.supports(&p.value_set())),
        }));
        self.rels.clear();
        self.rels.extend(query.relationships.iter().map(|&rel| {
            let ends = catalog.relationship(rel).ok()?.classes();
            let rstats = stats.relationship(rel).cloned().unwrap_or_default();
            let fanout = (rstats.avg_left_fanout.max(0.0), rstats.avg_right_fanout.max(0.0));
            Some(RelView { ends, fanout })
        }));
        self.classes.clear();
        for &class in &query.classes {
            self.classes.push(estimate_class(stats, model, query, &self.preds, class, None));
        }
    }

    /// Stage 2: the driving class (fewest estimated rows, then cheapest
    /// access) and the greedy expansion over relationships, for `query`
    /// less `without`. `patched` replaces one class's loaded estimate.
    /// Returns the estimated `(cost, rows)` and leaves the order in `self`.
    fn order(
        &mut self,
        query: &Query,
        model: &CostModel,
        without: Option<Without<'_>>,
        patched: Option<(ClassId, ClassEstimate)>,
    ) -> Result<(f64, f64), ExecError> {
        let Self { preds, rels, classes, steps, join_filters, link_filters, bound, .. } = self;
        // A removed class is stepped over as a root and as a frontier
        // endpoint; never bound, nothing else of it is ever read.
        let kept = |class: ClassId| !matches!(without, Some(Without::Class(m)) if m == class);

        let mut root: Option<(usize, ClassEstimate)> = None;
        for (at, &class) in query.classes.iter().enumerate().filter(|(_, c)| kept(**c)) {
            let cand = match patched {
                Some((patched_class, estimate)) if patched_class == class => estimate,
                _ => classes[at],
            };
            if root.map_or(true, |(_, best)| (cand.rows, cand.cost) < (best.rows, best.cost)) {
                root = Some((at, cand));
            }
        }
        let (root, ClassEstimate { cost: mut total_cost, rows: mut current_rows, .. }) =
            root.ok_or(ExecError::EmptyQuery)?;
        self.root = root;

        steps.clear();
        join_filters.clear();
        link_filters.clear();
        bound.clear();
        bound.insert(query.classes[root]);
        while let Some(missing) =
            query.classes.iter().copied().find(|&c| kept(c) && !bound.contains(c))
        {
            // Frontier: relationships with exactly one endpoint bound,
            // costed from counts alone.
            let mut best: Option<(f64, f64, StepOrder)> = None;
            for (&rel, view) in query.relationships.iter().zip(rels.iter()) {
                let Some(view) = *view else {
                    return Err(CatalogError::UnknownRelId(rel).into());
                };
                let (a, b) = view.ends;
                if !kept(a) || !kept(b) {
                    continue;
                }
                let (from_class, to_class, fanout) = if bound.contains(a) && !bound.contains(b) {
                    (a, b, view.fanout.0)
                } else if bound.contains(b) && !bound.contains(a) {
                    (b, a, view.fanout.1)
                } else {
                    continue;
                };
                // The class's residual conjunction, as loaded or patched;
                // worked out here only for a class the query does not list.
                let residual = match patched {
                    Some((patched_class, estimate)) if patched_class == to_class => {
                        (estimate.preds, estimate.selectivity)
                    }
                    _ => match query.classes.iter().position(|&c| c == to_class) {
                        Some(at) => (classes[at].preds, classes[at].selectivity),
                        None => {
                            let residual = class_preds(query, preds, to_class, without);
                            (residual.clone().count(), conjunction(residual))
                        }
                    },
                };
                let step = StepOrder {
                    rel,
                    from_class,
                    to_class,
                    join_filters: step_join_filters(query, bound, to_class, without).count(),
                    link_filters: step_link_filters(query, rels, bound, rel, to_class).count(),
                };
                let (step_cost, out_rows) = model.join_step_estimate_parts(
                    current_rows,
                    fanout,
                    residual.0,
                    residual.1,
                    step.join_filters + step.link_filters,
                );
                if best.map_or(true, |(rows, cost, _)| (out_rows, step_cost) < (rows, cost)) {
                    best = Some((out_rows, step_cost, step));
                }
            }
            let Some((out_rows, step_cost, step)) = best else {
                return Err(ExecError::Unreachable(missing));
            };
            join_filters.extend(step_join_filters(query, bound, step.to_class, without));
            link_filters.extend(step_link_filters(query, rels, bound, step.rel, step.to_class));
            bound.insert(step.to_class);
            steps.push(step);
            total_cost += step_cost;
            current_rows = out_rows;
        }

        // Materialization cost of the final rows.
        total_cost += current_rows * model.weights.tuple_out;
        Ok((total_cost, current_rows))
    }

    /// Stage 3: the plan the last [`Estimator::order`] of the whole `query`
    /// describes — the only stage that clones a predicate.
    fn materialize(&self, query: &Query, estimated_cost: f64, estimated_rows: f64) -> PhysicalPlan {
        let preds_of = |class: ClassId| {
            query.selective_predicates.iter().filter(move |p| p.attr.class == class)
        };
        let class = query.classes[self.root];
        let probe = self.classes[self.root].probe;
        let root = ClassAccess {
            class,
            path: match probe.and_then(|i| preds_of(class).nth(i)) {
                Some(p) => AccessPath::Index { attr: p.attr, set: p.value_set() },
                None => AccessPath::SeqScan,
            },
            residual: preds_of(class)
                .enumerate()
                .filter(|(j, _)| Some(*j) != probe)
                .map(|(_, p)| p.clone())
                .collect(),
        };
        let (mut join_filters, mut link_filters) =
            (self.join_filters.as_slice(), self.link_filters.as_slice());
        let steps = self
            .steps
            .iter()
            .map(|step| {
                let (joins, later) = join_filters.split_at(step.join_filters);
                let (links, later_links) = link_filters.split_at(step.link_filters);
                (join_filters, link_filters) = (later, later_links);
                JoinStep {
                    rel: step.rel,
                    from_class: step.from_class,
                    access: ClassAccess {
                        class: step.to_class,
                        path: AccessPath::SeqScan, // pointer access; path unused
                        residual: preds_of(step.to_class).cloned().collect(),
                    },
                    join_filters: joins.to_vec(),
                    link_filters: links.to_vec(),
                }
            })
            .collect();
        PhysicalPlan {
            root,
            steps,
            projections: query.projections.clone(),
            estimated_cost,
            estimated_rows,
        }
    }

    /// [`Estimator::order`] of the loaded `query` less `without`, with the
    /// one class estimate a removed selective predicate changes worked out
    /// again under the mask and returned beside the cost and rows.
    fn cost_of(
        &mut self,
        db: &Database,
        query: &Query,
        model: &CostModel,
        without: Option<Without<'_>>,
    ) -> Option<((f64, f64), Option<ClassEstimate>)> {
        let patched = match without {
            Some(Without::Sel(s)) => Some((
                s.attr.class,
                estimate_class(db.stats(), model, query, &self.preds, s.attr.class, without),
            )),
            _ => None,
        };
        let estimate = self.order(query, model, without, patched).ok()?;
        Some((estimate, patched.map(|(_, estimate)| estimate)))
    }

    /// `query`'s estimated cost less `without`, with no plan built; `None`
    /// when it cannot be planned.
    pub(crate) fn estimate(
        &mut self,
        db: &Database,
        query: &Query,
        model: &CostModel,
        without: Option<Without<'_>>,
    ) -> Option<f64> {
        self.reset();
        self.load(db, query, model);
        self.cost_of(db, query, model, without).map(|((cost, _), _)| cost)
    }

    /// Forgets the working query: the next [`Estimator::decide`] is about a
    /// query this estimator has not seen.
    pub(crate) fn reset(&mut self) {
        self.loaded = false;
        self.ordered = false;
    }

    /// The plan of the working query, `query` (see *Planning once*): from
    /// the carried statistics, and from the carried order when the last
    /// decision adopted its difference. With nothing carried it is
    /// [`plan_query`].
    pub(crate) fn plan(
        &mut self,
        db: &Database,
        query: &Query,
        model: &CostModel,
    ) -> Result<PhysicalPlan, ExecError> {
        if !self.loaded {
            self.load(db, query, model);
            self.loaded = true;
            self.ordered = false;
        }
        let (cost, rows) = match self.cost {
            Some(estimate) if self.ordered => estimate,
            _ => self.order(query, model, None, None)?,
        };
        Ok(self.materialize(query, cost, rows))
    }

    /// One cost–benefit decision: `rule(with, without)` on the estimated
    /// costs of `working` and of `working` less `without`. When either
    /// cannot be planned the answer is `!adopting`, the one that leaves
    /// `working` as it is; the answer `adopting` makes the difference the
    /// working query, which the caller then removes from `working` with
    /// order-keeping `retain`s, as this does from the view.
    ///
    /// `working` must be the query of the previous call since
    /// [`Estimator::reset`], less that call's difference if it was adopted:
    /// its statistics and its cost are carried, so a decision is one masked
    /// run of the loop.
    pub(crate) fn decide(
        &mut self,
        db: &Database,
        working: &Query,
        model: &CostModel,
        without: Without<'_>,
        adopting: bool,
        rule: Rule,
    ) -> bool {
        if !self.loaded {
            self.load(db, working, model);
            self.cost = self.cost_of(db, working, model, None).map(|(estimate, _)| estimate);
            self.loaded = true;
        }
        debug_assert_eq!(
            (self.preds.len(), self.rels.len(), self.classes.len()),
            (
                working.selective_predicates.len(),
                working.relationships.len(),
                working.classes.len()
            ),
            "the working query changed without an adoption or a reset"
        );
        // The order in `self` is now the candidate's, or half written.
        self.ordered = false;
        let sides = self.cost.zip(self.cost_of(db, working, model, Some(without)));
        let Some(((with, _), (candidate, patched))) = sides else {
            return !adopting;
        };
        let answer = rule(with, candidate.0);
        if answer != adopting {
            return answer;
        }
        self.cost = Some(candidate);
        self.ordered = true;
        match without {
            Without::Sel(s) => {
                let mut of_query = working.selective_predicates.iter();
                self.preds.retain(|_| of_query.next() != Some(s));
                let at = working.classes.iter().position(|&c| c == s.attr.class);
                if let (Some(at), Some(estimate)) = (at, patched) {
                    self.classes[at] = estimate;
                }
            }
            Without::Join(_) => {}
            Without::Class(class) => {
                let mut of_query = working.selective_predicates.iter();
                self.preds.retain(|_| of_query.next().is_some_and(|p| p.attr.class != class));
                self.rels.retain(|view| !view.is_some_and(|view| view.involves(class)));
                let mut of_query = working.classes.iter();
                self.classes.retain(|_| of_query.next() != Some(&class));
                // The removed class never roots the order; the root's
                // position moves past it.
                self.root -= working.classes[..self.root].iter().filter(|&&c| c == class).count();
            }
        }
        answer
    }
}

/// Plans `query` against `db` with `model`.
///
/// `query` must be valid (see `Query::validate`); the planner checks
/// reachability as it goes and reports `Unreachable` otherwise.
pub fn plan_query(
    db: &Database,
    query: &Query,
    model: &CostModel,
) -> Result<PhysicalPlan, ExecError> {
    let mut estimator = Estimator::default();
    estimator.load(db, query, model);
    let (cost, rows) = estimator.order(query, model, None, None)?;
    Ok(estimator.materialize(query, cost, rows))
}

/// [`plan_query`], delivered behind an [`Arc`](std::sync::Arc) so the plan can be cached and
/// re-executed by many threads without re-planning: the executor only ever
/// needs `&PhysicalPlan`, so one planning pass amortizes over every
/// subsequent [`crate::execute`] call that clones the handle.
pub fn plan_query_shared(
    db: &Database,
    query: &Query,
    model: &CostModel,
) -> Result<std::sync::Arc<PhysicalPlan>, ExecError> {
    plan_query(db, query, model).map(std::sync::Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_catalog::{example::figure21, Value};
    use sqo_query::{CompOp, QueryBuilder};
    use sqo_storage::IntegrityOptions;
    use std::sync::Arc;

    /// A small but non-trivial instance: 40 suppliers, 120 cargoes,
    /// 30 vehicles; supplies/collects wired round-robin.
    fn db() -> Database {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        for i in 0..40 {
            b.insert(supplier, vec![Value::str(format!("s{i}")), Value::str(format!("addr{i}"))])
                .unwrap();
        }
        for i in 0..30 {
            let desc = if i % 3 == 0 { "refrigerated truck" } else { "flatbed" };
            b.insert(vehicle, vec![Value::Int(i), Value::str(desc), Value::Int(i % 5)]).unwrap();
        }
        crate::executor::tests::equip_vehicles(&mut b, 30);
        for i in 0..120i64 {
            let desc = if i % 4 == 0 { "frozen food" } else { "dry goods" };
            b.insert(cargo, vec![Value::Int(i), Value::str(desc), Value::Int(i * 3 % 50)]).unwrap();
        }
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        for i in 0..120u32 {
            b.link(supplies, sqo_storage::ObjectId(i), sqo_storage::ObjectId(i % 40)).unwrap();
            b.link(collects, sqo_storage::ObjectId(i), sqo_storage::ObjectId(i % 30)).unwrap();
        }
        b.finalize(IntegrityOptions).unwrap()
    }

    #[test]
    fn conjunction_multiplies() {
        let view = |selectivity| PredView { selectivity, indexable: false };
        let sel = conjunction([view(0.1), view(0.1)].into_iter());
        assert!((sel - 0.01).abs() < 1e-9);
    }

    #[test]
    fn picks_index_for_equality_on_indexed_attr() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("supplier.address")
            .filter("supplier.name", CompOp::Eq, "s7")
            .build()
            .unwrap();
        let plan = plan_query(&db, &q, &CostModel::default()).unwrap();
        assert!(matches!(plan.root.path, AccessPath::Index { .. }));
        assert!(plan.root.residual.is_empty());
        assert!(plan.steps.is_empty());
    }

    #[test]
    fn falls_back_to_scan_for_unindexed_attr() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        let plan = plan_query(&db, &q, &CostModel::default()).unwrap();
        assert!(matches!(plan.root.path, AccessPath::SeqScan));
        assert_eq!(plan.root.residual.len(), 1);
    }

    #[test]
    fn three_class_chain_plans_all_steps() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("vehicle.vehicle_no")
            .select("cargo.desc")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .filter("supplier.name", CompOp::Eq, "s3")
            .via("collects")
            .via("supplies")
            .build()
            .unwrap();
        let plan = plan_query(&db, &q, &CostModel::default()).unwrap();
        assert_eq!(plan.binding_order().len(), 3);
        assert_eq!(plan.steps.len(), 2);
        assert!(plan.estimated_cost > 0.0);
        // The highly selective indexed supplier.name=s3 should drive.
        assert_eq!(plan.root.class, catalog.class_id("supplier").unwrap());
    }

    #[test]
    fn join_predicates_become_filters() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .join("cargo.quantity", CompOp::Lt, "vehicle.vehicle_no")
            .via("collects")
            .build()
            .unwrap();
        let plan = plan_query(&db, &q, &CostModel::default()).unwrap();
        let filters: usize = plan.steps.iter().map(|s| s.join_filters.len()).sum();
        assert_eq!(filters, 1);
    }

    #[test]
    fn empty_query_errors() {
        let db = db();
        let q = Query::new();
        assert_eq!(plan_query(&db, &q, &CostModel::default()).unwrap_err(), ExecError::EmptyQuery);
    }

    use sqo_query::Query;
}
