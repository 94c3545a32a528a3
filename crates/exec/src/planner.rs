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
//! databases and query shapes, and `crates/service/tests/golden_plans.rs`
//! pins every plan and estimate of the benchmark's paper-size pool.
//!
//! # Positions
//!
//! [`Estimator::load`] resolves every class the query's predicates,
//! relationships and join predicates name to its position in
//! `query.classes`, once, and works out each class's residual conjunction —
//! how many of the query's selective predicates are on the class, and the
//! `product` of their selectivities — with the class's access estimate.
//! Whether an index serves a predicate is read off its operator and the
//! index kind (`AttrIndex::serves`); no value set is built.
//! [`Estimator::order`] then works on positions alone: the bound classes
//! are one `u64` mask (a query of more than 64 classes is refused as
//! [`ExecError::TooManyClasses`]), a frontier candidate reads its class's
//! loaded numbers by position, and each step counts the join predicates and
//! relationships that binding each class would close in one pass over each
//! list, instead of filtering them again for every candidate. Only the
//! class a [`Without::Sel`] masks is worked out again, in the estimate
//! [`Estimator::decide`] patches in.
//!
//! # Planning once
//!
//! When a formulation has asked the oracle anything, the oracle's
//! estimator already holds the statistics and the order of the query the
//! formulation ends with. Its first decision loads the working query and
//! orders it whole; every later decision orders a candidate into a second
//! buffer, and one that adopts its difference makes that order the working
//! query's and edits the carried statistics as the caller edits the query
//! (a class it removes moves every later position down by one).
//! [`CostBasedOracle::plan_formulated`](crate::CostBasedOracle::plan_formulated)
//! builds the cached plan from them, through [`Estimator::plan`]: neither
//! `load` nor `order` runs again, whether the last decision adopted or
//! rejected. A formulation that made no decision loads and orders once,
//! as [`plan_query`] does.
//!
//! The plan equals [`plan_query`]'s field for field, costs to the bit, for
//! the reasons a difference costs what its candidate does: the carried
//! statistics are those a fresh load of the working query computes, in
//! the same order, and the carried order is the one `order` computes on
//! the working query (an adopted candidate's, its root position moved past
//! the removed class). The property test above checks it after whole
//! formulations, and a debug build compares every such plan with
//! [`plan_query`]'s.
//!
//! # A warm estimator per thread
//!
//! An estimator's buffers grow to the largest query it has seen and are
//! then reused. Each thread keeps one in a slot: [`plan_query`] and every
//! [`CostBasedOracle`](crate::CostBasedOracle) take it ([`Warm::take`]) and
//! give it back when dropped, so a service worker's miss allocates no
//! estimator buffer once its first few queries have run, as the optimizer's
//! and executor's per-worker scratch already does. While one is out (an
//! oracle alive beside a `plan_query` call), the other starts empty.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};

use sqo_catalog::{CatalogError, ClassId, RelId, StatsSnapshot};
use sqo_query::{JoinPredicate, Query, QueryError, SelPredicate};
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

/// The most classes [`Estimator::order`] orders: one bit each of a `u64`.
const MAX_CLASSES: usize = 64;

/// A selective predicate's share of the statistics.
#[derive(Debug, Clone, Copy)]
struct PredView {
    selectivity: f64,
    /// An index on the attribute can serve the predicate's operator.
    indexable: bool,
    /// Its class's position in `query.classes`; the class count when the
    /// query does not list the class.
    at: usize,
}

/// A relationship's endpoints, their positions in `query.classes` (`None`:
/// the query does not list one of them) and its average fan-out seen from
/// each.
#[derive(Debug, Clone, Copy)]
struct RelView {
    ends: (ClassId, ClassId),
    at: Option<(usize, usize)>,
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

/// A class estimate worked out again under a mask, with the class's
/// position.
type Patch = (usize, ClassEstimate);

/// One step of an [`Order`]; the counts are its shares of the order's
/// `join_filters` and `link_filters`.
#[derive(Debug, Clone, Copy)]
struct StepOrder {
    rel: RelId,
    from_class: ClassId,
    to_class: ClassId,
    join_filters: usize,
    link_filters: usize,
}

/// What [`Estimator::order`] chose: the driving class's position, the
/// steps, and their filters end to end.
#[derive(Debug, Default)]
struct Order {
    root: usize,
    steps: Vec<StepOrder>,
    join_filters: Vec<JoinPredicate>,
    link_filters: Vec<(RelId, ClassId, ClassId)>,
}

/// The statistics of one query, the orders chosen from them, and the cost a
/// formulation carries from one decision to the next. Every buffer is
/// reused: once warm, costing a difference allocates nothing, and a thread
/// keeps one warm between queries ([`Warm`]).
#[derive(Debug, Default)]
pub(crate) struct Estimator {
    /// Parallel to `query.selective_predicates`.
    preds: Vec<PredView>,
    /// Parallel to `query.relationships`; `None` is not in the catalog.
    rels: Vec<Option<RelView>>,
    /// Parallel to `query.join_predicates`: both ends' positions, `None`
    /// when the query does not list one of them.
    joins: Vec<Option<(usize, usize)>>,
    /// Parallel to `query.classes`.
    classes: Vec<ClassEstimate>,
    /// The predicates of the class [`estimate_class`] works on.
    of_class: Vec<PredView>,
    /// Per position, during one step of [`Estimator::order`]: how many join
    /// predicates and relationships binding that class would close.
    closing: Vec<(usize, usize)>,
    /// Output of the last [`Estimator::order`].
    candidate: Order,
    /// Whether a working query is loaded; then its order, and its estimated
    /// cost and rows (`None`: it cannot be planned, and `working` is
    /// stale).
    loaded: bool,
    working: Order,
    cost: Option<(f64, f64)>,
}

thread_local! {
    /// This thread's warm estimator, while no [`Warm`] holds it.
    static WARM: Cell<Option<Estimator>> = const { Cell::new(None) };
}

/// An [`Estimator`] taken from this thread's slot, with the buffers the
/// thread's last query grew, and given back when dropped (module docs, *A
/// warm estimator per thread*). While one is out, another starts empty.
#[derive(Debug)]
pub(crate) struct Warm(Estimator);

impl Warm {
    pub(crate) fn take() -> Self {
        let mut estimator = WARM.try_with(Cell::take).ok().flatten().unwrap_or_default();
        estimator.reset();
        Self(estimator)
    }
}

impl Deref for Warm {
    type Target = Estimator;

    fn deref(&self) -> &Estimator {
        &self.0
    }
}

impl DerefMut for Warm {
    fn deref_mut(&mut self) -> &mut Estimator {
        &mut self.0
    }
}

impl Drop for Warm {
    fn drop(&mut self) {
        let estimator = std::mem::take(&mut self.0);
        // A thread being torn down has no slot left: the buffers are freed.
        let _ = WARM.try_with(|slot| slot.set(Some(estimator)));
    }
}

/// Conjunction selectivity under the independence assumption (the System R
/// inheritance the paper's optimizer would have shared).
fn conjunction(preds: impl Iterator<Item = PredView>) -> f64 {
    preds.map(|view| view.selectivity).product::<f64>().clamp(0.0, 1.0)
}

/// Best access path for the class at position `at` if it were the driving
/// class. `of_class` is a buffer for the class's predicates that `without`
/// leaves, gathered in query order in one pass over `preds`.
fn estimate_class(
    stats: &StatsSnapshot,
    model: &CostModel,
    query: &Query,
    preds: &[PredView],
    of_class: &mut Vec<PredView>,
    at: usize,
    without: Option<Without<'_>>,
) -> ClassEstimate {
    let class = query.classes[at];
    of_class.clear();
    of_class.extend(query.selective_predicates.iter().zip(preds).filter_map(|(p, view)| {
        (view.at == at && !matches!(without, Some(Without::Sel(s)) if s == p)).then_some(*view)
    }));
    let count = of_class.len();
    let selectivity = conjunction(of_class.iter().copied());
    let (cost, rows) = model.scan_estimate(stats, class, count, selectivity);
    let mut best = ClassEstimate { probe: None, cost, rows, preds: count, selectivity };
    for (i, view) in of_class.iter().enumerate().filter(|(_, view)| view.indexable) {
        let rest = of_class.iter().enumerate().filter(|(j, _)| *j != i).map(|(_, view)| *view);
        let (cost, rows) =
            model.index_estimate(stats, class, count - 1, conjunction(rest), view.selectivity);
        if cost < best.cost {
            best = ClassEstimate { probe: Some(i), cost, rows, ..best };
        }
    }
    best
}

/// The position a filter over the classes of `ends` waits for: the one of
/// them not in `bound` when it is the only one. Binding that class makes
/// the filter checkable. This one test both counts a candidate step's
/// filters and lists the winning step's, so the two cannot diverge.
fn closed_by(ends: u64, bound: u64) -> Option<usize> {
    let open = ends & !bound;
    open.is_power_of_two().then(|| open.trailing_zeros() as usize)
}

/// The mask of the positions `a` and `b`, both below [`MAX_CLASSES`].
fn mask(a: usize, b: usize) -> u64 {
    1 << a | 1 << b
}

impl Estimator {
    /// Stage 1: touches the [`Database::stats`] snapshot once per selective
    /// predicate, relationship and class of `query`, and resolves every
    /// class a predicate, relationship or join predicate names to its
    /// position in `query.classes`; everything after reads what this
    /// resolved.
    fn load(&mut self, db: &Database, query: &Query, model: &CostModel) {
        let (catalog, stats) = (db.catalog(), db.stats());
        let at = |class: ClassId| query.classes.iter().position(|&c| c == class);
        self.preds.clear();
        self.preds.extend(query.selective_predicates.iter().map(|p| PredView {
            selectivity: model.selectivity(stats, p),
            indexable: db.index(p.attr).is_some_and(|index| index.serves(p.op)),
            at: at(p.attr.class).unwrap_or(query.classes.len()),
        }));
        self.rels.clear();
        self.rels.extend(query.relationships.iter().map(|&rel| {
            let ends = catalog.relationship(rel).ok()?.classes();
            let fanout = stats
                .relationship(rel)
                .map_or((0.0, 0.0), |r| (r.avg_left_fanout.max(0.0), r.avg_right_fanout.max(0.0)));
            Some(RelView { ends, at: at(ends.0).zip(at(ends.1)), fanout })
        }));
        self.joins.clear();
        self.joins.extend(query.join_predicates.iter().map(|j| {
            let (x, y) = j.classes();
            at(x).zip(at(y))
        }));
        self.classes.clear();
        for at in 0..query.classes.len() {
            let estimate =
                estimate_class(stats, model, query, &self.preds, &mut self.of_class, at, None);
            self.classes.push(estimate);
        }
    }

    /// Stage 2: the driving class (fewest estimated rows, then cheapest
    /// access) and the greedy expansion over relationships, for `query`
    /// less `without`. `patched` replaces the loaded estimate of the class
    /// at one position. Returns the estimated `(cost, rows)` and leaves the
    /// order in `self.candidate`.
    fn order(
        &mut self,
        query: &Query,
        model: &CostModel,
        without: Option<Without<'_>>,
        patched: Option<Patch>,
    ) -> Result<(f64, f64), ExecError> {
        let Self { rels, joins, classes, closing, candidate, .. } = self;
        let Order { steps, join_filters, link_filters, .. } = candidate;
        let n = classes.len();
        if n > MAX_CLASSES {
            return Err(ExecError::TooManyClasses(n));
        }
        // A removed class is stepped over as a root and as a frontier
        // endpoint; never bound, nothing else of it is ever read.
        let removed = match without {
            Some(Without::Class(m)) => query.classes.iter().position(|&c| c == m),
            _ => None,
        }
        .map_or(0, |m| 1u64 << m);
        let masked = |j: &JoinPredicate| matches!(without, Some(Without::Join(m)) if m == j);
        let estimate = |at: usize| match patched {
            Some((patched_at, estimate)) if patched_at == at => estimate,
            _ => classes[at],
        };

        let mut root: Option<Patch> = None;
        for at in (0..n).filter(|at| removed >> at & 1 == 0) {
            let cand = estimate(at);
            if root.map_or(true, |(_, best)| (cand.rows, cand.cost) < (best.rows, best.cost)) {
                root = Some((at, cand));
            }
        }
        let (root, ClassEstimate { cost: mut total_cost, rows: mut current_rows, .. }) =
            root.ok_or(ExecError::EmptyQuery)?;
        candidate.root = root;

        steps.clear();
        join_filters.clear();
        link_filters.clear();
        let goal = (u64::MAX >> (MAX_CLASSES - n)) & !removed;
        let mut bound = 1u64 << root;
        while bound != goal {
            let missing = query.classes[(goal & !bound).trailing_zeros() as usize];
            // What binding each class would close: join predicates and
            // relationships with every other end bound.
            closing.clear();
            closing.resize(n, (0, 0));
            for (j, at) in query.join_predicates.iter().zip(joins.iter()) {
                if let Some(to) =
                    at.filter(|_| !masked(j)).and_then(|(x, y)| closed_by(mask(x, y), bound))
                {
                    closing[to].0 += 1;
                }
            }
            for (&rel, view) in query.relationships.iter().zip(rels.iter()) {
                let Some(view) = view else {
                    return Err(CatalogError::UnknownRelId(rel).into());
                };
                let Some((a, b)) = view.at else {
                    let class = if query.classes.contains(&view.ends.0) {
                        view.ends.1
                    } else {
                        view.ends.0
                    };
                    return Err(QueryError::RelationshipEndpointMissing { rel, class }.into());
                };
                if let Some(to) = closed_by(mask(a, b), bound) {
                    closing[to].1 += 1;
                }
            }
            // Frontier: relationships with exactly one endpoint bound,
            // costed from counts alone.
            let mut best: Option<(f64, f64, (usize, usize), StepOrder)> = None;
            for (i, (&rel, view)) in query.relationships.iter().zip(rels.iter()).enumerate() {
                // Every view is known and listed: the pass above returned
                // otherwise.
                let Some(RelView { at: Some((a, b)), fanout, .. }) = *view else { continue };
                if mask(a, b) & removed != 0 {
                    continue;
                }
                let (from, to, fanout) = if bound >> a & 1 == 1 && bound >> b & 1 == 0 {
                    (a, b, fanout.0)
                } else if bound >> b & 1 == 1 && bound >> a & 1 == 0 {
                    (b, a, fanout.1)
                } else {
                    continue;
                };
                // The step's own relationship closes on `to` too; it is
                // the edge, not a filter.
                let (joins_closed, links_closed) = closing[to];
                let step = StepOrder {
                    rel,
                    from_class: query.classes[from],
                    to_class: query.classes[to],
                    join_filters: joins_closed,
                    link_filters: links_closed - 1,
                };
                let residual = estimate(to);
                let (step_cost, out_rows) = model.join_step_estimate_parts(
                    current_rows,
                    fanout,
                    residual.preds,
                    residual.selectivity,
                    step.join_filters + step.link_filters,
                );
                if best.map_or(true, |(rows, cost, ..)| (out_rows, step_cost) < (rows, cost)) {
                    best = Some((out_rows, step_cost, (i, to), step));
                }
            }
            let Some((out_rows, step_cost, (edge, to), step)) = best else {
                return Err(ExecError::Unreachable(missing));
            };
            let closes = |at: Option<(usize, usize)>| {
                at.and_then(|(x, y)| closed_by(mask(x, y), bound)) == Some(to)
            };
            join_filters.extend(
                query
                    .join_predicates
                    .iter()
                    .zip(joins.iter())
                    .filter(|(j, at)| !masked(j) && closes(**at))
                    .map(|(j, _)| *j),
            );
            link_filters.extend(
                query.relationships.iter().zip(rels.iter()).enumerate().filter_map(
                    |(i, (&rel, view))| {
                        let view = (*view)?;
                        (i != edge && closes(view.at)).then_some((rel, view.ends.0, view.ends.1))
                    },
                ),
            );
            bound |= 1 << to;
            steps.push(step);
            total_cost += step_cost;
            current_rows = out_rows;
        }

        // Materialization cost of the final rows.
        total_cost += current_rows * model.weights.tuple_out;
        Ok((total_cost, current_rows))
    }

    /// Stage 3: the plan `order`, an order of the whole `query`, describes —
    /// the only stage that clones a predicate.
    fn materialize(
        &self,
        query: &Query,
        order: &Order,
        estimated_cost: f64,
        estimated_rows: f64,
    ) -> PhysicalPlan {
        let preds_of = |class: ClassId| {
            query.selective_predicates.iter().filter(move |p| p.attr.class == class)
        };
        let class = query.classes[order.root];
        let probe = self.classes[order.root].probe;
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
            (order.join_filters.as_slice(), order.link_filters.as_slice());
        let steps = order
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
    /// again under the mask and returned, with its position, beside the
    /// cost and rows.
    fn cost_of(
        &mut self,
        db: &Database,
        query: &Query,
        model: &CostModel,
        without: Option<Without<'_>>,
    ) -> Option<((f64, f64), Option<Patch>)> {
        let patched = match without {
            Some(Without::Sel(s)) => {
                query.classes.iter().position(|&c| c == s.attr.class).map(|at| {
                    let (preds, of_class) = (&self.preds, &mut self.of_class);
                    (at, estimate_class(db.stats(), model, query, preds, of_class, at, without))
                })
            }
            _ => None,
        };
        let estimate = self.order(query, model, without, patched).ok()?;
        Some((estimate, patched))
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
    }

    /// Loads `working` and orders it whole, unless a working query is
    /// loaded already: the statistics, order and cost every later decision
    /// and the plan start from.
    fn open(&mut self, db: &Database, working: &Query, model: &CostModel) {
        if !self.loaded {
            self.load(db, working, model);
            self.cost = self.order(working, model, None, None).ok();
            std::mem::swap(&mut self.candidate, &mut self.working);
            self.loaded = true;
        }
    }

    /// The plan of the working query, `query` (see *Planning once*): the
    /// carried order of the carried statistics. With nothing carried it is
    /// [`plan_query`].
    pub(crate) fn plan(
        &mut self,
        db: &Database,
        query: &Query,
        model: &CostModel,
    ) -> Result<PhysicalPlan, ExecError> {
        self.open(db, query, model);
        match self.cost {
            Some((cost, rows)) => Ok(self.materialize(query, &self.working, cost, rows)),
            // It cannot be planned; ordering it again says why.
            None => {
                let (cost, rows) = self.order(query, model, None, None)?;
                Ok(self.materialize(query, &self.candidate, cost, rows))
            }
        }
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
    /// its statistics, order and cost are carried, so a decision is one
    /// masked run of the loop.
    pub(crate) fn decide(
        &mut self,
        db: &Database,
        working: &Query,
        model: &CostModel,
        without: Without<'_>,
        adopting: bool,
        rule: Rule,
    ) -> bool {
        self.open(db, working, model);
        debug_assert_eq!(
            (self.preds.len(), self.rels.len(), self.joins.len(), self.classes.len()),
            (
                working.selective_predicates.len(),
                working.relationships.len(),
                working.join_predicates.len(),
                working.classes.len()
            ),
            "the working query changed without an adoption or a reset"
        );
        let sides = self.cost.zip(self.cost_of(db, working, model, Some(without)));
        let Some(((with, _), (candidate, patched))) = sides else {
            return !adopting;
        };
        let answer = rule(with, candidate.0);
        if answer != adopting {
            return answer;
        }
        self.cost = Some(candidate);
        std::mem::swap(&mut self.candidate, &mut self.working);
        match without {
            Without::Sel(s) => {
                let mut of_query = working.selective_predicates.iter();
                self.preds.retain(|_| of_query.next() != Some(s));
                if let Some((at, estimate)) = patched {
                    self.classes[at] = estimate;
                }
            }
            Without::Join(j) => {
                let mut of_query = working.join_predicates.iter();
                self.joins.retain(|_| of_query.next() != Some(j));
            }
            Without::Class(class) => self.remove_class(working, class),
        }
        answer
    }

    /// Removes `class` from the views, as the caller removes it from
    /// `working`, and moves every position past it down by one.
    fn remove_class(&mut self, working: &Query, class: ClassId) {
        let Some(removed) = working.classes.iter().position(|&c| c == class) else {
            return;
        };
        let after = |at: usize| at - usize::from(at > removed);
        let mut of_query = working.selective_predicates.iter();
        self.preds.retain(|_| of_query.next().is_some_and(|p| p.attr.class != class));
        for view in &mut self.preds {
            view.at = after(view.at);
        }
        self.rels.retain(|view| !view.is_some_and(|view| view.involves(class)));
        for view in self.rels.iter_mut().flatten() {
            view.at = view.at.map(|(a, b)| (after(a), after(b)));
        }
        let mut of_query = working.join_predicates.iter();
        self.joins.retain(|_| of_query.next().is_some_and(|j| !j.involves(class)));
        for at in self.joins.iter_mut().flatten() {
            *at = (after(at.0), after(at.1));
        }
        self.classes.remove(removed);
        // The removed class never roots the order; the root's position
        // moves past it.
        self.working.root = after(self.working.root);
    }
}

/// Plans `query` against `db` with `model`, on this thread's warm
/// estimator.
///
/// `query` must be valid (see `Query::validate`); the planner checks
/// reachability as it goes and reports `Unreachable` otherwise.
pub fn plan_query(
    db: &Database,
    query: &Query,
    model: &CostModel,
) -> Result<PhysicalPlan, ExecError> {
    let mut estimator = Warm::take();
    estimator.load(db, query, model);
    let (cost, rows) = estimator.order(query, model, None, None)?;
    Ok(estimator.materialize(query, &estimator.candidate, cost, rows))
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
        let view = |selectivity| PredView { selectivity, indexable: false, at: 0 };
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
