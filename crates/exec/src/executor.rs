//! Level-at-a-time executor for pointer-join plans.
//!
//! Every operation is counted in [`CostCounters`], which the cost model folds
//! into the work-unit figure the benchmarks report as "execution cost".
//!
//! A plan runs one level at a time. The root access fills level 0. For each
//! [`JoinStep`], one loop gathers the link targets of every binding of the
//! level above, each tagged with its parent's index there, and the gathered
//! candidates are filtered in place: by each residual in turn, then by each
//! join filter, then by each cycle edge. The last level is emitted a
//! projection at a time, each value read through its row's parent chain. No
//! binding of a loop waits on the one before it, so their link lookups and
//! value reads overlap in the memory system, where a depth-first walk would
//! chain them one binding at a time.
//!
//! Children are appended parent by parent, so the rows come out in exactly
//! the order — and the counters count exactly the operations — of the
//! natural recursive formulation (`tests/prop_reference.rs` holds both
//! against one). Root bindings are taken in blocks of [`BLOCK`], so the
//! levels below the root are bounded by the block rather than the extent.
//!
//! Before reading any data, an execution resolves which level binds each
//! class, and that resolution is the plan's shape check
//! ([`PhysicalPlan::check`]): a plan the executor cannot run fails with
//! [`ExecError::MalformedPlan`] whatever the data.
//!
//! The answer is built in the scratch too, in [`ResultSet`]'s layout: each
//! block's cells are appended a projection at a time to that projection's
//! buffer, kept warm across executions. A cell is one word whatever its
//! column's type — the raw `i64`, the float's bits, the `bool`, or a
//! string's index in the answer's list of distinct strings, which holds
//! each string allocation once (found by address) — so a plan whose `k`-th
//! projection has another type than the last plan's reuses the same buffer.
//! A bound projection emits nothing. The finished answer moves the cells
//! out into one buffer of exactly their size and the strings into another,
//! so an execution allocates the same whether it returns ten rows or ten
//! thousand (`tests/result_alloc.rs` holds that).
//!
//! # Column at a time
//!
//! Each pass over a level reads one attribute or one adjacency side, and
//! resolves it once per pass: a [`Column`] or an [`Adjacency`] handle holds
//! the page table, so an element or a link list costs two dependent loads
//! instead of [`Database::value`]'s four. A column holds its attribute's
//! declared type, so what those loads reach is the raw element — an `i64`,
//! a `Finite`, a `bool` or an `Arc<str>` — not a tagged [`Value`]. A step
//! whose `from_class` is bound by the level above gathers from each parent
//! binding's own object; only a step from a class bound further up walks
//! the parent chain.
//!
//! A residual is dispatched once per pass on its column's type, its
//! literal's type and its operator ([`dispatch`]): each same-typed pair and
//! operator is a loop of its own, 24 in all, which compares the raw element
//! in place (`Int`, `Float`, `Bool` natively; a `Str` by identity, below),
//! stores each binding unconditionally and advances past it by the test's
//! result, so it does not branch on the data. A literal of another type than
//! the column's passes nothing, as [`SelPredicate::eval`] has it, and the
//! pass is counted all the same. A join filter picks its loop the same way,
//! by its two columns' types, and emission copies the raw element it reads
//! into a cell, building no [`Value`]. Dispatch keeps no state beyond one
//! pass, so an execution allocates nothing beyond the scratch's warm
//! buffers and the answer's own.
//!
//! **Strings by identity.** A literal is never storage's allocation, and the
//! strings of an attribute often share their length (`"cargo_cat0"` to
//! `"cargo_cat7"`), so a byte compare of every element would run in full. A
//! `Str` `=` or `≠` therefore runs in two phases within one pass
//! ([`same_string`]): it compares bytes (after the pointer) until the first
//! element equal to the literal, then only each element's address with that
//! element's. That is exact because storage keeps canonical strings: within
//! one snapshot, every string of an attribute equal to another is the same
//! allocation (`sqo_storage`'s `db.rs`; every snapshot-building path keeps
//! it, and the `.sqos` loader refuses a dictionary that would break it). A
//! literal no element holds compares bytes throughout, as before. The
//! scan root, a residual filtering a level and the batch tier all take this
//! loop; the orderings and the join filters compare values.
//!
//! A string projection is emitted in two passes. The first copies each
//! cell's element address, a loop as free of data-dependent branches as an
//! integer column's, so its scattered reads overlap. The second turns each
//! address into the string's index in the answer's list through a small
//! open-addressed table keyed by address (an answer holds few distinct
//! strings: `cold_scaled` averages three), and only a string not yet in
//! the list is read again, from cache, to be cloned into it. The table's
//! slots are tagged with a generation that each execution bumps, so
//! nothing is cleared per execution.
//!
//! A sequential-scan root streams its first residual's column page by page;
//! each further residual, at the root as at a step, filters the survivors
//! of the one before it, and so do the join filters and cycle edges. A
//! binding is tested by exactly the predicates a short-circuit conjunction
//! would test it by, so rows, their order and every counter are those of
//! evaluating them binding by binding.

use std::ops::Range;
use std::sync::Arc;

use sqo_catalog::{AttrRef, Finite, Value};
use sqo_query::{CompOp, JoinPredicate, SelPredicate, ValueSet};
use sqo_storage::{Adjacency, Column, CostCounters, Database, ObjectId, StorageError, Typed};

use crate::error::ExecError;
use crate::plan::{AccessPath, ClassAccess, JoinStep, PhysicalPlan};
use crate::result::{Cells, Projected, ResultSet};

/// Root bindings run down the plan together: the levels below the root hold
/// the descendants of at most this many.
const BLOCK: usize = 1024;

/// The bindings of one plan level: each object with the index of its parent
/// binding in the level above (0 at the root).
type Level = Vec<(ObjectId, u32)>;

/// The reusable buffers of an execution: one level of bindings per plan
/// level, the class→level resolution, and the answer's emission buffers.
/// Keep one per worker thread; any plan shape can run against any scratch
/// (buffers grow on demand and are cleared before use).
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// levels[d] = the bindings of plan level `d` (root = 0); below the
    /// root, those of the current block.
    levels: Vec<Level>,
    /// level_of[class] = the plan level binding `class`.
    level_of: Vec<usize>,
    /// cells[k] = the cells of projection `k` emitted so far, one word each
    /// whatever the column's type (`result.rs`); a bound projection's stays
    /// empty.
    cells: Vec<Vec<u64>>,
    /// The distinct strings the string cells emitted so far index.
    strings: Strings,
}

impl ExecScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// The distinct strings of the answer being emitted, each allocation once,
/// and an open-addressed table from each one's address to its index in the
/// list. A slot is valid only in the generation that filled it, so clearing
/// bumps the generation instead of touching the slots, and the table keeps
/// at least twice as many slots as the list has strings, so every probe
/// ends at a match or an empty slot.
#[derive(Debug)]
struct Strings {
    list: Vec<Arc<str>>,
    slots: Vec<Slot>,
    generation: u64,
}

/// One slot of [`Strings`]' table: the string at address `at` has index
/// `code`, in generation `generation`.
#[derive(Debug, Default, Clone, Copy)]
struct Slot {
    at: u64,
    generation: u64,
    code: u64,
}

/// The size of [`Strings`]' table when it is first used: a power of two.
const FIRST_SLOTS: usize = 64;

impl Default for Strings {
    fn default() -> Self {
        // Generation 0 is an unfilled slot's.
        Self { list: Vec::new(), slots: Vec::new(), generation: 1 }
    }
}

impl Strings {
    fn clear(&mut self) {
        self.list.clear();
        self.generation += 1;
    }

    /// The index in the list of the string at address `at`, appending the
    /// string `read` returns if that allocation is not in the list yet.
    #[inline]
    fn code<'c>(
        &mut self,
        at: u64,
        read: impl FnOnce() -> Result<&'c Arc<str>, StorageError>,
    ) -> Result<u64, StorageError> {
        if self.slots.is_empty() {
            self.slots.resize(FIRST_SLOTS, Slot::default());
        }
        let mask = self.slots.len() - 1;
        let mut i = home(at, mask);
        loop {
            let slot = &mut self.slots[i];
            if slot.generation != self.generation {
                self.list.push(Arc::clone(read()?));
                let code = self.list.len() as u64 - 1;
                *slot = Slot { at, generation: self.generation, code };
                if 2 * self.list.len() > self.slots.len() {
                    self.grow();
                }
                return Ok(code);
            }
            if slot.at == at {
                return Ok(slot.code);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table and files the list's strings in it again.
    fn grow(&mut self) {
        let size = 2 * self.slots.len();
        self.slots.clear();
        self.slots.resize(size, Slot::default());
        let mask = size - 1;
        for (code, s) in self.list.iter().enumerate() {
            let at = address(s);
            let mut i = home(at, mask);
            while self.slots[i].generation == self.generation {
                i = (i + 1) & mask;
            }
            self.slots[i] = Slot { at, generation: self.generation, code: code as u64 };
        }
    }
}

/// The slot a probe for address `at` starts at, in a table of `mask + 1`
/// slots: a multiplicative hash, whose upper half mixes the address's lower
/// bits, where allocations differ.
#[inline]
fn home(at: u64, mask: usize) -> usize {
    (at.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

/// The address of `s`'s allocation, which identifies it among the strings
/// of one snapshot.
#[inline]
fn address(s: &Arc<str>) -> u64 {
    Arc::as_ptr(s) as *const u8 as usize as u64
}

/// Executes `plan` against `db`, returning the result set and the operation
/// counters. Allocates fresh buffers; hot callers should hold an
/// [`ExecScratch`] and use [`execute_with`].
pub fn execute(db: &Database, plan: &PhysicalPlan) -> Result<(ResultSet, CostCounters), ExecError> {
    execute_with(db, plan, &mut ExecScratch::new())
}

/// [`execute`] against reusable buffers.
pub fn execute_with(
    db: &Database,
    plan: &PhysicalPlan,
    scratch: &mut ExecScratch,
) -> Result<(ResultSet, CostCounters), ExecError> {
    execute_rekeyed(db, plan, None, scratch)
}

/// [`execute_with`], with the root index probe's value set replaced by
/// `rekey` when given (a batch probe's own key).
pub(crate) fn execute_rekeyed(
    db: &Database,
    plan: &PhysicalPlan,
    rekey: Option<&ValueSet>,
    scratch: &mut ExecScratch,
) -> Result<(ResultSet, CostCounters), ExecError> {
    let ExecScratch { levels, level_of, cells, strings } = scratch;
    plan.resolve_levels(db.catalog(), level_of)?;
    let depths = plan.steps.len() + 1;
    if levels.len() < depths {
        levels.resize_with(depths, Vec::new);
    }
    let levels = &mut levels[..depths];
    let width = plan.projections.len();
    if cells.len() < width {
        cells.resize_with(width, Vec::new);
    }
    let cells = &mut cells[..width];
    cells.iter_mut().for_each(Vec::clear);
    strings.clear();
    let mut counters = CostCounters::new();
    produce(db, &plan.root, rekey, &mut counters, &mut levels[0])?;
    let roots = levels[0].len();
    let mut rows = 0;
    for start in (0..roots).step_by(BLOCK) {
        let block = start..roots.min(start + BLOCK);
        let emit = Emit { cells: &mut *cells, strings: &mut *strings };
        rows += run_block(db, plan, levels, level_of, block, &mut counters, emit)?;
    }
    counters.tuples_out += rows as u64;
    Ok((answer(db, plan, cells, strings, rows)?, counters))
}

/// The answer of `plan` on `db`, of `rows` rows whose cells are in `cells`
/// and `strings`: every buffer moved out at its exact size, in one bulk copy
/// each (`mem::take` would hand a warm buffer's capacity to the answer).
fn answer(
    db: &Database,
    plan: &PhysicalPlan,
    cells: &[Vec<u64>],
    strings: &mut Strings,
    rows: usize,
) -> Result<ResultSet, ExecError> {
    let unbound = plan.projections.iter().filter(|p| p.binding.is_none()).count();
    let mut words = Vec::with_capacity(if rows == 0 { 0 } else { unbound * rows });
    let mut columns = Vec::with_capacity(plan.projections.len());
    for (p, cells) in plan.projections.iter().zip(cells) {
        let cells = match &p.binding {
            Some(v) => Cells::Bound(v.clone()),
            None => {
                let start = words.len();
                words.extend_from_slice(cells);
                Cells::Words { ty: db.column(p.attr)?.data_type(), start }
            }
        };
        columns.push(Projected { attr: p.attr, cells });
    }
    let mut list = Vec::with_capacity(strings.list.len());
    list.append(&mut strings.list);
    Ok(ResultSet::emitted(db, columns, words, list, rows))
}

/// Where a block's cells go: each projection's buffer, and the strings.
struct Emit<'s> {
    cells: &'s mut [Vec<u64>],
    strings: &'s mut Strings,
}

/// Runs the root bindings `block` down every step of `plan`, appends the
/// cells of the rows they reach to `emit`, a projection at a time, and
/// returns how many rows that is.
fn run_block(
    db: &Database,
    plan: &PhysicalPlan,
    levels: &mut [Level],
    level_of: &[usize],
    block: Range<usize>,
    counters: &mut CostCounters,
    emit: Emit<'_>,
) -> Result<usize, ExecError> {
    let mut span = block;
    for (depth, step) in plan.steps.iter().enumerate() {
        let (above, below) = levels.split_at_mut(depth + 1);
        let out = &mut below[0];
        fill_level(db, step, above, level_of, span, counters, out)?;
        span = 0..out.len();
    }
    if span.is_empty() {
        return Ok(0);
    }
    let last = plan.steps.len();
    let Emit { cells, strings } = emit;
    for (p, out) in plan.projections.iter().zip(cells) {
        // A bound projection's value is known without touching the
        // database — exactly the saving the paper's restriction
        // introduction enables — and is stored once, in the answer.
        if p.binding.is_some() {
            continue;
        }
        let want = level_of[p.attr.class.index()];
        let oids = span.clone().map(|row| bound_at(levels, last, row, want));
        out.reserve(span.len());
        match db.column(p.attr)? {
            Column::Int(c) => copy(c, p.attr, oids, out, |&x| x as u64),
            Column::Float(c) => copy(c, p.attr, oids, out, |x: &Finite| x.get().to_bits()),
            Column::Str(c) => {
                // Each cell's string address first, in a loop the memo's
                // branches do not interrupt, so the column reads overlap;
                // then each address becomes its code, a miss re-reading
                // its (now cached) element.
                let start = out.len();
                copy(c, p.attr, oids, out, address)?;
                for (row, cell) in span.clone().zip(&mut out[start..]) {
                    let read = || read(c, p.attr, bound_at(levels, last, row, want));
                    *cell = strings.code(*cell, read)?;
                }
                Ok(())
            }
            Column::Bool(c) => copy(c, p.attr, oids, out, |&b| u64::from(b)),
        }?;
    }
    Ok(span.len())
}

/// Appends to `out` the cell of each object `oids` yields, read from
/// `column` (attribute `attr`'s) and made a word by `word`.
#[inline]
fn copy<T>(
    column: Typed<'_, T>,
    attr: AttrRef,
    oids: impl Iterator<Item = ObjectId>,
    out: &mut Vec<u64>,
    mut word: impl FnMut(&T) -> u64,
) -> Result<(), StorageError> {
    for oid in oids {
        out.push(word(read(column, attr, oid)?));
    }
    Ok(())
}

/// Object `oid`'s element in `column`, attribute `attr`'s.
#[inline]
fn read<'c, T>(column: Typed<'c, T>, attr: AttrRef, oid: ObjectId) -> Result<&'c T, StorageError> {
    column.get(oid).ok_or(StorageError::UnknownObject { class: attr.class, object: oid })
}

/// The object bound at level `want` in the parent chain of binding `index`
/// of level `level` (`want <= level`).
#[inline]
fn bound_at(levels: &[Level], mut level: usize, mut index: usize, want: usize) -> ObjectId {
    while level > want {
        index = levels[level][index].1 as usize;
        level -= 1;
    }
    levels[level][index].0
}

/// Fills `out` with the bindings of `step` below the bindings `parents` of
/// the last level of `above`: one loop gathers every parent's link targets,
/// parent by parent; then the step's residuals, its join filters and its
/// cycle edges filter them, one predicate at a time.
fn fill_level(
    db: &Database,
    step: &JoinStep,
    above: &[Level],
    level_of: &[usize],
    parents: Range<usize>,
    counters: &mut CostCounters,
    out: &mut Level,
) -> Result<(), ExecError> {
    let (class, depth) = (step.access.class, above.len() - 1);
    let adjacency = db.adjacency(step.rel, step.from_class)?;
    let from = level_of[step.from_class.index()];
    out.clear();
    if from == depth {
        // Each parent binding's own object is the one the step joins from.
        let bindings = above[depth].get(parents.clone()).unwrap_or_default();
        for (parent, &(oid, _)) in parents.zip(bindings) {
            gather(adjacency, oid, parent as u32, out);
        }
    } else {
        for parent in parents {
            gather(adjacency, bound_at(above, depth, parent, from), parent as u32, out);
        }
    }
    counters.link_traversals += out.len() as u64;
    keep_passing(db, &step.access.residual, out, counters)?;

    // The object bound at level `want` in the chain of candidate `oid`: the
    // candidate itself at the step's own level.
    let bound = |want: usize, oid: ObjectId, parent: u32| {
        if want > depth {
            oid
        } else {
            bound_at(above, depth, parent as usize, want)
        }
    };
    for j in &step.join_filters {
        if out.is_empty() {
            return Ok(());
        }
        counters.predicate_evals += out.len() as u64;
        let sides = (level_of[j.left.class.index()], level_of[j.right.class.index()]);
        let join = Join { j, sides, bound: &bound, level: &mut *out };
        match (db.column(j.left)?, db.column(j.right)?) {
            (Column::Int(l), Column::Int(r)) => join.run(l, r),
            (Column::Float(l), Column::Float(r)) => join.run(l, r),
            (Column::Str(l), Column::Str(r)) => join.run(l, r),
            (Column::Bool(l), Column::Bool(r)) => join.run(l, r),
            _ => join.none(),
        }?;
    }
    // Cycle edges: the pair must be linked in the extra relationship.
    for &(rel, a, b) in &step.link_filters {
        if out.is_empty() {
            return Ok(());
        }
        counters.link_traversals += out.len() as u64;
        let adjacency = db.adjacency(rel, class)?;
        let other = level_of[if a == class { b } else { a }.index()];
        retain(out, |oid, parent| Ok(adjacency.get(oid).contains(&bound(other, oid, parent))))?;
    }
    Ok(())
}

/// Appends `oid`'s link targets in `adjacency` to `out`, each tagged with
/// `parent`.
#[inline]
fn gather(adjacency: Adjacency<'_>, oid: ObjectId, parent: u32, out: &mut Level) {
    match adjacency.get(oid) {
        [] => {}
        &[target] => out.push((target, parent)),
        targets => out.extend(targets.iter().map(|&target| (target, parent))),
    }
}

/// One join filter's pass over a level: `sides` are the levels binding its
/// left and right classes, and `bound` finds the object a level binds in a
/// candidate's chain.
struct Join<'a, B> {
    j: &'a JoinPredicate,
    sides: (usize, usize),
    bound: &'a B,
    level: &'a mut Level,
}

impl<B: Fn(usize, ObjectId, u32) -> ObjectId> Join<'_, B> {
    /// Keeps the candidates whose left and right elements, read from
    /// `left` and `right`, compare as the join's operator asks.
    fn run<T: Ord>(self, left: Typed<'_, T>, right: Typed<'_, T>) -> Result<(), ExecError> {
        let Join { j, sides: (l_at, r_at), bound, level } = self;
        retain(level, |oid, parent| {
            let l = read(left, j.left, bound(l_at, oid, parent))?;
            let r = read(right, j.right, bound(r_at, oid, parent))?;
            Ok(j.op.eval(l.cmp(r)))
        })
    }

    /// The pass for columns of two types, whose values compare as nothing
    /// ([`JoinPredicate::eval`]): no candidate passes.
    fn none(self) -> Result<(), ExecError> {
        self.level.clear();
        Ok(())
    }
}

/// Keeps the bindings of `level` that pass `keep`, in order: each is stored
/// at the next kept slot unconditionally and the slot advances by the
/// verdict, so the loop does not branch on it.
#[inline]
fn retain(
    level: &mut Level,
    mut keep: impl FnMut(ObjectId, u32) -> Result<bool, StorageError>,
) -> Result<(), ExecError> {
    let mut kept = 0usize;
    for i in 0..level.len() {
        let binding = level[i];
        let pass = keep(binding.0, binding.1)?;
        level[kept] = binding;
        kept += usize::from(pass);
    }
    level.truncate(kept);
    Ok(())
}

/// Produces the candidate objects of the driving class access into `out`,
/// counting work and applying the residual filter over the batch. `rekey`
/// substitutes the index probe's value set (a batch probe's own key); a
/// sequential scan has no probe key to override.
fn produce(
    db: &Database,
    access: &ClassAccess,
    rekey: Option<&ValueSet>,
    counters: &mut CostCounters,
    out: &mut Level,
) -> Result<(), ExecError> {
    out.clear();
    match &access.path {
        AccessPath::SeqScan if rekey.is_some() => {
            Err(ExecError::RootOverrideNeedsIndex(access.class))
        }
        AccessPath::SeqScan => {
            let n = db.cardinality(access.class);
            counters.seq_tuples += n as u64;
            match access.residual.split_first() {
                Some((first, rest)) if n > 0 => {
                    counters.predicate_evals += n as u64;
                    dispatch(first, db.column(first.attr)?, Scan { out });
                    keep_passing(db, rest, out, counters)
                }
                _ => {
                    out.extend((0..n as u32).map(|i| (ObjectId(i), 0)));
                    Ok(())
                }
            }
        }
        AccessPath::Index { attr, set } => {
            let index = db.index(*attr).ok_or(ExecError::MissingIndex(*attr))?;
            let scan =
                index.probe(rekey.unwrap_or(set)).ok_or(ExecError::UnsupportedProbe(*attr))?;
            counters.index_probes += 1;
            counters.index_entries += scan.probes.saturating_sub(1);
            out.extend(scan.oids.into_iter().map(|oid| (oid, 0)));
            keep_passing(db, &access.residual, out, counters)
        }
    }
}

/// Keeps the bindings of `level` whose objects pass every predicate of
/// `residual`, in order. Each predicate filters the survivors of the one
/// before it, so a binding is tested exactly as far as a short-circuit
/// conjunction tests it, and each pass reads one attribute's column.
fn keep_passing(
    db: &Database,
    residual: &[SelPredicate],
    level: &mut Level,
    counters: &mut CostCounters,
) -> Result<(), ExecError> {
    for p in residual {
        if level.is_empty() {
            break;
        }
        counters.predicate_evals += level.len() as u64;
        dispatch(p, db.column(p.attr)?, Filter { attr: p.attr, level })?;
    }
    Ok(())
}

/// A loop over a column's elements that a typed test decides, run by
/// [`dispatch`] with the test of one (element type, operator) pair: each
/// pair compiles to a loop of its own.
trait Sweep {
    type Out;
    fn run<T>(self, column: Typed<'_, T>, test: impl FnMut(&T) -> bool) -> Self::Out;
    /// The loop for a literal of another type than the column's, which no
    /// element passes.
    fn none(self) -> Self::Out;
}

/// Filters a level by its objects' elements in one column.
struct Filter<'l> {
    attr: AttrRef,
    level: &'l mut Level,
}

impl Sweep for Filter<'_> {
    type Out = Result<(), ExecError>;

    fn run<T>(self, column: Typed<'_, T>, mut test: impl FnMut(&T) -> bool) -> Self::Out {
        let Filter { attr, level } = self;
        retain(level, |oid, _| read(column, attr, oid).map(&mut test))
    }

    fn none(self) -> Self::Out {
        self.level.clear();
        Ok(())
    }
}

/// Streams a whole column into a root level: the ids of the objects whose
/// element passes, in id order.
struct Scan<'l> {
    out: &'l mut Level,
}

impl Sweep for Scan<'_> {
    type Out = ();

    fn run<T>(self, column: Typed<'_, T>, mut test: impl FnMut(&T) -> bool) {
        let Scan { out } = self;
        out.resize(column.len(), (ObjectId(0), 0));
        let (mut kept, mut oid) = (0usize, 0u32);
        for page in column.pages() {
            for v in page {
                out[kept] = (ObjectId(oid), 0);
                kept += usize::from(test(v));
                oid += 1;
            }
        }
        out.truncate(kept);
    }

    fn none(self) {
        self.out.clear();
    }
}

/// A comparison operator as a type, so that each operator compiles to its
/// own comparison instruction inside a typed loop.
trait Op {
    /// `Some(negated)` for `=` (`false`) and `≠` (`true`), whose string
    /// loops compare by identity ([`same_string`]); `None` for the orderings.
    const EQUALITY: Option<bool> = None;

    fn holds<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool;
}

/// The test of a string column's elements against `literal` by `=`, or by
/// `≠` when `negated`, in two phases. Until the first element equal to the
/// literal it compares bytes (after pointers, for a literal that is
/// storage's own allocation); from then on it compares only the element's
/// address with that match's, since every string of one attribute of one
/// snapshot that equals it is that allocation (`sqo_storage`'s canonical
/// strings). A literal no element holds compares bytes throughout.
#[inline]
fn same_string(literal: &str, negated: bool) -> impl FnMut(&Arc<str>) -> bool + '_ {
    let mut first = None;
    move |a| {
        let at = address(a);
        let equal = match first {
            Some(first) => at == first,
            None => {
                let equal = std::ptr::eq(&**a, literal) || **a == *literal;
                if equal {
                    first = Some(at);
                }
                equal
            }
        };
        equal != negated
    }
}

struct Equal;
struct NotEqual;
struct Less;
struct AtMost;
struct Greater;
struct AtLeast;

impl Op for Equal {
    const EQUALITY: Option<bool> = Some(false);

    fn holds<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a == b
    }
}

impl Op for NotEqual {
    const EQUALITY: Option<bool> = Some(true);

    fn holds<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a != b
    }
}

impl Op for Less {
    fn holds<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a < b
    }
}

impl Op for AtMost {
    fn holds<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a <= b
    }
}

impl Op for Greater {
    fn holds<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a > b
    }
}

impl Op for AtLeast {
    fn holds<T: PartialOrd + ?Sized>(a: &T, b: &T) -> bool {
        a >= b
    }
}

/// Runs `sweep` over `column` (attribute `p.attr`'s) with `p`'s test,
/// compiled for its operator and the column's element type. The test agrees
/// with [`SelPredicate::eval`] on every value: floats compare as `f64` (a
/// `Finite` is never NaN, and `-0.0 == 0.0` in both), and a literal of
/// another type than the column's passes nothing.
fn dispatch<S: Sweep>(p: &SelPredicate, column: Column<'_>, sweep: S) -> S::Out {
    match p.op {
        CompOp::Eq => typed::<Equal, S>(column, &p.value, sweep),
        CompOp::Ne => typed::<NotEqual, S>(column, &p.value, sweep),
        CompOp::Lt => typed::<Less, S>(column, &p.value, sweep),
        CompOp::Le => typed::<AtMost, S>(column, &p.value, sweep),
        CompOp::Gt => typed::<Greater, S>(column, &p.value, sweep),
        CompOp::Ge => typed::<AtLeast, S>(column, &p.value, sweep),
    }
}

fn typed<O: Op, S: Sweep>(column: Column<'_>, literal: &Value, sweep: S) -> S::Out {
    match (column, literal) {
        (Column::Int(c), &Value::Int(x)) => sweep.run(c, |a: &i64| O::holds(a, &x)),
        (Column::Float(c), Value::Float(x)) => {
            let x = x.get();
            sweep.run(c, |a: &Finite| O::holds(&a.get(), &x))
        }
        (Column::Str(c), Value::Str(x)) => match O::EQUALITY {
            Some(negated) => sweep.run(c, same_string(x, negated)),
            None => sweep.run(c, |a: &Arc<str>| O::holds::<str>(a, x)),
        },
        (Column::Bool(c), &Value::Bool(x)) => sweep.run(c, |a: &bool| O::holds(a, &x)),
        _ => sweep.none(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::planner::plan_query;
    use sqo_catalog::example::figure21;
    use sqo_catalog::ClassId;
    use sqo_query::{CompOp, QueryBuilder};
    use sqo_storage::{DatabaseBuilder, IntegrityOptions};
    use std::sync::Arc;

    /// The executor test instance: 4 suppliers, 6 vehicles, 12 cargoes,
    /// supplies/collects round-robin.
    pub(crate) fn db() -> Database {
        db_of(12)
    }

    /// [`db`] with `cargoes` cargoes: cargo `i` has code and quantity `i`.
    fn db_of(cargoes: u32) -> Database {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        let cargo = catalog.class_id("cargo").unwrap();
        let vehicle = catalog.class_id("vehicle").unwrap();
        for i in 0..4 {
            b.insert(supplier, vec![Value::str(format!("s{i}")), Value::str("x")]).unwrap();
        }
        for i in 0..6 {
            let desc = if i < 2 { "refrigerated truck" } else { "flatbed" };
            b.insert(vehicle, vec![Value::Int(i), Value::str(desc), Value::Int(i % 3)]).unwrap();
        }
        equip_vehicles(&mut b, 6);
        for i in 0..i64::from(cargoes) {
            let desc = if i % 2 == 0 { "frozen food" } else { "dry goods" };
            b.insert(cargo, vec![Value::Int(i), Value::str(desc), Value::Int(i)]).unwrap();
        }
        let supplies = catalog.rel_id("supplies").unwrap();
        let collects = catalog.rel_id("collects").unwrap();
        for i in 0..cargoes {
            b.link(supplies, ObjectId(i), ObjectId(i % 4)).unwrap();
            b.link(collects, ObjectId(i), ObjectId(i % 6)).unwrap();
        }
        b.finalize(IntegrityOptions).unwrap()
    }

    /// Gives each of a Figure 2.1 builder's `vehicles` vehicles its own
    /// engine and one shared driver, as the to-one, total vehicle ends of
    /// `eng_comp` and `drives` declare. The driver's license class covers
    /// every vehicle class (Figure 2.2's c3).
    pub(crate) fn equip_vehicles(b: &mut DatabaseBuilder, vehicles: u32) {
        let catalog = figure21().unwrap();
        let class = |name| catalog.class_id(name).unwrap();
        let rel = |name| catalog.rel_id(name).unwrap();
        let license = [Value::Int(0), Value::Int(9), Value::Int(0)];
        let tuple = [Value::str("d"), Value::str("x"), Value::str("x")].into_iter().chain(license);
        let driver = b.insert(class("driver"), tuple.collect()).unwrap();
        for i in 0..vehicles {
            let engine = b.insert(class("engine"), vec![Value::Int(i.into()), Value::Int(1)]);
            b.link(rel("eng_comp"), ObjectId(i), engine.unwrap()).unwrap();
            b.link(rel("drives"), ObjectId(i), driver).unwrap();
        }
    }

    fn run(db: &Database, q: &sqo_query::Query) -> (ResultSet, CostCounters) {
        let plan = plan_query(db, q, &CostModel::default()).unwrap();
        execute(db, &plan).unwrap()
    }

    #[test]
    fn single_class_filter() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        let (res, counters) = run(&db, &q);
        assert_eq!(res.len(), 6);
        assert!(counters.seq_tuples >= 12, "{counters}");
        assert!(counters.predicate_evals >= 12);
    }

    #[test]
    fn index_probe_counts_less_work() {
        // Big enough that the planner prefers the index over a scan.
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        for i in 0..500 {
            b.insert(supplier, vec![Value::str(format!("s{i}")), Value::str("x")]).unwrap();
        }
        let db = b.finalize(IntegrityOptions).unwrap();
        let q = QueryBuilder::new(&catalog)
            .select("supplier.address")
            .filter("supplier.name", CompOp::Eq, "s1")
            .build()
            .unwrap();
        let (res, counters) = run(&db, &q);
        assert_eq!(res.len(), 1);
        assert_eq!(counters.seq_tuples, 0);
        assert_eq!(counters.index_probes, 1);
    }

    #[test]
    fn tiny_extent_prefers_scan() {
        // On a 4-row extent the 2-page index descent loses to a 1-page scan;
        // the planner must notice.
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("supplier.address")
            .filter("supplier.name", CompOp::Eq, "s1")
            .build()
            .unwrap();
        let (res, counters) = run(&db, &q);
        assert_eq!(res.len(), 1);
        assert_eq!(counters.index_probes, 0);
        assert!(counters.seq_tuples > 0);
    }

    #[test]
    fn two_class_pointer_join() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .select("vehicle.vehicle_no")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .via("collects")
            .build()
            .unwrap();
        let (res, counters) = run(&db, &q);
        // vehicles 0 and 1 are refrigerated; cargoes i with i%6 in {0,1}.
        assert_eq!(res.len(), 4);
        assert!(counters.link_traversals > 0);
    }

    #[test]
    fn three_class_chain_returns_consistent_rows() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("vehicle.vehicle_no")
            .select("cargo.desc")
            .select("cargo.quantity")
            .filter("vehicle.desc", CompOp::Eq, "refrigerated truck")
            .filter("supplier.name", CompOp::Eq, "s0")
            .via("collects")
            .via("supplies")
            .build()
            .unwrap();
        let (res, _) = run(&db, &q);
        // cargoes with i%6 in {0,1} and i%4 == 0: i in {0, 4, 12...} ∩ [0,12): {0} i%6=0 ok; {4} i%6=4 no; {8} i%6=2 no.
        assert_eq!(res.len(), 1);
        assert_eq!(res.row(0)[1], Value::str("frozen food"));
    }

    #[test]
    fn bound_projection_emits_constant_without_fetch() {
        let db = db();
        let catalog = db.catalog().clone();
        let mut q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        q.projections.push(sqo_query::Projection::bound(
            catalog.attr_ref("cargo", "desc").unwrap(),
            Value::str("frozen food"),
        ));
        let (res, _) = run(&db, &q);
        assert_eq!(res.len(), 6);
        for row in res.rows() {
            assert_eq!(row[1], Value::str("frozen food"));
        }
    }

    /// An answer of more distinct strings than the emission table's first
    /// size reads every one back and holds each allocation once, through
    /// the table's growths (the second block looks up the "x" the first
    /// filed before them), and a warm scratch answers the same on the next
    /// execution.
    #[test]
    fn an_answer_of_many_distinct_strings_reads_each_back() {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        let names: Vec<Value> = (0..1500).map(|i| Value::str(format!("s{i}"))).collect();
        for name in &names {
            b.insert(supplier, vec![name.clone(), Value::str("x")]).unwrap();
        }
        let db = b.finalize(IntegrityOptions).unwrap();
        let q = QueryBuilder::new(&catalog)
            .select("supplier.name")
            .select("supplier.address")
            .filter("supplier.address", CompOp::Eq, "x")
            .build()
            .unwrap();
        let plan = plan_query(&db, &q, &CostModel::default()).unwrap();
        // Every string either column holds: the 1,500 names, and one "x".
        let held: Vec<&Arc<str>> = ["name", "address"]
            .into_iter()
            .flat_map(|a| match db.column(catalog.attr_ref("supplier", a).unwrap()).unwrap() {
                Column::Str(c) => c.iter(),
                _ => panic!("supplier.{a} is a string column"),
            })
            .collect();
        let want: Vec<Vec<Value>> = names.into_iter().map(|n| vec![n, Value::str("x")]).collect();
        let before: Vec<usize> = held.iter().map(|s| Arc::strong_count(s)).collect();
        let counts =
            |extra| held.iter().zip(&before).all(|(s, b)| Arc::strong_count(s) == b + extra);
        let mut scratch = ExecScratch::new();
        for _ in 0..2 {
            let (res, _) = execute_with(&db, &plan, &mut scratch).unwrap();
            assert!(counts(1), "the answer holds each allocation once");
            assert_eq!(res.rows().collect::<Vec<_>>(), want);
        }
    }

    /// An answer holds one reference to each distinct string it projects,
    /// not one per row, and dropping it gives that reference back.
    #[test]
    fn an_answer_holds_each_distinct_string_once() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .select("cargo.desc")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        let Column::Str(descs) = db.column(catalog.attr_ref("cargo", "desc").unwrap()).unwrap()
        else {
            panic!("cargo.desc is a string column")
        };
        let frozen = descs.get(ObjectId(0)).unwrap();
        let rows = descs.iter().filter(|s| Arc::ptr_eq(s, frozen)).count();
        assert_eq!(rows, 6, "storage keeps the six equal strings in one allocation");
        let before = Arc::strong_count(frozen);
        let (res, _) = run(&db, &q);
        assert_eq!(res.len(), rows);
        assert!((0..rows).all(|i| res.value(i, 1) == Value::str("frozen food")));
        assert_eq!(Arc::strong_count(frozen), before + 1, "one reference for {rows} rows");
        drop(res);
        assert_eq!(Arc::strong_count(frozen), before);
    }

    /// A bound projection is stored once: an answer whose only projection is
    /// bound holds as many heap bytes for 2,500 rows as for 10. (The crate
    /// forbids `unsafe`, so no counting allocator runs here; the answer's
    /// own buffers are summed. `tests/result_alloc.rs` counts the bytes the
    /// allocator hands out.)
    #[test]
    fn a_bound_projection_holds_no_bytes_per_row() {
        let db = db_of(3000);
        let catalog = db.catalog().clone();
        let desc = catalog.attr_ref("cargo", "desc").unwrap();
        let bytes = |below: i64| {
            let mut q = QueryBuilder::new(&catalog)
                .select("cargo.code")
                .filter("cargo.quantity", CompOp::Lt, below)
                .build()
                .unwrap();
            q.projections = vec![sqo_query::Projection::bound(desc, Value::str("frozen food"))];
            let (res, _) = run(&db, &q);
            assert_eq!(res.len(), below as usize);
            assert!(res.rows().all(|row| row == [Value::str("frozen food")]));
            res.heap_bytes()
        };
        assert_eq!(bytes(10), bytes(2500));
    }

    #[test]
    fn join_filter_applies() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .join("cargo.quantity", CompOp::Lt, "vehicle.vehicle_no")
            .via("collects")
            .build()
            .unwrap();
        let (res, _) = run(&db, &q);
        // cargo i collected by vehicle i%6; need i < i%6 → i in {}: for i<6,
        // i%6 == i (never i<i); for i>=6, i%6 = i-6 < i. So no rows... wait:
        // condition is quantity < vehicle_no, quantity = i, vehicle_no = i%6.
        // i < i%6 is impossible, so empty.
        assert!(res.is_empty());
    }

    #[test]
    fn zero_projection_query_counts_the_extent() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog).access("cargo").build().unwrap();
        assert!(q.projections.is_empty());
        let (res, counters) = run(&db, &q);
        let cargo = catalog.class_id("cargo").unwrap();
        assert_eq!(res.len(), db.cardinality(cargo));
        assert_eq!(counters.tuples_out, 12);
    }

    #[test]
    fn deterministic_counters() {
        let db = db();
        let catalog = db.catalog().clone();
        let q = QueryBuilder::new(&catalog)
            .select("cargo.code")
            .filter("cargo.desc", CompOp::Eq, "frozen food")
            .build()
            .unwrap();
        let (_, c1) = run(&db, &q);
        let (_, c2) = run(&db, &q);
        assert_eq!(c1, c2);
    }

    /// Every typed loop, at a scan root and filtering a level, keeps
    /// exactly the objects whose value passes [`SelPredicate::eval`]: for
    /// each column type, every value it holds as the literal, one it does
    /// not hold, and a literal of each other type, which nothing passes.
    #[test]
    fn every_typed_test_agrees_with_eval() {
        let shared = Value::str("b");
        let f = |x: f64| Value::float(x).unwrap();
        let columns: [Vec<Value>; 4] = [
            [i64::MIN, -1, 0, 1, 2, i64::MAX].map(Value::Int).to_vec(),
            [f64::NEG_INFINITY, f64::MIN, -1.5, -0.0, 0.0, f64::MIN_POSITIVE, 1.5, f64::MAX]
                .map(f)
                .to_vec(),
            vec![
                Value::str(""),
                Value::str("a"),
                Value::str("ab"),
                shared.clone(),
                Value::str("b\0"),
            ],
            vec![Value::Bool(false), Value::Bool(true)],
        ];
        // One class per column type, of one attribute.
        let mut b = sqo_catalog::Catalog::builder();
        for (t, column) in columns.iter().enumerate() {
            let attr = sqo_catalog::AttributeDef::new("v", column[0].data_type());
            b.class(format!("c{t}"), vec![attr]).unwrap();
        }
        let mut load = Database::builder(Arc::new(b.build().unwrap()));
        for (t, column) in columns.iter().enumerate() {
            for v in column {
                load.insert(ClassId(t as u32), vec![v.clone()]).unwrap();
            }
        }
        let db = load.finalize(IntegrityOptions).unwrap();
        let ids = |level: &Level| level.iter().map(|&(oid, _)| oid).collect::<Vec<_>>();
        for (t, column) in columns.iter().enumerate() {
            let attr = AttrRef::new(ClassId(t as u32), sqo_catalog::AttrId(0));
            let handle = db.column(attr).unwrap();
            // Every value of the column as the literal (`shared` itself, so
            // the pointer test is taken), one no object holds, and a
            // literal of each other type, which no value passes.
            let mut literals = column.clone();
            literals.push([Value::Int(7), f(0.25), Value::str("ba"), Value::Bool(true)][t].clone());
            literals.extend(
                columns.iter().enumerate().filter(|&(u, _)| u != t).map(|(_, c)| c[0].clone()),
            );
            for literal in &literals {
                for op in CompOp::ALL {
                    let p = SelPredicate::new(attr, op, literal.clone());
                    let oids = (0..).map(ObjectId).zip(column);
                    let want: Vec<ObjectId> =
                        oids.filter(|(_, v)| p.eval(v)).map(|(oid, _)| oid).collect();
                    let mut scanned = Level::new();
                    dispatch(&p, handle, Scan { out: &mut scanned });
                    assert_eq!(ids(&scanned), want, "scan {op:?} {literal:?}");
                    // A level in reverse id order keeps its passing objects
                    // in that order.
                    let mut level: Level =
                        (0..column.len() as u32).rev().map(|i| (ObjectId(i), 7)).collect();
                    dispatch(&p, handle, Filter { attr, level: &mut level }).unwrap();
                    let kept: Vec<ObjectId> = want.iter().rev().copied().collect();
                    assert_eq!(ids(&level), kept, "filter {op:?} {literal:?}");
                    assert!(level.iter().all(|&(_, parent)| parent == 7));
                }
            }
        }
    }

    /// A string `=` or `≠` compares by address once an element has matched
    /// (`same_string`): with a literal that is no object's allocation, and
    /// its first match at object 0, in the middle of a page, on the last page
    /// of a column longer than one block, or nowhere, the scan root and a
    /// filter over a level in reverse id order keep exactly the objects
    /// whose value passes [`SelPredicate::eval`], and so does a whole
    /// execution.
    #[test]
    fn string_equality_by_identity_agrees_with_eval() {
        const N: u32 = BLOCK as u32 + 300;
        let mut b = sqo_catalog::Catalog::builder();
        b.class("c", vec![sqo_catalog::AttributeDef::new("s", sqo_catalog::DataType::Str)])
            .unwrap();
        let catalog = Arc::new(b.build().unwrap());
        let attr = AttrRef::new(ClassId(0), sqo_catalog::AttrId(0));
        // Each value a fresh allocation, as a parsed literal is; every
        // string has the literal's length, so no length test decides.
        let value = |first: Option<u32>, i: u32| match first {
            Some(first) if i >= first && (i - first) % 7 == 0 => Value::str("hit"),
            _ => Value::str(format!("c{}x", i % 3)),
        };
        let last_page = N - N % 128 + 5;
        assert!(last_page < N && last_page >= BLOCK as u32);
        for first in [Some(0), Some(128 + 64), Some(last_page), None] {
            let mut load = Database::builder(Arc::clone(&catalog));
            for i in 0..N {
                load.insert(ClassId(0), vec![value(first, i)]).unwrap();
            }
            let db = load.finalize(IntegrityOptions).unwrap();
            let values: Vec<Value> = (0..N).map(|i| value(first, i)).collect();
            let ids = |level: &Level| level.iter().map(|&(oid, _)| oid).collect::<Vec<_>>();
            for op in [CompOp::Eq, CompOp::Ne] {
                let p = SelPredicate::new(attr, op, Value::str("hit"));
                let oids = (0..).map(ObjectId).zip(&values);
                let want: Vec<ObjectId> =
                    oids.filter(|(_, v)| p.eval(v)).map(|(oid, _)| oid).collect();
                let case = format!("{op:?}, first match at {first:?}");
                let mut scanned = Level::new();
                dispatch(&p, db.column(attr).unwrap(), Scan { out: &mut scanned });
                assert_eq!(ids(&scanned), want, "scan, {case}");
                let mut level: Level = (0..N).rev().map(|i| (ObjectId(i), 7)).collect();
                dispatch(&p, db.column(attr).unwrap(), Filter { attr, level: &mut level }).unwrap();
                let kept: Vec<ObjectId> = want.iter().rev().copied().collect();
                assert_eq!(ids(&level), kept, "filter, {case}");
                let root =
                    ClassAccess { class: ClassId(0), path: AccessPath::SeqScan, residual: vec![p] };
                let plan = hand_plan(root, vec![], vec![sqo_query::Projection::plain(attr)]);
                let (res, counters) = execute(&db, &plan).unwrap();
                let rows: Vec<Value> = res.rows().map(|row| row[0].clone()).collect();
                let want: Vec<Value> = want.iter().map(|oid| values[oid.index()].clone()).collect();
                assert_eq!(rows, want, "execution, {case}");
                assert_eq!(counters.predicate_evals, u64::from(N), "{case}");
            }
        }
    }

    /// A plan over `db()`'s classes, built by hand.
    fn hand_plan(
        root: ClassAccess,
        steps: Vec<JoinStep>,
        projections: Vec<sqo_query::Projection>,
    ) -> PhysicalPlan {
        PhysicalPlan { root, steps, projections, estimated_cost: 0.0, estimated_rows: 0.0 }
    }

    #[test]
    fn a_step_over_a_relationship_that_misses_its_class_is_refused() {
        // `supplies` joins cargo and supplier; stepping over it from cargo
        // "into vehicle" would read supplier ids as vehicles.
        let db = db();
        let c = db.catalog().clone();
        let (cargo, vehicle) = (c.class_id("cargo").unwrap(), c.class_id("vehicle").unwrap());
        let scan = |class| ClassAccess { class, path: AccessPath::SeqScan, residual: vec![] };
        let plan = hand_plan(
            scan(cargo),
            vec![JoinStep {
                rel: c.rel_id("supplies").unwrap(),
                from_class: cargo,
                access: scan(vehicle),
                join_filters: vec![],
                link_filters: vec![],
            }],
            vec![sqo_query::Projection::plain(c.attr_ref("vehicle", "desc").unwrap())],
        );
        assert!(matches!(execute(&db, &plan), Err(ExecError::MalformedPlan(_))));
        assert!(matches!(plan.check(&c), Err(ExecError::MalformedPlan(_))));
    }

    #[test]
    fn a_malformed_plan_is_refused_even_when_its_root_yields_nothing() {
        // The step joins from supplier, which no level binds; the root's
        // residual rejects every cargo, so no binding ever reaches the step.
        let db = db();
        let c = db.catalog().clone();
        let (cargo, vehicle) = (c.class_id("cargo").unwrap(), c.class_id("vehicle").unwrap());
        let nothing = sqo_query::SelPredicate::new(
            c.attr_ref("cargo", "desc").unwrap(),
            CompOp::Eq,
            Value::str("no such cargo"),
        );
        let plan = hand_plan(
            ClassAccess { class: cargo, path: AccessPath::SeqScan, residual: vec![nothing] },
            vec![JoinStep {
                rel: c.rel_id("collects").unwrap(),
                from_class: c.class_id("supplier").unwrap(),
                access: ClassAccess { class: vehicle, path: AccessPath::SeqScan, residual: vec![] },
                join_filters: vec![],
                link_filters: vec![],
            }],
            vec![],
        );
        assert!(matches!(execute(&db, &plan), Err(ExecError::MalformedPlan(_))));
    }
}
