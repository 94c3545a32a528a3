//! The concurrent write path: a versioned handle over immutable snapshots.
//!
//! A [`VersionedDatabase`] wraps an [`Arc<Database>`] behind a `RwLock` and
//! gives it a **data epoch** — an [`Epoch`] advanced by every committed
//! write batch, deliberately distinct from the *constraint* epoch of
//! `sqo-constraints` (`ConstraintStore::epoch`): constraint changes
//! invalidate cached *plans*, data changes invalidate cached *results*.
//!
//! Writers are serialized by an internal mutex and build the successor
//! snapshot **outside** the read lock ([`Database::with_writes`] is
//! copy-on-write), so concurrent readers only ever block on the pointer
//! swap. A reader's [`VersionedDatabase::snapshot`] is an immutable
//! `Arc<Database>` whose [`Database::data_version`] names the epoch it
//! belongs to — answers computed from one snapshot are internally
//! consistent by construction (no torn reads).
//!
//! # Per-class write epochs
//!
//! Beside the one data epoch, every lineage of snapshots shares one
//! [`WriteEpochs`]: per class, the last data epoch whose batch changed it.
//! It is what lets a result computed at epoch `E` be served at a later
//! epoch `E'` — nothing the plan read was written in `(E, E']` — instead of
//! expiring with every batch (the soundness argument is in `sqo-service`'s
//! `cache.rs`). Three rules make the vector safe to read without a lock:
//!
//! * **Who raises it.** Only [`VersionedDatabase::write`], for a batch
//!   that succeeded: every class in [`WriteReceipt::touched_classes`], and
//!   both endpoint classes of every relationship a [`DataWrite::Link`] or
//!   [`DataWrite::Unlink`] of the batch names — the only writes that change
//!   a link table without changing an endpoint's extent. Relationships have
//!   no slots of their own: a plan that traverses one binds both of its
//!   endpoint classes. The price is that a bare `Link` also expires results
//!   that read an endpoint class without traversing that relationship (no
//!   workload in the tree issues bare links). [`Database::with_writes`] and
//!   [`Database::with_writes_full`] stay pure: they hand the vector to
//!   their successor by pointer and raise nothing, so building a snapshot
//!   that is never published expires nothing.
//! * **When.** After the successor is built and **before** it is swapped
//!   in. A reader that obtained the snapshot of epoch `E'` from
//!   [`VersionedDatabase::snapshot`] therefore sees every raise of every
//!   epoch `≤ E'`; a raise it may additionally see from a batch still in
//!   flight only makes it re-execute.
//! * **How.** `fetch_max`, so two handles forked from one `Arc<Database>`
//!   (they share the vector) can only push a slot up: each fork sees at
//!   least its own writes, and the other's cost it re-executions, never a
//!   stale answer.
//!
//! The vector is not persisted (neither are results): a loaded database
//! starts a new lineage at all zeros.
//!
//! # The write log
//!
//! A slot says *that* a class was written, not *what* was written. Beside
//! the slots, the lineage keeps a log of its last [`WRITE_LOG_BATCHES`]
//! batches, which is what lets a memo survive a write that cannot reach it
//! (`sqo-service`'s `cache.rs`, *Irrelevant writes*). Per batch it holds
//! the epoch, the class and tuple of every [`DataWrite::Insert`] and every
//! [`DataWrite::Delete`] (the deleted tuple comes from the batch itself,
//! [`WriteReceipt::deleted`]), and as **opaque** every class another write
//! changed: an [`DataWrite::Update`]'s class and both endpoint classes of a
//! bare `Link` or `Unlink`. [`WriteEpochs::reached`] reads it.
//!
//! * **Who appends.** Only [`VersionedDatabase::write`], for a batch that
//!   succeeded, in the same critical section as the raises and by the same
//!   rule: **before** the swap. A reader at epoch `E'` therefore finds
//!   every batch of an epoch `≤ E'` in the log, or past its horizon.
//!   [`Database::with_writes`] logs nothing, so a successor that is never
//!   published leaves no trace.
//! * **The horizon.** The log is bounded: appending the
//!   `WRITE_LOG_BATCHES + 1`-th batch drops the oldest, whose buffers the
//!   new batch is written into (a full log allocates nothing for a batch
//!   of the usual size), and the log remembers the highest epoch it
//!   dropped. A question about writes after
//!   an epoch below that answers "reached", so a memo older than the
//!   horizon re-executes, as every memo did before the log.
//! * **Forks.** Two handles forked from one `Arc<Database>` append to one
//!   log, as they raise one vector. Their epochs interleave; a question
//!   about `(E, E']` reads both forks' batches in that range, so the
//!   other fork's relevant write costs a re-execution, never a stale
//!   answer, and a batch of either fork dropped past the horizon counts.

use std::collections::VecDeque;
use std::sync::Arc;

use sqo_catalog::{ClassId, Value};
use sqo_query::sync::{
    Epoch, Held, Mutex, RwLock, Unlocked, STORAGE_CURRENT, STORAGE_LOG, STORAGE_WRITER,
};

use crate::db::{DataWrite, Database, WriteReceipt};
use crate::error::StorageError;

/// How many recent write batches a lineage's log keeps (module docs,
/// *The write log*). A memo that has not been checked across this many
/// batches re-executes.
pub const WRITE_LOG_BATCHES: usize = 64;

/// Per class, the last data epoch of one snapshot lineage whose write batch
/// changed the class (`0`: never written since the lineage was built or
/// loaded), and the lineage's log of recent batches. Shared by pointer —
/// cloning is one reference-count increment — between every snapshot of
/// the lineage and every result read from one; see the module docs for who
/// raises and appends, and when.
#[derive(Debug, Clone)]
pub struct WriteEpochs(Arc<Lineage>);

#[derive(Debug)]
struct Lineage {
    slots: Box<[Epoch]>,
    log: RwLock<STORAGE_LOG, WriteLog>,
}

/// The lineage's recent batches, oldest first.
#[derive(Debug, Default)]
struct WriteLog {
    batches: VecDeque<LoggedBatch>,
    /// The highest epoch of a batch dropped past the horizon: the log
    /// holds every batch committed after it.
    dropped: u64,
}

/// What one committed batch wrote, as the memo check reads it. A slot of
/// a full log is refilled in place, so once the log is full a batch of the
/// usual size allocates nothing.
#[derive(Debug, Default)]
struct LoggedBatch {
    epoch: u64,
    /// Classes a write other than an insert or a delete changed.
    opaque: Vec<ClassId>,
    /// The class of every inserted and every deleted object, and where its
    /// tuple ends in `values`.
    rows: Vec<(ClassId, usize)>,
    values: Vec<Value>,
}

impl LoggedBatch {
    /// Refills this slot with `writes`, committed at `epoch` with `receipt`.
    fn fill(&mut self, db: &Database, epoch: u64, writes: &[DataWrite], receipt: &WriteReceipt) {
        self.epoch = epoch;
        self.opaque.clear();
        self.rows.clear();
        self.values.clear();
        let mut deleted = receipt.deleted.iter();
        for write in writes {
            let tuple = match write {
                DataWrite::Insert { class, tuple, .. } => Some((*class, tuple)),
                // One receipt tuple per delete, in batch order; without
                // one, the class can only be opaque.
                DataWrite::Delete { class, .. } => match deleted.next() {
                    Some(tuple) => Some((*class, tuple)),
                    None => {
                        self.opaque.push(*class);
                        None
                    }
                },
                DataWrite::Update { class, .. } => {
                    self.opaque.push(*class);
                    None
                }
                DataWrite::Link { rel, .. } | DataWrite::Unlink { rel, .. } => {
                    // The batch validated, so `rel` resolves.
                    if let Ok(def) = db.catalog().relationship(*rel) {
                        self.opaque.extend([def.left.class, def.right.class]);
                    }
                    None
                }
            };
            if let Some((class, tuple)) = tuple {
                self.values.extend_from_slice(tuple);
                self.rows.push((class, self.values.len()));
            }
        }
    }

    /// The class and tuple of every inserted and every deleted object.
    fn rows(&self) -> impl Iterator<Item = (ClassId, &[Value])> {
        let starts = std::iter::once(0).chain(self.rows.iter().map(|&(_, end)| end));
        self.rows.iter().zip(starts).map(|(&(class, end), start)| (class, &self.values[start..end]))
    }
}

impl WriteEpochs {
    /// A new lineage of `classes` classes, none written yet.
    pub(crate) fn new(classes: usize) -> Self {
        let slots = (0..classes).map(|_| Epoch::new(0)).collect();
        Self(Arc::new(Lineage { slots, log: RwLock::default() }))
    }

    /// Whether a batch committed (or about to commit) after `epoch` changed
    /// `class`. A class the lineage does not know counts as written.
    pub fn written_after(&self, class: ClassId, epoch: u64) -> bool {
        // What a reader relies on — every raise of an epoch up to its
        // snapshot's is visible — already follows from the `current` lock
        // hand-off (the raise happens-before the swap, the swap before the
        // reader's `snapshot()`); the slot's Acquire read extends it to a
        // reader handed an epoch by other means.
        self.0.slots.get(class.index()).map_or(true, |at| at.get() > epoch)
    }

    /// Whether a batch committed in `(since, until]` may have changed what
    /// a reader of `classes` sees, when the reader binds an object of a
    /// class only if `binds(class, tuple)` holds for its tuple (`false`
    /// for a class outside `classes`). It may have if it made one of
    /// `classes` opaque, or inserted or deleted an object `binds` accepts;
    /// a batch past the log's horizon always may (module docs). Allocates
    /// nothing, and takes the log's lock only when a slot of `classes`
    /// was raised after `since`.
    pub fn reached<I>(
        &self,
        since: u64,
        until: u64,
        classes: I,
        binds: impl Fn(ClassId, &[Value]) -> bool,
    ) -> bool
    where
        I: Iterator<Item = ClassId> + Clone,
    {
        if !classes.clone().any(|class| self.written_after(class, since)) {
            return false;
        }
        let mut held = Unlocked::new();
        let log = self.0.log.read(&mut held);
        if log.dropped > since {
            return true;
        }
        log.batches.iter().filter(|b| b.epoch > since && b.epoch <= until).any(|batch| {
            batch.opaque.iter().any(|c| classes.clone().any(|class| class == *c))
                || batch.rows().any(|(class, tuple)| binds(class, tuple))
        })
    }

    /// Records that the batch establishing `epoch` changed `class`.
    fn raise(&self, class: ClassId, epoch: u64) {
        // A raise keeps the slot monotone when two handles forked from one
        // snapshot raise it with unordered epochs.
        if let Some(at) = self.0.slots.get(class.index()) {
            at.raise(epoch);
        }
    }

    /// Logs `writes`, committed at `epoch` with `receipt`, in the slot of
    /// the oldest batch once the log is full (it drops past the horizon),
    /// then raises every class the batch changed: the receipt's touched
    /// classes and the opaque ones, which add a bare link's endpoints.
    fn record<const H: u8>(
        &self,
        held: &mut Held<H>,
        db: &Database,
        epoch: u64,
        writes: &[DataWrite],
        receipt: &WriteReceipt,
    ) {
        let mut log = self.0.log.write(held);
        let full = log.batches.len() >= WRITE_LOG_BATCHES;
        let oldest = if full { log.batches.pop_front() } else { None };
        if let Some(oldest) = &oldest {
            log.dropped = log.dropped.max(oldest.epoch);
        }
        let mut slot = oldest.unwrap_or_default();
        slot.fill(db, epoch, writes, receipt);
        for &class in receipt.touched_classes.iter().chain(&slot.opaque) {
            self.raise(class, epoch);
        }
        log.batches.push_back(slot);
    }
}

/// What one committed write batch produced.
#[derive(Debug, Clone)]
pub struct WriteOutcome {
    /// The data epoch the batch established.
    pub epoch: u64,
    /// The snapshot materializing that epoch (readers arriving later may
    /// already observe a newer one).
    pub snapshot: Arc<Database>,
    /// Inserted ids, swap-remove renumberings and touched classes of the
    /// batch (see [`WriteReceipt`]).
    pub receipt: WriteReceipt,
}

/// A mutable database: immutable snapshots behind a versioned swap.
#[derive(Debug)]
pub struct VersionedDatabase {
    current: RwLock<STORAGE_CURRENT, Arc<Database>>,
    /// Mirror of the current snapshot's `data_version`, readable without
    /// taking the snapshot lock. Stored right after the swap, under the
    /// swap's write lock: it never names a snapshot that is not swapped in
    /// yet, and never trails one a reader has already obtained.
    data_epoch: Epoch,
    /// Serializes writers so successor snapshots are built outside
    /// `current`'s write lock.
    writer: Mutex<STORAGE_WRITER, ()>,
}

impl VersionedDatabase {
    /// A handle on `db` at its data epoch. Every batch it applies is
    /// validated, integrity declarations included ([`Database::with_writes`]).
    pub fn new(db: Arc<Database>) -> Self {
        Self {
            data_epoch: Epoch::new(db.data_version()),
            current: RwLock::new(db),
            writer: Mutex::new(()),
        }
    }

    /// The current snapshot. Immutable; callers may hold it across a write
    /// (they keep reading the epoch it was taken at).
    pub fn snapshot(&self) -> Arc<Database> {
        Arc::clone(&self.current.read(&mut Unlocked::new()))
    }

    /// The current data epoch, lock-free. Never behind a snapshot already
    /// obtained from `snapshot()`; use `snapshot().data_version()` when the
    /// epoch must match a specific snapshot.
    pub fn data_epoch(&self) -> u64 {
        self.data_epoch.get()
    }

    /// Applies one atomic write batch: builds the successor snapshot
    /// copy-on-write, logs the batch and raises the [`WriteEpochs`] of the
    /// classes it changed, swaps it in, and advances the data epoch.
    /// Concurrent readers keep the snapshot they started with; a failed
    /// batch changes nothing.
    pub fn write(&self, writes: &[DataWrite]) -> Result<WriteOutcome, StorageError> {
        let mut held = Unlocked::new();
        let mut writing = self.writer.lock(&mut held);
        let held = writing.split().1;
        let base = Arc::clone(&self.current.read(held));
        let (db, receipt) = base.with_writes(writes, None)?;
        let epoch = db.data_version();
        // Before the swap: no reader may hold this epoch's snapshot while
        // its classes still read as unwritten, or its batch is not logged.
        db.write_epochs().record(held, &db, epoch, writes, &receipt);
        let snapshot = Arc::new(db);
        let mut current = self.current.write(held);
        *current = Arc::clone(&snapshot);
        // Published after the swap (and the raises before it), under the
        // swap's lock: whoever obtains this snapshot from `snapshot()`
        // reads this epoch or a later one afterwards.
        self.data_epoch.publish(epoch);
        drop(current);
        Ok(WriteOutcome { epoch, snapshot, receipt })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectId;
    use crate::IntegrityOptions;
    use sqo_catalog::{example::figure21, Value};

    fn handle() -> (Arc<sqo_catalog::Catalog>, VersionedDatabase) {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let supplier = catalog.class_id("supplier").unwrap();
        b.insert(supplier, vec![Value::str("SFI"), Value::str("1 Food St")]).unwrap();
        let db = b.finalize(IntegrityOptions).unwrap();
        (catalog, VersionedDatabase::new(Arc::new(db)))
    }

    #[test]
    fn writes_advance_the_epoch_and_readers_keep_their_snapshot() {
        let (catalog, handle) = handle();
        let supplier = catalog.class_id("supplier").unwrap();
        assert_eq!(handle.data_epoch(), 0);
        let before = handle.snapshot();
        let out = handle
            .write(&[DataWrite::Insert {
                class: supplier,
                tuple: vec![Value::str("NTUC"), Value::str("2 Mart Ave")],
                links: vec![],
            }])
            .unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(out.receipt.inserted, vec![ObjectId(1)]);
        assert_eq!(handle.data_epoch(), 1);
        assert_eq!(handle.snapshot().data_version(), 1);
        assert_eq!(handle.snapshot().cardinality(supplier), 2);
        // The pre-write snapshot still answers from epoch 0.
        assert_eq!(before.data_version(), 0);
        assert_eq!(before.cardinality(supplier), 1);
    }

    #[test]
    fn failed_batches_leave_the_epoch_alone() {
        let (catalog, handle) = handle();
        let supplier = catalog.class_id("supplier").unwrap();
        let err = handle.write(&[DataWrite::Insert {
            class: supplier,
            tuple: vec![Value::Int(3)],
            links: vec![],
        }]);
        assert!(matches!(err, Err(StorageError::ArityMismatch { .. })));
        assert_eq!(handle.data_epoch(), 0);
        assert_eq!(handle.snapshot().data_version(), 0);
    }

    /// Figure 2.1 with one cargo, its supplier and its vehicle, and the
    /// vehicle's engine and driver: object 0 of each class, linked as the
    /// catalog's total ends require.
    fn linked_handle() -> (Arc<sqo_catalog::Catalog>, Arc<Database>) {
        let catalog = Arc::new(figure21().unwrap());
        let mut b = Database::builder(Arc::clone(&catalog));
        let class = |name| catalog.class_id(name).unwrap();
        let staff = [Value::str("d"), Value::str("x"), Value::str("x")];
        let rows = [
            ("supplier", vec![Value::str("SFI"), Value::str("1 Food St")]),
            ("cargo", vec![Value::Int(1), Value::str("frozen food"), Value::Int(10)]),
            ("vehicle", vec![Value::Int(7), Value::str("flatbed"), Value::Int(1)]),
            ("engine", vec![Value::Int(3), Value::Int(1200)]),
            ("driver", staff.into_iter().chain([5, 9, 1990].map(Value::Int)).collect()),
        ];
        for (name, row) in rows {
            b.insert(class(name), row).unwrap();
        }
        for rel in ["supplies", "collects", "eng_comp", "drives"] {
            b.link(catalog.rel_id(rel).unwrap(), ObjectId(0), ObjectId(0)).unwrap();
        }
        let db = b.finalize(IntegrityOptions).unwrap();
        (catalog, Arc::new(db))
    }

    /// The classes of `catalog` whose slot reads as written after `epoch`.
    fn written_after(db: &Database, epoch: u64) -> Vec<String> {
        let catalog = db.catalog();
        (0..catalog.class_count() as u32)
            .map(sqo_catalog::ClassId)
            .filter(|&c| db.write_epochs().written_after(c, epoch))
            .map(|c| catalog.class_name(c).to_string())
            .collect()
    }

    #[test]
    fn a_write_raises_exactly_the_classes_it_changed() {
        let (catalog, db) = linked_handle();
        let handle = VersionedDatabase::new(db);
        let vehicle = catalog.class_id("vehicle").unwrap();
        let supplies = catalog.rel_id("supplies").unwrap();
        assert!(written_after(&handle.snapshot(), 0).is_empty(), "a new lineage starts at zero");

        let before = handle.snapshot();
        handle
            .write(&[DataWrite::Update {
                class: vehicle,
                object: ObjectId(0),
                attr: sqo_catalog::AttrId(2),
                value: Value::Int(2),
            }])
            .unwrap();
        assert_eq!(written_after(&handle.snapshot(), 0), ["vehicle"]);
        assert!(written_after(&handle.snapshot(), 1).is_empty(), "written at 1, not after it");
        // The vector is the lineage's, not the snapshot's: the pre-write
        // snapshot reads the same slots.
        assert_eq!(written_after(&before, 0), ["vehicle"]);

        // A re-link (an unlink and a link, since the cargo has exactly one
        // supplier): no extent changes, no class is in the receipt, and both
        // endpoint classes are raised all the same.
        let out = handle
            .write(&[
                DataWrite::Unlink { rel: supplies, left: ObjectId(0), right: ObjectId(0) },
                DataWrite::Link { rel: supplies, left: ObjectId(0), right: ObjectId(0) },
            ])
            .unwrap();
        assert_eq!(out.epoch, 2);
        assert!(out.receipt.touched_classes.is_empty());
        assert_eq!(written_after(&out.snapshot, 1), ["supplier", "cargo"]);

        // A failed batch raises nothing, not even for the writes that
        // validated before the one that did not.
        let err = handle.write(&[
            DataWrite::Update {
                class: vehicle,
                object: ObjectId(0),
                attr: sqo_catalog::AttrId(2),
                value: Value::Int(3),
            },
            DataWrite::Delete { class: vehicle, object: ObjectId(9) },
        ]);
        assert!(matches!(err, Err(StorageError::UnknownObject { .. })));
        // Nor does a batch the integrity check refuses.
        let err = handle.write(&[DataWrite::Link {
            rel: supplies,
            left: ObjectId(0),
            right: ObjectId(0),
        }]);
        assert!(matches!(err, Err(StorageError::MultiplicityViolated { .. })));
        assert!(written_after(&handle.snapshot(), 2).is_empty());
        assert_eq!(handle.data_epoch(), 2);
    }

    /// The order `write` owes its readers: raise, then swap. The test holds
    /// the snapshot slot's read lock, so the writer can get as far as the
    /// swap and no further; the raise must already be visible then. (Raised
    /// after the swap, a reader could hold epoch 1's snapshot while the
    /// class still reads as unwritten, and be served a pre-write result.)
    #[test]
    fn a_write_raises_its_classes_before_the_swap() {
        let (catalog, handle) = handle();
        let supplier = catalog.class_id("supplier").unwrap();
        let epochs = handle.snapshot().write_epochs().clone();
        std::thread::scope(|scope| {
            let mut held = Unlocked::new();
            let holding = handle.current.read(&mut held);
            let writer = scope.spawn(|| {
                handle
                    .write(&[DataWrite::Insert {
                        class: supplier,
                        tuple: vec![Value::str("NTUC"), Value::str("2 Mart Ave")],
                        links: vec![],
                    }])
                    .unwrap()
                    .epoch
            });
            let started = std::time::Instant::now();
            while !epochs.written_after(supplier, 0) {
                assert!(
                    started.elapsed() < std::time::Duration::from_secs(20),
                    "the writer is parked on the swap and the class still reads as unwritten"
                );
                std::thread::yield_now();
            }
            assert_eq!(holding.data_version(), 0, "the swap cannot have happened yet");
            drop(holding);
            assert_eq!(writer.join().unwrap(), 1);
        });
        assert_eq!(handle.snapshot().data_version(), 1);
    }

    /// `with_writes` and its oracle `with_writes_full` hand the vector on by
    /// pointer and raise nothing: a raise through either successor is read
    /// through the source snapshot.
    #[test]
    fn both_successors_stay_in_their_source_lineage() {
        let (catalog, db) = linked_handle();
        let vehicle = catalog.class_id("vehicle").unwrap();
        let supplier = catalog.class_id("supplier").unwrap();
        let rename = |class, attr, value| DataWrite::Update {
            class,
            object: ObjectId(0),
            attr: sqo_catalog::AttrId(attr),
            value,
        };
        let batch = [rename(vehicle, 1, Value::str("van"))];
        let (incremental, _) = db.with_writes(&batch, None).unwrap();
        let (full, _) = db.with_writes_full(&batch).unwrap();
        assert!(written_after(&db, 0).is_empty(), "building a successor publishes nothing");
        VersionedDatabase::new(Arc::new(incremental))
            .write(&[rename(vehicle, 1, Value::str("truck"))])
            .unwrap();
        assert_eq!(written_after(&db, 1), ["vehicle"]);
        VersionedDatabase::new(Arc::new(full))
            .write(&[rename(supplier, 1, Value::str("3 Dock Rd"))])
            .unwrap();
        assert_eq!(written_after(&db, 1), ["supplier", "vehicle"]);
    }

    /// What `reached` reads: a logged row only when the reader binds it,
    /// an opaque class whenever the reader binds the class, and only the
    /// batches of the range asked about.
    #[test]
    fn the_log_holds_each_batch_rows_and_opaque_classes() {
        let (catalog, db) = linked_handle();
        let handle = VersionedDatabase::new(db);
        let class = |name| catalog.class_id(name).unwrap();
        let (supplier, cargo) = (class("supplier"), class("cargo"));
        let lineage = handle.snapshot().write_epochs().clone();
        let named = |name: &'static str| {
            move |_: ClassId, tuple: &[Value]| tuple.first() == Some(&Value::str(name))
        };
        fn reads(classes: &[ClassId]) -> impl Iterator<Item = ClassId> + Clone + '_ {
            classes.iter().copied()
        }
        // Epoch 1: a supplier insert. Epoch 2: the same supplier deleted
        // again (its tuple comes back in the receipt).
        handle
            .write(&[DataWrite::Insert {
                class: supplier,
                tuple: vec![Value::str("NTUC"), Value::str("2 Mart Ave")],
                links: vec![],
            }])
            .unwrap();
        let out = handle.write(&[DataWrite::Delete { class: supplier, object: ObjectId(1) }]);
        assert_eq!(
            out.unwrap().receipt.deleted,
            [vec![Value::str("NTUC"), Value::str("2 Mart Ave")]]
        );
        assert!(lineage.reached(0, 1, reads(&[supplier]), named("NTUC")));
        assert!(
            !lineage.reached(0, 2, reads(&[supplier]), named("SFI")),
            "rows the reader rejects"
        );
        assert!(lineage.reached(1, 2, reads(&[supplier]), named("NTUC")), "the delete's tuple");
        assert!(!lineage.reached(2, 2, reads(&[supplier]), named("NTUC")), "nothing after 2");
        assert!(!lineage.reached(0, 2, reads(&[cargo]), named("NTUC")), "a class not read");
        // Epoch 3: a re-link of the cargo's supplier makes both ends opaque.
        let supplies = catalog.rel_id("supplies").unwrap();
        handle
            .write(&[
                DataWrite::Unlink { rel: supplies, left: ObjectId(0), right: ObjectId(0) },
                DataWrite::Link { rel: supplies, left: ObjectId(0), right: ObjectId(0) },
            ])
            .unwrap();
        for end in [supplier, cargo] {
            assert!(lineage.reached(2, 3, reads(&[end]), named("none")), "{end:?}");
        }
        assert!(!lineage.reached(2, 3, reads(&[class("vehicle")]), named("none")));
        assert!(!lineage.reached(2, 2, reads(&[cargo]), named("none")), "a batch after the reader");
    }

    #[test]
    fn a_batch_past_the_horizon_counts_as_reaching_every_reader() {
        let (catalog, handle) = handle();
        let supplier = catalog.class_id("supplier").unwrap();
        let lineage = handle.snapshot().write_epochs().clone();
        let insert = || DataWrite::Insert {
            class: supplier,
            tuple: vec![Value::str("NTUC"), Value::str("2 Mart Ave")],
            links: vec![],
        };
        let rejects = |_: ClassId, _: &[Value]| false;
        for _ in 0..=WRITE_LOG_BATCHES {
            handle.write(&[insert()]).unwrap();
        }
        let last = handle.data_epoch();
        let reads = || std::iter::once(supplier);
        assert!(lineage.reached(0, last, reads(), rejects), "batch 1 was dropped");
        assert!(!lineage.reached(1, last, reads(), rejects), "every batch after 1 is logged");
    }

    #[test]
    fn forked_handles_only_ever_push_a_slot_up() {
        let (catalog, db) = linked_handle();
        let vehicle = catalog.class_id("vehicle").unwrap();
        let bump = |value| DataWrite::Update {
            class: vehicle,
            object: ObjectId(0),
            attr: sqo_catalog::AttrId(2),
            value: Value::Int(value),
        };
        let ahead = VersionedDatabase::new(Arc::clone(&db));
        let behind = VersionedDatabase::new(db);
        for i in 0..3 {
            ahead.write(&[bump(i)]).unwrap();
        }
        // The other fork's first write is its epoch 1; the shared slot
        // stays at 3, so the fork that reached 3 still sees its own write.
        behind.write(&[bump(9)]).unwrap();
        assert!(ahead.snapshot().write_epochs().written_after(vehicle, 2));
        assert!(behind.snapshot().write_epochs().written_after(vehicle, 0));
    }

    #[test]
    fn concurrent_writers_produce_distinct_epochs() {
        let (catalog, handle) = handle();
        let supplier = catalog.class_id("supplier").unwrap();
        let epochs: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let handle = &handle;
                    scope.spawn(move || {
                        (0..8)
                            .map(|j| {
                                handle
                                    .write(&[DataWrite::Insert {
                                        class: supplier,
                                        tuple: vec![
                                            Value::str(format!("s{i}x{j}")),
                                            Value::str("addr"),
                                        ],
                                        links: vec![],
                                    }])
                                    .unwrap()
                                    .epoch
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut sorted = epochs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32, "every committed batch gets its own epoch: {epochs:?}");
        assert_eq!(handle.data_epoch(), 32);
        assert_eq!(handle.snapshot().cardinality(supplier), 33);
    }
}
