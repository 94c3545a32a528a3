//! A class's extent: one copy-on-write paged column per attribute.
//!
//! An [`Extent`] keeps, for each attribute of its class, the objects'
//! values in object-id order in a `PagedVec<Value>` (`paged.rs`), and the
//! number of objects (a class need not declare an attribute). There is no
//! row block to chase, so a scan of one attribute streams one column.
//! Reading one attribute of one object through [`crate::Database::value`]
//! is four dependent loads: the extent, its column table, the column's page
//! table and the page. A [`Column`] handle resolves the first three once,
//! so each read through it is two: the page's pointer, then the value.
//!
//! Cloning an extent shares every column. A write copies the extent's
//! column table (one header per attribute) once per batch and, per written
//! value, the one page of the one column the value lands in (`db.rs`, *What
//! a write costs*). Rows exist only at the edges — a loader's or an
//! `Insert`'s tuple, a delete's dead row, `Database::tuple` and the
//! row-major `.sqos` EXTENTS section — and are never stored.

use std::sync::Arc;

use sqo_catalog::Value;

use crate::object::ObjectId;
use crate::paged::{page_of, slot, used_pages, Blank, Page, PagedVec, PAGE_LEN};

/// `Value` has no default; a column's unused slots hold `false`.
impl Blank for Value {
    fn blank() -> Self {
        Value::Bool(false)
    }
}

/// A resolved read handle on one attribute's column
/// ([`crate::Database::column`]): the column's page table and length,
/// looked up once, so that a read costs two dependent loads, the page's
/// pointer and the value.
#[derive(Debug, Clone, Copy)]
pub struct Column<'a> {
    table: &'a [Page<Value>],
    len: usize,
}

impl<'a> Column<'a> {
    pub(crate) fn of(column: &'a PagedVec<Value>) -> Self {
        Self { table: column.table(), len: column.len() }
    }

    /// How many objects the column holds (its class's cardinality).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Object `oid`'s value; `None` past the class's last object.
    #[inline]
    pub fn get(&self, oid: ObjectId) -> Option<&'a Value> {
        slot(self.table, self.len, oid.index())
    }

    /// Every value in object-id order, walked page by page: the `i`-th is
    /// `get(ObjectId(i))`, without a page-table lookup per object.
    pub fn iter(&self) -> impl Iterator<Item = &'a Value> + Clone {
        self.pages().flatten()
    }

    /// The values page by page, in object-id order: each page's used
    /// slots, every page full but the last.
    pub fn pages(&self) -> impl Iterator<Item = &'a [Value]> + Clone {
        used_pages(self.table, self.len)
    }
}

/// One class's objects, one paged column per attribute (see the module
/// docs).
#[derive(Debug, Clone)]
pub(crate) struct Extent {
    columns: Arc<[PagedVec<Value>]>,
    len: usize,
}

impl Extent {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Attribute `attr`'s column.
    pub(crate) fn column(&self, attr: usize) -> Option<&PagedVec<Value>> {
        self.columns.get(attr)
    }

    /// The columns, in attribute order.
    pub(crate) fn columns(&self) -> &[PagedVec<Value>] {
        &self.columns
    }

    /// The columns mutably; copies the column table first if a clone of
    /// this extent shares it. For an extent still owned alone — a load's,
    /// before it is published — so its pages are written in place.
    pub(crate) fn columns_mut(&mut self) -> &mut [PagedVec<Value>] {
        Arc::make_mut(&mut self.columns)
    }

    /// Object `oid`'s values, in attribute order.
    pub(crate) fn row(&self, oid: usize) -> Option<Vec<Value>> {
        (oid < self.len).then(|| self.columns.iter().filter_map(|c| c.get(oid).cloned()).collect())
    }

    /// Calls `f` with each object's values in attribute order, objects in id
    /// order: a row-major walk with one cursor per column, which allocates
    /// one row buffer for the whole walk.
    pub(crate) fn for_each_row<'a>(&'a self, mut f: impl FnMut(&[&'a Value])) {
        let mut cursors: Vec<_> = self.columns.iter().map(PagedVec::iter).collect();
        let mut row = Vec::with_capacity(cursors.len());
        for _ in 0..self.len {
            row.clear();
            row.extend(cursors.iter_mut().filter_map(Iterator::next));
            f(&row);
        }
    }

    /// Mutable access to attribute `attr` of object `oid`; copies the one
    /// page of the one column that holds it if the page is shared.
    pub(crate) fn value_mut(&mut self, oid: usize, attr: usize) -> Option<&mut Value> {
        if oid < self.len {
            self.columns_mut().get_mut(attr)?.get_mut(oid)
        } else {
            None
        }
    }

    /// Appends an object: one value onto each column, in attribute order.
    /// `row` holds one value per attribute (the caller has validated it).
    pub(crate) fn push(&mut self, row: Vec<Value>) {
        debug_assert_eq!(row.len(), self.columns.len(), "row arity");
        for (column, v) in self.columns_mut().iter_mut().zip(row) {
            column.push(v);
        }
        self.len += 1;
    }

    /// Removes object `oid`, moving the last object into its place in every
    /// column, and returns its values; `None` (and no change) when `oid` is
    /// out of range.
    pub(crate) fn swap_remove(&mut self, oid: usize) -> Option<Vec<Value>> {
        if oid >= self.len {
            return None;
        }
        self.len -= 1;
        Some(self.columns_mut().iter_mut().filter_map(|c| c.swap_remove(oid)).collect())
    }

    /// Per column, the pages that are not the same allocation in `self` and
    /// `other`, as `(attribute, page)` pairs (diagnostics for the
    /// copy-on-write tests).
    pub(crate) fn unshared_pages<'a>(
        &'a self,
        other: &'a Self,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let pairs = self.columns.iter().zip(other.columns.iter()).enumerate();
        pairs.flat_map(|(attr, (a, b))| a.unshared_pages(b).map(move |page| (attr, page)))
    }
}

/// An extent under construction: what a load appends its tuples to before
/// it publishes the extent ([`Columns::finish`]). Each column fills one
/// page-sized buffer at a time and moves it into a page of its own when it
/// is full, so an append touches no reference count.
#[derive(Debug)]
pub(crate) struct Columns {
    /// Per attribute, the page being filled — `PAGE_LEN` slots, blank past
    /// the objects appended to it; empty between pages — and the pages
    /// filled before it.
    columns: Vec<(Vec<Value>, Vec<Page<Value>>)>,
    len: usize,
}

impl Columns {
    /// No objects of a class of `arity` attributes, with room in the page
    /// tables for `capacity`.
    pub(crate) fn new(arity: usize, capacity: usize) -> Self {
        let pages = || Vec::with_capacity(capacity.div_ceil(PAGE_LEN));
        Self { columns: (0..arity).map(|_| (Vec::new(), pages())).collect(), len: 0 }
    }

    /// How many objects have been appended.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends an object: `row` holds its values in attribute order, one per
    /// attribute (the caller has validated them). Each value is swapped out
    /// of `row`, which is left blank: swapping two slots copies whole words,
    /// where moving a `Value` through a temporary copies it byte range by
    /// byte range and took a scaled load's appends to twice the time.
    pub(crate) fn push(&mut self, row: &mut [Value]) {
        let at = self.len % PAGE_LEN;
        for ((filling, _), v) in self.columns.iter_mut().zip(row) {
            if filling.is_empty() {
                filling.resize_with(PAGE_LEN, Value::blank);
            }
            if let Some(slot) = filling.get_mut(at) {
                std::mem::swap(slot, v);
            }
        }
        self.len += 1;
        if at + 1 == PAGE_LEN {
            self.seal();
        }
    }

    /// Moves each column's page being filled into a page of its own.
    fn seal(&mut self) {
        for (filling, pages) in &mut self.columns {
            if !filling.is_empty() {
                pages.push(page_of(std::mem::take(filling)));
            }
        }
    }

    pub(crate) fn finish(mut self) -> Extent {
        self.seal();
        let len = self.len;
        let columns = self.columns.into_iter().map(|(_, pages)| PagedVec::from_pages(pages, len));
        Extent { columns: columns.collect(), len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Vec<Value> {
        vec![Value::Int(i), Value::str(format!("s{}", i % 3))]
    }

    fn extent(n: i64) -> Extent {
        let mut columns = Columns::new(2, 0);
        (0..n).for_each(|i| columns.push(&mut row(i)));
        columns.finish()
    }

    #[test]
    fn rows_read_back_across_columns_and_pages() {
        let e = extent(300);
        assert_eq!(e.len(), 300);
        for i in [0, 127, 128, 299] {
            assert_eq!(e.row(i as usize), Some(row(i)));
        }
        assert_eq!(e.row(300), None);
        let mut walked = Vec::new();
        e.for_each_row(|r| walked.push(r.iter().map(|v| (*v).clone()).collect::<Vec<_>>()));
        assert_eq!(walked, (0..300).map(row).collect::<Vec<_>>());
    }

    #[test]
    fn a_class_without_attributes_still_counts_its_objects() {
        let mut columns = Columns::new(0, 4);
        columns.push(&mut []);
        columns.push(&mut []);
        let mut e = columns.finish();
        assert_eq!((e.len(), e.row(1)), (2, Some(vec![])));
        e.push(vec![]);
        assert_eq!(e.swap_remove(0), Some(vec![]));
        assert_eq!((e.len(), e.swap_remove(2)), (2, None));
    }

    #[test]
    fn writes_copy_only_the_pages_they_touch() {
        let base = extent(300);
        let mut next = base.clone();
        *next.value_mut(130, 1).unwrap() = Value::str("x");
        assert_eq!(next.unshared_pages(&base).collect::<Vec<_>>(), vec![(1, 1)]);
        assert_eq!(base.row(130), Some(row(130)), "the source never sees the write");
        assert_eq!(next.value_mut(300, 0), None);
        // A delete moves the last object into the first page of each column.
        let mut after = base.clone();
        assert_eq!(after.swap_remove(5), Some(row(5)));
        assert_eq!(after.row(5), Some(row(299)));
        let touched: Vec<_> = after.unshared_pages(&base).collect();
        assert_eq!(touched, vec![(0, 0), (0, 2), (1, 0), (1, 2)]);
    }
}
