//! A class's extent: one copy-on-write paged column per attribute, each in
//! the attribute's declared type.
//!
//! An [`Extent`] keeps, for each attribute of its class, the objects'
//! values in object-id order in a [`ColumnVec`]: a `PagedVec` (`paged.rs`)
//! of `i64`, [`Finite`], `bool` or `Arc<str>`, whichever the catalog
//! declares, and the number of objects (a class need not declare an
//! attribute). There is no value tag and no row block to chase, so a scan
//! of one attribute streams one column of raw elements: an `Int` column of
//! 20,000 objects is 160 KiB where a column of 24-byte [`Value`]s was 480
//! KiB. A [`Value`] exists only at the edges: [`crate::Database::value`]
//! and [`Column::get`] build one from the element they read.
//!
//! Reading one attribute of one object through [`crate::Database::value`]
//! is four dependent loads: the extent, its column table, the column's page
//! table and the page. A [`Column`] handle resolves the first three once,
//! so each read through it is two: the page's pointer, then the element.
//!
//! Cloning an extent shares every column. A write copies the extent's
//! column table (one header per attribute) once per batch and, per written
//! value, the one page of the one column the value lands in (`db.rs`, *What
//! a write costs*). Rows exist only at the edges — a loader's or an
//! `Insert`'s tuple, a delete's dead row, `Database::tuple` and the
//! row-major `.sqos` EXTENTS section — and are never stored.

use std::hash::Hash;
use std::sync::Arc;

use sqo_catalog::{DataType, Finite, Value};

use crate::object::ObjectId;
use crate::paged::{page_of, slot, used_pages, Blank, Page, PagedVec, PAGE_LEN};

/// An attribute value in its declared type, as a column stores it.
pub(crate) trait Element: Blank + Ord + Hash {
    /// `v` as an element of this type; `v` back when it is of another type.
    fn of(v: Value) -> Result<Self, Value>;

    /// The element as a [`Value`].
    fn value(&self) -> Value;

    /// [`Element::value`], moving the element in.
    fn into_value(self) -> Value {
        self.value()
    }
}

impl Blank for i64 {
    fn blank() -> Self {
        0
    }
}

impl Element for i64 {
    fn of(v: Value) -> Result<Self, Value> {
        match v {
            Value::Int(x) => Ok(x),
            v => Err(v),
        }
    }

    fn value(&self) -> Value {
        Value::Int(*self)
    }
}

impl Blank for Finite {
    fn blank() -> Self {
        Finite::default()
    }
}

impl Element for Finite {
    fn of(v: Value) -> Result<Self, Value> {
        match v {
            Value::Float(x) => Ok(x),
            v => Err(v),
        }
    }

    fn value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Blank for bool {
    fn blank() -> Self {
        false
    }
}

impl Element for bool {
    fn of(v: Value) -> Result<Self, Value> {
        match v {
            Value::Bool(x) => Ok(x),
            v => Err(v),
        }
    }

    fn value(&self) -> Value {
        Value::Bool(*self)
    }
}

/// The empty string, one static allocation that every blank slot shares.
impl Blank for Arc<str> {
    fn blank() -> Self {
        Arc::default()
    }
}

impl Element for Arc<str> {
    fn of(v: Value) -> Result<Self, Value> {
        match v {
            Value::Str(x) => Ok(x),
            v => Err(v),
        }
    }

    fn value(&self) -> Value {
        Value::Str(Arc::clone(self))
    }

    fn into_value(self) -> Value {
        Value::Str(self)
    }
}

/// `v` as an element of the column it is written to. The caller has
/// checked its type against the catalog; a blank stands in for a value of
/// another type, so the columns of an extent stay of one length.
fn element<T: Element>(v: Value) -> T {
    T::of(v).unwrap_or_else(|v| {
        debug_assert!(false, "{v} written to a column of another type");
        T::blank()
    })
}

/// Writes `v` over element `i` of `column` and returns what it held.
fn replace<T: Element>(column: &mut PagedVec<T>, i: usize, v: Value) -> Option<Value> {
    let slot = column.get_mut(i)?;
    Some(std::mem::replace(slot, element(v)).into_value())
}

/// One attribute's values in its declared type (see the module docs).
#[derive(Debug, Clone)]
pub(crate) enum ColumnVec {
    Int(PagedVec<i64>),
    Float(PagedVec<Finite>),
    Str(PagedVec<Arc<str>>),
    Bool(PagedVec<bool>),
}

impl ColumnVec {
    pub(crate) fn len(&self) -> usize {
        match self {
            ColumnVec::Int(c) => c.len(),
            ColumnVec::Float(c) => c.len(),
            ColumnVec::Str(c) => c.len(),
            ColumnVec::Bool(c) => c.len(),
        }
    }

    /// Element `i` as a [`Value`].
    pub(crate) fn get(&self, i: usize) -> Option<Value> {
        match self {
            ColumnVec::Int(c) => c.get(i).map(Element::value),
            ColumnVec::Float(c) => c.get(i).map(Element::value),
            ColumnVec::Str(c) => c.get(i).map(Element::value),
            ColumnVec::Bool(c) => c.get(i).map(Element::value),
        }
    }

    /// A read handle on the column.
    pub(crate) fn handle(&self) -> Column<'_> {
        match self {
            ColumnVec::Int(c) => Column::Int(Typed::of(c)),
            ColumnVec::Float(c) => Column::Float(Typed::of(c)),
            ColumnVec::Str(c) => Column::Str(Typed::of(c)),
            ColumnVec::Bool(c) => Column::Bool(Typed::of(c)),
        }
    }

    fn push(&mut self, v: Value) {
        match self {
            ColumnVec::Int(c) => c.push(element(v)),
            ColumnVec::Float(c) => c.push(element(v)),
            ColumnVec::Str(c) => c.push(element(v)),
            ColumnVec::Bool(c) => c.push(element(v)),
        }
    }

    /// Writes `v` over element `i`, copying its page if the page is shared,
    /// and returns what it held.
    fn replace(&mut self, i: usize, v: Value) -> Option<Value> {
        match self {
            ColumnVec::Int(c) => replace(c, i, v),
            ColumnVec::Float(c) => replace(c, i, v),
            ColumnVec::Str(c) => replace(c, i, v),
            ColumnVec::Bool(c) => replace(c, i, v),
        }
    }

    fn swap_remove(&mut self, i: usize) -> Option<Value> {
        match self {
            ColumnVec::Int(c) => c.swap_remove(i).map(Element::into_value),
            ColumnVec::Float(c) => c.swap_remove(i).map(Element::into_value),
            ColumnVec::Str(c) => c.swap_remove(i).map(Element::into_value),
            ColumnVec::Bool(c) => c.swap_remove(i).map(Element::into_value),
        }
    }

    /// The indices of the pages that are not the same allocation in `self`
    /// and `other`; every page when their types differ.
    fn unshared_pages(&self, other: &Self) -> Vec<usize> {
        match (self, other) {
            (ColumnVec::Int(a), ColumnVec::Int(b)) => a.unshared_pages(b).collect(),
            (ColumnVec::Float(a), ColumnVec::Float(b)) => a.unshared_pages(b).collect(),
            (ColumnVec::Str(a), ColumnVec::Str(b)) => a.unshared_pages(b).collect(),
            (ColumnVec::Bool(a), ColumnVec::Bool(b)) => a.unshared_pages(b).collect(),
            _ => (0..self.len().max(other.len()).div_ceil(PAGE_LEN)).collect(),
        }
    }
}

/// A resolved read handle on one attribute's column
/// ([`crate::Database::column`]), in the attribute's declared type: the
/// column's page table and length, looked up once, so that a read through
/// the [`Typed`] handle it holds costs two dependent loads, the page's
/// pointer and the element. A hot reader matches on the type once per pass
/// and reads raw elements; [`Column::get`] builds a [`Value`] per read.
#[derive(Debug, Clone, Copy)]
pub enum Column<'a> {
    Int(Typed<'a, i64>),
    Float(Typed<'a, Finite>),
    Str(Typed<'a, Arc<str>>),
    Bool(Typed<'a, bool>),
}

impl<'a> Column<'a> {
    /// How many objects the column holds (its class's cardinality).
    pub fn len(&self) -> usize {
        match self {
            Column::Int(c) => c.len(),
            Column::Float(c) => c.len(),
            Column::Str(c) => c.len(),
            Column::Bool(c) => c.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The attribute's declared type, which every element has.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
            Column::Bool(_) => DataType::Bool,
        }
    }

    /// Object `oid`'s value; `None` past the class's last object.
    pub fn get(&self, oid: ObjectId) -> Option<Value> {
        match self {
            Column::Int(c) => c.get(oid).map(Element::value),
            Column::Float(c) => c.get(oid).map(Element::value),
            Column::Str(c) => c.get(oid).map(Element::value),
            Column::Bool(c) => c.get(oid).map(Element::value),
        }
    }

    /// Every value in object-id order: the `i`-th is `get(ObjectId(i))`.
    pub fn iter(&self) -> impl Iterator<Item = Value> + 'a {
        let column = *self;
        (0..self.len() as u32).filter_map(move |i| column.get(ObjectId(i)))
    }
}

/// A read handle on a column of elements of type `T` (see [`Column`]).
#[derive(Debug)]
pub struct Typed<'a, T> {
    table: &'a [Page<T>],
    len: usize,
}

impl<T> Clone for Typed<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Typed<'_, T> {}

impl<'a, T> Typed<'a, T> {
    fn of(column: &'a PagedVec<T>) -> Self {
        Self { table: column.table(), len: column.len() }
    }

    /// How many objects the column holds.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Object `oid`'s element; `None` past the class's last object.
    #[inline]
    pub fn get(&self, oid: ObjectId) -> Option<&'a T> {
        slot(self.table, self.len, oid.index())
    }

    /// Every element in object-id order, walked page by page: the `i`-th is
    /// `get(ObjectId(i))`, without a page-table lookup per object.
    pub fn iter(&self) -> impl Iterator<Item = &'a T> + Clone {
        self.pages().flatten()
    }

    /// The elements page by page, in object-id order: each page's used
    /// slots, every page full but the last.
    pub fn pages(&self) -> impl Iterator<Item = &'a [T]> + Clone {
        used_pages(self.table, self.len)
    }
}

/// One class's objects, one typed paged column per attribute (see the
/// module docs).
#[derive(Debug, Clone)]
pub(crate) struct Extent {
    columns: Arc<[ColumnVec]>,
    len: usize,
}

impl Extent {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Attribute `attr`'s column.
    pub(crate) fn column(&self, attr: usize) -> Option<&ColumnVec> {
        self.columns.get(attr)
    }

    /// The columns, in attribute order.
    pub(crate) fn columns(&self) -> &[ColumnVec] {
        &self.columns
    }

    /// The columns mutably; copies the column table first if a clone of
    /// this extent shares it. For an extent still owned alone — a load's,
    /// before it is published — so its pages are written in place.
    pub(crate) fn columns_mut(&mut self) -> &mut [ColumnVec] {
        Arc::make_mut(&mut self.columns)
    }

    /// Object `oid`'s values, in attribute order.
    pub(crate) fn row(&self, oid: usize) -> Option<Vec<Value>> {
        (oid < self.len).then(|| self.columns.iter().filter_map(|c| c.get(oid)).collect())
    }

    /// Writes `v` over attribute `attr` of object `oid`, copying the one
    /// page of the one column that holds it if the page is shared, and
    /// returns what it held. `v` is of the attribute's type (the caller has
    /// validated it).
    pub(crate) fn replace(&mut self, oid: usize, attr: usize, v: Value) -> Option<Value> {
        if oid < self.len {
            self.columns_mut().get_mut(attr)?.replace(oid, v)
        } else {
            None
        }
    }

    /// Appends an object: one value onto each column, in attribute order.
    /// `row` holds one value per attribute, each of its attribute's type
    /// (the caller has validated it).
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
    pub(crate) fn unshared_pages(&self, other: &Self) -> Vec<(usize, usize)> {
        let pairs = self.columns.iter().zip(other.columns.iter()).enumerate();
        pairs
            .flat_map(|(attr, (a, b))| a.unshared_pages(b).into_iter().map(move |p| (attr, p)))
            .collect()
    }
}

/// One column of an extent under construction: the page being filled —
/// empty between pages, at most [`PAGE_LEN`] elements — and the pages
/// filled before it.
#[derive(Debug)]
pub(crate) struct Growing<T> {
    filling: Vec<T>,
    pages: Vec<Page<T>>,
}

impl<T: Blank> Growing<T> {
    fn new(capacity: usize) -> Self {
        Self { filling: Vec::new(), pages: Vec::with_capacity(capacity.div_ceil(PAGE_LEN)) }
    }

    /// Appends one element; a page that fills moves into an allocation of
    /// its own, and the buffer it was filled in is kept for the next.
    #[inline]
    pub(crate) fn push(&mut self, v: T) {
        if self.filling.capacity() == 0 {
            self.filling.reserve_exact(PAGE_LEN);
        }
        self.filling.push(v);
        if self.filling.len() == PAGE_LEN {
            self.pages.push(page_of(&mut self.filling));
        }
    }

    fn finish(mut self, len: usize) -> PagedVec<T> {
        if !self.filling.is_empty() {
            self.pages.push(page_of(&mut self.filling));
        }
        PagedVec::from_pages(self.pages, len)
    }
}

/// A column under construction, in its attribute's declared type.
#[derive(Debug)]
pub(crate) enum GrowingColumn {
    Int(Growing<i64>),
    Float(Growing<Finite>),
    Str(Growing<Arc<str>>),
    Bool(Growing<bool>),
}

/// An extent under construction: what a load appends its tuples to before
/// it publishes the extent ([`Columns::finish`]). Each column fills one
/// page-sized buffer of raw elements at a time and moves it into a page of
/// its own when it is full, so an append touches no reference count.
#[derive(Debug)]
pub(crate) struct Columns {
    columns: Vec<GrowingColumn>,
    len: usize,
}

impl Columns {
    /// No objects of a class whose attributes have the types `types`, in
    /// attribute order, with room in the page tables for `capacity`.
    pub(crate) fn new(types: impl IntoIterator<Item = DataType>, capacity: usize) -> Self {
        let column = |ty| match ty {
            DataType::Int => GrowingColumn::Int(Growing::new(capacity)),
            DataType::Float => GrowingColumn::Float(Growing::new(capacity)),
            DataType::Str => GrowingColumn::Str(Growing::new(capacity)),
            DataType::Bool => GrowingColumn::Bool(Growing::new(capacity)),
        };
        Self { columns: types.into_iter().map(column).collect(), len: 0 }
    }

    /// How many objects have been appended.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends an object: `row` holds its values in attribute order, one per
    /// attribute, each of its attribute's type (the caller has validated
    /// them).
    pub(crate) fn push(&mut self, row: Vec<Value>) {
        for (column, v) in self.columns.iter_mut().zip(row) {
            match column {
                GrowingColumn::Int(c) => c.push(element(v)),
                GrowingColumn::Float(c) => c.push(element(v)),
                GrowingColumn::Str(c) => c.push(element(v)),
                GrowingColumn::Bool(c) => c.push(element(v)),
            }
        }
        self.len += 1;
    }

    /// Appends an object whose values `cell` appends, called once per
    /// column in attribute order with the column to append to; the first
    /// error ends the load.
    pub(crate) fn push_with<E>(
        &mut self,
        mut cell: impl FnMut(&mut GrowingColumn) -> Result<(), E>,
    ) -> Result<(), E> {
        for column in &mut self.columns {
            cell(column)?;
        }
        self.len += 1;
        Ok(())
    }

    pub(crate) fn finish(self) -> Extent {
        let len = self.len;
        let column = |column: GrowingColumn| match column {
            GrowingColumn::Int(c) => ColumnVec::Int(c.finish(len)),
            GrowingColumn::Float(c) => ColumnVec::Float(c.finish(len)),
            GrowingColumn::Str(c) => ColumnVec::Str(c.finish(len)),
            GrowingColumn::Bool(c) => ColumnVec::Bool(c.finish(len)),
        };
        Extent { columns: self.columns.into_iter().map(column).collect(), len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TYPES: [DataType; 4] = [DataType::Int, DataType::Str, DataType::Float, DataType::Bool];

    fn row(i: i64) -> Vec<Value> {
        let f = Value::float(i as f64 / 4.0).unwrap();
        vec![Value::Int(i), Value::str(format!("s{}", i % 3)), f, Value::Bool(i % 2 == 0)]
    }

    fn extent(n: i64) -> Extent {
        let mut columns = Columns::new(TYPES, 0);
        (0..n).for_each(|i| columns.push(row(i)));
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
        for (attr, ty) in TYPES.into_iter().enumerate() {
            let column = e.column(attr).unwrap().handle();
            assert_eq!((column.data_type(), column.len()), (ty, 300));
            let want: Vec<Value> = (0..300).map(|i| row(i)[attr].clone()).collect();
            assert_eq!(column.iter().collect::<Vec<_>>(), want);
            assert_eq!(column.get(ObjectId(300)), None);
        }
        let Column::Int(keys) = e.column(0).unwrap().handle() else { panic!("an Int column") };
        let pages: Vec<usize> = keys.pages().map(<[i64]>::len).collect();
        assert_eq!(pages, vec![128, 128, 44]);
        assert_eq!(keys.iter().copied().collect::<Vec<_>>(), (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn a_class_without_attributes_still_counts_its_objects() {
        let mut columns = Columns::new([], 4);
        columns.push(vec![]);
        columns.push(vec![]);
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
        assert_eq!(next.replace(130, 1, Value::str("x")), Some(Value::str("s1")));
        assert_eq!(next.unshared_pages(&base), vec![(1, 1)]);
        assert_eq!(base.row(130), Some(row(130)), "the source never sees the write");
        assert_eq!(next.replace(300, 0, Value::Int(0)), None);
        // A delete moves the last object into the first page of each column.
        let mut after = base.clone();
        assert_eq!(after.swap_remove(5), Some(row(5)));
        assert_eq!(after.row(5), Some(row(299)));
        let touched = after.unshared_pages(&base);
        let want: Vec<_> = (0..4).flat_map(|attr| [(attr, 0), (attr, 2)]).collect();
        assert_eq!(touched, want);
        // An append fills the last page of every column.
        let mut grown = after.clone();
        grown.push(row(7));
        assert_eq!(grown.row(299), Some(row(7)));
        assert_eq!(grown.unshared_pages(&after), (0..4).map(|attr| (attr, 2)).collect::<Vec<_>>());
    }
}
