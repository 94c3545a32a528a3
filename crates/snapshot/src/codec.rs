//! Byte codecs for the shared schema/query vocabulary.
//!
//! Tag values mirror the stable `QueryFingerprint` hash in
//! `sqo-query::canonical` wherever both speak about the same enum (value
//! type tags, comparison operators), so the fingerprint recorded in a
//! snapshot and the bytes that encode its query can never drift apart.
//! `docs/FORMAT.md` §3 specifies every tag normatively.

use sqo_catalog::{
    AttrId, AttrRef, AttrStats, Catalog, ClassId, ClassStats, DataType, Finite, IndexKind,
    Multiplicity, RelId, RelationshipEnd, StatsSnapshot, Value, ValueHashState,
};
use sqo_query::{CompOp, JoinPredicate, Predicate, Projection, Query, SelPredicate};

use crate::bytes::{ByteReader, ByteWriter};
use crate::error::LoadError;

// ---- values ---------------------------------------------------------------

/// Encodes a [`Value`]: one type tag byte (Int=0, Float=1, Str=2, Bool=3 —
/// the fingerprint tags), then the payload.
pub fn write_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Int(i) => {
            w.u8(0);
            w.i64(*i);
        }
        Value::Float(f) => {
            w.u8(1);
            w.f64(f.get());
        }
        Value::Str(s) => {
            w.u8(2);
            w.str(s);
        }
        Value::Bool(b) => {
            w.u8(3);
            w.u8(*b as u8);
        }
    }
}

/// Decodes a [`Value`].
///
/// # Errors
/// [`LoadError::Malformed`] on a bad tag, short read, NaN float or non-0/1
/// bool byte.
pub fn read_value(r: &mut ByteReader<'_>) -> Result<Value, LoadError> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i64()?)),
        1 => {
            let f = r.f64()?;
            Finite::new(f).map(Value::Float).ok_or_else(|| r.malformed("NaN float value"))
        }
        2 => Ok(Value::Str(std::sync::Arc::from(r.str_ref()?))),
        3 => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            b => Err(r.malformed(format!("bool byte {b} is neither 0 nor 1"))),
        },
        t => Err(r.malformed(format!("unknown value tag {t}"))),
    }
}

/// Deduplicating pool of decoded `Arc<str>` values.
///
/// Snapshot payloads repeat string values heavily (extent tuples and index
/// keys draw from small generated vocabularies), so the bulk decoders
/// intern through one of these: each distinct string is allocated once and
/// every repeat shares the same [`std::sync::Arc`]. Purely an allocation
/// optimization — value equality is by content, so interned and
/// non-interned decodes are indistinguishable.
///
/// The pool hashes every decoded string occurrence with
/// [`ValueHashState`], keyed when the pool is built: whoever writes a file
/// chooses its strings (a checksum does not authenticate a file), but not
/// the key they are hashed under.
#[derive(Debug, Default)]
pub struct StrPool(std::collections::HashSet<std::sync::Arc<str>, ValueHashState>);

impl StrPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pool with room for `n` strings.
    pub fn with_capacity(n: usize) -> Self {
        Self(std::collections::HashSet::with_capacity_and_hasher(n, ValueHashState::default()))
    }

    /// Adds `s`, shared as it is, so a decoder interning through the pool
    /// takes that allocation for its equals. Returns `false`, and keeps the
    /// string it held, when the pool already holds one equal to `s`.
    pub fn insert(&mut self, s: std::sync::Arc<str>) -> bool {
        self.0.insert(s)
    }

    /// The shared `Arc` for `s`, allocating only on first sight.
    pub fn intern(&mut self, s: &str) -> std::sync::Arc<str> {
        if let Some(a) = self.0.get(s) {
            return std::sync::Arc::clone(a);
        }
        let a: std::sync::Arc<str> = std::sync::Arc::from(s);
        self.0.insert(std::sync::Arc::clone(&a));
        a
    }
}

/// Encodes a [`Value`] without its type tag — for values whose type the
/// catalog declares (an attribute's index keys and statistics), so a tag
/// would state the type a second time.
pub fn write_value_raw(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Int(i) => w.i64(*i),
        Value::Float(f) => w.f64(f.get()),
        Value::Str(s) => w.str(s),
        Value::Bool(b) => w.u8(*b as u8),
    }
}

/// Decodes a value [`write_value_raw`] wrote as type `ty`, interning
/// string payloads through `pool`. The value is of the declared type by
/// construction.
///
/// # Errors
/// [`LoadError::Malformed`] on a short read, NaN float or non-0/1 bool
/// byte.
pub fn read_value_raw(
    r: &mut ByteReader<'_>,
    ty: DataType,
    pool: &mut StrPool,
) -> Result<Value, LoadError> {
    match ty {
        DataType::Int => Ok(Value::Int(r.i64()?)),
        DataType::Float => {
            let f = r.f64()?;
            Finite::new(f).map(Value::Float).ok_or_else(|| r.malformed("NaN float value"))
        }
        DataType::Str => Ok(Value::Str(pool.intern(r.str_ref()?))),
        DataType::Bool => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            b => Err(r.malformed(format!("bool byte {b} is neither 0 nor 1"))),
        },
    }
}

/// Encodes a [`DataType`] as one byte (Int=0, Float=1, Str=2, Bool=3).
pub fn write_data_type(w: &mut ByteWriter, ty: DataType) {
    w.u8(match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    });
}

/// Decodes a [`DataType`].
///
/// # Errors
/// [`LoadError::Malformed`] on an unknown tag.
pub fn read_data_type(r: &mut ByteReader<'_>) -> Result<DataType, LoadError> {
    match r.u8()? {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Str),
        3 => Ok(DataType::Bool),
        t => Err(r.malformed(format!("unknown data-type tag {t}"))),
    }
}

// ---- query vocabulary -----------------------------------------------------

/// Encodes an [`AttrRef`] as class id then attr id, both `u32`.
pub fn write_attr_ref(w: &mut ByteWriter, r: AttrRef) {
    w.u32(r.class.0);
    w.u32(r.attr.0);
}

/// Decodes an [`AttrRef`].
///
/// # Errors
/// [`LoadError::Malformed`] on a short read.
pub fn read_attr_ref(r: &mut ByteReader<'_>) -> Result<AttrRef, LoadError> {
    Ok(AttrRef { class: ClassId(r.u32()?), attr: AttrId(r.u32()?) })
}

/// Encodes a [`CompOp`] as one byte (Eq=0, Ne=1, Lt=2, Le=3, Gt=4, Ge=5 —
/// the fingerprint tags).
pub fn write_comp_op(w: &mut ByteWriter, op: CompOp) {
    w.u8(match op {
        CompOp::Eq => 0,
        CompOp::Ne => 1,
        CompOp::Lt => 2,
        CompOp::Le => 3,
        CompOp::Gt => 4,
        CompOp::Ge => 5,
    });
}

/// Decodes a [`CompOp`].
///
/// # Errors
/// [`LoadError::Malformed`] on an unknown tag.
pub fn read_comp_op(r: &mut ByteReader<'_>) -> Result<CompOp, LoadError> {
    match r.u8()? {
        0 => Ok(CompOp::Eq),
        1 => Ok(CompOp::Ne),
        2 => Ok(CompOp::Lt),
        3 => Ok(CompOp::Le),
        4 => Ok(CompOp::Gt),
        5 => Ok(CompOp::Ge),
        t => Err(r.malformed(format!("unknown comparison-operator tag {t}"))),
    }
}

/// Encodes a [`SelPredicate`] as attr ref, operator, value.
pub fn write_sel_predicate(w: &mut ByteWriter, p: &SelPredicate) {
    write_attr_ref(w, p.attr);
    write_comp_op(w, p.op);
    write_value(w, &p.value);
}

/// Decodes a [`SelPredicate`].
///
/// # Errors
/// [`LoadError::Malformed`] on a short read or bad payload.
pub fn read_sel_predicate(r: &mut ByteReader<'_>) -> Result<SelPredicate, LoadError> {
    Ok(SelPredicate { attr: read_attr_ref(r)?, op: read_comp_op(r)?, value: read_value(r)? })
}

/// Encodes a [`JoinPredicate`] as left attr ref, operator, right attr ref.
/// The operands are stored exactly as held (already canonicalized by
/// [`JoinPredicate::new`] at construction time).
pub fn write_join_predicate(w: &mut ByteWriter, p: &JoinPredicate) {
    write_attr_ref(w, p.left);
    write_comp_op(w, p.op);
    write_attr_ref(w, p.right);
}

/// Decodes a [`JoinPredicate`], preserving the stored operand order.
///
/// # Errors
/// [`LoadError::Malformed`] on a short read or bad tag.
pub fn read_join_predicate(r: &mut ByteReader<'_>) -> Result<JoinPredicate, LoadError> {
    Ok(JoinPredicate { left: read_attr_ref(r)?, op: read_comp_op(r)?, right: read_attr_ref(r)? })
}

/// Encodes a [`Predicate`]: tag byte (Sel=0, Join=1), then the predicate.
pub fn write_predicate(w: &mut ByteWriter, p: &Predicate) {
    match p {
        Predicate::Sel(s) => {
            w.u8(0);
            write_sel_predicate(w, s);
        }
        Predicate::Join(j) => {
            w.u8(1);
            write_join_predicate(w, j);
        }
    }
}

/// Decodes a [`Predicate`].
///
/// # Errors
/// [`LoadError::Malformed`] on an unknown tag or bad payload.
pub fn read_predicate(r: &mut ByteReader<'_>) -> Result<Predicate, LoadError> {
    match r.u8()? {
        0 => Ok(Predicate::Sel(read_sel_predicate(r)?)),
        1 => Ok(Predicate::Join(read_join_predicate(r)?)),
        t => Err(r.malformed(format!("unknown predicate tag {t}"))),
    }
}

/// Encodes a [`Projection`] as attr ref then optional binding value.
pub fn write_projection(w: &mut ByteWriter, p: &Projection) {
    write_attr_ref(w, p.attr);
    match &p.binding {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            write_value(w, v);
        }
    }
}

/// Decodes a [`Projection`].
///
/// # Errors
/// [`LoadError::Malformed`] on a bad option tag or value.
pub fn read_projection(r: &mut ByteReader<'_>) -> Result<Projection, LoadError> {
    let attr = read_attr_ref(r)?;
    let binding = match r.u8()? {
        0 => None,
        1 => Some(read_value(r)?),
        t => return Err(r.malformed(format!("option tag {t} is neither 0 nor 1"))),
    };
    Ok(Projection { attr, binding })
}

/// Encodes a [`Query`] as five length-prefixed lists (projections, join
/// predicates, selective predicates, relationship ids, class ids) — the
/// same section order the fingerprint hashes.
pub fn write_query(w: &mut ByteWriter, q: &Query) {
    w.u32(q.projections.len() as u32);
    for p in &q.projections {
        write_projection(w, p);
    }
    w.u32(q.join_predicates.len() as u32);
    for p in &q.join_predicates {
        write_join_predicate(w, p);
    }
    w.u32(q.selective_predicates.len() as u32);
    for p in &q.selective_predicates {
        write_sel_predicate(w, p);
    }
    w.u32(q.relationships.len() as u32);
    for r in &q.relationships {
        w.u32(r.0);
    }
    w.u32(q.classes.len() as u32);
    for c in &q.classes {
        w.u32(c.0);
    }
}

/// Decodes a [`Query`].
///
/// # Errors
/// [`LoadError::Malformed`] on any structural problem in the five lists.
pub fn read_query(r: &mut ByteReader<'_>) -> Result<Query, LoadError> {
    let mut projections = Vec::new();
    for _ in 0..r.count()? {
        projections.push(read_projection(r)?);
    }
    let mut join_predicates = Vec::new();
    for _ in 0..r.count()? {
        join_predicates.push(read_join_predicate(r)?);
    }
    let mut selective_predicates = Vec::new();
    for _ in 0..r.count()? {
        selective_predicates.push(read_sel_predicate(r)?);
    }
    let mut relationships = Vec::new();
    for _ in 0..r.count()? {
        relationships.push(RelId(r.u32()?));
    }
    let mut classes = Vec::new();
    for _ in 0..r.count()? {
        classes.push(ClassId(r.u32()?));
    }
    Ok(Query { projections, join_predicates, selective_predicates, relationships, classes })
}

// ---- catalog --------------------------------------------------------------

fn write_relationship_end(w: &mut ByteWriter, end: &RelationshipEnd) {
    w.u32(end.class.0);
    w.u8(match end.multiplicity {
        Multiplicity::One => 0,
        Multiplicity::Many => 1,
    });
    w.u8(end.total as u8);
}

fn read_relationship_end(r: &mut ByteReader<'_>) -> Result<RelationshipEnd, LoadError> {
    let class = ClassId(r.u32()?);
    let multiplicity = match r.u8()? {
        0 => Multiplicity::One,
        1 => Multiplicity::Many,
        t => return Err(r.malformed(format!("unknown multiplicity tag {t}"))),
    };
    let total = match r.u8()? {
        0 => false,
        1 => true,
        t => return Err(r.malformed(format!("total byte {t} is neither 0 nor 1"))),
    };
    Ok(RelationshipEnd { class, multiplicity, total })
}

/// Encodes the full catalog definition lists (classes with attributes and
/// parents, then relationships) into a CATALOG section payload.
pub fn write_catalog(w: &mut ByteWriter, catalog: &sqo_catalog::Catalog) {
    w.u32(catalog.class_count() as u32);
    for (_, cdef) in catalog.classes() {
        w.str(&cdef.name);
        match cdef.parent {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                w.u32(p.0);
            }
        }
        w.u32(cdef.attributes.len() as u32);
        for a in &cdef.attributes {
            w.str(&a.name);
            write_data_type(w, a.ty);
            match a.index {
                None => w.u8(0),
                Some(IndexKind::Hash) => w.u8(1),
                Some(IndexKind::BTree) => w.u8(2),
            }
        }
    }
    w.u32(catalog.relationship_count() as u32);
    for (_, rdef) in catalog.relationships() {
        w.str(&rdef.name);
        write_relationship_end(w, &rdef.left);
        write_relationship_end(w, &rdef.right);
    }
}

/// Decodes the CATALOG section payload back into definition lists, ready
/// for `Catalog::from_parts` (which re-runs the builder's validation).
///
/// # Errors
/// [`LoadError::Malformed`] on any structural problem.
pub fn read_catalog(
    r: &mut ByteReader<'_>,
) -> Result<(Vec<sqo_catalog::ClassDef>, Vec<sqo_catalog::RelationshipDef>), LoadError> {
    let mut classes = Vec::new();
    for _ in 0..r.count()? {
        let name = r.str()?;
        let parent = match r.u8()? {
            0 => None,
            1 => Some(ClassId(r.u32()?)),
            t => return Err(r.malformed(format!("option tag {t} is neither 0 nor 1"))),
        };
        let mut attributes = Vec::new();
        for _ in 0..r.count()? {
            let aname = r.str()?;
            let ty = read_data_type(r)?;
            let index = match r.u8()? {
                0 => None,
                1 => Some(IndexKind::Hash),
                2 => Some(IndexKind::BTree),
                t => return Err(r.malformed(format!("unknown index-kind tag {t}"))),
            };
            attributes.push(sqo_catalog::AttributeDef { name: aname, ty, index });
        }
        classes.push(sqo_catalog::ClassDef { name, attributes, parent });
    }
    let mut relationships = Vec::new();
    for _ in 0..r.count()? {
        let name = r.str()?;
        let left = read_relationship_end(r)?;
        let right = read_relationship_end(r)?;
        relationships.push(sqo_catalog::RelationshipDef { name, left, right });
    }
    Ok((classes, relationships))
}

// ---- statistics -----------------------------------------------------------

fn write_attr_stats(w: &mut ByteWriter, s: &AttrStats) {
    w.u64(s.distinct);
    for v in [&s.min, &s.max] {
        match v {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                write_value_raw(w, v);
            }
        }
    }
    w.u32(s.mcvs.len() as u32);
    for (v, n) in &s.mcvs {
        write_value_raw(w, v);
        w.u64(*n);
    }
}

/// One attribute's statistics, its values read as the attribute's type
/// `ty`.
fn read_attr_stats(
    r: &mut ByteReader<'_>,
    rows: u64,
    ty: DataType,
    pool: &mut StrPool,
) -> Result<AttrStats, LoadError> {
    let distinct = r.u64()?;
    let mut bounds = [None, None];
    for b in bounds.iter_mut() {
        *b = match r.u8()? {
            0 => None,
            1 => Some(read_value_raw(r, ty, pool)?),
            t => return Err(r.malformed(format!("option tag {t} is neither 0 nor 1"))),
        };
    }
    let [min, max] = bounds;
    let mut mcvs = Vec::new();
    for _ in 0..r.count()? {
        let v = read_value_raw(r, ty, pool)?;
        mcvs.push((v, r.u64()?));
    }
    Ok(AttrStats { rows, distinct, min, max, mcvs })
}

/// Encodes the attribute statistics of a [`StatsSnapshot`] into a STATS
/// section payload, class by class in catalog order. Cardinalities, row
/// counts and relationship statistics are not written: a load has them
/// from the extents and the links.
pub fn write_stats(w: &mut ByteWriter, stats: &StatsSnapshot) {
    for c in &stats.classes {
        for a in &c.attrs {
            write_attr_stats(w, a);
        }
    }
}

/// Decodes a STATS section payload into each class's statistics: the
/// attributes of `catalog`'s classes in order, class `c` holding `cards[c]`
/// objects (its cardinality, and every attribute's row count), each value
/// read as its attribute's declared type.
///
/// # Errors
/// [`LoadError::Malformed`] on any structural problem.
pub fn read_stats(
    r: &mut ByteReader<'_>,
    catalog: &Catalog,
    cards: &[usize],
) -> Result<Vec<ClassStats>, LoadError> {
    let mut classes = Vec::with_capacity(cards.len());
    let mut pool = StrPool::new();
    for ((_, cdef), &cardinality) in catalog.classes().zip(cards) {
        let cardinality = cardinality as u64;
        let attrs = cdef
            .attributes
            .iter()
            .map(|a| read_attr_stats(r, cardinality, a.ty, &mut pool))
            .collect::<Result<_, _>>()?;
        classes.push(ClassStats { cardinality, attrs });
    }
    Ok(classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T, W, R>(value: &T, write: W, read: R) -> T
    where
        W: Fn(&mut ByteWriter, &T),
        R: Fn(&mut ByteReader<'_>) -> Result<T, LoadError>,
    {
        let mut w = ByteWriter::new();
        write(&mut w, value);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf, "TEST");
        let out = read(&mut r).unwrap();
        r.expect_exhausted().unwrap();
        out
    }

    #[test]
    fn value_roundtrips() {
        for v in [
            Value::Int(-7),
            Value::Float(Finite::new(1.25).unwrap()),
            Value::str("abc"),
            Value::Bool(true),
        ] {
            assert_eq!(roundtrip(&v, write_value, read_value), v);
        }
    }

    #[test]
    fn nan_float_is_rejected() {
        // A NaN bit pattern after the Float tag.
        let mut w = ByteWriter::new();
        w.u8(1);
        w.u64(f64::NAN.to_bits());
        let buf = w.finish();
        let mut r = ByteReader::new(&buf, "TEST");
        assert!(read_value(&mut r).is_err());
    }

    #[test]
    fn predicate_roundtrips() {
        let a = AttrRef::new(ClassId(1), AttrId(2));
        let b = AttrRef::new(ClassId(0), AttrId(0));
        let sel = Predicate::Sel(SelPredicate::new(a, CompOp::Ge, Value::Int(10)));
        let join = Predicate::Join(JoinPredicate::new(a, CompOp::Lt, b));
        assert_eq!(roundtrip(&sel, write_predicate, read_predicate), sel);
        assert_eq!(roundtrip(&join, write_predicate, read_predicate), join);
    }

    #[test]
    fn query_roundtrips() {
        let a = AttrRef::new(ClassId(0), AttrId(1));
        let b = AttrRef::new(ClassId(1), AttrId(0));
        let q = Query {
            projections: vec![
                Projection { attr: a, binding: None },
                Projection { attr: b, binding: Some(Value::str("x")) },
            ],
            join_predicates: vec![JoinPredicate::new(a, CompOp::Eq, b)],
            selective_predicates: vec![SelPredicate::new(a, CompOp::Ne, Value::Bool(false))],
            relationships: vec![RelId(0), RelId(3)],
            classes: vec![ClassId(0), ClassId(1)],
        };
        assert_eq!(roundtrip(&q, write_query, read_query), q);
    }

    #[test]
    fn catalog_roundtrips_through_defs() {
        let catalog = sqo_catalog::example::figure21().unwrap();
        let mut w = ByteWriter::new();
        write_catalog(&mut w, &catalog);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf, "TEST");
        let (classes, relationships) = read_catalog(&mut r).unwrap();
        r.expect_exhausted().unwrap();
        assert_eq!(classes.len(), catalog.class_count());
        assert_eq!(relationships.len(), catalog.relationship_count());
        for ((_, orig), decoded) in catalog.classes().zip(&classes) {
            assert_eq!(orig, decoded);
        }
        for ((_, orig), decoded) in catalog.relationships().zip(&relationships) {
            assert_eq!(orig, decoded);
        }
    }

    #[test]
    fn stats_roundtrip() {
        let catalog = sqo_catalog::example::figure21().unwrap();
        let cards: Vec<usize> = (0..catalog.class_count()).collect();
        // Values are untagged: each is of its attribute's declared type.
        let bounds = |ty| match ty {
            DataType::Int => (Value::Int(1), Value::Int(9)),
            DataType::Float => {
                (Value::Float(Finite::new(0.5).unwrap()), Value::Float(Finite::new(2.5).unwrap()))
            }
            DataType::Str => (Value::str("a"), Value::str("z")),
            DataType::Bool => (Value::Bool(false), Value::Bool(true)),
        };
        let attr = |rows, ty| {
            let (lo, hi) = bounds(ty);
            AttrStats {
                rows,
                distinct: 2,
                min: Some(lo.clone()),
                max: Some(hi),
                mcvs: vec![(lo, 2)],
            }
        };
        let classes: Vec<ClassStats> = catalog
            .classes()
            .zip(&cards)
            .map(|((_, cdef), &n)| ClassStats {
                cardinality: n as u64,
                attrs: cdef.attributes.iter().map(|a| attr(n as u64, a.ty)).collect(),
            })
            .collect();
        let mut w = ByteWriter::new();
        write_stats(&mut w, &StatsSnapshot { classes: classes.clone(), relationships: Vec::new() });
        let buf = w.finish();
        let mut r = ByteReader::new(&buf, "TEST");
        assert_eq!(read_stats(&mut r, &catalog, &cards).unwrap(), classes);
        r.expect_exhausted().unwrap();
    }
}
