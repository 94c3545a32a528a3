//! Simple-path enumeration over a schema graph (§4).
//!
//! > "All possible paths in this schema were identified, where a path
//! > consists of a series of interconnecting object classes and
//! > relationships, and no object class or relationship appears more than
//! > once. A query was formulated for each such path."

use sqo_catalog::{Catalog, ClassId, RelId};

/// A simple path: alternating classes and relationships.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaPath {
    pub classes: Vec<ClassId>,
    pub relationships: Vec<RelId>,
}

impl SchemaPath {
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Enumerates every simple path of `catalog`'s schema graph with at least
/// `min_classes` classes (1 yields the single-class "paths" too). A path and
/// its reverse are both reported: the paper enumerates paths from every
/// starting class, so `a-b-c` and `c-b-a` are distinct members of its query
/// population.
pub fn enumerate_directed_paths(catalog: &Catalog, min_classes: usize) -> Vec<SchemaPath> {
    let mut out: Vec<SchemaPath> = Vec::new();

    // Adjacency: class -> (rel, neighbour).
    let adjacency: Vec<Vec<(RelId, ClassId)>> = catalog
        .classes()
        .map(|(cid, _)| {
            let mut edges = Vec::new();
            for (rid, def) in catalog.relationships() {
                if def.left.class == cid {
                    edges.push((rid, def.right.class));
                }
                if def.right.class == cid && def.left.class != cid {
                    edges.push((rid, def.left.class));
                }
            }
            edges
        })
        .collect();

    // The search is a tree: each directed path is reached exactly once.
    let mut record = |path: &SchemaPath| {
        if path.len() >= min_classes {
            out.push(path.clone());
        }
    };

    fn dfs(
        adjacency: &[Vec<(RelId, ClassId)>],
        path: &mut SchemaPath,
        record: &mut impl FnMut(&SchemaPath),
    ) {
        record(path);
        let last = *path.classes.last().expect("non-empty path");
        for &(rel, next) in &adjacency[last.index()] {
            if path.classes.contains(&next) || path.relationships.contains(&rel) {
                continue;
            }
            path.classes.push(next);
            path.relationships.push(rel);
            dfs(adjacency, path, record);
            path.classes.pop();
            path.relationships.pop();
        }
    }

    for (cid, _) in catalog.classes() {
        let mut path = SchemaPath { classes: vec![cid], relationships: vec![] };
        dfs(&adjacency, &mut path, &mut record);
    }
    // Stable order: by length, then class sequence.
    out.sort_by_key(|p| (p.len(), p.classes.iter().map(|c| c.0).collect::<Vec<_>>()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_schema::bench_catalog;
    use sqo_catalog::example::figure21;

    #[test]
    fn chain_paths_on_figure21() {
        let cat = figure21().unwrap();
        let paths = enumerate_directed_paths(&cat, 2);
        // supplier-cargo-vehicle appears once in each direction.
        let supplier = cat.class_id("supplier").unwrap();
        let vehicle = cat.class_id("vehicle").unwrap();
        let ends = |p: &SchemaPath| (p.classes.first().copied(), p.classes.last().copied());
        let chains: Vec<_> = paths.iter().filter(|p| p.len() == 3).map(ends).collect();
        let count = |from, to| chains.iter().filter(|&&e| e == (Some(from), Some(to))).count();
        assert_eq!((count(supplier, vehicle), count(vehicle, supplier)), (1, 1), "{chains:?}");
    }

    #[test]
    fn single_class_paths_included_at_min_one() {
        let cat = figure21().unwrap();
        let paths = enumerate_directed_paths(&cat, 1);
        let singles = paths.iter().filter(|p| p.len() == 1).count();
        assert_eq!(singles, cat.class_count());
    }

    #[test]
    fn no_repeated_classes_or_rels() {
        let cat = bench_catalog().unwrap();
        for p in enumerate_directed_paths(&cat, 2) {
            let mut cs = p.classes.clone();
            cs.sort_unstable();
            cs.dedup();
            assert_eq!(cs.len(), p.classes.len(), "repeated class in {p:?}");
            let mut rs = p.relationships.clone();
            rs.sort_unstable();
            rs.dedup();
            assert_eq!(rs.len(), p.relationships.len(), "repeated rel in {p:?}");
            assert_eq!(p.relationships.len(), p.classes.len() - 1);
        }
    }

    #[test]
    fn bench_schema_has_a_rich_path_population() {
        let cat = bench_catalog().unwrap();
        // The paper enumerates from every starting class: directions count,
        // so each path's reverse is listed too, and each path once.
        let directed = enumerate_directed_paths(&cat, 2);
        assert!(directed.len() >= 40, "only {} directed paths", directed.len());
        for (i, p) in directed.iter().enumerate() {
            let mut rev = p.clone();
            rev.classes.reverse();
            rev.relationships.reverse();
            assert_eq!(directed.iter().filter(|q| **q == rev).count(), 1, "{p:?}");
            assert!(!directed[i + 1..].contains(p), "{p:?} listed twice");
        }
        // And full-length 5-class paths exist.
        assert!(directed.iter().any(|p| p.len() == 5));
    }
}
