//! The transformation queue `Q` (§3.2, §4).
//!
//! §4 makes `Q` a priority queue so that, under a transformation budget, the
//! likely-profitable transformations run first: *index introduction* >
//! *restriction elimination* > *restriction introduction*, first come first
//! served within a kind. The base algorithm's FIFO order — under which the
//! paper proves order immaterial — is the same queue with every kind given
//! one constant rank.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::QueueDiscipline;

/// What popping a row is expected to do — determines priority (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActionKind {
    /// Introduce a predicate on a non-indexed attribute.
    RestrictionIntroduction = 1,
    /// Lower the tag of a predicate already present.
    RestrictionElimination = 2,
    /// Introduce a predicate on an indexed attribute.
    IndexIntroduction = 3,
}

/// Queue of pending transformations, identified by table row index.
#[derive(Debug, Default)]
pub struct TransformationQueue {
    discipline: QueueDiscipline,
    /// Max-heap of `(rank, Reverse(seq), row)`: highest rank first, earliest
    /// push first within a rank. `seq` is unique, so `row` never decides.
    heap: BinaryHeap<(u8, Reverse<usize>, usize)>,
    queued: Vec<bool>,
    seq: usize,
}

impl TransformationQueue {
    pub fn new(discipline: QueueDiscipline, rows: usize) -> Self {
        let mut q = Self::default();
        q.reset(discipline, rows);
        q
    }

    /// Re-initializes the queue for a new run of `rows` rows, keeping the
    /// backing allocations (the optimizer-scratch pattern).
    pub fn reset(&mut self, discipline: QueueDiscipline, rows: usize) {
        self.discipline = discipline;
        self.heap.clear();
        self.queued.clear();
        self.queued.resize(rows, false);
        self.seq = 0;
    }

    /// Enqueues a row (idempotent while the row is queued).
    pub fn push(&mut self, row: usize, kind: ActionKind) {
        if self.queued[row] {
            return;
        }
        self.queued[row] = true;
        self.seq += 1;
        let rank = match self.discipline {
            QueueDiscipline::Fifo => 0,
            QueueDiscipline::Priority => kind as u8,
        };
        self.heap.push((rank, Reverse(self.seq), row));
    }

    pub fn pop(&mut self) -> Option<usize> {
        let (_, _, row) = self.heap.pop()?;
        self.queued[row] = false;
        Some(row)
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_preserves_insertion_order() {
        let mut q = TransformationQueue::new(QueueDiscipline::Fifo, 5);
        q.push(3, ActionKind::RestrictionIntroduction);
        q.push(1, ActionKind::IndexIntroduction);
        q.push(4, ActionKind::RestrictionElimination);
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn priority_orders_by_kind_then_fifo() {
        let mut q = TransformationQueue::new(QueueDiscipline::Priority, 6);
        q.push(0, ActionKind::RestrictionIntroduction);
        q.push(1, ActionKind::RestrictionElimination);
        q.push(2, ActionKind::IndexIntroduction);
        q.push(3, ActionKind::RestrictionElimination);
        assert_eq!(q.pop(), Some(2), "index introduction first");
        assert_eq!(q.pop(), Some(1), "then eliminations, FIFO among equals");
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(0), "plain introduction last");
    }

    #[test]
    fn duplicate_pushes_ignored_while_queued() {
        let mut q = TransformationQueue::new(QueueDiscipline::Fifo, 3);
        q.push(1, ActionKind::RestrictionElimination);
        q.push(1, ActionKind::RestrictionElimination);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(1));
        // After popping, the row may be requeued.
        q.push(1, ActionKind::RestrictionElimination);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_checks() {
        let mut q = TransformationQueue::new(QueueDiscipline::Priority, 2);
        assert!(q.is_empty());
        q.push(0, ActionKind::IndexIntroduction);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }
}
