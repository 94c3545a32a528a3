//! Reusable optimizer working memory.
//!
//! One [`SemanticOptimizer::optimize`](crate::SemanticOptimizer::optimize)
//! call allocates the transformation table's columns, rows and postings,
//! its store-id remap array, and the transformation queue — cheap once,
//! expensive at serving rates where every cache miss and every epoch bump
//! re-runs the whole pipeline. An [`OptimizerScratch`] owns all of that
//! storage and is threaded through
//! [`SemanticOptimizer::optimize_with`](crate::SemanticOptimizer::optimize_with):
//! after the first few queries warm its buffers up to the workload's table
//! shape, repeated optimization performs near-zero transient allocation.
//!
//! A scratch is plain mutable state — keep one per worker thread (the
//! serving layer uses a thread-local), never share one across threads.

use sqo_constraints::{ConstraintId, RetrievalScratch};

use crate::formulate::FormulationScratch;
use crate::table::TableBuffers;
use crate::transform::TransformScratch;

/// All reusable buffers of one optimization pipeline: indexed constraint
/// retrieval, transformation-table construction, the transformation
/// fixpoint loop, and formulation's predicate-id lists.
#[derive(Debug, Default)]
pub struct OptimizerScratch {
    pub(crate) retrieval: RetrievalScratch,
    pub(crate) relevant: Vec<ConstraintId>,
    pub(crate) table: TableBuffers,
    pub(crate) transform: TransformScratch,
    pub(crate) formulation: FormulationScratch,
}

impl OptimizerScratch {
    pub fn new() -> Self {
        Self::default()
    }
}
