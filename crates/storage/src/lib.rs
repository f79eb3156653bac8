//! # `ccpi-storage` — in-memory relational storage
//!
//! The substrate the paper's tests run against: typed relations with set
//! semantics stored in persistent B+-trees (O(1) clones, O(log n) writes
//! under live snapshots), per-column indexes, a catalog with **locality** metadata
//! (the paper's local/remote split of §5: "the database may be divided into
//! 'local' and 'remote' data with respect to the site of the update"), and
//! first-class [`Update`]s (insertions and deletions of single tuples, the
//! update granularity of §4–§5).
//!
//! Relations iterate in sorted tuple order, so every evaluation result and
//! experiment table in the workspace is deterministic.

mod database;
mod delta;
pub mod partition;
mod ptree;
mod relation;
mod tuple;
mod update;
pub mod wal;
pub mod wirefmt;

pub use database::{Database, DatabaseSnapshot, Locality, RelationDecl, StorageError};
pub use delta::DeltaSet;
pub use partition::{KeySpan, MigrationPlan, PartitionScheme, Partitioning, SpanMove};
pub use relation::{Candidates, Relation};
pub use tuple::Tuple;
pub use update::{Update, UpdateTemplate};

/// Builds a [`Tuple`] from a list of values convertible to
/// [`ccpi_ir::Value`] (integers and `&str` work directly).
///
/// ```
/// use ccpi_storage::{tuple, Tuple};
/// let t: Tuple = tuple!["jones", "shoe", 50];
/// assert_eq!(t.arity(), 3);
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::from(vec![$(::ccpi_ir::Value::from($v)),*])
    };
}
