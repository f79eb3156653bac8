//! Databases: a catalog of declared relations with locality metadata.

use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::update::Update;
use ccpi_ir::Sym;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Where a relation's data lives, relative to the site processing updates
/// (§5: "some 'local' predicates and some 'remote' predicates").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Locality {
    /// Stored at the updating site; free to read during a local test.
    #[default]
    Local,
    /// Stored elsewhere; reading it is what complete local tests avoid.
    Remote,
}

/// A catalog entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationDecl {
    /// Relation name (= predicate name in constraints).
    pub name: Sym,
    /// Arity.
    pub arity: usize,
    /// Local or remote.
    pub locality: Locality,
}

/// Errors raised by database operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// The predicate is not declared.
    UnknownRelation(Sym),
    /// The tuple's arity does not match the declaration.
    ArityMismatch {
        /// Relation name.
        name: Sym,
        /// Declared arity.
        declared: usize,
        /// Arity of the offending tuple.
        got: usize,
    },
    /// A relation was declared twice with different shapes.
    ConflictingDeclaration(Sym),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            StorageError::ArityMismatch {
                name,
                declared,
                got,
            } => write!(
                f,
                "relation `{name}` declared with arity {declared}, got tuple of arity {got}"
            ),
            StorageError::ConflictingDeclaration(n) => {
                write!(f, "conflicting re-declaration of relation `{n}`")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// An in-memory database: declared relations and their instances.
#[derive(Clone, Default)]
pub struct Database {
    decls: BTreeMap<Sym, RelationDecl>,
    relations: BTreeMap<Sym, Relation>,
    /// Monotone mutation counter; see [`Database::version`].
    version: u64,
}

impl Database {
    /// An empty database with no declarations.
    pub fn new() -> Self {
        Database::default()
    }

    /// A monotone counter bumped on every committed mutation: an insert
    /// or delete that changed the stored set, a relation replacement, a
    /// new declaration — and, conservatively, every grant of write access
    /// through [`Database::relation_mut`] (the caller may mutate through
    /// it, and the counter must never under-report). Two reads of the
    /// same version therefore saw identical contents; the converse does
    /// not hold. Clones inherit the version and then advance
    /// independently.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Declares a relation. Re-declaring with identical shape is a no-op;
    /// with a different shape it is an error.
    pub fn declare(
        &mut self,
        name: impl AsRef<str>,
        arity: usize,
        locality: Locality,
    ) -> Result<(), StorageError> {
        let name = Sym::new(name);
        let decl = RelationDecl {
            name: name.clone(),
            arity,
            locality,
        };
        match self.decls.get(&name) {
            Some(existing) if *existing != decl => Err(StorageError::ConflictingDeclaration(name)),
            Some(_) => Ok(()),
            None => {
                self.relations.insert(name.clone(), Relation::new(arity));
                self.decls.insert(name, decl);
                self.version += 1;
                Ok(())
            }
        }
    }

    /// The declaration for `name`.
    pub fn decl(&self, name: &str) -> Option<&RelationDecl> {
        self.decls.get(name)
    }

    /// All declarations, sorted by name.
    pub fn decls(&self) -> impl Iterator<Item = &RelationDecl> {
        self.decls.values()
    }

    /// The locality of a declared relation.
    pub fn locality(&self, name: &str) -> Option<Locality> {
        self.decls.get(name).map(|d| d.locality)
    }

    /// Read access to a relation instance.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Write access to a relation instance. Counts as a mutation for
    /// [`Database::version`] even if the caller ends up not writing.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        let rel = self.relations.get_mut(name);
        if rel.is_some() {
            self.version += 1;
        }
        rel
    }

    /// Replaces the instance of a declared relation wholesale.
    ///
    /// Because [`Relation`] clones are O(1) and share their tree nodes,
    /// this is the cheap way to install data from another database (a
    /// site split, a wire fetch) without re-inserting tuple by tuple. The
    /// installed relation keeps its [`Relation::stamp`].
    pub fn set_relation(&mut self, name: &str, rel: Relation) -> Result<(), StorageError> {
        let decl = self
            .decls
            .get(name)
            .ok_or_else(|| StorageError::UnknownRelation(Sym::new(name)))?;
        if decl.arity != rel.arity() && !rel.is_empty() {
            return Err(StorageError::ArityMismatch {
                name: decl.name.clone(),
                declared: decl.arity,
                got: rel.arity(),
            });
        }
        self.relations.insert(decl.name.clone(), rel);
        self.version += 1;
        Ok(())
    }

    /// Inserts a tuple, validating the declaration. Returns `true` if new.
    pub fn insert(&mut self, name: &str, tuple: Tuple) -> Result<bool, StorageError> {
        self.validate(name, &tuple)?;
        let changed = self.relations.get_mut(name).unwrap().insert(tuple);
        if changed {
            self.version += 1;
        }
        Ok(changed)
    }

    /// Deletes a tuple. Returns `true` if it was present.
    pub fn delete(&mut self, name: &str, tuple: &Tuple) -> Result<bool, StorageError> {
        self.validate(name, tuple)?;
        let changed = self.relations.get_mut(name).unwrap().remove(tuple);
        if changed {
            self.version += 1;
        }
        Ok(changed)
    }

    /// Applies an update. Returns `true` if the database changed.
    pub fn apply(&mut self, update: &Update) -> Result<bool, StorageError> {
        match update {
            Update::Insert { pred, tuple } => self.insert(pred.as_str(), tuple.clone()),
            Update::Delete { pred, tuple } => self.delete(pred.as_str(), tuple),
        }
    }

    /// Applies `update.inverse()` — undo.
    pub fn undo(&mut self, update: &Update) -> Result<bool, StorageError> {
        self.apply(&update.inverse())
    }

    /// Total number of stored tuples.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Takes an immutable, versioned snapshot of the whole database.
    ///
    /// The snapshot is the MVCC read path: it pins the current contents
    /// behind an [`Arc`], so clones of the snapshot are O(1), shareable
    /// across threads, and never observe later mutations of the source
    /// database. Capturing one is cheap — every [`Relation`] clone shares
    /// its tree nodes, so only the catalog is copied, never the tuples, and
    /// a later write to the source copies O(log n) nodes, not the relation.
    ///
    /// ```
    /// use ccpi_storage::{tuple, Database, Locality};
    /// let mut db = Database::new();
    /// db.declare("dept", 1, Locality::Local).unwrap();
    /// db.insert("dept", tuple!["toys"]).unwrap();
    /// let snap = db.snapshot();
    /// db.delete("dept", &tuple!["toys"]).unwrap();
    /// assert!(snap.relation("dept").unwrap().contains(&tuple!["toys"]));
    /// assert!(snap.version() < db.version());
    /// ```
    pub fn snapshot(&self) -> DatabaseSnapshot {
        DatabaseSnapshot {
            version: self.version,
            inner: Arc::new(self.clone()),
        }
    }

    /// Overwrites the version counter — checkpoint decode only, so a
    /// recovered database resumes the counter it was persisted with
    /// instead of the replay-order artifact of rebuilding it.
    pub(crate) fn force_version(&mut self, v: u64) {
        self.version = v;
    }

    fn validate(&self, name: &str, tuple: &Tuple) -> Result<(), StorageError> {
        let decl = self
            .decls
            .get(name)
            .ok_or_else(|| StorageError::UnknownRelation(Sym::new(name)))?;
        if decl.arity != tuple.arity() {
            return Err(StorageError::ArityMismatch {
                name: decl.name.clone(),
                declared: decl.arity,
                got: tuple.arity(),
            });
        }
        Ok(())
    }
}

/// An immutable, versioned view of a [`Database`] at a single point in
/// time — the unit of the MVCC read path.
///
/// Produced by [`Database::snapshot`]. The view is pinned behind an
/// [`Arc`]: cloning a snapshot is O(1), and a reader holding one can
/// run queries (or stage 1–3 constraint judgments) concurrently with a
/// writer mutating the source database, without locks and without ever
/// seeing a torn state. [`DatabaseSnapshot::version`] reports the
/// [`Database::version`] counter at capture time, so two snapshots with
/// equal versions taken from the same lineage saw identical contents.
#[derive(Clone, Debug)]
pub struct DatabaseSnapshot {
    version: u64,
    inner: Arc<Database>,
}

impl DatabaseSnapshot {
    /// The [`Database::version`] the snapshot was captured at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The pinned database view. [`DatabaseSnapshot`] also derefs to
    /// [`Database`], so read accessors can be called directly.
    pub fn database(&self) -> &Database {
        &self.inner
    }

    /// Does `db` still carry the version this snapshot pinned? A `true`
    /// answer means no committed mutation (and no conservative
    /// write-access grant) has happened since the capture.
    pub fn is_current(&self, db: &Database) -> bool {
        self.version == db.version
    }
}

impl std::ops::Deref for DatabaseSnapshot {
    type Target = Database;
    fn deref(&self) -> &Database {
        &self.inner
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in &self.relations {
            writeln!(f, "{name}/{}: {rel:?}", rel.arity())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn emp_db() -> Database {
        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("dept", 1, Locality::Remote).unwrap();
        db
    }

    #[test]
    fn declare_and_insert() {
        let mut db = emp_db();
        assert!(db.insert("emp", tuple!["jones", "shoe", 50]).unwrap());
        assert!(!db.insert("emp", tuple!["jones", "shoe", 50]).unwrap());
        assert_eq!(db.relation("emp").unwrap().len(), 1);
        assert_eq!(db.total_tuples(), 1);
    }

    #[test]
    fn locality_metadata() {
        let db = emp_db();
        assert_eq!(db.locality("emp"), Some(Locality::Local));
        assert_eq!(db.locality("dept"), Some(Locality::Remote));
        assert_eq!(db.locality("nope"), None);
    }

    #[test]
    fn unknown_relation_rejected() {
        let mut db = emp_db();
        assert!(matches!(
            db.insert("boss", tuple!["a", "b"]),
            Err(StorageError::UnknownRelation(_))
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut db = emp_db();
        assert!(matches!(
            db.insert("dept", tuple!["toy", "extra"]),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn redeclaration_rules() {
        let mut db = emp_db();
        // Identical re-declaration OK and preserves data.
        db.insert("dept", tuple!["toy"]).unwrap();
        db.declare("dept", 1, Locality::Remote).unwrap();
        assert_eq!(db.relation("dept").unwrap().len(), 1);
        // Conflicting re-declaration rejected.
        assert!(matches!(
            db.declare("dept", 2, Locality::Remote),
            Err(StorageError::ConflictingDeclaration(_))
        ));
        assert!(matches!(
            db.declare("dept", 1, Locality::Local),
            Err(StorageError::ConflictingDeclaration(_))
        ));
    }

    #[test]
    fn apply_and_undo() {
        let mut db = emp_db();
        let u = Update::insert("dept", tuple!["toy"]);
        assert!(db.apply(&u).unwrap());
        assert!(db.relation("dept").unwrap().contains(&tuple!["toy"]));
        assert!(db.undo(&u).unwrap());
        assert!(db.relation("dept").unwrap().is_empty());
    }

    #[test]
    fn delete_missing_is_false() {
        let mut db = emp_db();
        assert!(!db.delete("dept", &tuple!["toy"]).unwrap());
    }

    #[test]
    fn version_counts_committed_mutations_only() {
        let mut db = Database::new();
        assert_eq!(db.version(), 0);
        db.declare("dept", 1, Locality::Remote).unwrap();
        let v_decl = db.version();
        assert!(v_decl > 0);
        // Identical re-declaration commits nothing.
        db.declare("dept", 1, Locality::Remote).unwrap();
        assert_eq!(db.version(), v_decl);
        assert!(db.insert("dept", tuple!["toy"]).unwrap());
        let v_ins = db.version();
        assert!(v_ins > v_decl);
        // Duplicate insert and missing delete commit nothing.
        assert!(!db.insert("dept", tuple!["toy"]).unwrap());
        assert!(!db.delete("dept", &tuple!["shoe"]).unwrap());
        assert_eq!(db.version(), v_ins);
        assert!(db.delete("dept", &tuple!["toy"]).unwrap());
        assert!(db.version() > v_ins);
        // Failed operations commit nothing.
        let v = db.version();
        assert!(db.insert("nope", tuple![1]).is_err());
        assert_eq!(db.version(), v);
        // Write access is conservatively a mutation; a clone advances
        // independently of its origin.
        let mut snap = db.clone();
        assert_eq!(snap.version(), db.version());
        let _ = db.relation_mut("dept").unwrap();
        assert!(db.version() > snap.version());
        snap.insert("dept", tuple!["pen"]).unwrap();
        assert!(snap.version() > v);
    }

    #[test]
    fn snapshot_pins_contents_and_version() {
        let mut db = emp_db();
        db.insert("dept", tuple!["toy"]).unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.version(), db.version());
        assert!(snap.is_current(&db));
        // Mutations after the capture are invisible through the pin.
        db.insert("dept", tuple!["pen"]).unwrap();
        db.delete("dept", &tuple!["toy"]).unwrap();
        assert!(!snap.is_current(&db));
        assert!(snap.relation("dept").unwrap().contains(&tuple!["toy"]));
        assert!(!snap.relation("dept").unwrap().contains(&tuple!["pen"]));
        // Snapshot clones are cheap Arc bumps that share the same pin.
        let other = snap.clone();
        assert_eq!(other.version(), snap.version());
        assert!(other
            .database()
            .relation("dept")
            .unwrap()
            .shares_storage_with(snap.database().relation("dept").unwrap()));
    }

    #[test]
    fn snapshot_readable_from_other_threads() {
        let mut db = emp_db();
        db.insert("dept", tuple!["toy"]).unwrap();
        let snap = db.snapshot();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = snap.clone();
                std::thread::spawn(move || {
                    assert!(s.relation("dept").unwrap().contains(&tuple!["toy"]));
                    s.version()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), snap.version());
        }
    }

    #[test]
    fn set_relation_installs_the_source_stamp() {
        let mut db = emp_db();
        db.insert("dept", tuple!["toy"]).unwrap();
        let src = db.relation("dept").unwrap().clone();
        let mut other = emp_db();
        let empty = other.relation("dept").unwrap().stamp();
        other.set_relation("dept", src.clone()).unwrap();
        // The installed relation names the source's contents…
        let installed = other.relation("dept").unwrap();
        assert_eq!(installed.stamp(), src.stamp());
        assert!(installed.shares_storage_with(&src));
        // …and never the replaced ones.
        assert_ne!(installed.stamp(), empty);
        // Writing either side afterwards parts their stamps.
        db.insert("dept", tuple!["pen"]).unwrap();
        assert_ne!(db.relation("dept").unwrap().stamp(), src.stamp());
        assert_eq!(other.relation("dept").unwrap().stamp(), src.stamp());
    }

    #[test]
    fn clone_is_a_snapshot() {
        let mut db = emp_db();
        db.insert("dept", tuple!["toy"]).unwrap();
        let snap = db.clone();
        db.delete("dept", &tuple!["toy"]).unwrap();
        assert!(snap.relation("dept").unwrap().contains(&tuple!["toy"]));
        assert!(db.relation("dept").unwrap().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::tuple;
    use proptest::prelude::*;

    fn update_strategy() -> impl Strategy<Value = Update> {
        let t = (0i64..4, 0i64..4).prop_map(|(a, b)| tuple![a, b]);
        (t, any::<bool>()).prop_map(|(t, ins)| {
            if ins {
                Update::insert("p", t)
            } else {
                Update::delete("p", t)
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Applying a batch of updates and then undoing them in reverse
        /// restores the exact database state.
        #[test]
        fn apply_then_undo_in_reverse_is_identity(
            initial in prop::collection::btree_set((0i64..4, 0i64..4), 0..8),
            updates in prop::collection::vec(update_strategy(), 0..12),
        ) {
            let mut db = Database::new();
            db.declare("p", 2, Locality::Local).unwrap();
            for (a, b) in &initial {
                db.insert("p", tuple![*a, *b]).unwrap();
            }
            let snapshot = db.clone();
            // Record which updates actually changed the state; undo only
            // those (an insert of a present tuple must not be "undone" by
            // deleting it).
            let mut effective: Vec<&Update> = Vec::new();
            for u in &updates {
                if db.apply(u).unwrap() {
                    effective.push(u);
                }
            }
            for u in effective.into_iter().rev() {
                assert!(db.undo(u).unwrap());
            }
            prop_assert_eq!(
                db.relation("p").unwrap(),
                snapshot.relation("p").unwrap()
            );
        }

        /// Indexed lookups always agree with scans, across arbitrary
        /// mutation sequences.
        #[test]
        fn index_agrees_with_scan(
            updates in prop::collection::vec(update_strategy(), 0..20),
            probe in 0i64..4,
        ) {
            let mut db = Database::new();
            db.declare("p", 2, Locality::Local).unwrap();
            for u in &updates {
                let _ = db.apply(u).unwrap();
            }
            let rel = db.relation("p").unwrap();
            let val = ccpi_ir::Value::int(probe);
            let mut indexed: Vec<Tuple> = rel.probe(0, &val).iter().cloned().collect();
            indexed.sort();
            let mut scanned: Vec<Tuple> =
                rel.iter().filter(|t| t[0] == val).cloned().collect();
            scanned.sort();
            prop_assert_eq!(indexed, scanned);
        }
    }
}
