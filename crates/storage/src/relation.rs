//! Relations: sets of same-arity tuples with lazily built per-column
//! indexes, all stored in persistent B+-trees, and a version stamp that
//! names the contents.
//!
//! The tuple set and every column index are [`PTree`]s, so cloning a
//! relation (and therefore a whole [`Database`](crate::Database), a
//! published snapshot, or a `SiteSplit` local view in `ccpi`) is O(1),
//! and a write while any clone is alive copies only the O(log n) nodes on
//! its path in each tree — never the relation. Indexes survive both: a
//! clone answers point lookups from the indexes already built, and a
//! write maintains them (path-copied like the tuple set) instead of
//! dropping them.
//!
//! A cache derived from a relation's contents keys on
//! [`Relation::stamp`]: stamps are never reused, so an equal stamp
//! certifies the same contents without keeping the old version alive.

use crate::ptree::PTree;
use crate::tuple::Tuple;
use ccpi_ir::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One column's index: `(column value, tuple)` pairs in order, so the
/// tuples holding one value form a contiguous run that a lookup scans.
type ColumnIndex = PTree<(Value, Tuple)>;

/// The index cache: column → its (lazily built) index.
///
/// Lives behind `Arc<RwLock<…>>` on each relation. Clones share the cache
/// until one of them writes; the writer then takes a private copy of the
/// map (one reference count per index — the trees stay shared) and
/// updates its indexes by path copying, so sharers always agree with
/// their tuple sets. The `RwLock` makes lazy builds possible through
/// `&self`, which is what lets the join evaluator and parallel constraint
/// checks probe indexes on shared snapshots.
type IndexCache = Arc<RwLock<HashMap<usize, ColumnIndex>>>;

/// The process-wide source of [`Relation::stamp`]s.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// A stamp no relation has carried before. `Relaxed` suffices: the
/// read-modify-write alone makes every value unique, and a stamp
/// publishes no other data.
fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A relation instance: a set of tuples of a fixed arity.
///
/// Tuples are stored in a persistent B+-tree, so iteration is in sorted
/// order (deterministic results everywhere). Point lookups by column
/// value go through lazily built column indexes that every later write
/// maintains. See the module docs for the sharing guarantees.
#[derive(Clone)]
pub struct Relation {
    arity: usize,
    tuples: PTree<Tuple>,
    indexes: IndexCache,
    stamp: u64,
}

/// The tuples matching a point lookup, returned by [`Relation::probe`].
/// Holds the column index alive (one reference count, not a copy);
/// `iter` borrows the tuples without cloning them.
#[derive(Clone)]
pub struct Candidates {
    index: ColumnIndex,
    value: Value,
}

impl Candidates {
    /// Iterates over the matching tuples by reference, in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.index
            .seek(|(v, _)| *v < self.value)
            .map_while(|(v, t)| (*v == self.value).then_some(t))
    }

    /// Number of matching tuples.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// `true` when nothing matched.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

impl std::fmt::Debug for Candidates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

fn assert_arity(arity: usize, t: &Tuple) {
    assert_eq!(
        t.arity(),
        arity,
        "tuple arity {} does not match relation arity {arity}",
        t.arity()
    );
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            tuples: PTree::default(),
            indexes: IndexCache::default(),
            stamp: fresh_stamp(),
        }
    }

    /// Creates a relation from tuples (all must have the given arity).
    /// Builds the tree bottom-up after one sort; input that is already
    /// sorted (a checkpoint, a scan of another relation) costs a linear
    /// pass.
    ///
    /// # Panics
    /// If a tuple's arity differs from `arity`.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut rows: Vec<Tuple> = tuples.into_iter().collect();
        rows.iter().for_each(|t| assert_arity(arity, t));
        rows.sort_unstable();
        rows.dedup();
        Relation {
            tuples: PTree::from_sorted(rows),
            ..Relation::new(arity)
        }
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// A version stamp naming this relation's contents. Every mutation
    /// that changes the tuples draws a fresh one from a process-wide
    /// counter, clones inherit it, and no stamp is ever reused — so two
    /// relations with equal stamps hold equal contents. (Not conversely:
    /// relations built separately carry different stamps.) Caches derived
    /// from the contents key on it instead of pinning the data.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// The column indexes, writable: the cache itself when no clone
    /// shares it, else a private copy of the map whose trees are still
    /// shared (the caller's updates path-copy them).
    fn writable_indexes(&mut self) -> &mut HashMap<usize, ColumnIndex> {
        if Arc::get_mut(&mut self.indexes).is_none() {
            let copy = self.indexes.read().expect("index lock poisoned").clone();
            self.indexes = Arc::new(RwLock::new(copy));
        }
        Arc::get_mut(&mut self.indexes)
            .expect("no clone shares a detached cache")
            .get_mut()
            .expect("index lock poisoned")
    }

    /// Inserts a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// If the tuple's arity differs from the relation's.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_arity(self.arity, &t);
        if !self.tuples.insert(t.clone()) {
            return false;
        }
        self.stamp = fresh_stamp();
        for (col, index) in self.writable_indexes() {
            index.insert((t[*col].clone(), t.clone()));
        }
        true
    }

    /// Removes a tuple; returns `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if !self.tuples.remove(t) {
            return false;
        }
        self.stamp = fresh_stamp();
        for (col, index) in self.writable_indexes() {
            index.remove(&(t[*col].clone(), t.clone()));
        }
        true
    }

    /// Iterates over the tuples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// Point lookup through the column index: all tuples whose component
    /// `col` equals `value`, as a [`Candidates`] handle — a range scan
    /// of the index, no tuple cloned. Builds the column index on first use
    /// (`&self`: interior mutability through the cache lock), after which
    /// the index persists across [`clone`](Clone::clone)s and is
    /// maintained by [`insert`](Relation::insert) and
    /// [`remove`](Relation::remove).
    pub fn probe(&self, col: usize, value: &Value) -> Candidates {
        assert!(col < self.arity, "column {col} out of range");
        let built = self
            .indexes
            .read()
            .expect("index lock poisoned")
            .get(&col)
            .cloned();
        let index = built.unwrap_or_else(|| {
            let mut cache = self.indexes.write().expect("index lock poisoned");
            // Double-checked: another thread may have built it between locks.
            cache
                .entry(col)
                .or_insert_with(|| {
                    let mut entries: Vec<(Value, Tuple)> =
                        self.iter().map(|t| (t[col].clone(), t.clone())).collect();
                    // Stable: equal values keep the tuples' sorted order.
                    entries.sort_by(|a, b| a.0.cmp(&b.0));
                    PTree::from_sorted(entries)
                })
                .clone()
        });
        Candidates {
            index,
            value: value.clone(),
        }
    }

    /// Point lookup returning owned tuples. Compatibility wrapper over
    /// [`probe`](Relation::probe) — prefer `probe` in hot paths, it does
    /// not clone the matching tuples.
    pub fn scan_eq(&self, col: usize, value: &Value) -> Vec<Tuple> {
        self.probe(col, value).iter().cloned().collect()
    }

    /// `true` when the column index for `col` is currently materialized
    /// (test/diagnostic aid for the laziness and persistence guarantees).
    pub fn has_index(&self, col: usize) -> bool {
        self.indexes
            .read()
            .expect("index lock poisoned")
            .contains_key(&col)
    }

    /// Removes all tuples.
    pub fn clear(&mut self) {
        if !self.is_empty() {
            *self = Relation::new(self.arity);
        }
    }

    /// `true` when both relations' tuple trees have the same root node
    /// (clones that neither side has written since). Test/diagnostic aid
    /// for the O(1)-clone guarantee.
    pub fn shares_storage_with(&self, other: &Relation) -> bool {
        self.tuples.same_root(&other.tuples)
    }

    /// `true` when both relations have the same column indexes built, each
    /// with the same root node (clones that neither side has written
    /// since). Test/diagnostic aid for the index-survives-clone guarantee.
    pub fn shares_indexes_with(&self, other: &Relation) -> bool {
        if Arc::ptr_eq(&self.indexes, &other.indexes) {
            return true;
        }
        let mine = self.indexes.read().expect("index lock poisoned");
        let theirs = other.indexes.read().expect("index lock poisoned");
        mine.len() == theirs.len()
            && mine
                .iter()
                .all(|(col, i)| theirs.get(col).is_some_and(|j| i.same_root(j)))
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && (self.stamp == other.stamp
                || (self.len() == other.len() && self.iter().eq(other.iter())))
    }
}

impl Eq for Relation {}

impl std::fmt::Debug for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Tuple> for Relation {
    /// Builds a relation inferring the arity from the first tuple
    /// (empty iterator ⇒ arity 0).
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut it = iter.into_iter().peekable();
        let arity = it.peek().map_or(0, Tuple::arity);
        Relation::from_tuples(arity, it)
    }
}

#[cfg(test)]
impl Relation {
    /// Tree nodes — of the tuple set and of every column index — that this
    /// relation does not share with `base`, and the most levels any of
    /// those trees has: what its writes since it was cloned from `base`
    /// copied or created.
    fn fresh_nodes(&self, base: &Relation) -> (usize, usize) {
        let mine = self.indexes.read().expect("index lock poisoned");
        let theirs = base.indexes.read().expect("index lock poisoned");
        let empty = PTree::default();
        let mut fresh = self.tuples.fresh_nodes(&base.tuples);
        let mut height = self.tuples.height();
        for (col, index) in mine.iter() {
            fresh += index.fresh_nodes(theirs.get(col).unwrap_or(&empty));
            height = height.max(index.height());
        }
        (fresh, height)
    }

    /// Panics unless every tree's invariants hold and every index holds
    /// exactly the tuple set.
    fn check(&self) {
        self.tuples.check();
        for (col, index) in self.indexes.read().expect("index lock poisoned").iter() {
            index.check();
            let mut by_index: Vec<&Tuple> = index.iter().map(|(_, t)| t).collect();
            by_index.sort();
            assert!(by_index.into_iter().eq(self.iter()), "index {col} drifted");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn set_semantics() {
        let mut r = Relation::new(2);
        assert!(r.insert(tuple![1, 2]));
        assert!(!r.insert(tuple![1, 2]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple![1, 2]));
        assert!(r.remove(&tuple![1, 2]));
        assert!(!r.remove(&tuple![1, 2]));
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_enforced() {
        let mut r = Relation::new(2);
        r.insert(tuple![1]);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut r = Relation::new(1);
        r.insert(tuple![3]);
        r.insert(tuple![1]);
        r.insert(tuple![2]);
        let vals: Vec<i64> = r.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn from_tuples_sorts_and_dedups() {
        let r = Relation::from_tuples(1, [tuple![3], tuple![1], tuple![3], tuple![2]]);
        let vals: Vec<i64> = r.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 3]);
        r.check();
    }

    #[test]
    fn lazy_index_lookup() {
        let mut r = Relation::new(2);
        r.insert(tuple!["a", 1]);
        r.insert(tuple!["a", 2]);
        r.insert(tuple!["b", 3]);
        assert!(!r.has_index(0));
        let hits = r.probe(0, &Value::str("a"));
        assert_eq!(hits.len(), 2);
        assert!(r.has_index(0));
        let hits = r.probe(0, &Value::str("c"));
        assert!(hits.is_empty());
    }

    #[test]
    fn index_maintained_across_mutations() {
        let mut r = Relation::new(2);
        r.insert(tuple!["a", 1]);
        // Build the index…
        assert_eq!(r.probe(0, &Value::str("a")).len(), 1);
        // …then mutate and re-query: maintained in place, not rebuilt.
        r.insert(tuple!["a", 2]);
        assert!(r.has_index(0));
        assert_eq!(r.probe(0, &Value::str("a")).len(), 2);
        r.remove(&tuple!["a", 1]);
        assert_eq!(r.probe(0, &Value::str("a")).len(), 1);
        assert_eq!(r.scan_eq(0, &Value::str("a")).len(), 1);
    }

    #[test]
    fn bucket_stays_sorted_under_mutation() {
        let mut r = Relation::new(2);
        for k in [5i64, 1, 9, 3, 7] {
            r.insert(tuple!["a", k]);
        }
        let _ = r.probe(0, &Value::str("a")); // build
        r.insert(tuple!["a", 4]);
        r.insert(tuple!["a", 0]);
        r.remove(&tuple!["a", 5]);
        let hits = r.probe(0, &Value::str("a"));
        let got: Vec<i64> = hits.iter().map(|t| t[1].as_int().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 3, 4, 7, 9]);
    }

    #[test]
    fn scan_eq_without_index() {
        let mut r = Relation::new(2);
        r.insert(tuple!["a", 1]);
        r.insert(tuple!["b", 2]);
        assert_eq!(r.scan_eq(1, &Value::int(2)).len(), 1);
    }

    #[test]
    fn equality_ignores_indexes() {
        let mut a = Relation::new(1);
        a.insert(tuple![1]);
        let mut b = Relation::new(1);
        b.insert(tuple![1]);
        let _ = a.probe(0, &Value::int(1)); // builds an index in a only
        assert_eq!(a, b);
    }

    #[test]
    fn clone_is_o1_and_copy_on_write() {
        let mut r = Relation::new(2);
        for k in 0..10 {
            r.insert(tuple![k, k + 1]);
        }
        let snap = r.clone();
        assert!(snap.shares_storage_with(&r), "clone shares storage");
        // First mutation un-shares; the snapshot is unaffected.
        r.insert(tuple![99, 100]);
        assert!(!snap.shares_storage_with(&r));
        assert_eq!(snap.len(), 10);
        assert_eq!(r.len(), 11);
    }

    #[test]
    fn clone_keeps_indexes_until_either_side_mutates() {
        let mut r = Relation::new(2);
        r.insert(tuple!["a", 1]);
        r.insert(tuple!["a", 2]);
        let _ = r.probe(0, &Value::str("a")); // build an index
        let c = r.clone();
        // The clone carries the cache: no rebuild, shared storage.
        assert!(c.shares_indexes_with(&r));
        assert!(c.has_index(0));
        assert_eq!(c.probe(0, &Value::str("a")).len(), 2);
        assert_eq!(c.scan_eq(1, &Value::int(1)).len(), 1);
    }

    #[test]
    fn index_built_through_one_clone_is_visible_to_the_other() {
        let mut r = Relation::new(2);
        r.insert(tuple!["a", 1]);
        let c = r.clone();
        // Build through the clone…
        assert_eq!(c.probe(0, &Value::str("a")).len(), 1);
        // …the original sees the same materialized index.
        assert!(r.has_index(0));
        assert!(r.shares_indexes_with(&c));
    }

    #[test]
    fn writing_one_clone_keeps_both_sides_indexes() {
        let mut r = Relation::new(2);
        r.insert(tuple!["a", 1]);
        r.insert(tuple!["b", 2]);
        let _ = r.probe(0, &Value::str("a"));
        let mut c = r.clone();
        c.insert(tuple!["a", 3]);
        // The written clone path-copied its index rather than dropping it…
        assert!(!c.shares_indexes_with(&r));
        assert!(c.has_index(0));
        assert_eq!(c.probe(0, &Value::str("a")).len(), 2);
        // …while the original still answers from its own.
        assert!(r.has_index(0));
        assert_eq!(r.probe(0, &Value::str("a")).len(), 1);
        r.check();
        c.check();
    }

    #[test]
    fn candidates_borrow_and_survive_source_mutation() {
        let mut r = Relation::new(2);
        r.insert(tuple!["a", 1]);
        r.insert(tuple!["a", 2]);
        let hits = r.probe(0, &Value::str("a"));
        // Mutate while the handle is alive: the handle pins the old index.
        r.insert(tuple!["a", 3]);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits.iter().count(), 2);
        // A fresh probe sees the new state.
        assert_eq!(r.probe(0, &Value::str("a")).len(), 3);
    }

    #[test]
    fn from_iterator_infers_arity() {
        let r: Relation = vec![tuple![1, 2], tuple![3, 4]].into_iter().collect();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn equal_stamps_mean_equal_contents() {
        let mut r = Relation::from_tuples(1, (0..100).map(|k| tuple![k]));
        let before = r.stamp();
        // A clone names the same contents.
        let c = r.clone();
        assert_eq!(c.stamp(), before);
        // No-op writes keep the stamp: the contents did not change.
        assert!(!r.insert(tuple![5]));
        assert!(!r.remove(&tuple![500]));
        assert_eq!(r.stamp(), before);
        // A changing write draws a stamp no relation carried before…
        assert!(r.insert(tuple![500]));
        assert_ne!(r.stamp(), before);
        assert!(r.remove(&tuple![500]));
        // …even when it restores earlier contents.
        assert_eq!(r, c);
        assert_ne!(r.stamp(), before);
        // Clearing changes the stamp once; clearing an empty relation
        // changes nothing.
        let full = r.stamp();
        r.clear();
        let cleared = r.stamp();
        assert_ne!(cleared, full);
        r.clear();
        assert_eq!(r.stamp(), cleared);
        // Separately built relations never share a stamp.
        assert_ne!(Relation::new(1).stamp(), Relation::new(1).stamp());
    }

    /// One write to a 10⁵-row relation under a live snapshot replaces at
    /// most a root-to-leaf path plus one split sibling per tree and leaves
    /// every other node shared — the write cost is flat in |R|.
    #[test]
    fn write_under_a_snapshot_copies_one_path() {
        let mut r = Relation::from_tuples(2, (0..100_000i64).map(|k| tuple![k % 97, k]));
        let snap = r.clone();
        assert!(r.insert(tuple![3, 1_000_000]));
        let (fresh, height) = r.fresh_nodes(&snap);
        assert!(height >= 4, "a 10⁵-row tree has height {height}");
        assert!(fresh <= height + 1, "{fresh} fresh nodes, height {height}");
        // With a column index built, the index tree pays the same again.
        let _ = r.probe(0, &Value::int(3));
        let snap = r.clone();
        assert!(r.remove(&tuple![3, 1_000_000]));
        assert!(r.insert(tuple![5, 2_000_000]));
        let (fresh, height) = r.fresh_nodes(&snap);
        assert!(
            fresh <= 2 * 2 * (height + 1),
            "{fresh} fresh nodes over two writes to two trees, height {height}"
        );
        // The snapshot is untouched.
        assert_eq!(snap.len(), 100_001);
        assert!(snap.contains(&tuple![3, 1_000_000]));
        snap.check();
        r.check();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::tuple;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[derive(Clone, Debug)]
    enum Op {
        Insert(i64, i64),
        Remove(i64, i64),
        /// Capture a snapshot (a clone) alongside the model at that moment.
        Snapshot,
        /// Drop the snapshot at this position (mod the live count).
        Drop(usize),
        /// Probe column `.0` for value `.1`.
        Probe(usize, i64),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..11, 0i64..8, 0i64..64).prop_map(|(kind, a, b)| match kind {
            0..=3 => Op::Insert(a, b),
            4..=6 => Op::Remove(a, b),
            7 => Op::Snapshot,
            8 => Op::Drop(b as usize),
            9 => Op::Probe(0, a),
            _ => Op::Probe(1, b),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random writes, snapshots, drops and probes against a `BTreeSet`
        /// model: every live snapshot still equals the model as it was at
        /// capture, iteration stays sorted, probes equal filtered scans,
        /// and equal stamps only ever name equal contents.
        #[test]
        fn agrees_with_a_btreeset_model(
            initial in prop::collection::btree_set((0i64..8, 0i64..64), 0..300),
            ops in prop::collection::vec(op(), 0..300),
        ) {
            let mut model: BTreeSet<Tuple> =
                initial.iter().map(|(a, b)| tuple![*a, *b]).collect();
            let mut rel = Relation::from_tuples(2, model.iter().cloned());
            let mut snaps: Vec<(Relation, BTreeSet<Tuple>)> = Vec::new();
            let mut seen: HashMap<u64, BTreeSet<Tuple>> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(a, b) => {
                        prop_assert_eq!(rel.insert(tuple![a, b]), model.insert(tuple![a, b]));
                    }
                    Op::Remove(a, b) => {
                        prop_assert_eq!(rel.remove(&tuple![a, b]), model.remove(&tuple![a, b]));
                    }
                    Op::Snapshot => snaps.push((rel.clone(), model.clone())),
                    Op::Drop(k) => {
                        if !snaps.is_empty() {
                            let (snap, then) = snaps.remove(k % snaps.len());
                            prop_assert!(snap.iter().eq(then.iter()), "a snapshot moved");
                        }
                    }
                    Op::Probe(col, v) => {
                        let val = Value::int(v);
                        let probe = rel.probe(col, &val);
                        let hits: Vec<&Tuple> = probe.iter().collect();
                        let scan: Vec<&Tuple> = model.iter().filter(|t| t[col] == val).collect();
                        prop_assert_eq!(hits, scan);
                    }
                }
                let contents = seen.entry(rel.stamp()).or_insert_with(|| model.clone());
                prop_assert_eq!(&*contents, &model, "a stamp named two contents");
                prop_assert_eq!(rel.len(), model.len());
            }
            prop_assert!(rel.iter().eq(model.iter()));
            rel.check();
            for (snap, then) in &snaps {
                prop_assert!(snap.iter().eq(then.iter()), "a snapshot moved");
                snap.check();
            }
        }
    }
}
