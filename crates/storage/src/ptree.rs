//! A persistent B+-tree: the ordered set every [`Relation`] stores its
//! tuples and column indexes in.
//!
//! Nodes sit behind [`Arc`]s and are written through [`Arc::make_mut`]:
//! a node only this tree holds is modified in place, a node some clone
//! also holds is copied first. Cloning a tree is one reference-count
//! bump, and an insert or remove on a tree whose nodes are shared with a
//! live clone copies only the root-to-leaf path it walks (plus, on a
//! split or merge, one sibling per level), never the whole set. Every
//! other node stays shared with the clone.
//!
//! Entries live in the leaves; an inner node holds one more child than
//! separators, with every entry of `kids[i]` `< seps[i] <=` every entry
//! of `kids[i + 1]`. Every non-root node holds between [`MIN`] and
//! [`MAX`] entries (leaves) or children (inner nodes), and all leaves sit
//! at the same depth.
//!
//! [`Relation`]: crate::Relation

use std::sync::Arc;

/// Most entries in a leaf / children of an inner node.
const MAX: usize = 32;
/// Fewest entries / children of a non-root node.
const MIN: usize = MAX / 2;
/// Bulk builds fill nodes to this size, leaving room for inserts before
/// the first split.
const FILL: usize = MAX * 3 / 4;

#[derive(Clone)]
enum Node<K> {
    Leaf(Vec<K>),
    Inner {
        seps: Vec<K>,
        kids: Vec<Arc<Node<K>>>,
    },
}

impl<K> Node<K> {
    /// Entries (leaf) or children (inner node).
    fn width(&self) -> usize {
        match self {
            Node::Leaf(v) => v.len(),
            Node::Inner { kids, .. } => kids.len(),
        }
    }
}

/// A persistent ordered set; see the module docs.
pub(crate) struct PTree<K> {
    root: Arc<Node<K>>,
    len: usize,
}

impl<K> Clone for PTree<K> {
    /// O(1): the clone shares every node.
    fn clone(&self) -> Self {
        PTree {
            root: Arc::clone(&self.root),
            len: self.len,
        }
    }
}

impl<K> Default for PTree<K> {
    fn default() -> Self {
        PTree {
            root: Arc::new(Node::Leaf(Vec::new())),
            len: 0,
        }
    }
}

impl<K: Ord + Clone> PTree<K> {
    /// Builds a tree bottom-up from strictly ascending entries, filling
    /// each node to [`FILL`]: linear time, no per-entry descent.
    pub(crate) fn from_sorted(entries: Vec<K>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0] < w[1]));
        let len = entries.len();
        if len <= MAX {
            return PTree {
                root: Arc::new(Node::Leaf(entries)),
                len,
            };
        }
        // Each level is a list of (smallest entry, node) pairs.
        let mut level: Vec<(K, Arc<Node<K>>)> = chunks(entries)
            .into_iter()
            .map(|leaf| (leaf[0].clone(), Arc::new(Node::Leaf(leaf))))
            .collect();
        while level.len() > 1 {
            level = chunks(level)
                .into_iter()
                .map(|group| {
                    let min = group[0].0.clone();
                    let mut seps = Vec::with_capacity(group.len() - 1);
                    let mut kids = Vec::with_capacity(group.len());
                    for (i, (first, kid)) in group.into_iter().enumerate() {
                        if i > 0 {
                            seps.push(first);
                        }
                        kids.push(kid);
                    }
                    (min, Arc::new(Node::Inner { seps, kids }))
                })
                .collect();
        }
        let (_, root) = level.pop().expect("a non-empty level");
        PTree { root, len }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Membership test.
    pub(crate) fn contains(&self, key: &K) -> bool {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Leaf(v) => return v.binary_search(key).is_ok(),
                Node::Inner { seps, kids } => node = &kids[seps.partition_point(|s| s <= key)],
            }
        }
    }

    /// Inserts `key`; returns `true` if it was new. A no-op insert copies
    /// nothing, even when nodes are shared.
    pub(crate) fn insert(&mut self, key: K) -> bool {
        if self.contains(&key) {
            return false;
        }
        if let Some((sep, right)) = insert_into(Arc::make_mut(&mut self.root), key) {
            let left = Arc::clone(&self.root);
            self.root = Arc::new(Node::Inner {
                seps: vec![sep],
                kids: vec![left, Arc::new(right)],
            });
        }
        self.len += 1;
        true
    }

    /// Removes `key`; returns `true` if it was present. A no-op remove
    /// copies nothing, even when nodes are shared.
    pub(crate) fn remove(&mut self, key: &K) -> bool {
        if !self.contains(key) {
            return false;
        }
        remove_from(Arc::make_mut(&mut self.root), key);
        // A root left with one child hands the root over to it.
        if let Node::Inner { kids, .. } = &*self.root {
            if kids.len() == 1 {
                self.root = Arc::clone(&kids[0]);
            }
        }
        self.len -= 1;
        true
    }

    /// Iterates over the entries in ascending order.
    pub(crate) fn iter(&self) -> Iter<'_, K> {
        self.seek(|_| false)
    }

    /// Iterates in ascending order from the first entry for which `below`
    /// is `false`. `below` must hold on a prefix of the order (every entry
    /// smaller than one it holds on) — e.g. `|e| e.0 < v` to scan the
    /// entries whose first component is at least `v`.
    pub(crate) fn seek(&self, below: impl Fn(&K) -> bool) -> Iter<'_, K> {
        let mut stack = Vec::new();
        let mut node = &*self.root;
        loop {
            match node {
                Node::Leaf(v) => {
                    let start = v.partition_point(&below);
                    return Iter {
                        stack,
                        leaf: v[start..].iter(),
                    };
                }
                Node::Inner { seps, kids } => {
                    // Every entry of kids[i] is below seps[i]; so while
                    // `below` holds on seps[i], the target lies further on.
                    let i = seps.partition_point(&below);
                    stack.push((kids.as_slice(), i + 1));
                    node = &kids[i];
                }
            }
        }
    }
}

impl<K> PTree<K> {
    /// `true` when both trees have the same root node: every entry is
    /// shared, so the contents are equal.
    pub(crate) fn same_root(&self, other: &PTree<K>) -> bool {
        Arc::ptr_eq(&self.root, &other.root)
    }
}

/// Splits `items` (more than [`MAX`] of them) into consecutive runs of
/// near-equal size, each between [`MIN`] and [`FILL`].
fn chunks<T>(items: Vec<T>) -> Vec<Vec<T>> {
    let n = items.len();
    let parts = n.div_ceil(FILL);
    let mut out = Vec::with_capacity(parts);
    let mut it = items.into_iter();
    for p in 0..parts {
        let size = n / parts + usize::from(p < n % parts);
        out.push(it.by_ref().take(size).collect());
    }
    out
}

/// Inserts an absent `key` below `node`; returns the separator and new
/// right sibling when `node` overflowed and split.
fn insert_into<K: Ord + Clone>(node: &mut Node<K>, key: K) -> Option<(K, Node<K>)> {
    match node {
        Node::Leaf(v) => {
            let pos = v
                .binary_search(&key)
                .expect_err("insert_into takes absent keys");
            v.insert(pos, key);
            if v.len() <= MAX {
                return None;
            }
            let right = v.split_off(v.len() / 2);
            Some((right[0].clone(), Node::Leaf(right)))
        }
        Node::Inner { seps, kids } => {
            let i = seps.partition_point(|s| *s <= key);
            let (sep, right) = insert_into(Arc::make_mut(&mut kids[i]), key)?;
            seps.insert(i, sep);
            kids.insert(i + 1, Arc::new(right));
            if kids.len() <= MAX {
                return None;
            }
            let mid = kids.len() / 2;
            let right_kids = kids.split_off(mid);
            let right_seps = seps.split_off(mid);
            let up = seps
                .pop()
                .expect("an inner node keeps a separator per split");
            Some((
                up,
                Node::Inner {
                    seps: right_seps,
                    kids: right_kids,
                },
            ))
        }
    }
}

/// Removes a present `key` below `node`, refilling any child the removal
/// left with fewer than [`MIN`] entries.
fn remove_from<K: Ord + Clone>(node: &mut Node<K>, key: &K) {
    match node {
        Node::Leaf(v) => {
            let pos = v
                .binary_search(key)
                .expect("remove_from takes present keys");
            v.remove(pos);
        }
        Node::Inner { seps, kids } => {
            let i = seps.partition_point(|s| s <= key);
            remove_from(Arc::make_mut(&mut kids[i]), key);
            if kids[i].width() < MIN {
                refill(seps, kids, i);
            }
        }
    }
}

/// Child `i` of an inner node is one short of [`MIN`]: merge it with a
/// neighbour when both fit in one node, else move one entry (or child)
/// over from the neighbour.
fn refill<K: Ord + Clone>(seps: &mut Vec<K>, kids: &mut Vec<Arc<Node<K>>>, i: usize) {
    // The pair (l, l + 1) around separator l.
    let l = if i + 1 < kids.len() { i } else { i - 1 };
    let (head, tail) = kids.split_at_mut(l + 1);
    let left = Arc::make_mut(&mut head[l]);
    let right = Arc::make_mut(&mut tail[0]);
    if left.width() + right.width() <= MAX {
        match (left, right) {
            (Node::Leaf(a), Node::Leaf(b)) => a.append(b),
            (Node::Inner { seps: sa, kids: ka }, Node::Inner { seps: sb, kids: kb }) => {
                sa.push(seps[l].clone());
                sa.append(sb);
                ka.append(kb);
            }
            _ => unreachable!("siblings sit at the same depth"),
        }
        seps.remove(l);
        kids.remove(l + 1);
        return;
    }
    let left_short = l == i;
    match (left, right) {
        (Node::Leaf(a), Node::Leaf(b)) => {
            if left_short {
                a.push(b.remove(0));
            } else {
                b.insert(0, a.pop().expect("a full sibling"));
            }
            seps[l] = b[0].clone();
        }
        (Node::Inner { seps: sa, kids: ka }, Node::Inner { seps: sb, kids: kb }) => {
            if left_short {
                let up = std::mem::replace(&mut seps[l], sb.remove(0));
                sa.push(up);
                ka.push(kb.remove(0));
            } else {
                let up = std::mem::replace(&mut seps[l], sa.pop().expect("a full sibling"));
                sb.insert(0, up);
                kb.insert(0, ka.pop().expect("a full sibling"));
            }
        }
        _ => unreachable!("siblings sit at the same depth"),
    }
}

/// In-order iterator over a [`PTree`]: the unvisited rest of the current
/// leaf plus, per inner level, the siblings still to visit.
pub(crate) struct Iter<'a, K> {
    stack: Vec<(&'a [Arc<Node<K>>], usize)>,
    leaf: std::slice::Iter<'a, K>,
}

impl<'a, K> Iterator for Iter<'a, K> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        loop {
            if let Some(k) = self.leaf.next() {
                return Some(k);
            }
            // Climb to the nearest level with a sibling left, then take
            // the leftmost path down from it.
            let (kids, next) = loop {
                let (kids, next) = self.stack.last_mut()?;
                if *next < kids.len() {
                    *next += 1;
                    break (*kids, *next - 1);
                }
                self.stack.pop();
            };
            let mut node = &*kids[next];
            while let Node::Inner { kids, .. } = node {
                self.stack.push((kids.as_slice(), 1));
                node = &kids[0];
            }
            if let Node::Leaf(v) = node {
                self.leaf = v.iter();
            }
        }
    }
}

#[cfg(test)]
impl<K: Ord + Clone + std::fmt::Debug> PTree<K> {
    /// Levels from root to leaf (1 for a lone leaf).
    pub(crate) fn height(&self) -> usize {
        let mut node = &*self.root;
        let mut h = 1;
        while let Node::Inner { kids, .. } = node {
            node = &kids[0];
            h += 1;
        }
        h
    }

    /// Nodes of this tree that `base` does not share: the nodes that were
    /// copied or created since the two trees last had the same root.
    pub(crate) fn fresh_nodes(&self, base: &PTree<K>) -> usize {
        use std::collections::HashSet;
        fn collect<K>(node: &Arc<Node<K>>, seen: &mut HashSet<*const Node<K>>) {
            seen.insert(Arc::as_ptr(node));
            if let Node::Inner { kids, .. } = &**node {
                kids.iter().for_each(|k| collect(k, seen));
            }
        }
        fn count<K>(node: &Arc<Node<K>>, seen: &HashSet<*const Node<K>>) -> usize {
            if seen.contains(&Arc::as_ptr(node)) {
                return 0;
            }
            1 + match &**node {
                Node::Leaf(_) => 0,
                Node::Inner { kids, .. } => kids.iter().map(|k| count(k, seen)).sum(),
            }
        }
        let mut seen = HashSet::new();
        collect(&base.root, &mut seen);
        count(&self.root, &seen)
    }

    /// Panics unless every structural invariant of the module docs holds.
    pub(crate) fn check(&self) {
        fn walk<K: Ord + std::fmt::Debug>(
            node: &Node<K>,
            lo: Option<&K>,
            hi: Option<&K>,
            root: bool,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> usize {
            assert!(node.width() <= MAX, "node over MAX");
            assert!(root || node.width() >= MIN, "non-root node under MIN");
            match node {
                Node::Leaf(v) => {
                    assert!(v.windows(2).all(|w| w[0] < w[1]), "leaf unsorted");
                    if let (Some(lo), Some(first)) = (lo, v.first()) {
                        assert!(lo <= first, "entry below its separator");
                    }
                    if let (Some(hi), Some(last)) = (hi, v.last()) {
                        assert!(last < hi, "entry at or above its separator");
                    }
                    assert_eq!(*leaf_depth.get_or_insert(depth), depth, "ragged leaves");
                    v.len()
                }
                Node::Inner { seps, kids } => {
                    assert_eq!(kids.len(), seps.len() + 1, "separator count");
                    assert!(kids.len() >= 2, "inner node with one child");
                    assert!(seps.windows(2).all(|w| w[0] < w[1]), "separators unsorted");
                    (0..kids.len())
                        .map(|i| {
                            let lo = if i == 0 { lo } else { Some(&seps[i - 1]) };
                            let hi = seps.get(i).or(hi);
                            walk(&kids[i], lo, hi, false, depth + 1, leaf_depth)
                        })
                        .sum()
                }
            }
        }
        let n = walk(&self.root, None, None, true, 0, &mut None);
        assert_eq!(n, self.len, "len out of step with the entries");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_build_matches_inserts() {
        for n in [0, 1, MAX, MAX + 1, 100, 1000, 5000] {
            let bulk = PTree::from_sorted((0..n).collect());
            bulk.check();
            let mut one = PTree::default();
            for k in 0..n {
                assert!(one.insert(k));
            }
            one.check();
            assert!(bulk.iter().eq(one.iter()), "n = {n}");
        }
    }

    #[test]
    fn seek_starts_at_the_first_entry_not_below() {
        let t = PTree::from_sorted((0..1000).map(|k| k * 2).collect());
        assert_eq!(t.seek(|k| *k < 501).next(), Some(&502));
        assert_eq!(t.seek(|k| *k < 0).next(), Some(&0));
        assert_eq!(t.seek(|k| *k < 5000).next(), None);
        assert_eq!(t.seek(|k| *k < 1500).count(), 250);
    }

    #[test]
    fn draining_collapses_to_a_leaf() {
        let mut t = PTree::from_sorted((0..2000).collect());
        for k in (0..2000).rev().step_by(3).chain((0..2000).step_by(7)) {
            t.remove(&k);
            t.check();
        }
        for k in 0..2000 {
            t.remove(&k);
        }
        t.check();
        assert_eq!((t.len(), t.height()), (0, 1));
    }
}
