//! **Theorem 5.1** — containment of CQCs via all containment mappings and
//! one arithmetic implication.
//!
//! > Let `C₁` and `C₂` be CQCs. Then `C₁ ⊆ C₂` if and only if the following
//! > holds. Let `H` be the set of all containment mappings from `O(C₂)` to
//! > `O(C₁)`. Then `H` is nonempty, and `A(C₁)` logically implies
//! > `⋁_{h∈H} h(A(C₂))`.
//!
//! Preconditions (§5): no repeated variables and no constants among the
//! ordinary subgoals — we establish them by [`ccpi_ir::rectify`]ing both
//! sides first, which Example 5.2 shows is necessary. The theorem
//! "generalizes to the containment of `C₁` in a union of CQCs in the
//! obvious way. We must include containment mappings from any member of
//! the union" — that union form is exactly what Theorem 5.2's complete
//! local test consumes.

use crate::mapping::containment_mappings;
use ccpi_arith::{implies_with, Solver};
use ccpi_ir::rectify::rectify;
use ccpi_ir::{Comparison, Cq, IrError, Value, Var};
use std::collections::HashMap;

/// Exact containment `c1 ⊆ c2` for conjunctive queries with arithmetic
/// comparisons (no negation).
pub fn cqc_contained(c1: &Cq, c2: &Cq, solver: Solver) -> Result<bool, IrError> {
    cqc_contained_in_union(c1, std::slice::from_ref(c2), solver)
}

/// Exact containment of a CQC in a **union** of CQCs.
pub fn cqc_contained_in_union(c1: &Cq, union: &[Cq], solver: Solver) -> Result<bool, IrError> {
    let (r1, disjuncts) = prepare(c1, union)?;
    Ok(solver.implies(&r1.comparisons, &disjuncts))
}

/// The shared preparation: rectify both sides, rename the union members
/// apart, enumerate every containment mapping, and instantiate each
/// member's arithmetic through its mappings. Returns the rectified `c1`
/// and the disjuncts `h(A(Cₘ))`.
pub(crate) fn prepare(c1: &Cq, union: &[Cq]) -> Result<(Cq, Vec<Vec<Comparison>>), IrError> {
    if !c1.is_negation_free() || union.iter().any(|c| !c.is_negation_free()) {
        return Err(IrError::UnexpectedNegation);
    }
    let r1 = rectify(c1);
    let mut disjuncts: Vec<Vec<Comparison>> = Vec::new();
    for (k, member) in union.iter().enumerate() {
        // Rename apart so member variables cannot collide with c1's.
        let (fresh, _) = rectify(member).freshen(&format!("m{k}_"));
        for h in containment_mappings(&fresh, &r1) {
            disjuncts.push(fresh.comparisons.iter().map(|c| h.apply_cmp(c)).collect());
        }
    }
    Ok((r1, disjuncts))
}

/// A Theorem 5.1 union test prepared once and probed many times.
///
/// The expensive part of [`cqc_contained_in_union`] — rectifying each union
/// member, renaming it apart, enumerating its containment mappings, and
/// instantiating its arithmetic — depends on the left-hand side `C₁` only
/// through its **rectified positive subgoals** (the mapping targets), never
/// through its comparisons. Theorem 5.2 probes the same union with the
/// reductions `RED(t)` of many different tuples `t`, and for a fixed CQC
/// those all rectify to the *same* positives with the same (positional,
/// deterministic) variable names — only the comparison constants vary. So
/// the disjuncts can be prepared once per union and reused for every probe,
/// turning each probe into a single arithmetic implication.
///
/// The union is maintained in both directions: [`add_member`] and its
/// exact inverse [`remove_member`] let a caller keep it in step with an
/// evolving relation. Each distinct disjunct carries a reference count —
/// how many (member, mapping) pairs produced it — so two members with the
/// same reductions each hold it, and removing one leaves the other's.
/// A disjunct depends only on its member and the shape, so the disjuncts a
/// removal recomputes are exactly the ones the addition counted.
///
/// Disjuncts are indexed by their ground-equality pins `V = k`: grouped by
/// the set of variables they pin, then bucketed by the pinned constants.
/// A probe pins the same variables (the probed tuple's key columns), so
/// [`contains`] hands the implication only the buckets whose pins agree
/// with the probe's — a disjunct whose pin clashes with a probe pin covers
/// none of the probe's models — and a probe costs what its own key's
/// bucket holds, not what the whole union holds.
///
/// [`add_member`]: PreparedUnion::add_member
/// [`remove_member`]: PreparedUnion::remove_member
/// [`contains`]: PreparedUnion::contains
pub struct PreparedUnion {
    /// Rectification of the probe shape: mapping target for every member.
    shape: Cq,
    /// Disjuncts grouped by the sorted set of variables they pin.
    groups: HashMap<Vec<Var>, PinGroup>,
    /// Members held (added minus removed).
    members: usize,
    /// Distinct disjuncts held.
    distinct: usize,
}

/// Pinned constants, in the group's variable order → that key's bucket.
type PinGroup = HashMap<Vec<Value>, Bucket>;

/// Distinct disjunct → reference count.
type Bucket = HashMap<Vec<Comparison>, usize>;

impl PreparedUnion {
    /// Starts an empty union whose probes will all share `shape_of`'s
    /// rectified positive subgoals (pass any representative probe, e.g.
    /// the first `RED(t)` to be tested).
    pub fn new(shape_of: &Cq) -> Result<Self, IrError> {
        if !shape_of.is_negation_free() {
            return Err(IrError::UnexpectedNegation);
        }
        Ok(PreparedUnion {
            shape: rectify(shape_of),
            groups: HashMap::new(),
            members: 0,
            distinct: 0,
        })
    }

    /// Adds one union member: rectify, enumerate every containment mapping
    /// into the probe shape, and count the member's arithmetic
    /// instantiated through each.
    pub fn add_member(&mut self, member: &Cq) -> Result<(), IrError> {
        for d in self.mapped(member)? {
            let (vars, key) = pins(&d);
            let count = self
                .groups
                .entry(vars)
                .or_default()
                .entry(key)
                .or_default()
                .entry(d)
                .or_insert(0);
            if *count == 0 {
                self.distinct += 1;
            }
            *count += 1;
        }
        self.members += 1;
        Ok(())
    }

    /// Removes one member added earlier (and not removed since): the exact
    /// inverse of [`add_member`](Self::add_member), releasing one
    /// reference to each disjunct the member produced. Returns `Ok(false)`
    /// and changes nothing when the counts cannot cover the release — the
    /// union never held `member`.
    pub fn remove_member(&mut self, member: &Cq) -> Result<bool, IrError> {
        let mut release: HashMap<Vec<Comparison>, usize> = HashMap::new();
        for d in self.mapped(member)? {
            *release.entry(d).or_insert(0) += 1;
        }
        let held = |u: &Self, d: &Vec<Comparison>| {
            let (vars, key) = pins(d);
            u.groups.get(&vars)?.get(&key)?.get(d).copied()
        };
        if self.members == 0 || release.iter().any(|(d, n)| held(self, d).unwrap_or(0) < *n) {
            return Ok(false);
        }
        for (d, n) in release {
            let (vars, key) = pins(&d);
            let group = self.groups.get_mut(&vars).expect("held above");
            let bucket = group.get_mut(&key).expect("held above");
            let count = bucket.get_mut(&d).expect("held above");
            *count -= n;
            if *count == 0 {
                bucket.remove(&d);
                self.distinct -= 1;
                if bucket.is_empty() {
                    group.remove(&key);
                    if group.is_empty() {
                        self.groups.remove(&vars);
                    }
                }
            }
        }
        self.members -= 1;
        Ok(true)
    }

    /// `h(A(member))` for every containment mapping `h` into the shape.
    fn mapped(&self, member: &Cq) -> Result<Vec<Vec<Comparison>>, IrError> {
        if !member.is_negation_free() {
            return Err(IrError::UnexpectedNegation);
        }
        let mut source = rectify(member);
        // A mapping binds every variable of the member's positive subgoals,
        // so when the comparisons use no other variable, each disjunct
        // mentions shape variables only and needs no renaming apart. A
        // comparison variable outside the positives survives the mapping:
        // name it apart by the member's own text, so distinct members never
        // share it and the same member always produces the same disjuncts.
        let bound: Vec<&Var> = source.positives.iter().flat_map(|a| a.vars()).collect();
        let all_bound = source
            .comparisons
            .iter()
            .flat_map(Comparison::vars)
            .all(|v| bound.contains(&v));
        if !all_bound {
            source = source.freshen(&format!("m[{source}]_")).0;
        }
        Ok(containment_mappings(&source, &self.shape)
            .into_iter()
            .map(|h| source.comparisons.iter().map(|c| h.apply_cmp(c)).collect())
            .collect())
    }

    /// Members held (added minus removed).
    pub fn members(&self) -> usize {
        self.members
    }

    /// Distinct disjuncts currently held.
    pub fn disjunct_count(&self) -> usize {
        self.distinct
    }

    /// Decides `c1 ⊆ ⋃ members`. `c1` **must** rectify to the same positive
    /// subgoals as the shape this union was prepared for; reductions of a
    /// fixed CQC always do.
    pub fn contains(&self, c1: &Cq, solver: Solver) -> Result<bool, IrError> {
        if !c1.is_negation_free() {
            return Err(IrError::UnexpectedNegation);
        }
        let r1 = rectify(c1);
        debug_assert_eq!(
            r1.positives, self.shape.positives,
            "PreparedUnion probed with a query of a different shape"
        );
        let probe: HashMap<&Var, &Value> =
            r1.comparisons.iter().filter_map(Comparison::pin).collect();
        let agrees = |vars: &[Var], key: &[Value]| {
            vars.iter()
                .zip(key)
                .all(|(v, k)| probe.get(v).is_none_or(|p| *p == k))
        };
        let mut buckets: Vec<&Bucket> = Vec::new();
        for (vars, group) in &self.groups {
            // The probe pins every variable of the group: one lookup.
            let key: Option<Vec<Value>> = vars
                .iter()
                .map(|v| probe.get(v).map(|k| (*k).clone()))
                .collect();
            match key {
                Some(key) => buckets.extend(group.get(&key)),
                None => buckets.extend(
                    group
                        .iter()
                        .filter(|(key, _)| agrees(vars, key))
                        .map(|(_, bucket)| bucket),
                ),
            }
        }
        let relevant = buckets
            .into_iter()
            .flat_map(|b| b.keys().map(Vec::as_slice));
        Ok(implies_with(solver, &r1.comparisons, relevant))
    }
}

/// A disjunct's pin-index key: the sorted variables it pins to constants
/// and the constants, in that order (the first pin of a variable wins).
fn pins(d: &[Comparison]) -> (Vec<Var>, Vec<Value>) {
    let mut pinned: Vec<(&Var, &Value)> = Vec::new();
    for (v, k) in d.iter().filter_map(Comparison::pin) {
        if !pinned.iter().any(|(w, _)| *w == v) {
            pinned.push((v, k));
        }
    }
    pinned.sort();
    pinned
        .into_iter()
        .map(|(v, k)| (v.clone(), k.clone()))
        .unzip()
}

/// The number of containment mappings Theorem 5.1 considers for
/// `c1 ⊆ ⋃ union` — the quantity the paper argues stays small in practice
/// ("there will tend to be few containment mappings"). Exposed for the
/// Klug-comparison experiment.
pub fn mapping_count(c1: &Cq, union: &[Cq]) -> Result<usize, IrError> {
    Ok(prepare(c1, union)?.1.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccpi_parser::parse_cq;

    fn cq(src: &str) -> Cq {
        parse_cq(src).unwrap()
    }
    fn dense() -> Solver {
        Solver::dense()
    }

    /// Example 5.1 (= Ullman's Example 14.7): C1 ⊆ C2 holds, and needs both
    /// containment mappings.
    #[test]
    fn example_5_1_containment_holds() {
        let c1 = cq("panic :- r(U,V) & r(V,U).");
        let c2 = cq("panic :- r(A,B) & A <= B.");
        assert!(cqc_contained(&c1, &c2, dense()).unwrap());
        // Converse direction fails.
        assert!(!cqc_contained(&c2, &c1, dense()).unwrap());
    }

    /// Example 5.2 first pair: p(X,X) vs p(X,Y) & X=Y — equivalent, and the
    /// rectifying implementation certifies both directions (the raw
    /// Theorem 5.1 condition fails without rectification, which is the
    /// example's point).
    #[test]
    fn example_5_2_repeated_variables() {
        let c1 = cq("panic :- p(X,X).");
        let c2 = cq("panic :- p(X,Y) & X = Y.");
        assert!(cqc_contained(&c1, &c2, dense()).unwrap());
        assert!(cqc_contained(&c2, &c1, dense()).unwrap());
    }

    /// Example 5.2 second pair: p(0,X) vs p(Z,X) & Z=0.
    #[test]
    fn example_5_2_constants() {
        let c1 = cq("panic :- p(0,X).");
        let c2 = cq("panic :- p(Z,X) & Z = 0.");
        assert!(cqc_contained(&c1, &c2, dense()).unwrap());
        assert!(cqc_contained(&c2, &c1, dense()).unwrap());
    }

    /// Example 5.3: RED((4,8)) ⊆ RED((3,6)) ∪ RED((5,10)) — containment in
    /// a union without containment in any single member.
    #[test]
    fn example_5_3_union_containment() {
        let inserted = cq("panic :- r(Z) & 4 <= Z & Z <= 8.");
        let red36 = cq("panic :- r(Z) & 3 <= Z & Z <= 6.");
        let red510 = cq("panic :- r(Z) & 5 <= Z & Z <= 10.");
        assert!(
            cqc_contained_in_union(&inserted, &[red36.clone(), red510.clone()], dense()).unwrap()
        );
        assert!(!cqc_contained(&inserted, &red36, dense()).unwrap());
        assert!(!cqc_contained(&inserted, &red510, dense()).unwrap());
    }

    #[test]
    fn interval_narrowing() {
        // r(Z) & 2<=Z<=3 ⊆ r(Z) & 1<=Z<=5.
        let narrow = cq("panic :- r(Z) & 2 <= Z & Z <= 3.");
        let wide = cq("panic :- r(Z) & 1 <= Z & Z <= 5.");
        assert!(cqc_contained(&narrow, &wide, dense()).unwrap());
        assert!(!cqc_contained(&wide, &narrow, dense()).unwrap());
    }

    #[test]
    fn unsat_premise_is_contained_in_anything() {
        let never = cq("panic :- r(Z) & Z < 1 & Z > 2.");
        let other = cq("panic :- s(W).");
        // H is empty but A(C1) is unsatisfiable: contained.
        assert!(cqc_contained(&never, &other, dense()).unwrap());
    }

    #[test]
    fn missing_predicate_with_satisfiable_arithmetic_is_not_contained() {
        let c1 = cq("panic :- r(Z) & Z > 1.");
        let c2 = cq("panic :- s(W).");
        assert!(!cqc_contained(&c1, &c2, dense()).unwrap());
    }

    #[test]
    fn pure_cq_special_case_agrees_with_chandra_merlin() {
        let pairs = [
            ("panic :- r(U,V) & r(V,U).", "panic :- r(A,B)."),
            ("panic :- r(A,B).", "panic :- r(U,V) & r(V,U)."),
            ("panic :- p(X,Y) & p(X,Z).", "panic :- p(A,B)."),
            ("panic :- emp(E,sales).", "panic :- emp(E,D)."),
            ("panic :- emp(E,D).", "panic :- emp(E,sales)."),
        ];
        for (a, b) in pairs {
            let (qa, qb) = (cq(a), cq(b));
            assert_eq!(
                cqc_contained(&qa, &qb, dense()).unwrap(),
                crate::cq::cq_contained(&qa, &qb).unwrap(),
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn mapping_count_grows_with_duplication() {
        let c1 = cq("panic :- r(A1,B1) & r(A2,B2) & A1 <= B2.");
        let c2 = cq("panic :- r(X,Y) & X <= Y.");
        // 2 targets for the one source subgoal.
        assert_eq!(mapping_count(&c1, std::slice::from_ref(&c2)).unwrap(), 2);
        let c3 = cq("panic :- r(X,Y) & r(W,Z) & X <= Z.");
        // 2 × 2 = 4.
        assert_eq!(mapping_count(&c1, &[c3]).unwrap(), 4);
    }

    #[test]
    fn strictness_asymmetry() {
        let strict = cq("panic :- r(Z) & 0 < Z.");
        let loose = cq("panic :- r(Z) & 0 <= Z.");
        assert!(cqc_contained(&strict, &loose, dense()).unwrap());
        assert!(!cqc_contained(&loose, &strict, dense()).unwrap());
    }

    #[test]
    fn negation_is_rejected() {
        let n = cq("panic :- p(X) & not q(X).");
        let p = cq("panic :- p(X).");
        assert!(matches!(
            cqc_contained(&n, &p, dense()),
            Err(IrError::UnexpectedNegation)
        ));
        assert!(matches!(
            cqc_contained(&p, &n, dense()),
            Err(IrError::UnexpectedNegation)
        ));
    }

    /// The prepared union answers exactly like the one-shot test, probed
    /// with reductions of different tuples (same shape, different
    /// constants) — the reuse Theorem 5.2's cache depends on.
    #[test]
    fn prepared_union_matches_one_shot_containment() {
        let red36 = cq("panic :- r(Z) & 3 <= Z & Z <= 6.");
        let red510 = cq("panic :- r(Z) & 5 <= Z & Z <= 10.");
        let mut union = PreparedUnion::new(&cq("panic :- r(Z) & 4 <= Z & Z <= 8.")).unwrap();
        union.add_member(&red36).unwrap();
        union.add_member(&red510).unwrap();
        assert_eq!(union.members(), 2);
        for probe in [
            "panic :- r(Z) & 4 <= Z & Z <= 8.",
            "panic :- r(Z) & 2 <= Z & Z <= 8.",
            "panic :- r(Z) & 5 <= Z & Z <= 6.",
            "panic :- r(Z) & 9 <= Z & Z <= 11.",
        ] {
            let p = cq(probe);
            assert_eq!(
                union.contains(&p, dense()).unwrap(),
                cqc_contained_in_union(&p, &[red36.clone(), red510.clone()], dense()).unwrap(),
                "{probe}"
            );
        }
    }

    /// Members can arrive incrementally, and structural duplicates share
    /// one counted disjunct.
    #[test]
    fn prepared_union_grows_incrementally_and_dedups() {
        let probe = cq("panic :- r(Z) & 4 <= Z & Z <= 8.");
        let mut union = PreparedUnion::new(&probe).unwrap();
        assert!(!union.contains(&probe, dense()).unwrap());
        union
            .add_member(&cq("panic :- r(Z) & 3 <= Z & Z <= 6."))
            .unwrap();
        assert!(!union.contains(&probe, dense()).unwrap());
        union
            .add_member(&cq("panic :- r(Z) & 5 <= Z & Z <= 10."))
            .unwrap();
        assert!(union.contains(&probe, dense()).unwrap());
        // A repeated member adds no distinct disjuncts, only references.
        let before = union.disjunct_count();
        union
            .add_member(&cq("panic :- r(Z) & 3 <= Z & Z <= 6."))
            .unwrap();
        assert_eq!(union.disjunct_count(), before);
        assert_eq!(union.members(), 3);
    }

    /// `remove_member` is the exact inverse of `add_member`: a disjunct two
    /// members share survives the removal of one, and removing what the
    /// union never held changes nothing.
    #[test]
    fn prepared_union_removes_members_by_reference_count() {
        let probe = cq("panic :- r(Z) & 4 <= Z & Z <= 8.");
        let (low, high) = (
            cq("panic :- r(Z) & 3 <= Z & Z <= 6."),
            cq("panic :- r(Z) & 5 <= Z & Z <= 10."),
        );
        let mut union = PreparedUnion::new(&probe).unwrap();
        for m in [&low, &high, &high] {
            union.add_member(m).unwrap();
        }
        assert_eq!((union.members(), union.disjunct_count()), (3, 2));
        assert!(union.remove_member(&high).unwrap());
        assert!(
            union.contains(&probe, dense()).unwrap(),
            "one copy of [5,10] is left"
        );
        assert!(union.remove_member(&high).unwrap());
        assert!(!union.contains(&probe, dense()).unwrap());
        assert_eq!((union.members(), union.disjunct_count()), (1, 1));
        assert!(!union.remove_member(&high).unwrap(), "no longer held");
        assert_eq!((union.members(), union.disjunct_count()), (1, 1));
    }

    /// Pinned disjuncts land in per-constant buckets; a probe reads only
    /// the bucket matching its own pin, and its answer equals the one-shot
    /// test over the whole union.
    #[test]
    fn prepared_union_probes_only_the_matching_pin_bucket() {
        let red =
            |d: &str, lo: i64, hi: i64| cq(&format!("panic :- s({d},Z) & {lo} <= Z & Z <= {hi}."));
        let members = [
            red("a", 3, 6),
            red("a", 5, 10),
            red("b", 0, 20),
            red("b", 4, 4),
        ];
        let mut union = PreparedUnion::new(&red("a", 4, 8)).unwrap();
        for m in &members {
            union.add_member(m).unwrap();
        }
        for probe in [
            red("a", 4, 8),
            red("b", 4, 8),
            red("a", 0, 1),
            red("c", 4, 4),
        ] {
            assert_eq!(
                union.contains(&probe, dense()).unwrap(),
                cqc_contained_in_union(&probe, &members, dense()).unwrap(),
                "{probe}"
            );
        }
        assert!(union.contains(&red("b", 1, 19), dense()).unwrap());
        assert!(!union.contains(&red("a", 2, 8), dense()).unwrap());
    }

    #[test]
    fn prepared_union_rejects_negation() {
        assert!(PreparedUnion::new(&cq("panic :- p(X) & not q(X).")).is_err());
        let mut union = PreparedUnion::new(&cq("panic :- p(X).")).unwrap();
        assert!(union.add_member(&cq("panic :- p(X) & not q(X).")).is_err());
    }

    #[test]
    fn integer_domain_tightens_containment() {
        // Over ℤ: r(Z) & 0<Z<3 ⊆ r(Z) & 1<=Z<=2; over ℚ it is not.
        let c1 = cq("panic :- r(Z) & 0 < Z & Z < 3.");
        let c2 = cq("panic :- r(Z) & 1 <= Z & Z <= 2.");
        assert!(cqc_contained(&c1, &c2, Solver::integer()).unwrap());
        assert!(!cqc_contained(&c1, &c2, Solver::dense()).unwrap());
    }
}
