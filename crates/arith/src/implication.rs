//! The implication test `A ⇒ D₁ ∨ … ∨ Dₖ`.
//!
//! Theorem 5.1 requires deciding whether the conjunction `A(C₁)` logically
//! implies a disjunction of conjunctions `⋁_h h(A(C₂))`. We decide by
//! refutation:
//!
//! ```text
//! A ⇒ ⋁ᵢ Dᵢ   iff   A ∧ ¬D₁ ∧ … ∧ ¬Dₖ is unsatisfiable
//! ```
//!
//! Each `¬Dᵢ` is a disjunction of negated atoms, so the refutation problem
//! is a conjunction of clauses. Unit propagation first drops every atom the
//! premise entails syntactically and conjoins the negation of each
//! disjunct left with one atom; we then search DPLL-style over the choice
//! of one negated atom per remaining disjunct, pruning any branch whose
//! partial conjunction is already unsatisfiable. The branch count is `∏ᵢ |Dᵢ|` in the worst
//! case — exponential in the size of the *contained* query only, matching
//! the paper's complexity discussion ("our [test] … is exponential only in
//! the number of variables, that is, in the size of C₁" for the
//! satisfiability checks, with the containment-mapping count supplying the
//! disjuncts).

use crate::Solver;
use ccpi_ir::{Comparison, Value, Var};
use std::collections::{HashMap, HashSet};

/// Decides `premise ⇒ ⋁ disjuncts` under the given solver's domain.
///
/// An empty `disjuncts` sequence denotes the empty (false) disjunction;
/// the implication then holds iff `premise` is unsatisfiable. The
/// disjuncts are borrowed, so a caller holding them in an index (see
/// `ccpi-containment`'s prepared unions) hands over only the relevant
/// ones without copying any.
pub fn implies_with<'a>(
    solver: Solver,
    premise: &[Comparison],
    disjuncts: impl IntoIterator<Item = &'a [Comparison]>,
) -> bool {
    if !solver.sat(premise) {
        return true;
    }
    // Unit propagation. Every atom of a disjunct that the premise entails
    // syntactically is dropped: it is one of the premise's atoms, a true
    // ground atom, or restates a premise pin `V = k`. An atom the premise
    // refutes the same way (a false ground atom, `V = k'` against the pin
    // `V = k`) makes its whole disjunct inconsistent with the premise, so
    // the disjunct covers none of the premise's models and is dropped.
    // What is left decides the disjunct's role:
    //
    // * no atom — the premise entails the disjunct: the implication holds;
    // * one atom `a` — under the premise `¬D ≡ ¬a`, a unit clause, so `¬a`
    //   is conjoined once instead of branched on;
    // * two or more — a real clause for the DPLL search below.
    //
    // This is the dominant shape Theorem 5.2 produces: every reduction
    // pins the probed tuple's key columns and bounds one other variable,
    // so a union over one key collapses to a single conjunction of bounds.
    let facts: HashSet<&Comparison> = premise.iter().collect();
    let pinned: HashMap<&Var, &Value> = premise.iter().filter_map(Comparison::pin).collect();
    let mut units: HashSet<&Comparison> = HashSet::new();
    let mut clauses: HashSet<Vec<&Comparison>> = HashSet::new();
    'disjuncts: for d in disjuncts {
        let mut open: Vec<&Comparison> = Vec::new();
        for atom in d {
            let entailed = match atom.eval_ground() {
                Some(v) => v,
                None => match atom.pin().and_then(|(v, k)| Some((k, *pinned.get(v)?))) {
                    Some((k, k0)) => k == k0,
                    None if facts.contains(atom) => true,
                    None => {
                        open.push(atom);
                        continue;
                    }
                },
            };
            if !entailed {
                continue 'disjuncts;
            }
        }
        match open.len() {
            0 => return true,
            1 => {
                units.insert(open[0]);
            }
            // Exact duplicates are covered by their first occurrence.
            _ => {
                clauses.insert(open);
            }
        }
    }
    let mut base = premise.to_vec();
    base.extend(units.into_iter().map(Comparison::negated));
    if !solver.sat(&base) {
        return true;
    }
    // Relevance filter: a clause whose disjunct is inconsistent with the
    // premise and the units covers nothing of their models, so dropping
    // it changes neither direction of the answer. This keeps the search
    // proportional to the *overlapping* disjuncts.
    let n = base.len();
    let mut order: Vec<Vec<&Comparison>> = Vec::with_capacity(clauses.len());
    for d in clauses {
        base.truncate(n);
        base.extend(d.iter().map(|&c| c.clone()));
        if solver.sat(&base) {
            order.push(d);
        }
    }
    base.truncate(n);
    if order.is_empty() {
        return false;
    }
    // Ascending length: small disjuncts branch least and prune earliest.
    order.sort_by_key(Vec::len);
    refute(solver, base, &order)
}

/// Returns `true` iff `conj ∧ ⋀_{D ∈ remaining} ¬D` is unsatisfiable.
/// No atom of a remaining disjunct is ground (unit propagation decided
/// those).
fn refute(solver: Solver, conj: Vec<Comparison>, remaining: &[Vec<&Comparison>]) -> bool {
    if !solver.sat(&conj) {
        return true;
    }
    let Some((d, rest)) = remaining.split_first() else {
        // All negations absorbed and still satisfiable: counter-model exists.
        return false;
    };
    // conj ∧ ¬D ∧ rest is unsat  iff  every choice of a falsified atom of D
    // leads to an unsat branch.
    d.iter().all(|atom| {
        let mut next = conj.clone();
        next.push(atom.negated());
        refute(solver, next, rest)
    })
}

#[cfg(test)]
mod tests {
    use crate::Solver;
    use ccpi_ir::{CompOp, Comparison, Term};

    fn cmp(l: Term, op: CompOp, r: Term) -> Comparison {
        Comparison::new(l, op, r)
    }
    fn v(n: &str) -> Term {
        Term::var(n)
    }
    fn i(x: i64) -> Term {
        Term::int(x)
    }

    /// Example 5.1: `U=T ∧ V=S  ⇒  U<=V ∨ S<=T` — "true assuming ≤ is a
    /// total order". This is the exact implication Theorem 5.1 produces for
    /// Ullman's Example 14.7, and the single-mapping version fails.
    #[test]
    fn example_5_1_implication_holds() {
        let s = Solver::dense();
        let premise = vec![
            cmp(v("U"), CompOp::Eq, v("T")),
            cmp(v("V"), CompOp::Eq, v("S")),
        ];
        let h1 = vec![cmp(v("U"), CompOp::Le, v("V"))];
        let h2 = vec![cmp(v("S"), CompOp::Le, v("T"))];
        assert!(s.implies(&premise, &[h1.clone(), h2.clone()]));
        // Neither single mapping suffices (the Ullman [1989] test's gap).
        assert!(!s.implies(&premise, &[h1]));
        assert!(!s.implies(&premise, &[h2]));
    }

    #[test]
    fn unsat_premise_implies_anything() {
        let s = Solver::dense();
        let premise = vec![
            cmp(v("X"), CompOp::Lt, v("Y")),
            cmp(v("Y"), CompOp::Lt, v("X")),
        ];
        assert!(s.implies(&premise, &[]));
        assert!(s.implies(&premise, &[vec![cmp(v("A"), CompOp::Lt, v("A"))]]));
    }

    #[test]
    fn empty_disjunction_requires_unsat_premise() {
        let s = Solver::dense();
        assert!(!s.implies(&[cmp(v("X"), CompOp::Lt, v("Y"))], &[]));
        assert!(!s.implies(&[], &[]));
    }

    #[test]
    fn empty_disjunct_is_trivially_true() {
        let s = Solver::dense();
        assert!(s.implies(&[cmp(v("X"), CompOp::Lt, v("Y"))], &[vec![]]));
    }

    #[test]
    fn simple_transitivity() {
        let s = Solver::dense();
        let premise = vec![
            cmp(v("X"), CompOp::Lt, v("Y")),
            cmp(v("Y"), CompOp::Lt, v("Z")),
        ];
        assert!(s.implies(&premise, &[vec![cmp(v("X"), CompOp::Lt, v("Z"))]]));
        assert!(!s.implies(&premise, &[vec![cmp(v("Z"), CompOp::Lt, v("X"))]]));
    }

    #[test]
    fn strictness_matters() {
        let s = Solver::dense();
        let le = vec![cmp(v("X"), CompOp::Le, v("Y"))];
        assert!(!s.implies(&le, &[vec![cmp(v("X"), CompOp::Lt, v("Y"))]]));
        assert!(s.implies(
            &[cmp(v("X"), CompOp::Lt, v("Y"))],
            &[vec![cmp(v("X"), CompOp::Le, v("Y"))]]
        ));
    }

    #[test]
    fn total_order_dichotomy() {
        // ⊨ X<=Y ∨ Y<=X with no premise.
        let s = Solver::dense();
        assert!(s.implies(
            &[],
            &[
                vec![cmp(v("X"), CompOp::Le, v("Y"))],
                vec![cmp(v("Y"), CompOp::Le, v("X"))]
            ]
        ));
        // But not X<Y ∨ Y<X (they may be equal).
        assert!(!s.implies(
            &[],
            &[
                vec![cmp(v("X"), CompOp::Lt, v("Y"))],
                vec![cmp(v("Y"), CompOp::Lt, v("X"))]
            ]
        ));
        // Adding X<>Y restores it.
        assert!(s.implies(
            &[cmp(v("X"), CompOp::Ne, v("Y"))],
            &[
                vec![cmp(v("X"), CompOp::Lt, v("Y"))],
                vec![cmp(v("Y"), CompOp::Lt, v("X"))]
            ]
        ));
    }

    #[test]
    fn constants_participate() {
        let s = Solver::dense();
        // X < 5 ⇒ X < 10.
        assert!(s.implies(
            &[cmp(v("X"), CompOp::Lt, i(5))],
            &[vec![cmp(v("X"), CompOp::Lt, i(10))]]
        ));
        // X < 10 does not imply X < 5.
        assert!(!s.implies(
            &[cmp(v("X"), CompOp::Lt, i(10))],
            &[vec![cmp(v("X"), CompOp::Lt, i(5))]]
        ));
    }

    #[test]
    fn forbidden_interval_union_cover() {
        // The arithmetic core of Example 5.3: 4<=Z<=8 ⇒ (3<=Z<=6) ∨ (5<=Z<=10).
        let s = Solver::dense();
        let premise = vec![cmp(i(4), CompOp::Le, v("Z")), cmp(v("Z"), CompOp::Le, i(8))];
        let d1 = vec![cmp(i(3), CompOp::Le, v("Z")), cmp(v("Z"), CompOp::Le, i(6))];
        let d2 = vec![
            cmp(i(5), CompOp::Le, v("Z")),
            cmp(v("Z"), CompOp::Le, i(10)),
        ];
        assert!(s.implies(&premise, &[d1.clone(), d2.clone()]));
        // No single interval covers [4,8] (the union phenomenon the paper
        // highlights: containment in a union without containment in any
        // single member).
        assert!(!s.implies(&premise, &[d1]));
        assert!(!s.implies(&premise, &[d2]));
    }

    #[test]
    fn gap_cover_fails_over_dense_but_holds_over_integers() {
        // [4,8] ⊆ [3,6] ∪ [7,10]? Over ℚ no (6.5 uncovered); over ℤ yes.
        let premise = vec![cmp(i(4), CompOp::Le, v("Z")), cmp(v("Z"), CompOp::Le, i(8))];
        let d1 = vec![cmp(i(3), CompOp::Le, v("Z")), cmp(v("Z"), CompOp::Le, i(6))];
        let d2 = vec![
            cmp(i(7), CompOp::Le, v("Z")),
            cmp(v("Z"), CompOp::Le, i(10)),
        ];
        assert!(!Solver::dense().implies(&premise, &[d1.clone(), d2.clone()]));
        assert!(Solver::integer().implies(&premise, &[d1, d2]));
    }

    #[test]
    fn equivalence_helper() {
        let s = Solver::dense();
        let a = vec![cmp(v("X"), CompOp::Lt, v("Y"))];
        let b = vec![cmp(v("Y"), CompOp::Gt, v("X"))];
        assert!(s.equivalent(&a, &b));
        let c = vec![cmp(v("X"), CompOp::Le, v("Y"))];
        assert!(!s.equivalent(&a, &c));
    }

    fn s(x: &str) -> Term {
        Term::sym(x)
    }

    /// A disjunct whose every atom the premise entails syntactically — a
    /// premise atom, a true ground atom, a restated pin in either
    /// orientation — decides the implication on its own.
    #[test]
    fn fully_entailed_disjunct_holds() {
        let premise = vec![
            cmp(v("A"), CompOp::Eq, s("d1")),
            cmp(v("X"), CompOp::Lt, v("Y")),
        ];
        let covered = [
            vec![cmp(v("X"), CompOp::Lt, v("Y"))],
            vec![
                cmp(s("d1"), CompOp::Eq, v("A")),
                cmp(i(1), CompOp::Lt, i(2)),
            ],
            vec![
                cmp(v("A"), CompOp::Eq, s("d1")),
                cmp(v("X"), CompOp::Lt, v("Y")),
            ],
        ];
        for d in covered {
            for solver in [Solver::dense(), Solver::integer()] {
                assert!(solver.implies(&premise, std::slice::from_ref(&d)), "{d:?}");
            }
        }
        // A false ground atom or a clashing pin empties nothing: the
        // disjunct is dropped, and with it the implication.
        for d in [
            vec![cmp(v("X"), CompOp::Lt, v("Y")), cmp(i(2), CompOp::Lt, i(1))],
            vec![
                cmp(v("A"), CompOp::Eq, s("d2")),
                cmp(v("X"), CompOp::Lt, v("Y")),
            ],
        ] {
            assert!(
                !Solver::dense().implies(&premise, std::slice::from_ref(&d)),
                "{d:?}"
            );
        }
    }

    /// Theorem 5.2's pay-floor shape: every reduction pins the department
    /// and bounds one variable, so each disjunct is a unit once the pin is
    /// dropped, and other departments' reductions drop out entirely.
    #[test]
    fn pinned_bounds_reduce_to_units() {
        let solver = Solver::dense();
        let premise = vec![
            cmp(v("A"), CompOp::Eq, s("d1")),
            cmp(i(100), CompOp::Lt, v("B")),
        ];
        let floor = |dept: &str, sal: i64| {
            vec![
                cmp(v("A"), CompOp::Eq, s(dept)),
                cmp(i(sal), CompOp::Lt, v("B")),
            ]
        };
        assert!(solver.implies(&premise, &[floor("d1", 120), floor("d1", 90)]));
        assert!(!solver.implies(&premise, &[floor("d1", 120), floor("d2", 90)]));
        assert!(!solver.implies(&premise, &[floor("d2", 50)]));
    }

    /// Unit-only unions: Example 5.3's cover and the integer gap, with the
    /// premise restating one bound of each interval so every disjunct is
    /// left with a single atom.
    #[test]
    fn unit_only_unions() {
        let premise = vec![
            cmp(i(3), CompOp::Le, v("Z")),
            cmp(v("Z"), CompOp::Le, i(10)),
            cmp(i(4), CompOp::Le, v("Z")),
            cmp(v("Z"), CompOp::Le, i(8)),
        ];
        let low = vec![cmp(i(3), CompOp::Le, v("Z")), cmp(v("Z"), CompOp::Le, i(6))];
        let ex53 = vec![
            cmp(i(5), CompOp::Le, v("Z")),
            cmp(v("Z"), CompOp::Le, i(10)),
        ];
        let gap = vec![
            cmp(i(7), CompOp::Le, v("Z")),
            cmp(v("Z"), CompOp::Le, i(10)),
        ];
        assert!(Solver::dense().implies(&premise, &[low.clone(), ex53.clone()]));
        assert!(Solver::integer().implies(&premise, &[low.clone(), ex53]));
        assert!(!Solver::dense().implies(&premise, &[low.clone(), gap.clone()]));
        assert!(Solver::integer().implies(&premise, &[low.clone(), gap]));
        assert!(!Solver::integer().implies(&premise, &[low]));
    }

    /// Units and multi-atom clauses together: `[4,8] ⊆ [3,6] ∪ (6,∞)`,
    /// where the first disjunct keeps two atoms and the second is a unit.
    #[test]
    fn mixed_units_and_clauses() {
        // An integer pin: the integer solver reasons densely about
        // symbolic constants.
        let premise = vec![
            cmp(v("A"), CompOp::Eq, i(1)),
            cmp(i(4), CompOp::Le, v("Z")),
            cmp(v("Z"), CompOp::Le, i(8)),
        ];
        let clause = vec![
            cmp(v("A"), CompOp::Eq, i(1)),
            cmp(i(3), CompOp::Le, v("Z")),
            cmp(v("Z"), CompOp::Le, i(6)),
        ];
        let unit = vec![cmp(v("A"), CompOp::Eq, i(1)), cmp(i(6), CompOp::Lt, v("Z"))];
        let near = vec![cmp(v("A"), CompOp::Eq, i(1)), cmp(i(7), CompOp::Le, v("Z"))];
        for solver in [Solver::dense(), Solver::integer()] {
            assert!(solver.implies(&premise, &[clause.clone(), unit.clone()]));
            assert!(!solver.implies(&premise, std::slice::from_ref(&clause)));
            assert!(!solver.implies(&premise, std::slice::from_ref(&unit)));
        }
        // (6,7) is uncovered over ℚ, empty over ℤ.
        assert!(!Solver::dense().implies(&premise, &[clause.clone(), near.clone()]));
        assert!(Solver::integer().implies(&premise, &[clause, near]));
    }

    #[test]
    fn many_disjuncts_scale() {
        // X in [0,100] implied by the union of [k, k+1] for k=0..100.
        let s = Solver::dense();
        let premise = vec![
            cmp(i(0), CompOp::Le, v("X")),
            cmp(v("X"), CompOp::Le, i(100)),
        ];
        let disjuncts: Vec<Vec<Comparison>> = (0..100)
            .map(|k| {
                vec![
                    cmp(i(k), CompOp::Le, v("X")),
                    cmp(v("X"), CompOp::Le, i(k + 1)),
                ]
            })
            .collect();
        assert!(s.implies(&premise, &disjuncts));
        // Removing the middle interval breaks the cover.
        let mut gap = disjuncts.clone();
        gap.remove(50);
        assert!(!s.implies(&premise, &gap));
    }
}

#[cfg(test)]
mod proptests {
    use crate::oracle::sat_dense_brute;
    use crate::Solver;
    use ccpi_ir::{CompOp, Comparison, Term};
    use proptest::prelude::*;

    fn comparison() -> impl Strategy<Value = Comparison> {
        let term = prop_oneof![
            (0usize..3).prop_map(|k| Term::var(format!("V{k}"))),
            (0i64..3).prop_map(Term::int),
        ];
        (
            term.clone(),
            prop_oneof![
                Just(CompOp::Lt),
                Just(CompOp::Le),
                Just(CompOp::Eq),
                Just(CompOp::Ne),
            ],
            term,
        )
            .prop_map(|(l, op, r)| Comparison { lhs: l, op, rhs: r })
    }

    /// Semantic implication oracle by refutation through the brute-force
    /// model finder: A ⇒ ⋁D iff A ∧ (¬d for one d per D) is unsat for
    /// every selection — evaluated by exhaustive selection here.
    fn implies_brute(premise: &[Comparison], disjuncts: &[Vec<Comparison>]) -> bool {
        fn go(base: &mut Vec<Comparison>, rest: &[Vec<Comparison>]) -> bool {
            match rest.split_first() {
                None => !sat_dense_brute(base),
                Some((d, tail)) => d.iter().all(|atom| {
                    base.push(atom.negated());
                    let ok = go(base, tail);
                    base.pop();
                    ok
                }),
            }
        }
        if disjuncts.iter().any(Vec::is_empty) {
            return true;
        }
        go(&mut premise.to_vec(), disjuncts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The DPLL implication decision agrees with the brute-force
        /// semantic oracle on random instances.
        #[test]
        fn implies_matches_brute_force(
            premise in prop::collection::vec(comparison(), 0..4),
            disjuncts in prop::collection::vec(
                prop::collection::vec(comparison(), 1..3), 0..3),
        ) {
            let fast = Solver::dense().implies(&premise, &disjuncts);
            let slow = implies_brute(&premise, &disjuncts);
            prop_assert_eq!(fast, slow, "{:?} => {:?}", premise, disjuncts);
        }

        /// The same agreement when disjuncts are biased toward the atoms
        /// unit propagation acts on: premise atoms, pins that restate or
        /// clash with premise pins, and true or false ground atoms.
        #[test]
        fn implies_matches_brute_force_on_shared_atoms(
            premise in prop::collection::vec(comparison(), 0..3),
            pins in prop::collection::vec((0usize..3, 0i64..3), 0..3),
            picks in prop::collection::vec(
                prop::collection::vec((0u8..4, 0usize..9, comparison()), 1..4), 0..4),
        ) {
            let pin = |v: usize, k: i64| Comparison::new(
                Term::var(format!("V{v}")), CompOp::Eq, Term::int(k));
            let mut premise = premise;
            premise.extend(pins.iter().map(|&(v, k)| pin(v, k)));
            let disjuncts: Vec<Vec<Comparison>> = picks
                .iter()
                .map(|d| {
                    d.iter()
                        .map(|(how, n, random)| match how {
                            0 if !premise.is_empty() => premise[n % premise.len()].clone(),
                            1 => pin(n % 3, (n / 3) as i64 % 3),
                            2 => Comparison::new(Term::int((n % 3) as i64), CompOp::Le, Term::int(1)),
                            _ => random.clone(),
                        })
                        .collect()
                })
                .collect();
            let fast = Solver::dense().implies(&premise, &disjuncts);
            let slow = implies_brute(&premise, &disjuncts);
            prop_assert_eq!(fast, slow, "{:?} => {:?}", premise, disjuncts);
        }

        /// Adding a disjunct never falsifies an implication (monotonicity),
        /// and every disjunct is implied by itself.
        #[test]
        fn implication_monotonicity(
            premise in prop::collection::vec(comparison(), 0..4),
            disjuncts in prop::collection::vec(
                prop::collection::vec(comparison(), 1..3), 1..3),
            extra in prop::collection::vec(comparison(), 1..3),
        ) {
            let solver = Solver::dense();
            if solver.implies(&premise, &disjuncts) {
                let mut more = disjuncts.clone();
                more.push(extra);
                prop_assert!(solver.implies(&premise, &more));
            }
            for d in &disjuncts {
                prop_assert!(solver.implies(d, std::slice::from_ref(d)));
            }
        }
    }
}
