//! **Theorem 5.2** — the complete local test via reductions.
//!
//! > Let `C` be a CQC and let `t` be a tuple inserted into the local
//! > relation `L` for predicate `l`. Assume `C` holds before the update.
//! > Then the complete local test for guaranteeing that `C` holds after
//! > the update is whether `RED(t,l,C) ⊆ ⋃_{s∈L} RED(s,l,C)`.
//!
//! The containment on the right is decided exactly by Theorem 5.1's union
//! test. Because CQCs have arithmetic, containment in the union may hold
//! without containment in any single member (Example 5.3: `RED((4,8)) ⊆
//! RED((3,6)) ∪ RED((5,10))`) — "the reason that the results of Gupta and
//! Ullman \[1992\] or Gupta and Widom \[1993\] cannot be extended to allow
//! arithmetic comparisons".
//!
//! The multi-constraint extension ("Theorem 5.2 extends to the case where
//! several constraints are assumed to hold prior to the update. We then
//! add to the union on the right the reductions of the other constraints
//! by all tuples in L") is [`complete_local_test_with`].

use crate::cqc::Cqc;
use ccpi_arith::Solver;
use ccpi_containment::thm51::PreparedUnion;
use ccpi_ir::{Cq, IrError};
use ccpi_storage::{Relation, Tuple};

/// The verdict of a complete local test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LocalTestResult {
    /// The constraint is guaranteed to hold after the insertion.
    Holds,
    /// Inconclusive: some remote state would make the constraint fail —
    /// a remote check is required (the test is *complete*, so this is not
    /// conservatism).
    Unknown,
}

impl LocalTestResult {
    /// `true` for [`LocalTestResult::Holds`].
    pub fn holds(self) -> bool {
        matches!(self, LocalTestResult::Holds)
    }
}

/// The Theorem 5.2 complete local test for inserting `t` into the local
/// relation `local` (which must hold the **pre-insertion** state).
pub fn complete_local_test(
    cqc: &Cqc,
    t: &Tuple,
    local: &Relation,
    solver: Solver,
) -> LocalTestResult {
    complete_local_test_with(cqc, t, local, &[], solver)
}

/// Theorem 5.2 with extra reductions from other held constraints added to
/// the union (their reductions must be computed against the same local
/// relation; see `ccpi::ConstraintManager` for the plumbing).
pub fn complete_local_test_with(
    cqc: &Cqc,
    t: &Tuple,
    local: &Relation,
    extra_reductions: &[Cq],
    solver: Solver,
) -> LocalTestResult {
    let Some(red_t) = cqc.red(t) else {
        // Example 5.4: no reduction — the insertion cannot violate C.
        return LocalTestResult::Holds;
    };
    let decide = || -> Result<bool, IrError> {
        let mut union = prepare_union(cqc, &red_t, local)?;
        for r in extra_reductions {
            union.add_member(r)?;
        }
        union.contains(&red_t, solver)
    };
    match decide() {
        Ok(true) => LocalTestResult::Holds,
        Ok(false) => LocalTestResult::Unknown,
        // Validation failures cannot happen for a validated CQC; be
        // conservative if they somehow do.
        Err(_) => LocalTestResult::Unknown,
    }
}

/// Prepares the Theorem 5.2 union `⋃_{s∈L} RED(s,l,C)` for probing with
/// reductions of insertions into `local`. `shape_of` is any representative
/// reduction of `cqc` (reductions of a fixed CQC all share one rectified
/// shape, which is what makes the prepared union reusable across probes).
///
/// Callers that keep the result alongside the relation (see
/// `ccpi::ConstraintManager`) maintain it with
/// [`PreparedUnion::add_member`] and [`PreparedUnion::remove_member`] as
/// tuples are inserted and deleted instead of re-preparing per check.
pub fn prepare_union(cqc: &Cqc, shape_of: &Cq, local: &Relation) -> Result<PreparedUnion, IrError> {
    let mut union = PreparedUnion::new(shape_of)?;
    extend_union(&mut union, cqc, local)?;
    Ok(union)
}

/// Adds `RED(s,l,C)` for every `s` in `local` to an existing prepared
/// union — Theorem 5.2's multi-constraint extension adds *other* held
/// constraints' reductions this way.
pub fn extend_union(union: &mut PreparedUnion, cqc: &Cqc, local: &Relation) -> Result<(), IrError> {
    for s in local.iter() {
        if let Some(r) = cqc.red(s) {
            union.add_member(&r)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccpi_parser::parse_cq;
    use ccpi_storage::tuple;

    fn forbidden() -> Cqc {
        let cq = parse_cq("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.").unwrap();
        Cqc::with_local(cq, "l").unwrap()
    }

    fn rel(tuples: &[(i64, i64)]) -> Relation {
        Relation::from_tuples(2, tuples.iter().map(|&(a, b)| tuple![a, b]))
    }

    /// Example 5.3: with (3,6) and (5,10) in L, inserting (4,8) is safe.
    #[test]
    fn example_5_3_safe_insertion() {
        let c = forbidden();
        let local = rel(&[(3, 6), (5, 10)]);
        assert!(complete_local_test(&c, &tuple![4, 8], &local, Solver::dense()).holds());
    }

    /// …but inserting (2,8) is not (the point 2 < 3 is uncovered), and
    /// neither is (4,11).
    #[test]
    fn example_5_3_unsafe_insertions() {
        let c = forbidden();
        let local = rel(&[(3, 6), (5, 10)]);
        assert!(!complete_local_test(&c, &tuple![2, 8], &local, Solver::dense()).holds());
        assert!(!complete_local_test(&c, &tuple![4, 11], &local, Solver::dense()).holds());
    }

    /// A gap between the existing intervals (dense domain) is fatal even
    /// when both endpoints are covered.
    #[test]
    fn gap_in_cover_is_detected() {
        let c = forbidden();
        let local = rel(&[(3, 5), (7, 10)]);
        assert!(!complete_local_test(&c, &tuple![4, 8], &local, Solver::dense()).holds());
        // Over the integers, though, [4,8] ⊆ [3,5] ∪ [6,10]:
        let local2 = rel(&[(3, 5), (6, 10)]);
        assert!(complete_local_test(&c, &tuple![4, 8], &local2, Solver::integer()).holds());
        assert!(!complete_local_test(&c, &tuple![4, 8], &local2, Solver::dense()).holds());
    }

    #[test]
    fn empty_local_relation_only_covers_degenerate_inserts() {
        let c = forbidden();
        let empty = Relation::new(2);
        // [5,4] is an empty interval — its reduction has unsatisfiable
        // arithmetic, so it is contained in the empty union.
        assert!(complete_local_test(&c, &tuple![5, 4], &empty, Solver::dense()).holds());
        // A real interval is not.
        assert!(!complete_local_test(&c, &tuple![4, 5], &empty, Solver::dense()).holds());
    }

    #[test]
    fn duplicate_insertion_is_always_safe() {
        let c = forbidden();
        let local = rel(&[(3, 6)]);
        assert!(complete_local_test(&c, &tuple![3, 6], &local, Solver::dense()).holds());
    }

    /// Example 5.4: an insertion whose reduction does not exist is safe.
    #[test]
    fn example_5_4_no_reduction_is_safe() {
        let cq = parse_cq("panic :- l(X,Y,Y) & r(Y,Z,X).").unwrap();
        let c = Cqc::with_local(cq, "l").unwrap();
        let local = Relation::new(3);
        assert!(complete_local_test(&c, &tuple!["a", "b", "c"], &local, Solver::dense()).holds());
        // With the reduction existing, only an exact duplicate covers it.
        let mut local = Relation::new(3);
        local.insert(tuple!["a", "b", "b"]);
        assert!(complete_local_test(&c, &tuple!["a", "b", "b"], &local, Solver::dense()).holds());
        assert!(!complete_local_test(&c, &tuple!["a", "c", "c"], &local, Solver::dense()).holds());
    }

    /// Multi-constraint extension: another constraint's reductions join
    /// the union.
    #[test]
    fn extra_reductions_strengthen_the_test() {
        let c = forbidden();
        let local = rel(&[(3, 6)]);
        // Alone, (5,8) is not covered.
        assert!(!complete_local_test(&c, &tuple![5, 8], &local, Solver::dense()).holds());
        // Suppose another held constraint forbids r-points in [5,10]
        // outright (its reduction is data-independent here).
        let other = parse_cq("panic :- r(Z) & 5 <= Z & Z <= 10.").unwrap();
        assert!(
            complete_local_test_with(&c, &tuple![5, 8], &local, &[other], Solver::dense()).holds()
        );
    }

    /// Ground-truth cross-check: when the local test says Holds, no remote
    /// relation state can make the constraint violated after the insert
    /// (checked over a grid of small remote states); when it says Unknown,
    /// some state does.
    #[test]
    fn completeness_against_brute_force_remote_states() {
        use ccpi_datalog::constraint_violated;
        use ccpi_ir::Constraint;
        use ccpi_storage::{Database, Locality};

        let c = forbidden();
        let constraint = Constraint::single(c.cq().to_rule()).unwrap();
        let locals: Vec<Vec<(i64, i64)>> = vec![
            vec![],
            vec![(3, 6)],
            vec![(3, 6), (5, 10)],
            vec![(3, 5), (7, 9)],
        ];
        let inserts = [(4i64, 8i64), (3, 6), (6, 9), (1, 2), (5, 5)];
        // Candidate remote points: enough to witness any uncovered gap in
        // this small integer workspace, including midpoints (dense check
        // needs rationals; integer solver matches this integral grid).
        let remote_points: Vec<i64> = (0..=12).collect();

        for l in &locals {
            let local_rel = rel(l);
            for &(a, b) in &inserts {
                let verdict = complete_local_test(&c, &tuple![a, b], &local_rel, Solver::integer());
                // Brute force: does some remote state violate C after the
                // insert, given C held before? Single-point states suffice
                // (the constraint is monotone in r).
                let mut witness = false;
                for &z in &remote_points {
                    let mut db = Database::new();
                    db.declare("l", 2, Locality::Local).unwrap();
                    db.declare("r", 1, Locality::Remote).unwrap();
                    for &(x, y) in l {
                        db.insert("l", tuple![x, y]).unwrap();
                    }
                    db.insert("r", tuple![z]).unwrap();
                    let before = constraint_violated(&constraint, &db).unwrap();
                    if before {
                        continue; // C must hold before the update
                    }
                    db.insert("l", tuple![a, b]).unwrap();
                    if constraint_violated(&constraint, &db).unwrap() {
                        witness = true;
                        break;
                    }
                }
                assert_eq!(
                    verdict.holds(),
                    !witness,
                    "insert ({a},{b}) into {l:?}: local test vs brute force"
                );
            }
        }
    }
}
