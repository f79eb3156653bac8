//! Cross-crate property tests of the paper's theorems: the different
//! algorithms that decide the same question must agree, and the "complete"
//! tests must match brute-force ground truth.

use ccpi_suite::arith::Solver;
use ccpi_suite::containment::klug::cqc_contained_in_union_klug;
use ccpi_suite::containment::subsume::{reduce_containment_to_subsumption, subsumes};
use ccpi_suite::containment::thm51::cqc_contained_in_union;
use ccpi_suite::localtest::{compile_ra, complete_local_test, Cqc, DatalogIntervalTest, IcqTest};
use ccpi_suite::parser::parse_cq;
use ccpi_suite::prelude::*;
use ccpi_suite::storage::tuple;
use ccpi_suite::workload::queries::{containment_pair, cycle_family, CqcConfig};
use ccpi_suite::workload::rng;
use proptest::prelude::*;

/// Theorem 5.1 and Klug's method agree on randomized containment
/// instances, including unions (heavier than the in-crate proptest: uses
/// the workload generator's configurations).
#[test]
fn thm51_and_klug_agree_on_random_instances() {
    let mut r = rng(2024);
    for round in 0..120 {
        let cfg = CqcConfig {
            subgoals: 1 + round % 3,
            duplication: 1 + round % 2,
            variables: 3,
            comparisons: round % 3,
            ..CqcConfig::default()
        };
        let (c1, c2) = containment_pair(&cfg, &mut r);
        let a = cqc_contained_in_union(&c1, std::slice::from_ref(&c2), Solver::dense()).unwrap();
        let b = cqc_contained_in_union_klug(&c1, std::slice::from_ref(&c2)).unwrap();
        assert_eq!(a, b, "round {round}: {c1} vs {c2}");
    }
}

/// The cycle family: containment of the k-cycle in `r(A,B) & A <= B`
/// holds for every k ≥ 2 (any cycle contains a non-descending edge), and
/// both methods see it.
#[test]
fn cycle_family_containment() {
    for k in 2..=4 {
        let (c1, c2) = cycle_family(k);
        let a = cqc_contained_in_union(&c1, std::slice::from_ref(&c2), Solver::dense()).unwrap();
        assert!(a, "k = {k}");
        let b = cqc_contained_in_union_klug(&c1, std::slice::from_ref(&c2)).unwrap();
        assert!(b, "k = {k} (klug)");
    }
}

/// Theorem 3.2 on the workload generator's pure-CQ pairs: Q ⊆ R iff
/// Q′ subsumed by R′.
#[test]
fn theorem_3_2_on_random_pairs() {
    use ccpi_suite::containment::cq::cq_contained;
    let mut r = rng(5150);
    let cfg = CqcConfig {
        comparisons: 0,
        subgoals: 2,
        duplication: 2,
        variables: 3,
        ..CqcConfig::default()
    };
    for round in 0..80 {
        let (q1, q2) = containment_pair(&cfg, &mut r);
        let direct = cq_contained(&q1, &q2).unwrap();
        let (qc, rc) = reduce_containment_to_subsumption(&q1, &q2);
        let via = subsumes(&[rc], &qc, Solver::dense()).unwrap();
        assert!(via.exact);
        assert_eq!(direct, via.answer.is_yes(), "round {round}: {q1} vs {q2}");
    }
}

/// Theorem 5.2 completeness against brute force, on randomized interval
/// workloads over the integer domain (where a finite witness grid is
/// exhaustive).
#[test]
fn thm52_complete_on_random_interval_workloads() {
    use ccpi_suite::datalog::constraint_violated;
    let cq = parse_cq("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.").unwrap();
    let cqc = Cqc::with_local(cq.clone(), "l").unwrap();
    let constraint = Constraint::single(cq.to_rule()).unwrap();
    let mut r = rng(99);
    use rand::RngExt;

    for round in 0..40 {
        let n = r.random_range(0..5usize);
        let tuples: Vec<(i64, i64)> = (0..n)
            .map(|_| {
                let a = r.random_range(0..10i64);
                (a, r.random_range(a..=10i64))
            })
            .collect();
        let local = Relation::from_tuples(2, tuples.iter().map(|&(a, b)| tuple![a, b]));
        let a = r.random_range(0..10i64);
        let t = (a, r.random_range(a..=10i64));

        let verdict =
            complete_local_test(&cqc, &tuple![t.0, t.1], &local, Solver::integer()).holds();

        // Brute force over single remote points 0..=10.
        let mut witness = false;
        for z in 0..=10i64 {
            let mut db = Database::new();
            db.declare("l", 2, Locality::Local).unwrap();
            db.declare("r", 1, Locality::Remote).unwrap();
            for &(x, y) in &tuples {
                db.insert("l", tuple![x, y]).unwrap();
            }
            db.insert("r", tuple![z]).unwrap();
            if constraint_violated(&constraint, &db).unwrap() {
                continue; // constraint must hold before
            }
            db.insert("l", tuple![t.0, t.1]).unwrap();
            if constraint_violated(&constraint, &db).unwrap() {
                witness = true;
                break;
            }
        }
        assert_eq!(verdict, !witness, "round {round}: {tuples:?} + {t:?}");
    }
}

/// Theorem 5.3 ≡ Theorem 5.2 on random arithmetic-free workloads (wider
/// than the in-crate grid: random relations and inserts).
#[test]
fn thm53_plan_equals_thm52_randomized() {
    use rand::RngExt;
    let shapes = [
        "panic :- l(X,Y) & r(X) & s(Y).",
        "panic :- l(X,X) & r(X).",
        "panic :- l(X,Y) & r(X,Z) & r(Y,Z).",
        "panic :- l(X,b) & r(X,a).",
    ];
    let mut r = rng(31337);
    for shape in shapes {
        let cqc = Cqc::with_local(parse_cq(shape).unwrap(), "l").unwrap();
        let plan = compile_ra(&cqc).unwrap();
        for _ in 0..40 {
            let n = r.random_range(0..4usize);
            let vals = ["a", "b", "c"];
            let local = Relation::from_tuples(
                2,
                (0..n).map(|_| {
                    tuple![
                        vals[r.random_range(0..3usize)],
                        vals[r.random_range(0..3usize)]
                    ]
                }),
            );
            let t = tuple![
                vals[r.random_range(0..3usize)],
                vals[r.random_range(0..3usize)]
            ];
            assert_eq!(
                plan.test(&t, &local).holds(),
                complete_local_test(&cqc, &t, &local, Solver::dense()).holds(),
                "{shape}: insert {t} into {local:?}"
            );
        }
    }
}

/// Theorem 6.1 ≡ Theorem 5.2 ≡ interval runtime on random windows.
#[test]
fn thm61_datalog_equals_thm52_randomized() {
    use rand::RngExt;
    let cqc = Cqc::with_local(
        parse_cq("panic :- l(X,Y) & r(Z) & X < Z & Z < Y.").unwrap(),
        "l",
    )
    .unwrap();
    use ccpi_suite::arith::Domain;
    let icq = IcqTest::new(&cqc, Domain::Dense).unwrap();
    let datalog = DatalogIntervalTest::new(icq.clone()).unwrap();
    let mut r = rng(808);
    for round in 0..60 {
        let n = r.random_range(0..5usize);
        let local = Relation::from_tuples(
            2,
            (0..n).map(|_| {
                let a = r.random_range(0..12i64);
                tuple![a, r.random_range(a..=12i64)]
            }),
        );
        let a = r.random_range(0..12i64);
        let t = tuple![a, r.random_range(a..=12i64)];
        let v1 = icq.test(&t, &local).holds();
        let v2 = datalog.test(&t, &local).holds();
        let v3 = complete_local_test(&cqc, &t, &local, Solver::dense()).holds();
        assert_eq!(v1, v2, "round {round}: {local:?} + {t}");
        assert_eq!(v1, v3, "round {round}: {local:?} + {t}");
    }
}

/// The union phenomenon is *required*: on many random instances the
/// insert is covered by the union but by no single tuple — the shape that
/// separates this paper from its single-tuple predecessors.
#[test]
fn union_coverage_happens_in_practice() {
    use rand::RngExt;
    let cqc = Cqc::with_local(
        parse_cq("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.").unwrap(),
        "l",
    )
    .unwrap();
    let mut r = rng(4242);
    let mut union_needed = 0usize;
    for _ in 0..200 {
        let n = r.random_range(2..6usize);
        let tuples: Vec<(i64, i64)> = (0..n)
            .map(|_| {
                let a = r.random_range(0..15i64);
                (a, r.random_range(a..=15i64))
            })
            .collect();
        let local = Relation::from_tuples(2, tuples.iter().map(|&(x, y)| tuple![x, y]));
        let a = r.random_range(0..15i64);
        let t = tuple![a, r.random_range(a..=15i64)];
        if !complete_local_test(&cqc, &t, &local, Solver::dense()).holds() {
            continue;
        }
        let single = tuples.iter().any(|&(x, y)| {
            let one = Relation::from_tuples(2, [tuple![x, y]]);
            complete_local_test(&cqc, &t, &one, Solver::dense()).holds()
        });
        if !single {
            union_needed += 1;
        }
    }
    assert!(union_needed > 0, "expected some union-only coverings");
}

/// `random_cqc` with some positive arguments turned into integer
/// constants — the shape a reduction `RED(t)` has, whose rectification
/// pins variables to constants.
fn with_positive_constants(mut q: Cq, r: &mut rand::rngs::StdRng) -> Cq {
    use rand::RngExt;
    for atom in &mut q.positives {
        for arg in &mut atom.args {
            if r.random_bool(0.35) {
                *arg = ccpi_suite::ir::Term::int(r.random_range(0..2i64));
            }
        }
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A prepared union driven through random `add_member` /
    /// `remove_member` sequences answers every probe exactly like a fresh
    /// union over the surviving members and like the unindexed one-shot
    /// test, in the dense and the integer domain.
    #[test]
    fn prepared_union_add_remove_matches_fresh_union(
        seed in any::<u64>(),
        steps in prop::collection::vec((0u8..3, 0usize..5), 1..12),
    ) {
        use ccpi_suite::containment::thm51::PreparedUnion;
        use ccpi_suite::workload::queries::random_cqc;
        use rand::RngExt;
        let mut r = rng(seed);
        let cfg = CqcConfig { subgoals: 2, variables: 3, comparisons: 2, constants: 3, ..CqcConfig::default() };
        let pool: Vec<Cq> = (0..5).map(|_| with_positive_constants(random_cqc(&cfg, &mut r), &mut r)).collect();
        // Probes share one shape: the same positives with different
        // constants and comparisons rectify to the same subgoals.
        let shape = with_positive_constants(random_cqc(&cfg, &mut r), &mut r);
        let probes: Vec<Cq> = (0..3)
            .map(|_| {
                let mut p = shape.clone();
                for arg in p.positives.iter_mut().flat_map(|a| a.args.iter_mut()) {
                    if arg.is_const() {
                        *arg = ccpi_suite::ir::Term::int(r.random_range(0..2i64));
                    }
                }
                p.comparisons = random_cqc(&cfg, &mut r).comparisons;
                p.comparisons.retain(|c| c.vars().all(|v| shape.vars().contains(v)));
                p
            })
            .collect();
        for solver in [Solver::dense(), Solver::integer()] {
            let mut union = PreparedUnion::new(&probes[0]).unwrap();
            let mut held: Vec<Cq> = Vec::new();
            for &(op, k) in &steps {
                let member = &pool[k];
                if op < 2 {
                    union.add_member(member).unwrap();
                    held.push(member.clone());
                } else if let Some(at) = held.iter().position(|m| m == member) {
                    prop_assert!(union.remove_member(member).unwrap());
                    held.remove(at);
                }
                prop_assert_eq!(union.members(), held.len());
                let mut fresh = PreparedUnion::new(&probes[0]).unwrap();
                for m in &held {
                    fresh.add_member(m).unwrap();
                }
                prop_assert_eq!(union.disjunct_count(), fresh.disjunct_count());
                for p in &probes {
                    let kept = union.contains(p, solver).unwrap();
                    prop_assert_eq!(kept, fresh.contains(p, solver).unwrap(), "{} in {:?}", p, held);
                    prop_assert_eq!(kept, cqc_contained_in_union(p, &held, solver).unwrap(), "{} in {:?}", p, held);
                }
            }
        }
    }
}
