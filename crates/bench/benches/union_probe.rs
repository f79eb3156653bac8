//! The Theorem 5.2 union behind the E6 salary constraints: what a
//! full build, one probe, and a delete of a stored row followed by
//! a re-probe cost at 10⁴ and 10⁵ employees. The union holds pay-floor's
//! and pay-ceiling's reductions over `emp`; every reduction pins its
//! department, so a probe reads one department's bucket and its cost
//! should not grow with the relation.

use ccpi::prelude::{ConstraintManager, Update};
use ccpi_arith::Solver;
use ccpi_bench::throughput::{config_at, CONSTRAINTS};
use ccpi_ir::Cq;
use ccpi_localtest::{extend_union, prepare_union, Cqc};
use ccpi_parser::parse_cq;
use ccpi_storage::{Database, Tuple};
use ccpi_workload::emp::{database as emp_database, employee};
use ccpi_workload::rng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// pay-floor and pay-ceiling as `Cqc`s over the local `emp`.
fn salary_cqcs(db: &Database) -> [Cqc; 2] {
    let cqc = |src: &str| Cqc::new(parse_cq(src).unwrap(), |p| db.locality(p)).unwrap();
    [cqc(CONSTRAINTS[1].1), cqc(CONSTRAINTS[2].1)]
}

fn bench_union_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("union_probe");
    g.sample_size(10);
    for n in [10_000usize, 100_000] {
        let cfg = config_at(n);
        let db = emp_database(&cfg, &mut rng(7));
        let emp = db.relation("emp").unwrap();
        let [floor, ceiling] = salary_cqcs(&db);
        // 400 fresh employees; their pay-floor reductions are the probes.
        let mut r = rng(8);
        let probes: Vec<Cq> = (0..400)
            .filter_map(|k| floor.red(&employee(&cfg, &mut r, n + k)))
            .collect();
        let build = || {
            let mut union = prepare_union(&floor, &probes[0], emp).unwrap();
            extend_union(&mut union, &ceiling, emp).unwrap();
            union
        };
        g.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| b.iter(build));

        let union = build();
        let mut next = probes.iter().cycle();
        g.bench_with_input(BenchmarkId::new("probe", n), &n, |b, _| {
            b.iter(|| {
                let probe = next.next().unwrap();
                black_box(union.contains(probe, Solver::dense()).unwrap())
            })
        });

        // Through the manager: delete a stored row (maintaining both
        // unions), re-probe with an insert, and put the row back.
        let mut mgr = ConstraintManager::new(db.clone());
        mgr.set_parallel_checking(Some(false));
        for (name, src) in CONSTRAINTS {
            mgr.add_constraint(name, src).unwrap();
        }
        let stored: Vec<Tuple> = emp.iter().take(400).cloned().collect();
        let inserts: Vec<Update> = (0..400)
            .map(|k| Update::insert("emp", employee(&cfg, &mut r, 2 * n + k)))
            .collect();
        mgr.check_update(&inserts[0]).unwrap();
        let builds = mgr.union_builds();
        let mut k = 0usize;
        g.bench_with_input(BenchmarkId::new("delete_reprobe", n), &n, |b, _| {
            b.iter(|| {
                let row = &stored[k % stored.len()];
                mgr.apply_update(&Update::delete("emp", row.clone()))
                    .unwrap();
                let report = mgr.check_update(&inserts[k % inserts.len()]).unwrap();
                mgr.apply_update(&Update::insert("emp", row.clone()))
                    .unwrap();
                k += 1;
                black_box(report)
            })
        });
        assert_eq!(
            mgr.union_builds(),
            builds,
            "a maintained union is never rebuilt"
        );
    }
    g.finish();
}

criterion_group!(benches, bench_union_probe);
criterion_main!(benches);
