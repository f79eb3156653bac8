//! The three workloads: each one's initial store, constraints, client
//! shape, and the seeded update stream the writer submits.
//!
//! Streams are pure functions of `(workload, seed)`: the server
//! receives only the updates they generate, so the same seed yields a
//! byte-identical stream (and, through the serial twin, an identical
//! verdict sequence), and a different seed yields a different one.

use ccpi_ir::Value;
use ccpi_storage::wirefmt::{encode_str, encode_tuple, fnv1a64};
use ccpi_storage::{tuple, Database, Locality, Tuple, Update};
use ccpi_workload::emp::{database as emp_database, dept_name, employee, update_stream, EmpConfig};
use ccpi_workload::rng;
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::VecDeque;

/// The E13 sign constraint over `acct(Id, Amount)`.
const ACCT_CONSTRAINTS: [(&str, &str); 1] = [("positive", "panic :- acct(I,A) & A < 0.")];

/// The E6 trio: referential integrity plus both salary-range bounds.
const EMP_CONSTRAINTS: [(&str, &str); 3] = [
    ("referential", "panic :- emp(E,D,S) & not dept(D)."),
    (
        "pay-floor",
        "panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low.",
    ),
    (
        "pay-ceiling",
        "panic :- emp(E,D,S) & salRange(D,Low,High) & S > High.",
    ),
];

/// The seed of the `emp-mixed` store (the one E9 and E14 measure).
const EMP_STORE_SEED: u64 = 7;

/// The seed of the `emp-mixed` warm-up updates (the stream E9 measures).
const EMP_WARM_UP_SEED: u64 = 11;

/// Employees in the `emp-mixed` store.
const EMPLOYEES: usize = 10_000;

/// Rows of the 1-ary `branch` relation the `commit-*` reader scans.
pub const BRANCH_ROWS: usize = 8;

/// Every this many `commit-*` requests, one swaps a `branch` row.
const BRANCH_SWAP_EVERY: u64 = 4;

/// Whether a manager fans each check out over one thread per constraint
/// (`ConstraintManager::set_parallel_checking`); the server and the twin
/// both use this. By default it does whenever it has more than one
/// constraint and the host more than one core, which puts the three
/// `emp-mixed` checkers on the two vCPUs of the measuring host: the
/// admission rate then moves with how the scheduler places them
/// (45–55 updates/s in back-to-back runs of one stream, against 36–38
/// checking sequentially). The benchmark checks sequentially; the
/// `commit-*` workloads have one constraint and check sequentially
/// either way.
pub const PARALLEL_CHECKING: Option<bool> = Some(false);

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `acct` held at 10³ rows: the commit path dominates.
    CommitSmall,
    /// `acct` held at 10⁵ rows: snapshot copies dominate.
    CommitLarge,
    /// The E6 trio over 10⁴ employees: checking dominates.
    EmpMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CommitSmall,
        Workload::CommitLarge,
        Workload::EmpMixed,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CommitSmall => "commit-small",
            Workload::CommitLarge => "commit-large",
            Workload::EmpMixed => "emp-mixed",
        }
    }

    /// Updates per `Submit` request.
    pub fn batch(self) -> usize {
        match self {
            Workload::CommitSmall | Workload::CommitLarge => 8,
            Workload::EmpMixed => 1,
        }
    }

    /// Submits the writer sends before the timed phase starts. The
    /// `commit-small` set-up is otherwise mostly process start, whose
    /// time varies more than the commit path's.
    pub fn warmup_submits(self) -> usize {
        match self {
            Workload::CommitSmall => 256,
            Workload::CommitLarge | Workload::EmpMixed => 16,
        }
    }

    /// The relation the open-loop reader scans.
    pub fn read_relation(self) -> &'static str {
        match self {
            Workload::CommitSmall | Workload::CommitLarge => "branch",
            Workload::EmpMixed => "dept",
        }
    }

    fn acct_rows(self) -> usize {
        match self {
            Workload::CommitSmall => 1_000,
            Workload::CommitLarge => 100_000,
            Workload::EmpMixed => 0,
        }
    }

    pub fn constraints(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::CommitSmall | Workload::CommitLarge => &ACCT_CONSTRAINTS,
            Workload::EmpMixed => &EMP_CONSTRAINTS,
        }
    }

    /// The initial store. Every constraint holds on it.
    pub fn database(self, seed: u64) -> Database {
        match self {
            // One fixed store, as in E9 and E14: the seed varies the
            // update stream only, so runs with different seeds differ in
            // the order of the same kinds of work, not in its amount.
            Workload::EmpMixed => emp_database(&emp_config(), &mut rng(EMP_STORE_SEED)),
            Workload::CommitSmall | Workload::CommitLarge => {
                let mut db = Database::new();
                db.declare("acct", 2, Locality::Local)
                    .expect("fresh database");
                db.declare("branch", 1, Locality::Local)
                    .expect("fresh database");
                for b in 0..BRANCH_ROWS as i64 {
                    db.insert("branch", tuple![b]).expect("declared");
                }
                let mut r = rng(seed);
                for id in 0..self.acct_rows() as i64 {
                    let amount: i64 = r.random_range(0..1_000_000);
                    db.insert("acct", tuple![id, amount]).expect("declared");
                }
                db
            }
        }
    }

    /// The writer's update stream.
    pub fn stream(self, seed: u64) -> Stream {
        match self {
            Workload::EmpMixed => Stream::Emp {
                warm_up: emp_warm_up(self.warmup_submits()).into(),
                rng: rng(seed),
                k: 0,
                block: VecDeque::new(),
            },
            Workload::CommitSmall | Workload::CommitLarge => {
                let live: VecDeque<Tuple> = self
                    .database(seed)
                    .relation("acct")
                    .expect("declared")
                    .iter()
                    .cloned()
                    .collect();
                Stream::Acct(AcctStream {
                    rng: rng(!seed),
                    target: live.len(),
                    live,
                    inserts: 0,
                    first_id: self.acct_rows() as i64,
                    requests: 0,
                    oldest_branch: 0,
                })
            }
        }
    }
}

/// The first `n` `emp-mixed` updates, the same for every seed: how long
/// a warm-up takes depends on how many of its emp inserts rebuild the
/// local-test union, and `setup_s` should not depend on the seed.
fn emp_warm_up(n: usize) -> Vec<Update> {
    update_stream(&emp_config(), &mut rng(EMP_WARM_UP_SEED), n)
}

fn emp_config() -> EmpConfig {
    EmpConfig {
        employees: EMPLOYEES,
        departments: 50,
        dangling_fraction: 0.0,
        salary_range: (10, 200),
    }
}

/// The `acct` stream: fresh inserts alternate with deletes of the
/// oldest live row, holding the relation at its initial size.
/// One insert in 16 carries a negative amount and must be rejected.
///
/// Every [`BRANCH_SWAP_EVERY`]th request also opens by deleting the
/// oldest `branch` row and closes by inserting a fresh one, so a reader
/// that saw the middle of a commit group would scan 7 rows, not 8.
pub struct AcctStream {
    rng: StdRng,
    live: VecDeque<Tuple>,
    target: usize,
    inserts: i64,
    first_id: i64,
    requests: u64,
    oldest_branch: i64,
}

impl AcctStream {
    fn next_request(&mut self, batch: usize) -> Vec<Update> {
        let swap = batch >= 2 && self.requests.is_multiple_of(BRANCH_SWAP_EVERY);
        self.requests += 1;
        if !swap {
            return (0..batch).map(|_| self.next_update()).collect();
        }
        let old = self.oldest_branch;
        self.oldest_branch += 1;
        let mut request = vec![Update::delete("branch", tuple![old])];
        request.extend((2..batch).map(|_| self.next_update()));
        request.push(Update::insert("branch", tuple![old + BRANCH_ROWS as i64]));
        request
    }

    fn next_update(&mut self) -> Update {
        if self.live.len() > self.target {
            let oldest = self.live.pop_front().expect("above target");
            return Update::delete("acct", oldest);
        }
        let k = self.inserts;
        self.inserts += 1;
        let id = self.first_id + k;
        if k % 16 == 15 {
            let amount: i64 = self.rng.random_range(1..1_000);
            Update::insert("acct", tuple![id, -amount])
        } else {
            let amount: i64 = self.rng.random_range(0..1_000_000);
            let row = tuple![id, amount];
            self.live.push_back(row.clone());
            Update::insert("acct", row)
        }
    }
}

/// The writer's update stream.
pub enum Stream {
    Acct(AcctStream),
    /// The E6 mix: the seed-independent warm-up, then blocks of
    /// [`emp_block`] kinds, each update drawn as `update_stream` draws
    /// one of its kind, without a fixed length.
    Emp {
        warm_up: VecDeque<Update>,
        rng: StdRng,
        k: usize,
        block: VecDeque<EmpKind>,
    },
}

/// The four kinds of update in the E6 mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EmpKind {
    InsertEmp,
    DeleteEmp,
    InsertDept,
    DeleteDept,
}

/// The kinds of the next eight `emp-mixed` updates: two of each, as
/// `update_stream` draws them on average, with the emp updates in the
/// order insert, insert, delete, delete and the dept updates shuffled
/// into seeded places among them.
///
/// An emp delete invalidates the local-test union and the next emp
/// insert rebuilds it (~120 ms, against a few ms at most for any other
/// update), so the rebuilds set the run's admission rate.
/// `update_stream` draws each kind independently, so the rebuilds among
/// a run's ~900 updates vary from seed to seed (112 ± 6.5, an
/// interquartile range of 8% of the median, over 2,000 simulated seeds).
/// In blocks there is exactly one per block: the rate `update_stream`
/// has on average, one update in eight.
pub fn emp_block(rng: &mut StdRng) -> VecDeque<EmpKind> {
    use EmpKind::*;
    let mut dept = [InsertDept, InsertDept, DeleteDept, DeleteDept];
    shuffle(&mut dept, rng);
    let mut is_dept = [true, true, true, true, false, false, false, false];
    shuffle(&mut is_dept, rng);
    let mut emp = [InsertEmp, InsertEmp, DeleteEmp, DeleteEmp].into_iter();
    let mut dept = dept.into_iter();
    is_dept
        .iter()
        .map(|&d| if d { dept.next() } else { emp.next() }.expect("four of each"))
        .collect()
}

/// Fisher–Yates.
fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.random_range(0..=i));
    }
}

impl Stream {
    pub fn next_update(&mut self) -> Update {
        match self {
            Stream::Acct(s) => s.next_update(),
            Stream::Emp {
                warm_up,
                rng,
                k,
                block,
            } => {
                if let Some(u) = warm_up.pop_front() {
                    return u;
                }
                if block.is_empty() {
                    *block = emp_block(rng);
                }
                let cfg = emp_config();
                let id = 1_000_000 + *k;
                *k += 1;
                let dept =
                    |rng: &mut StdRng| tuple![dept_name(rng.random_range(0..cfg.departments * 2))];
                match block.pop_front().expect("refilled") {
                    EmpKind::InsertEmp => Update::insert("emp", employee(&cfg, rng, id)),
                    EmpKind::DeleteEmp => {
                        let victim = rng.random_range(0..cfg.employees);
                        Update::delete("emp", employee(&cfg, rng, victim))
                    }
                    EmpKind::InsertDept => Update::insert("dept", dept(rng)),
                    EmpKind::DeleteDept => Update::delete("dept", dept(rng)),
                }
            }
        }
    }

    /// The next `Submit` request.
    pub fn next_request(&mut self, batch: usize) -> Vec<Update> {
        match self {
            Stream::Acct(s) => s.next_request(batch),
            Stream::Emp { .. } => (0..batch).map(|_| self.next_update()).collect(),
        }
    }
}

/// The amount-sign rule `acct` verdicts must follow: deletes and
/// non-negative inserts are admitted, negative inserts rejected. `None`
/// where no closed-form rule exists and only the serial twin decides.
pub fn expected_verdict(update: &Update) -> Option<bool> {
    if update.pred().as_str() != "acct" {
        return None;
    }
    match update.tuple().as_slice().get(1) {
        Some(Value::Int(amount)) => Some(!update.is_insert() || *amount >= 0),
        _ => None,
    }
}

/// Folds `updates` into a running FNV-1a digest of their wire encoding.
pub fn digest(acc: u64, updates: &[Update]) -> u64 {
    let mut buf = acc.to_le_bytes().to_vec();
    for u in updates {
        buf.push(u.is_insert() as u8);
        encode_str(u.pred().as_str(), &mut buf);
        encode_tuple(u.tuple(), &mut buf);
    }
    fnv1a64(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(w: Workload, seed: u64, n: usize) -> u64 {
        let mut s = w.stream(seed);
        digest(0, &s.next_request(n))
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            assert_eq!(prefix(w, 7, 500), prefix(w, 7, 500));
            assert_ne!(prefix(w, 7, 500), prefix(w, 8, 500));
        }
    }

    fn kind(u: &Update) -> EmpKind {
        match (u.pred().as_str(), u.is_insert()) {
            ("emp", true) => EmpKind::InsertEmp,
            ("emp", false) => EmpKind::DeleteEmp,
            ("dept", true) => EmpKind::InsertDept,
            ("dept", false) => EmpKind::DeleteDept,
            (p, _) => panic!("unexpected predicate {p}"),
        }
    }

    #[test]
    fn emp_stream_is_the_warm_up_then_blocks_of_the_mix() {
        let w = Workload::EmpMixed;
        let n = w.warmup_submits();
        assert_eq!(w.stream(5).next_request(n), emp_warm_up(n));
        let mut s = w.stream(4);
        assert_eq!(s.next_request(n), emp_warm_up(n));
        let mut orders = std::collections::HashSet::new();
        for _ in 0..100 {
            let kinds: Vec<EmpKind> = s.next_request(8).iter().map(kind).collect();
            for k in [
                EmpKind::InsertEmp,
                EmpKind::DeleteEmp,
                EmpKind::InsertDept,
                EmpKind::DeleteDept,
            ] {
                assert_eq!(kinds.iter().filter(|&&x| x == k).count(), 2);
            }
            let emp: Vec<EmpKind> = kinds
                .iter()
                .copied()
                .filter(|k| matches!(k, EmpKind::InsertEmp | EmpKind::DeleteEmp))
                .collect();
            use EmpKind::{DeleteEmp, InsertEmp};
            assert_eq!(emp, [InsertEmp, InsertEmp, DeleteEmp, DeleteEmp]);
            orders.insert(kinds);
        }
        assert!(orders.len() > 20, "the seed places the dept updates");
    }

    #[test]
    fn acct_stream_holds_sizes_and_rejects_one_insert_in_16() {
        let w = Workload::CommitSmall;
        let mut db = w.database(3);
        let mut stream = w.stream(3);
        let (mut inserts, mut rejected, mut swaps) = (0, 0, 0);
        for _ in 0..1000 {
            for u in stream.next_request(w.batch()) {
                // `branch` updates have no rule and are always admitted.
                let admit = expected_verdict(&u).unwrap_or(true);
                if u.pred().as_str() == "branch" {
                    swaps += usize::from(u.is_insert());
                } else if u.is_insert() {
                    inserts += 1;
                    rejected += usize::from(!admit);
                }
                if admit {
                    assert!(
                        db.apply(&u).expect("declared"),
                        "{u:?} must change the store"
                    );
                }
            }
            let branches = db.relation("branch").expect("declared").len();
            assert_eq!(branches, BRANCH_ROWS);
        }
        let rows = db.relation("acct").expect("declared").len();
        assert!(
            (1_000..=1_001).contains(&rows),
            "acct drifted to {rows} rows"
        );
        assert_eq!(rejected, inserts / 16);
        assert_eq!(swaps, 1000 / BRANCH_SWAP_EVERY as usize);
    }

    /// The verdicts a serial manager reaches on a stream prefix.
    fn verdicts(w: Workload, seed: u64, n: usize) -> Vec<bool> {
        let mut mgr = ccpi::ConstraintManager::new(w.database(seed));
        for (name, source) in w.constraints() {
            mgr.add_constraint(name, source)
                .expect("constraint compiles");
        }
        let mut s = w.stream(seed);
        (0..n)
            .map(|_| mgr.process(&s.next_update()).expect("checks").all_hold())
            .collect()
    }

    #[test]
    fn same_seed_same_verdicts() {
        for (w, n) in [(Workload::CommitSmall, 400), (Workload::EmpMixed, 40)] {
            let v = verdicts(w, 9, n);
            assert_eq!(v, verdicts(w, 9, n));
            assert!(v.iter().any(|a| !a), "{} rejects nothing", w.name());
        }
    }
}
