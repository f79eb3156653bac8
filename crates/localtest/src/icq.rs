//! **§6 / Theorem 6.1** — independently constrained queries and the
//! recursive-datalog complete local test.
//!
//! > Call a variable in a CQC *remote* if it does not appear in a local
//! > subgoal. A CQC `C` is independently constrained (an ICQ) if every
//! > comparison, except an equality comparison, involves at most one
//! > remote variable.
//!
//! For the forbidden-intervals family (one remote variable `Z`; remote
//! subgoals mention only `Z` and constants) this module provides **two**
//! complete local tests:
//!
//! * [`IcqTest`] — the direct runtime: extract from each local tuple the
//!   interval(s) forbidden to `Z`, accumulate them in an
//!   [`IntervalSet`], and answer coverage.
//!   Handles open/closed/unbounded endpoints, `=` (degenerate interval)
//!   and `<>` (interval splitting — the Theorem 6.1 proof's
//!   "get rid of `X ≠ Y` by splitting"), in dense or integer domains.
//! * [`DatalogIntervalTest`] — the paper's own artifact: a generated
//!   **recursive datalog program with arithmetic** in the exact shape of
//!   Fig. 6.1 (basis rules building forbidden intervals from `L`, the
//!   recursive merge rule, and the `ok` coverage rule), evaluated by
//!   `ccpi-datalog`. The generator specializes to the CQC's endpoint
//!   flavors, handles multiple lower/upper bounds ("we may need a
//!   different rule for every such order"), and the four boundedness
//!   shapes ("intervals may be open to infinity or minus infinity").
//!
//! The paper also proves a *negative* result here: "this constraint C does
//! not have a complete local test that is an expression of relational
//! algebra", because a fixed RA expression looks at a bounded number `k`
//! of tuples, and `k + 1` tuples may be needed to cover an inserted
//! interval. The `coverage_needs_unboundedly_many_tuples` test (and the
//! `intervals` bench) materializes that argument.

use crate::cqc::Cqc;
use crate::intervals::{Bound, Interval, IntervalSet};
use crate::thm52::LocalTestResult;
use ccpi_arith::Domain;
use ccpi_datalog::Engine;
use ccpi_ir::{Atom, CompOp, Comparison, Literal, Program, Rule, Sym, Term, Value, Var};
use ccpi_storage::{Database, Locality, Relation, Tuple};
use std::fmt;

/// Where a bound value comes from, for a given local tuple `s`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BoundSrc {
    /// Component `i` of the local tuple (first occurrence of a local var).
    Col(usize),
    /// A constant.
    Const(Value),
}

impl BoundSrc {
    fn value(&self, s: &Tuple) -> Value {
        match self {
            BoundSrc::Col(i) => s[*i].clone(),
            BoundSrc::Const(c) => c.clone(),
        }
    }

    fn term(&self, l_args: &[Term]) -> Term {
        match self {
            BoundSrc::Col(i) => l_args[*i].clone(),
            BoundSrc::Const(c) => Term::Const(c.clone()),
        }
    }
}

/// Why a CQC is outside the compiled ICQ family.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IcqError {
    /// Not an ICQ at all (a comparison links two remote variables).
    NotIndependentlyConstrained,
    /// The compiled tests need exactly one remote variable.
    NotSingleRemoteVar(usize),
    /// A remote subgoal mentions a local variable or a second variable.
    UnsupportedRemoteArgs(Sym),
    /// The datalog generator requires uniform strictness per side.
    MixedStrictness,
    /// The datalog generator does not take `<>` on the remote variable
    /// (use [`IcqTest`], which splits intervals).
    HasDisequality,
}

impl fmt::Display for IcqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IcqError::NotIndependentlyConstrained => {
                write!(f, "a comparison links two remote variables (not an ICQ)")
            }
            IcqError::NotSingleRemoteVar(n) => {
                write!(
                    f,
                    "compiled ICQ tests require exactly one remote variable, found {n}"
                )
            }
            IcqError::UnsupportedRemoteArgs(p) => write!(
                f,
                "remote subgoal `{p}` mentions local variables; falling back to Theorem 5.2"
            ),
            IcqError::MixedStrictness => write!(
                f,
                "datalog generation requires uniform strictness per bound side"
            ),
            IcqError::HasDisequality => {
                write!(
                    f,
                    "datalog generation does not support <> on the remote variable"
                )
            }
        }
    }
}

impl std::error::Error for IcqError {}

/// Is the CQC independently constrained (the §6 definition)?
pub fn is_icq(cqc: &Cqc) -> bool {
    let remote = cqc.remote_vars();
    cqc.cq().comparisons.iter().all(|c| {
        if c.op == CompOp::Eq {
            return true;
        }
        let remotes_in_cmp = c.vars().filter(|v| remote.contains(v)).count();
        // `Z op Z` involves one remote variable (twice) — still an ICQ.
        remotes_in_cmp <= 1 || (c.lhs == c.rhs)
    })
}

/// The analyzed forbidden-intervals test for a single-remote-variable ICQ.
#[derive(Clone, Debug)]
pub struct IcqTest {
    cqc: Cqc,
    /// The remote variable `Z`.
    z: Var,
    /// Lower bounds `src (≤|<) Z` as (source, strict).
    lower: Vec<(BoundSrc, bool)>,
    /// Upper bounds `Z (≤|<) src`.
    upper: Vec<(BoundSrc, bool)>,
    /// `Z = src` pins.
    eqs: Vec<BoundSrc>,
    /// `Z <> src` punctures.
    nes: Vec<BoundSrc>,
    /// Comparisons not involving `Z` (filters on the local tuple).
    filters: Vec<Comparison>,
    /// `true` when a `Z op Z` tautology-violation makes every reduction's
    /// region empty (e.g. `Z < Z`).
    always_empty: bool,
    /// Interpretation domain.
    pub domain: Domain,
}

impl IcqTest {
    /// Analyzes a CQC into the forbidden-intervals form.
    pub fn new(cqc: &Cqc, domain: Domain) -> Result<Self, IcqError> {
        if !is_icq(cqc) {
            return Err(IcqError::NotIndependentlyConstrained);
        }
        let remote = cqc.remote_vars();
        if remote.len() != 1 {
            return Err(IcqError::NotSingleRemoteVar(remote.len()));
        }
        let z = remote[0].clone();

        // Remote subgoals may mention only Z and constants.
        for r in cqc.remotes() {
            for t in &r.args {
                match t {
                    Term::Const(_) => {}
                    Term::Var(v) if *v == z => {}
                    Term::Var(_) => return Err(IcqError::UnsupportedRemoteArgs(r.pred.clone())),
                }
            }
        }

        // Map each local variable to its first position in `l`.
        let l_args = &cqc.local_atom().args;
        let pos_of =
            |v: &Var| -> Option<usize> { l_args.iter().position(|t| t.as_var() == Some(v)) };
        let src_of = |t: &Term| -> Option<BoundSrc> {
            match t {
                Term::Const(c) => Some(BoundSrc::Const(c.clone())),
                Term::Var(v) if *v == z => None,
                Term::Var(v) => pos_of(v).map(BoundSrc::Col),
            }
        };

        let mut out = IcqTest {
            cqc: cqc.clone(),
            z: z.clone(),
            lower: vec![],
            upper: vec![],
            eqs: vec![],
            nes: vec![],
            filters: vec![],
            always_empty: false,
            domain,
        };

        for c in &cqc.cq().comparisons {
            let z_left = c.lhs == Term::Var(z.clone());
            let z_right = c.rhs == Term::Var(z.clone());
            match (z_left, z_right) {
                (true, true) => match c.op {
                    // Z op Z.
                    CompOp::Lt | CompOp::Gt | CompOp::Ne => out.always_empty = true,
                    CompOp::Le | CompOp::Ge | CompOp::Eq => {}
                },
                (false, false) => out.filters.push(c.clone()),
                _ => {
                    // Normalize to `Z op other`.
                    let (op, other) = if z_left {
                        (c.op, &c.rhs)
                    } else {
                        (c.op.flip(), &c.lhs)
                    };
                    let src =
                        src_of(other).expect("other side is local or constant by ICQ analysis");
                    match op {
                        CompOp::Lt => out.upper.push((src, true)),
                        CompOp::Le => out.upper.push((src, false)),
                        CompOp::Gt => out.lower.push((src, true)),
                        CompOp::Ge => out.lower.push((src, false)),
                        CompOp::Eq => out.eqs.push(src),
                        CompOp::Ne => out.nes.push(src),
                    }
                }
            }
        }
        Ok(out)
    }

    /// The underlying CQC.
    pub fn cqc(&self) -> &Cqc {
        &self.cqc
    }

    /// The remote variable.
    pub fn remote_var(&self) -> &Var {
        &self.z
    }

    /// The forbidden region contributed by local tuple `s`, as disjoint
    /// intervals. `None` when `s` does not match `l` or fails a filter —
    /// it contributes nothing. An empty vector means the region is empty.
    pub fn region_for(&self, s: &Tuple) -> Option<Vec<Interval>> {
        // Pattern-match the local atom (Example 5.4 semantics).
        let ground = Atom {
            pred: self.cqc.local_pred().clone(),
            args: s.iter().cloned().map(Term::Const).collect(),
        };
        let mut sub = ccpi_ir::Subst::new();
        if !ccpi_ir::subst::match_atom(&mut sub, self.cqc.local_atom(), &ground) {
            return None;
        }
        // Filters.
        for f in &self.filters {
            match sub.apply_cmp(f).eval_ground() {
                Some(true) => {}
                _ => return None,
            }
        }
        if self.always_empty {
            return Some(vec![]);
        }

        // Resolve bounds.
        let mut lo = Bound::NegInf;
        for (src, strict) in &self.lower {
            let v = src.value(s);
            let cand = if *strict {
                Bound::Excl(v)
            } else {
                Bound::Incl(v)
            };
            if cand.lo_cmp(&lo) == std::cmp::Ordering::Greater {
                lo = cand;
            }
        }
        let mut hi = Bound::PosInf;
        for (src, strict) in &self.upper {
            let v = src.value(s);
            let cand = if *strict {
                Bound::Excl(v)
            } else {
                Bound::Incl(v)
            };
            if cand.hi_cmp(&hi) == std::cmp::Ordering::Less {
                hi = cand;
            }
        }
        for src in &self.eqs {
            let v = src.value(s);
            let cand_lo = Bound::Incl(v.clone());
            if cand_lo.lo_cmp(&lo) == std::cmp::Ordering::Greater {
                lo = cand_lo;
            }
            let cand_hi = Bound::Incl(v);
            if cand_hi.hi_cmp(&hi) == std::cmp::Ordering::Less {
                hi = cand_hi;
            }
        }
        let base = Interval::new(lo, hi);
        if base.is_empty(self.domain) {
            return Some(vec![]);
        }

        // Puncture with the <> points.
        let mut pieces = vec![base];
        for src in &self.nes {
            let v = src.value(s);
            let mut next = Vec::with_capacity(pieces.len() + 1);
            for iv in pieces {
                if iv.contains(&v) {
                    let left = Interval::new(iv.lo.clone(), Bound::Excl(v.clone()));
                    let right = Interval::new(Bound::Excl(v.clone()), iv.hi.clone());
                    if !left.is_empty(self.domain) {
                        next.push(left);
                    }
                    if !right.is_empty(self.domain) {
                        next.push(right);
                    }
                } else {
                    next.push(iv);
                }
            }
            pieces = next;
        }
        Some(pieces)
    }

    /// The union of forbidden regions over a whole local relation.
    pub fn forbidden(&self, local: &Relation) -> IntervalSet {
        let mut set = IntervalSet::new(self.domain);
        for s in local.iter() {
            if let Some(region) = self.region_for(s) {
                for iv in region {
                    set.insert(iv);
                }
            }
        }
        set
    }

    /// The complete local test: inserting `t` is safe iff `t`'s region is
    /// already covered by the union of the existing regions.
    pub fn test(&self, t: &Tuple, local: &Relation) -> LocalTestResult {
        self.test_against(t, &self.forbidden(local))
    }

    /// [`test`](Self::test) against a cover already computed with
    /// [`forbidden`](Self::forbidden) over the local relation — a caller
    /// that keeps the cover alongside the relation probes in
    /// O(log |L|) instead of rebuilding it from all of `L`.
    pub fn test_against(&self, t: &Tuple, cover: &IntervalSet) -> LocalTestResult {
        let Some(region) = self.region_for(t) else {
            return LocalTestResult::Holds;
        };
        if region.iter().all(|iv| cover.covers(iv)) {
            LocalTestResult::Holds
        } else {
            LocalTestResult::Unknown
        }
    }
}

/// The generated recursive-datalog test of Fig. 6.1.
///
/// The program uses three IDB predicates:
/// `interval/2 | lowend/1 | highend/1 | nonempty/0` (depending on which
/// sides are bounded), plus the goal `ok` and the EDB `probe` carrying the
/// inserted tuple's interval. See the module docs.
#[derive(Clone, Debug)]
pub struct DatalogIntervalTest {
    icq: IcqTest,
    program: Program,
    lo_strict: Option<bool>,
    hi_strict: Option<bool>,
}

/// Predicate names used in generated programs.
const INTERVAL: &str = "interval";
const LOWEND: &str = "lowend";
const HIGHEND: &str = "highend";
const NONEMPTY: &str = "nonempty";
const PROBE: &str = "probe";
const OK: &str = "ok";

impl DatalogIntervalTest {
    /// Generates the datalog test for an analyzed ICQ. Requires uniform
    /// strictness per side and no `<>` on the remote variable.
    pub fn new(icq: IcqTest) -> Result<Self, IcqError> {
        if !icq.nes.is_empty() {
            return Err(IcqError::HasDisequality);
        }
        // Fold Z = src into a nonstrict bound on both sides.
        let mut lower = icq.lower.clone();
        let mut upper = icq.upper.clone();
        for src in &icq.eqs {
            lower.push((src.clone(), false));
            upper.push((src.clone(), false));
        }
        let lo_strict = uniform_strictness(&lower)?;
        let hi_strict = uniform_strictness(&upper)?;

        let program = generate_program(&icq, &lower, &upper, lo_strict, hi_strict);
        Ok(DatalogIntervalTest {
            icq,
            program,
            lo_strict,
            hi_strict,
        })
    }

    /// The generated program (Fig. 6.1 for the forbidden-intervals CQC).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Runs the complete local test by evaluating the generated program.
    pub fn test(&self, t: &Tuple, local: &Relation) -> LocalTestResult {
        let Some(region) = self.icq.region_for(t) else {
            return LocalTestResult::Holds;
        };
        // With no <>, the region is empty or one interval.
        let Some(iv) = region.first() else {
            return LocalTestResult::Holds;
        };

        let mut db = Database::new();
        let l_name = self.icq.cqc.local_pred().as_str().to_string();
        db.declare(&l_name, local.arity(), Locality::Local)
            .expect("fresh database");
        for s in local.iter() {
            db.insert(&l_name, s.clone()).expect("declared");
        }
        // The probe carries the inserted interval's endpoints (flavors are
        // compile-time constants, so values suffice).
        let mut probe_vals: Vec<Value> = Vec::new();
        if self.lo_strict.is_some() {
            match &iv.lo {
                Bound::Incl(v) | Bound::Excl(v) => probe_vals.push(v.clone()),
                _ => unreachable!("bounded side produces a value"),
            }
        }
        if self.hi_strict.is_some() {
            match &iv.hi {
                Bound::Incl(v) | Bound::Excl(v) => probe_vals.push(v.clone()),
                _ => unreachable!("bounded side produces a value"),
            }
        }
        db.declare(PROBE, probe_vals.len(), Locality::Local)
            .expect("fresh database");
        db.insert(PROBE, Tuple::from(probe_vals)).expect("declared");

        let engine = Engine::new(self.program.clone()).expect("generated program is valid");
        let out = engine.run(&db);
        if out.relation(OK).is_some_and(|r| !r.is_empty()) {
            LocalTestResult::Holds
        } else {
            LocalTestResult::Unknown
        }
    }
}

fn uniform_strictness(bounds: &[(BoundSrc, bool)]) -> Result<Option<bool>, IcqError> {
    let mut strict: Option<bool> = None;
    for (_, s) in bounds {
        match strict {
            None => strict = Some(*s),
            Some(prev) if prev != *s => return Err(IcqError::MixedStrictness),
            _ => {}
        }
    }
    Ok(strict)
}

/// Emits the Fig. 6.1-style program.
fn generate_program(
    icq: &IcqTest,
    lower: &[(BoundSrc, bool)],
    upper: &[(BoundSrc, bool)],
    lo_strict: Option<bool>,
    hi_strict: Option<bool>,
) -> Program {
    let l_atom = icq.cqc.local_atom().clone();
    let mut rules: Vec<Rule> = Vec::new();

    // Basis rules: one per choice of binding lower and upper source
    // ("we may need a different rule for every such order").
    let lo_choices: Vec<Option<usize>> = if lower.is_empty() {
        vec![None]
    } else {
        (0..lower.len()).map(Some).collect()
    };
    let hi_choices: Vec<Option<usize>> = if upper.is_empty() {
        vec![None]
    } else {
        (0..upper.len()).map(Some).collect()
    };

    for &lo_pick in &lo_choices {
        for &hi_pick in &hi_choices {
            let mut body: Vec<Literal> = vec![Literal::Pos(l_atom.clone())];
            body.extend(icq.filters.iter().cloned().map(Literal::Cmp));
            let mut head_args: Vec<Term> = Vec::new();
            if let Some(i) = lo_pick {
                let chosen = lower[i].0.term(&l_atom.args);
                head_args.push(chosen.clone());
                // The chosen lower bound is the maximum.
                for (j, (src, _)) in lower.iter().enumerate() {
                    if j != i {
                        body.push(Literal::Cmp(Comparison::new(
                            src.term(&l_atom.args),
                            CompOp::Le,
                            chosen.clone(),
                        )));
                    }
                }
            }
            if let Some(i) = hi_pick {
                let chosen = upper[i].0.term(&l_atom.args);
                head_args.push(chosen.clone());
                // The chosen upper bound is the minimum.
                for (j, (src, _)) in upper.iter().enumerate() {
                    if j != i {
                        body.push(Literal::Cmp(Comparison::new(
                            src.term(&l_atom.args),
                            CompOp::Ge,
                            chosen.clone(),
                        )));
                    }
                }
            }
            // Nonempty-interval guard for bounded intervals: lo ≤ hi
            // (or lo < hi for open ends over a dense domain).
            if let (Some(li), Some(hi_i)) = (lo_pick, hi_pick) {
                let lo_t = lower[li].0.term(&l_atom.args);
                let hi_t = upper[hi_i].0.term(&l_atom.args);
                let op = if lo_strict == Some(true) || hi_strict == Some(true) {
                    CompOp::Lt
                } else {
                    CompOp::Le
                };
                body.push(Literal::Cmp(Comparison::new(lo_t, op, hi_t)));
            }
            let head_pred = match (lo_pick.is_some(), hi_pick.is_some()) {
                (true, true) => INTERVAL,
                (false, true) => LOWEND, // (-∞, hi]: only the high end varies
                (true, false) => HIGHEND, // [lo, ∞)
                (false, false) => NONEMPTY,
            };
            rules.push(Rule::new(Atom::new(head_pred, head_args), body));
        }
    }

    // Recursive merge rule (Fig. 6.1 rule (2)), bounded case only.
    let merge_op = if lo_strict == Some(true) && hi_strict == Some(true) {
        CompOp::Lt
    } else {
        CompOp::Le
    };
    if lo_strict.is_some() && hi_strict.is_some() {
        rules.push(Rule::new(
            Atom::new(INTERVAL, vec![Term::var("X"), Term::var("Y")]),
            vec![
                Literal::Pos(Atom::new(INTERVAL, vec![Term::var("X"), Term::var("W")])),
                Literal::Pos(Atom::new(INTERVAL, vec![Term::var("Z"), Term::var("Y")])),
                Literal::Cmp(Comparison::new(Term::var("Z"), merge_op, Term::var("W"))),
            ],
        ));
        // A bounded interval can also merge into an unbounded end.
    }

    // Coverage rule (Fig. 6.1 rule (3)), by boundedness shape.
    match (lo_strict.is_some(), hi_strict.is_some()) {
        (true, true) => {
            rules.push(Rule::new(
                Atom::new(OK, vec![]),
                vec![
                    Literal::Pos(Atom::new(PROBE, vec![Term::var("A"), Term::var("B")])),
                    Literal::Pos(Atom::new(INTERVAL, vec![Term::var("X"), Term::var("Y")])),
                    Literal::Cmp(Comparison::new(Term::var("X"), CompOp::Le, Term::var("A"))),
                    Literal::Cmp(Comparison::new(Term::var("B"), CompOp::Le, Term::var("Y"))),
                ],
            ));
        }
        (false, true) => {
            rules.push(Rule::new(
                Atom::new(OK, vec![]),
                vec![
                    Literal::Pos(Atom::new(PROBE, vec![Term::var("B")])),
                    Literal::Pos(Atom::new(LOWEND, vec![Term::var("Y")])),
                    Literal::Cmp(Comparison::new(Term::var("B"), CompOp::Le, Term::var("Y"))),
                ],
            ));
        }
        (true, false) => {
            rules.push(Rule::new(
                Atom::new(OK, vec![]),
                vec![
                    Literal::Pos(Atom::new(PROBE, vec![Term::var("A")])),
                    Literal::Pos(Atom::new(HIGHEND, vec![Term::var("X")])),
                    Literal::Cmp(Comparison::new(Term::var("X"), CompOp::Le, Term::var("A"))),
                ],
            ));
        }
        (false, false) => {
            rules.push(Rule::new(
                Atom::new(OK, vec![]),
                vec![
                    Literal::Pos(Atom::new(PROBE, vec![])),
                    Literal::Pos(Atom::new(NONEMPTY, vec![])),
                ],
            ));
        }
    }

    Program::new(rules)
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

    #[test]
    fn icq_detection() {
        assert!(is_icq(&forbidden()));
        // Two remote variables linked by a comparison: not an ICQ.
        let cq = parse_cq("panic :- l(X) & r(Z) & s(W) & Z < W.").unwrap();
        let c = Cqc::with_local(cq, "l").unwrap();
        assert!(!is_icq(&c));
        // Two remote variables, each independently bounded: still an ICQ
        // (but not single-remote-var).
        let cq = parse_cq("panic :- l(X) & r(Z) & s(W) & Z < X & W < X.").unwrap();
        let c = Cqc::with_local(cq, "l").unwrap();
        assert!(is_icq(&c));
        assert!(matches!(
            IcqTest::new(&c, Domain::Dense),
            Err(IcqError::NotSingleRemoteVar(2))
        ));
    }

    #[test]
    fn example_5_3_regions() {
        let t = IcqTest::new(&forbidden(), Domain::Dense).unwrap();
        let region = t.region_for(&tuple![3, 6]).unwrap();
        assert_eq!(region, vec![Interval::closed(3, 6)]);
        // Empty interval from an inverted tuple.
        assert_eq!(t.region_for(&tuple![6, 3]).unwrap(), vec![]);
    }

    #[test]
    fn example_5_3_and_6_1_coverage() {
        let t = IcqTest::new(&forbidden(), Domain::Dense).unwrap();
        let local = rel(&[(3, 6), (5, 10)]);
        assert!(t.test(&tuple![4, 8], &local).holds());
        assert!(!t.test(&tuple![2, 8], &local).holds());
        assert!(!t.test(&tuple![4, 11], &local).holds());
        // The union phenomenon: no single tuple covers (4,8).
        assert!(!t.test(&tuple![4, 8], &rel(&[(3, 6)])).holds());
        assert!(!t.test(&tuple![4, 8], &rel(&[(5, 10)])).holds());
    }

    #[test]
    fn fig_6_1_program_shape() {
        let icq = IcqTest::new(&forbidden(), Domain::Dense).unwrap();
        let d = DatalogIntervalTest::new(icq).unwrap();
        let text = d.program().to_string();
        // Rule (1): basis from l (plus the nonempty guard X <= Y).
        assert!(text.contains("interval(X,Y) :- l(X,Y) & X <= Y."), "{text}");
        // Rule (2): the recursive merge with Z <= W.
        assert!(
            text.contains("interval(X,Y) :- interval(X,W) & interval(Z,Y) & Z <= W."),
            "{text}"
        );
        // Rule (3): coverage (ok via the probe).
        assert!(
            text.contains("ok :- probe(A,B) & interval(X,Y) & X <= A & B <= Y."),
            "{text}"
        );
    }

    #[test]
    fn datalog_test_matches_paper_example() {
        let icq = IcqTest::new(&forbidden(), Domain::Dense).unwrap();
        let d = DatalogIntervalTest::new(icq).unwrap();
        let local = rel(&[(3, 6), (5, 10)]);
        assert!(d.test(&tuple![4, 8], &local).holds());
        assert!(!d.test(&tuple![2, 8], &local).holds());
        assert!(!d.test(&tuple![4, 11], &local).holds());
        // Chains of three intervals need the recursion.
        let chain = rel(&[(0, 4), (3, 8), (7, 12)]);
        assert!(d.test(&tuple![1, 11], &chain).holds());
        assert!(!d.test(&tuple![1, 13], &chain).holds());
    }

    #[test]
    fn strict_comparisons_respected() {
        // panic :- l(X,Y) & r(Z) & X < Z & Z < Y — open intervals.
        let cq = parse_cq("panic :- l(X,Y) & r(Z) & X < Z & Z < Y.").unwrap();
        let c = Cqc::with_local(cq, "l").unwrap();
        let t = IcqTest::new(&c, Domain::Dense).unwrap();
        // (3,6) ∪ (6,10) leaves 6 uncovered; inserting (4,8) is unsafe.
        let local = rel(&[(3, 6), (6, 10)]);
        assert!(!t.test(&tuple![4, 8], &local).holds());
        // (3,6) ∪ (5,10) covers (4,8).
        let local = rel(&[(3, 6), (5, 10)]);
        assert!(t.test(&tuple![4, 8], &local).holds());
        // Same through the datalog program (merge uses Z < W).
        let d = DatalogIntervalTest::new(IcqTest::new(&c, Domain::Dense).unwrap()).unwrap();
        assert!(!d.test(&tuple![4, 8], &rel(&[(3, 6), (6, 10)])).holds());
        assert!(d.test(&tuple![4, 8], &rel(&[(3, 6), (5, 10)])).holds());
    }

    #[test]
    fn one_sided_bounds() {
        // Only a lower bound on Z: forbidden regions are [X, ∞).
        let cq = parse_cq("panic :- l(X) & r(Z) & X <= Z.").unwrap();
        let c = Cqc::with_local(cq, "l").unwrap();
        let t = IcqTest::new(&c, Domain::Dense).unwrap();
        let local = Relation::from_tuples(1, [tuple![5]]);
        // Inserting 7: [7,∞) ⊆ [5,∞) ✓.
        assert!(t.test(&tuple![7], &local).holds());
        // Inserting 3: [3,∞) ⊄ [5,∞).
        assert!(!t.test(&tuple![3], &local).holds());
        // Datalog path (HIGHEND shape).
        let d = DatalogIntervalTest::new(IcqTest::new(&c, Domain::Dense).unwrap()).unwrap();
        assert!(d.test(&tuple![7], &local).holds());
        assert!(!d.test(&tuple![3], &local).holds());
    }

    #[test]
    fn equality_pins_a_point() {
        let cq = parse_cq("panic :- l(X) & r(Z) & Z = X.").unwrap();
        let c = Cqc::with_local(cq, "l").unwrap();
        let t = IcqTest::new(&c, Domain::Dense).unwrap();
        let local = Relation::from_tuples(1, [tuple![5]]);
        assert!(t.test(&tuple![5], &local).holds());
        assert!(!t.test(&tuple![6], &local).holds());
        // Datalog path folds Z = X into closed bounds.
        let d = DatalogIntervalTest::new(IcqTest::new(&c, Domain::Dense).unwrap()).unwrap();
        assert!(d.test(&tuple![5], &local).holds());
        assert!(!d.test(&tuple![6], &local).holds());
    }

    #[test]
    fn disequality_splits_regions() {
        // Z <> X forbids everything except the point X.
        let cq = parse_cq("panic :- l(X) & r(Z) & Z <> X.").unwrap();
        let c = Cqc::with_local(cq, "l").unwrap();
        let t = IcqTest::new(&c, Domain::Dense).unwrap();
        let region = t.region_for(&tuple![5]).unwrap();
        assert_eq!(region.len(), 2); // (-∞,5) and (5,∞)
                                     // Two tuples 5 and 6: union is everything (each covers the other's
                                     // hole) — any insertion is safe.
        let local = Relation::from_tuples(1, [tuple![5], tuple![6]]);
        assert!(t.test(&tuple![7], &local).holds());
        // One tuple only: inserting a different point is unsafe (its
        // region covers the other's hole).
        let local = Relation::from_tuples(1, [tuple![5]]);
        assert!(!t.test(&tuple![7], &local).holds());
        assert!(t.test(&tuple![5], &local).holds());
        // The datalog generator refuses <> (falls back to IcqTest).
        assert!(matches!(
            DatalogIntervalTest::new(IcqTest::new(&c, Domain::Dense).unwrap()),
            Err(IcqError::HasDisequality)
        ));
    }

    #[test]
    fn filters_gate_contributions() {
        // Only tuples with X <= Y contribute (valid windows).
        let cq = parse_cq("panic :- l(X,Y,F) & r(Z) & X <= Z & Z <= Y & F = 1.").unwrap();
        let c = Cqc::with_local(cq, "l").unwrap();
        let t = IcqTest::new(&c, Domain::Dense).unwrap();
        let local = Relation::from_tuples(3, [tuple![3, 6, 1], tuple![5, 10, 0]]);
        // (5,10) is disabled by F = 0, so [4,8] is not covered.
        assert!(!t.test(&tuple![4, 8, 1], &local).holds());
        // A disabled insertion is always safe.
        assert!(t.test(&tuple![4, 8, 0], &local).holds());
    }

    #[test]
    fn multiple_lower_bounds_take_the_max() {
        // panic :- l(X,W,Y) & r(Z) & X <= Z & W <= Z & Z <= Y.
        let cq = parse_cq("panic :- l(X,W,Y) & r(Z) & X <= Z & W <= Z & Z <= Y.").unwrap();
        let c = Cqc::with_local(cq, "l").unwrap();
        let t = IcqTest::new(&c, Domain::Dense).unwrap();
        // Tuple (1, 4, 9): forbidden region is [4, 9].
        assert_eq!(
            t.region_for(&tuple![1, 4, 9]).unwrap(),
            vec![Interval::closed(4, 9)]
        );
        // Datalog basis has one rule per lower-bound choice.
        let d = DatalogIntervalTest::new(IcqTest::new(&c, Domain::Dense).unwrap()).unwrap();
        let text = d.program().to_string();
        assert!(
            text.contains("interval(X,Y) :- l(X,W,Y) & W <= X & X <= Y."),
            "{text}"
        );
        assert!(
            text.contains("interval(W,Y) :- l(X,W,Y) & X <= W & W <= Y."),
            "{text}"
        );
        let local = Relation::from_tuples(3, [tuple![1, 4, 9]]);
        assert!(d.test(&tuple![5, 5, 8], &local).holds());
        assert!(!d.test(&tuple![1, 1, 8], &local).holds());
    }

    #[test]
    fn integer_domain_merges_adjacent_windows() {
        let t = IcqTest::new(&forbidden(), Domain::Integer).unwrap();
        let local = rel(&[(3, 5), (6, 10)]);
        assert!(t.test(&tuple![4, 8], &local).holds());
        // Dense mode must not.
        let t = IcqTest::new(&forbidden(), Domain::Dense).unwrap();
        assert!(!t.test(&tuple![4, 8], &local).holds());
    }

    #[test]
    fn mixed_strictness_rejected_by_datalog_generator() {
        let cq = parse_cq("panic :- l(X,W,Y) & r(Z) & X <= Z & W < Z & Z <= Y.").unwrap();
        let c = Cqc::with_local(cq, "l").unwrap();
        let icq = IcqTest::new(&c, Domain::Dense).unwrap();
        assert!(matches!(
            DatalogIntervalTest::new(icq),
            Err(IcqError::MixedStrictness)
        ));
    }

    /// The paper's negative result, §6: "it takes k + 1 tuples to cover
    /// the inserted tuple" — coverage may require unboundedly many local
    /// tuples, so no fixed RA expression can be the complete local test.
    /// We materialize the witness family: k staggered intervals whose
    /// union covers the insert only when *all* of them are consulted.
    #[test]
    fn coverage_needs_unboundedly_many_tuples() {
        let t = IcqTest::new(&forbidden(), Domain::Dense).unwrap();
        for k in 1..12usize {
            // Intervals [2i, 2i+3] for i = 0..k: the chain covers
            // [0, 2(k-1)+3]; dropping any one leaves a gap.
            let chain: Vec<(i64, i64)> = (0..k as i64).map(|i| (2 * i, 2 * i + 3)).collect();
            let local = rel(&chain);
            let probe = tuple![1, 2 * (k as i64 - 1) + 2];
            assert!(t.test(&probe, &local).holds(), "k={k}");
            for drop in 1..k.saturating_sub(1) {
                let mut partial = chain.clone();
                partial.remove(drop);
                assert!(!t.test(&probe, &rel(&partial)).holds(), "k={k} drop={drop}");
            }
        }
    }

    /// The both-unbounded shape: no comparison touches Z, so each
    /// qualifying local tuple forbids the whole domain (NONEMPTY shape in
    /// the generated program).
    #[test]
    fn unbounded_both_sides() {
        let cq = parse_cq("panic :- l(X) & r(Z) & X <= 5.").unwrap();
        let c = Cqc::with_local(cq, "l").unwrap();
        let t = IcqTest::new(&c, Domain::Dense).unwrap();
        // A qualifying tuple exists: everything is already forbidden, so
        // any further insert is covered.
        let local = Relation::from_tuples(1, [tuple![3]]);
        assert!(t.test(&tuple![1], &local).holds());
        // Only a non-qualifying tuple (X > 5): inserting a qualifying one
        // expands the forbidden region from ∅ to everything — not covered.
        let local = Relation::from_tuples(1, [tuple![9]]);
        assert!(!t.test(&tuple![1], &local).holds());
        // A non-qualifying insert is always safe.
        assert!(t.test(&tuple![9], &local).holds());
        // Datalog path (nonempty/probe-0-ary shape).
        let d = DatalogIntervalTest::new(IcqTest::new(&c, Domain::Dense).unwrap()).unwrap();
        let text = d.program().to_string();
        assert!(text.contains("nonempty :- l(X) & X <= 5."), "{text}");
        assert!(text.contains("ok :- probe & nonempty."), "{text}");
        assert!(d
            .test(&tuple![1], &Relation::from_tuples(1, [tuple![3]]))
            .holds());
        assert!(!d
            .test(&tuple![1], &Relation::from_tuples(1, [tuple![9]]))
            .holds());
    }

    /// The lowend shape: only upper bounds on Z, intervals (-inf, hi].
    #[test]
    fn unbounded_below() {
        let cq = parse_cq("panic :- l(Y) & r(Z) & Z <= Y.").unwrap();
        let c = Cqc::with_local(cq, "l").unwrap();
        let t = IcqTest::new(&c, Domain::Dense).unwrap();
        let local = Relation::from_tuples(1, [tuple![10]]);
        assert!(t.test(&tuple![7], &local).holds()); // (-inf,7] ⊆ (-inf,10]
        assert!(!t.test(&tuple![12], &local).holds());
        let d = DatalogIntervalTest::new(IcqTest::new(&c, Domain::Dense).unwrap()).unwrap();
        assert!(d.test(&tuple![7], &local).holds());
        assert!(!d.test(&tuple![12], &local).holds());
    }

    /// Cross-validation: IcqTest, the datalog program, and the Theorem 5.2
    /// containment test agree on a grid of workloads.
    #[test]
    fn three_way_agreement() {
        use crate::thm52::complete_local_test;
        use ccpi_arith::Solver;
        let c = forbidden();
        let icq = IcqTest::new(&c, Domain::Dense).unwrap();
        let datalog = DatalogIntervalTest::new(icq.clone()).unwrap();
        let locals = [
            vec![],
            vec![(3, 6)],
            vec![(3, 6), (5, 10)],
            vec![(3, 5), (7, 9)],
            vec![(0, 2), (2, 4), (4, 6)],
        ];
        let probes = [(4, 8), (3, 6), (0, 6), (5, 5), (8, 2), (1, 1)];
        for l in &locals {
            let local = rel(l);
            for &(a, b) in &probes {
                let t = tuple![a, b];
                let v1 = icq.test(&t, &local).holds();
                let v2 = datalog.test(&t, &local).holds();
                let v3 = complete_local_test(&c, &t, &local, Solver::dense()).holds();
                assert_eq!(v1, v2, "icq vs datalog on {l:?} + ({a},{b})");
                assert_eq!(v1, v3, "icq vs thm52 on {l:?} + ({a},{b})");
            }
        }
    }
}
