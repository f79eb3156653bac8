//! Compiled weakest-precondition pre-tests, one per
//! (constraint, update-template) pair.
//!
//! The escalation ladder decides per update at runtime, but most of the
//! decision is knowable at *registration* time from the shape of the
//! update alone: which body occurrences a `+p(t̄)`/`-p(t̄)` can enter,
//! which comparisons the Δ-tuple will ground, and what is left of the
//! body once the hosting occurrence is discharged. Following the
//! simplification tradition (Nicolas's instantiation method, and its
//! modern weakest-precondition formulations — Martinenghi,
//! arXiv 2412.20871; Aït-Bouziad/Guessarian/Vieille, cs/0603053), this
//! module compiles, once per constraint and per [`UpdateTemplate`], a
//! **simplified pre-test**: the constraint body instantiated with a
//! parameterized Δ-tuple, with the hosting literal discharged and every
//! comparison the instantiation grounds partially evaluated through
//! `ccpi-arith`. At check time the pre-test either
//!
//! * settles the update with a **verdict** (holds / violated) — the
//!   residual is empty, ground, or a single filtered existence scan — or
//! * reports the update **untouched** (no occurrence unifies, or the
//!   instantiation falsifies the arithmetic: exactly the §4 independence
//!   answer, for free), or
//! * **escalates**, when the residual still quantifies over two or more
//!   relations and the ladder's heavier stages are the right tool.
//!
//! Soundness needs no standing assumption for *violated* (the pre-test
//! exhibits a concrete `panic` derivation in the post-state) and the
//! usual "constraints held before the update" assumption for *holds* —
//! the same contract as the delta-seeded stage 4.
//!
//! Pre-tests are compiled only for **flat** constraints (every rule a
//! `panic` rule over EDB relations). Through IDB indirection an update's
//! polarity can flip, so occurrence-hosting reasoning is no longer
//! exact; non-flat constraints keep the classic ladder.

use ccpi_arith::Solver;
use ccpi_ir::{Atom, Comparison, Constraint, Cq, Subst, Sym, Term, Value, Var, PANIC};
use ccpi_storage::{Database, Tuple, Update, UpdateTemplate};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How much work the compiled residual needs at check time. Ordered from
/// cheapest to most expensive; a template's class is the worst over its
/// hosts, and the stage pipeline orders stages by it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ResidualClass {
    /// No body occurrence can ever host this template: the pre-test is a
    /// constant *holds* (the update is independent by shape alone).
    Untouchable,
    /// The residual is comparisons only — a verdict with zero reads.
    Verdict,
    /// The residual is ground atoms: a few membership probes.
    GroundProbe,
    /// One residual atom keeps free variables: a single filtered
    /// existence scan (index probe when a column is bound).
    FilteredScan,
    /// Two or more residual atoms keep free variables: the pre-test may
    /// escalate to the ladder.
    Open,
}

impl fmt::Display for ResidualClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResidualClass::Untouchable => "untouchable",
            ResidualClass::Verdict => "verdict",
            ResidualClass::GroundProbe => "ground-probe",
            ResidualClass::FilteredScan => "filtered-scan",
            ResidualClass::Open => "open",
        })
    }
}

/// What one evaluation of a pre-test concluded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PreVerdict {
    /// No occurrence hosts the Δ-tuple (or the instantiated arithmetic
    /// is unsatisfiable): the update cannot touch the constraint.
    Untouched,
    /// Every surviving residual was evaluated and none fires.
    Holds,
    /// Some residual fires: a concrete `panic` derivation exists in the
    /// post-state.
    Violated,
    /// A surviving host's residual is open — escalate to the ladder.
    Escalate,
}

/// One evaluation's result plus what it cost: rows read from relations
/// the caller marked as costed (the manager passes "declared remote"),
/// so settled checks account reads exactly like the stages they replace.
#[derive(Clone, Copy, Debug)]
pub struct PreTestEval {
    /// The conclusion.
    pub verdict: PreVerdict,
    /// Tuples read from costed relations.
    pub tuples_read: u64,
    /// Bytes those tuples would transfer on the wire.
    pub bytes_read: u64,
}

/// One hosting occurrence, compiled: the host atom pattern and the
/// residual body with the host discharged.
#[derive(Clone, Debug)]
struct CompiledHost {
    /// The occurrence the Δ-tuple must unify with. For insertions a
    /// positive subgoal (satisfied by the insert itself), for deletions a
    /// negated one (satisfied by the delete itself) — either way the
    /// literal is discharged and drops out of the residual.
    host: Atom,
    /// Residual positive subgoals.
    positives: Vec<Atom>,
    /// Residual negated subgoals.
    negatives: Vec<Atom>,
    /// The rule's comparisons (partially evaluated at check time).
    comparisons: Vec<Comparison>,
    /// Index into `positives` of the single non-groundable atom, for
    /// [`ResidualClass::FilteredScan`] hosts.
    scan: Option<usize>,
    /// Indices into `positives` of atoms that keep free variables but are
    /// fully grounded by each scan row — probed *after* the row extends the
    /// binding. Non-empty only when a multi-free-atom residual downgraded to
    /// `FilteredScan` because the scan atom covers every unbound variable.
    late: Vec<usize>,
    /// This host's residual class (`Verdict`..`Open`).
    class: ResidualClass,
}

/// The compiled pre-test for one update template.
#[derive(Clone, Debug, Default)]
pub struct TemplatePreTest {
    hosts: Vec<CompiledHost>,
    class: Option<ResidualClass>,
    reads: BTreeSet<Sym>,
}

impl TemplatePreTest {
    /// The template's residual class — the worst over its hosts,
    /// [`ResidualClass::Untouchable`] when nothing can host.
    pub fn residual_class(&self) -> ResidualClass {
        self.class.unwrap_or(ResidualClass::Untouchable)
    }

    /// Relations the evaluable residuals read (open hosts never read).
    pub fn reads(&self) -> &BTreeSet<Sym> {
        &self.reads
    }

    /// Number of hosting occurrences compiled for the template.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    fn finalize(&mut self) {
        for host in &self.hosts {
            self.class = Some(self.class.unwrap_or(host.class).max(host.class));
            if host.class < ResidualClass::Open {
                for atom in host.positives.iter().chain(&host.negatives) {
                    self.reads.insert(atom.pred.clone());
                }
            }
        }
    }
}

/// The full pre-test set of one constraint: one compiled
/// [`TemplatePreTest`] per (sign × read relation).
#[derive(Clone, Debug, Default)]
pub struct PreTestSet {
    flat: bool,
    templates: BTreeMap<UpdateTemplate, TemplatePreTest>,
}

impl PreTestSet {
    /// Compiles the pre-test set for `c`. For non-flat constraints the
    /// set is empty and [`compiled`](PreTestSet::compiled) is `false`.
    pub fn compile(c: &Constraint) -> PreTestSet {
        let rules = &c.program().rules;
        let flat = rules.iter().all(|r| {
            r.head.pred.as_str() == PANIC
                && r.positive_subgoals()
                    .chain(r.negated_subgoals())
                    .all(|a| a.pred.as_str() != PANIC)
        });
        if !flat {
            return PreTestSet::default();
        }
        let mut templates: BTreeMap<UpdateTemplate, TemplatePreTest> = BTreeMap::new();
        for pred in c.program().edb_predicates() {
            templates.insert(UpdateTemplate::insert(pred.as_str()), Default::default());
            templates.insert(UpdateTemplate::delete(pred.as_str()), Default::default());
        }
        for rule in rules {
            let cq = Cq::from_rule(rule);
            for insert in [true, false] {
                let occurrences = if insert { &cq.positives } else { &cq.negatives };
                for (host_idx, occurrence) in occurrences.iter().enumerate() {
                    let host = compile_host(&cq, insert, host_idx);
                    let key = UpdateTemplate {
                        insert,
                        pred: occurrence.pred.clone(),
                    };
                    templates.entry(key).or_default().hosts.push(host);
                }
            }
        }
        for t in templates.values_mut() {
            t.finalize();
        }
        PreTestSet { flat, templates }
    }

    /// `true` when the constraint was flat and pre-tests exist.
    pub fn compiled(&self) -> bool {
        self.flat
    }

    /// The compiled pre-test for `template`, if the constraint reads the
    /// predicate at all.
    pub fn template(&self, template: &UpdateTemplate) -> Option<&TemplatePreTest> {
        self.templates.get(template)
    }

    /// Iterates every compiled template — one insert and one delete
    /// template per EDB predicate the constraint reads.
    pub fn templates(&self) -> impl Iterator<Item = (&UpdateTemplate, &TemplatePreTest)> {
        self.templates.iter()
    }

    /// Host filtering only — the ground-prefilter half of the pre-test:
    /// [`PreVerdict::Untouched`] when no occurrence hosts the Δ-tuple,
    /// [`PreVerdict::Escalate`] otherwise. Zero reads by construction.
    pub fn prefilter(&self, update: &Update, solver: Solver) -> PreVerdict {
        if !self.flat {
            return PreVerdict::Escalate;
        }
        match self.templates.get(&UpdateTemplate::of(update)) {
            None => PreVerdict::Untouched, // predicate unread by the constraint
            Some(t) if surviving_hosts(t, update, solver).is_empty() => PreVerdict::Untouched,
            Some(_) => PreVerdict::Escalate,
        }
    }

    /// Evaluates the pre-test for `update` against `db` (taken as the
    /// **pre**-update state; the residual reads through a Δ-adjusted
    /// post-view). `costed` marks relations whose reads are accounted.
    pub fn eval(
        &self,
        db: &Database,
        update: &Update,
        solver: Solver,
        costed: &dyn Fn(&str) -> bool,
    ) -> PreTestEval {
        let mut eval = PreTestEval {
            verdict: PreVerdict::Escalate,
            tuples_read: 0,
            bytes_read: 0,
        };
        if !self.flat {
            return eval;
        }
        let Some(template) = self.templates.get(&UpdateTemplate::of(update)) else {
            eval.verdict = PreVerdict::Untouched;
            return eval;
        };
        let survivors = surviving_hosts(template, update, solver);
        if survivors.is_empty() {
            eval.verdict = PreVerdict::Untouched;
            return eval;
        }
        let view = PostView { db, update };
        let mut open = false;
        for (host, binding) in survivors {
            if host.class == ResidualClass::Open {
                open = true;
                continue;
            }
            if residual_fires(host, &binding, &view, costed, &mut eval) {
                eval.verdict = PreVerdict::Violated;
                return eval;
            }
        }
        eval.verdict = if open {
            PreVerdict::Escalate
        } else {
            PreVerdict::Holds
        };
        eval
    }
}

/// Compiles one hosting occurrence of a rule body.
fn compile_host(cq: &Cq, insert: bool, host_idx: usize) -> CompiledHost {
    let (host, positives, negatives): (Atom, Vec<Atom>, Vec<Atom>) = if insert {
        let mut positives = cq.positives.clone();
        let host = positives.remove(host_idx);
        (host, positives, cq.negatives.clone())
    } else {
        let mut negatives = cq.negatives.clone();
        let host = negatives.remove(host_idx);
        (host, cq.positives.clone(), negatives)
    };
    let bound: BTreeSet<&Var> = host.args.iter().filter_map(Term::as_var).collect();
    let free: Vec<usize> = positives
        .iter()
        .enumerate()
        .filter(|(_, a)| {
            a.args
                .iter()
                .filter_map(Term::as_var)
                .any(|v| !bound.contains(v))
        })
        .map(|(i, _)| i)
        .collect();
    let unbound_of = |i: usize| -> BTreeSet<&Var> {
        positives[i]
            .args
            .iter()
            .filter_map(Term::as_var)
            .filter(|v| !bound.contains(*v))
            .collect()
    };
    let (class, scan, late) = if positives.is_empty() && negatives.is_empty() {
        (ResidualClass::Verdict, None, Vec::new())
    } else if free.is_empty() {
        (ResidualClass::GroundProbe, None, Vec::new())
    } else if free.len() == 1 {
        (ResidualClass::FilteredScan, Some(free[0]), Vec::new())
    } else {
        // Several atoms keep free variables — but if one of them mentions
        // *every* unbound variable, a single scan of that atom grounds the
        // whole residual and the other free atoms become per-row point
        // probes ("late probes"). Deletes hit this shape constantly: the
        // deleted tuple binds one column and the referencing relation
        // carries the rest. Prefer a scan atom with a bound column so the
        // scan is an index probe rather than a full pass.
        let all: BTreeSet<&Var> = free.iter().flat_map(|&i| unbound_of(i)).collect();
        let covering: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&i| unbound_of(i) == all)
            .collect();
        let has_bound_col = |i: &usize| {
            positives[*i].args.iter().any(|t| match t {
                Term::Const(_) => true,
                Term::Var(v) => bound.contains(v),
            })
        };
        match covering
            .iter()
            .find(|i| has_bound_col(i))
            .or_else(|| covering.first())
        {
            Some(&s) => (
                ResidualClass::FilteredScan,
                Some(s),
                free.iter().copied().filter(|&i| i != s).collect(),
            ),
            None => (ResidualClass::Open, None, Vec::new()),
        }
    };
    CompiledHost {
        host,
        positives,
        negatives,
        comparisons: cq.comparisons.clone(),
        scan,
        late,
        class,
    }
}

/// Unifies the Δ-tuple with a host atom: constants must match, repeated
/// variables must bind consistently. `None` when the occurrence cannot
/// host the tuple.
fn unify(atom: &Atom, tuple: &Tuple) -> Option<BTreeMap<Var, Value>> {
    if atom.arity() != tuple.arity() {
        return None;
    }
    let mut binding: BTreeMap<Var, Value> = BTreeMap::new();
    for (term, value) in atom.args.iter().zip(tuple.iter()) {
        match term {
            Term::Const(c) => {
                if c != value {
                    return None;
                }
            }
            Term::Var(v) => match binding.get(v) {
                Some(bound) if bound != value => return None,
                _ => {
                    binding.insert(v.clone(), value.clone());
                }
            },
        }
    }
    Some(binding)
}

/// The substitution a binding induces (vars map to ground terms).
fn to_subst(binding: &BTreeMap<Var, Value>) -> Subst {
    Subst::from_pairs(
        binding
            .iter()
            .map(|(v, val)| (v.clone(), Term::Const(val.clone()))),
    )
}

/// Hosts of `template` the Δ-tuple survives: unification succeeds, no
/// grounded comparison is false, and the still-open comparisons remain
/// jointly satisfiable under `ccpi-arith`.
fn surviving_hosts<'a>(
    template: &'a TemplatePreTest,
    update: &Update,
    solver: Solver,
) -> Vec<(&'a CompiledHost, BTreeMap<Var, Value>)> {
    let mut out = Vec::new();
    'hosts: for host in &template.hosts {
        let Some(binding) = unify(&host.host, update.tuple()) else {
            continue;
        };
        let subst = to_subst(&binding);
        let mut still_open: Vec<Comparison> = Vec::new();
        for cmp in &host.comparisons {
            let inst = subst.apply_cmp(cmp);
            match inst.eval_ground() {
                Some(false) => continue 'hosts,
                Some(true) => {}
                None => still_open.push(inst),
            }
        }
        if !still_open.is_empty() && !solver.sat(&still_open) {
            continue;
        }
        out.push((host, binding));
    }
    out
}

/// The post-update state, read through the pre-update database plus the
/// Δ: inserts are visible, the deleted tuple is not. This is what makes
/// a *violated* verdict a real derivation — the residual is evaluated in
/// exactly the state the full check would rebuild.
struct PostView<'a> {
    db: &'a Database,
    update: &'a Update,
}

impl PostView<'_> {
    fn contains(&self, pred: &str, t: &Tuple) -> bool {
        match self.update {
            Update::Insert { pred: p, tuple } if p.as_str() == pred && tuple == t => return true,
            Update::Delete { pred: p, tuple } if p.as_str() == pred && tuple == t => return false,
            _ => {}
        }
        self.db
            .relation(pred)
            .map(|r| r.contains(t))
            .unwrap_or(false)
    }
}

/// Accounts one row read from `pred` when the caller costs it.
fn account(eval: &mut PreTestEval, costed: &dyn Fn(&str) -> bool, pred: &str, t: &Tuple) {
    if costed(pred) {
        eval.tuples_read += 1;
        eval.bytes_read += t.transfer_bytes() as u64;
    }
}

/// Does this host's residual fire in the post-state under `binding`?
/// Ground probes first (cheap, and independent of the scan variables),
/// then the single filtered scan if the class has one.
fn residual_fires(
    host: &CompiledHost,
    binding: &BTreeMap<Var, Value>,
    view: &PostView<'_>,
    costed: &dyn Fn(&str) -> bool,
    eval: &mut PreTestEval,
) -> bool {
    let subst = to_subst(binding);
    // Ground positive probes: every one must be present post-update. Late
    // atoms wait for a scan row to ground them.
    for (i, atom) in host.positives.iter().enumerate() {
        if host.scan == Some(i) || host.late.contains(&i) {
            continue;
        }
        let t = ground_tuple(&subst.apply_atom(atom))
            .expect("non-scan residual positives are ground by compilation");
        account(eval, costed, atom.pred.as_str(), &t);
        if !view.contains(atom.pred.as_str(), &t) {
            return false;
        }
    }
    let Some(scan_idx) = host.scan else {
        // Fully ground residual: the negated subgoals decide it.
        for atom in &host.negatives {
            let t = ground_tuple(&subst.apply_atom(atom))
                .expect("ground-probe residual negatives are ground by compilation");
            account(eval, costed, atom.pred.as_str(), &t);
            if view.contains(atom.pred.as_str(), &t) {
                return false;
            }
        }
        return true;
    };
    // Filtered existence scan: rows of the one open atom, constrained by
    // the bound columns (index probe when possible), each extending the
    // binding to a fully ground residual.
    let atom = &host.positives[scan_idx];
    let pattern: Vec<Term> = atom.args.iter().map(|t| subst.apply_term(t)).collect();
    let pred = atom.pred.as_str();
    let rel = view.db.relation(pred);
    let probe_col = pattern.iter().position(Term::is_const);
    let base: Vec<Tuple> = match (rel, probe_col) {
        (Some(rel), Some(col)) => {
            let Term::Const(v) = &pattern[col] else {
                unreachable!()
            };
            rel.probe(col, v).iter().cloned().collect()
        }
        (Some(rel), None) => rel.iter().cloned().collect(),
        (None, _) => Vec::new(),
    };
    // The Δ-tuple joins the scan when it lands in this relation, matches
    // the bound columns, and is genuinely new.
    let delta_row = match view.update {
        Update::Insert { pred: p, tuple }
            if p.as_str() == pred
                && tuple.arity() == pattern.len()
                && !base.contains(tuple)
                && pattern.iter().zip(tuple.iter()).all(|(t, v)| match t {
                    Term::Const(c) => c == v,
                    Term::Var(_) => true,
                }) =>
        {
            Some(tuple.clone())
        }
        _ => None,
    };
    for row in base.iter().chain(delta_row.iter()) {
        if let Update::Delete { pred: p, tuple } = view.update {
            if p.as_str() == pred && tuple == row {
                continue;
            }
        }
        account(eval, costed, pred, row);
        // Extend the binding with the row (repeated/bound vars must agree).
        let mut extended = binding.clone();
        let mut ok = true;
        for (term, value) in atom.args.iter().zip(row.iter()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => match extended.get(v) {
                    Some(bound) if bound != value => {
                        ok = false;
                        break;
                    }
                    _ => {
                        extended.insert(v.clone(), value.clone());
                    }
                },
            }
        }
        if !ok {
            continue;
        }
        let row_subst = to_subst(&extended);
        if !host
            .comparisons
            .iter()
            .all(|c| row_subst.apply_cmp(c).eval_ground().unwrap_or(false))
        {
            continue;
        }
        // Late probes: free atoms the scan row just grounded. All must be
        // present post-update for this row to witness a violation.
        let mut late_missing = false;
        for &li in &host.late {
            let atom = &host.positives[li];
            let t = ground_tuple(&row_subst.apply_atom(atom))
                .expect("the scan atom covers every unbound variable of late probes");
            account(eval, costed, atom.pred.as_str(), &t);
            if !view.contains(atom.pred.as_str(), &t) {
                late_missing = true;
                break;
            }
        }
        if late_missing {
            continue;
        }
        let mut negated_holds = false;
        for neg in &host.negatives {
            let t = ground_tuple(&row_subst.apply_atom(neg))
                .expect("scan rows ground every residual variable");
            account(eval, costed, neg.pred.as_str(), &t);
            if view.contains(neg.pred.as_str(), &t) {
                negated_holds = true;
                break;
            }
        }
        if negated_holds {
            continue;
        }
        return true;
    }
    false
}

/// The tuple a fully ground atom denotes; `None` if any term is a var.
fn ground_tuple(atom: &Atom) -> Option<Tuple> {
    atom.args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(_) => None,
        })
        .collect::<Option<Vec<Value>>>()
        .map(Tuple::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccpi_parser::parse_constraint;
    use ccpi_storage::{tuple, Locality};

    fn referential() -> Constraint {
        parse_constraint("panic :- emp(E,D,S) & not dept(D).").unwrap()
    }

    fn floor() -> Constraint {
        parse_constraint("panic :- emp(E,D,S) & salRange(D,L,H) & S < L.").unwrap()
    }

    fn emp_db() -> Database {
        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("dept", 1, Locality::Remote).unwrap();
        db.declare("salRange", 3, Locality::Remote).unwrap();
        db.insert("emp", tuple!["ann", "sales", 80]).unwrap();
        db.insert("dept", tuple!["sales"]).unwrap();
        db.insert("dept", tuple!["toys"]).unwrap();
        db.insert("salRange", tuple!["sales", 10, 200]).unwrap();
        db
    }

    fn solver() -> Solver {
        Solver::integer()
    }

    fn run(c: &Constraint, db: &Database, u: &Update) -> PreTestEval {
        PreTestSet::compile(c).eval(db, u, solver(), &|p| {
            db.locality(p) == Some(Locality::Remote)
        })
    }

    #[test]
    fn referential_insert_compiles_to_a_ground_probe() {
        let set = PreTestSet::compile(&referential());
        assert!(set.compiled());
        let t = set.template(&UpdateTemplate::insert("emp")).unwrap();
        assert_eq!(t.residual_class(), ResidualClass::GroundProbe);
        assert_eq!(t.host_count(), 1);
        assert!(t.reads().iter().any(|p| p.as_str() == "dept"));
        // Deleting from `emp` has no negated occurrence to host at.
        let del = set.template(&UpdateTemplate::delete("emp")).unwrap();
        assert_eq!(del.residual_class(), ResidualClass::Untouchable);
    }

    #[test]
    fn referential_insert_settles_both_ways() {
        let db = emp_db();
        let ok = run(
            &referential(),
            &db,
            &Update::insert("emp", tuple!["bob", "toys", 95]),
        );
        assert_eq!(ok.verdict, PreVerdict::Holds);
        assert!(ok.tuples_read > 0, "the dept probe is a remote read");
        let bad = run(
            &referential(),
            &db,
            &Update::insert("emp", tuple!["eve", "ghost", 50]),
        );
        assert_eq!(bad.verdict, PreVerdict::Violated);
    }

    #[test]
    fn floor_insert_is_a_filtered_scan_on_sal_range() {
        let set = PreTestSet::compile(&floor());
        let t = set.template(&UpdateTemplate::insert("emp")).unwrap();
        assert_eq!(t.residual_class(), ResidualClass::FilteredScan);
        let db = emp_db();
        let ok = run(
            &floor(),
            &db,
            &Update::insert("emp", tuple!["bob", "sales", 80]),
        );
        assert_eq!(ok.verdict, PreVerdict::Holds);
        let bad = run(
            &floor(),
            &db,
            &Update::insert("emp", tuple!["eve", "sales", 5]),
        );
        assert_eq!(bad.verdict, PreVerdict::Violated);
        // No salRange row for the department: the scan is empty, holds.
        let none = run(
            &floor(),
            &db,
            &Update::insert("emp", tuple!["eve", "toys", 5]),
        );
        assert_eq!(none.verdict, PreVerdict::Holds);
    }

    #[test]
    fn unrelated_updates_are_untouched() {
        let db = emp_db();
        // Inserting a department only shrinks `not dept(D)`.
        let e = run(&referential(), &db, &Update::insert("dept", tuple!["ops"]));
        assert_eq!(e.verdict, PreVerdict::Untouched);
        assert_eq!(e.tuples_read, 0);
        // A predicate the constraint never reads.
        let e = run(
            &referential(),
            &db,
            &Update::insert("manager", tuple!["a", "b"]),
        );
        assert_eq!(e.verdict, PreVerdict::Untouched);
    }

    #[test]
    fn deletion_hosts_at_the_negated_occurrence() {
        let set = PreTestSet::compile(&referential());
        let t = set.template(&UpdateTemplate::delete("dept")).unwrap();
        assert_eq!(t.residual_class(), ResidualClass::FilteredScan);
        let db = emp_db();
        // sales still employs ann: deleting it fires the residual scan.
        let bad = run(
            &referential(),
            &db,
            &Update::delete("dept", tuple!["sales"]),
        );
        assert_eq!(bad.verdict, PreVerdict::Violated);
        // toys employs nobody: the delete is clean.
        let ok = run(&referential(), &db, &Update::delete("dept", tuple!["toys"]));
        assert_eq!(ok.verdict, PreVerdict::Holds);
    }

    #[test]
    fn grounded_comparisons_falsify_hosts() {
        let c = parse_constraint("panic :- acct(I,A) & A < 0.").unwrap();
        let mut db = Database::new();
        db.declare("acct", 2, Locality::Local).unwrap();
        let set = PreTestSet::compile(&c);
        let t = set.template(&UpdateTemplate::insert("acct")).unwrap();
        assert_eq!(t.residual_class(), ResidualClass::Verdict);
        let clean = run(&c, &db, &Update::insert("acct", tuple![7, 5]));
        assert_eq!(clean.verdict, PreVerdict::Untouched);
        let bad = run(&c, &db, &Update::insert("acct", tuple![7, -5]));
        assert_eq!(bad.verdict, PreVerdict::Violated);
        assert_eq!(bad.tuples_read, 0, "a verdict residual reads nothing");
    }

    #[test]
    fn unsatisfiable_open_comparisons_falsify_hosts() {
        // After binding X, the residual comparisons box L into an empty
        // interval: the arith solver rejects the host without reading.
        let c = parse_constraint("panic :- p(X) & lim(L) & X < L & L < X.").unwrap();
        let mut db = Database::new();
        db.declare("p", 1, Locality::Local).unwrap();
        db.declare("lim", 1, Locality::Local).unwrap();
        db.insert("lim", tuple![10]).unwrap();
        let e = run(&c, &db, &Update::insert("p", tuple![5]));
        assert_eq!(e.verdict, PreVerdict::Untouched);
    }

    #[test]
    fn self_joins_host_at_every_occurrence_and_see_the_delta() {
        let c = parse_constraint("panic :- p(X,Y) & p(Y,Z) & X < Z.").unwrap();
        let mut db = Database::new();
        db.declare("p", 2, Locality::Local).unwrap();
        db.insert("p", tuple![2, 3]).unwrap();
        // (1,2) joins the existing (2,3): 1 < 3 fires via the first
        // occurrence hosting.
        let bad = run(&c, &db, &Update::insert("p", tuple![1, 2]));
        assert_eq!(bad.verdict, PreVerdict::Violated);
        // (1,1) must see itself at the second occurrence, but 1 < 1 fails.
        let mut empty = Database::new();
        empty.declare("p", 2, Locality::Local).unwrap();
        let ok = run(&c, &empty, &Update::insert("p", tuple![1, 1]));
        assert_eq!(ok.verdict, PreVerdict::Holds);
        // (0,1) into empty db: joins itself at (1,?) — nothing there.
        let ok = run(&c, &empty, &Update::insert("p", tuple![0, 1]));
        assert_eq!(ok.verdict, PreVerdict::Holds);
    }

    #[test]
    fn two_open_atoms_escalate() {
        // p contributes Y, q contributes Z, and neither atom mentions both:
        // no single scan grounds the residual, so this genuinely escalates.
        let c = parse_constraint("panic :- a(X) & p(X,Y) & q(X,Z).").unwrap();
        let mut db = Database::new();
        db.declare("a", 1, Locality::Local).unwrap();
        db.declare("p", 2, Locality::Local).unwrap();
        db.declare("q", 2, Locality::Local).unwrap();
        let set = PreTestSet::compile(&c);
        let t = set.template(&UpdateTemplate::insert("a")).unwrap();
        assert_eq!(t.residual_class(), ResidualClass::Open);
        let e = run(&c, &db, &Update::insert("a", tuple![1]));
        assert_eq!(e.verdict, PreVerdict::Escalate);
        // But the prefilter half still rules out non-hosting tuples.
        let c2 = parse_constraint("panic :- a(X) & p(X,Y) & q(X,Z) & X > 5.").unwrap();
        let set2 = PreTestSet::compile(&c2);
        assert_eq!(
            set2.prefilter(&Update::insert("a", tuple![1]), solver()),
            PreVerdict::Untouched
        );
        assert_eq!(
            set2.prefilter(&Update::insert("a", tuple![9]), solver()),
            PreVerdict::Escalate
        );
    }

    #[test]
    fn covering_scan_atom_downgrades_open_to_filtered_scan() {
        // q(Y,Z) mentions every unbound variable: scanning q grounds the
        // whole residual and p(X,Y) becomes a per-row late probe. This
        // shape used to escalate.
        let c = parse_constraint("panic :- a(X) & p(X,Y) & q(Y,Z).").unwrap();
        let set = PreTestSet::compile(&c);
        let t = set.template(&UpdateTemplate::insert("a")).unwrap();
        assert_eq!(t.residual_class(), ResidualClass::FilteredScan);

        let mut db = Database::new();
        db.declare("a", 1, Locality::Local).unwrap();
        db.declare("p", 2, Locality::Local).unwrap();
        db.declare("q", 2, Locality::Local).unwrap();
        db.insert("p", tuple![1, 7]).unwrap();
        db.insert("q", tuple![8, 9]).unwrap();
        // No q row whose Y has a matching p(1,Y): holds.
        assert_eq!(
            run(&c, &db, &Update::insert("a", tuple![1])).verdict,
            PreVerdict::Holds
        );
        // Now q(7,9) joins p(1,7): inserting a(1) completes the witness.
        db.insert("q", tuple![7, 9]).unwrap();
        assert_eq!(
            run(&c, &db, &Update::insert("a", tuple![1])).verdict,
            PreVerdict::Violated
        );
    }

    #[test]
    fn delete_with_joined_residual_settles_via_late_probes() {
        // Referential shape with an extra join: deleting dept(D) violates
        // iff some emp row references D *and* that emp is still active.
        // The residual after hosting the delete keeps two free atoms
        // (emp contributes E and S, active only E), but emp covers every
        // unbound variable — FilteredScan with active as a late probe,
        // where this previously fell through to the ladder.
        let c = parse_constraint("panic :- emp(E,D,S) & active(E,D) & not dept(D).").unwrap();
        let set = PreTestSet::compile(&c);
        let t = set.template(&UpdateTemplate::delete("dept")).unwrap();
        assert_eq!(t.residual_class(), ResidualClass::FilteredScan);

        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("active", 2, Locality::Local).unwrap();
        db.declare("dept", 1, Locality::Local).unwrap();
        db.insert("emp", tuple!["jones", "shoe", 50]).unwrap();
        db.insert("emp", tuple!["smith", "sales", 70]).unwrap();
        db.insert("active", tuple!["jones", "shoe"]).unwrap();
        db.insert("dept", tuple!["shoe"]).unwrap();
        db.insert("dept", tuple!["sales"]).unwrap();

        // shoe is referenced by an active emp: the delete trips the scan
        // (index probe on D) plus the late probe on active.
        assert_eq!(
            run(&c, &db, &Update::delete("dept", tuple!["shoe"])).verdict,
            PreVerdict::Violated
        );
        // sales is referenced but smith is not active: the late probe
        // clears the row and the delete holds.
        assert_eq!(
            run(&c, &db, &Update::delete("dept", tuple!["sales"])).verdict,
            PreVerdict::Holds
        );
    }

    #[test]
    fn monotone_and_ground_probe_deletes_settle() {
        // Deleting a tuple of the *restricted* relation is monotone: the
        // delete hosts no negated occurrence, the prefilter reports
        // Untouched, and zero rows are read.
        let c = referential();
        let mut db = Database::new();
        db.declare("emp", 3, Locality::Local).unwrap();
        db.declare("dept", 1, Locality::Local).unwrap();
        db.insert("emp", tuple!["jones", "shoe", 50]).unwrap();
        db.insert("dept", tuple!["shoe"]).unwrap();
        let e = run(&c, &db, &Update::delete("emp", tuple!["jones", "shoe", 50]));
        assert_eq!(e.verdict, PreVerdict::Untouched);
        assert_eq!(e.tuples_read, 0);

        // Fully keyed referential shape: deleting an allowed(K,V) pair is a
        // single ground probe of config — no scan at all.
        let c2 = parse_constraint("panic :- config(K,V) & not allowed(K,V).").unwrap();
        let set2 = PreTestSet::compile(&c2);
        let t2 = set2.template(&UpdateTemplate::delete("allowed")).unwrap();
        assert_eq!(t2.residual_class(), ResidualClass::GroundProbe);
        let mut db2 = Database::new();
        db2.declare("config", 2, Locality::Local).unwrap();
        db2.declare("allowed", 2, Locality::Local).unwrap();
        db2.insert("config", tuple!["mode", "fast"]).unwrap();
        db2.insert("allowed", tuple!["mode", "fast"]).unwrap();
        db2.insert("allowed", tuple!["mode", "slow"]).unwrap();
        assert_eq!(
            run(
                &c2,
                &db2,
                &Update::delete("allowed", tuple!["mode", "fast"])
            )
            .verdict,
            PreVerdict::Violated
        );
        assert_eq!(
            run(
                &c2,
                &db2,
                &Update::delete("allowed", tuple!["mode", "slow"])
            )
            .verdict,
            PreVerdict::Holds
        );
    }

    #[test]
    fn non_flat_constraints_compile_nothing() {
        let c =
            parse_constraint("bad(E) :- emp(E,D,S) & not dept(D).\npanic :- emp(E,D,S) & bad(E).")
                .unwrap();
        let set = PreTestSet::compile(&c);
        assert!(!set.compiled());
        let db = emp_db();
        let e = set.eval(
            &db,
            &Update::insert("emp", tuple!["eve", "ghost", 1]),
            solver(),
            &|_| false,
        );
        assert_eq!(e.verdict, PreVerdict::Escalate);
        assert_eq!(
            set.prefilter(&Update::insert("emp", tuple!["eve", "ghost", 1]), solver()),
            PreVerdict::Escalate
        );
    }

    #[test]
    fn multi_rule_unions_take_the_worst_class_per_template() {
        let c = parse_constraint(
            "panic :- emp(E,D,S) & not dept(D).\npanic :- emp(E,D,S) & salRange(D,L,H) & S < L.",
        )
        .unwrap();
        let set = PreTestSet::compile(&c);
        let t = set.template(&UpdateTemplate::insert("emp")).unwrap();
        assert_eq!(t.host_count(), 2);
        assert_eq!(t.residual_class(), ResidualClass::FilteredScan);
        let db = emp_db();
        // Violates the second rule only.
        let bad = run(&c, &db, &Update::insert("emp", tuple!["eve", "sales", 5]));
        assert_eq!(bad.verdict, PreVerdict::Violated);
        // Violates the first rule only.
        let bad = run(&c, &db, &Update::insert("emp", tuple!["eve", "ghost", 50]));
        assert_eq!(bad.verdict, PreVerdict::Violated);
        // Violates neither.
        let ok = run(&c, &db, &Update::insert("emp", tuple!["eve", "sales", 50]));
        assert_eq!(ok.verdict, PreVerdict::Holds);
    }
}
