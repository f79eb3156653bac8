//! Compiled join plans: each rule is planned once at [`Engine`] build
//! time, then evaluated with dense variable slots instead of hash-map
//! substitutions.
//!
//! The interpreter in [`crate::join`] re-derives three things on every
//! binding at every search depth: which subgoal to expand next (a
//! bound-score argmax), which guards are ready (a scan over *all*
//! comparisons and negations), and which column to probe. All three are
//! functions of the *set* of bound variables, which is known per level at
//! compile time — so [`JoinPlan`] precomputes them:
//!
//! * variables are numbered densely in binding order, so the runtime
//!   binding environment is a `Vec<Option<Value>>` indexed by slot;
//! * the subgoal order is fixed by the same greedy bound-score heuristic
//!   the interpreter applies dynamically;
//! * every comparison and negation guard is attached to the single
//!   earliest level at which all its variables are bound, and checked
//!   exactly once per candidate binding;
//! * the probe column for each level (the first argument position that is
//!   a constant or an already-bound variable) is chosen at plan time, and
//!   executed through [`Relation::probe`] so candidate tuples are
//!   borrowed, never cloned.
//!
//! [`Engine`]: crate::Engine
//! [`Relation::probe`]: ccpi_storage::Relation::probe

use crate::join::Store;
use ccpi_ir::{Atom, CompOp, Rule, Sym, Term, Value, Var};
use ccpi_storage::{Relation, Tuple};
use std::collections::{BTreeMap, HashMap};

/// A term resolved against the slot numbering: either a constant or the
/// slot of a variable that is bound by the time the spec is used.
#[derive(Clone, Debug)]
enum Spec {
    Const(Value),
    Slot(usize),
}

impl Spec {
    fn resolve<'a>(&'a self, env: &'a [Option<Value>]) -> &'a Value {
        match self {
            Spec::Const(v) => v,
            Spec::Slot(s) => env[*s].as_ref().expect("slot bound by plan order"),
        }
    }
}

/// How one argument position of a positive subgoal meets a candidate
/// tuple component.
#[derive(Clone, Debug)]
enum ArgAction {
    /// The component must equal this constant.
    MatchConst(Value),
    /// The component must equal the value already in this slot (bound at
    /// an earlier level, or by an earlier position of this same atom).
    MatchSlot(usize),
    /// First occurrence of the variable: bind this slot to the component.
    Bind(usize),
}

/// A guard scheduled at a level: checked once per candidate binding as
/// soon as all its variables are bound.
#[derive(Clone, Debug)]
enum Guard {
    /// An arithmetic comparison `lhs op rhs`.
    Cmp { lhs: Spec, op: CompOp, rhs: Spec },
    /// A negated subgoal: fails when the instantiated tuple is present in
    /// the full store.
    Neg { pred: Sym, args: Vec<Spec> },
}

impl Guard {
    fn holds(&self, env: &[Option<Value>], full: &Store, overlay: Option<&Overlay<'_>>) -> bool {
        match self {
            Guard::Cmp { lhs, op, rhs } => op.eval(lhs.resolve(env), rhs.resolve(env)),
            Guard::Neg { pred, args } => {
                let t: Tuple = args.iter().map(|s| s.resolve(env).clone()).collect();
                !full.contains(pred, &t) && !overlay.is_some_and(|o| o.contains(pred, &t))
            }
        }
    }
}

/// Extra tuples overlaid on a base store: a read of relation `p` sees
/// `base(p) ∪ extra(p)`. Seeded delta evaluation uses this to present the
/// post-update database without materializing a copy-on-write snapshot —
/// the whole point of the delta path is that its cost tracks `|Δ|`, not
/// `|DB|`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Overlay<'a> {
    extra: BTreeMap<Sym, &'a [Tuple]>,
}

impl<'a> Overlay<'a> {
    pub(crate) fn add(&mut self, pred: Sym, tuples: &'a [Tuple]) {
        if !tuples.is_empty() {
            self.extra.insert(pred, tuples);
        }
    }

    fn tuples(&self, pred: &Sym) -> &'a [Tuple] {
        self.extra.get(pred).copied().unwrap_or(&[])
    }

    fn contains(&self, pred: &Sym, t: &Tuple) -> bool {
        self.tuples(pred).contains(t)
    }
}

/// One join level: a positive subgoal with its precompiled access path.
#[derive(Clone, Debug)]
struct Level {
    /// Index of this subgoal in the rule's positive-subgoal order (the
    /// delta designation in semi-naive evaluation uses these indexes).
    subgoal: usize,
    /// The subgoal's predicate.
    pred: Sym,
    /// Probe column and key, when some argument is determined before this
    /// level; `None` ⇒ full scan of the (delta or full) relation.
    probe: Option<(usize, Spec)>,
    /// Per-argument actions against a candidate tuple.
    actions: Vec<ArgAction>,
    /// Slots first bound at this level (a dense, contiguous range — slots
    /// are numbered in binding order), unbound again on backtracking.
    binds: Vec<usize>,
    /// Guards that become fully bound once this level has matched.
    guards: Vec<Guard>,
}

/// A rule compiled for evaluation. Built once per rule by
/// [`JoinPlan::compile`]; evaluation allocates one slot vector per call
/// and walks the fixed level order.
#[derive(Clone, Debug)]
pub(crate) struct JoinPlan {
    /// Guards with no variables (ground comparisons, 0-ary negations),
    /// checked once before any level runs.
    preguards: Vec<Guard>,
    levels: Vec<Level>,
    /// Head template: one spec per head argument.
    head: Vec<Spec>,
    /// Total number of variable slots.
    slots: usize,
}

/// Bound-score of an atom given the set of bound variables: how many
/// argument positions are already determined. Mirrors the interpreter's
/// greedy heuristic, including its tie-breaking (`max_by_key` keeps the
/// *last* maximum), so plans visit subgoals in the same order the
/// interpreter would on an empty database.
fn bound_score(atom: &Atom, bound: &HashMap<Var, usize>) -> usize {
    atom.args
        .iter()
        .filter(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains_key(v),
        })
        .count()
}

impl JoinPlan {
    /// Compiles a rule. The rule must be safe (every head / comparison /
    /// negation variable occurs in some positive subgoal) — guaranteed by
    /// `Engine::new` validation before plans are built.
    pub(crate) fn compile(rule: &Rule) -> JoinPlan {
        JoinPlan::compile_ordered(rule, None)
    }

    /// Compiles a **delta plan**: the positive subgoal at occurrence index
    /// `seed` is forced into level 0, where [`JoinPlan::eval_seeded`] will
    /// substitute Δ-tuples instead of reading the store. The remaining
    /// subgoals are re-ordered by the same greedy bound-score heuristic,
    /// now measured from the variables the seed binds, and every guard
    /// re-hoists to its new earliest fully-bound level (comparisons over
    /// seed variables become level-0 guards, pruning before any join).
    pub(crate) fn compile_seeded(rule: &Rule, seed: usize) -> JoinPlan {
        JoinPlan::compile_ordered(rule, Some(seed))
    }

    fn compile_ordered(rule: &Rule, forced_first: Option<usize>) -> JoinPlan {
        let positives: Vec<&Atom> = rule.positive_subgoals().collect();
        let negatives: Vec<&Atom> = rule.negated_subgoals().collect();
        let comparisons: Vec<_> = rule.comparisons().collect();

        // Fix the level order: greedy bound-score over planned bindings,
        // with the seed occurrence (if any) pinned to the front.
        let mut slots: HashMap<Var, usize> = HashMap::new();
        let mut order: Vec<usize> = Vec::with_capacity(positives.len());
        let mut used = vec![false; positives.len()];
        for step in 0..positives.len() {
            let next = match forced_first {
                Some(f) if step == 0 => f,
                _ => (0..positives.len())
                    .filter(|&i| !used[i])
                    .max_by_key(|&i| bound_score(positives[i], &slots))
                    .expect("an unused subgoal exists"),
            };
            used[next] = true;
            order.push(next);
            for v in positives[next].vars() {
                let n = slots.len();
                slots.entry(v.clone()).or_insert(n);
            }
        }

        let spec = |t: &Term| -> Spec {
            match t {
                Term::Const(c) => Spec::Const(c.clone()),
                Term::Var(v) => Spec::Slot(slots[v]),
            }
        };

        // Attach each guard to the earliest level where it is fully bound.
        // `level_of` = the number of levels that must have matched before
        // every variable of the guard is bound (0 ⇒ a pre-guard).
        let mut bound_after: Vec<HashMap<Var, usize>> = Vec::with_capacity(order.len() + 1);
        bound_after.push(HashMap::new());
        let mut acc: HashMap<Var, usize> = HashMap::new();
        for &i in &order {
            for v in positives[i].vars() {
                let n = acc.len();
                acc.entry(v.clone()).or_insert(n);
            }
            bound_after.push(acc.clone());
        }
        let level_of = |vars: Vec<&Var>| -> usize {
            (0..bound_after.len())
                .find(|&l| vars.iter().all(|v| bound_after[l].contains_key(*v)))
                .expect("safety: all guard variables bound by the last level")
        };

        let mut preguards: Vec<Guard> = Vec::new();
        let mut guards_at: Vec<Vec<Guard>> = vec![Vec::new(); order.len()];
        for c in &comparisons {
            let g = Guard::Cmp {
                lhs: spec(&c.lhs),
                op: c.op,
                rhs: spec(&c.rhs),
            };
            match level_of(c.vars().collect()) {
                0 => preguards.push(g),
                l => guards_at[l - 1].push(g),
            }
        }
        for n in &negatives {
            let g = Guard::Neg {
                pred: n.pred.clone(),
                args: n.args.iter().map(&spec).collect(),
            };
            match level_of(n.vars().collect()) {
                0 => preguards.push(g),
                l => guards_at[l - 1].push(g),
            }
        }

        // Build the levels with their access paths.
        let mut levels: Vec<Level> = Vec::with_capacity(order.len());
        for (depth, &i) in order.iter().enumerate() {
            let atom = positives[i];
            let before = &bound_after[depth];
            let probe = atom.args.iter().enumerate().find_map(|(col, t)| match t {
                Term::Const(c) => Some((col, Spec::Const(c.clone()))),
                Term::Var(v) if before.contains_key(v) => Some((col, Spec::Slot(slots[v]))),
                Term::Var(_) => None,
            });
            let mut seen_here: HashMap<&Var, usize> = HashMap::new();
            let mut binds: Vec<usize> = Vec::new();
            let actions: Vec<ArgAction> = atom
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => ArgAction::MatchConst(c.clone()),
                    Term::Var(v) if before.contains_key(v) => ArgAction::MatchSlot(slots[v]),
                    Term::Var(v) => match seen_here.get(v) {
                        Some(&s) => ArgAction::MatchSlot(s),
                        None => {
                            let s = slots[v];
                            seen_here.insert(v, s);
                            binds.push(s);
                            ArgAction::Bind(s)
                        }
                    },
                })
                .collect();
            levels.push(Level {
                subgoal: i,
                pred: atom.pred.clone(),
                probe,
                actions,
                binds,
                guards: std::mem::take(&mut guards_at[depth]),
            });
        }

        JoinPlan {
            preguards,
            levels,
            head: rule.head.args.iter().map(&spec).collect(),
            slots: slots.len(),
        }
    }

    /// Number of positive subgoals (one level each; delta designations
    /// range over these).
    pub(crate) fn positive_count(&self) -> usize {
        self.levels.len()
    }

    /// Evaluates the plan bottom-up, mirroring `join::eval_rule`:
    ///
    /// * `full` supplies every positive subgoal except, when `delta =
    ///   Some((d, i))`, the positive subgoal originally at index `i`,
    ///   which reads from `d` (semi-naive's "at least one new tuple").
    /// * Negated subgoals always read `full` — stratification guarantees
    ///   their relations are complete.
    /// * Emits each derived head tuple through `emit`.
    pub(crate) fn eval(
        &self,
        full: &Store,
        delta: Option<(&Store, usize)>,
        emit: &mut dyn FnMut(Tuple),
    ) {
        self.eval_inner(
            &EvalCx {
                full,
                delta,
                seeds: None,
                overlay: None,
            },
            emit,
        );
    }

    /// Evaluates a plan built by [`JoinPlan::compile_seeded`] against the
    /// *pre-update* store plus a Δ overlay:
    ///
    /// * level 0 (the seed level) iterates `seeds` — the Δ-tuples of the
    ///   designated occurrence's relation — and never touches the store;
    /// * every other level, and every negation guard, reads
    ///   `full ∪ overlay`, i.e. the post-update state of each relation.
    ///
    /// The union over a rule's k seeded plans (one per occurrence of the
    /// Δ relation) is exactly the set of head tuples derivable on the
    /// post-update database *using at least one Δ-tuple*: any such
    /// derivation maps some occurrence to a Δ-tuple and is found by that
    /// occurrence's plan, because the remaining occurrences see the full
    /// post-update contents.
    pub(crate) fn eval_seeded(
        &self,
        full: &Store,
        overlay: &Overlay<'_>,
        seeds: &[Tuple],
        emit: &mut dyn FnMut(Tuple),
    ) {
        self.eval_inner(
            &EvalCx {
                full,
                delta: None,
                seeds: Some(seeds),
                overlay: Some(overlay),
            },
            emit,
        );
    }

    fn eval_inner(&self, cx: &EvalCx<'_>, emit: &mut dyn FnMut(Tuple)) {
        let mut env: Vec<Option<Value>> = vec![None; self.slots];
        if !self
            .preguards
            .iter()
            .all(|g| g.holds(&env, cx.full, cx.overlay))
        {
            return;
        }
        self.descend(0, &mut env, cx, emit);
    }

    fn descend(
        &self,
        depth: usize,
        env: &mut Vec<Option<Value>>,
        cx: &EvalCx<'_>,
        emit: &mut dyn FnMut(Tuple),
    ) {
        if depth == self.levels.len() {
            let t: Tuple = self.head.iter().map(|s| s.resolve(env).clone()).collect();
            emit(t);
            return;
        }
        let level = &self.levels[depth];

        // Seeded plans: the seed level reads its Δ-tuples and nothing else.
        if depth == 0 {
            if let Some(seeds) = cx.seeds {
                for t in seeds {
                    self.try_tuple(level, t, depth, env, cx, emit);
                }
                return;
            }
        }

        let rel: Option<&Relation> = match cx.delta {
            Some((d, pos)) if pos == level.subgoal => d.get(&level.pred),
            _ => cx.full.get(&level.pred),
        };
        if let Some(rel) = rel {
            match &level.probe {
                Some((col, key)) => {
                    let key = key.resolve(env).clone();
                    let candidates = rel.probe(*col, &key);
                    for t in candidates.iter() {
                        self.try_tuple(level, t, depth, env, cx, emit);
                    }
                }
                None => {
                    for t in rel.iter() {
                        self.try_tuple(level, t, depth, env, cx, emit);
                    }
                }
            }
        }

        // Overlay tuples are few (|Δ|); run them through the same action
        // matcher rather than the probe path. The probe is an access-path
        // optimization only — actions re-verify every column.
        if let Some(overlay) = cx.overlay {
            for t in overlay.tuples(&level.pred) {
                self.try_tuple(level, t, depth, env, cx, emit);
            }
        }
    }

    fn try_tuple(
        &self,
        level: &Level,
        t: &Tuple,
        depth: usize,
        env: &mut Vec<Option<Value>>,
        cx: &EvalCx<'_>,
        emit: &mut dyn FnMut(Tuple),
    ) {
        debug_assert_eq!(level.actions.len(), t.arity());
        let matched = level.actions.iter().zip(t.iter()).all(|(a, v)| match a {
            ArgAction::MatchConst(c) => c == v,
            ArgAction::MatchSlot(s) => env[*s].as_ref() == Some(v),
            ArgAction::Bind(s) => {
                env[*s] = Some(v.clone());
                true
            }
        });
        if matched
            && level
                .guards
                .iter()
                .all(|g| g.holds(env, cx.full, cx.overlay))
        {
            self.descend(depth + 1, env, cx, emit);
        }
        for &s in &level.binds {
            env[s] = None;
        }
    }
}

/// Evaluation context threaded through [`JoinPlan::descend`]: the base
/// store, an optional semi-naive delta designation, and (for seeded delta
/// plans) the seed tuples and Δ overlay.
struct EvalCx<'a> {
    full: &'a Store,
    delta: Option<(&'a Store, usize)>,
    seeds: Option<&'a [Tuple]>,
    overlay: Option<&'a Overlay<'a>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccpi_parser::parse_rule;
    use ccpi_storage::tuple;

    fn store(entries: &[(&str, usize, Vec<Tuple>)]) -> Store {
        let mut s = Store::default();
        for (name, arity, tuples) in entries {
            let sym = Sym::new(name);
            for t in tuples {
                s.insert(&sym, *arity, t.clone());
            }
            s.rels.entry(sym).or_insert_with(|| Relation::new(*arity));
        }
        s
    }

    /// Plan evaluation and the reference interpreter agree on a rule/store.
    fn assert_matches_interpreter(rule_src: &str, full: &Store) {
        let rule = parse_rule(rule_src).unwrap();
        let plan = JoinPlan::compile(&rule);
        let mut planned = Vec::new();
        plan.eval(full, None, &mut |t| planned.push(t));
        planned.sort();
        planned.dedup();
        let mut interpreted = Vec::new();
        crate::join::eval_rule(&rule, full, None, &mut |t| interpreted.push(t));
        interpreted.sort();
        interpreted.dedup();
        assert_eq!(planned, interpreted, "{rule_src}");
    }

    #[test]
    fn plan_matches_interpreter_on_joins_guards_and_negation() {
        let s = store(&[
            (
                "emp",
                3,
                vec![
                    tuple!["a", "sales", 50],
                    tuple!["b", "toys", 150],
                    tuple!["c", "sales", 90],
                ],
            ),
            ("mgr", 2, vec![tuple!["sales", "m1"], tuple!["toys", "m2"]]),
            ("dept", 1, vec![tuple!["sales"]]),
        ]);
        for rule in [
            "q(E) :- emp(E,D,S).",
            "q(E,M) :- emp(E,D,S) & mgr(D,M).",
            "q(E) :- emp(E,sales,S).",
            "q(E) :- emp(E,D,S) & S < 100.",
            "q(E) :- emp(E,D,S) & not dept(D).",
            "q(E) :- emp(E,D,S) & mgr(D,M) & S < 100 & not dept(D).",
            "q(E,F) :- emp(E,D,S) & emp(F,D,T) & S < T.",
        ] {
            assert_matches_interpreter(rule, &s);
        }
    }

    #[test]
    fn repeated_variables_within_an_atom() {
        let s = store(&[("p", 2, vec![tuple![1, 1], tuple![1, 2], tuple![3, 3]])]);
        assert_matches_interpreter("q(X) :- p(X,X).", &s);
    }

    #[test]
    fn cartesian_products_and_head_constants() {
        let s = store(&[
            ("a", 1, vec![tuple![1], tuple![2]]),
            ("b", 1, vec![tuple![10]]),
        ]);
        assert_matches_interpreter("q(X,Y) :- a(X) & b(Y).", &s);
        assert_matches_interpreter("q(X,fixed) :- a(X).", &s);
    }

    #[test]
    fn ground_guards_run_before_any_level() {
        let s = store(&[("p", 1, vec![tuple![1]])]);
        let rule = parse_rule("q(X) :- p(X) & 2 < 1.").unwrap();
        let plan = JoinPlan::compile(&rule);
        assert_eq!(plan.preguards.len(), 1);
        let mut out = Vec::new();
        plan.eval(&s, None, &mut |t| out.push(t));
        assert!(out.is_empty());
        assert_matches_interpreter("q(X) :- p(X) & 1 < 2.", &s);
    }

    #[test]
    fn zero_ary_atoms() {
        let mut s = store(&[("alarm", 0, vec![])]);
        let rule = parse_rule("panic :- alarm.").unwrap();
        let plan = JoinPlan::compile(&rule);
        let mut out = Vec::new();
        plan.eval(&s, None, &mut |t| out.push(t));
        assert!(out.is_empty());
        s.insert(&Sym::new("alarm"), 0, Tuple::unit());
        plan.eval(&s, None, &mut |t| out.push(t));
        assert_eq!(out, vec![Tuple::unit()]);
    }

    #[test]
    fn delta_restricts_the_designated_subgoal() {
        let full = store(&[
            ("e", 2, vec![tuple![1, 2], tuple![2, 3]]),
            ("path", 2, vec![tuple![1, 2], tuple![2, 3]]),
        ]);
        let delta = store(&[("path", 2, vec![tuple![2, 3]])]);
        let rule = parse_rule("path(X,Z) :- path(X,Y) & e(Y,Z).").unwrap();
        let plan = JoinPlan::compile(&rule);
        let mut planned = Vec::new();
        plan.eval(&full, Some((&delta, 0)), &mut |t| planned.push(t));
        planned.sort();
        planned.dedup();
        let mut interpreted = Vec::new();
        crate::join::eval_rule(&rule, &full, Some((&delta, 0)), &mut |t| {
            interpreted.push(t)
        });
        interpreted.sort();
        interpreted.dedup();
        assert_eq!(planned, interpreted);
        // Only extensions of the delta tuple (2,3): needs e(3,_) — none.
        assert!(planned.is_empty());
    }

    #[test]
    fn probe_columns_are_chosen_at_plan_time() {
        // Second level joins on D (bound by level 1) — the plan must carry
        // a probe, not a scan.
        let rule = parse_rule("q(E,M) :- emp(E,D) & mgr(D,M).").unwrap();
        let plan = JoinPlan::compile(&rule);
        let probed = plan.levels.iter().filter(|l| l.probe.is_some()).count();
        assert_eq!(probed, 1, "exactly the join level probes");
        // A constant argument probes even at the first level.
        let rule = parse_rule("q(E) :- emp(E,sales).").unwrap();
        let plan = JoinPlan::compile(&rule);
        assert!(plan.levels[0].probe.is_some());
    }

    #[test]
    fn seeded_plans_pin_the_seed_level_and_rehoist_guards() {
        // Greedy order would start at emp (occurrence 0); force mgr
        // (occurrence 1) first instead. M is then bound at level 0, so
        // `M <> m1` re-hoists to the seed level; `S < 100` stays with emp.
        let rule = parse_rule("q(E) :- emp(E,D,S) & mgr(D,M) & S < 100 & M <> m1.").unwrap();
        let plan = JoinPlan::compile_seeded(&rule, 1);
        assert_eq!(plan.levels[0].subgoal, 1);
        assert_eq!(plan.levels[1].subgoal, 0);
        assert_eq!(plan.levels[0].guards.len(), 1);
        assert_eq!(plan.levels[1].guards.len(), 1);
        // The re-ordered second level joins on D, bound by the seed.
        assert!(plan.levels[1].probe.is_some());
    }

    #[test]
    fn seeded_eval_equals_designated_interpreter_on_materialized_post() {
        // Self-join: two occurrences of emp. For each occurrence, seeding
        // the plan with Δ over the base store + overlay must derive exactly
        // what the interpreter derives on the *materialized* post store
        // with that occurrence delta-designated.
        let base = store(&[(
            "emp",
            3,
            vec![tuple!["a", "sales", 50], tuple!["b", "toys", 150]],
        )]);
        let fresh = vec![tuple!["c", "sales", 90], tuple!["d", "toys", 40]];
        let mut post = base.clone();
        let mut dstore = Store::default();
        for t in &fresh {
            post.insert(&Sym::new("emp"), 3, t.clone());
            dstore.insert(&Sym::new("emp"), 3, t.clone());
        }
        let mut overlay = Overlay::default();
        overlay.add(Sym::new("emp"), &fresh);

        let rule = parse_rule("q(E,F) :- emp(E,D,S) & emp(F,D,T) & S < T.").unwrap();
        for occ in 0..2 {
            let plan = JoinPlan::compile_seeded(&rule, occ);
            let mut seeded = Vec::new();
            plan.eval_seeded(&base, &overlay, &fresh, &mut |t| seeded.push(t));
            seeded.sort();
            seeded.dedup();
            let mut reference = Vec::new();
            crate::join::eval_rule(&rule, &post, Some((&dstore, occ)), &mut |t| {
                reference.push(t)
            });
            reference.sort();
            reference.dedup();
            assert_eq!(seeded, reference, "occurrence {occ}");
        }
    }

    #[test]
    fn guards_attach_to_their_earliest_level() {
        // S is bound at level 1 (emp), M at level 2 (mgr): S<100 must sit
        // on level 1, M<>m1 on level 2.
        let rule = parse_rule("q(E) :- emp(E,D,S) & mgr(D,M) & S < 100 & M <> m1.").unwrap();
        let plan = JoinPlan::compile(&rule);
        assert_eq!(plan.levels[0].guards.len(), 1);
        assert_eq!(plan.levels[1].guards.len(), 1);
        assert!(plan.preguards.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ccpi_parser::parse_rule;
    use ccpi_storage::tuple;
    use proptest::prelude::*;

    /// One argument position of a generated atom.
    #[derive(Clone, Debug)]
    enum Arg {
        Var(usize),
        Const(i64),
    }

    fn arg() -> impl Strategy<Value = Arg> {
        prop_oneof![
            (0usize..4).prop_map(Arg::Var),
            (0usize..4).prop_map(Arg::Var),
            (0usize..4).prop_map(Arg::Var),
            (0i64..4).prop_map(Arg::Const),
        ]
    }

    const VARS: [&str; 4] = ["X", "Y", "Z", "W"];
    const OPS: [&str; 6] = ["<", "<=", ">", ">=", "=", "<>"];

    fn render(a: &Arg) -> String {
        match a {
            Arg::Var(i) => VARS[*i].to_string(),
            Arg::Const(c) => c.to_string(),
        }
    }

    /// Renders a random **safe** rule: body atoms over `p/2` and `q/2`, an
    /// optional comparison and negated `n/2` subgoal over variables the
    /// atoms bind (constants when nothing is bound), and a head projecting
    /// two of the bound variables.
    fn rule_src(
        atoms: &[(bool, Arg, Arg)],
        cmp: &Option<(usize, usize, usize)>,
        neg: &Option<(usize, usize)>,
        head: (usize, usize),
    ) -> String {
        let mut bound: Vec<usize> = Vec::new();
        let mut body: Vec<String> = Vec::new();
        for (q, a, b) in atoms {
            for arg in [a, b] {
                if let Arg::Var(i) = arg {
                    if !bound.contains(i) {
                        bound.push(*i);
                    }
                }
            }
            let pred = if *q { "q" } else { "p" };
            body.push(format!("{pred}({},{})", render(a), render(b)));
        }
        let pick = |i: usize| -> String {
            if bound.is_empty() {
                "0".to_string()
            } else {
                VARS[bound[i % bound.len()]].to_string()
            }
        };
        if let Some((l, op, r)) = cmp {
            body.push(format!("{} {} {}", pick(*l), OPS[op % OPS.len()], pick(*r)));
        }
        if let Some((a, b)) = neg {
            body.push(format!("not n({},{})", pick(*a), pick(*b)));
        }
        format!(
            "h({},{}) :- {}.",
            pick(head.0),
            pick(head.1),
            body.join(" & ")
        )
    }

    fn eval_both(
        rule: &Rule,
        plan: &JoinPlan,
        full: &Store,
        delta: Option<(&Store, usize)>,
    ) -> (Vec<Tuple>, Vec<Tuple>) {
        let mut planned = Vec::new();
        plan.eval(full, delta, &mut |t| planned.push(t));
        planned.sort();
        planned.dedup();
        let mut interpreted = Vec::new();
        crate::join::eval_rule(rule, full, delta, &mut |t| interpreted.push(t));
        interpreted.sort();
        interpreted.dedup();
        (planned, interpreted)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The compiled plan and the nested-loop interpreter derive the
        /// same tuples on random rules and random databases — both on a
        /// full evaluation and under a semi-naive delta designation.
        #[test]
        fn compiled_plan_matches_interpreter_on_random_rules(
            atoms in prop::collection::vec((any::<bool>(), arg(), arg()), 1..=3),
            cmp in prop::option::of((0usize..8, 0usize..6, 0usize..8)),
            neg in prop::option::of((0usize..8, 0usize..8)),
            head in (0usize..8, 0usize..8),
            p_tuples in prop::collection::btree_set((0i64..4, 0i64..4), 0..10),
            q_tuples in prop::collection::btree_set((0i64..4, 0i64..4), 0..10),
            n_tuples in prop::collection::btree_set((0i64..4, 0i64..4), 0..6),
            delta_pos in 0usize..3,
            delta_mask in prop::collection::vec(any::<bool>(), 10),
        ) {
            let src = rule_src(&atoms, &cmp, &neg, head);
            let rule = parse_rule(&src).unwrap();
            let mut full = Store::default();
            for (name, tuples) in [("p", &p_tuples), ("q", &q_tuples), ("n", &n_tuples)] {
                let sym = Sym::new(name);
                for (a, b) in tuples.iter() {
                    full.insert(&sym, 2, tuple![*a, *b]);
                }
                full.rels.entry(sym).or_insert_with(|| Relation::new(2));
            }
            let plan = JoinPlan::compile(&rule);

            let (planned, interpreted) = eval_both(&rule, &plan, &full, None);
            prop_assert_eq!(planned, interpreted, "rule: {}", src);

            // Restrict a random positive subgoal to a random delta subset.
            let pos = delta_pos % atoms.len();
            let pred = Sym::new(if atoms[pos].0 { "q" } else { "p" });
            let mut delta = Store::default();
            if let Some(rel) = full.get(&pred) {
                for (i, t) in rel.iter().enumerate() {
                    if delta_mask.get(i).copied().unwrap_or(false) {
                        delta.insert(&pred, 2, t.clone());
                    }
                }
            }
            let (planned, interpreted) = eval_both(&rule, &plan, &full, Some((&delta, pos)));
            prop_assert_eq!(planned, interpreted, "rule (delta subgoal {}): {}", pos, src);
        }
    }
}
