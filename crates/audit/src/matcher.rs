//! The trusted kernel: a naive backtracking ground matcher.
//!
//! Everything the auditor believes about a database reduces to the two
//! questions this module answers by direct enumeration — *is there a
//! ground assignment satisfying this rule body?* (possibly seeded
//! through a Δ-tuple) and *does this specific assignment satisfy it?*
//! No join plans, no compiled pre-tests, no solver: predictable
//! worst-case cost is the price of an auditable trust base.

use ccpi_ir::{Atom, Rule, Subst, Term, Var};
use ccpi_storage::{Database, Tuple, Update};

/// Extends `env` so `atom` matches the ground tuple `t`, or `None` if it
/// cannot (arity/constant clash, or a variable already bound elsewhere).
fn unify_atom(atom: &Atom, t: &Tuple, env: &Subst) -> Option<Subst> {
    if atom.args.len() != t.arity() {
        return None;
    }
    let mut env = env.clone();
    for (arg, v) in atom.args.iter().zip(t.iter()) {
        match arg {
            Term::Const(c) => {
                if c != v {
                    return None;
                }
            }
            Term::Var(var) => match env.get(var) {
                Some(Term::Const(c)) => {
                    if c != v {
                        return None;
                    }
                }
                Some(Term::Var(_)) => return None,
                None => {
                    env.bind(var.clone(), Term::Const(v.clone()));
                }
            },
        }
    }
    Some(env)
}

/// The ground tuple of a fully instantiated atom.
fn ground_tuple(atom: &Atom) -> Option<Tuple> {
    let mut vals = Vec::with_capacity(atom.args.len());
    for a in &atom.args {
        vals.push(a.as_const()?.clone());
    }
    Some(Tuple::new(vals))
}

/// Checks the rule's guards — negated subgoals and comparisons — under a
/// (supposedly complete) assignment. Errors name the first failing guard.
fn guards_hold(rule: &Rule, db: &Database, env: &Subst) -> Result<(), String> {
    for atom in rule.negated_subgoals() {
        let g = env.apply_atom(atom);
        let t = ground_tuple(&g)
            .ok_or_else(|| format!("negated subgoal {g} is not ground under the assignment"))?;
        if db.relation(g.pred.as_str()).is_some_and(|r| r.contains(&t)) {
            return Err(format!(
                "negated subgoal not {g} fails: the tuple is present"
            ));
        }
    }
    for cmp in rule.comparisons() {
        let g = env.apply_cmp(cmp);
        match g.eval_ground() {
            Some(true) => {}
            Some(false) => return Err(format!("comparison {g} is false under the assignment")),
            None => {
                return Err(format!("comparison {g} is not ground under the assignment"));
            }
        }
    }
    Ok(())
}

/// Depth-first search binding `pos[i..]` against the database, then
/// checking the guards. Returns the first satisfying assignment.
fn solve(pos: &[&Atom], i: usize, db: &Database, env: Subst, rule: &Rule) -> Option<Subst> {
    if i == pos.len() {
        return guards_hold(rule, db, &env).is_ok().then_some(env);
    }
    let atom = pos[i];
    let rel = db.relation(atom.pred.as_str())?;
    // Probe an index when some column is already decided — the matcher
    // stays naive about join order but need not scan what it can look up.
    let probe = atom.args.iter().enumerate().find_map(|(col, arg)| {
        let value = match arg {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => match env.get(v) {
                Some(Term::Const(c)) => Some(c.clone()),
                _ => None,
            },
        }?;
        rel.has_index(col).then_some((col, value))
    });
    if let Some((col, value)) = probe {
        for t in rel.probe(col, &value).iter() {
            if let Some(env2) = unify_atom(atom, t, &env) {
                if let Some(found) = solve(pos, i + 1, db, env2, rule) {
                    return Some(found);
                }
            }
        }
        return None;
    }
    for t in rel.iter() {
        if let Some(env2) = unify_atom(atom, t, &env) {
            if let Some(found) = solve(pos, i + 1, db, env2, rule) {
                return Some(found);
            }
        }
    }
    None
}

/// Searches the judged instance for any assignment satisfying the rule
/// body — the unseeded (full) violation search.
pub fn find_witness(rule: &Rule, db: &Database) -> Option<Subst> {
    let pos: Vec<&Atom> = rule.positive_subgoals().collect();
    solve(&pos, 0, db, Subst::new(), rule)
}

/// Searches for a violation deriving *through the Δ-tuple*: an insert
/// seeds each positive occurrence of the updated predicate, a delete
/// seeds each negated occurrence. Under the §2 standing assumption (the
/// pre-update state satisfies the constraint) this is complete — every
/// new violation of a single-rule constraint uses the Δ-tuple — so an
/// empty result verifies a `Holds` verdict outright.
pub fn seeded_witness(rule: &Rule, db: &Database, update: &Update) -> Option<Subst> {
    let pred = update.pred().as_str();
    let pos: Vec<&Atom> = rule.positive_subgoals().collect();
    if update.is_insert() {
        for (j, atom) in pos.iter().enumerate() {
            if atom.pred.as_str() != pred {
                continue;
            }
            let Some(env) = unify_atom(atom, update.tuple(), &Subst::new()) else {
                continue;
            };
            let rest: Vec<&Atom> = pos
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != j)
                .map(|(_, a)| *a)
                .collect();
            if let Some(found) = solve(&rest, 0, db, env, rule) {
                return Some(found);
            }
        }
    } else {
        for atom in rule.negated_subgoals() {
            if atom.pred.as_str() != pred {
                continue;
            }
            let Some(env) = unify_atom(atom, update.tuple(), &Subst::new()) else {
                continue;
            };
            if let Some(found) = solve(&pos, 0, db, env, rule) {
                return Some(found);
            }
        }
    }
    None
}

/// Verifies that a specific assignment satisfies the rule body in the
/// judged instance: every positive subgoal ground and present, every
/// negated subgoal ground and absent, every comparison true.
pub fn witness_satisfies(rule: &Rule, db: &Database, env: &Subst) -> Result<(), String> {
    for atom in rule.positive_subgoals() {
        let g = env.apply_atom(atom);
        let t = ground_tuple(&g)
            .ok_or_else(|| format!("positive subgoal {g} is not ground under the assignment"))?;
        if !db.relation(g.pred.as_str()).is_some_and(|r| r.contains(&t)) {
            return Err(format!(
                "positive subgoal {g} is absent from the judged instance"
            ));
        }
    }
    guards_hold(rule, db, env)
}

/// Type-checks a claimed containment mapping `h : vars(from) → terms(into)`:
/// every variable of `from` is mapped, `h` carries each positive (resp.
/// negated) subgoal of `from` onto a positive (negated) subgoal of
/// `into`, and each comparison of `from` maps to a comparison of `into`
/// (directly or flipped) or to a ground-true comparison.
pub fn check_homomorphism(from: &Rule, into: &Rule, mapping: &Subst) -> Result<(), String> {
    for v in from.vars() {
        if mapping.get(&v).is_none() {
            return Err(format!(
                "variable {} of the subsuming rule is unmapped",
                v.name()
            ));
        }
    }
    let pos_into: Vec<&Atom> = into.positive_subgoals().collect();
    for atom in from.positive_subgoals() {
        let image = mapping.apply_atom(atom);
        if !pos_into.iter().any(|a| **a == image) {
            return Err(format!(
                "image {image} is not a positive subgoal of the subsumed rule"
            ));
        }
    }
    let neg_into: Vec<&Atom> = into.negated_subgoals().collect();
    for atom in from.negated_subgoals() {
        let image = mapping.apply_atom(atom);
        if !neg_into.iter().any(|a| **a == image) {
            return Err(format!(
                "image not {image} is not a negated subgoal of the subsumed rule"
            ));
        }
    }
    for cmp in from.comparisons() {
        let image = mapping.apply_cmp(cmp);
        let present = into
            .comparisons()
            .any(|c| *c == image || *c == image.flipped());
        if !present && image.eval_ground() != Some(true) {
            return Err(format!(
                "comparison image {image} is not implied by the subsumed rule"
            ));
        }
    }
    Ok(())
}

/// Searches for a containment mapping from `from`'s body into `into`'s
/// body (the §3 subsumption witness). Backtracks over target subgoals;
/// the found mapping always passes [`check_homomorphism`].
pub fn find_homomorphism(from: &Rule, into: &Rule) -> Option<Subst> {
    /// Matches a body atom against a target atom purely syntactically:
    /// variables bind to the target's *terms* (which may be variables).
    fn match_syntactic(pat: &Atom, target: &Atom, env: &Subst) -> Option<Subst> {
        if pat.pred != target.pred || pat.args.len() != target.args.len() {
            return None;
        }
        let mut env = env.clone();
        for (p, t) in pat.args.iter().zip(&target.args) {
            match p {
                Term::Const(c) => match t {
                    Term::Const(d) if c == d => {}
                    _ => return None,
                },
                Term::Var(v) => match env.get(v) {
                    Some(b) => {
                        if b != t {
                            return None;
                        }
                    }
                    None => {
                        env.bind(v.clone(), t.clone());
                    }
                },
            }
        }
        Some(env)
    }

    #[allow(clippy::too_many_arguments)]
    fn go(
        pos_pats: &[&Atom],
        neg_pats: &[&Atom],
        pos_t: &[&Atom],
        neg_t: &[&Atom],
        pi: usize,
        ni: usize,
        env: Subst,
        from: &Rule,
        into: &Rule,
    ) -> Option<Subst> {
        if pi < pos_pats.len() {
            for t in pos_t {
                if let Some(env2) = match_syntactic(pos_pats[pi], t, &env) {
                    if let Some(r) = go(
                        pos_pats,
                        neg_pats,
                        pos_t,
                        neg_t,
                        pi + 1,
                        ni,
                        env2,
                        from,
                        into,
                    ) {
                        return Some(r);
                    }
                }
            }
            return None;
        }
        if ni < neg_pats.len() {
            for t in neg_t {
                if let Some(env2) = match_syntactic(neg_pats[ni], t, &env) {
                    if let Some(r) = go(
                        pos_pats,
                        neg_pats,
                        pos_t,
                        neg_t,
                        pi,
                        ni + 1,
                        env2,
                        from,
                        into,
                    ) {
                        return Some(r);
                    }
                }
            }
            return None;
        }
        // Unmapped variables (comparison-only) default to themselves so
        // the final type-check can pronounce on a total mapping.
        let mut env = env;
        for v in from.vars() {
            if env.get(&v).is_none() {
                env.bind(v.clone(), Term::Var(v.clone()));
            }
        }
        check_homomorphism(from, into, &env).ok().map(|_| env)
    }

    let pos_f: Vec<&Atom> = from.positive_subgoals().collect();
    let neg_f: Vec<&Atom> = from.negated_subgoals().collect();
    let pos_i: Vec<&Atom> = into.positive_subgoals().collect();
    let neg_i: Vec<&Atom> = into.negated_subgoals().collect();
    go(
        &pos_f,
        &neg_f,
        &pos_i,
        &neg_i,
        0,
        0,
        Subst::new(),
        from,
        into,
    )
}

/// Converts an assignment in certificate form into a substitution.
pub fn assignment_subst(assignment: &[(String, ccpi_ir::Value)]) -> Subst {
    Subst::from_pairs(
        assignment
            .iter()
            .map(|(name, value)| (Var::new(name), Term::Const(value.clone()))),
    )
}

/// Converts a containment mapping in certificate form into a substitution.
pub fn mapping_subst(mapping: &[(String, Term)]) -> Subst {
    Subst::from_pairs(
        mapping
            .iter()
            .map(|(name, term)| (Var::new(name), term.clone())),
    )
}

/// Extracts an assignment in certificate form from a substitution
/// (constant bindings only, in variable order).
pub fn subst_assignment(env: &Subst) -> Vec<(String, ccpi_ir::Value)> {
    env.iter()
        .filter_map(|(v, t)| Some((v.name().to_string(), t.as_const()?.clone())))
        .collect()
}

/// Extracts a containment mapping in certificate form from a substitution.
pub fn subst_mapping(env: &Subst) -> Vec<(String, Term)> {
    env.iter()
        .map(|(v, t)| (v.name().to_string(), t.clone()))
        .collect()
}
