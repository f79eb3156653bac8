//! Atoms, comparisons and body literals.

use crate::sym::Sym;
use crate::term::{Term, Var};
use crate::value::Value;
use std::fmt;

/// An ordinary (uninterpreted-predicate) atom, e.g. `emp(E, D, S)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// Predicate name (lower-case identifier).
    pub pred: Sym,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Builds an atom from a predicate name and arguments.
    pub fn new(pred: impl AsRef<str>, args: Vec<Term>) -> Self {
        Atom {
            pred: Sym::new(pred),
            args,
        }
    }

    /// Number of arguments.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Iterates over the variables occurring in the atom (with repetition).
    pub fn vars(&self) -> impl Iterator<Item = &Var> {
        self.args.iter().filter_map(Term::as_var)
    }

    /// `true` if every argument is a constant.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_const)
    }

    /// Same predicate name and arity as `other`? (The paper assumes each
    /// predicate has a unique arity; callers enforce that via catalogs.)
    pub fn same_signature(&self, other: &Atom) -> bool {
        self.pred == other.pred && self.arity() == other.arity()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pred)?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Arithmetic comparison operators over the totally ordered domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CompOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CompOp {
    /// The operator with its sides swapped: `a op b` iff `b op.flip() a`.
    pub fn flip(self) -> CompOp {
        match self {
            CompOp::Lt => CompOp::Gt,
            CompOp::Le => CompOp::Ge,
            CompOp::Eq => CompOp::Eq,
            CompOp::Ne => CompOp::Ne,
            CompOp::Ge => CompOp::Le,
            CompOp::Gt => CompOp::Lt,
        }
    }

    /// Logical negation: `¬(a op b)` iff `a op.negate() b`.
    pub fn negate(self) -> CompOp {
        match self {
            CompOp::Lt => CompOp::Ge,
            CompOp::Le => CompOp::Gt,
            CompOp::Eq => CompOp::Ne,
            CompOp::Ne => CompOp::Eq,
            CompOp::Ge => CompOp::Lt,
            CompOp::Gt => CompOp::Le,
        }
    }

    /// Evaluates the operator on two ordered values.
    pub fn eval<T: Ord + ?Sized>(self, a: &T, b: &T) -> bool {
        match self {
            CompOp::Lt => a < b,
            CompOp::Le => a <= b,
            CompOp::Eq => a == b,
            CompOp::Ne => a != b,
            CompOp::Ge => a >= b,
            CompOp::Gt => a > b,
        }
    }

    /// The paper's concrete syntax for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Eq => "=",
            CompOp::Ne => "<>",
            CompOp::Ge => ">=",
            CompOp::Gt => ">",
        }
    }

    /// All six operators, for exhaustive tests and generators.
    pub const ALL: [CompOp; 6] = [
        CompOp::Lt,
        CompOp::Le,
        CompOp::Eq,
        CompOp::Ne,
        CompOp::Ge,
        CompOp::Gt,
    ];
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An arithmetic-comparison subgoal, e.g. `S < 100` or `X <= Z`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Comparison {
    /// Left-hand term.
    pub lhs: Term,
    /// The comparison operator.
    pub op: CompOp,
    /// Right-hand term.
    pub rhs: Term,
}

impl Comparison {
    /// Builds a comparison.
    pub fn new(lhs: impl Into<Term>, op: CompOp, rhs: impl Into<Term>) -> Self {
        Comparison {
            lhs: lhs.into(),
            op,
            rhs: rhs.into(),
        }
    }

    /// The comparison with both sides swapped (logically equivalent).
    pub fn flipped(&self) -> Comparison {
        Comparison {
            lhs: self.rhs.clone(),
            op: self.op.flip(),
            rhs: self.lhs.clone(),
        }
    }

    /// The logical negation of the comparison.
    pub fn negated(&self) -> Comparison {
        Comparison {
            lhs: self.lhs.clone(),
            op: self.op.negate(),
            rhs: self.rhs.clone(),
        }
    }

    /// Iterates over the variables of the comparison.
    pub fn vars(&self) -> impl Iterator<Item = &Var> {
        [&self.lhs, &self.rhs].into_iter().filter_map(Term::as_var)
    }

    /// `true` when both sides are constants, i.e. the comparison is decided.
    pub fn is_ground(&self) -> bool {
        self.lhs.is_const() && self.rhs.is_const()
    }

    /// Evaluates a ground comparison; `None` when either side is a variable.
    pub fn eval_ground(&self) -> Option<bool> {
        match (&self.lhs, &self.rhs) {
            (Term::Const(a), Term::Const(b)) => Some(self.op.eval(a, b)),
            _ => None,
        }
    }

    /// `Some((var, const))` when the comparison is a ground-equality pin
    /// `var = const` (either orientation).
    pub fn pin(&self) -> Option<(&Var, &Value)> {
        if self.op != CompOp::Eq {
            return None;
        }
        match (&self.lhs, &self.rhs) {
            (Term::Var(v), Term::Const(k)) | (Term::Const(k), Term::Var(v)) => Some((v, k)),
            _ => None,
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

impl fmt::Debug for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A body literal: positive atom, negated atom, or comparison.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// An ordinary positive subgoal, e.g. `emp(E,D,S)`.
    Pos(Atom),
    /// A negated subgoal, e.g. `not dept(D)`.
    Neg(Atom),
    /// An arithmetic comparison, e.g. `S < 100`.
    Cmp(Comparison),
}

impl Literal {
    /// The ordinary atom inside the literal, for `Pos`/`Neg`.
    pub fn atom(&self) -> Option<&Atom> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => Some(a),
            Literal::Cmp(_) => None,
        }
    }

    /// Iterates over variables in the literal (with repetition).
    pub fn vars(&self) -> Box<dyn Iterator<Item = &Var> + '_> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => Box::new(a.vars()),
            Literal::Cmp(c) => Box::new(c.vars()),
        }
    }

    /// `true` for positive ordinary subgoals.
    pub fn is_positive(&self) -> bool {
        matches!(self, Literal::Pos(_))
    }

    /// `true` for negated subgoals.
    pub fn is_negated(&self) -> bool {
        matches!(self, Literal::Neg(_))
    }

    /// `true` for comparison subgoals.
    pub fn is_comparison(&self) -> bool {
        matches!(self, Literal::Cmp(_))
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Cmp(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<Atom> for Literal {
    fn from(a: Atom) -> Self {
        Literal::Pos(a)
    }
}

impl From<Comparison> for Literal {
    fn from(c: Comparison) -> Self {
        Literal::Cmp(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp() -> Atom {
        Atom::new("emp", vec![Term::var("E"), Term::var("D"), Term::var("S")])
    }

    #[test]
    fn atom_display_matches_paper_syntax() {
        assert_eq!(emp().to_string(), "emp(E,D,S)");
        assert_eq!(Atom::new("panic", vec![]).to_string(), "panic");
    }

    #[test]
    fn atom_vars_and_groundness() {
        let a = Atom::new(
            "emp",
            vec![Term::sym("jones"), Term::var("D"), Term::int(50)],
        );
        let vars: Vec<_> = a.vars().map(|v| v.name().to_string()).collect();
        assert_eq!(vars, vec!["D"]);
        assert!(!a.is_ground());
        let g = Atom::new("dept", vec![Term::sym("toy")]);
        assert!(g.is_ground());
    }

    #[test]
    fn compop_flip_is_involutive_and_correct() {
        for op in CompOp::ALL {
            assert_eq!(op.flip().flip(), op);
            // a op b  <=>  b flip(op) a on a sample of pairs
            for (a, b) in [(1, 2), (2, 1), (3, 3)] {
                assert_eq!(op.eval(&a, &b), op.flip().eval(&b, &a), "{op}");
            }
        }
    }

    #[test]
    fn compop_negate_is_logical_complement() {
        for op in CompOp::ALL {
            assert_eq!(op.negate().negate(), op);
            for (a, b) in [(1, 2), (2, 1), (3, 3)] {
                assert_eq!(op.eval(&a, &b), !op.negate().eval(&a, &b), "{op}");
            }
        }
    }

    #[test]
    fn comparison_negated_and_flipped() {
        let c = Comparison::new(Term::var("S"), CompOp::Lt, Term::int(100));
        assert_eq!(c.to_string(), "S < 100");
        assert_eq!(c.negated().to_string(), "S >= 100");
        assert_eq!(c.flipped().to_string(), "100 > S");
    }

    #[test]
    fn comparison_ground_evaluation() {
        let c = Comparison::new(Term::int(3), CompOp::Le, Term::int(6));
        assert_eq!(c.eval_ground(), Some(true));
        let c = Comparison::new(Term::sym("shoe"), CompOp::Ne, Term::sym("toy"));
        assert_eq!(c.eval_ground(), Some(true));
        let c = Comparison::new(Term::var("X"), CompOp::Le, Term::int(6));
        assert_eq!(c.eval_ground(), None);
        assert!(!c.is_ground());
    }

    #[test]
    fn literal_display() {
        assert_eq!(Literal::Pos(emp()).to_string(), "emp(E,D,S)");
        assert_eq!(
            Literal::Neg(Atom::new("dept", vec![Term::var("D")])).to_string(),
            "not dept(D)"
        );
        let c = Comparison::new(Term::var("S"), CompOp::Gt, Term::int(100));
        assert_eq!(Literal::Cmp(c).to_string(), "S > 100");
    }

    #[test]
    fn literal_kind_predicates() {
        let p = Literal::Pos(emp());
        let n = Literal::Neg(emp());
        let c = Literal::Cmp(Comparison::new(Term::var("X"), CompOp::Eq, Term::var("Y")));
        assert!(p.is_positive() && !p.is_negated() && !p.is_comparison());
        assert!(n.is_negated() && !n.is_positive());
        assert!(c.is_comparison() && c.atom().is_none());
        assert!(p.atom().is_some());
    }
}
