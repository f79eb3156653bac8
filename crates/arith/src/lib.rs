//! # `ccpi-arith` — decision procedures for order comparisons
//!
//! GSUW'94's Theorem 5.1 reduces containment of conjunctive queries with
//! arithmetic comparisons (CQCs) to one *logical implication about
//! arithmetic*:
//!
//! > `A(C₁)` logically implies `⋁_{h∈H} h(A(C₂))`
//!
//! where each `A(·)` is a conjunction of comparisons over a totally ordered
//! domain. This crate supplies the required decision procedures:
//!
//! * [`sat`](Solver::sat) — satisfiability of a conjunction of comparisons
//!   (`<`, `<=`, `=`, `<>`, `>=`, `>`) over variables and constants;
//! * [`implies`](Solver::implies) — the implication test
//!   `A ⇒ D₁ ∨ … ∨ Dₖ` with each `Dᵢ` a conjunction, decided by refutation
//!   (unit propagation, then DPLL over the choice of a falsified atom per
//!   disjunct) — this is the
//!   "one test … exponential only in the number of variables" of the
//!   paper's comparison with Klug's approach;
//! * [`preorder`] — enumeration of the total preorders (weak orders)
//!   consistent with a conjunction: the engine room of Klug \[1988\]'s
//!   method, which we implement as the baseline the paper argues against;
//! * [`oracle`] — a brute-force model finder used to cross-validate the
//!   solvers in property tests.
//!
//! # Domains
//!
//! Two interpretations are supported ([`Domain`]):
//!
//! * [`Domain::Dense`] — a dense linear order without endpoints (ℚ). This
//!   is the setting of Klug \[1988\] and van der Meyden \[1992\], which the
//!   paper builds on, and the default everywhere in `ccpi`.
//! * [`Domain::Integer`] — ℤ, where `x < y` entails `x ≤ y − 1`. Decided
//!   with difference-bound (Bellman–Ford) reasoning plus case splits on
//!   `<>`. If symbolic (string) constants occur, the solver falls back to
//!   dense reasoning, which is *conservative*: it may report a refutation
//!   conjunction satisfiable when it is not over ℤ, so implication tests
//!   err toward "not implied" — the safe direction for constraint checking
//!   (a test answers "I don't know" rather than a wrong "yes").

mod conj;
mod dbm;
mod implication;
pub mod oracle;
pub mod preorder;

pub use conj::sat_dense;
pub use dbm::sat_int;
pub use implication::implies_with;

use ccpi_ir::Comparison;

/// The interpretation domain for comparisons.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Domain {
    /// Dense linear order without endpoints (ℚ) — the paper's setting.
    #[default]
    Dense,
    /// The integers, with gap reasoning (`x < y ⇒ x ≤ y − 1`).
    Integer,
}

/// A configured solver. Stateless; methods are cheap to call repeatedly.
#[derive(Clone, Copy, Debug, Default)]
pub struct Solver {
    /// The interpretation domain.
    pub domain: Domain,
}

impl Solver {
    /// A solver over the dense domain (the paper's default).
    pub fn dense() -> Self {
        Solver {
            domain: Domain::Dense,
        }
    }

    /// A solver over the integers.
    pub fn integer() -> Self {
        Solver {
            domain: Domain::Integer,
        }
    }

    /// Is the conjunction of `comparisons` satisfiable?
    pub fn sat(&self, comparisons: &[Comparison]) -> bool {
        match self.domain {
            Domain::Dense => sat_dense(comparisons),
            Domain::Integer => sat_int(comparisons),
        }
    }

    /// Does the conjunction `premise` logically imply the disjunction of
    /// conjunctions `disjuncts`? An empty disjunction is `false`, so the
    /// implication then holds only when `premise` is unsatisfiable — this
    /// matches Theorem 5.1's convention that "`⋁_{h∈H} …` is false when `H`
    /// is empty".
    pub fn implies(&self, premise: &[Comparison], disjuncts: &[Vec<Comparison>]) -> bool {
        implies_with(*self, premise, disjuncts.iter().map(Vec::as_slice))
    }

    /// Are two conjunctions logically equivalent?
    pub fn equivalent(&self, a: &[Comparison], b: &[Comparison]) -> bool {
        self.implies(a, &[b.to_vec()]) && self.implies(b, &[a.to_vec()])
    }
}
