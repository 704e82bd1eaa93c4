//! Propositional-logic substrate for the PWDB workspace.
//!
//! This crate implements the machinery of §1.1 of Hegner's PODS 1987 paper
//! *"Specification and Implementation of Programs for Updating Incomplete
//! Information Databases"*: a propositional logic `L = (P, C)` over a finite,
//! implicitly ordered set of proposition names, its well-formed formulas
//! (`WF[L]`), structures (`Struct[L]`, truth assignments represented as
//! bit-packed words), the language of clauses (`CF[L]`), literals
//! (`Lit[L]`) and resolution. The semantic operators `Mod`, `Sat` and
//! `Dep` are computed over world sets in `pwdb-worlds` (`WorldSet`), and
//! `Th` membership is [`entails`].
//!
//! Everything downstream — the possible-worlds substrate, the **BLU** and
//! **HLU** update languages, and the comparison baselines — is built on the
//! types exported here.
//!
//! # Representation choices
//!
//! * [`AtomId`] is a dense `u32` index. The paper's convention of naming
//!   atoms `A1, A2, …, An` (with the index giving an implicit order) is
//!   mirrored by [`AtomTable`], which interns human-readable names.
//! * [`Literal`] packs an atom id and a sign into one `u32`, so clauses are
//!   flat sorted integer slices with fast set operations.
//! * [`Clause`] is a sorted, duplicate-free set of literals, shared and
//!   immutable: a clone copies no literals, so a cloned [`ClauseSet`]
//!   shares every clause with its original. The empty clause `□`
//!   (paper's `0`) is `Clause::empty()`, and tautological clauses
//!   (paper's `1`) are representable and detectable.
//! * [`ClauseSet`] is an ordered set of clauses with a canonical form, the
//!   concrete domain of the paper's clausal implementation **BLU-C**.
//! * [`Wff`] is the AST of well-formed formulas over `∧ ∨ ¬ ⇒ ⇔` plus the
//!   constants `0`/`1`; [`parse_wff`] accepts a plain
//!   ASCII surface syntax.
//! * [`dpll`] provides the layer's one search: a complete SAT solver used
//!   for entailment and equivalence checks (the paper appeals to these
//!   freely; genmask's dependence test is NP-complete, Theorem
//!   2.3.9(c)), whose counting variant gives the exact model count
//!   [`try_count_models`].
//! * [`atom_name_len`] is the one atom-name grammar,
//!   `[A-Za-z_][A-Za-z0-9_']*`, shared by every parser and the store.

pub mod atom;
pub mod cache;
pub mod clause;
pub mod clause_set;
pub mod cnf;
pub mod counting;
pub mod dpll;
pub mod engine;
pub mod error;
pub mod governor;
pub mod implicates;
pub mod literal;
pub mod parser;
pub mod reference;
pub mod resolution;
pub mod rng;
pub mod stress;
pub mod subsumption;
pub mod truth;
pub mod wff;

pub use atom::{AtomId, AtomTable};
pub use clause::Clause;
pub use clause_set::ClauseSet;
pub use cnf::{clauses_to_wff, cnf_of};
pub use counting::try_count_models;
pub use dpll::{entails, entails_clauses, equivalent, is_satisfiable, Solver};
pub use engine::{engine_mode, set_engine_mode, with_engine, EngineMode};
pub use error::{LogicError, Result};
pub use governor::{govern, Budget, ExecError, Limits};
pub use implicates::{is_implicate, is_prime_implicate, prime_implicates};
pub use literal::Literal;
pub use parser::{atom_name_len, parse_clause, parse_clause_set, parse_wff};
pub use rng::Rng;
pub use truth::{Assignment, MAX_ATOMS};
pub use wff::Wff;
