//! **HLU** — the user-level High-level Language for Updates (§3).
//!
//! HLU programs are the update requests a user writes:
//!
//! ```text
//! (assert W)        restrict the state to the worlds of W
//! (clear M)         mask out all information about the letters in M
//! (insert W)        generalized insertion (mask–assert paradigm)
//! (delete W)        generalized deletion
//! (modify W V)      conditional move from W to V
//! (where W P [Q])   run P on S ∩ pw(W) and Q (default: identity) on the
//!                   rest, combining the results
//! ```
//!
//! HLU has **no semantics of its own**: every program is compiled to a
//! BLU program (Definitions 3.1.2, 3.2.3/3.2.4) and inherits its meaning
//! from whichever BLU implementation runs it. [`compile()`](compile()) performs that
//! translation — including the `where` macro expansion with collision-free
//! `.0`/`.1` parameter renaming of Definition 3.2.2 — and [`database`]
//! packages the result behind an ergonomic stateful API with both the
//! clausal and the possible-worlds backend.

// User-reachable paths must fail with typed errors, not panics; `unwrap`
// is reserved for internal invariants (and must carry an `expect`
// message or a module-local allow explaining why it cannot fire).
#![warn(clippy::unwrap_used)]

pub mod ast;
pub mod compile;
pub mod database;
pub mod durable;
pub mod parser;

pub use ast::HluProgram;
pub use compile::{compile, ArgValue, Compiled};
pub use database::{
    ClausalDatabase, Database, Explanation, GovernedError, HluBackend, InstanceDatabase, Savepoint,
};
pub use durable::{DurableDatabase, DurableError, RecoveryReport};
pub use parser::{parse_hlu, parse_hlu_script, parse_hlu_statement, HluStatement};
