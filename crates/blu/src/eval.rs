//! The generic BLU evaluator (Definition 2.2.1).
//!
//! An *implementation* of BLU is an algebra for its signature: concrete
//! domains for the two sorts plus functions for the five operators. That
//! is the [`BluSemantics`] trait. "Running a BLU program … amounts to
//! binding appropriate concrete domain values to the argument list of the
//! lambda expression and then evaluating the term" — [`run_program`] does
//! exactly that, and is shared verbatim by **BLU-I** and **BLU-C**.
//!
//! Values are immutable, and the compiled HLU statements use `s0` and
//! their parameters several times (Definitions 3.1.2, 3.2.3), so the
//! evaluator borrows each variable's binding instead of copying it: only
//! the operators produce new values, and a body that is a bare variable
//! is copied once, for the result.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use pwdb_trace::span;

use crate::ast::{MTerm, Param, Program, STerm, Sort};

/// An implementation (algebra) of the BLU signature.
pub trait BluSemantics {
    /// Concrete domain for the state sort `S`.
    type State: Clone;
    /// Concrete domain for the mask sort `M`.
    type Mask: Clone;

    /// `assert : S × S → S`.
    fn op_assert(&self, x: &Self::State, y: &Self::State) -> Self::State;
    /// `combine : S × S → S`.
    fn op_combine(&self, x: &Self::State, y: &Self::State) -> Self::State;
    /// `complement : S → S`.
    fn op_complement(&self, x: &Self::State) -> Self::State;
    /// `mask : S × M → S`.
    fn op_mask(&self, x: &Self::State, m: &Self::Mask) -> Self::State;
    /// `genmask : S → M`.
    fn op_genmask(&self, x: &Self::State) -> Self::Mask;
}

/// A value of either sort, for binding program arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value<S, M> {
    /// A state-sorted value.
    State(S),
    /// A mask-sorted value.
    Mask(M),
}

impl<S, M> Value<S, M> {
    /// The sort of the value.
    pub fn sort(&self) -> Sort {
        match self {
            Value::State(_) => Sort::State,
            Value::Mask(_) => Sort::Mask,
        }
    }
}

/// Runtime errors from evaluating a term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no binding.
    Unbound(String),
    /// A variable was bound at the wrong sort.
    SortMismatch {
        /// The offending variable.
        name: String,
        /// Sort the term position requires.
        expected: Sort,
    },
    /// Wrong number of arguments supplied to a program.
    Arity {
        /// Parameters the program declares.
        expected: usize,
        /// Arguments supplied.
        supplied: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Unbound(v) => write!(f, "unbound variable '{v}'"),
            EvalError::SortMismatch { name, expected } => {
                write!(f, "variable '{name}' is not of sort {expected}")
            }
            EvalError::Arity { expected, supplied } => {
                write!(f, "program expects {expected} argument(s), got {supplied}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// A variable environment for one evaluation.
pub struct Env<A: BluSemantics + ?Sized> {
    bindings: HashMap<String, Value<A::State, A::Mask>>,
}

impl<A: BluSemantics + ?Sized> Env<A> {
    /// Empty environment.
    pub fn new() -> Self {
        Env {
            bindings: HashMap::new(),
        }
    }

    /// Binds a state variable.
    pub fn bind_state(&mut self, name: &str, value: A::State) -> &mut Self {
        self.bindings.insert(name.to_owned(), Value::State(value));
        self
    }

    /// Binds a mask variable.
    pub fn bind_mask(&mut self, name: &str, value: A::Mask) -> &mut Self {
        self.bindings.insert(name.to_owned(), Value::Mask(value));
        self
    }

    fn state(&self, name: &str) -> Result<&A::State, EvalError> {
        match self.bindings.get(name) {
            Some(Value::State(s)) => Ok(s),
            Some(Value::Mask(_)) => Err(EvalError::SortMismatch {
                name: name.to_owned(),
                expected: Sort::State,
            }),
            None => Err(EvalError::Unbound(name.to_owned())),
        }
    }

    fn mask(&self, name: &str) -> Result<&A::Mask, EvalError> {
        match self.bindings.get(name) {
            Some(Value::Mask(m)) => Ok(m),
            Some(Value::State(_)) => Err(EvalError::SortMismatch {
                name: name.to_owned(),
                expected: Sort::Mask,
            }),
            None => Err(EvalError::Unbound(name.to_owned())),
        }
    }
}

impl<A: BluSemantics + ?Sized> Default for Env<A> {
    fn default() -> Self {
        Self::new()
    }
}

/// Evaluates a state term under an environment in implementation `alg`.
pub fn eval_sterm<A: BluSemantics + ?Sized>(
    alg: &A,
    term: &STerm,
    env: &Env<A>,
) -> Result<A::State, EvalError> {
    sterm(alg, term, env).map(Cow::into_owned)
}

/// Evaluates a mask term.
pub fn eval_mterm<A: BluSemantics + ?Sized>(
    alg: &A,
    term: &MTerm,
    env: &Env<A>,
) -> Result<A::Mask, EvalError> {
    mterm(alg, term, env).map(Cow::into_owned)
}

/// [`eval_sterm`] without copies: a variable borrows its binding, an
/// operator returns its owned result.
fn sterm<'env, A: BluSemantics + ?Sized>(
    alg: &A,
    term: &STerm,
    env: &'env Env<A>,
) -> Result<Cow<'env, A::State>, EvalError> {
    Ok(match term {
        STerm::Var(v) => Cow::Borrowed(env.state(v)?),
        STerm::Assert(a, b) => {
            // The span guard covers both subterm evaluations and the op,
            // so the trace tree mirrors the BLU term tree.
            let _sp = span!("blu.eval.assert");
            let x = sterm(alg, a, env)?;
            let y = sterm(alg, b, env)?;
            Cow::Owned(alg.op_assert(&x, &y))
        }
        STerm::Combine(a, b) => {
            let _sp = span!("blu.eval.combine");
            let x = sterm(alg, a, env)?;
            let y = sterm(alg, b, env)?;
            Cow::Owned(alg.op_combine(&x, &y))
        }
        STerm::Complement(a) => {
            let _sp = span!("blu.eval.complement");
            let x = sterm(alg, a, env)?;
            Cow::Owned(alg.op_complement(&x))
        }
        STerm::Mask(a, m) => {
            let _sp = span!("blu.eval.mask");
            let x = sterm(alg, a, env)?;
            let mm = mterm(alg, m, env)?;
            Cow::Owned(alg.op_mask(&x, &mm))
        }
    })
}

/// [`eval_mterm`] without copies, as [`sterm`].
fn mterm<'env, A: BluSemantics + ?Sized>(
    alg: &A,
    term: &MTerm,
    env: &'env Env<A>,
) -> Result<Cow<'env, A::Mask>, EvalError> {
    Ok(match term {
        MTerm::Var(v) => Cow::Borrowed(env.mask(v)?),
        MTerm::Genmask(s) => {
            let _sp = span!("blu.eval.genmask");
            let x = sterm(alg, s, env)?;
            Cow::Owned(alg.op_genmask(&x))
        }
    })
}

/// Runs a program on an argument vector: binds positionally, checks sorts,
/// evaluates the body.
pub fn run_program<A: BluSemantics + ?Sized>(
    alg: &A,
    program: &Program,
    args: Vec<Value<A::State, A::Mask>>,
) -> Result<A::State, EvalError> {
    let params: &[Param] = program.params();
    if params.len() != args.len() {
        return Err(EvalError::Arity {
            expected: params.len(),
            supplied: args.len(),
        });
    }
    let mut env: Env<A> = Env::new();
    for (p, v) in params.iter().zip(args) {
        if p.sort != v.sort() {
            return Err(EvalError::SortMismatch {
                name: p.name.clone(),
                expected: p.sort,
            });
        }
        env.bindings.insert(p.name.clone(), v);
    }
    eval_sterm(alg, program.body(), &env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    /// A toy algebra over `u32` bit-sets with 8 "worlds"; masks are
    /// or-patterns smeared over the state. Just enough structure to test
    /// the evaluator plumbing independently of the real semantics.
    struct ToyAlg;

    impl BluSemantics for ToyAlg {
        type State = u32;
        type Mask = u32;

        fn op_assert(&self, x: &u32, y: &u32) -> u32 {
            x & y
        }
        fn op_combine(&self, x: &u32, y: &u32) -> u32 {
            x | y
        }
        fn op_complement(&self, x: &u32) -> u32 {
            !x & 0xFF
        }
        fn op_mask(&self, x: &u32, m: &u32) -> u32 {
            x | m
        }
        fn op_genmask(&self, x: &u32) -> u32 {
            x.rotate_left(1) & 0xFF
        }
    }

    #[test]
    fn evaluates_boolean_structure() {
        let p = parse_program("(lambda (s0 s1) (combine (assert s0 s1) (complement s0)))").unwrap();
        let out = run_program(
            &ToyAlg,
            &p,
            vec![Value::State(0b1100), Value::State(0b1010)],
        )
        .unwrap();
        assert_eq!(out, (0b1100 & 0b1010) | (!0b1100u32 & 0xFF));
    }

    #[test]
    fn evaluates_mask_and_genmask() {
        let p = parse_program("(lambda (s0 s1) (mask s0 (genmask s1)))").unwrap();
        let out = run_program(&ToyAlg, &p, vec![Value::State(0b1), Value::State(0b1000)]).unwrap();
        assert_eq!(out, 0b1 | (0b1000u32.rotate_left(1) & 0xFF));
    }

    #[test]
    fn mask_variable_binding() {
        let p = parse_program("(lambda (s0 m0) (mask s0 m0))").unwrap();
        let out = run_program(&ToyAlg, &p, vec![Value::State(0b1), Value::Mask(0b10)]).unwrap();
        assert_eq!(out, 0b11);
    }

    #[test]
    fn arity_mismatch_reported() {
        let p = parse_program("(lambda (s0) (complement s0))").unwrap();
        assert_eq!(
            run_program(&ToyAlg, &p, vec![]).unwrap_err(),
            EvalError::Arity {
                expected: 1,
                supplied: 0
            }
        );
    }

    #[test]
    fn sort_mismatch_reported() {
        let p = parse_program("(lambda (s0 m0) (mask s0 m0))").unwrap();
        let err = run_program(&ToyAlg, &p, vec![Value::State(1), Value::State(2)]).unwrap_err();
        assert_eq!(
            err,
            EvalError::SortMismatch {
                name: "m0".into(),
                expected: Sort::Mask
            }
        );
    }

    #[test]
    fn unbound_variable_reported() {
        // Construct a term referencing an unbound name directly.
        let term = STerm::var("ghost");
        let env: Env<ToyAlg> = Env::new();
        assert_eq!(
            eval_sterm(&ToyAlg, &term, &env).unwrap_err(),
            EvalError::Unbound("ghost".into())
        );
    }

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A [`ToyAlg`] state that counts its own `clone()` calls.
    #[derive(Debug, PartialEq)]
    struct Counted(u32);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|n| n.set(n.get() + 1));
            Counted(self.0)
        }
    }

    /// [`ToyAlg`] over [`Counted`] states.
    struct CountingAlg;

    impl BluSemantics for CountingAlg {
        type State = Counted;
        type Mask = u32;

        fn op_assert(&self, x: &Counted, y: &Counted) -> Counted {
            Counted(ToyAlg.op_assert(&x.0, &y.0))
        }
        fn op_combine(&self, x: &Counted, y: &Counted) -> Counted {
            Counted(ToyAlg.op_combine(&x.0, &y.0))
        }
        fn op_complement(&self, x: &Counted) -> Counted {
            Counted(ToyAlg.op_complement(&x.0))
        }
        fn op_mask(&self, x: &Counted, m: &u32) -> Counted {
            Counted(ToyAlg.op_mask(&x.0, m))
        }
        fn op_genmask(&self, x: &Counted) -> u32 {
            ToyAlg.op_genmask(&x.0)
        }
    }

    /// Runs `program` on states `1, 2, …` and returns the result and the
    /// number of state clones the run made.
    fn clones_of(program: &str) -> (u32, usize) {
        let p = parse_program(program).unwrap();
        let args = (1..=p.params().len() as u32)
            .map(|i| Value::State(Counted(i)))
            .collect();
        CLONES.with(|n| n.set(0));
        let out = run_program(&CountingAlg, &p, args).unwrap();
        (out.0, CLONES.with(|n| n.get()))
    }

    #[test]
    fn variables_are_borrowed_not_cloned() {
        // HLU `modify` (Definition 3.1.2): `s0` twice, `s1` four times.
        let modify = "(lambda (s0 s1 s2) (combine (assert (mask (assert (mask (assert s0 s1) \
                      (genmask s1)) (complement s1)) (genmask s2)) s2) (assert s0 (complement s1))))";
        // A `where` nested in both branches of a `where` (Definition
        // 3.2.3): `s0` four times.
        let nested_where = "(lambda (s0 s1 s2 s3 s4 s5) (combine \
            (combine (assert (mask (assert (assert s0 s1) s2) (genmask s3)) s3) \
                     (assert (assert s0 s1) (complement s2))) \
            (combine (assert (mask (assert (assert s0 (complement s1)) s4) (genmask s5)) s5) \
                     (assert (assert s0 (complement s1)) (complement s4)))))";
        for program in [modify, nested_where] {
            assert_eq!(clones_of(program).1, 0, "{program}");
        }
    }

    #[test]
    fn a_bare_variable_body_clones_once() {
        assert_eq!(clones_of("(lambda (s0) s0)"), (1, 1));
    }

    #[test]
    fn env_rebinding_overwrites() {
        let mut env: Env<ToyAlg> = Env::new();
        env.bind_state("s0", 1);
        env.bind_state("s0", 2);
        assert_eq!(*env.state("s0").unwrap(), 2);
    }
}
