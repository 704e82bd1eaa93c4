//! The cooperative execution governor.
//!
//! Hegner's complexity results (Theorems 2.3.4/2.3.6/2.3.9) bound each
//! BLU-C primitive in terms of `Length[Φ]`, but the clausal closures the
//! primitives call — [`crate::resolution::saturate`],
//! [`crate::prime_implicates`], [`crate::dpll`], `genmask` — are
//! worst-case exponential. A hostile input therefore hangs any
//! implementation that runs them to completion unconditionally. This
//! module makes every unbounded worklist *cooperative*: the loops charge
//! their work against a thread-local step [`Budget`] and abort with a
//! structured [`ExecError`] the moment it is exhausted.
//!
//! # Cost model
//!
//! One **step** corresponds to roughly one literal visited, the unit of
//! the paper's `Length[Φ]` cost measure (§1.1): a subsumption probe
//! charges the length of the candidate compared, a resolution attempt
//! charges the combined length of the pair, a DPLL/counting node charges
//! the number of clauses scanned, and `genmask`'s truth-table strategy
//! charges its full `2^k · |Φ|` table up front (admission control: if the
//! budget cannot afford the table, it fails before building it). Both the
//! naive and the indexed engine charge through the same entry points, so
//! a budget bounds either engine identically. A flat scan of the indexed
//! engine's subsumption-minimal list over `n` members charges `⌈n/64⌉`,
//! plus `len + 1` for each member it passes to `subsumes` and for each
//! member it adds, so a scan is never free and never dearer than the
//! naive engine's member-by-member probe.
//!
//! A **reservation** ([`reserve`]) is admission control without a charge:
//! before a loop whose cost is provably bounded below up front, it asks
//! whether the budget can afford that many more steps. If it cannot, the
//! section aborts at once, before any of the work is done, reporting
//! `limit + 1` steps spent; if it can, nothing is charged, and the loop
//! charges its steps as it runs them. So a reservation changes when an
//! over-budget section stops, never the outcome or the step count of one
//! that fits. `complement` reserves a lower bound on its Θ(ε^L) product
//! (Theorem 2.3.4(b)).
//!
//! # Mechanism
//!
//! [`govern`] installs the budget in thread-local storage, runs the
//! closure under [`std::panic::catch_unwind`], and uninstalls it on the
//! way out. Exhaustion inside a worklist raises `panic_any(ExecError)`,
//! which unwinds out of arbitrarily deep call chains without threading
//! `Result` through every signature; `govern` converts it back into
//! `Err(ExecError)`. Foreign panics (bugs, internal-invariant
//! violations) are *also* caught and surfaced as
//! [`ExecError::EnginePanic`] — governed sections are isolation
//! boundaries. The default panic hook is suppressed inside governed
//! sections so an aborted statement does not spray a backtrace; outside
//! them the previous hook runs unchanged.
//!
//! Ungoverned code pays one thread-local depth check per charge point and
//! never observes the governor.

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use pwdb_metrics::counter;

/// A structured abort from a governed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The [`Budget`]'s step limit was exhausted.
    BudgetExceeded {
        /// Steps spent when the check fired; `limit + 1` when a
        /// reservation was refused.
        spent: u64,
        /// The configured step limit.
        limit: u64,
    },
    /// The governed closure panicked for a reason other than the
    /// governor itself; the panic was isolated and nothing was installed.
    EnginePanic {
        /// The panic payload's message, when it carried one.
        message: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BudgetExceeded { spent, limit } => {
                write!(f, "budget exceeded: {spent} steps spent, limit {limit}")
            }
            ExecError::EnginePanic { message } => {
                write!(f, "engine panic during governed execution: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The step limit for one governed execution; the default is unlimited
/// (the governor then only provides panic isolation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum abstract steps (≈ literals visited).
    pub max_steps: Option<u64>,
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget of `max_steps` steps.
    pub fn steps(max_steps: u64) -> Self {
        Budget {
            max_steps: Some(max_steps),
        }
    }
}

/// Everything a governed execution runs under.
#[derive(Debug, Clone, Default)]
pub struct Limits {
    /// The step budget.
    pub budget: Budget,
}

impl Limits {
    /// Unlimited limits (pure panic isolation).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limits carrying the given budget.
    pub fn budget(budget: Budget) -> Self {
        Limits { budget }
    }
}

/// One governed section's step meter.
#[derive(Clone, Copy)]
struct Meter {
    spent: u64,
    limit: u64,
}

thread_local! {
    /// Depth of nested governed sections: charges are no-ops at 0, and
    /// the panic hook stays quiet above it.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// The innermost governed section's meter.
    static METER: Cell<Meter> = const { Cell::new(Meter { spent: 0, limit: u64::MAX }) };
    /// Steps spent by the most recently *completed* governed section.
    static LAST_SPENT: Cell<u64> = const { Cell::new(0) };
}

/// Installs a process-wide panic hook that stays silent for panics
/// raised inside governed sections (they are caught and converted to
/// [`ExecError`]s) and delegates to the previous hook otherwise.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if DEPTH.with(Cell::get) > 0 {
                return;
            }
            prev(info);
        }));
    });
}

/// Charges `n` steps against the installed budget (no-op when
/// ungoverned). Aborts the governed section via unwinding when the step
/// budget is exhausted.
#[inline]
pub fn step_n(n: u64) {
    if DEPTH.with(Cell::get) > 0 {
        charge(n);
    }
}

/// Aborts the governed section, as an exhausted budget does, if it cannot
/// afford `n()` more steps; charges nothing otherwise. `n` is called only
/// inside a governed section with a step limit, so an ungoverned or
/// unlimited caller never computes it. A refusal leaves the meter at
/// `limit + 1`, so the reported overshoot stays one step however large
/// `n()` is. See the module's cost model.
#[inline]
pub fn reserve(n: impl FnOnce() -> u64) {
    if DEPTH.with(Cell::get) > 0 {
        let meter = METER.with(Cell::get);
        if meter.limit < u64::MAX && meter.spent.saturating_add(n()) > meter.limit {
            let refused = Meter {
                spent: meter.limit.saturating_add(1),
                ..meter
            };
            METER.with(|m| m.set(refused));
            exhausted(refused);
        }
    }
}

/// Steps spent by the most recently completed [`govern`] section on this
/// thread, whether it committed or aborted — the diagnostic surface
/// behind span/EXPLAIN `steps` annotations.
pub fn last_spent() -> u64 {
    LAST_SPENT.with(Cell::get)
}

fn charge(n: u64) {
    let meter = METER.with(|m| {
        let mut meter = m.get();
        meter.spent = meter.spent.saturating_add(n);
        m.set(meter);
        meter
    });
    if meter.spent > meter.limit {
        exhausted(meter);
    }
}

#[cold]
fn exhausted(meter: Meter) -> ! {
    std::panic::panic_any(ExecError::BudgetExceeded {
        spent: meter.spent,
        limit: meter.limit,
    })
}

/// RAII installer: swaps a fresh meter in on construction and the outer
/// one back (if any) on drop, including during unwinding.
struct Guard {
    prev: Meter,
}

impl Guard {
    fn install(limits: &Limits) -> Guard {
        install_quiet_hook();
        let meter = Meter {
            spent: 0,
            limit: limits.budget.max_steps.unwrap_or(u64::MAX),
        };
        let prev = METER.with(|m| m.replace(meter));
        DEPTH.with(|d| d.set(d.get() + 1));
        Guard { prev }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let spent = METER.with(|m| m.replace(self.prev)).spent;
        counter!("governor.steps").add(spent);
        LAST_SPENT.with(|l| l.set(spent));
        DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Runs `f` under `limits`, converting governor aborts and foreign
/// panics into structured errors.
///
/// Nesting is supported: the outer meter is restored on exit, and the
/// inner section's steps are *not* double-charged to the outer budget
/// (each governed section has its own meter).
pub fn govern<T>(limits: &Limits, f: impl FnOnce() -> T) -> Result<T, ExecError> {
    let guard = Guard::install(limits);
    let result = catch_unwind(AssertUnwindSafe(f));
    drop(guard);
    result.map_err(|payload| match payload.downcast::<ExecError>() {
        Ok(err) => *err,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_owned()
            };
            ExecError::EnginePanic { message }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungoverned_charges_are_noops() {
        let before = METER.with(Cell::get).spent;
        step_n(u64::MAX);
        assert_eq!(METER.with(Cell::get).spent, before);
    }

    #[test]
    fn step_budget_trips_with_exact_accounting() {
        let limits = Limits::budget(Budget::steps(10));
        let err = govern(&limits, || {
            for _ in 0..100 {
                step_n(1);
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::BudgetExceeded {
                spent: 11,
                limit: 10
            }
        );
    }

    #[test]
    fn reservations_refuse_up_front_and_charge_nothing() {
        let limits = Limits::budget(Budget::steps(10));
        let out = govern(&limits, || {
            step_n(4);
            reserve(|| 6);
            step_n(6);
        });
        assert_eq!(out, Ok(()));
        assert_eq!(last_spent(), 10);
        let err = govern(&limits, || {
            step_n(4);
            reserve(|| 7);
            "not reached: a refused reservation aborts"
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::BudgetExceeded {
                spent: 11,
                limit: 10
            }
        );
        assert_eq!(last_spent(), 11);
        // Unlimited and ungoverned sections never compute the amount.
        let unreached = || -> u64 { unreachable!("computed without a step limit") };
        assert_eq!(govern(&Limits::unlimited(), || reserve(unreached)), Ok(()));
        reserve(unreached);
    }

    #[test]
    fn within_budget_returns_value() {
        let limits = Limits::budget(Budget::steps(1000));
        let out = govern(&limits, || {
            step_n(999);
            42
        });
        assert_eq!(out, Ok(42));
        assert_eq!(last_spent(), 999);
        // The meter is uninstalled afterwards.
        assert_eq!(DEPTH.with(Cell::get), 0);
    }

    #[test]
    fn foreign_panics_become_engine_panics() {
        let out: Result<(), _> = govern(&Limits::unlimited(), || panic!("boom {}", 7));
        assert_eq!(
            out,
            Err(ExecError::EnginePanic {
                message: "boom 7".into()
            })
        );
    }

    #[test]
    fn nested_governors_restore_outer_meter() {
        let outer = Limits::budget(Budget::steps(1_000_000));
        let out = govern(&outer, || {
            step_n(7);
            let inner = Limits::budget(Budget::steps(3));
            let r = govern(&inner, || step_n(50));
            assert!(matches!(r, Err(ExecError::BudgetExceeded { .. })));
            // Outer meter resumed with its own accounting intact.
            step_n(1);
        });
        assert_eq!(out, Ok(()));
        assert_eq!(last_spent(), 8);
    }

    #[test]
    fn display_forms() {
        let e = ExecError::BudgetExceeded {
            spent: 11,
            limit: 10,
        };
        assert_eq!(e.to_string(), "budget exceeded: 11 steps spent, limit 10");
    }
}
