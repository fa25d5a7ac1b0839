//! Watchdog attribution across engines (§4.5).
//!
//! The instruction budget is the deterministic analogue of the paper's
//! 100 ms callback watchdog. These tests pin the *granularity* rule:
//! a single long-running native operation — one string concatenation
//! or one `join` that renders megabytes — is billed by its output
//! size, so a script cannot hide unbounded work behind a handful of
//! budget steps. The VM and the tree-walk oracle must both kill such a
//! script with the same error kind and the same stable `SCRIPT_ERROR`
//! code the middleware reports upstream.

#[path = "../crates/script/tests/common/treewalk.rs"]
mod treewalk;

use pogo::script::{ErrorKind, Interpreter};
use pogo::{Error, ErrorCode};
use treewalk::{Eval, ENGINES};

const BUDGET: u64 = 10_000;

/// ~16 iterations of doubling: a few hundred budget *steps*, but the
/// final concatenations each produce tens of kilobytes — far past the
/// budget once output bytes are attributed.
const DOUBLING_SOURCE: &str = "\
var s = 'x';
for (var i = 0; i < 16; i++) {
    s = s + s;
}
s.length;";

/// Builds a small array whose elements stringify large, then `join`s:
/// the element-count charge alone (8) would never trip the watchdog.
const JOIN_SOURCE: &str = "\
var chunk = 'y';
for (var i = 0; i < 11; i++) {
    chunk = chunk + chunk;
}
var parts = [];
for (var j = 0; j < 8; j++) {
    parts.push(chunk);
}
parts.join('-').length;";

fn run_budgeted(eval: Eval, source: &str, budget: u64) -> Result<(), pogo::script::ScriptError> {
    let mut interp = Interpreter::new();
    interp.set_budget(Some(budget));
    eval(&mut interp, source).map(|_| ())
}

#[test]
fn long_native_work_is_attributed_to_the_budget_under_both_engines() {
    for source in [DOUBLING_SOURCE, JOIN_SOURCE] {
        for (engine, eval) in ENGINES {
            let err = run_budgeted(eval, source, BUDGET)
                .expect_err("budget-exceeding script must be killed");
            assert_eq!(
                err.kind(),
                ErrorKind::Timeout,
                "{engine}: expected the watchdog, got: {err}"
            );
            assert_eq!(
                Error::from(err).code(),
                ErrorCode::ScriptError,
                "{engine}: the middleware-facing code must stay SCRIPT_ERROR"
            );
        }
        // The same work fits comfortably once the budget covers the
        // produced bytes — the kill above is attribution, not a
        // blanket ban on string work.
        for (engine, eval) in ENGINES {
            run_budgeted(eval, source, 10_000_000)
                .unwrap_or_else(|e| panic!("{engine}: generous budget still trips: {e}"));
        }
    }
}

/// One indexed store can grow an array by any amount in a single step.
/// The growth is billed before the elements exist, so a store far past
/// the end meets the watchdog instead of the allocator: `a[1e15] = 1`
/// used to abort the process in `handle_alloc_error`, and `a[3e8] = 1`
/// used to allocate 7 GB for one step.
#[test]
fn array_growth_by_indexed_store_is_billed_before_it_allocates() {
    for (engine, eval) in ENGINES {
        for index in ["1e15", "3e8"] {
            let source = format!("var a = [];\na[{index}] = 1;\na.length;");
            let err = run_budgeted(eval, &source, 10_000_000)
                .expect_err("a store far past the end must be killed");
            assert_eq!(
                err.kind(),
                ErrorKind::Timeout,
                "{engine} a[{index}]: expected the watchdog, got: {err}"
            );
            assert_eq!(err.line(), 2, "{engine} a[{index}]: {err}");
        }
        // No slot has an index past `usize::MAX`: a type error, not a
        // wrapped length.
        let err = run_budgeted(eval, "var a = [];\na[1e300] = 1;", 10_000_000)
            .expect_err("an index no array can hold");
        assert_eq!(err.kind(), ErrorKind::Type, "{engine}: {err}");
        // Growth the budget covers still works, holes filled with null.
        let mut interp = Interpreter::new();
        interp.set_budget(Some(BUDGET));
        let v = eval(
            &mut interp,
            "var a = [7];\na[5000] = 1;\na.length + (a[4999] == null ? 0.5 : 0);",
        )
        .unwrap_or_else(|e| panic!("{engine}: covered growth trips: {e}"));
        assert_eq!(v, pogo::script::Value::Num(5001.5), "{engine}");
        // ...and is charged: the same store does not fit a budget
        // smaller than the elements it adds.
        let err = run_budgeted(eval, "var a = [7];\na[5000] = 1;", 4_000)
            .expect_err("growth larger than the budget");
        assert_eq!(err.kind(), ErrorKind::Timeout, "{engine}: {err}");
    }
}

#[test]
fn watchdog_code_is_the_stable_script_error_string() {
    assert_eq!(ErrorCode::ScriptError.as_str(), "SCRIPT_ERROR");
}
