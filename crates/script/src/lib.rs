//! # pogo-script — PogoScript, an embeddable JavaScript-like language
//!
//! The Pogo middleware executes experiment scripts "using Rhino, a
//! JavaScript runtime for Java" (§4.4). This crate is the reproduction's
//! Rhino: a from-scratch lexer, parser, bytecode compiler and stack VM for
//! **PogoScript**, a JavaScript subset rich enough to express the paper's
//! most demanding workload — the sliding-window DBSCAN clustering
//! algorithm of `clustering.js` — while remaining fully sandboxed:
//!
//! * scripts see **only** the natives the embedder registers (the 11-method
//!   Pogo API lives in `pogo-core`, not here);
//! * every host→script invocation runs under an *instruction budget*, the
//!   deterministic analogue of the paper's 100 ms callback watchdog
//!   (§4.5: "all calls to JavaScript functions by the framework must
//!   complete within a certain timeframe");
//! * there is no I/O, no reflection, no clock, and no nondeterminism in
//!   the language itself.
//!
//! ## Language
//!
//! Supported: `var`, functions (declarations and expressions, full
//! closures), `if`/`else`, `while`, `for`, `break`/`continue`/`return`,
//! numbers (f64), strings, booleans, `null`, arrays, objects, the usual
//! operators (including `? :`, `&&`/`||` with short-circuit, compound
//! assignment and `++`/`--`), member/index access, and a standard library
//! of array/string/`Math` methods ([`builtins`]).
//!
//! Deviations from JavaScript (documented, deliberate): `==` is strict
//! (`===`), `undefined` is an alias for `null`, and there is no prototype
//! chain — objects are plain ordered maps.
//!
//! ## Example
//!
//! ```
//! use pogo_script::{Interpreter, Value};
//!
//! # fn main() -> Result<(), pogo_script::ScriptError> {
//! let mut interp = Interpreter::new();
//! let v = interp.eval(
//!     "function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
//!      fib(10);",
//! )?;
//! assert_eq!(v, Value::from(55.0));
//! # Ok(())
//! # }
//! ```

pub mod absint;
pub mod analyze;
pub mod ast;
pub mod builtins;
pub mod bytecode;
pub mod compile;
pub mod diag;
pub mod env;
pub mod error;
pub mod gate;
pub mod interp;
pub mod lexer;
pub mod parser;
pub(crate) mod quicken;
pub mod sloc;
pub mod token;
pub mod value;
pub mod verify;
pub(crate) mod vm;

pub use absint::{
    analyze_costs, cost_diagnostics, Bound, Cost, CostBudgets, CostReport, Max, LOAD_BUDGET,
    WATCHDOG_BUDGET,
};
pub use analyze::{analyze, analyze_bundle, analyze_bundle_with, analyze_with, AnalyzeOptions};
pub use bytecode::{disassemble, CompiledProgram};
pub use compile::{compile, compile_cached, compile_program};
pub use diag::{Diagnostic, Rule, Severity};
pub use error::{ErrorKind, ScriptError};
pub use gate::{deploy_gate, GateReport};
pub use interp::Interpreter;
pub use parser::parse;
pub use quicken::quickened_listing;
pub use sloc::{count_sloc, SourceStats};
pub use value::{NativeFn, ObjMap, Value};
pub use verify::{VerifyError, VERIFY_CODES};

// The integration tests' support code — the program generator, the
// paper scripts and the tree-walk oracle — compiled into the unit tests
// too; it names the crate from outside.
#[cfg(test)]
extern crate self as pogo_script;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;
#[cfg(test)]
#[path = "../tests/common/treewalk.rs"]
mod treewalk;
