//! The deploy gate: the one definition of "deployable".
//!
//! "Never burn a phone's energy on a script that cannot run": a bundle is
//! deployable when no stage below reports an error-severity finding.
//! `Deployment::send` (pogo-core) and `pogo-lint` both call
//! [`deploy_gate`], so the CLI answers exactly what the collector will.
//!
//! 1. **lint** — [`analyze_bundle_with`] over the sources, including the
//!    cross-script channel rule. Any error here ends the run: a script
//!    that does not parse or resolve has nothing to compile.
//! 2. **compile** — through [`compile_cached`], so the chunks a passing
//!    gate returns are the ones every simulated phone then loads. A
//!    script that lints clean but is too large for the bytecode format
//!    is a `P000` error: the phone would report the same at load time.
//! 3. **verify** — [`verify::check`]. A failure is a compiler bug
//!    (`compile` only debug-asserts it), surfaced as an error.
//! 4. **cost** — [`analyze_costs`] against the budgets the script host
//!    enforces ([`CostBudgets::default`]): a guaranteed over-budget
//!    entry point (P301) can never complete and is an error; unbounded
//!    or may-exceed cost (P302/P303) and publish fan-out (P304) are
//!    warnings, because the runtime watchdog still protects the fleet.

use std::rc::Rc;
use std::time::Instant;

use crate::absint::{analyze_costs, cost_diagnostics, CostBudgets};
use crate::analyze::{analyze_bundle_with, AnalyzeOptions};
use crate::bytecode::CompiledProgram;
use crate::compile::compile_cached;
use crate::diag::{Diagnostic, Rule};
use crate::verify;

/// What [`deploy_gate`] found.
#[derive(Debug, Default)]
pub struct GateReport {
    /// `(script name, diagnostic)` in stage order: every lint finding,
    /// then per script its compile, verifier and cost findings.
    pub findings: Vec<(String, Diagnostic)>,
    /// The compiled chunks, in bundle order (empty when lint rejected
    /// the bundle).
    pub programs: Vec<Rc<CompiledProgram>>,
    /// Wall-clock microseconds spent in each stage after lint.
    pub compile_us: f64,
    pub verify_us: f64,
    pub absint_us: f64,
}

impl GateReport {
    /// True when no finding is error-severity.
    pub fn deployable(&self) -> bool {
        !self.findings.iter().any(|(_, d)| d.is_error())
    }
}

/// Runs lint → compile → verify → cost over a bundle of
/// `(script name, source)` pairs.
pub fn deploy_gate(bundle: &[(&str, &str)], opts: &AnalyzeOptions) -> GateReport {
    let mut report = GateReport {
        findings: analyze_bundle_with(bundle, opts),
        ..GateReport::default()
    };
    if !report.deployable() {
        return report;
    }
    let budgets = CostBudgets::default();
    for &(name, source) in bundle {
        let t = Instant::now();
        let compiled = compile_cached(source);
        report.compile_us += micros_since(t);
        let program = match compiled {
            Ok(program) => program,
            Err(e) => {
                let diag = Diagnostic::new(Rule::ParseError, e.line(), e.to_string());
                report.findings.push((name.to_owned(), diag));
                continue;
            }
        };
        let t = Instant::now();
        let verdict = verify::check(&program);
        report.verify_us += micros_since(t);
        if let Err(e) = verdict {
            let message = format!("internal: compiled chunk failed verification: {e}");
            let diag = Diagnostic::new(Rule::ParseError, 0, message);
            report.findings.push((name.to_owned(), diag));
            continue;
        }
        let t = Instant::now();
        let diags = cost_diagnostics(&analyze_costs(&program), &budgets);
        report.absint_us += micros_since(t);
        report
            .findings
            .extend(diags.into_iter().map(|d| (name.to_owned(), d)));
        report.programs.push(program);
    }
    report
}

fn micros_since(t: Instant) -> f64 {
    t.elapsed().as_micros() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_clean_but_uncompilable_script_is_rejected_with_one_p000() {
        // 256 arguments overflow the call op's u8 argc: the analyzer has
        // no rule against it, the compiler refuses it.
        let source = format!(
            "function f() {{ return 0; }}\nf({});\n",
            vec!["1"; 256].join(", ")
        );
        let opts = AnalyzeOptions::default();
        let lint = analyze_bundle_with(&[("wide.js", &source)], &opts);
        assert!(!lint.iter().any(|(_, d)| d.is_error()), "{lint:?}");
        let report = deploy_gate(&[("wide.js", &source)], &opts);
        assert!(!report.deployable());
        let errors: Vec<_> = report
            .findings
            .iter()
            .filter(|(_, d)| d.is_error())
            .collect();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].0, "wide.js");
        assert_eq!(errors[0].1.rule, Rule::ParseError);
        assert!(report.programs.is_empty());
    }

    #[test]
    fn lint_rejection_compiles_nothing() {
        let report = deploy_gate(
            &[("bad.js", "publish(x, 'c');")],
            &AnalyzeOptions::default(),
        );
        assert!(!report.deployable());
        assert!(report.programs.is_empty());
        assert_eq!(report.compile_us + report.verify_us + report.absint_us, 0.0);
    }
}
