//! Differential execution: the bytecode VM against the tree-walk
//! oracle (`common/treewalk.rs`).
//!
//! The tree-walk interpreter is the semantic reference (it predates the
//! VM); the VM must be observationally identical. For every random
//! program we compare:
//!
//! - the program result (structurally — `NaN == NaN`, containers by
//!   shape not identity, since the two engines build distinct heaps);
//! - the full sequence of values passed to a host native (`emit`),
//!   which observes evaluation *order*, not just final state (functions
//!   render without the `[native]` marker the oracle's carry);
//! - on error, the error **kind and message** (line numbers may
//!   legitimately differ inside multi-line expressions, the same
//!   slack the tree-walk itself has across statement kinds; the
//!   slot-addressed lowerings are also run as a fixed matrix of
//!   one-line statements, where the line must agree as well).
//!
//! A third obligation: programs the static analyzer passes as
//! scope-clean must never trip the VM's internal slot invariants
//! ("internal: unbound slot access" is a compiler bug by definition).
//! Programs with injected scope bugs stay in the corpus so the error
//! paths of both engines are compared too.

mod common;
#[path = "common/treewalk.rs"]
mod treewalk;

use common::{eq_val, observe, VmGen};
use pogo_script::{ErrorKind, Interpreter, Value};

// ---- the differential property ----------------------------------------------

#[test]
fn vm_matches_tree_walk_on_random_programs() {
    const CASES: u64 = 1200;
    let mut ok_runs = 0usize;
    let mut err_runs = 0usize;
    let mut err_kinds: std::collections::BTreeMap<String, usize> = Default::default();
    for seed in 0..CASES {
        let src = VmGen::generate(seed);
        let tree = observe(&src, treewalk::eval);
        let vm = observe(&src, Interpreter::eval);

        assert_eq!(
            tree.emitted, vm.emitted,
            "seed {seed}: emitted sequences diverge\n--- script ---\n{src}"
        );
        match (&tree.result, &vm.result) {
            (Ok(a), Ok(b)) => {
                ok_runs += 1;
                assert!(
                    eq_val(a, b),
                    "seed {seed}: results diverge: {a:?} vs {b:?}\n--- script ---\n{src}"
                );
            }
            (Err((ka, ma, _)), Err((kb, mb, _))) => {
                err_runs += 1;
                *err_kinds.entry(ma.clone()).or_insert(0usize) += 1;
                assert_eq!(
                    (ka, ma.as_str()),
                    (kb, mb.as_str()),
                    "seed {seed}: error divergence\n--- script ---\n{src}"
                );
                assert!(
                    !mb.starts_with("internal:"),
                    "seed {seed}: VM internal invariant tripped: {mb}\n--- script ---\n{src}"
                );
            }
            (a, b) => panic!(
                "seed {seed}: one engine errors, the other does not:\n\
                 tree-walk: {a:?}\nvm: {b:?}\n--- script ---\n{src}"
            ),
        }
    }
    // What the oracle covers, printed under `--nocapture` for
    // `scripts/ci.sh`, so a change that shrinks the corpus shows there.
    println!(
        "oracle: {CASES} random programs compared on both engines, \
         {ok_runs} ran to completion on both"
    );
    // The corpus must exercise both outcomes or the property is weak.
    assert!(
        ok_runs > 400,
        "too few successful programs: {ok_runs}/{CASES}\nerror histogram: {err_kinds:#?}"
    );
    assert!(
        err_runs > 100,
        "too few erroring programs: {err_runs}/{CASES}"
    );
}

/// Every probe of the slot-addressed lowerings (`common`): the fused
/// local-member read and the void-context `++`/`--`/`=`/`+=`, on each
/// kind of binding and each type of value. The statements are one line
/// each and call nothing, so here the error *line* must agree too.
#[test]
fn slot_addressed_lowerings_match_tree_walk_in_kind_message_and_line() {
    use common::{
        read_probe, update_probe, PROBE_BINDINGS, PROBE_OPS, PROBE_PROPS, PROBE_READS, PROBE_VALUES,
    };
    let mut programs = Vec::new();
    for value in PROBE_VALUES {
        for in_for in [false, true] {
            for binding in 0..PROBE_BINDINGS {
                for op in 0..PROBE_OPS {
                    programs.push(update_probe("x", binding, op, value, "'t'", in_for));
                    programs.push(update_probe("x", binding, op, value, "3", in_for));
                }
            }
        }
        for prop in PROBE_PROPS {
            for read in 0..PROBE_READS {
                programs.push(read_probe("x", value, prop, read, false));
                programs.push(read_probe("x", value, prop, read, true));
            }
        }
    }
    let mut errors = std::collections::BTreeSet::new();
    for src in &programs {
        let tree = observe(src, treewalk::eval);
        let vm = observe(src, Interpreter::eval);
        assert_eq!(tree.emitted, vm.emitted, "emitted sequences diverge\n{src}");
        match (&tree.result, &vm.result) {
            (Ok(a), Ok(b)) => assert!(eq_val(a, b), "results diverge: {a:?} vs {b:?}\n{src}"),
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "error divergence\n{src}");
                assert!(!b.1.starts_with("internal:"), "{}\n{src}", b.1);
                errors.insert(b.1.clone());
            }
            (a, b) => panic!("tree-walk: {a:?}\nvm: {b:?}\n{src}"),
        }
    }
    // Refusals of every kind are in the matrix, not only successes.
    for needle in ["cannot increment a null", "cannot decrement a string"] {
        assert!(errors.contains(needle), "{needle:?} not in {errors:#?}");
    }
    assert!(errors.len() >= 8, "{errors:#?}");
}

/// The `Math.<fn>` fast path must yield to every way a program can make
/// `Math` something other than the builtin: each of these calls its own
/// `floor`, which answers 42.
#[test]
fn math_fast_path_yields_to_every_rebinding_of_math() {
    let fake = "{ floor: function (x) { return 42; } }";
    for src in [
        format!("var f = function (Math) {{ return Math.floor(1.5); }}; f({fake});"),
        format!("function f(Math) {{ return Math.floor(1.5); }} f({fake});"),
        format!("function f() {{ var Math = {fake}; return Math.floor(1.5); }} f();"),
        "Math.floor = function (x) { return 42; }; Math.floor(1.5);".to_owned(),
        "var m = Math; m.floor = function (x) { return 42; }; Math.floor(1.5);".to_owned(),
    ] {
        for (engine, eval) in treewalk::ENGINES {
            let run = observe(&src, eval);
            assert_eq!(run.result, Ok(Value::Num(42.0)), "{engine}\n{src}");
        }
    }
}

/// Programs the analyzer passes as scope-clean must run on the VM
/// without tripping slot-resolution invariants — and without reference
/// errors at all (the analyzer's own guarantee, now extended to the
/// compiled engine).
#[test]
fn analyzer_clean_programs_never_trip_vm_slot_invariants() {
    const CASES: u64 = 400;
    let mut clean = 0usize;
    for seed in 0..CASES {
        let src = VmGen::generate(seed);
        let scope_clean = pogo_script::analyze(&src)
            .iter()
            .all(|d| !matches!(d.rule.code(), "P000" | "P001" | "P002" | "P003"));
        if !scope_clean {
            continue;
        }
        clean += 1;
        let vm = observe(&src, Interpreter::eval);
        if let Err((kind, msg, _)) = &vm.result {
            assert!(
                *kind != ErrorKind::Reference,
                "seed {seed}: analyzer-clean program raised a reference error \
                 on the VM: {msg}\n--- script ---\n{src}"
            );
        }
    }
    assert!(
        clean > 100,
        "too few analyzer-clean programs: {clean}/{CASES}"
    );
}
