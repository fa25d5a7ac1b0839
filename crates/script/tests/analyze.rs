//! Fixture coverage for the static analyzer: one positive and one
//! negative case per rule code, the ISSUE acceptance fixture, the
//! assets/scripts bundle, and a randomized scope-soundness property
//! (analyzer-clean scripts never raise reference errors at runtime).

use pogo_script::{analyze, analyze_bundle, analyze_with, AnalyzeOptions, ErrorKind, Interpreter};

fn codes(src: &str) -> Vec<&'static str> {
    analyze(src).iter().map(|d| d.rule.code()).collect()
}

fn has(src: &str, code: &str) -> bool {
    codes(src).contains(&code)
}

// ---- P000 parse error ---------------------------------------------------------

#[test]
fn p000_parse_error() {
    let diags = analyze("var = ;");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule.code(), "P000");
    assert!(diags[0].is_error());
}

#[test]
fn p000_not_on_valid_source() {
    assert!(!has("var a = 1; print(a);", "P000"));
}

// ---- P001 undeclared read -----------------------------------------------------

#[test]
fn p001_undeclared_read() {
    let diags = analyze("var a = missing;");
    assert!(diags.iter().any(|d| d.rule.code() == "P001" && d.line == 1));
}

#[test]
fn p001_not_on_declared_read() {
    assert!(!has("var present = 1; log(present);", "P001"));
}

// ---- P002 use before declaration ----------------------------------------------

#[test]
fn p002_use_before_declaration() {
    // PogoScript does not hoist `var`: this faults at runtime too.
    let src = "log(x);\nvar x = 1;\nlog(x);";
    let diags = analyze(src);
    assert!(diags.iter().any(|d| d.rule.code() == "P002" && d.line == 1));
}

#[test]
fn p002_not_inside_deferred_function_body() {
    // The function only runs after `x` exists; this is the classic
    // mutual-recursion layout and must stay clean.
    let src = "function f() { return x + 1; }\nvar x = 1;\nlog(f());";
    assert!(!has(src, "P002"));
    assert!(!has(src, "P001"));
}

// ---- P003 undeclared write ----------------------------------------------------

#[test]
fn p003_assignment_to_undeclared() {
    // No implicit globals in PogoScript.
    let diags = analyze("ghost = 1;");
    assert!(diags.iter().any(|d| d.rule.code() == "P003" && d.line == 1));
}

#[test]
fn p003_not_on_declared_assignment() {
    assert!(!has("var x; x = 1; log(x);", "P003"));
}

// ---- P004 duplicate declaration -----------------------------------------------

#[test]
fn p004_duplicate_declaration() {
    let src = "var x = 1;\nvar x = 2;\nlog(x);";
    let diags = analyze(src);
    assert!(diags.iter().any(|d| d.rule.code() == "P004" && d.line == 2));
    assert!(diags.iter().all(|d| !d.is_error()), "P004 is a warning");
}

#[test]
fn p004_not_across_scopes() {
    // Same name in a child block is shadowing (P005), not a duplicate.
    let src = "var x = 1;\n{ var x = 2; log(x); }\nlog(x);";
    assert!(!has(src, "P004"));
}

// ---- P005 shadowing -----------------------------------------------------------

#[test]
fn p005_shadowing_outer_declaration() {
    let src = "var x = 1;\n{ var x = 2; log(x); }\nlog(x);";
    let diags = analyze(src);
    assert!(diags.iter().any(|d| d.rule.code() == "P005" && d.line == 2));
}

#[test]
fn p005_shadowing_a_builtin() {
    assert!(has("var parseFloat = 1; log(parseFloat);", "P005"));
}

#[test]
fn p005_not_on_distinct_names() {
    assert!(!has("var x = 1;\n{ var y = x + 1; log(y); }", "P005"));
}

// ---- P101 wrong arity ---------------------------------------------------------

#[test]
fn p101_wrong_arity_publish() {
    let diags = analyze("publish('ch');");
    assert!(diags.iter().any(|d| d.rule.code() == "P101" && d.line == 1));
}

#[test]
fn p101_wrong_arity_math() {
    assert!(has("var r = Math.pow(2); log(r);", "P101"));
}

#[test]
fn p101_not_on_correct_arity() {
    assert!(!has("publish('ch', 1);", "P101"));
    assert!(!has("var r = Math.pow(2, 8); log(r);", "P101"));
    // Shadowed natives are the script's business, not the table's.
    assert!(!has(
        "function publish(a) { return a; }\nlog(publish(1));",
        "P101"
    ));
}

// ---- P102 non-callable callee --------------------------------------------------

#[test]
fn p102_literal_callee() {
    assert!(has("5();", "P102"));
}

#[test]
fn p102_math_constant_called() {
    assert!(has("var x = Math.PI(); log(x);", "P102"));
}

#[test]
fn p102_unknown_math_method() {
    assert!(has("var x = Math.tan(1); log(x);", "P102"));
}

#[test]
fn p102_not_when_math_is_patched() {
    // Assigning through `Math.` invalidates the static member table.
    let src = "Math.tan = function (x) { return x; };\nvar y = Math.tan(1);\nlog(y);";
    assert!(!has(src, "P102"));
    // So does patching it through an alias.
    let src = "var m = Math;\nm.tan = function (x) { return x; };\nlog(Math.tan(1));";
    assert!(!has(src, "P102"));
}

#[test]
fn p102_not_on_real_math_method() {
    assert!(!has("var x = Math.sqrt(4); log(x);", "P102"));
}

// ---- P103 subscribed channel never published (bundle) --------------------------

#[test]
fn p103_unpublished_channel_in_bundle() {
    let bundle = [
        ("sub.js", "subscribe('resuls', function (m) { log(m); });"),
        ("pub.js", "publish('results', { ok: true });"),
    ];
    let diags = analyze_bundle(&bundle);
    assert!(diags
        .iter()
        .any(|(name, d)| name == "sub.js" && d.rule.code() == "P103" && d.line == 1));
}

#[test]
fn p103_not_for_published_or_sensor_channels() {
    let bundle = [
        (
            "sub.js",
            "subscribe('results', function (m) { log(m); });\n\
             subscribe('battery', function (m) { log(m); });",
        ),
        ("pub.js", "publish('results', { ok: true });"),
    ];
    assert!(analyze_bundle(&bundle)
        .iter()
        .all(|(_, d)| d.rule.code() != "P103"));
}

#[test]
fn p103_suppressed_by_dynamic_publish() {
    // A computed channel name could feed anything; stay quiet.
    let bundle = [
        ("sub.js", "subscribe('mystery', function (m) { log(m); });"),
        ("pub.js", "var ch = 'mys' + 'tery';\npublish(ch, 1);"),
    ];
    assert!(analyze_bundle(&bundle)
        .iter()
        .all(|(_, d)| d.rule.code() != "P103"));
}

#[test]
fn p103_never_fires_in_single_script_mode() {
    assert!(!has(
        "subscribe('mystery', function (m) { log(m); });",
        "P103"
    ));
}

// ---- P104 literal argument type mismatch ---------------------------------------

#[test]
fn p104_numeric_channel_name() {
    assert!(has("subscribe(42, function (m) { log(m); });", "P104"));
}

#[test]
fn p104_publish_without_string_channel() {
    assert!(has("publish(1, 2);", "P104"));
}

#[test]
fn p104_settimeout_non_function() {
    assert!(has("setTimeout('later');", "P104"));
}

#[test]
fn p104_not_on_well_typed_call() {
    assert!(!has("subscribe('ch', function (m) { log(m); });", "P104"));
    assert!(!has("publish({ v: 1 }, 'ch');", "P104"), "either arg order");
}

// ---- P201 unreachable code -----------------------------------------------------

#[test]
fn p201_statement_after_return() {
    let src = "function f() {\n  return 1;\n  log('dead');\n}\nf();";
    let diags = analyze(src);
    assert!(diags.iter().any(|d| d.rule.code() == "P201" && d.line == 3));
}

#[test]
fn p201_after_exhaustive_if() {
    let src =
        "function f(c) {\n  if (c) { return 1; } else { return 2; }\n  log('dead');\n}\nf(1);";
    assert!(has(src, "P201"));
}

#[test]
fn p201_not_for_hoisted_function_after_return() {
    // `g` is hoisted, so declaring it after `return` is legal style.
    let src = "function f() {\n  return g();\n  function g() { return 1; }\n}\nf();";
    assert!(!has(src, "P201"));
}

// ---- P202 constant condition ----------------------------------------------------

#[test]
fn p202_constant_if() {
    let diags = analyze("if (false) { log('no'); }");
    assert!(diags.iter().any(|d| d.rule.code() == "P202" && d.line == 1));
}

#[test]
fn p202_constant_false_loop() {
    assert!(has("while (0) { log('no'); }", "P202"));
}

#[test]
fn p202_not_on_identifier_condition() {
    // A flag variable is not a literal, even if it never changes —
    // clustering.js gates freeze/thaw this way.
    assert!(!has("var USE_X = false;\nif (USE_X) { log('x'); }", "P202"));
}

// ---- P203 infinite loop ----------------------------------------------------------

#[test]
fn p203_while_true_without_break() {
    let diags = analyze("while (true) { log('spin'); }");
    assert!(diags.iter().any(|d| d.rule.code() == "P203" && d.line == 1));
}

#[test]
fn p203_for_without_condition() {
    assert!(has("for (;;) { log('spin'); }", "P203"));
}

#[test]
fn p203_not_with_break_or_return() {
    assert!(!has(
        "var n = 0;\nwhile (true) { n++; if (n > 3) { break; } }\nlog(n);",
        "P203"
    ));
    assert!(!has(
        "function f() { while (true) { return 1; } }\nlog(f());",
        "P203"
    ));
}

// ---- P204 assignment in condition ------------------------------------------------

#[test]
fn p204_assignment_in_if_condition() {
    let src = "var a = 0;\nvar b = 1;\nif (a = b) { log(a); }";
    let diags = analyze(src);
    assert!(diags.iter().any(|d| d.rule.code() == "P204" && d.line == 3));
}

#[test]
fn p204_not_on_comparison() {
    assert!(!has(
        "var a = 0;\nvar b = 1;\nif (a == b) { log(a); }",
        "P204"
    ));
}

// ---- P205 unused variable ---------------------------------------------------------

#[test]
fn p205_unused_variable() {
    let diags = analyze("var unused = 1;");
    assert!(diags.iter().any(|d| d.rule.code() == "P205" && d.line == 1));
}

#[test]
fn p205_not_for_underscore_prefixed() {
    assert!(!has("var _scratch = 1;", "P205"));
}

// ---- P206 unused function ----------------------------------------------------------

#[test]
fn p206_unused_function() {
    assert!(has("function helper() { return 1; }", "P206"));
}

#[test]
fn p206_not_for_start_convention() {
    // `start()` is the host-invoked entry point (RogueFinder style).
    assert!(!has("function start() { log('go'); }", "P206"));
}

// ---- P207 unused parameter -----------------------------------------------------------

#[test]
fn p207_unused_named_function_param() {
    let src = "function f(a, b) { return a; }\nlog(f(1, 2));";
    assert!(has(src, "P207"));
}

#[test]
fn p207_not_for_callback_params() {
    // Handlers routinely ignore `from`; anonymous functions are exempt.
    assert!(!has(
        "subscribe('battery', function (msg, from) { log(msg); });",
        "P207"
    ));
}

// ---- P401 unknown native ---------------------------------------------------------------

#[test]
fn p401_call_to_unknown_native() {
    let diags = analyze("mystery(1);");
    assert!(diags
        .iter()
        .any(|d| d.rule.code() == "P401" && !d.is_error()));
}

#[test]
fn p401_not_when_native_is_allowed() {
    let opts = AnalyzeOptions {
        extra_natives: vec!["mystery".into()],
    };
    assert!(analyze_with("mystery(1);", &opts)
        .iter()
        .all(|d| d.rule.code() != "P401"));
}

// ---- P402 write-only global -------------------------------------------------------------

#[test]
fn p402_global_written_never_read() {
    let src = "var flag = 0;\nsubscribe('battery', function (m) { flag = 1; });";
    let diags = analyze(src);
    assert!(diags.iter().any(|d| d.rule.code() == "P402" && d.line == 1));
}

#[test]
fn p402_not_when_global_is_read() {
    let src = "var flag = 0;\n\
               subscribe('battery', function (m) { flag = 1; });\n\
               subscribe('location', function (m) { log(flag); });";
    assert!(!has(src, "P402"));
}

// ---- acceptance fixture (ISSUE criterion) ------------------------------------------------

#[test]
fn acceptance_fixture_yields_exactly_three_codes_with_lines() {
    let src = "function f() {\n\
               \x20   publish('pings');\n\
               \x20   return 1;\n\
               \x20   log('dead');\n\
               }\n\
               log(mystery_value);\n\
               f();";
    let diags = analyze(src);
    let found: Vec<(&str, u32)> = diags.iter().map(|d| (d.rule.code(), d.line)).collect();
    assert_eq!(
        found,
        vec![("P101", 2), ("P201", 4), ("P001", 6)],
        "exactly the three expected rule codes with correct lines: {diags:?}"
    );
}

// ---- assets/scripts bundle ----------------------------------------------------------------

#[test]
fn asset_scripts_lint_clean_as_a_bundle() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/scripts");
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(dir).expect("assets/scripts exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("js") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable script");
            sources.push((name, text));
        }
    }
    assert!(
        sources.len() >= 5,
        "expected the asset scripts, got {sources:?}"
    );
    let bundle: Vec<(&str, &str)> = sources
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    // collect.js calls `geolocate`, registered by the collector as an
    // extension native (see examples/localization.rs).
    let opts = AnalyzeOptions {
        extra_natives: vec!["geolocate".into()],
    };
    let diags = pogo_script::analyze_bundle_with(&bundle, &opts);
    assert!(
        diags.is_empty(),
        "asset scripts must lint clean: {diags:#?}"
    );
}

// ---- pogo-lint binary ----------------------------------------------------------------------

#[test]
fn pogo_lint_binary_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_pogo-lint");
    let assets = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/scripts");
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(assets)
        .expect("assets dir")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            (p.extension().and_then(|x| x.to_str()) == Some("js")).then_some(p)
        })
        .collect();
    files.sort();

    // `pogo-lint assets/scripts/*.js` exits 0 (the acceptance bar).
    let ok = std::process::Command::new(bin)
        .args(&files)
        .output()
        .expect("pogo-lint runs");
    assert!(
        ok.status.success(),
        "stdout: {}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // An error-bearing script exits 1.
    let tmp = std::env::temp_dir().join("pogo_lint_fixture_bad.js");
    std::fs::write(&tmp, "publish(oops, 'ch');\n").expect("write fixture");
    let bad = std::process::Command::new(bin)
        .arg(&tmp)
        .output()
        .expect("pogo-lint runs");
    assert_eq!(bad.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("P001"), "stdout: {stdout}");

    // Runaway nesting is a P000 parse error on every path through the
    // binary, not a stack overflow (which would abort with 134).
    std::fs::write(&tmp, format!("var x = {}1;\n", "(".repeat(200_000))).expect("write fixture");
    for flags in [&[][..], &["--json"]] {
        let deep = std::process::Command::new(bin)
            .args(flags)
            .arg(&tmp)
            .output()
            .expect("pogo-lint runs");
        assert_eq!(deep.status.code(), Some(1), "{flags:?}");
        let stdout = String::from_utf8_lossy(&deep.stdout);
        assert!(
            stdout.contains("P000") && stdout.contains("nesting deeper than 128 levels"),
            "{flags:?} stdout: {stdout}"
        );
    }
    std::fs::remove_file(&tmp).ok();
}

// ---- property: scope-clean scripts never fault with reference errors ------------------------

/// Generates a random straight-line PogoScript program from a seed.
/// Statements: declarations, assignments, expression reads, `if`
/// blocks, bounded `for` loops, nested blocks. With small probability
/// it injects scope bugs (undeclared reads/writes, use before
/// declaration) so both sides of the implication get exercised.
struct ScriptGen {
    rng: rand::rngs::SmallRng,
    /// Scope chain of declared names, innermost last.
    scopes: Vec<Vec<String>>,
    next_id: usize,
    out: String,
}

impl ScriptGen {
    fn generate(seed: u64) -> String {
        use rand::SeedableRng;
        let mut g = ScriptGen {
            rng: rand::rngs::SmallRng::seed_from_u64(seed),
            scopes: vec![Vec::new()],
            next_id: 0,
            out: String::new(),
        };
        let n = g.range(3, 9);
        for _ in 0..n {
            g.stmt(0);
        }
        g.out
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        use rand::Rng;
        self.rng.gen_range(lo..hi)
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.range(0, 100) < percent
    }

    fn fresh_name(&mut self) -> String {
        let id = self.next_id;
        self.next_id += 1;
        format!("v{id}")
    }

    fn declared_name(&mut self) -> Option<String> {
        let all: Vec<String> = self.scopes.iter().flatten().cloned().collect();
        if all.is_empty() {
            return None;
        }
        let i = self.range(0, all.len());
        Some(all[i].clone())
    }

    /// An arithmetic expression over declared names and literals; with
    /// `buggy` percent chance one leaf is an undeclared name.
    fn expr(&mut self, depth: usize, buggy: usize) -> String {
        if depth < 2 && self.chance(40) {
            let op = ["+", "-", "*"][self.range(0, 3)];
            let l = self.expr(depth + 1, buggy);
            let r = self.expr(depth + 1, buggy);
            return format!("({l} {op} {r})");
        }
        if self.chance(buggy) {
            return format!("undeclared_{}", self.range(0, 3));
        }
        match self.declared_name() {
            Some(name) if self.chance(60) => name,
            _ => format!("{}", self.range(0, 100)),
        }
    }

    fn stmt(&mut self, depth: usize) {
        match self.range(0, 10) {
            // var declaration (sometimes a duplicate/shadow — warnings
            // only, which the property ignores).
            0..=2 => {
                let name = self.fresh_name();
                let init = self.expr(0, 5);
                self.out.push_str(&format!("var {name} = {init};\n"));
                self.scopes.last_mut().unwrap().push(name);
            }
            // assignment to a declared (or, rarely, undeclared) name
            3..=4 => {
                let target = if self.chance(8) {
                    Some(format!("undeclared_{}", self.range(0, 3)))
                } else {
                    self.declared_name()
                };
                if let Some(target) = target {
                    let value = self.expr(0, 5);
                    self.out.push_str(&format!("{target} = {value};\n"));
                }
            }
            // expression statement (a read)
            5 => {
                let e = self.expr(0, 8);
                self.out.push_str(&format!("{e};\n"));
            }
            // use-before-declaration in this scope
            6 if self.chance(25) => {
                let name = self.fresh_name();
                self.out
                    .push_str(&format!("{name} + 1;\nvar {name} = 2;\n"));
                self.scopes.last_mut().unwrap().push(name);
            }
            // if with block arms
            6..=7 => {
                let c = self.expr(1, 3);
                self.out.push_str(&format!("if ({c} < 50) {{\n"));
                self.block(depth);
                if self.chance(40) {
                    self.out.push_str("} else {\n");
                    self.block(depth);
                }
                self.out.push_str("}\n");
            }
            // bounded for loop
            8 if depth < 2 => {
                let i = self.fresh_name();
                self.out
                    .push_str(&format!("for (var {i} = 0; {i} < 3; {i} = {i} + 1) {{\n"));
                self.scopes.push(vec![i]);
                self.block_inner(depth);
                self.scopes.pop();
                self.out.push_str("}\n");
            }
            // bare nested block
            _ => {
                self.out.push_str("{\n");
                self.block(depth);
                self.out.push_str("}\n");
            }
        }
    }

    fn block(&mut self, depth: usize) {
        self.scopes.push(Vec::new());
        self.block_inner(depth);
        self.scopes.pop();
    }

    fn block_inner(&mut self, depth: usize) {
        self.scopes.push(Vec::new());
        let n = self.range(1, 4);
        for _ in 0..n {
            self.stmt(depth + 1);
        }
        self.scopes.pop();
    }
}

#[test]
fn property_scope_clean_scripts_never_raise_reference_errors() {
    const CASES: u64 = 300;
    let mut clean = 0usize;
    let mut flagged = 0usize;
    for seed in 0..CASES {
        let src = ScriptGen::generate(seed);
        let scope_errors: Vec<_> = analyze(&src)
            .into_iter()
            .filter(|d| matches!(d.rule.code(), "P001" | "P002" | "P003"))
            .collect();
        let mut interp = Interpreter::new();
        interp.set_budget(Some(2_000_000));
        let runtime_ref = matches!(interp.eval(&src), Err(e) if e.kind() == ErrorKind::Reference);
        if scope_errors.is_empty() {
            clean += 1;
            assert!(
                !runtime_ref,
                "seed {seed}: analyzer saw no scope errors but the interpreter \
                 raised a reference error\n--- script ---\n{src}"
            );
        } else {
            flagged += 1;
        }
    }
    // Make sure the property is not vacuous: both populations exist.
    assert!(clean > 50, "too few clean programs: {clean}/{CASES}");
    assert!(flagged > 20, "too few buggy programs: {flagged}/{CASES}");
}
