//! `pogo-lint` — lint PogoScript files before they ever reach a phone.
//!
//! ```text
//! pogo-lint [FLAGS] FILE...
//!
//! FILE                 .js PogoScript sources, taken as one deployment
//!                      bundle and run through the deploy gate
//!                      (`pogo_script::deploy_gate`: lint with
//!                      cross-script channel analysis, compile,
//!                      bytecode verifier, cost bounds against the
//!                      watchdog budgets) — what `Deployment::send`
//!                      runs before a spec reaches any phone
//! --rust-embedded      treat FILEs as Rust sources; extract string
//!                      literals that look like embedded PogoScript and
//!                      lint each standalone (fragments wired together
//!                      by Rust code: no bundle, no compiled passes)
//! --allow-native NAME  treat NAME as a registered extension native
//!                      (repeatable)
//! --json               machine-readable output: one JSON object per
//!                      finding on stdout (`file`, `code`, `severity`,
//!                      `line`, `message`); the human summary moves to
//!                      stderr. A compile-only or verifier failure has
//!                      `code` `P000`; the `VERIFY_*` code is in
//!                      `message`
//! --dump-bytecode      compile each FILE and print the disassembled
//!                      chunk instead of linting, then (after a
//!                      `;; quickened` line) the runs of ops the VM
//!                      executes as one fused instruction (stable,
//!                      diff-friendly text; the golden-file tests pin
//!                      both)
//! --dump-cfg           compile each FILE and print its control-flow
//!                      graph, inferred loop trip counts, and static
//!                      cost report instead of linting (also golden)
//! ```
//!
//! Exit status: 0 clean (or warnings only), 1 errors found (the bundle
//! is not deployable), 2 usage/IO failure. Under
//! `--dump-bytecode`/`--dump-cfg`: 0 on success, 1 on compile errors,
//! 2 usage/IO.

use std::process::ExitCode;

use pogo_script::absint::render_cfg;
use pogo_script::{
    analyze_with, compile, deploy_gate, disassemble, quickened_listing, AnalyzeOptions, Diagnostic,
    Severity,
};

struct Options {
    files: Vec<String>,
    rust_embedded: bool,
    json: bool,
    dump_bytecode: bool,
    dump_cfg: bool,
    analyze: AnalyzeOptions,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pogo-lint [--rust-embedded] [--allow-native NAME]... [--json] \
         [--dump-bytecode] [--dump-cfg] FILE..."
    );
    ExitCode::from(2)
}

/// Counts findings and renders them as text or JSON lines.
struct Reporter {
    errors: usize,
    warnings: usize,
    json: bool,
}

impl Reporter {
    fn diag(&mut self, label: &str, offset: u32, source: &str, d: &Diagnostic) {
        let severity = d.severity();
        match severity {
            Severity::Error => self.errors += 1,
            Severity::Warning => self.warnings += 1,
        }
        if self.json {
            println!(
                "{{\"file\":{},\"code\":{},\"severity\":{},\"line\":{},\"message\":{}}}",
                json_str(label),
                json_str(d.rule.code()),
                json_str(&severity.to_string()),
                d.line + offset,
                json_str(&d.message),
            );
            return;
        }
        let mut rendered = d.render(source);
        if offset > 0 {
            // Re-anchor to the embedding .rs file so the location is
            // clickable; keep the script-relative excerpt.
            rendered = rendered.replacen(
                &format!("line {}", d.line),
                &format!("line {}", d.line + offset),
                1,
            );
        }
        println!("{label}: {rendered}");
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let mut opts = Options {
        files: Vec::new(),
        rust_embedded: false,
        json: false,
        dump_bytecode: false,
        dump_cfg: false,
        analyze: AnalyzeOptions::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rust-embedded" => opts.rust_embedded = true,
            "--json" => opts.json = true,
            "--dump-bytecode" => opts.dump_bytecode = true,
            "--dump-cfg" => opts.dump_cfg = true,
            "--allow-native" => match args.next() {
                Some(name) => opts.analyze.extra_natives.push(name),
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("pogo-lint: unknown flag `{other}`");
                return usage();
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() {
        return usage();
    }
    if (opts.dump_bytecode || opts.dump_cfg) && opts.rust_embedded {
        eprintln!("pogo-lint: dump modes do not combine with --rust-embedded");
        return usage();
    }
    if opts.dump_bytecode {
        return dump(&opts.files, |program| {
            let fused = quickened_listing(program);
            format!("{}\n;; quickened\n{fused}", disassemble(program))
        });
    }
    if opts.dump_cfg {
        return dump(&opts.files, render_cfg);
    }

    let mut sources: Vec<(String, String, u32)> = Vec::new(); // (label, source, line offset)
    for path in &opts.files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("pogo-lint: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if opts.rust_embedded {
            for (line, script) in extract_embedded_scripts(&text) {
                sources.push((path.clone(), script, line));
            }
        } else {
            sources.push((path.clone(), text, 0));
        }
    }

    let mut rep = Reporter {
        errors: 0,
        warnings: 0,
        json: opts.json,
    };

    if opts.rust_embedded {
        // Embedded scripts are fragments wired together by Rust code;
        // cross-script channel analysis over them would only guess.
        for (label, source, offset) in &sources {
            for d in analyze_with(source, &opts.analyze) {
                rep.diag(label, *offset, source, &d);
            }
        }
    } else {
        let bundle: Vec<(&str, &str)> = sources
            .iter()
            .map(|(label, source, _)| (label.as_str(), source.as_str()))
            .collect();
        for (label, d) in deploy_gate(&bundle, &opts.analyze).findings {
            let source = sources
                .iter()
                .find(|(l, _, _)| *l == label)
                .map(|(_, s, _)| s.as_str())
                .unwrap_or("");
            rep.diag(&label, 0, source, &d);
        }
    }

    let scanned = sources.len();
    let what = if opts.rust_embedded {
        "embedded script(s)"
    } else {
        "file(s)"
    };
    let summary = format!(
        "pogo-lint: {scanned} {what}, {} error(s), {} warning(s)",
        rep.errors, rep.warnings
    );
    if opts.json {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    if rep.errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--dump-bytecode` / `--dump-cfg`: compile each file and print a
/// stable, diff-friendly rendering (the disassembly a deployed phone
/// will actually execute, or the CFG + static cost report). The output
/// is deterministic for a given source, so golden files can pin it.
fn dump(files: &[String], render: impl Fn(&pogo_script::CompiledProgram) -> String) -> ExitCode {
    let mut failed = false;
    for path in files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("pogo-lint: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        println!(";; {path}");
        match compile(&text) {
            Ok(program) => print!("{}", render(&program)),
            Err(e) => {
                println!(";; compile error: {e}");
                failed = true;
            }
        }
        println!();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Pulls string literals that look like PogoScript out of a Rust
/// source file. Returns `(line_of_literal_start, script_text)`.
///
/// Handles `r"..."`/`r#"..."#`-style raw strings and plain `"..."`
/// literals (with escapes), and skips `//` and `/* */` comments. A
/// literal counts as a script when it calls one of the Pogo API
/// methods — ordinary strings never match.
fn extract_embedded_scripts(rust_src: &str) -> Vec<(u32, String)> {
    const MARKERS: &[&str] = &[
        "subscribe(",
        "publish(",
        "setDescription(",
        "setTimeout(",
        "freeze(",
        "thaw(",
        "logTo(",
    ];
    let bytes = rust_src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue; // the '\n' itself is handled by the default path
        }
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            i += 2;
            while i < bytes.len() && !(bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/')) {
                if bytes[i] == b'\n' {
                    line += 1;
                }
                i += 1;
            }
            i = (i + 2).min(bytes.len());
            continue;
        }
        if b == b'r' && matches!(bytes.get(i + 1), Some(b'"' | b'#')) {
            // Raw string: r"..." or r#"..."# (any number of #).
            let start_line = line;
            let mut j = i + 1;
            let mut hashes = 0;
            while bytes.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if bytes.get(j) != Some(&b'"') {
                i += 1;
                continue;
            }
            j += 1;
            let body_start = j;
            let closer: Vec<u8> = std::iter::once(b'"')
                .chain(std::iter::repeat_n(b'#', hashes))
                .collect();
            while j < bytes.len() && !bytes[j..].starts_with(&closer) {
                if bytes[j] == b'\n' {
                    line += 1;
                }
                j += 1;
            }
            let body = &rust_src[body_start..j.min(rust_src.len())];
            if MARKERS.iter().any(|m| body.contains(m)) {
                out.push((start_line.saturating_sub(1), body.to_string()));
            }
            i = (j + closer.len()).min(bytes.len());
            continue;
        }
        if b == b'"' {
            let start_line = line;
            let mut j = i + 1;
            let body_start = j;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\\' {
                    j += 1; // skip the escaped byte
                } else if bytes[j] == b'\n' {
                    line += 1;
                }
                j += 1;
            }
            let raw = &rust_src[body_start..j.min(rust_src.len())];
            if MARKERS.iter().any(|m| raw.contains(m)) {
                // Unescape the subset that matters for PogoScript.
                let body = raw
                    .replace("\\n", "\n")
                    .replace("\\t", "\t")
                    .replace("\\'", "'")
                    .replace("\\\"", "\"")
                    .replace("\\\\", "\\");
                out.push((start_line.saturating_sub(1), body));
            }
            i = (j + 1).min(bytes.len());
            continue;
        }
        if b == b'\'' {
            // Char literal or lifetime; skip a possible escaped char
            // so '"' inside one doesn't open a bogus string.
            if bytes.get(i + 1) == Some(&b'\\') {
                i += 4; // '\x'
            } else if bytes.get(i + 2) == Some(&b'\'') {
                i += 3; // 'x'
            } else {
                i += 1; // lifetime
            }
            continue;
        }
        if b == b'\n' {
            line += 1;
        }
        i += 1;
    }
    out
}
