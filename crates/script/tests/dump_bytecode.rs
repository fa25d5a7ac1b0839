//! Golden-file tests over `pogo-lint --dump-bytecode`.
//!
//! Every deployable script in `assets/scripts/` has a pinned
//! disassembly under `tests/golden/`. The goldens serve two purposes:
//! they catch accidental codegen changes (a different chunk for the
//! same source is a deployment-visible change — phones cache compiled
//! specs), and they document the instruction stream each shipped
//! script actually runs. Beside each `.bytecode.txt` a `.quick.txt`
//! pins the runs of ops the VM executes as one fused instruction: a
//! lowering change that stops an idiom from matching is a diff there,
//! not a slowdown someone has to notice. Regenerate intentionally with
//! `POGO_BLESS=1 cargo test -p pogo-script --test dump_bytecode`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    // crates/script -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The disassembly and, after the `;; quickened` line, the fused runs.
fn dump(script: &Path) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pogo-lint"))
        .arg("--dump-bytecode")
        .arg(script)
        .current_dir(repo_root())
        .output()
        .expect("pogo-lint runs");
    assert!(
        out.status.success(),
        "--dump-bytecode failed for {}: {}",
        script.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("disassembly is UTF-8");
    // The first line echoes the (platform-dependent) path; the golden
    // pins everything after it.
    let (first, rest) = text.split_once('\n').expect("header line");
    assert!(first.starts_with(";; "), "header: {first}");
    let (ops, fused) = rest.split_once(";; quickened\n").expect("fused runs");
    (ops.to_owned(), fused.to_owned())
}

#[test]
fn asset_scripts_match_bytecode_goldens() {
    let scripts_dir = repo_root().join("assets/scripts");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&scripts_dir)
        .expect("assets/scripts exists")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            (p.extension().is_some_and(|x| x == "js")).then_some(p)
        })
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 4,
        "expected the shipped scripts, got {paths:?}"
    );

    let bless = std::env::var_os("POGO_BLESS").is_some();
    for script in &paths {
        let name = script.file_stem().expect("stem").to_string_lossy();
        let got = dump(script);
        assert_eq!(got, dump(script), "disassembly must be deterministic");
        for (kind, got) in [("bytecode", &got.0), ("quick", &got.1)] {
            let golden_path = golden_dir().join(format!("{name}.{kind}.txt"));
            if bless {
                std::fs::write(&golden_path, got).expect("write golden");
                continue;
            }
            let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
                panic!(
                    "missing golden {} ({e}); run with POGO_BLESS=1 to create it",
                    golden_path.display()
                )
            });
            assert!(
                *got == want,
                "{name}: {kind} listing drifted from {}; if the codegen change is \
                 intentional, re-bless with POGO_BLESS=1",
                golden_path.display()
            );
        }
    }
}

#[test]
fn dump_bytecode_reports_compile_errors() {
    let dir = std::env::temp_dir().join("pogo-dump-bytecode-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.js");
    std::fs::write(&bad, "var x = ;").expect("write fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_pogo-lint"))
        .arg("--dump-bytecode")
        .arg(&bad)
        .output()
        .expect("pogo-lint runs");
    assert_eq!(out.status.code(), Some(1), "compile errors exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(";; compile error:"), "stdout: {text}");
}
