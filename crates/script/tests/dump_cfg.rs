//! Golden-file tests over `pogo-lint --dump-cfg`.
//!
//! Every deployable script in `assets/scripts/` has a pinned
//! control-flow-graph + cost-report render under `tests/golden/`.
//! Where the bytecode goldens pin *what* each script compiles to,
//! these pin what the analyzer *concludes* about it: block structure,
//! loop trip bounds, and the per-entry cost report the deploy gate
//! prices against the watchdog budgets. A drift here means deployment
//! decisions changed for an unmodified script. Beside them,
//! `bundle.lint.jsonl` pins the deploy gate's findings over the whole
//! bundle. Regenerate intentionally with
//! `POGO_BLESS=1 cargo test -p pogo-script --test dump_cfg`.

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

fn dump(script: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pogo-lint"))
        .arg("--dump-cfg")
        .arg(script)
        .current_dir(repo_root())
        .output()
        .expect("pogo-lint runs");
    assert!(
        out.status.success(),
        "--dump-cfg failed for {}: {}",
        script.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("CFG render is UTF-8");
    // The first line echoes the (platform-dependent) path; the golden
    // pins everything after it.
    let (first, rest) = text.split_once('\n').expect("header line");
    assert!(first.starts_with(";; "), "header: {first}");
    rest.to_owned()
}

#[test]
fn asset_scripts_match_cfg_goldens() {
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
        let golden_path = golden_dir().join(format!("{name}.cfg.txt"));
        let got = dump(script);
        assert_eq!(got, dump(script), "CFG render must be deterministic");
        if bless {
            std::fs::write(&golden_path, &got).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run with POGO_BLESS=1 to create it",
                golden_path.display()
            )
        });
        assert!(
            got == want,
            "{name}: CFG/cost render drifted from {}; if the analyzer change \
             is intentional, re-bless with POGO_BLESS=1",
            golden_path.display()
        );
    }
}

/// The deploy gate's findings over the whole bundle, as `pogo-lint
/// --allow-native geolocate --json assets/scripts/*.js` prints them: no
/// error-severity finding (the exit status), and exactly the pinned
/// `P30x` warnings, messages included. `geolocate` is allowed because
/// `collect.js` expects the collector to register it as an extension
/// native. Regenerate intentionally with
/// `POGO_BLESS=1 cargo test -p pogo-script --test dump_cfg`.
#[test]
fn asset_bundle_matches_lint_golden() {
    let mut scripts: Vec<String> = std::fs::read_dir(repo_root().join("assets/scripts"))
        .expect("assets/scripts exists")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name().into_string().ok()?;
            name.ends_with(".js")
                .then(|| format!("assets/scripts/{name}"))
        })
        .collect();
    scripts.sort();
    let out = Command::new(env!("CARGO_BIN_EXE_pogo-lint"))
        .args(["--allow-native", "geolocate", "--json"])
        .args(&scripts)
        .current_dir(repo_root())
        .output()
        .expect("pogo-lint runs");
    assert!(
        out.status.success(),
        "the bundle has error-severity findings: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let got = String::from_utf8(out.stdout).expect("JSON lines are UTF-8");
    let golden_path = golden_dir().join("bundle.lint.jsonl");
    if std::env::var_os("POGO_BLESS").is_some() {
        std::fs::write(&golden_path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with POGO_BLESS=1 to create it",
            golden_path.display()
        )
    });
    assert!(
        got == want,
        "the bundle's deploy-gate findings drifted from {}:\n{got}",
        golden_path.display()
    );
}

#[test]
fn dump_cfg_reports_compile_errors() {
    let dir = std::env::temp_dir().join("pogo-dump-cfg-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.js");
    std::fs::write(&bad, "var x = ;").expect("write fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_pogo-lint"))
        .arg("--dump-cfg")
        .arg(&bad)
        .output()
        .expect("pogo-lint runs");
    assert_eq!(out.status.code(), Some(1), "compile errors exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(";; compile error:"), "stdout: {text}");
}
