//! `--update-baseline` end to end: the ratchet may only shrink.
//!
//! Each test builds a throwaway workspace (a `[workspace]` manifest, one
//! sim-crate source with `assert!` findings, a baseline file) and runs the
//! real `xtask` binary in it.

use std::path::{Path, PathBuf};
use std::process::Command;

const SOURCE: &str = "crates/netsim/src/lib.rs";
const BASELINE: &str = "simlint_baseline.json";

/// A fresh workspace whose source has `asserts` panic-surface findings and
/// whose baseline tolerates `tolerated` of them.
fn workspace(name: &str, asserts: usize, tolerated: usize) -> PathBuf {
    let root = std::env::temp_dir().join(format!("simlint-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/netsim/src")).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
    let body: String = (0..asserts)
        .map(|i| format!("    assert!(x > {i});\n"))
        .collect();
    std::fs::write(
        root.join(SOURCE),
        format!("pub fn f(x: u32) {{\n{body}}}\n"),
    )
    .unwrap();
    std::fs::write(root.join(BASELINE), baseline_json(tolerated)).unwrap();
    root
}

fn baseline_json(count: usize) -> String {
    let mut b = xtask::baseline::Baseline::default();
    b.entries
        .insert(("panic-surface".to_string(), SOURCE.to_string()), count);
    b.to_json()
}

fn update(root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["simlint", "--update-baseline", BASELINE, SOURCE])
        .current_dir(root)
        .output()
        .unwrap()
}

#[test]
fn update_refuses_to_raise_a_count() {
    let root = workspace("raise", 3, 2);
    let out = update(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("would rise from 2 to 3"),
        "stderr: {stderr}"
    );
    let kept = std::fs::read_to_string(root.join(BASELINE)).unwrap();
    assert_eq!(
        kept,
        baseline_json(2),
        "a refused update must write nothing"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn update_shrinks_a_count() {
    let root = workspace("shrink", 1, 2);
    let out = update(&root);
    // The lint itself still fails (without `--baseline` the finding is
    // new); the update is what is under test.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote 1 entries"), "stdout: {stdout}");
    let written = std::fs::read_to_string(root.join(BASELINE)).unwrap();
    assert_eq!(written, baseline_json(1));
    let _ = std::fs::remove_dir_all(&root);
}
