//! simlint performance snapshot: full-workspace analysis throughput and
//! peak RSS, as one JSON document. Simulator throughput lives in
//! `bench_sim` (BENCH_sim.json), which times the paper scenario.
//!
//! Prints `BENCH_simlint.json` to stdout; CI regenerates the checked-in
//! copy on every run:
//!
//! ```text
//! cargo run -p bench --bin perf_snapshot --release > BENCH_simlint.json
//! ```
//!
//! Timings are machine-dependent, so the snapshot is a reference point and
//! a regression-hunting aid, **not** a byte-compared artifact (unlike the
//! results tables). The workload is pinned — a full-workspace simlint pass
//! against the checked-in baseline — so numbers are comparable across
//! commits on the same machine.

use std::time::Instant;
use xtask::baseline::Baseline;
use xtask::lint;

/// Peak resident set size of this process, from `/proc/self/status`
/// (`VmHWM`, reported in KiB). `None` off Linux.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn workspace_root() -> std::path::PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        assert!(dir.pop(), "run from inside the workspace");
    }
}

fn main() {
    let root = workspace_root();
    let files = lint::workspace_source_files(&root);
    let baseline = Baseline::load(&root.join("results/simlint_baseline.json")).unwrap_or_default();
    let t1 = Instant::now();
    let report = lint::run_with_baseline(&root, &files, &baseline);
    let lint_elapsed = t1.elapsed().as_secs_f64();
    let lint_lines: usize = files
        .iter()
        .filter_map(|p| std::fs::read_to_string(root.join(p)).ok())
        .map(|t| t.lines().count())
        .sum();

    let rss = peak_rss_bytes()
        .map(|b| b.to_string())
        .unwrap_or_else(|| "null".to_string());

    println!("{{");
    println!("  \"schema_version\": 2,");
    println!("  \"bench\": \"simlint\",");
    println!(
        "  \"note\": \"timings are machine-dependent; regenerated by CI, not byte-compared\","
    );
    println!("  \"lint\": {{");
    println!("    \"files_checked\": {},", report.files_checked);
    println!("    \"lines\": {lint_lines},");
    println!("    \"findings\": {},", report.violations.len());
    println!("    \"new_findings\": {},", report.new_findings().count());
    println!("    \"elapsed_s\": {lint_elapsed:.3},");
    println!(
        "    \"files_per_sec\": {:.0},",
        report.files_checked as f64 / lint_elapsed
    );
    println!(
        "    \"lines_per_sec\": {:.0}",
        lint_lines as f64 / lint_elapsed
    );
    println!("  }},");
    println!("  \"peak_rss_bytes\": {rss}");
    println!("}}");
}
