//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-sweep|population|failover-branch> --seed <n>
//!           --seconds <s> --trace <0|1> --workdir <dir>
//! ```
//!
//! One process runs one workload; `--workdir` is scratch space for its run
//! stores. Then:
//!
//! * `--trace 0` repeats timed passes of the workload for at least
//!   `--seconds`, timing the set-up between them, and reports the
//!   end-to-end metrics: set-up time, the median pass wall time, per-job
//!   median and tail, the process's peak RSS, and the share of correctness
//!   checks that passed;
//! * `--trace 1` alternates an untraced pass with a traced pass (agents
//!   wrapped in timers, simulators rebuilt from public APIs, collect
//!   stages timed one by one) and reports the per-layer metrics. Every
//!   traced cell must reproduce its untraced trace hash.
//!
//! The last line of standard output is one JSON object: the check counts,
//! the metrics, and `pins` — the run's deterministic counts and trace
//! hashes, which `run.py` compares against `pins.json`.

mod failover;
mod layers;
mod paper_sweep;
mod population;
mod probe;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The set-up is timed in batches, one before the first simulation and
/// one after every timed pass; each batch repeats it at least
/// `SETUP_REPS` times and for at least `SETUP_MIN_S` seconds. `setup_s` is
/// the mean of the batch medians. Set-up times flip between a fast and a
/// slow mode about 40 % apart, for seconds at a time, so batches spread
/// over the whole run average those phases as the pass medians do.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 0.02;
/// Fewest timed passes per process, however long `--seconds` is.
const MIN_PASSES: usize = 3;
/// Fewest pooled job samples per process: enough that the tail (the
/// `TAIL_BEYOND + 1`-th largest) lies above the median.
const MIN_JOBS: usize = 2 * stats::TAIL_BEYOND + 2;

/// End-to-end metrics: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "frac"),
];

/// Per-layer metrics: (name, unit, exact). Exact metrics are
/// deterministic counts of simulated work: they repeat bit for bit across
/// traced runs of the same seed, and a change that only makes the
/// simulator faster must leave them unchanged.
const PER_LAYER: &[(&str, &str, bool)] = &[
    ("netsim.engine_self_s", "s", false),
    ("netsim.ns_per_event", "ns", false),
    ("simbase.events", "count", true),
    ("simbase.events_scheduled", "count", true),
    ("simbase.dead_event_frac", "frac", true),
    ("netsim.hops", "count", true),
    ("netsim.ns_per_hop", "ns", false),
    ("netsim.packets_sent", "count", true),
    ("netsim.drop_frac", "frac", true),
    ("netsim.max_queue_pkts", "count", true),
    ("netsim.bottleneck_busy_frac", "frac", true),
    ("netsim.capture_records", "count", true),
    ("netsim.capture_mb", "MB", true),
    ("netsim.checkpoint_ms", "ms", false),
    ("netsim.restore_ms", "ms", false),
    ("mptcpsim.sender_calls", "count", true),
    ("mptcpsim.sender_self_s", "s", false),
    ("mptcpsim.sender_ns_per_call", "ns", false),
    ("mptcpsim.receiver_calls", "count", true),
    ("mptcpsim.receiver_self_s", "s", false),
    ("mptcpsim.receiver_ns_per_call", "ns", false),
    ("tcpsim.segments_sent", "count", true),
    ("tcpsim.retransmits", "count", true),
    ("tcpsim.retx_frac", "frac", true),
    ("tcpsim.rtos", "count", true),
    ("tcpsim.loss_events", "count", true),
    ("mptcpsim.dup_bytes_frac", "frac", true),
    ("mptcpsim.lp_efficiency", "frac", true),
    ("mptcpsim.rss_kb_per_conn", "kB", false),
    ("simtrace.hash_ns_per_record", "ns", false),
    ("simtrace.check_ns_per_record", "ns", false),
    ("simtrace.sample_ns_per_record", "ns", false),
    ("simtrace.collect_s", "s", false),
    ("lpsolve.solves", "count", true),
    ("lpsolve.cache_hits", "count", true),
    ("lpsolve.solve_us", "us", false),
    ("core.runner.busy_s", "s", false),
    ("core.runner.idle_frac", "frac", false),
    ("core.checkpoint_s", "s", false),
    ("core.branch_s", "s", false),
    ("core.prefix_reuse", "ratio", false),
    ("core.store.put_us", "us", false),
    ("core.store.get_us", "us", false),
    ("core.store.bytes_per_record", "B", true),
    ("core.store.hits", "count", true),
    ("core.store.misses", "count", true),
    ("worldgen.traffic_generate_ms", "ms", false),
    ("worldgen.fattree_build_ms", "ms", false),
    ("worldgen.connections", "count", true),
    ("trace.overhead_frac", "frac", false),
    ("failed_frac", "frac", false),
];

/// Reported metrics: (name, unit, value).
type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Per-layer values of one pass, keyed by [`PER_LAYER`] name. Names a
/// workload does not exercise are reported as 0.
pub type Layer = BTreeMap<&'static str, f64>;

/// Correctness checks: every one that runs is counted.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Count one check; on failure, say why on stderr.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", why());
        }
    }
}

/// What one untraced pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the pass, seconds.
    pub wall_s: f64,
    /// Wall time of each job (sweep cell, worldgen cell or branch).
    pub job_s: Vec<f64>,
    /// Trace hash of each job, in job order.
    pub hashes: Vec<u64>,
    /// Deterministic counts and hashes, compared across passes and
    /// against `pins.json`.
    pub pins: BTreeMap<String, String>,
    /// Per-layer values the untraced pass measures itself.
    pub layer: Layer,
}

impl Pass {
    fn new(wall_s: f64) -> Pass {
        Pass {
            wall_s,
            ..Pass::default()
        }
    }

    fn pin(&mut self, key: impl Into<String>, value: impl ToString) {
        self.pins.insert(key.into(), value.to_string());
    }
}

/// One benchmark workload, already set up.
pub trait Workload {
    /// Untimed preparation of correctness references.
    fn prepare(&mut self) {}
    /// One timed pass.
    fn pass(&mut self, checks: &mut Checks) -> Pass;
    /// One traced pass, checked against the untraced `reference`.
    fn traced(&mut self, reference: &Pass, checks: &mut Checks) -> Layer;
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process, kB (`VmHWM`).
fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let k = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?
            .to_string();
        let v = it.next().ok_or_else(|| format!("--{k} needs a value"))?;
        kv.insert(k, v);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing --{k}"));
    let num = |v: String, k: &str| v.parse::<u64>().map_err(|e| format!("--{k} {v}: {e}"));
    let args = Args {
        workload: take("workload")?,
        seed: num(take("seed")?, "seed")?,
        seconds: num(take("seconds")?, "seconds")?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace {t}: expected 0 or 1")),
        },
        workdir: PathBuf::from(take("workdir")?),
    };
    // Workloads derive per-cell seeds by adding small offsets.
    if args.seed > u64::from(u32::MAX) {
        return Err(format!("--seed {}: must fit in 32 bits", args.seed));
    }
    match kv.keys().next() {
        Some(k) => Err(format!("unknown option --{k}")),
        None => Ok(args),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) become 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The end-to-end metrics, and the first pass's pins.
fn timed(
    bench: &mut dyn Workload,
    setup: SetupFn,
    first_setup: f64,
    args: &Args,
    checks: &mut Checks,
) -> (Metrics, BTreeMap<String, String>) {
    let t0 = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    let mut setup_s = vec![first_setup];
    let jobs = |passes: &[Pass]| passes.iter().map(|p| p.job_s.len()).sum::<usize>();
    while passes.len() < MIN_PASSES || jobs(&passes) < MIN_JOBS || t0.elapsed() < budget {
        passes.push(bench.pass(checks));
        setup_s.push(setup_median(setup, args));
    }
    for (k, p) in passes.iter().enumerate().skip(1) {
        checks.check(p.pins == passes[0].pins, || {
            format!("pass {k} did not reproduce pass 0's counts and hashes")
        });
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let jobs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.job_s.iter().copied())
        .collect();
    let wall_s = stats::median(&walls).expect("at least one pass");
    // The median job of each pass, then the median over passes: a pass
    // may hold jobs of different kinds (population runs one traffic and
    // one fabric cell), and a pooled median would fall between them.
    let pass_p50: Vec<f64> = passes
        .iter()
        .filter_map(|p| stats::median(&p.job_s))
        .collect();
    let job_p50 = stats::median(&pass_p50).expect("every pass runs jobs");
    let (job_tail, tail_pct) = stats::tail(&jobs).expect("MIN_JOBS exceeds TAIL_BEYOND");
    let (q1, q3) = stats::quartiles(&walls).unwrap_or((wall_s, wall_s));
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("pass walls, s: {}", listed.join(" "));
    let listed: Vec<String> = setup_s.iter().map(|x| format!("{x:.6}")).collect();
    let setup_mean = setup_s.iter().sum::<f64>() / setup_s.len() as f64;
    println!(
        "set-up batch medians, s: {}; mean {setup_mean:.6}",
        listed.join(" ")
    );
    println!(
        "{}: {} passes in {:.1} s; wall_s median {wall_s:.4} (quartiles {q1:.4}..{q3:.4}); \
         {} jobs: p50 {job_p50:.4} s, tail p{tail_pct:.1} {job_tail:.4} s ({} samples beyond)",
        args.workload,
        passes.len(),
        t0.elapsed().as_secs_f64(),
        jobs.len(),
        stats::TAIL_BEYOND
    );
    let pass_frac = 1.0 - ratio(checks.failed as f64, checks.attempted as f64);
    let values = [
        setup_mean,
        wall_s,
        job_p50,
        job_tail,
        peak_rss_kb() / 1024.0,
        pass_frac,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect();
    (metrics, passes.swap_remove(0).pins)
}

/// The per-layer metrics, and the first untraced pass's pins plus every
/// exact layer count.
fn traced(
    bench: &mut dyn Workload,
    args: &Args,
    checks: &mut Checks,
) -> (Metrics, BTreeMap<String, String>) {
    let t0 = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut layers: Vec<Layer> = Vec::new();
    let mut pins = BTreeMap::new();
    while layers.is_empty() || t0.elapsed() < budget {
        let reference = bench.pass(checks);
        let mut layer = bench.traced(&reference, checks);
        for (k, v) in &reference.layer {
            layer.insert(k, *v);
        }
        for k in layer.keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.0 == *k),
                "unlisted layer metric {k}"
            );
        }
        if pins.is_empty() {
            pins = reference.pins;
        } else {
            checks.check(reference.pins == pins, || {
                "an untraced pass did not reproduce the first one's counts and hashes".into()
            });
        }
        layers.push(layer);
    }
    println!(
        "{}: {} traced passes in {:.1} s (handler times include the Ctx calls agents make into netsim)",
        args.workload,
        layers.len(),
        t0.elapsed().as_secs_f64()
    );
    let mut metrics = Vec::new();
    for &(name, unit, exact) in PER_LAYER {
        let vals: Vec<f64> = layers
            .iter()
            .map(|l| l.get(name).copied().unwrap_or(0.0))
            .collect();
        let value = if exact {
            checks.check(
                vals.iter().all(|v| v.to_bits() == vals[0].to_bits()),
                || format!("exact count {name} differs between traced passes: {vals:?}"),
            );
            pins.insert(format!("layer.{name}"), json_num(vals[0]));
            vals[0]
        } else {
            stats::median(&vals).expect("at least one traced pass")
        };
        metrics.push((name, unit, value));
    }
    let conns = layers[0]
        .get("worldgen.connections")
        .copied()
        .unwrap_or(0.0);
    let failed_frac = ratio(checks.failed as f64, checks.attempted as f64);
    for m in &mut metrics {
        match m.0 {
            "mptcpsim.rss_kb_per_conn" => m.2 = ratio(peak_rss_kb(), conns),
            "failed_frac" => m.2 = failed_frac,
            _ => {}
        }
    }
    (metrics, pins)
}

type SetupFn = fn(u64, &Path) -> Box<dyn Workload>;

/// One batch of set-up timings (see `SETUP_REPS`): the median wall time
/// of a repetition. Each result is dropped before the next is timed.
fn setup_median(setup: SetupFn, args: &Args) -> f64 {
    let mut times = Vec::new();
    let t0 = Instant::now();
    while times.len() < SETUP_REPS || t0.elapsed().as_secs_f64() < SETUP_MIN_S {
        let t = Instant::now();
        let bench = setup(args.seed, &args.workdir);
        times.push(t.elapsed().as_secs_f64());
        drop(bench);
    }
    stats::median(&times).expect("SETUP_REPS > 0")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let setup: SetupFn = match args.workload.as_str() {
        "paper-sweep" => |seed, _| Box::new(paper_sweep::setup(seed)),
        "population" => |seed, _| Box::new(population::setup(seed)),
        "failover-branch" => |seed, dir| Box::new(failover::setup(seed, dir)),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", args.workdir.display());
        std::process::exit(1);
    }
    let first_setup = setup_median(setup, &args);
    let mut bench = setup(args.seed, &args.workdir);
    bench.prepare();
    let mut checks = Checks::default();
    let (metrics, pins) = if args.trace {
        traced(bench.as_mut(), &args, &mut checks)
    } else {
        timed(bench.as_mut(), setup, first_setup, &args, &mut checks)
    };
    drop(bench);

    for (name, unit, value) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    let pins_json: Vec<String> = pins
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {{{}}}, \"pins\": {{{}}}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics_json.join(", "),
        pins_json.join(", ")
    );
}
