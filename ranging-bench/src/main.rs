//! End-to-end and per-layer benchmark of the Chronos ranging service.
//!
//! ```text
//! ranging-bench --workload <acquire|roam|tdoa> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Drives the public API from one process over one of three closed-loop
//! workloads (see `README.md` beside this package). With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it runs the same
//! jobs once untraced and once under spans, and prints the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A step is one call
//! into the workload's top-level public function; `attempted` counts
//! steps and `failed` the steps whose output failed a check.

mod acquire;
mod fleet;
mod sys;
mod trace;

use chronos_bench::alloc_count::CountingAlloc;
use std::fmt::Write as _;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes and a single pass, for the smoke test.
    pub smoke: bool,
}

/// One timed step.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Fixes delivered by the step.
    pub fixes: usize,
    /// Fixes the step attempted.
    pub attempted: usize,
    /// Whether every delivered fix was finite.
    pub ok: bool,
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Timed steps in order: whole passes of `pass_len` steps, every
    /// pass replaying the same jobs.
    pub steps: Vec<Step>,
    pub pass_len: usize,
    /// Absolute errors of the fixes of one deterministic pass, meters.
    pub errors_m: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// FNV-1a digest of one pass's deterministic outputs.
    pub digest: u64,
    pub checks: Vec<(&'static str, bool)>,
    pub notes: Vec<String>,
    pub layers: Vec<(String, f64)>,
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    pub fn new(setup_s: Vec<f64>) -> Self {
        Outcome {
            steps: Vec::new(),
            pass_len: 0,
            errors_m: Vec::new(),
            setup_s,
            digest: 0,
            checks: Vec::new(),
            notes: Vec::new(),
            layers: Vec::new(),
            tracer: None,
        }
    }

    pub fn check(&mut self, what: &'static str, ok: bool) {
        self.checks.push((what, ok));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn put(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Derives an independent seed from `(seed, tag, index)` (SplitMix64).
pub fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Nearest-rank percentile, `q` in (0, 1]; NaN for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// Whether another pass as long as the one started at `pass_started`
/// would overrun `budget` seconds counted from `started`.
pub fn out_of_time(
    started: std::time::Instant,
    pass_started: std::time::Instant,
    budget: f64,
) -> bool {
    started.elapsed().as_secs_f64() + pass_started.elapsed().as_secs_f64() > budget
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Every per-layer metric any workload reports, with its unit. A run
/// reports all of them; a metric of a layer its workload does not reach
/// or observe reads 0 (the layer→workload map is in `README.md`).
const LAYER_METRICS: [(&str, &str); 38] = [
    ("link.sweep_ms", "ms"),
    ("link.frames", "count"),
    ("link.frames_lost", "count"),
    ("rf.csi_ms", "ms"),
    ("rf.captures", "count"),
    ("core.products_ms", "ms"),
    ("tof.estimate_ms", "ms"),
    ("tof.select_ms", "ms"),
    ("loc.locate_ms", "ms"),
    ("ista.fista_ms.g5ghz", "ms"),
    ("ista.fista_ms.g24ghz", "ms"),
    ("ista.iters.g5ghz", "count"),
    ("ista.iters.g24ghz", "count"),
    ("ista.support.g5ghz", "count"),
    ("ista.support.g24ghz", "count"),
    ("ista.cap_hits", "count"),
    ("ista.debias_ms", "ms"),
    ("ista.fista_share_pct", "%"),
    ("fleet.window_ms", "ms"),
    ("fleet.non_shard_ms", "ms"),
    ("fleet.handoffs", "count"),
    ("fleet.handoff_gap_sweeps", "count"),
    ("fleet.sync_rounds", "count"),
    ("engine.shard_ms_sum", "ms"),
    ("engine.shard_ms_max", "ms"),
    ("engine.shard_skew", "ratio"),
    ("engine.sweeps_acquire", "count"),
    ("engine.sweeps_track", "count"),
    ("engine.bands_planned", "count"),
    ("engine.utilization", "ratio"),
    ("tracker.acquire_err_m_p50", "m"),
    ("tracker.track_err_m_p50", "m"),
    ("tdoa.blasts", "count"),
    ("tdoa.anchors_mean", "count"),
    ("plan.misses", "count"),
    ("runtime.batches", "count"),
    ("runtime.worker_allocs", "count"),
    ("trace.overhead_pct", "%"),
];

fn parse_args() -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() {
    let (workload, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ranging-bench: {e}");
            std::process::exit(2);
        }
    };
    chronos_core::runtime::set_alloc_probe(chronos_bench::alloc_count::thread_allocations);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tier = if chronos_core::simd_enabled() {
        "simd"
    } else {
        "scalar"
    };
    println!(
        "# ranging-bench workload={workload} seed={} seconds={} trace={} host_cores={host_cores} tier={tier}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let mut out = match workload.as_str() {
        "acquire" => acquire::run(&cfg),
        "roam" => fleet::run(fleet::Mode::Roam, &cfg),
        "tdoa" => fleet::run(fleet::Mode::Tdoa, &cfg),
        other => {
            eprintln!("ranging-bench: unknown workload {other} (acquire, roam, tdoa)");
            std::process::exit(2);
        }
    };
    for n in &out.notes {
        println!("# {n}");
    }
    let failed = out.steps.iter().filter(|s| !s.ok).count();
    out.check("every delivered fix is finite", failed == 0);
    out.check(
        "at least one fix delivered",
        out.steps.iter().any(|s| s.fixes > 0),
    );

    let metrics = if cfg.trace {
        layer_metrics(&workload, &cfg, &out)
    } else {
        end_to_end(&out)
    };
    out.check(
        "every metric is a finite number",
        metrics.iter().all(|(_, v, _, _)| v.is_finite()),
    );
    println!("# digest=0x{:016x}", out.digest);
    for (what, ok) in &out.checks {
        println!("# check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    let correct = out.checks.iter().all(|(_, ok)| *ok);
    let mut json = String::new();
    for (i, (name, value, unit, _)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN; the failed check above already marks the run.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        out.steps.len()
    );
}

type Metric = (String, f64, &'static str, String);

/// Each job's fastest replay: the run replays the same pass of jobs,
/// and contention from other tenants of the host only ever slows a
/// step, so the minimum over replays is the steadiest estimate of a
/// job's cost.
pub fn fastest_replays(steps: &[Step], pass_len: usize) -> Vec<Step> {
    (0..pass_len)
        .map(|j| {
            steps[j..]
                .iter()
                .step_by(pass_len)
                .copied()
                .reduce(|a, b| Step {
                    wall_s: a.wall_s.min(b.wall_s),
                    cpu_s: a.cpu_s.min(b.cpu_s),
                    ..a
                })
                .expect("at least one pass")
        })
        .collect()
}

/// Tracing overhead: the median fastest-replay step time of the traced
/// run against the untraced one, percent.
pub fn overhead_pct(untraced: &[Step], traced: &[Step], pass_len: usize) -> f64 {
    let median_ms = |steps: &[Step]| {
        let best = fastest_replays(steps, pass_len);
        median(&best.iter().map(|s| s.wall_s).collect::<Vec<f64>>())
    };
    100.0 * (median_ms(traced) / median_ms(untraced) - 1.0)
}

/// The end-to-end metrics, printed as a table with sample counts.
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let passes = out.steps.len() / out.pass_len;
    let best = fastest_replays(&out.steps, out.pass_len);
    let wall: f64 = best.iter().map(|s| s.wall_s).sum();
    let cpu: f64 = best.iter().map(|s| s.cpu_s).sum();
    let fixes: usize = best.iter().map(|s| s.fixes).sum();
    let attempted: usize = best.iter().map(|s| s.attempted).sum();
    let step_ms: Vec<f64> = best.iter().map(|s| s.wall_s * 1e3).collect();
    let n_steps = format!(
        "n={} steps, fastest of {passes} replays each",
        step_ms.len()
    );
    let n_fixes = format!("n={fixes} fixes per pass");
    let n_err = format!("n={} fixes, one pass", out.errors_m.len());
    let metrics: Vec<Metric> = vec![
        (
            "fixes_per_s".into(),
            fixes as f64 / wall,
            "1/s",
            format!("{n_fixes} over {wall:.3} s of fastest replays"),
        ),
        (
            "step_ms_p50".into(),
            median(&step_ms),
            "ms",
            n_steps.clone(),
        ),
        (
            "step_ms_p90".into(),
            percentile(&step_ms, 0.9),
            "ms",
            n_steps,
        ),
        (
            "cpu_ms_per_fix".into(),
            cpu * 1e3 / fixes as f64,
            "ms",
            n_fixes,
        ),
        (
            "fix_yield".into(),
            fixes as f64 / attempted as f64,
            "ratio",
            format!(
                "{fixes} of {attempted} attempted (fail_rate {:.4})",
                1.0 - fixes as f64 / attempted as f64
            ),
        ),
        (
            "err_m_p50".into(),
            median(&out.errors_m),
            "m",
            n_err.clone(),
        ),
        (
            "err_m_p90".into(),
            percentile(&out.errors_m, 0.9),
            "m",
            n_err,
        ),
        (
            "setup_s".into(),
            median(&out.setup_s),
            "s",
            format!("median of n={} set-ups", out.setup_s.len()),
        ),
        (
            "peak_rss_mb".into(),
            sys::peak_rss_mb(),
            "MB",
            "whole process".into(),
        ),
    ];
    print_table(&metrics);
    metrics
}

/// The per-layer metrics: every name of [`LAYER_METRICS`], 0 where the
/// workload does not reach the layer. Also writes the spans.
fn layer_metrics(workload: &str, cfg: &RunCfg, out: &Outcome) -> Vec<Metric> {
    if let Some(tr) = &out.tracer {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{workload}-seed{}.tsv", cfg.seed));
        match tr.write_tsv(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written ({}): {e}", path.display()),
        }
    }
    let metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|(name, unit)| {
            match out.layers.iter().find(|(n, _)| n == name) {
                Some((_, v)) if v.is_finite() => (name.to_string(), *v, *unit, "measured".into()),
                // A layer this run never reached, or a median over no samples.
                _ => (name.to_string(), 0.0, *unit, "not reached".into()),
            }
        })
        .collect();
    for (name, _) in &out.layers {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| n == name),
            "per-layer metric {name} missing from LAYER_METRICS"
        );
    }
    print_table(&metrics);
    metrics
}

fn print_table(metrics: &[Metric]) {
    for (name, value, unit, samples) in metrics {
        println!("# {name:<26} {value:>14.6} {unit:<6} {samples}");
    }
}
