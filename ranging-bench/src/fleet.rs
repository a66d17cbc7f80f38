//! `roam` and `tdoa`: multi-AP `FleetEngine` windows.
//!
//! Closed loop over 250 ms windows: before each window the benchmark
//! moves every walker along its trajectory (`chronos_bench::fleet::
//! walker_at`), then one step is one `FleetEngine::run_window` call
//! with the run's seed, which draws every RNG stream of the fleet. The
//! trajectories are fixed: with seed-chosen walkers the share of cold
//! ACQUIRE fixes, whose errors are metres where TRACK fixes' are
//! millimetres, moved the error percentiles by 20-30% between seeds.
//!
//! Widths are pinned: two threads in total (`ServiceConfig::threads = 2`,
//! one pool worker plus the calling thread, which helps), whatever the
//! host's core count.
//!
//! - `roam`: round-trip ranging, 4 APs, 8 walkers. A fix is one shard
//!   outcome carrying a position.
//! - `tdoa`: one-way TDoA ranging, 16 APs, 300 walkers. A fix is one
//!   solved blast.
//!
//! A run is a sequence of identical episodes: each builds a fresh fleet
//! (the set-up, timed as `setup_s`) and runs the same windows, which must
//! reproduce the first episode's reports bit for bit. Episodes are short
//! so that a run holds many: a step's time is its fastest replay, and
//! load from other tenants of a shared host comes and goes over tens of
//! seconds. A `roam` episode of 32 walkers over 32 windows took about
//! 12 s on a 2-core host, a run held three, and its timings spread by
//! 30% between runs; 8 walkers over 12 windows take about 2 s. Each of
//! 8 walkers is swept often enough to leave ACQUIRE within the first
//! windows, so the cold ACQUIRE fixes stay out of the 90th percentile
//! error. `tdoa` runs 20 windows, about 1.5 s.

use crate::{mean, median, Digest, Outcome, RunCfg, Step};
use chronos_bench::fleet::{fleet_chronos, walker_at, AP_SPACING_M, FLEET_APS};
use chronos_core::fleet::{FleetConfig, FleetEngine, FleetRangingMode, FleetWindowReport};
use chronos_core::tracker::{TrackMode, TrackerConfig};
use chronos_link::time::Duration;
use chronos_rf::environment::Environment;
use chronos_rf::geometry::Point;
use chronos_rf::testbed::ap_grid;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Roam,
    Tdoa,
}

/// Threads a fleet run uses in total: the pool's workers plus the
/// calling thread, which helps run the shards.
const THREADS: usize = 2;

/// Simulated window length, seconds.
const WINDOW_S: f64 = 0.25;

#[derive(Debug, Clone, Copy)]
struct Sizes {
    aps: usize,
    walkers: usize,
    /// Windows per episode.
    windows: usize,
}

fn sizes(mode: Mode, smoke: bool) -> Sizes {
    match (mode, smoke) {
        (Mode::Roam, false) => Sizes {
            aps: 4,
            walkers: 8,
            windows: 12,
        },
        (Mode::Tdoa, false) => Sizes {
            aps: 16,
            walkers: 300,
            windows: 20,
        },
        (Mode::Roam, true) => Sizes {
            aps: 4,
            walkers: 4,
            windows: 3,
        },
        (Mode::Tdoa, true) => Sizes {
            aps: 4,
            walkers: 20,
            windows: 4,
        },
    }
}

/// The walker trajectories: `walker_at`'s bounce paths, scaled from its
/// 16-AP grid onto the fleet's own grid so every walker stays among the
/// APs.
struct Walkers {
    n: usize,
    scale: f64,
}

impl Walkers {
    fn new(n: usize, aps: usize) -> Self {
        let extent = |aps: usize| ((aps as f64).sqrt().ceil() - 1.0) * AP_SPACING_M;
        Walkers {
            n,
            scale: extent(aps) / extent(FLEET_APS),
        }
    }

    fn at(&self, i: usize, window: usize) -> Point {
        let p = walker_at(i, window, WINDOW_S);
        Point::new(p.x * self.scale, p.y * self.scale)
    }
}

/// Set-up: builds the fleet, places the walkers and warms the plans.
fn build(mode: Mode, sizes: Sizes, walkers: &Walkers) -> FleetEngine {
    let ranging = match mode {
        Mode::Roam => FleetRangingMode::RoundTrip,
        Mode::Tdoa => FleetRangingMode::Tdoa,
    };
    let mut cfg = FleetConfig::position(TrackerConfig::default(), ranging);
    cfg.chronos = fleet_chronos();
    cfg.service.threads = THREADS;
    cfg.workers = Some(THREADS - 1);
    let mut fleet = FleetEngine::new(
        cfg,
        Environment::free_space(),
        ap_grid(sizes.aps, AP_SPACING_M),
    );
    for i in 0..walkers.n {
        fleet.add_client(walkers.at(i, 0));
    }
    fleet.prewarm_plans();
    fleet
}

/// Folds the deterministic content of a window report (wall clock and
/// cache-hit counts excluded).
fn fold(d: &mut Digest, r: &FleetWindowReport) {
    d.put(r.started.as_nanos());
    d.put(r.ended.as_nanos());
    d.put(r.handoffs as u64);
    d.put(r.handoff_gap_sweeps as u64);
    d.put(r.sync_rounds as u64);
    for sr in &r.shard_reports {
        d.put(sr.utilization.to_bits());
        d.put(sr.bands_planned as u64);
        for o in &sr.outcomes {
            d.put(o.client as u64);
            d.put(o.sweep);
            d.put(o.finished.as_nanos());
            d.put(o.distance_m.unwrap_or(f64::NAN).to_bits());
            d.put(o.pos_error_m.unwrap_or(f64::NAN).to_bits());
        }
    }
    for o in &r.tdoa_outcomes {
        d.put(o.client as u64);
        d.put(o.blast);
        d.put(o.at.as_nanos());
        d.put(o.pos_error_m.unwrap_or(f64::NAN).to_bits());
    }
}

fn attempted(r: &FleetWindowReport) -> usize {
    r.shard_reports
        .iter()
        .map(|s| s.outcomes.len())
        .sum::<usize>()
        + r.tdoa_outcomes.len()
}

/// Every delivered fix and its error are finite.
fn finite(r: &FleetWindowReport) -> bool {
    let rt = r
        .shard_reports
        .iter()
        .flat_map(|s| &s.outcomes)
        .filter_map(|o| o.position)
        .all(|p| p.x.is_finite() && p.y.is_finite());
    let td = r
        .tdoa_outcomes
        .iter()
        .filter_map(|o| o.fix)
        .all(|p| p.x.is_finite() && p.y.is_finite());
    rt && td && r.pos_errors_m().iter().all(|e| e.is_finite())
}

/// One episode's reports and runtime counters.
struct Episode {
    reports: Vec<FleetWindowReport>,
    digest: u64,
    batches: u64,
    /// Worker allocations after the first window.
    worker_allocs: u64,
}

/// Runs one episode's windows on a freshly built fleet, timing each
/// `run_window` call into `steps`. Each window is a step span holding
/// the walker moves and the window (recorded when `tr` is on).
fn episode(
    fleet: &mut FleetEngine,
    sizes: Sizes,
    walkers: &Walkers,
    seed: u64,
    steps: &mut Vec<Step>,
    tr: &mut crate::trace::Tracer,
) -> Episode {
    let runtime = fleet.runtime().cloned();
    let batches0 = runtime.as_ref().map_or(0, |rt| rt.batches_run());
    let mut allocs_warm = 0;
    let mut reports = Vec::with_capacity(sizes.windows);
    let mut digest = Digest::default();
    for w in 0..sizes.windows {
        tr.set_step(steps.len() as u64);
        let (r, wall_s, cpu_s) = tr.span("step", |tr| {
            tr.span("fleet.set_client_pos", |_| {
                for i in 0..walkers.n {
                    fleet.set_client_pos(i, walkers.at(i, w));
                }
            });
            let c0 = crate::sys::process_cpu_s();
            let t0 = Instant::now();
            let r = tr.span("fleet.run_window", |_| {
                fleet.run_window(seed, Duration::from_secs_f64(WINDOW_S))
            });
            (
                r,
                t0.elapsed().as_secs_f64(),
                crate::sys::process_cpu_s() - c0,
            )
        });
        if w == 0 {
            allocs_warm = runtime.as_ref().map_or(0, |rt| rt.worker_allocations());
        }
        fold(&mut digest, &r);
        steps.push(Step {
            wall_s,
            cpu_s,
            fixes: r.fixes(),
            attempted: attempted(&r),
            ok: finite(&r),
        });
        reports.push(r);
    }
    Episode {
        reports,
        digest: digest.finish(),
        batches: runtime.as_ref().map_or(0, |rt| rt.batches_run()) - batches0,
        worker_allocs: runtime
            .as_ref()
            .map_or(0, |rt| rt.worker_allocations())
            .saturating_sub(allocs_warm),
    }
}

/// Runs the workload: episodes until the time is up and, with
/// `--trace 1`, the same number of traced episodes.
pub fn run(mode: Mode, cfg: &RunCfg) -> Outcome {
    let sizes = sizes(mode, cfg.smoke);
    let walkers = Walkers::new(sizes.walkers, sizes.aps);
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut out = Outcome::new(Vec::new());
    out.pass_len = sizes.windows;
    let mut off = crate::trace::Tracer::new(false);
    let mut digests = Vec::new();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let mut fleet = build(mode, sizes, &walkers);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let ep = episode(
            &mut fleet,
            sizes,
            &walkers,
            cfg.seed,
            &mut out.steps,
            &mut off,
        );
        if digests.is_empty() {
            out.errors_m = ep.reports.iter().flat_map(|r| r.pos_errors_m()).collect();
        }
        digests.push(ep.digest);
        if cfg.smoke || crate::out_of_time(started, t0, budget) {
            break;
        }
    }
    out.digest = digests[0];
    out.check(
        "every episode replays the first bit for bit",
        digests.iter().all(|d| *d == digests[0]),
    );
    out.note(format!(
        "sizes: aps={} walkers={} windows_per_episode={} window_ms={} episodes={} threads={THREADS} (pool workers {})",
        sizes.aps,
        sizes.walkers,
        sizes.windows,
        WINDOW_S * 1e3,
        digests.len(),
        THREADS - 1,
    ));
    if cfg.trace {
        traced(mode, cfg, sizes, &walkers, &digests, &mut out);
    }
    out
}

/// The traced run: the same episodes under spans, then the per-layer
/// metrics from the spans and the window reports.
fn traced(
    mode: Mode,
    cfg: &RunCfg,
    sizes: Sizes,
    walkers: &Walkers,
    untraced: &[u64],
    out: &mut Outcome,
) {
    let mut tr = crate::trace::Tracer::new(true);
    let mut steps = Vec::new();
    let mut same = true;
    let mut all = Vec::new();
    let (mut batches, mut worker_allocs) = (0, 0);
    for (k, want) in untraced.iter().enumerate() {
        let mut fleet = build(mode, sizes, walkers);
        let ep = episode(&mut fleet, sizes, walkers, cfg.seed, &mut steps, &mut tr);
        same &= ep.digest == *want;
        if k == 0 {
            (batches, worker_allocs) = (ep.batches, ep.worker_allocs);
        }
        all.extend(ep.reports);
    }
    out.check(
        "traced episodes reproduce the untraced reports bit for bit",
        same,
    );

    // Timings over every traced window; counts over one episode, which
    // every episode repeats exactly.
    let window_ms = tr.per_step_ms("fleet.run_window");
    let shard_ms: Vec<Vec<f64>> = all
        .iter()
        .map(|r| {
            r.shard_reports
                .iter()
                .map(|s| s.wall.as_secs_f64() * 1e3)
                .collect()
        })
        .collect();
    let max_ms: Vec<f64> = shard_ms
        .iter()
        .map(|s| s.iter().copied().fold(0.0, f64::max))
        .collect();
    let reports = &all[..sizes.windows];
    let outcomes = || {
        reports
            .iter()
            .flat_map(|r| &r.shard_reports)
            .flat_map(|s| &s.outcomes)
    };
    let shards = || reports.iter().flat_map(|r| &r.shard_reports);
    let anchors: Vec<f64> = reports
        .iter()
        .flat_map(|r| &r.tdoa_outcomes)
        .map(|o| o.n_anchors as f64)
        .collect();
    out.layer("fleet.window_ms", median(&window_ms));
    out.layer(
        "engine.shard_ms_sum",
        median(
            &shard_ms
                .iter()
                .map(|s| s.iter().sum())
                .collect::<Vec<f64>>(),
        ),
    );
    out.layer("engine.shard_ms_max", median(&max_ms));
    out.layer(
        "engine.shard_skew",
        median(
            &shard_ms
                .iter()
                .zip(&max_ms)
                .filter(|(s, _)| mean(s) > 0.0)
                .map(|(s, max)| max / mean(s))
                .collect::<Vec<f64>>(),
        ),
    );
    out.layer(
        "fleet.non_shard_ms",
        median(
            &window_ms
                .iter()
                .zip(&max_ms)
                .map(|(w, m)| w - m)
                .collect::<Vec<f64>>(),
        ),
    );
    let count = |m: TrackMode| outcomes().filter(|o| o.mode == m).count() as f64;
    out.layer("engine.sweeps_acquire", count(TrackMode::Acquire));
    out.layer("engine.sweeps_track", count(TrackMode::Track));
    out.layer(
        "engine.bands_planned",
        shards().map(|s| s.bands_planned).sum::<usize>() as f64,
    );
    out.layer(
        "engine.utilization",
        mean(&shards().map(|s| s.utilization).collect::<Vec<f64>>()),
    );
    out.layer(
        "fleet.handoffs",
        reports.iter().map(|r| r.handoffs).sum::<usize>() as f64,
    );
    out.layer(
        "fleet.handoff_gap_sweeps",
        reports.iter().map(|r| r.handoff_gap_sweeps).sum::<usize>() as f64,
    );
    out.layer(
        "fleet.sync_rounds",
        reports.iter().map(|r| r.sync_rounds).sum::<usize>() as f64,
    );
    out.layer("tdoa.blasts", anchors.len() as f64);
    out.layer("tdoa.anchors_mean", mean(&anchors));
    out.layer(
        "plan.misses",
        reports
            .last()
            .and_then(|r| r.shard_reports.first())
            .map_or(0.0, |s| s.cache.misses as f64),
    );
    for (mode, name) in [
        (TrackMode::Acquire, "tracker.acquire_err_m_p50"),
        (TrackMode::Track, "tracker.track_err_m_p50"),
    ] {
        let errs: Vec<f64> = outcomes()
            .filter(|o| o.mode == mode)
            .filter_map(|o| o.pos_error_m)
            .collect();
        out.layer(name, median(&errs));
    }
    out.layer("runtime.batches", batches as f64);
    out.layer("runtime.worker_allocs", worker_allocs as f64);
    out.layer(
        "trace.overhead_pct",
        crate::overhead_pct(&out.steps, &steps, sizes.windows),
    );
    out.tracer = Some(tr);
}
