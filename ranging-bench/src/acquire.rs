//! `acquire`: full 35-band ACQUIRE sweeps of single device pairs.
//!
//! One thread, closed loop. Intel 5300 mobile→laptop pairs (3 receive
//! antennas) sit at office-testbed placements, half line-of-sight and
//! half not. Each pair is calibrated once at a known 2 m line-of-sight
//! geometry (paper §7 obs. 2) and only then moved to its placement.
//! Every step is one `ChronosSession::sweep_with_pipeline` call over one
//! warm `SweepPipeline` and a shared `PlanCache`; the engine, runtime and
//! fleet are bypassed. A fix is one per-antenna distance estimate.
//!
//! The floor, the placements and the devices are fixed; the seed draws
//! the RNG stream (frame loss, CFO, channel noise) of every timed sweep.
//! Errors at a few centimetres are noise-dominated and NLOS errors fall
//! on a few discrete alias offsets, so a pass sweeps 16 pairs 8 times
//! each to keep the error percentiles steady across seeds.
//!
//! The timed loop replays one deterministic pass of jobs (every pair,
//! `rounds` times, each job with its own seeded RNG stream) until the
//! time is up; every replay must reproduce the first pass bit for bit.

use crate::{mix, Digest, Outcome, RunCfg, Step};
use chronos_core::config::ChronosConfig;
use chronos_core::error::ChronosError;
use chronos_core::ista::{debias_into, solve_planned_into, DebiasScratch, IstaConfig, IstaScratch};
use chronos_core::localization::AntennaRange;
use chronos_core::ndft::TauGrid;
use chronos_core::quirk::group_by_scale;
use chronos_core::reciprocity::BandProduct;
use chronos_core::session::ChronosSession;
use chronos_core::tof::{BandSample, TofEstimate, TofEstimator};
use chronos_core::{PlanCache, SweepPipeline};
use chronos_link::sweep::run_sweep;
use chronos_link::time::Instant as SimInstant;
use chronos_math::Complex64;
use chronos_rf::csi::MeasurementContext;
use chronos_rf::environment::Environment;
use chronos_rf::geometry::Point;
use chronos_rf::hardware::Intel5300;
use chronos_rf::testbed::Testbed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Device pairs, half LOS and half NLOS.
    pairs: usize,
    /// Sweeps per pair in one pass.
    rounds: usize,
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
}

const FULL: Sizes = Sizes {
    pairs: 16,
    rounds: 8,
    setups: 3,
};

const SMOKE: Sizes = Sizes {
    pairs: 2,
    rounds: 1,
    setups: 1,
};

/// Maximum pair distance drawn from the testbed, meters (paper §12).
const MAX_PAIR_M: f64 = 15.0;

/// Seed of the fixed office floor and of the device draws.
const FLOOR_SEED: u64 = 42;

struct Pair {
    session: ChronosSession,
    /// Ground-truth distance of each receive antenna, meters.
    truth_m: Vec<f64>,
}

struct Setup {
    pairs: Vec<Pair>,
    cache: Arc<PlanCache>,
    pipeline: SweepPipeline,
}

/// Picks `n` testbed placements, half LOS and half NLOS, spread over the
/// testbed's pair list.
fn placements(testbed: &Testbed, n: usize) -> Vec<chronos_rf::testbed::TestbedPair> {
    let all = testbed.pairs_within(MAX_PAIR_M);
    let spread = |los: bool, k: usize| -> Vec<_> {
        let class: Vec<_> = all.iter().filter(|p| p.los == los).copied().collect();
        assert!(
            class.len() >= k,
            "testbed has {} {} pairs, need {k}",
            class.len(),
            if los { "LOS" } else { "NLOS" }
        );
        let stride = class.len() as f64 / k as f64;
        (0..k)
            .map(|i| class[(i as f64 * stride) as usize])
            .collect()
    };
    let mut out = spread(true, n - n / 2);
    out.extend(spread(false, n / 2));
    out
}

fn setup(sizes: Sizes) -> Setup {
    let testbed = Testbed::office(FLOOR_SEED);
    let cache = Arc::new(PlanCache::new());
    let pairs = placements(&testbed, sizes.pairs)
        .into_iter()
        .enumerate()
        .map(|(i, placement)| {
            let mut rng = StdRng::seed_from_u64(mix(FLOOR_SEED, 1, i as u64));
            let mut ctx = MeasurementContext::new(
                Environment::free_space(),
                Intel5300::mobile(&mut rng),
                Point::new(0.0, 0.0),
                Intel5300::laptop(&mut rng),
                Point::new(2.0, 0.0),
            );
            ctx.snr.snr_at_1m_db = 50.0;
            let mut session =
                ChronosSession::with_cache(ctx, ChronosConfig::default(), Arc::clone(&cache));
            // Calibrate at the known LOS geometry, then move into the
            // testbed: nothing about the placement leaks into the constant.
            session.calibrate(&mut rng, 2);
            session.ctx.environment = testbed.environment.clone();
            session.ctx.initiator_pos = placement.a;
            session.ctx.responder_pos = placement.b;
            let truth_m = session
                .ctx
                .responder
                .antennas
                .world_positions(placement.b)
                .iter()
                .map(|ant| ant.dist(placement.a))
                .collect();
            Pair { session, truth_m }
        })
        .collect();
    Setup {
        pairs,
        cache,
        pipeline: SweepPipeline::new(),
    }
}

/// Job `j` of a pass: which pair it sweeps, its RNG seed and start time.
fn job(seed: u64, n_pairs: usize, j: usize) -> (usize, u64, SimInstant) {
    let round = (j / n_pairs) as u64;
    (
        j % n_pairs,
        mix(seed, 2, j as u64),
        SimInstant::from_millis(200 * (round + 1)),
    )
}

/// The deterministic content of one sweep: per-antenna distances and
/// the position fix.
struct SweepSummary {
    distances: Vec<Option<f64>>,
    position: Option<Point>,
}

impl SweepSummary {
    fn new(tofs: &[Result<TofEstimate, ChronosError>], position: Option<Point>) -> Self {
        SweepSummary {
            distances: tofs
                .iter()
                .map(|t| t.as_ref().ok().map(|e| e.distance_m))
                .collect(),
            position,
        }
    }

    fn fold(&self, d: &mut Digest) {
        for x in &self.distances {
            d.put(x.unwrap_or(f64::NAN).to_bits());
        }
        let p = self.position.unwrap_or(Point::new(f64::NAN, f64::NAN));
        d.put(p.x.to_bits());
        d.put(p.y.to_bits());
    }

    fn finite(&self) -> bool {
        self.distances.iter().flatten().all(|d| d.is_finite())
            && self
                .position
                .is_none_or(|p| p.x.is_finite() && p.y.is_finite())
    }
}

/// Counts and per-group samples the traced pass collects.
#[derive(Default)]
struct LayerCounts {
    frames: usize,
    frames_lost: usize,
    captures: usize,
    iters: [Vec<f64>; 2],
    support: [Vec<f64>; 2],
    cap_hits: usize,
}

/// The two band groups by delay scale: 2 is the 5 GHz group, 8 the
/// quirk-raised 2.4 GHz group. Metric suffix and FISTA span name.
const GROUPS: [(&str, &str); 2] = [
    ("g5ghz", "ista.fista.g5ghz"),
    ("g24ghz", "ista.fista.g24ghz"),
];

fn group_slot(delay_scale: f64) -> usize {
    usize::from(delay_scale > 4.0)
}

/// `ChronosSession::sweep_with_pipeline` rebuilt from its public parts,
/// with the same RNG draw order, and a span around each layer call.
/// Returns the summary plus each antenna's products for the replay.
fn traced_sweep(
    session: &ChronosSession,
    rng: &mut StdRng,
    t: SimInstant,
    pipeline: &mut SweepPipeline,
    tr: &mut crate::trace::Tracer,
    counts: &mut LayerCounts,
) -> (SweepSummary, Vec<Vec<BandProduct>>) {
    let cfg = &session.sweep_cfg;
    let link = tr.span("link.run_sweep", |_| run_sweep(cfg, t, rng));
    counts.frames += link.frames_sent;
    counts.frames_lost += link.frames_lost;
    let n_rx = session.ctx.responder.antennas.len();
    let plan = &cfg.plan;
    let mut per_antenna: Vec<Vec<BandSample>> = (0..n_rx)
        .map(|_| {
            (0..plan.len())
                .map(|_| BandSample {
                    measurements: Vec::new(),
                })
                .collect()
        })
        .collect();
    let mut exchange_idx = vec![0usize; plan.len()];
    for op in &link.measurements {
        let k = exchange_idx[op.band_index];
        exchange_idx[op.band_index] += 1;
        let antenna = k % n_rx;
        let m = tr.span("rf.measure_pair_at", |_| {
            session.ctx.measure_pair_at(
                rng,
                &plan[op.band_index],
                &session.layout,
                0,
                antenna,
                op.t_forward.as_secs_f64(),
                op.t_reverse.as_secs_f64(),
            )
        });
        counts.captures += 1;
        per_antenna[antenna][op.band_index].measurements.push(m);
    }

    let cache = session
        .plans
        .as_ref()
        .expect("acquire sessions share a plan cache");
    let estimator = TofEstimator::with_cache(session.config.clone(), Arc::clone(cache));
    let mut replay = Vec::with_capacity(n_rx);
    let tofs: Vec<Result<TofEstimate, ChronosError>> = per_antenna
        .iter()
        .map(|bands| {
            let non_empty: Vec<BandSample> = bands
                .iter()
                .filter(|b| !b.measurements.is_empty())
                .cloned()
                .collect();
            if !link.complete && non_empty.len() < 5 {
                return Err(ChronosError::SweepIncomplete {
                    measured: non_empty.len(),
                    planned: plan.len(),
                });
            }
            let products = tr.span("core.products", |_| estimator.products(&non_empty))?;
            let est = tr.span("tof.estimate", |_| {
                pipeline.estimate_from_products(&estimator, &products)
            });
            replay.push(products);
            est
        })
        .collect();

    let antenna_positions = session.ctx.responder.antennas.positions();
    let ranges: Vec<AntennaRange> = tofs
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            r.as_ref().ok().map(|t| AntennaRange {
                antenna: antenna_positions[i],
                distance_m: t.distance_m,
            })
        })
        .collect();
    let mut candidates = Vec::new();
    let position = if ranges.len() >= 2 {
        tr.span("loc.locate_all", |_| {
            pipeline.locate_all(&ranges, &session.localizer, &mut candidates)
        })
        .ok()
        .map(|()| candidates[0].point)
    } else {
        None
    };
    (SweepSummary::new(&tofs, position), replay)
}

/// Replays the estimator's solver stages on one sweep's products: the
/// FISTA solve and the debias refit of every invertible band group.
fn replay_solver(
    config: &ChronosConfig,
    cache: &PlanCache,
    products: &[Vec<BandProduct>],
    scratch: &mut (IstaScratch, DebiasScratch, Vec<Complex64>),
    tr: &mut crate::trace::Tracer,
    counts: &mut LayerCounts,
) {
    let grid = TauGrid::span(config.grid_span_ns, config.grid_step_ns);
    let ista_cfg = IstaConfig {
        alpha_rel: config.alpha_rel,
        max_iters: config.max_iters,
        epsilon: config.epsilon,
        accelerated: config.accelerated,
    };
    let (ista, debias, out) = scratch;
    for antenna in products {
        for g in group_by_scale(antenna).iter().filter(|g| g.len() >= 5) {
            let plan = cache.ndft_plan(&g.freqs_hz, grid, config.grid_span_ns);
            let slot = group_slot(g.delay_scale);
            let stats = tr.span(GROUPS[slot].1, |_| {
                solve_planned_into(&plan, &g.values, &ista_cfg, ista)
            });
            counts.iters[slot].push(stats.iterations as f64);
            counts.support[slot]
                .push(ista.solution().iter().filter(|z| z.abs() > 0.0).count() as f64);
            if !stats.converged {
                counts.cap_hits += 1;
            }
            if config.debias {
                let max_atoms = (g.len() / 2).max(3);
                tr.span("ista.debias", |_| {
                    debias_into(
                        &plan.ndft,
                        &g.values,
                        ista.solution(),
                        max_atoms,
                        3,
                        debias,
                        out,
                    )
                });
            }
        }
    }
}

/// Runs the workload: set-ups, the timed loop and, with `--trace 1`, the
/// traced replay of the same jobs.
pub fn run(cfg: &RunCfg) -> Outcome {
    let sizes = if cfg.smoke { SMOKE } else { FULL };
    let mut setup_s = Vec::with_capacity(sizes.setups);
    let mut st = None;
    for _ in 0..sizes.setups {
        drop(st.take());
        let t0 = Instant::now();
        let mut s = setup(sizes);
        // Size the pipeline's scratch with one sweep outside the job
        // stream, as a server would before taking traffic.
        let mut rng = StdRng::seed_from_u64(mix(cfg.seed, 3, 0));
        let warm = &s.pairs[0].session;
        warm.sweep_with_pipeline(&warm.sweep_cfg, &mut rng, SimInstant::ZERO, &mut s.pipeline);
        setup_s.push(t0.elapsed().as_secs_f64());
        st = Some(s);
    }
    let Setup {
        pairs,
        cache,
        mut pipeline,
    } = st.expect("at least one set-up");

    let n_jobs = sizes.pairs * sizes.rounds;
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut out = Outcome::new(setup_s);
    out.pass_len = n_jobs;
    let mut pass_digests = Vec::new();
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        let mut digest = Digest::default();
        for j in 0..n_jobs {
            let (p, rng_seed, t) = job(cfg.seed, sizes.pairs, j);
            let pair = &pairs[p];
            let mut rng = StdRng::seed_from_u64(rng_seed);
            let c0 = crate::sys::process_cpu_s();
            let t0 = Instant::now();
            let sweep = pair.session.sweep_with_pipeline(
                &pair.session.sweep_cfg,
                &mut rng,
                t,
                &mut pipeline,
            );
            let wall_s = t0.elapsed().as_secs_f64();
            let cpu_s = crate::sys::process_cpu_s() - c0;
            let summary = SweepSummary::new(&sweep.tofs, sweep.position.ok().map(|p| p.point));
            if pass_digests.is_empty() {
                for (d, truth) in summary.distances.iter().zip(&pair.truth_m) {
                    if let Some(d) = d {
                        out.errors_m.push((d - truth).abs());
                    }
                }
            }
            summary.fold(&mut digest);
            out.steps.push(Step {
                wall_s,
                cpu_s,
                fixes: summary.distances.iter().flatten().count(),
                attempted: summary.distances.len(),
                ok: summary.finite(),
            });
        }
        pass_digests.push(digest.finish());
        if cfg.smoke || crate::out_of_time(started, pass_started, budget) {
            break;
        }
    }
    out.digest = pass_digests[0];
    out.check(
        "every pass replays the first bit for bit",
        pass_digests.iter().all(|d| *d == pass_digests[0]),
    );
    out.note(format!(
        "sizes: pairs={} ({} LOS, {} NLOS) sweeps_per_pass={n_jobs} passes={} threads=1",
        sizes.pairs,
        sizes.pairs - sizes.pairs / 2,
        sizes.pairs / 2,
        pass_digests.len()
    ));
    if cfg.trace {
        traced(cfg, &pairs, &cache, &mut pipeline, &pass_digests, &mut out);
    }
    out
}

/// The traced run: the same passes again through [`traced_sweep`], then
/// the per-layer metrics.
fn traced(
    cfg: &RunCfg,
    pairs: &[Pair],
    cache: &PlanCache,
    pipeline: &mut SweepPipeline,
    untraced: &[u64],
    out: &mut Outcome,
) {
    let n_pairs = pairs.len();
    let n_jobs = out.pass_len;
    let config = &pairs[0].session.config;
    let mut tr = crate::trace::Tracer::new(true);
    let mut counts = LayerCounts::default();
    let mut scratch = (IstaScratch::new(), DebiasScratch::default(), Vec::new());
    let mut steps = Vec::new();
    let mut same = true;
    for (pass, want) in untraced.iter().enumerate() {
        let mut digest = Digest::default();
        for j in 0..n_jobs {
            let (p, rng_seed, t) = job(cfg.seed, n_pairs, j);
            let pair = &pairs[p];
            let mut rng = StdRng::seed_from_u64(rng_seed);
            tr.set_step((pass * n_jobs + j) as u64);
            let t0 = Instant::now();
            let (summary, products) = tr.span("step", |tr| {
                traced_sweep(&pair.session, &mut rng, t, pipeline, tr, &mut counts)
            });
            steps.push(Step {
                wall_s: t0.elapsed().as_secs_f64(),
                ..out.steps[j]
            });
            summary.fold(&mut digest);
            replay_solver(config, cache, &products, &mut scratch, &mut tr, &mut counts);
        }
        same &= digest.finish() == *want;
    }
    out.check(
        "traced sweeps reproduce sweep_with_pipeline bit for bit",
        same,
    );

    let passes = untraced.len() as f64;
    let med = |name: &str| crate::median(&tr.per_step_ms(name));
    let fista_step: Vec<f64> = tr
        .per_step_ms(GROUPS[0].1)
        .iter()
        .zip(tr.per_step_ms(GROUPS[1].1))
        .map(|(a, b)| a + b)
        .collect();
    let select: Vec<f64> = tr
        .per_step_ms("tof.estimate")
        .iter()
        .zip(&fista_step)
        .zip(tr.per_step_ms("ista.debias"))
        .map(|((est, fista), debias)| est - fista - debias)
        .collect();
    let step_total: f64 = tr.per_step_ms("step").iter().sum();
    out.layer("link.sweep_ms", med("link.run_sweep"));
    out.layer("link.frames", counts.frames as f64 / passes);
    out.layer("link.frames_lost", counts.frames_lost as f64 / passes);
    out.layer("rf.csi_ms", med("rf.measure_pair_at"));
    out.layer("rf.captures", counts.captures as f64 / passes);
    out.layer("core.products_ms", med("core.products"));
    out.layer("tof.estimate_ms", med("tof.estimate"));
    out.layer("tof.select_ms", crate::median(&select));
    out.layer("loc.locate_ms", med("loc.locate_all"));
    for (slot, (group, span)) in GROUPS.iter().enumerate() {
        out.layer(
            &format!("ista.fista_ms.{group}"),
            crate::median(&tr.each_ms(span)),
        );
        out.layer(
            &format!("ista.iters.{group}"),
            crate::median(&counts.iters[slot]),
        );
        out.layer(
            &format!("ista.support.{group}"),
            crate::median(&counts.support[slot]),
        );
    }
    out.layer("ista.cap_hits", counts.cap_hits as f64 / passes);
    out.layer("ista.debias_ms", crate::median(&tr.each_ms("ista.debias")));
    out.layer(
        "ista.fista_share_pct",
        100.0 * fista_step.iter().sum::<f64>() / step_total,
    );
    out.layer(
        "trace.overhead_pct",
        crate::overhead_pct(&out.steps, &steps, n_jobs),
    );
    out.tracer = Some(tr);
}
