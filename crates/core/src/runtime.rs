//! The worker runtime: a fixed set of warm estimation *lanes* that run
//! independent jobs side by side on scoped threads.
//!
//! A lane is one [`SweepPipeline`] scratch arena, created with the
//! runtime and reused for its whole life, so a pipeline's
//! zero-allocation warmth is never thrown away. Idle lanes wait in a
//! `Mutex<Vec<SweepPipeline>>`. A batch borrows up to `jobs − 1` idle
//! lanes and runs one [`std::thread::scope`] thread per borrowed lane;
//! the submitter works as one more lane on its own `local` pipeline.
//! Every lane claims job indices from one atomic counter until the batch
//! is exhausted, then returns its pipeline to the idle set at once.
//!
//! ## Determinism
//!
//! Every job writes its result into its own ordinal slot, so the caller
//! reads results in submission order no matter which lane ran what.
//! Combined with the engine's seeding contract (each sweep owns an RNG
//! seeded from its client/counter, never from schedule state),
//! `WindowReport`s are **bitwise identical across thread counts** — the
//! `{1, 2, 8}`-worker determinism tests in `tests/engine.rs` run against
//! this runtime.
//!
//! ## Nested batches
//!
//! A driver job ([`WorkerRuntime::run_driver_batch`], e.g. one fleet
//! shard's window) may submit sweep batches to the same runtime from
//! inside its `run`. Those batches borrow from the same idle set — a
//! lane that ran out of driver jobs has already returned its pipeline —
//! and run inline on the submitter when the set is empty. A batch only
//! ever waits on threads it spawned itself, and every spawned thread
//! only runs jobs, so nested batches cannot deadlock (the nested-batch
//! proptest in `tests/properties.rs` exercises this).
//!
//! See `docs/SCHEDULING.md` for the lifecycle and the determinism note.

use crate::pipeline::SweepPipeline;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A batch job the runtime can run: borrow-only access to its inputs,
/// one owned output. The runtime calls `run` exactly once per job and
/// finishes every job of a batch before the batch call returns.
pub trait PoolJob: Sync {
    /// The per-job result, written into the batch's ordinal output slot.
    type Output: Send;
    /// Runs the job on a lane's (or the submitter's) pipeline.
    fn run(&self, pipeline: &mut SweepPipeline) -> Self::Output;
}

/// The engine's unit of work: one admitted sweep, run on whichever
/// pipeline the runtime hands it.
impl PoolJob for crate::pipeline::BatchSweep<'_> {
    type Output = crate::session::SweepOutput;
    fn run(&self, pipeline: &mut SweepPipeline) -> Self::Output {
        pipeline.run_sweep(self)
    }
}

/// A hook letting the bench harness observe per-thread allocation
/// deltas around each job (see `chronos-bench/src/alloc_count.rs`).
/// Returns the calling thread's allocation counter.
pub type AllocProbe = fn() -> u64;

static ALLOC_PROBE: std::sync::OnceLock<AllocProbe> = std::sync::OnceLock::new();

/// Installs the thread-local allocation probe (first caller wins). The
/// bench harness points this at its counting allocator so
/// [`WorkerRuntime::worker_allocations`] reports true job-side
/// allocations.
pub fn set_alloc_probe(probe: AllocProbe) {
    let _ = ALLOC_PROBE.set(probe);
}

/// The worker runtime: `workers` lanes, each one warm [`SweepPipeline`],
/// plus the submitter's own pipeline as one more lane per batch.
///
/// Created once per engine (or shared by every shard of a fleet) and
/// reused for every batch. It owns no threads between batches.
pub struct WorkerRuntime {
    /// Pipelines of the lanes no batch is using right now.
    idle: Mutex<Vec<SweepPipeline>>,
    /// Lane count, fixed for the runtime's life.
    lanes: usize,
    /// Batches completed over the runtime's lifetime (reporting only).
    batches: AtomicU64,
    /// Heap allocations made while running counted jobs, summed over the
    /// runtime's lifetime. Only meaningful under the counting allocator
    /// of `chronos-bench`; stays 0 while the probe is unset.
    worker_allocs: AtomicU64,
}

impl std::fmt::Debug for WorkerRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerRuntime")
            .field("workers", &self.lanes)
            .field("batches", &self.batches_run())
            .finish()
    }
}

impl WorkerRuntime {
    /// A runtime of `workers` lanes (clamped to at least 1). Pipelines
    /// start empty and grow on first use.
    pub fn new(workers: usize) -> Self {
        let lanes = workers.max(1);
        WorkerRuntime {
            idle: Mutex::new((0..lanes).map(|_| SweepPipeline::default()).collect()),
            lanes,
            batches: AtomicU64::new(0),
            worker_allocs: AtomicU64::new(0),
        }
    }

    /// Number of lanes (excluding the submitter's own pipeline).
    pub fn workers(&self) -> usize {
        self.lanes
    }

    /// Batches completed over the runtime's lifetime.
    pub fn batches_run(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Heap allocations performed while running **counted** jobs —
    /// [`run_batch`](WorkerRuntime::run_batch) and
    /// [`prewarm`](WorkerRuntime::prewarm) jobs, on whichever lane they
    /// ran (including the submitter's) — summed over the runtime's
    /// lifetime. Driver jobs submitted via
    /// [`run_driver_batch`](WorkerRuntime::run_driver_batch) are *not*
    /// probed: a shard window allocates by design (event queues, report
    /// assembly — engine-side work that is identical in serial and
    /// parallel), and probing the outer job would double-count the
    /// sweep batches it submits. This is the counter behind the
    /// allocs-stay-zero gates in `BENCH_throughput.json` and
    /// `BENCH_fleet.json`; zero unless the bench alloc probe is
    /// installed ([`set_alloc_probe`]).
    pub fn worker_allocations(&self) -> u64 {
        self.worker_allocs.load(Ordering::Relaxed)
    }

    /// Runs a batch of estimation jobs on the idle lanes plus `local`
    /// (the submitter's own pipeline) and returns the outputs **in
    /// submission order**. Counted in
    /// [`worker_allocations`](WorkerRuntime::worker_allocations).
    ///
    /// Panics if any job panicked, after the whole batch has run.
    pub fn run_batch<J: PoolJob>(&self, jobs: &[J], local: &mut SweepPipeline) -> Vec<J::Output> {
        self.run_jobs(jobs, local, true)
    }

    /// Runs a batch of **driver jobs** — units the size of a whole
    /// fleet-shard window, which may themselves call
    /// [`WorkerRuntime::run_batch`] on this same runtime from inside
    /// their `run`. Results return in submission order, so a fleet's
    /// per-AP reports keep their AP indexing no matter which lane ran
    /// which shard. Not counted in
    /// [`worker_allocations`](WorkerRuntime::worker_allocations).
    ///
    /// Panics if any job panicked, after the whole batch has run.
    pub fn run_driver_batch<J: PoolJob>(
        &self,
        jobs: &[J],
        local: &mut SweepPipeline,
    ) -> Vec<J::Output> {
        self.run_jobs(jobs, local, false)
    }

    /// Runs `job` exactly once on **every** lane's pipeline, on the
    /// calling thread, returning one output per lane.
    ///
    /// Scratch warmth is per (pipeline, client shape) — some buffers size
    /// to data-dependent peaks — and a batch hands jobs to whichever
    /// lanes are idle, so ordinary warm-up batches cannot promise to
    /// reach every pipeline. This call does. Call it between batches: a
    /// lane borrowed by a concurrent batch is skipped. A panicking job
    /// poisons the call like [`WorkerRuntime::run_batch`].
    pub fn prewarm<J: PoolJob>(&self, job: &J) -> Vec<J::Output> {
        let mut lanes = std::mem::take(&mut *self.idle.lock().expect("idle lanes"));
        let outs = lanes
            .iter_mut()
            .map(|p| self.run_one(job, p, true))
            .collect();
        self.idle.lock().expect("idle lanes").append(&mut lanes);
        self.finish(outs)
    }

    /// The one batch body behind `run_batch` (`counted`) and
    /// `run_driver_batch`: borrow idle lanes, run one scoped thread per
    /// lane plus the submitter, each claiming jobs until none are left.
    fn run_jobs<J: PoolJob>(
        &self,
        jobs: &[J],
        local: &mut SweepPipeline,
        counted: bool,
    ) -> Vec<J::Output> {
        // `Relaxed` suffices: the counter only hands out distinct
        // indices; results travel through the slot mutexes and the
        // scope's joins.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<J::Output>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let lane = |pipeline: &mut SweepPipeline| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else { break };
            *slots[i].lock().expect("result slot") = self.run_one(job, pipeline, counted);
        };
        std::thread::scope(|s| {
            let lane = &lane;
            for _ in 1..jobs.len() {
                let Some(mut pipeline) = self.idle.lock().expect("idle lanes").pop() else {
                    break;
                };
                s.spawn(move || {
                    lane(&mut pipeline);
                    // Back to the idle set as soon as the jobs run out,
                    // so a still-running driver job can borrow it.
                    self.idle.lock().expect("idle lanes").push(pipeline);
                });
            }
            lane(local);
        });
        self.finish(
            slots
                .into_iter()
                .map(|s| s.into_inner().expect("result slot"))
                .collect(),
        )
    }

    /// Runs one job under `catch_unwind`, charging its allocations to
    /// the tally when `counted`. `None` if the job unwound; the
    /// pipeline is then replaced by a fresh one, since its scratch
    /// invariants may be broken.
    fn run_one<J: PoolJob>(
        &self,
        job: &J,
        pipeline: &mut SweepPipeline,
        counted: bool,
    ) -> Option<J::Output> {
        let probe = ALLOC_PROBE.get().filter(|_| counted);
        let before = probe.map_or(0, |p| p());
        let out = catch_unwind(AssertUnwindSafe(|| job.run(pipeline))).ok();
        if let Some(p) = probe {
            self.worker_allocs
                .fetch_add(p().saturating_sub(before), Ordering::Relaxed);
        }
        if out.is_none() {
            *pipeline = SweepPipeline::default();
        }
        out
    }

    /// Counts a finished batch and unwraps its ordinal results,
    /// re-raising if any job panicked.
    fn finish<T>(&self, outs: Vec<Option<T>>) -> Vec<T> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        outs.into_iter()
            .map(|o| o.unwrap_or_else(|| panic!("engine worker panicked")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SquareJob(u64);
    impl PoolJob for SquareJob {
        type Output = u64;
        fn run(&self, _pipeline: &mut SweepPipeline) -> u64 {
            self.0 * self.0
        }
    }

    #[test]
    fn batch_results_arrive_in_submission_order() {
        let rt = WorkerRuntime::new(3);
        let mut local = SweepPipeline::new();
        let jobs: Vec<SquareJob> = (0..257).map(SquareJob).collect();
        let outs = rt.run_batch(&jobs, &mut local);
        let expect: Vec<u64> = (0..257u64).map(|v| v * v).collect();
        assert_eq!(outs, expect);
        assert_eq!(rt.batches_run(), 1);
    }

    #[test]
    fn pool_survives_many_batches_without_respawn() {
        let rt = WorkerRuntime::new(2);
        let mut local = SweepPipeline::new();
        for round in 0..50u64 {
            let jobs: Vec<SquareJob> = (round..round + 7).map(SquareJob).collect();
            let outs = rt.run_batch(&jobs, &mut local);
            assert_eq!(outs.len(), 7);
        }
        assert_eq!(rt.workers(), 2);
        assert_eq!(rt.batches_run(), 50);
    }

    #[test]
    fn prewarm_runs_once_on_every_worker() {
        /// Records the address of every pipeline it runs on.
        struct AddrJob(Mutex<Vec<usize>>);
        impl PoolJob for AddrJob {
            type Output = usize;
            fn run(&self, pipeline: &mut SweepPipeline) -> usize {
                let addr = pipeline as *mut SweepPipeline as usize;
                self.0.lock().unwrap().push(addr);
                addr
            }
        }
        let rt = WorkerRuntime::new(3);
        let mut local = SweepPipeline::new();
        let job = AddrJob(Mutex::new(Vec::new()));
        let outs = rt.prewarm(&job);
        assert_eq!(outs.len(), 3);
        let addrs = job.0.into_inner().unwrap();
        assert_eq!(addrs, outs, "each lane must run the job exactly once");
        let distinct: std::collections::HashSet<_> = addrs.iter().copied().collect();
        assert_eq!(distinct.len(), 3, "no lane pipeline may run it twice");
        assert!(
            !distinct.contains(&(&mut local as *mut SweepPipeline as usize)),
            "the submitter's pipeline is not a lane"
        );
        // The runtime is still serviceable afterwards.
        assert_eq!(rt.run_batch(&[SquareJob(6)], &mut local), vec![36]);
    }

    /// A driver job that submits sweep batches back into the same
    /// runtime from inside its `run` — the fleet-shard shape.
    struct NestedJob<'a> {
        rt: &'a WorkerRuntime,
        base: u64,
        inner: usize,
    }
    impl PoolJob for NestedJob<'_> {
        type Output = u64;
        fn run(&self, pipeline: &mut SweepPipeline) -> u64 {
            let jobs: Vec<SquareJob> = (self.base..self.base + self.inner as u64)
                .map(SquareJob)
                .collect();
            self.rt.run_batch(&jobs, pipeline).iter().sum()
        }
    }

    #[test]
    fn driver_batch_runs_jobs_that_submit_nested_fine_batches() {
        for workers in [1usize, 2, 4] {
            let rt = WorkerRuntime::new(workers);
            let mut local = SweepPipeline::new();
            let jobs: Vec<NestedJob<'_>> = (0..6)
                .map(|i| NestedJob {
                    rt: &rt,
                    base: i * 10,
                    inner: 7,
                })
                .collect();
            let outs = rt.run_driver_batch(&jobs, &mut local);
            let expect: Vec<u64> = (0..6u64)
                .map(|i| (i * 10..i * 10 + 7).map(|v| v * v).sum())
                .collect();
            assert_eq!(outs, expect, "workers={workers}");
            // Ordinary batches still work on the same runtime.
            assert_eq!(rt.run_batch(&[SquareJob(5)], &mut local), vec![25]);
        }
    }

    #[test]
    fn worker_panic_poisons_the_batch() {
        /// Panics on every pipeline but the submitter's, once all three
        /// lanes hold a job — so both borrowed lanes unwind.
        struct Bomb<'a> {
            barrier: &'a std::sync::Barrier,
            local: usize,
        }
        impl PoolJob for Bomb<'_> {
            type Output = ();
            fn run(&self, pipeline: &mut SweepPipeline) {
                self.barrier.wait();
                if pipeline as *mut SweepPipeline as usize != self.local {
                    panic!("boom");
                }
            }
        }
        let rt = WorkerRuntime::new(2);
        let mut local = SweepPipeline::new();
        let barrier = std::sync::Barrier::new(3);
        let local_addr = &mut local as *mut SweepPipeline as usize;
        let bomb = || Bomb {
            barrier: &barrier,
            local: local_addr,
        };
        let jobs = vec![bomb(), bomb(), bomb()];
        let res = catch_unwind(AssertUnwindSafe(|| rt.run_batch(&jobs, &mut local)));
        assert!(res.is_err(), "poisoned batch must re-raise");
        // No lane leaked its pipeline: every lane is idle again, and the
        // next batch still returns ordinal results.
        assert_eq!(rt.workers(), 2);
        assert_eq!(rt.prewarm(&SquareJob(2)), vec![4, 4]);
        let jobs: Vec<SquareJob> = (0..9).map(SquareJob).collect();
        let expect: Vec<u64> = (0..9u64).map(|v| v * v).collect();
        assert_eq!(rt.run_batch(&jobs, &mut local), expect);
    }
}
