//! Helpers for running benchmarks, serially or across threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use gpumem_config::GpuConfig;
use gpumem_sim::{GpuSimulator, MemoryMode, SimError, SimReport};
use gpumem_simt::KernelProgram;

/// Default watchdog budget: generous enough for every suite benchmark at
/// every design point, small enough to catch deadlocks quickly.
pub const DEFAULT_MAX_CYCLES: u64 = 50_000_000;

/// One simulation to run: a configuration, a kernel and a memory mode.
#[derive(Clone)]
pub struct RunSpec {
    /// GPU configuration (baseline or a Table I design point).
    pub cfg: GpuConfig,
    /// The kernel to execute.
    pub program: Arc<dyn KernelProgram>,
    /// Memory backend.
    pub mode: MemoryMode,
}

impl std::fmt::Debug for RunSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSpec")
            .field("program", &self.program.name())
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

/// Runs one benchmark to completion.
///
/// # Errors
///
/// Propagates [`SimError::Watchdog`] if the run does not complete within
/// [`DEFAULT_MAX_CYCLES`].
pub fn run_benchmark(
    cfg: &GpuConfig,
    program: &Arc<dyn KernelProgram>,
    mode: MemoryMode,
) -> Result<SimReport, SimError> {
    GpuSimulator::new(cfg.clone(), Arc::clone(program), mode).run(DEFAULT_MAX_CYCLES)
}

/// Runs `job(0)` … `job(jobs - 1)` on a scoped pool of worker threads and
/// hands each result to `sink` on the calling thread, in completion order.
///
/// `workers == 0` means one thread per host core; the pool never starts
/// more threads than there are jobs. When `sink` returns `false` the pool
/// stops handing out jobs: runs already in flight finish, and their
/// results are dropped. A panicking `job` propagates out of the pool once
/// every worker has stopped.
pub fn run_pool<T, J, S>(jobs: usize, workers: usize, job: J, mut sink: S)
where
    T: Send,
    J: Fn(usize) -> T + Sync,
    S: FnMut(usize, T) -> bool,
{
    if jobs == 0 {
        return;
    }
    let workers = match workers {
        0 => thread::available_parallelism().map_or(4, |p| p.get()),
        n => n,
    }
    .min(jobs);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();

    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, job) = (&next, &job);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs || tx.send((i, job(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, out) in rx {
            if !sink(i, out) {
                // Exhaust the counter so no worker starts another job;
                // leaving the loop drops the receiver, discarding the
                // results of the runs still in flight.
                next.store(jobs, Ordering::Relaxed);
                break;
            }
        }
    });
}

/// Runs a batch of independent simulations across all available cores,
/// preserving input order in the output.
///
/// # Errors
///
/// Returns the first [`SimError`] in input order (remaining runs still
/// execute; their results are discarded).
pub fn run_benchmarks_parallel(specs: &[RunSpec]) -> Result<Vec<SimReport>, SimError> {
    // Workers finish in arbitrary order; slotting results by index makes
    // the output order (and which error is returned) depend only on the
    // input.
    let mut results: Vec<Option<Result<SimReport, SimError>>> =
        specs.iter().map(|_| None).collect();
    run_pool(
        specs.len(),
        0,
        |i| run_benchmark(&specs[i].cfg, &specs[i].program, specs[i].mode),
        |i, out| {
            results[i] = Some(out);
            true
        },
    );
    results
        .into_iter()
        .map(|slot| slot.expect("the pool runs every job unless the sink stops it"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_workloads::{SyntheticKernel, WorkloadParams};

    fn tiny_spec(mode: MemoryMode) -> RunSpec {
        let mut cfg = GpuConfig::tiny();
        cfg.num_cores = 2;
        let mut p = WorkloadParams::template("t");
        p.ctas = 4;
        p.warps_per_cta = 2;
        p.iters = 4;
        p.working_set_lines = 2_000;
        RunSpec {
            cfg,
            program: Arc::new(SyntheticKernel::new(p)),
            mode,
        }
    }

    #[test]
    fn serial_run_completes() {
        let spec = tiny_spec(MemoryMode::Hierarchy);
        let report = run_benchmark(&spec.cfg, &spec.program, spec.mode).unwrap();
        assert!(report.instructions > 0);
        assert_eq!(report.benchmark, "t");
    }

    #[test]
    fn parallel_matches_serial_and_preserves_order() {
        let specs = vec![
            tiny_spec(MemoryMode::Hierarchy),
            tiny_spec(MemoryMode::FixedLatency(100)),
            tiny_spec(MemoryMode::FixedLatency(0)),
        ];
        let par = run_benchmarks_parallel(&specs).unwrap();
        assert_eq!(par.len(), 3);
        for (spec, report) in specs.iter().zip(&par) {
            let serial = run_benchmark(&spec.cfg, &spec.program, spec.mode).unwrap();
            assert_eq!(serial.cycles, report.cycles, "determinism across threads");
            assert_eq!(serial.instructions, report.instructions);
        }
        assert_eq!(par[1].mode, "fixed-latency(100)");
        assert_eq!(par[2].mode, "fixed-latency(0)");
    }

    #[test]
    fn empty_batch_is_ok() {
        assert!(run_benchmarks_parallel(&[]).unwrap().is_empty());
    }

    #[test]
    fn pool_stops_handing_out_jobs_when_the_sink_declines() {
        // Every job after the first blocks until the sink has declined, so
        // the single worker cannot race through the batch before the stop.
        let declined = (std::sync::Mutex::new(false), std::sync::Condvar::new());
        let started = AtomicUsize::new(0);
        let mut delivered = 0;
        run_pool(
            1_000,
            1,
            |i| {
                started.fetch_add(1, Ordering::Relaxed);
                if i > 0 {
                    let (lock, cv) = &declined;
                    let guard = lock.lock().expect("no job panics holding the lock");
                    drop(cv.wait_while(guard, |d| !*d).expect("no job panics"));
                }
            },
            |_, ()| {
                delivered += 1;
                *declined.0.lock().expect("no job panics holding the lock") = true;
                declined.1.notify_all();
                false
            },
        );
        assert_eq!(delivered, 1, "results after a declined one are dropped");
        assert!(
            started.into_inner() < 1_000,
            "the pool kept handing out jobs"
        );
    }
}
