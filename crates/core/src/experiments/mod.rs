//! The paper's three experiments.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`latency_tolerance`] | Fig. 1 — normalized IPC vs fixed L1 miss latency |
//! | [`congestion`] | Section III — queue-full fractions (46% / 39%) |
//! | [`design_space`] | Table I / Section IV — ~4× scaling speedups |
//! | [`ablation`] | Section V future work — per-row ablation & cost-effectiveness |

pub mod ablation;
pub mod congestion;
pub mod design_space;
pub mod latency_tolerance;

use std::sync::Arc;

use gpumem_config::GpuConfig;
use gpumem_sim::{MemoryMode, SimError};
use gpumem_simt::KernelProgram;

use crate::run::{run_benchmarks_parallel, RunSpec};

/// Per-benchmark `(name, value)` pairs, in suite order.
type PerBenchmark = Vec<(String, f64)>;

/// Runs the baseline `cfg` and every configuration in `configs` over
/// `programs` on the hierarchy as one batch, baseline first. Returns the
/// baseline IPC per benchmark and, per configuration, each benchmark's
/// speedup over it (`ipc / baseline ipc`, 1.0 for a zero baseline).
fn speedups_over_baseline(
    cfg: &GpuConfig,
    programs: &[Arc<dyn KernelProgram>],
    configs: &[GpuConfig],
) -> Result<(PerBenchmark, Vec<PerBenchmark>), SimError> {
    let specs: Vec<RunSpec> = std::iter::once(cfg)
        .chain(configs)
        .flat_map(|c| {
            programs.iter().map(|p| RunSpec {
                cfg: c.clone(),
                program: Arc::clone(p),
                mode: MemoryMode::Hierarchy,
            })
        })
        .collect();
    let reports = run_benchmarks_parallel(&specs)?;
    let n = programs.len();
    let baseline: PerBenchmark = reports[..n]
        .iter()
        .map(|r| (r.benchmark.clone(), r.ipc))
        .collect();
    let speedups = (1..=configs.len())
        .map(|i| {
            reports[n * i..n * (i + 1)]
                .iter()
                .zip(&baseline)
                .map(|(r, (name, base))| {
                    debug_assert_eq!(&r.benchmark, name);
                    (name.clone(), if *base > 0.0 { r.ipc / base } else { 1.0 })
                })
                .collect()
        })
        .collect();
    Ok((baseline, speedups))
}
