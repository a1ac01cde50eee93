//! The event-driven engine must be observationally invisible: for every
//! benchmark and memory mode, [`GpuSimulator::run`] (which wakes only the
//! components that have work and fast-forwards across provably inert
//! cycles) must produce a [`SimReport`] that is bit-identical to
//! [`GpuSimulator::run_stepped`] (the per-cycle reference semantics) in
//! every field except the host-side wall-clock block.

use std::sync::Arc;

use gpumem::prelude::*;
use gpumem::DEFAULT_MAX_CYCLES;
use gpumem_sim::{KernelProgram, SimError};
use gpumem_workloads::{params_of, SyntheticKernel, BENCHMARK_NAMES};

fn small_gpu() -> GpuConfig {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 3;
    cfg.num_partitions = 2;
    cfg
}

fn kernel(name: &str) -> Arc<dyn KernelProgram> {
    let p = params_of(name).unwrap().scaled(0.1);
    Arc::new(SyntheticKernel::new(p))
}

/// Serializes a report with the host block removed (it legitimately
/// differs between engines and runs).
fn canonical(mut report: SimReport) -> String {
    report.host = None;
    serde_json::to_string(&report).unwrap()
}

/// Runs one benchmark through both engines and asserts the reports
/// serialize to the exact same JSON once the host block is removed.
fn assert_differential(cfg: &GpuConfig, name: &str, mode: MemoryMode) {
    let program = kernel(name);
    let mut stepped = GpuSimulator::new(cfg.clone(), Arc::clone(&program), mode);
    let reference = canonical(stepped.run_stepped(DEFAULT_MAX_CYCLES).unwrap());
    assert_eq!(
        stepped.skipped_cycles(),
        0,
        "{name}/{mode}: reference run must never skip"
    );

    let mut event = GpuSimulator::new(cfg.clone(), Arc::clone(&program), mode);
    let report = canonical(event.run(DEFAULT_MAX_CYCLES).unwrap());
    assert_eq!(
        report, reference,
        "{name}/{mode}: event run diverged from per-cycle reference"
    );
}

#[test]
fn hierarchy_reports_are_bit_identical() {
    let cfg = small_gpu();
    for name in BENCHMARK_NAMES {
        assert_differential(&cfg, name, MemoryMode::Hierarchy);
    }
}

#[test]
fn fixed_latency_reports_are_bit_identical() {
    let cfg = small_gpu();
    for name in BENCHMARK_NAMES {
        assert_differential(&cfg, name, MemoryMode::FixedLatency(800));
    }
}

#[test]
fn fixed_latency_runs_actually_skip() {
    // At an 800-cycle miss latency the machine spends most of its life
    // waiting; the event engine must skip those cycles, not silently
    // degrade to per-cycle stepping.
    let cfg = small_gpu();
    let mut sim = GpuSimulator::new(cfg, kernel("nw"), MemoryMode::FixedLatency(800));
    let report = sim.run(DEFAULT_MAX_CYCLES).unwrap();
    let host = report.host.expect("run() fills host perf");
    assert!(
        host.skipped_cycles > 0,
        "no cycles skipped on a latency-dominated run"
    );
    assert_eq!(host.stepped_cycles + host.skipped_cycles, report.cycles);
    assert!(host.skipped_fraction > 0.0 && host.skipped_fraction < 1.0);
}

#[test]
fn watchdog_fires_identically_under_skipping() {
    // The event engine clamps its jumps to the cycle budget, so an aborted
    // run must report the same cycle, instruction count and liveness
    // detail either way.
    let cfg = small_gpu();
    let budget = 2_000;
    for mode in [MemoryMode::Hierarchy, MemoryMode::FixedLatency(800)] {
        let program = kernel("cfd");
        let a = GpuSimulator::new(cfg.clone(), Arc::clone(&program), mode).run(budget);
        let b = GpuSimulator::new(cfg.clone(), Arc::clone(&program), mode).run_stepped(budget);
        let a = a.expect_err("budget too small to finish");
        let b = b.expect_err("budget too small to finish");
        assert_eq!(a, b, "{mode}: watchdog divergence");
        match a {
            SimError::Watchdog { cycle, .. } => assert_eq!(cycle, budget),
            other => panic!("expected a budget watchdog error, got {other}"),
        }
    }
}
