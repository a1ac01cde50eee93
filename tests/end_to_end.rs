//! End-to-end integration tests: full-system runs spanning every crate.

use std::sync::Arc;

use gpumem::prelude::*;
use gpumem_sim::MemoryMode;
use gpumem_types::{CtaId, LineAddr};
use gpumem_workloads::{params_of, AccessPattern, SyntheticKernel};

/// A quick variant of a suite benchmark for integration testing.
fn quick(name: &str) -> Arc<SyntheticKernel> {
    let p = params_of(name).expect("known benchmark").scaled(0.15);
    Arc::new(SyntheticKernel::new(p))
}

fn small_gpu() -> GpuConfig {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 4;
    cfg.num_partitions = 2;
    cfg
}

#[test]
fn every_suite_benchmark_completes_on_the_hierarchy() {
    let cfg = small_gpu();
    for name in BENCHMARK_NAMES {
        let program = quick(name) as Arc<dyn gpumem_sim::KernelProgram>;
        let report = run_benchmark(&cfg, &program, MemoryMode::Hierarchy)
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert!(report.ipc > 0.0, "{name}: zero IPC");
        assert!(report.instructions > 0, "{name}: no instructions");
        assert_eq!(report.benchmark, name);
    }
}

#[test]
fn every_suite_benchmark_completes_on_fixed_latency() {
    let cfg = small_gpu();
    for name in BENCHMARK_NAMES {
        let program = quick(name) as Arc<dyn gpumem_sim::KernelProgram>;
        for latency in [0, 200, 800] {
            let report = run_benchmark(&cfg, &program, MemoryMode::FixedLatency(latency))
                .unwrap_or_else(|e| panic!("{name}@{latency} failed: {e}"));
            assert!(report.instructions > 0);
        }
    }
}

#[test]
fn instruction_count_is_invariant_across_memory_systems() {
    // The same kernel must retire exactly the same instructions no matter
    // how the memory system behaves.
    let cfg = small_gpu();
    let program = quick("cfd") as Arc<dyn gpumem_sim::KernelProgram>;
    let a = run_benchmark(&cfg, &program, MemoryMode::Hierarchy).unwrap();
    let b = run_benchmark(&cfg, &program, MemoryMode::FixedLatency(100)).unwrap();
    let c = run_benchmark(&cfg, &program, MemoryMode::FixedLatency(700)).unwrap();
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(b.instructions, c.instructions);
}

#[test]
fn all_design_points_complete_and_never_lose_work() {
    let cfg = small_gpu();
    let program = quick("lbm") as Arc<dyn gpumem_sim::KernelProgram>;
    let baseline = run_benchmark(&cfg, &program, MemoryMode::Hierarchy).unwrap();
    for dp in DesignPoint::SECTION_IV {
        let scaled = dp.apply(&cfg);
        let report = run_benchmark(&scaled, &program, MemoryMode::Hierarchy)
            .unwrap_or_else(|e| panic!("{dp} failed: {e}"));
        assert_eq!(
            report.instructions, baseline.instructions,
            "{dp}: instruction count changed"
        );
    }
}

#[test]
fn barrier_kernel_with_full_system() {
    // nw is the barrier-heavy benchmark; it must synchronize correctly
    // through real memory-latency jitter.
    let cfg = small_gpu();
    let program = quick("nw") as Arc<dyn gpumem_sim::KernelProgram>;
    let report = run_benchmark(&cfg, &program, MemoryMode::Hierarchy).unwrap();
    assert!(report.core.barriers > 0, "nw must execute barriers");
}

#[test]
fn store_heavy_kernel_generates_dram_writes() {
    let cfg = small_gpu();
    let program = quick("lbm") as Arc<dyn gpumem_sim::KernelProgram>;
    let report = run_benchmark(&cfg, &program, MemoryMode::Hierarchy).unwrap();
    let dram = report.dram.expect("hierarchy mode");
    assert!(
        dram.stats.writes > 0,
        "write-through stores must reach DRAM"
    );
    assert!(report.l1.stats.stores > 0);
}

#[test]
fn l2_reuse_benchmark_hits_in_l2() {
    let cfg = small_gpu();
    let program = quick("sc") as Arc<dyn gpumem_sim::KernelProgram>;
    let report = run_benchmark(&cfg, &program, MemoryMode::Hierarchy).unwrap();
    let l2 = report.l2.expect("hierarchy mode");
    assert!(
        l2.stats.load_hits > 0,
        "sc's hot-region reuse must produce L2 hits"
    );
}

#[test]
fn custom_kernel_through_public_api() {
    // A user-authored workload, not from the suite.
    let mut p = gpumem_workloads::WorkloadParams::template("mine");
    p.ctas = 6;
    p.iters = 5;
    p.pattern = AccessPattern::Strided { stride: 7 };
    p.stores_per_iter = 1;
    let program = Arc::new(SyntheticKernel::new(p)) as Arc<dyn gpumem_sim::KernelProgram>;
    let report = run_benchmark(&small_gpu(), &program, MemoryMode::Hierarchy).unwrap();
    assert_eq!(report.benchmark, "mine");
    assert!(report.core.store_instrs > 0);
}

#[test]
fn watchdog_reports_progress() {
    let cfg = small_gpu();
    let program = quick("nn") as Arc<dyn gpumem_sim::KernelProgram>;
    let mut sim = gpumem_sim::GpuSimulator::new(cfg, program, MemoryMode::Hierarchy);
    let err = sim.run(10).expect_err("cannot finish in 10 cycles");
    match err {
        gpumem_sim::SimError::Watchdog { cycle, detail, .. } => {
            assert!(cycle >= 10);
            assert!(detail.contains("CTAs dispatched"));
        }
        other => panic!("expected a budget watchdog error, got {other}"),
    }
}

/// Every warp interleaves memory instructions that touch no line with
/// ordinary ones. An empty load or store issues as a 1-cycle no-op: no
/// access, no outstanding load, no panic, no wedged warp.
struct EmptyMemoryKernel;

impl gpumem_sim::KernelProgram for EmptyMemoryKernel {
    fn name(&self) -> &str {
        "empty-mem"
    }
    fn grid_ctas(&self) -> u32 {
        8
    }
    fn warps_per_cta(&self) -> u32 {
        4
    }
    fn instr(&self, cta: CtaId, warp: u32, pc: u32) -> Option<gpumem_sim::WarpInstr> {
        use gpumem_sim::WarpInstr;
        let line = LineAddr::new(u64::from(cta.index() as u32 * 4 + warp) * 3);
        Some(match pc {
            0 => WarpInstr::Load {
                lines: vec![],
                consume_after: 1,
            },
            1 => WarpInstr::Alu { latency: 4 },
            2 => WarpInstr::Store { lines: vec![] },
            3 => WarpInstr::load_line(line, 1),
            4 => WarpInstr::Load {
                lines: vec![],
                consume_after: 1,
            },
            5 => WarpInstr::Store { lines: vec![line] },
            6 => WarpInstr::Barrier,
            7 => WarpInstr::Store { lines: vec![] },
            _ => return None,
        })
    }
}

#[test]
fn empty_memory_instructions_issue_as_noops() {
    let program = Arc::new(EmptyMemoryKernel) as Arc<dyn gpumem_sim::KernelProgram>;
    let warps = 8 * 4;
    for mode in [MemoryMode::Hierarchy, MemoryMode::FixedLatency(200)] {
        let run = |stepped: bool| {
            let mut sim = GpuSimulator::new(small_gpu(), Arc::clone(&program), mode);
            let mut report = if stepped {
                sim.run_stepped(gpumem::DEFAULT_MAX_CYCLES)
            } else {
                sim.run(gpumem::DEFAULT_MAX_CYCLES)
            }
            .unwrap_or_else(|e| panic!("{mode}: {e}"));
            report.host = None;
            report
        };
        let (event, stepped) = (run(false), run(true));
        assert_eq!(
            serde_json::to_string(&event).unwrap(),
            serde_json::to_string(&stepped).unwrap(),
            "{mode}: run and run_stepped disagree"
        );
        assert_eq!(event.instructions, 8 * warps);
        assert_eq!(event.core.load_instrs, 3 * warps);
        assert_eq!(event.core.store_instrs, 3 * warps);
        // Only the one-line load and the one-line store generate accesses.
        assert_eq!(event.core.global_accesses, 2 * warps);
        assert_eq!(event.core.ctas_retired, 8);
    }
}
