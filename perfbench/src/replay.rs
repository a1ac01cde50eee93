//! The traced run's per-simulation replay: every simulation of a pass,
//! run one at a time on this thread through `GpuSimulator::new` + `run`
//! and again through `run_profiled`, so host time, allocations and the
//! engine's bucket shares can be attributed per simulation and per
//! memory mode.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use gpumem::prelude::{GpuSimulator, MemoryMode, SimReport};
use gpumem::sim::EngineProfile;
use gpumem::DEFAULT_MAX_CYCLES;
use gpumem_cache::L1Stats;
use gpumem_dram::DramStats;
use gpumem_types::QueueStats;

use crate::alloc::thread_counts;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workload::{catch, digest, SimJob};

#[derive(Default)]
struct ModeTotals {
    run_s: f64,
    cycles: u64,
    allocs: u64,
    bytes: u64,
}

/// Profile buckets summed over simulations.
#[derive(Default)]
struct Buckets {
    wall: f64,
    sched: f64,
    cores: f64,
    l1: f64,
    xbar: f64,
    parts: f64,
    dram: f64,
    core_runs: u64,
    partition_runs: u64,
    xbar_ticks: u64,
    /// Unprofiled `run` seconds of the same simulations.
    run_s: f64,
}

impl Buckets {
    fn add(&mut self, p: &EngineProfile, run_s: f64) {
        self.wall += p.wall_seconds;
        self.sched += p.scheduler_seconds;
        self.cores += p.cores_seconds;
        self.l1 += p.l1_seconds;
        self.xbar += p.crossbar_seconds;
        self.parts += p.partitions_seconds;
        self.dram += p.dram_seconds;
        self.core_runs += p.core_runs;
        self.partition_runs += p.partition_runs;
        self.xbar_ticks += p.req_xbar_ticks + p.resp_xbar_ticks;
        self.run_s += run_s;
    }

    fn sum(&self) -> f64 {
        self.sched + self.cores + self.l1 + self.xbar + self.parts + self.dram
    }

    fn share(&self, bucket: f64) -> f64 {
        ratio(bucket, self.sum())
    }

    /// Unprofiled ns per unit of `count` attributable to `bucket`: the
    /// profile gives only the share, the unprofiled run the time.
    fn ns_per(&self, bucket: f64, count: u64) -> f64 {
        ratio(self.share(bucket) * self.run_s * 1e9, count as f64)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What the replay measured, as per-layer metrics.
#[derive(Default)]
pub struct Replay {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// `(label, digest of the report with host cleared)`.
    pub digests: Vec<(String, String)>,
    pub run_s: f64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

fn digest_report(report: &SimReport) -> String {
    let mut r = report.clone();
    r.host = None;
    digest(&r)
}

pub fn replay(tr: &mut Tracer, jobs: &[SimJob]) -> Replay {
    let mut out = Replay::default();
    let (mut hier, mut fixed) = (ModeTotals::default(), ModeTotals::default());
    let (mut all_prof, mut hier_prof) = (Buckets::default(), Buckets::default());
    let mut new_us = Vec::new();
    let mut skipped = 0.0;
    let mut seen = BTreeSet::new();
    let mut duplicates = 0u64;
    let mut reports = Vec::new();

    tr.begin_pass(true);
    for job in jobs {
        out.attempted += 1;
        let t = Instant::now();
        let sim = tr.span("sim.new", &job.label, |_| {
            catch(|| GpuSimulator::new(job.cfg.clone(), Arc::clone(&job.program), job.mode))
        });
        new_us.push(t.elapsed().as_secs_f64() * 1e6);
        let mut sim = match sim {
            Ok(sim) => sim,
            Err(panic) => {
                out.failed += 1;
                eprintln!("{}: GpuSimulator::new panicked: {panic}", job.label);
                continue;
            }
        };
        let (a0, b0) = thread_counts();
        let t = Instant::now();
        let report = tr.span("sim.run", &job.label, |_| {
            catch(|| sim.run(DEFAULT_MAX_CYCLES))
        });
        let run_s = t.elapsed().as_secs_f64();
        let (a1, b1) = thread_counts();
        let report = match report {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                out.failed += 1;
                eprintln!("{}: {e}", job.label);
                continue;
            }
            Err(panic) => {
                out.failed += 1;
                eprintln!("{}: run panicked: {panic}", job.label);
                continue;
            }
        };
        let totals = if job.mode == MemoryMode::Hierarchy {
            &mut hier
        } else {
            &mut fixed
        };
        totals.run_s += run_s;
        totals.cycles += report.cycles;
        totals.allocs += a1 - a0;
        totals.bytes += b1 - b0;
        out.run_s += run_s;
        skipped += report.host.as_ref().map_or(0.0, |h| h.skipped_fraction) * report.cycles as f64;
        if let Some(n) = job.instructions {
            let derived = (n as f64 / report.ipc).round() as u64;
            if report.instructions != n || derived != report.cycles {
                out.problems.push(format!(
                    "{}: {} instructions / {} cycles, but the kernel has {n} and IPC gives {derived}",
                    job.label, report.instructions, report.cycles
                ));
            }
        }
        let d = digest_report(&report);
        if !seen.insert(d.clone()) {
            duplicates += 1;
        }

        let profiled = tr.span("sim.run_profiled", &job.label, |_| {
            catch(|| {
                GpuSimulator::new(job.cfg.clone(), Arc::clone(&job.program), job.mode)
                    .run_profiled(DEFAULT_MAX_CYCLES)
            })
        });
        match profiled {
            Ok(Ok((r, p))) => {
                if digest_report(&r) != d {
                    out.problems.push(format!(
                        "{}: run_profiled result differs from run",
                        job.label
                    ));
                }
                all_prof.add(&p, run_s);
                if job.mode == MemoryMode::Hierarchy {
                    hier_prof.add(&p, run_s);
                }
            }
            _ => out
                .problems
                .push(format!("{}: run_profiled failed", job.label)),
        }
        out.digests.push((job.label.clone(), d));
        reports.push(report);
    }

    let cycles = (hier.cycles + fixed.cycles) as f64;
    let ns_per_cycle = |m: &ModeTotals| ratio(m.run_s * 1e9, m.cycles as f64);
    let allocs_per_kcycle = |m: &ModeTotals| ratio(m.allocs as f64 * 1e3, m.cycles as f64);
    let mb_per_mcycle = |m: &ModeTotals| ratio(m.bytes as f64, m.cycles as f64);
    let gap = ratio((all_prof.sum() - all_prof.wall).abs(), all_prof.wall);
    if gap > BUCKET_TOLERANCE {
        out.problems.push(format!(
            "run_profiled buckets sum to {:.4} s of {:.4} s wall",
            all_prof.sum(),
            all_prof.wall
        ));
    }
    let b = &all_prof;
    let h = &hier_prof;
    out.metrics = vec![
        ("sim.new_us", median(&new_us), "us"),
        ("sim.run_s", out.run_s, "s"),
        ("sim.ns_per_cycle.hierarchy", ns_per_cycle(&hier), "ns"),
        ("sim.ns_per_cycle.fixed", ns_per_cycle(&fixed), "ns"),
        ("sim.skipped_frac", ratio(skipped, cycles), "ratio"),
        (
            "sim.allocs_per_kcycle.hierarchy",
            allocs_per_kcycle(&hier),
            "allocs/kcycle",
        ),
        (
            "sim.allocs_per_kcycle.fixed",
            allocs_per_kcycle(&fixed),
            "allocs/kcycle",
        ),
        (
            "sim.alloc_mb_per_mcycle.hierarchy",
            mb_per_mcycle(&hier),
            "MB/Mcycle",
        ),
        (
            "sim.alloc_mb_per_mcycle.fixed",
            mb_per_mcycle(&fixed),
            "MB/Mcycle",
        ),
        ("sim.sched_share", b.share(b.sched), "ratio"),
        ("simt.share", b.share(b.cores), "ratio"),
        ("cache.l1_share", b.share(b.l1), "ratio"),
        ("noc.share", b.share(b.xbar), "ratio"),
        ("sim.partition_share", b.share(b.parts), "ratio"),
        ("dram.share", b.share(b.dram), "ratio"),
        (
            "simt.ns_per_core_cycle",
            b.ns_per(b.cores, b.core_runs),
            "ns",
        ),
        (
            "cache.l1.ns_per_core_cycle",
            b.ns_per(b.l1, b.core_runs),
            "ns",
        ),
        ("noc.ns_per_xbar_tick", h.ns_per(h.xbar, h.xbar_ticks), "ns"),
        (
            "sim.partition.ns_per_cycle",
            h.ns_per(h.parts, h.partition_runs),
            "ns",
        ),
        (
            "dram.ns_per_partition_cycle",
            h.ns_per(h.dram, h.partition_runs),
            "ns",
        ),
        (
            "sim.profile_overhead_frac",
            ratio(b.wall, b.run_s) - 1.0,
            "ratio",
        ),
        ("sim.profile_bucket_gap_frac", gap, "ratio"),
        ("core.duplicate_sims", duplicates as f64, "count"),
    ];
    out.metrics.extend(model_metrics(&reports));
    out
}

/// Largest tolerated gap between the six profile buckets and wall time.
pub const BUCKET_TOLERANCE: f64 = 0.02;

/// Simulated counters, aggregated over the replayed simulations. They are
/// deterministic: a change that only makes the simulator faster leaves
/// every one of them exactly unchanged.
fn model_metrics(reports: &[SimReport]) -> Vec<(&'static str, f64, &'static str)> {
    let n = reports.len().max(1) as f64;
    let ipc_geomean = (reports
        .iter()
        .map(|r| r.ipc.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / n)
        .exp();
    let mut l1 = L1Stats::default();
    let (mut l2_hits, mut l2_misses) = (0u64, 0u64);
    let (mut l2_access, mut dram_sched) = (QueueStats::default(), QueueStats::default());
    let mut dram = DramStats::default();
    let (mut credit, mut busy) = (0u64, 0u64);
    for r in reports {
        l1.merge(&r.l1.stats);
        if let Some(l2) = &r.l2 {
            l2_hits += l2.stats.load_hits + l2.stats.store_hits;
            l2_misses += l2.stats.misses;
            l2_access.merge(&l2.access_queue);
        }
        if let Some(d) = &r.dram {
            dram.merge(&d.stats);
            dram_sched.merge(&d.scheduler_queue);
        }
        if let Some(noc) = &r.noc {
            credit += noc.request.credit_stall_cycles + noc.response.credit_stall_cycles;
            busy += noc.request.output_busy_cycles + noc.response.output_busy_cycles;
        }
    }
    vec![
        (
            "model.ipc_geomean",
            if reports.is_empty() { 0.0 } else { ipc_geomean },
            "ipc",
        ),
        ("cache.l1_miss_rate", l1.miss_rate(), "ratio"),
        (
            "sim.l2_miss_rate",
            ratio(l2_misses as f64, (l2_hits + l2_misses) as f64),
            "ratio",
        ),
        (
            "sim.l2_access_full_frac",
            l2_access.full_fraction_of_usage(),
            "ratio",
        ),
        (
            "dram.sched_full_frac",
            dram_sched.full_fraction_of_usage(),
            "ratio",
        ),
        ("dram.row_hit_rate", dram.row_hit_rate(), "ratio"),
        (
            "noc.credit_stall_frac",
            ratio(credit as f64, (credit + busy) as f64),
            "ratio",
        ),
    ]
}
