//! The three workloads. One pass of a workload is its set-up (building
//! inputs) followed by its calls into the experiment or sweep layer; all
//! timing is taken around those public calls.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gpumem::prelude::{
    congestion_study, design_space_exploration, latency_tolerance_profile, DesignPoint, GpuConfig,
    MemoryMode, FIG1_LATENCIES,
};
use gpumem::DEFAULT_MAX_CYCLES;
use gpumem_simt::KernelProgram;
use gpumem_sweep::{run_sweep, ResultStore, SweepCell, SweepOptions, SweepSpec};
use gpumem_types::CellKey;
use gpumem_workloads::{params_of, SyntheticKernel, WorkloadParams, BENCHMARK_NAMES};

use crate::host::cpu_seconds;
use crate::reference::paper_err_pp;
use crate::spans::Tracer;

/// Workload scale of the paper suite in `fig1-fixed` and `dse-hierarchy`.
pub const SUITE_SCALE: f64 = 0.5;
/// Workload scale of the kernels `sweep-store` encodes to trace files.
pub const SWEEP_SCALE: f64 = 1.0;
/// Kernels `sweep-store` encodes: the ML family plus one paper benchmark.
pub const SWEEP_KERNELS: [&str; 4] = ["gemm", "conv", "attn", "sc"];
const SWEEP_DESIGN_POINTS: [&str; 3] = ["baseline", "L1+L2", "L2+DRAM"];
const SWEEP_MODES: [&str; 2] = ["hierarchy", "fixed:200"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig1Fixed,
    DseHierarchy,
    SweepStore,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fig1-fixed" => Some(Workload::Fig1Fixed),
            "dse-hierarchy" => Some(Workload::DseHierarchy),
            "sweep-store" => Some(Workload::SweepStore),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1Fixed => "fig1-fixed",
            Workload::DseHierarchy => "dse-hierarchy",
            Workload::SweepStore => "sweep-store",
        }
    }

    /// Set-ups timed per pass: the in-pass one plus untimed-for-wall
    /// repeats before it, so `setup_s` is a median even for tiny set-ups.
    fn setup_samples(self) -> usize {
        match self {
            Workload::SweepStore => 3,
            _ => 15,
        }
    }

    /// Simulations one pass attempts.
    fn simulations(self) -> u64 {
        let suite = BENCHMARK_NAMES.len() as u64;
        match self {
            Workload::Fig1Fixed => suite * (1 + FIG1_LATENCIES.len() as u64),
            Workload::DseHierarchy => suite * (2 + DesignPoint::SECTION_IV.len() as u64),
            Workload::SweepStore => {
                (SWEEP_KERNELS.len() * SWEEP_DESIGN_POINTS.len() * SWEEP_MODES.len()) as u64
            }
        }
    }
}

/// One simulation a pass runs, as the benchmark models it: used by the
/// traced run to replay the pass simulation by simulation.
#[derive(Clone)]
pub struct SimJob {
    pub label: String,
    pub cfg: GpuConfig,
    pub program: Arc<dyn KernelProgram>,
    pub mode: MemoryMode,
    /// Warp instructions the kernel retires, for synthetic kernels.
    pub instructions: Option<u64>,
}

/// What one pass measured and produced.
#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub setup_s: Vec<f64>,
    /// CPU seconds spent inside the calls that simulate.
    pub sim_cpu_s: f64,
    pub sim_cycles: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `(label, digest)` of each experiment output (or sweep cell).
    pub outputs: Vec<(String, String)>,
    pub paper_err_pp: f64,
    pub problems: Vec<String>,
    pub jobs: Vec<SimJob>,
    /// Counters of the sweep layer, by metric name.
    pub counters: BTreeMap<&'static str, f64>,
    /// Tracer pass id, and whether the pass recorded spans.
    pub id: u32,
    pub traced: bool,
}

struct Kernel {
    program: Arc<dyn KernelProgram>,
    params: WorkloadParams,
}

enum Setup {
    Suite {
        cfg: GpuConfig,
        kernels: Vec<Kernel>,
        points: Vec<(DesignPoint, GpuConfig)>,
    },
    Sweep {
        spec: SweepSpec,
        cells: Vec<SweepCell>,
        store: PathBuf,
        trace_bytes: u64,
    },
}

/// Digest of any serializable value, as 32 hex chars.
pub fn digest<T: serde::Serialize>(value: &T) -> String {
    CellKey::from_canonical(&serde_json::to_string(value).expect("serializes")).to_string()
}

/// Seed 0 keeps the generator's canonical seed; any other workload seed
/// derives a new generator seed from both.
pub fn derive_seed(canonical: u64, seed: u64) -> u64 {
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    if seed == 0 {
        canonical
    } else {
        splitmix(canonical ^ splitmix(seed))
    }
}

/// Simulated cycles recovered from a reported IPC (`ipc` is
/// `instructions / cycles`, so this is exact).
fn cycles_from_ipc(instructions: u64, ipc: f64) -> Option<u64> {
    (ipc.is_finite() && ipc > 0.0).then(|| (instructions as f64 / ipc).round() as u64)
}

/// Runs `f`, turning a panic into its message.
pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned())
    })
}

pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pub workers: usize,
    pub work: PathBuf,
    pub tracer: Tracer,
}

impl Bench {
    /// Runs one pass, recording spans when `traced`.
    pub fn pass(&mut self, traced: bool) -> Pass {
        let (w, seed, workers) = (self.workload, self.seed, self.workers);
        let store = self.work.join("store");
        let tr = &mut self.tracer;
        let mut setup_s = Vec::new();
        tr.begin_pass(false);
        for _ in 1..w.setup_samples() {
            remove_dir(&store);
            let t = Instant::now();
            let s = catch(|| setup(tr, w, seed, &store));
            setup_s.push(t.elapsed().as_secs_f64());
            drop(s);
        }
        remove_dir(&store);

        let id = tr.begin_pass(traced);
        let (t0, cpu0) = (Instant::now(), cpu_seconds());
        let mut pass = tr.span("pass", w.name(), |tr| {
            let s = tr.span("setup", "", |tr| catch(|| setup(tr, w, seed, &store)));
            let setup_end = t0.elapsed().as_secs_f64();
            let mut pass = match s {
                Ok(Setup::Suite {
                    cfg,
                    kernels,
                    points,
                }) => match w {
                    Workload::Fig1Fixed => fig1(tr, &cfg, &kernels),
                    _ => dse(tr, &cfg, &kernels, &points),
                },
                Ok(Setup::Sweep {
                    spec,
                    cells,
                    store,
                    trace_bytes,
                }) => {
                    let mut pass = sweep(tr, &spec, &cells, &store, workers);
                    pass.counters
                        .insert("tracefmt.trace_bytes", trace_bytes as f64);
                    pass
                }
                Err(panic) => {
                    eprintln!("{}: set-up panicked: {panic}", w.name());
                    Pass {
                        attempted: w.simulations(),
                        failed: w.simulations(),
                        ..Pass::default()
                    }
                }
            };
            pass.setup_s.push(setup_end);
            pass
        });
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass.cpu_s = cpu_seconds() - cpu0;
        pass.setup_s.extend(setup_s);
        pass.id = id;
        pass.traced = traced;
        if w == Workload::SweepStore {
            sweep_disk_counters(&store, &mut pass);
        }
        remove_dir(&store);
        pass
    }
}

fn kernel(tr: &mut Tracer, name: &str, scale: f64, seed: u64) -> Kernel {
    tr.span("workloads.build", name, |_| {
        let mut params = params_of(name)
            .expect("canonical benchmark name")
            .scaled(scale);
        params.seed = derive_seed(params.seed, seed);
        let program: Arc<dyn KernelProgram> = Arc::new(SyntheticKernel::new(params.clone()));
        Kernel { program, params }
    })
}

/// Everything a pass does before its first simulation reaches the engine.
fn setup(tr: &mut Tracer, w: Workload, seed: u64, store: &Path) -> Setup {
    if w == Workload::SweepStore {
        return sweep_setup(tr, seed, store);
    }
    let kernels = BENCHMARK_NAMES
        .iter()
        .map(|n| kernel(tr, n, SUITE_SCALE, seed))
        .collect();
    let cfg = GpuConfig::gtx480();
    let points = if w == Workload::DseHierarchy {
        tr.span("config.apply", "section-iv", |_| {
            DesignPoint::SECTION_IV
                .iter()
                .map(|dp| {
                    let c = dp.apply(&cfg);
                    c.validate().expect("Section IV design points are valid");
                    (*dp, c)
                })
                .collect()
        })
    } else {
        Vec::new()
    };
    Setup::Suite {
        cfg,
        kernels,
        points,
    }
}

fn sweep_setup(tr: &mut Tracer, seed: u64, store: &Path) -> Setup {
    let line_bytes = GpuConfig::gtx480().line_bytes;
    let dir = store.with_file_name("traces");
    std::fs::create_dir_all(&dir).expect("create trace directory");
    let mut workloads = Vec::new();
    let mut trace_bytes = 0;
    for name in SWEEP_KERNELS {
        let kernel = kernel(tr, name, SWEEP_SCALE, seed);
        let text = tr.span("tracefmt.encode", name, |_| {
            gpumem_tracefmt::encode_program(kernel.program.as_ref(), line_bytes)
                .expect("suite kernels encode")
        });
        let path = dir.join(format!("{name}.trace"));
        std::fs::write(&path, &text).expect("write trace file");
        let read = std::fs::read_to_string(&path).expect("read trace file");
        trace_bytes += read.len() as u64;
        let decoded = tr.span("tracefmt.decode", name, |_| {
            gpumem_tracefmt::parse_str(&read)
        });
        decoded.expect("encoded traces decode");
        workloads.push(format!("trace:{}", path.display()));
    }
    let spec = SweepSpec {
        name: "perfbench-sweep-store".to_owned(),
        scale: 1.0,
        workloads,
        design_points: SWEEP_DESIGN_POINTS
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
        seeds: vec![0],
        modes: SWEEP_MODES.iter().map(|s| (*s).to_owned()).collect(),
        engines: vec!["event".to_owned()],
        max_cycles: DEFAULT_MAX_CYCLES,
        deadline_seconds: None,
    };
    let cells = tr
        .span("sweep.expand", "", |_| spec.expand())
        .expect("sweep spec expands");
    tr.span("sweep.open", "", |_| ResultStore::open(store))
        .expect("open empty store");
    Setup::Sweep {
        spec,
        cells,
        store: store.to_owned(),
        trace_bytes,
    }
}

fn remove_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove scratch directory");
    }
}

fn fig1(tr: &mut Tracer, cfg: &GpuConfig, kernels: &[Kernel]) -> Pass {
    let mut pass = Pass::default();
    let per_batch = 1 + FIG1_LATENCIES.len() as u64;
    let mut gaps = Vec::new();
    for k in kernels {
        let name = k.params.name.as_str();
        let instructions = k.params.approx_total_instructions();
        pass.jobs.push(job(
            format!("{name}/hierarchy"),
            cfg,
            k,
            MemoryMode::Hierarchy,
        ));
        for &l in &FIG1_LATENCIES {
            pass.jobs.push(job(
                format!("{name}/fixed-{l}"),
                cfg,
                k,
                MemoryMode::FixedLatency(l),
            ));
        }
        pass.attempted += per_batch;
        let cpu0 = cpu_seconds();
        let out = tr.span("core.latency_tolerance_profile", name, |_| {
            catch(|| latency_tolerance_profile(cfg, &k.program, &FIG1_LATENCIES))
        });
        pass.sim_cpu_s += cpu_seconds() - cpu0;
        let Some(profile) = settle(name, out, per_batch, &mut pass) else {
            continue;
        };
        let ipcs =
            std::iter::once(profile.baseline_ipc).chain(profile.points.iter().map(|p| p.ipc));
        for ipc in ipcs {
            match cycles_from_ipc(instructions, ipc) {
                Some(c) => pass.sim_cycles += c,
                None => pass
                    .problems
                    .push(format!("fig1 {name}: IPC {ipc} is not positive")),
            }
        }
        gaps.push((
            "fig1_ipc_at_measured_latency".to_owned(),
            100.0 * normalized_ipc_at(&profile.points, profile.baseline_avg_miss_latency),
        ));
        pass.outputs.push((name.to_owned(), digest(&profile)));
    }
    pass.paper_err_pp = paper_err_pp(&gaps);
    pass
}

/// Fixed-latency normalized IPC at `latency`, by linear interpolation
/// between the swept points (clamped to the swept range).
fn normalized_ipc_at(
    points: &[gpumem::experiments::latency_tolerance::LatencyPoint],
    latency: f64,
) -> f64 {
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return 0.0;
    };
    if latency <= first.latency as f64 {
        return first.normalized_ipc;
    }
    for w in points.windows(2) {
        let (a, b) = (w[0], w[1]);
        if latency <= b.latency as f64 {
            let t = (latency - a.latency as f64) / (b.latency - a.latency) as f64;
            return a.normalized_ipc + t * (b.normalized_ipc - a.normalized_ipc);
        }
    }
    last.normalized_ipc
}

fn job(label: String, cfg: &GpuConfig, k: &Kernel, mode: MemoryMode) -> SimJob {
    SimJob {
        label,
        cfg: cfg.clone(),
        program: Arc::clone(&k.program),
        mode,
        instructions: Some(k.params.approx_total_instructions()),
    }
}

fn dse(
    tr: &mut Tracer,
    cfg: &GpuConfig,
    kernels: &[Kernel],
    points: &[(DesignPoint, GpuConfig)],
) -> Pass {
    let mut pass = Pass::default();
    let programs: Vec<Arc<dyn KernelProgram>> =
        kernels.iter().map(|k| Arc::clone(&k.program)).collect();
    let instructions: BTreeMap<&str, u64> = kernels
        .iter()
        .map(|k| (k.params.name.as_str(), k.params.approx_total_instructions()))
        .collect();
    for k in kernels {
        pass.jobs.push(job(
            format!("congestion/{}", k.params.name),
            cfg,
            k,
            MemoryMode::Hierarchy,
        ));
    }
    for k in kernels {
        pass.jobs.push(job(
            format!("dse/baseline/{}", k.params.name),
            cfg,
            k,
            MemoryMode::Hierarchy,
        ));
    }
    for (dp, c) in points {
        for k in kernels {
            pass.jobs.push(job(
                format!("dse/{}/{}", dp.label(), k.params.name),
                c,
                k,
                MemoryMode::Hierarchy,
            ));
        }
    }
    let add_cycles = |pass: &mut Pass, name: &str, ipc: f64| match instructions
        .get(name)
        .and_then(|&n| cycles_from_ipc(n, ipc))
    {
        Some(c) => pass.sim_cycles += c,
        None => pass
            .problems
            .push(format!("dse {name}: IPC {ipc} gives no cycle count")),
    };

    let n = kernels.len() as u64;
    pass.attempted += n;
    let cpu0 = cpu_seconds();
    let congestion = tr.span("core.congestion_study", "", |_| {
        catch(|| congestion_study(cfg, &programs))
    });
    pass.sim_cpu_s += cpu_seconds() - cpu0;
    let mut figures = Vec::new();
    if let Some(study) = settle("congestion_study", congestion, n, &mut pass) {
        for row in &study.rows {
            add_cycles(&mut pass, &row.benchmark, row.ipc);
        }
        figures.push((
            "l2_access_queue_full".to_owned(),
            100.0 * study.avg_l2_access_full,
        ));
        figures.push((
            "dram_sched_queue_full".to_owned(),
            100.0 * study.avg_dram_sched_full,
        ));
        pass.outputs.push(("congestion".to_owned(), digest(&study)));
    }

    let batch = n * (1 + points.len() as u64);
    pass.attempted += batch;
    let dps: Vec<DesignPoint> = points.iter().map(|(dp, _)| *dp).collect();
    let cpu0 = cpu_seconds();
    let study = tr.span("core.design_space_exploration", "", |_| {
        catch(|| design_space_exploration(cfg, &programs, &dps))
    });
    pass.sim_cpu_s += cpu_seconds() - cpu0;
    if let Some(study) = settle("design_space_exploration", study, batch, &mut pass) {
        let base: BTreeMap<&str, f64> = study
            .baseline_ipc
            .iter()
            .map(|(b, ipc)| (b.as_str(), *ipc))
            .collect();
        for (b, ipc) in &study.baseline_ipc {
            add_cycles(&mut pass, b, *ipc);
        }
        for point in &study.points {
            for (b, s) in &point.speedups {
                add_cycles(
                    &mut pass,
                    b,
                    base.get(b.as_str()).copied().unwrap_or(0.0) * s,
                );
            }
            let id = format!("speedup_{}", point.design.label());
            figures.push((id, 100.0 * (point.average_speedup() - 1.0)));
        }
        pass.outputs.push(("dse".to_owned(), digest(&study)));
    }
    if figures.len() == 7 {
        pass.paper_err_pp = paper_err_pp(&figures);
    }
    pass
}

fn sweep(
    tr: &mut Tracer,
    spec: &SweepSpec,
    cells: &[SweepCell],
    store: &Path,
    workers: usize,
) -> Pass {
    let mut pass = Pass::default();
    let labels: Vec<String> = cells
        .iter()
        .map(|c| format!("{}/{}/{}", c.workload.name(), c.design_point, c.mode))
        .collect();
    for (c, label) in cells.iter().zip(&labels) {
        pass.jobs.push(SimJob {
            label: label.clone(),
            cfg: c.cfg.clone(),
            program: c.workload.program(),
            mode: c.mode,
            instructions: None,
        });
    }
    let opts = SweepOptions {
        workers,
        ..SweepOptions::default()
    };
    let n = cells.len() as u64;
    pass.attempted += n;
    let cpu0 = cpu_seconds();
    let cold = tr.span("core.run_sweep", "cold", |_| {
        catch(|| run_sweep(spec, store, &opts))
    });
    pass.sim_cpu_s += cpu_seconds() - cpu0;
    let warm = tr.span("sweep.run_sweep_warm", "warm", |_| {
        catch(|| run_sweep(spec, store, &opts))
    });
    let Some(cold) = settle("cold run_sweep", cold, n, &mut pass) else {
        return pass;
    };
    pass.failed += cold.failed as u64;
    if cold.simulations_run() != cells.len() {
        pass.problems.push(format!(
            "cold sweep ran {} of {} cells",
            cold.simulations_run(),
            cells.len()
        ));
    }
    if let Some(warm) = settle("warm run_sweep", warm, 0, &mut pass) {
        if warm.simulations_run() != 0 {
            pass.problems.push(format!(
                "warm sweep ran {} simulations",
                warm.simulations_run()
            ));
        }
        if warm.store_digest != cold.store_digest {
            pass.problems
                .push("warm sweep store digest differs from the cold pass".to_owned());
        }
        pass.counters
            .insert("sweep.hit_frac_warm", warm.cache_hits as f64 / n as f64);
    } else {
        pass.problems.push("warm run_sweep failed".to_owned());
    }
    pass.counters.insert(
        "sweep.attempts_per_cell",
        cold.attempts_total as f64 / n as f64,
    );
    pass.outputs
        .push(("store".to_owned(), cold.store_digest.clone()));
    for (o, label) in cold.outcomes.iter().zip(&labels) {
        pass.outputs
            .push((label.clone(), o.result_digest.clone().unwrap_or_default()));
    }

    let reports = tr.span("sweep.peek", "", |_| {
        catch(|| {
            let store = ResultStore::open(store)?;
            cells
                .iter()
                .map(|c| store.peek(c.key))
                .collect::<Result<Vec<_>, _>>()
        })
    });
    let Some(envelopes) = settle("reading the store back", reports, 0, &mut pass) else {
        pass.problems
            .push("reading the store back failed".to_owned());
        return pass;
    };
    // The paper's figures are suite averages; here they are averaged over
    // the sweep's kernels, from their hierarchy cells.
    let mut sums = [0.0f64; 4];
    let mut base_ipc = BTreeMap::new();
    let mut measured = 0;
    for (c, env) in cells.iter().zip(&envelopes) {
        let Some(env) = env else {
            continue;
        };
        pass.sim_cycles += env.report.cycles;
        if c.mode != MemoryMode::Hierarchy {
            continue;
        }
        let r = &env.report;
        measured += 1;
        match c.design_point.as_str() {
            "baseline" => {
                base_ipc.insert(c.workload.name().to_owned(), r.ipc);
                sums[0] += 100.0 * r.l2_access_queue_full_fraction().unwrap_or(0.0);
                sums[1] += 100.0 * r.dram_queue_full_fraction().unwrap_or(0.0);
            }
            dp => {
                let base = base_ipc.get(c.workload.name()).copied().unwrap_or(0.0);
                let slot = if dp == SWEEP_DESIGN_POINTS[1] { 2 } else { 3 };
                sums[slot] += 100.0 * (r.ipc / base - 1.0);
            }
        }
    }
    let k = SWEEP_KERNELS.len() as f64;
    let figures: Vec<(String, f64)> = [
        "l2_access_queue_full".to_owned(),
        "dram_sched_queue_full".to_owned(),
        format!("speedup_{}", SWEEP_DESIGN_POINTS[1]),
        format!("speedup_{}", SWEEP_DESIGN_POINTS[2]),
    ]
    .into_iter()
    .zip(sums.map(|s| s / k))
    .collect();
    if measured == SWEEP_KERNELS.len() * SWEEP_DESIGN_POINTS.len() {
        pass.paper_err_pp = paper_err_pp(&figures);
    } else {
        pass.problems
            .push(format!("sweep: {measured} hierarchy cells read back"));
    }
    pass
}

/// Unwraps a layer call's outcome. On a returned error or a panic it
/// reports the failure and counts the `sims` simulations the call covered
/// as failed.
fn settle<T, E: std::fmt::Display>(
    what: &str,
    out: Result<Result<T, E>, String>,
    sims: u64,
    pass: &mut Pass,
) -> Option<T> {
    let err = match out {
        Ok(Ok(v)) => return Some(v),
        Ok(Err(e)) => e.to_string(),
        Err(panic) => format!("panicked: {panic}"),
    };
    eprintln!("{what}: {err}");
    pass.failed += sims;
    None
}

/// Journal and store sizes after the pass, per cell.
fn sweep_disk_counters(store: &Path, pass: &mut Pass) {
    let cells = pass.attempted.max(1) as f64;
    if let Ok(s) = ResultStore::open(store) {
        pass.counters.insert(
            "sweep.journal_bytes_per_cell",
            s.journal_bytes() as f64 / cells,
        );
    }
    pass.counters.insert(
        "sweep.store_kb_per_cell",
        dir_bytes(store) as f64 / 1024.0 / cells,
    );
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
