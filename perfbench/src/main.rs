//! Benchmark of the gpumem simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig1-fixed|dse-hierarchy|sweep-store --seed N --seconds S --trace 0|1
//! ```
//!
//! Repeats passes of the workload for `--seconds`, checks the simulated
//! results, and prints every metric with its unit, then one JSON object
//! as the last line. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics from a separate traced run. See
//! `perfbench/README.md` for what each metric means.

mod alloc;
mod host;
mod micro;
mod reference;
mod replay;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Tracer;
use stats::median;
use workload::{Bench, Pass, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Largest tolerated gap between the summed span self times of a traced
/// pass and its separately measured wall time.
const SPAN_TOLERANCE: f64 = 0.01;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bless) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        bless,
    })
}

/// Removes the run's scratch directory (trace files, stores) on exit.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload fig1-fixed|dse-hierarchy|sweep-store --seed N --seconds S --trace 0|1 [--bless]");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let scratch = ScratchDir(root.join(format!("run-{}", std::process::id())));
    let mut bench = Bench {
        workload: args.workload,
        seed: if args.bless { 0 } else { args.seed },
        // Worker threads for the sweep pool: one per host CPU, as the
        // experiment pools use.
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work: scratch.0.clone(),
        tracer: Tracer::new(),
    };
    if args.bless {
        bless(&mut bench);
        drop(scratch);
        let _ = std::fs::remove_dir(&root);
        return ExitCode::SUCCESS;
    }
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut outcome = if args.trace {
        traced_run(&mut bench, deadline)
    } else {
        untraced_run(&mut bench, deadline)
    };
    if args.trace {
        let path =
            root.join("spans")
                .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        let written = std::fs::create_dir_all(path.parent().expect("has parent"))
            .and_then(|()| std::fs::write(&path, bench.tracer.to_jsonl()));
        if let Err(e) = written {
            outcome
                .problems
                .push(format!("writing spans to {}: {e}", path.display()));
        }
    }
    drop(scratch);
    let _ = std::fs::remove_dir(&root); // only if nothing else is left in it

    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    let mut json = String::new();
    for (name, value, unit) in &outcome.metrics {
        // `+ 0.0` turns the -0.0 of an empty sum into 0.0.
        let v = if value.is_finite() { value + 0.0 } else { 0.0 };
        println!("{name:<36} {v:>16.6} {unit}");
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if json.is_empty() { "" } else { ", " }
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    );
    ExitCode::SUCCESS
}

/// Checks one pass's outputs: against the committed digests at seed 0,
/// and against the run's first pass at every seed (determinism).
fn check_outputs(bench: &Bench, first: Option<&Pass>, pass: &mut Pass) {
    let problems = match first {
        None if bench.seed == 0 => {
            reference::check_digests(bench.workload.name(), "output", &pass.outputs)
        }
        Some(first) if pass.outputs != first.outputs || pass.paper_err_pp != first.paper_err_pp => {
            vec!["outputs differ from the run's first pass".to_owned()]
        }
        _ => Vec::new(),
    };
    if !problems.is_empty() {
        pass.failed = pass.attempted;
        pass.problems.extend(problems);
    }
}

fn run_passes(bench: &mut Bench, deadline: Instant, traced: impl Fn(usize) -> bool) -> Vec<Pass> {
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let mut p = bench.pass(traced(passes.len()));
        check_outputs(bench, passes.first(), &mut p);
        if !passes.is_empty() {
            p.jobs.clear(); // only the first pass is replayed
        }
        eprintln!(
            "pass {}{}: wall {:.4} s, cpu {:.4} s, simulating {:.4} cpu-s for {} cycles",
            passes.len() + 1,
            if p.traced { " (traced)" } else { "" },
            p.wall_s,
            p.cpu_s,
            p.sim_cpu_s,
            p.sim_cycles
        );
        passes.push(p);
        if Instant::now() >= deadline && passes.len() >= 2 {
            return passes;
        }
    }
}

fn totals(passes: &[&Pass]) -> (u64, u64, Vec<String>) {
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    let problems = passes
        .iter()
        .flat_map(|p| p.problems.iter().cloned())
        .collect();
    (attempted, failed, problems)
}

fn untraced_run(bench: &mut Bench, deadline: Instant) -> Outcome {
    let passes = run_passes(bench, deadline, |_| false);
    let all: Vec<&Pass> = passes.iter().collect();
    let (attempted, failed, problems) = totals(&all);
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    let metrics = vec![
        ("wall_s", per_pass(&|p| p.wall_s), "s"),
        ("cpu_s", per_pass(&|p| p.cpu_s), "s"),
        (
            "sim_mcyc_per_s",
            per_pass(&|p| p.sim_cycles as f64 / p.sim_cpu_s.max(1e-9) / 1e6),
            "Mcycle/s",
        ),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mb", host::peak_rss_mb(), "MB"),
        ("ok_frac", 1.0 - failed_frac, "ratio"),
        ("paper_err_pp", passes[0].paper_err_pp, "pp"),
    ];
    Outcome {
        metrics,
        attempted,
        failed,
        problems,
    }
}

/// Metrics the traced run reports, in output order, with their units.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("tracefmt.encode_s", "s"),
    ("tracefmt.decode_mb_per_s", "MB/s"),
    ("config.apply_us", "us"),
    ("sim.new_us", "us"),
    ("sim.run_s", "s"),
    ("sim.ns_per_cycle.hierarchy", "ns"),
    ("sim.ns_per_cycle.fixed", "ns"),
    ("sim.skipped_frac", "ratio"),
    ("sim.allocs_per_kcycle.hierarchy", "allocs/kcycle"),
    ("sim.allocs_per_kcycle.fixed", "allocs/kcycle"),
    ("sim.alloc_mb_per_mcycle.hierarchy", "MB/Mcycle"),
    ("sim.alloc_mb_per_mcycle.fixed", "MB/Mcycle"),
    ("sim.sched_share", "ratio"),
    ("simt.share", "ratio"),
    ("cache.l1_share", "ratio"),
    ("noc.share", "ratio"),
    ("sim.partition_share", "ratio"),
    ("dram.share", "ratio"),
    ("simt.ns_per_core_cycle", "ns"),
    ("cache.l1.ns_per_core_cycle", "ns"),
    ("noc.ns_per_xbar_tick", "ns"),
    ("sim.partition.ns_per_cycle", "ns"),
    ("dram.ns_per_partition_cycle", "ns"),
    ("sim.profile_overhead_frac", "ratio"),
    ("sim.profile_bucket_gap_frac", "ratio"),
    ("cache.tag_access_ns", "ns"),
    ("cache.tag_access_iqr_ns", "ns"),
    ("cache.mshr_op_ns", "ns"),
    ("cache.mshr_op_iqr_ns", "ns"),
    ("cache.l1_access_ns", "ns"),
    ("cache.l1_access_iqr_ns", "ns"),
    ("noc.xbar_tick_ns", "ns"),
    ("noc.xbar_tick_iqr_ns", "ns"),
    ("dram.channel_tick_ns", "ns"),
    ("dram.channel_tick_iqr_ns", "ns"),
    ("core.batch_s", "s"),
    ("core.pool_idle_frac", "ratio"),
    ("core.duplicate_sims", "count"),
    ("sweep.expand_s", "s"),
    ("sweep.open_ms", "ms"),
    ("sweep.cold_s", "s"),
    ("sweep.warm_s", "s"),
    ("sweep.peek_us_per_cell", "us"),
    ("sweep.hit_frac_warm", "ratio"),
    ("sweep.attempts_per_cell", "count"),
    ("sweep.journal_bytes_per_cell", "B"),
    ("sweep.store_kb_per_cell", "KB"),
    ("model.ipc_geomean", "ipc"),
    ("cache.l1_miss_rate", "ratio"),
    ("sim.l2_miss_rate", "ratio"),
    ("sim.l2_access_full_frac", "ratio"),
    ("dram.sched_full_frac", "ratio"),
    ("dram.row_hit_rate", "ratio"),
    ("noc.credit_stall_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.span_gap_frac", "ratio"),
    ("trace.spans_per_pass", "count"),
];

/// Per-layer metrics that are the summed duration of one span name per
/// pass, times a unit factor.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("workloads.build_s", "workloads.build", 1.0),
    ("tracefmt.encode_s", "tracefmt.encode", 1.0),
    ("config.apply_us", "config.apply", 1e6),
    ("sweep.expand_s", "sweep.expand", 1.0),
    ("sweep.open_ms", "sweep.open", 1e3),
    ("sweep.cold_s", "core.run_sweep", 1.0),
    ("sweep.warm_s", "sweep.run_sweep_warm", 1.0),
];

/// Alternates untraced and traced passes until the deadline, then
/// replays one pass simulation by simulation and runs the substrate
/// microbenchmarks. Metrics of layers a workload does not use read 0.
fn traced_run(bench: &mut Bench, deadline: Instant) -> Outcome {
    let passes = run_passes(bench, deadline, |i| i % 2 == 1);
    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| p.traced);
    let (mut attempted, mut failed, mut problems) = totals(&passes.iter().collect::<Vec<_>>());
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let tr = &bench.tracer;
    let over = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());

    let mut span_gap: f64 = 0.0;
    for p in &traced {
        match tr.self_time_sum(p.id) {
            Ok(sum) => span_gap = span_gap.max((sum - p.wall_s).abs() / p.wall_s),
            Err(e) => problems.push(e),
        }
    }
    if span_gap > SPAN_TOLERANCE {
        problems.push(format!(
            "span self times differ from wall_s by {:.2}%",
            span_gap * 100.0
        ));
    }
    let wall = |ps: &[&Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    values.insert("trace.overhead_frac", wall(&traced) / wall(&untraced) - 1.0);
    values.insert("trace.span_gap_frac", span_gap);
    values.insert(
        "trace.spans_per_pass",
        over(&|p| tr.pass_spans(p.id).count() as f64),
    );

    for (metric, span, scale) in SPAN_METRICS {
        values.insert(metric, over(&|p| tr.total(p.id, span) * scale));
    }
    let batch_s = over(&|p| {
        tr.pass_spans(p.id)
            .filter(|s| s.name.starts_with("core."))
            .map(spans::Span::seconds)
            .sum()
    });
    values.insert("core.batch_s", batch_s);
    let counter = |p: &Pass, name: &str| p.counters.get(name).copied().unwrap_or(0.0);
    values.insert(
        "tracefmt.decode_mb_per_s",
        over(&|p| {
            let secs = tr.total(p.id, "tracefmt.decode");
            if secs > 0.0 {
                counter(p, "tracefmt.trace_bytes") / 1e6 / secs
            } else {
                0.0
            }
        }),
    );
    if bench.workload == Workload::SweepStore {
        values.insert(
            "sweep.peek_us_per_cell",
            over(&|p| tr.total(p.id, "sweep.peek") * 1e6 / p.attempted.max(1) as f64),
        );
        for name in [
            "sweep.hit_frac_warm",
            "sweep.attempts_per_cell",
            "sweep.journal_bytes_per_cell",
            "sweep.store_kb_per_cell",
        ] {
            values.insert(name, over(&|p| counter(p, name)));
        }
    }

    let rep = replay::replay(&mut bench.tracer, &passes[0].jobs);
    attempted += rep.attempted;
    failed += rep.failed;
    problems.extend(rep.problems.iter().cloned());
    if bench.seed == 0 {
        problems.extend(reference::check_digests(
            bench.workload.name(),
            "sim",
            &rep.digests,
        ));
    }
    for (name, v, _) in &rep.metrics {
        values.insert(name, *v);
    }
    values.insert(
        "core.pool_idle_frac",
        1.0 - rep.run_s / (bench.workers as f64 * batch_s),
    );

    values.extend(micro::run_all(bench.seed));

    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Outcome {
        metrics,
        attempted,
        failed,
        problems,
    }
}

/// Prints the digests of one seed-0 pass and of its replay, in the
/// format of `reference/digests_seed0.tsv`.
fn bless(bench: &mut Bench) {
    let pass = bench.pass(false);
    let jobs = pass.jobs.clone();
    let rep = replay::replay(&mut bench.tracer, &jobs);
    let name = bench.workload.name();
    for (label, d) in &pass.outputs {
        println!("{name}\toutput\t{label}\t{d}");
    }
    for (label, d) in &rep.digests {
        println!("{name}\tsim\t{label}\t{d}");
    }
}
