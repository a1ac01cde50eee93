//! CLI contract tests for the `repro` binary: the typed-error exits the
//! trace frontend and sweep store promise, plus a trace-gen → run round
//! trip. Each test invokes the real binary (`CARGO_BIN_EXE_repro`), so
//! exit codes and diagnostics are checked exactly as CI and users see
//! them.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Per-test scratch path that does not exist yet.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpumem-repro-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn query_on_missing_store_is_typed_exit_2_and_mints_nothing() {
    let store = scratch("absent-store");
    let out = repro(&["sweep", "--query", store.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("no results store"),
        "diagnostic must name the missing store, got: {}",
        stderr_of(&out)
    );
    assert!(
        !store.exists(),
        "a read-only query must not create a store skeleton"
    );
}

#[test]
fn sweep_with_unknown_workload_spec_is_typed_exit_2() {
    let dir = scratch("bad-spec");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        r#"{"name":"bad","scale":0.1,"workloads":["nonesuch"],"design_points":["baseline"],
           "seeds":[0],"modes":["hierarchy"],"engines":["event"],"max_cycles":1000000,
           "deadline_seconds":null}"#,
    )
    .unwrap();
    let store = dir.join("store");
    let out = repro(&[
        "sweep",
        "--store",
        store.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("nonesuch"),
        "diagnostic must name the unknown workload, got: {}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-cell sweep spec over `engines`, as JSON.
fn one_cell_spec(engines: &str) -> String {
    format!(
        r#"{{"name":"one","scale":0.05,"workloads":["nw"],"design_points":["baseline"],
           "seeds":[0],"modes":["fixed:200"],"engines":[{engines}],"max_cycles":1000000,
           "deadline_seconds":null}}"#
    )
}

fn assert_names_the_retired_engine(out: &Output) {
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(out));
    let err = stderr_of(out);
    assert!(
        err.contains("parallel:2:auto") && err.contains("`event` or `stepped`"),
        "diagnostic must name the engine and the allowed spellings, got: {err}"
    );
}

#[test]
fn sweep_spec_naming_a_retired_engine_is_typed_exit_2() {
    let dir = scratch("retired-engine");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, one_cell_spec(r#""parallel:2:auto""#)).unwrap();
    let store = dir.join("store");
    let out = repro(&[
        "sweep",
        "--store",
        store.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert_names_the_retired_engine(&out);
    assert!(!store.exists(), "a rejected spec must not mint a store");

    // A store whose recorded spec names the retired engine fails the same
    // way on `--resume`.
    std::fs::write(&spec, one_cell_spec(r#""event""#)).unwrap();
    let out = repro(&[
        "sweep",
        "--store",
        store.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    std::fs::write(
        store.join("spec.json"),
        one_cell_spec(r#""parallel:2:auto""#),
    )
    .unwrap();
    let out = repro(&["sweep", "--resume", store.to_str().unwrap()]);
    assert_names_the_retired_engine(&out);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_with_a_panicking_cell_fails_it_and_exits_1() {
    // 64 warps per CTA exceed the GTX480's 48 warp slots: the trace cell
    // panics on construction, and the synthetic cell must still commit.
    let dir = scratch("wide-cta");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("wide.trace");
    let mut text = String::from(
        "gpumem-trace v1\nkernel name=wide grid=1 warps_per_cta=64 max_ctas_per_core=1 \
         shmem_bytes=0 line_bytes=128\n",
    );
    for w in 0..64 {
        text.push_str(&format!("warp cta=0 warp={w}\nALU lat=4\nend\n"));
    }
    std::fs::write(&trace, text).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, one_cell_spec(r#""event""#)).unwrap();
    let store = dir.join("store");
    let out = repro(&[
        "sweep",
        "--store",
        store.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
        "--trace-file",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("Failed (panicked: ") && stdout.contains("computed: 1"),
        "the bad cell fails alone, got:\n{stdout}"
    );
    let journal = std::fs::read_to_string(store.join("journal.log")).unwrap();
    assert!(journal.contains("\"Failed\"") && journal.contains("\"Done\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_engine_flags_are_unknown_arguments() {
    for args in [["perf", "--threads", "2"], ["chaos", "--epoch", "auto"]] {
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains(&format!("unknown argument: {}", args[1])),
            "{args:?}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn malformed_trace_is_a_line_numbered_exit_2() {
    let dir = scratch("bad-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("bad.trace");
    std::fs::write(&trace, "gpumem-trace v1\nkernel name=x grid=zero\n").unwrap();
    let out = repro(&["run", "--trace-file", trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("line 2"),
        "diagnostic must carry the offending line number, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_rejects_unknown_benchmarks_and_empty_worklists() {
    let out = repro(&["run", "nonesuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown benchmark"));

    let out = repro(&["run"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("needs at least one workload"));
}

#[test]
fn trace_gen_round_trips_through_run_bit_identically() {
    let dir = scratch("roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("gemm.trace");
    let out = repro(&[
        "trace-gen",
        "gemm",
        "--scale",
        "0.05",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.starts_with("gpumem-trace v1\n"));

    // The traced replay and the synthetic original run side by side
    // through both engines; `run` exits non-zero on any divergence.
    let out = repro(&[
        "run",
        "gemm",
        "--scale",
        "0.05",
        "--trace-file",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let cycle_counts: std::collections::BTreeSet<&str> = stdout
        .lines()
        .filter(|l| l.contains("/ hierarchy:"))
        .collect();
    assert_eq!(
        cycle_counts.len(),
        1,
        "synthetic and traced gemm must report identical cycles/instructions:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
