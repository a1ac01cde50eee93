//! Substrate microbenchmarks through the public `TagArray`, `MshrTable`,
//! `L1Dcache`, `Crossbar` and `DramChannel` functions. Inputs are drawn
//! from the workload seed before timing; each benchmark reports the
//! median and interquartile range of ns per operation over `REPEATS`
//! timed batches.

use std::hint::black_box;
use std::time::Instant;

use gpumem_cache::{L1Dcache, MshrTable, TagArray};
use gpumem_config::GpuConfig;
use gpumem_dram::DramChannel;
use gpumem_noc::{Crossbar, Packet};
use gpumem_types::{AccessKind, CoreId, Cycle, FetchId, LineAddr, MemFetch, SimRng};

use crate::stats::{iqr, median};

const REPEATS: usize = 31;

fn fetch(id: u64, line: u64) -> MemFetch {
    MemFetch::new(
        FetchId::new(id),
        AccessKind::Load,
        LineAddr::new(line),
        CoreId::new(0),
    )
}

/// Times `REPEATS` batches of `ops` operations; returns
/// `[(name, median ns/op), (iqr_name, IQR ns/op)]`.
fn measure(
    [name, iqr_name]: [&'static str; 2],
    ops: usize,
    mut batch: impl FnMut() -> u64,
) -> [(&'static str, f64); 2] {
    black_box(batch()); // warm-up
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            black_box(batch());
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    [(name, median(&samples)), (iqr_name, iqr(&samples))]
}

fn lines(rng: &mut SimRng, n: usize, range: u64) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(range)).collect()
}

pub fn run_all(seed: u64) -> Vec<(&'static str, f64)> {
    let cfg = GpuConfig::gtx480();
    let mut rng = SimRng::new(seed ^ 0x6d69_6372_6f62_656e);
    let mut out = Vec::new();

    let tag_lines = lines(&mut rng, 4096, 1024);
    let mut tags = TagArray::new(64, 8);
    for i in 0..512u64 {
        tags.fill((i % 64) as usize, LineAddr::new(i), Cycle::new(i));
    }
    let mut now = 0u64;
    out.extend(measure(
        ["cache.tag_access_ns", "cache.tag_access_iqr_ns"],
        tag_lines.len(),
        || {
            let mut hits = 0;
            for &line in &tag_lines {
                now += 1;
                let set = (line % 64) as usize;
                if tags.access(set, LineAddr::new(line), Cycle::new(now)) {
                    hits += 1;
                } else {
                    tags.fill(set, LineAddr::new(line), Cycle::new(now));
                }
            }
            hits
        },
    ));

    let mshr_lines = lines(&mut rng, 1024, 48);
    out.extend(measure(
        ["cache.mshr_op_ns", "cache.mshr_op_iqr_ns"],
        mshr_lines.len(),
        || {
            let mut mshr: MshrTable<u64> = MshrTable::new(64, 8);
            let mut woken = 0;
            for (i, &l) in mshr_lines.iter().enumerate() {
                let line = LineAddr::new(l);
                if mshr.can_accept(line) {
                    let _ = mshr.allocate(line, i as u64);
                }
                if i % 3 == 0 {
                    woken += mshr.complete(line).len() as u64;
                }
            }
            woken + mshr.len() as u64
        },
    ));

    let l1_lines = lines(&mut rng, 1024, 96);
    out.extend(measure(
        ["cache.l1_access_ns", "cache.l1_access_iqr_ns"],
        l1_lines.len(),
        || {
            let mut l1 = L1Dcache::new(&cfg);
            let mut now = Cycle::ZERO;
            let mut ready = 0;
            for (i, &line) in l1_lines.iter().enumerate() {
                now += 1;
                let _ = l1.access(fetch(i as u64, line), now);
                if let Some(req) = l1.pop_miss() {
                    ready += l1.fill(req, now + 100).len() as u64;
                }
                ready += l1.pop_ready_hits(now).len() as u64;
            }
            ready
        },
    ));

    let dests = lines(&mut rng, 2000, 6);
    out.extend(measure(
        ["noc.xbar_tick_ns", "noc.xbar_tick_iqr_ns"],
        dests.len(),
        || {
            let mut x = Crossbar::new(15, 6, &cfg.noc);
            let mut now = Cycle::ZERO;
            let mut delivered = 0;
            for (i, &dest) in dests.iter().enumerate() {
                let input = i % 15;
                if x.can_inject(input) {
                    let pkt = Packet::new(
                        fetch(i as u64, i as u64),
                        dest as usize,
                        8,
                        cfg.noc.flit_bytes,
                    );
                    let _ = x.try_inject(input, pkt);
                }
                x.tick(now).expect("crossbar tick");
                now = now.next();
                for o in 0..6 {
                    while x.pop_ejected(o).is_some() {
                        delivered += 1;
                    }
                }
            }
            delivered
        },
    ));

    let dram_lines = lines(&mut rng, 2000, 1_000_000);
    out.extend(measure(
        ["dram.channel_tick_ns", "dram.channel_tick_iqr_ns"],
        dram_lines.len(),
        || {
            let mut d = DramChannel::new(&cfg, 0);
            let mut now = Cycle::ZERO;
            let mut done = 0;
            for (i, &line) in dram_lines.iter().enumerate() {
                if i % 2 == 0 && d.can_accept(AccessKind::Load) {
                    let _ = d.try_push(fetch(i as u64, line), now);
                }
                d.tick(now).expect("dram tick");
                now = now.next();
                while d.pop_return().is_some() {
                    done += 1;
                }
            }
            done
        },
    ));
    out
}
