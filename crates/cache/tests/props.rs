//! Property tests for the cache substrate.

use std::collections::{BTreeMap, HashSet};

use gpumem_cache::{
    L1AccessOutcome, L1Dcache, MshrAllocation, MshrError, MshrTable, ReplacementOutcome, TagArray,
};
use gpumem_config::GpuConfig;
use gpumem_types::{AccessKind, CoreId, Cycle, FetchId, LineAddr, MemFetch};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum TagOp {
    Access(u64),
    Fill(u64),
    Dirty(u64),
    Invalidate(u64),
}

fn tag_ops() -> impl Strategy<Value = Vec<TagOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..64).prop_map(TagOp::Access),
            (0u64..64).prop_map(TagOp::Fill),
            (0u64..64).prop_map(TagOp::Dirty),
            (0u64..64).prop_map(TagOp::Invalidate),
        ],
        0..300,
    )
}

proptest! {
    /// Tag-array invariants: no duplicate tags within a set, valid lines
    /// never exceed capacity, and a line reported resident really was
    /// filled and not yet evicted (tracked by a model set).
    #[test]
    fn tag_array_consistency(sets_log in 0u32..4, assoc in 1usize..8, ops in tag_ops()) {
        let sets = 1usize << sets_log;
        let mut tags = TagArray::new(sets, assoc);
        let mut resident: HashSet<u64> = HashSet::new();
        let mut now = Cycle::ZERO;
        for op in ops {
            now = now.next();
            match op {
                TagOp::Access(l) => {
                    let set = (l % sets as u64) as usize;
                    let hit = tags.access(set, LineAddr::new(l), now);
                    prop_assert_eq!(hit, resident.contains(&l), "line {}", l);
                }
                TagOp::Fill(l) => {
                    let set = (l % sets as u64) as usize;
                    match tags.fill(set, LineAddr::new(l), now) {
                        ReplacementOutcome::Evicted(e) => {
                            prop_assert!(resident.remove(&e.line.index()));
                        }
                        ReplacementOutcome::FilledFree => {}
                        ReplacementOutcome::AlreadyPresent => {
                            prop_assert!(resident.contains(&l));
                        }
                    }
                    resident.insert(l);
                }
                TagOp::Dirty(l) => {
                    let set = (l % sets as u64) as usize;
                    let marked = tags.mark_dirty(set, LineAddr::new(l));
                    prop_assert_eq!(marked, resident.contains(&l));
                }
                TagOp::Invalidate(l) => {
                    let set = (l % sets as u64) as usize;
                    let evicted = tags.invalidate(set, LineAddr::new(l));
                    prop_assert_eq!(evicted.is_some(), resident.remove(&l));
                }
            }
            prop_assert!(tags.valid_lines() <= sets * assoc);
            prop_assert_eq!(tags.valid_lines(), resident.len());
            for set in 0..sets {
                let mut seen = HashSet::new();
                for line in tags.lines_in_set(set) {
                    prop_assert!(seen.insert(line), "duplicate tag {line}");
                    prop_assert_eq!((line.index() % sets as u64) as usize, set);
                }
            }
        }
    }

    /// MSHR: waiters are conserved — everything allocated is returned by
    /// exactly one completion, in arrival order — and capacities are
    /// enforced, checked against a map-of-vectors reference model after
    /// every operation. Ops: 0 = `allocate`, 1 = `reserve` + `commit`,
    /// 2 = `complete`, 3 = `complete_into` an already non-empty buffer
    /// followed at once by re-allocating the same line (the freed waiter
    /// list is recycled for the next entry).
    #[test]
    fn mshr_conserves_waiters(
        entries in 1usize..8,
        merge in 1usize..6,
        ops in prop::collection::vec((0u64..16, 0u8..4), 0..200),
    ) {
        let mut mshr: MshrTable<u64> = MshrTable::new(entries, merge);
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut next_waiter = 0u64;
        let mut allocated: u64 = 0;
        let mut returned: u64 = 0;
        let mut buf: Vec<u64> = Vec::new();
        for (line, op) in ops {
            let addr = LineAddr::new(line);
            let mut allocate = |mshr: &mut MshrTable<u64>,
                                model: &mut BTreeMap<u64, Vec<u64>>,
                                via_reserve: bool| {
                let expect = match model.get(&line) {
                    Some(ws) if ws.len() >= merge => Err(MshrError::MergeCapacity),
                    Some(_) => Ok(MshrAllocation::Merged),
                    None if model.len() >= entries => Err(MshrError::Full),
                    None => Ok(MshrAllocation::NewEntry),
                };
                prop_assert_eq!(mshr.can_accept(addr), expect.is_ok());
                prop_assert_eq!(mshr.contains(addr), model.contains_key(&line));
                let got = if via_reserve {
                    let reservation = mshr.reserve(addr);
                    prop_assert_eq!(reservation.map(|r| r.kind()), expect);
                    reservation.and_then(|r| mshr.commit(r, next_waiter))
                } else {
                    mshr.allocate(addr, next_waiter)
                };
                prop_assert_eq!(got, expect);
                if got.is_ok() {
                    model.entry(line).or_default().push(next_waiter);
                    allocated += 1;
                    next_waiter += 1;
                }
            };
            match op {
                0 | 1 => allocate(&mut mshr, &mut model, op == 1),
                2 => {
                    let got = mshr.complete(addr);
                    let expect = model.remove(&line).unwrap_or_default();
                    prop_assert_eq!(&got, &expect);
                    returned += got.len() as u64;
                }
                _ => {
                    buf.clear();
                    buf.push(u64::MAX);
                    let n = mshr.complete_into(addr, &mut buf);
                    let expect = model.remove(&line).unwrap_or_default();
                    prop_assert_eq!(n, expect.len());
                    prop_assert_eq!(buf[0], u64::MAX, "complete_into must append");
                    prop_assert_eq!(&buf[1..], expect.as_slice());
                    returned += n as u64;
                    allocate(&mut mshr, &mut model, false);
                }
            }
            prop_assert!(mshr.len() <= entries);
            prop_assert_eq!(mshr.len(), model.len());
            for l in 0u64..16 {
                prop_assert_eq!(
                    mshr.waiters_of(LineAddr::new(l)),
                    model.get(&l).map(Vec::as_slice)
                );
            }
            let lines: Vec<LineAddr> = mshr.outstanding_lines().collect();
            let sorted: Vec<LineAddr> = model.keys().map(|&l| LineAddr::new(l)).collect();
            prop_assert_eq!(lines, sorted, "outstanding_lines must ascend");
        }
        for (line, expect) in model {
            let got = mshr.complete(LineAddr::new(line));
            prop_assert_eq!(&got, &expect);
            returned += got.len() as u64;
        }
        prop_assert_eq!(allocated, returned);
        prop_assert!(mshr.is_empty());
    }

    /// L1 controller: every accepted load eventually completes exactly
    /// once when the memory below responds to every request.
    #[test]
    fn l1_loads_complete_exactly_once(
        lines in prop::collection::vec(0u64..40, 1..80),
        stores in prop::collection::vec(any::<bool>(), 1..80),
    ) {
        let mut cfg = GpuConfig::gtx480();
        cfg.l1.hit_latency = 2;
        let mut l1 = L1Dcache::new(&cfg);
        let mut now = Cycle::ZERO;
        let mut accepted_loads = 0u64;
        let mut completed = 0u64;
        let mut inflight: Vec<MemFetch> = Vec::new();

        for (i, &line) in lines.iter().enumerate() {
            let id = i as u64;
            now += 1;
            let kind = if stores[i % stores.len()] {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let fetch = MemFetch::new(FetchId::new(id), kind, LineAddr::new(line), CoreId::new(0));
            match l1.access(fetch, now) {
                L1AccessOutcome::Hit | L1AccessOutcome::Miss { .. } => {
                    if kind == AccessKind::Load {
                        accepted_loads += 1;
                    }
                }
                L1AccessOutcome::StoreAccepted => {}
                L1AccessOutcome::Blocked(_, _) => {
                    // Drain the miss queue and respond to make progress.
                }
            }
            while let Some(req) = l1.pop_miss() {
                if req.kind == AccessKind::Load {
                    inflight.push(req);
                }
            }
            // Respond to one outstanding request per step.
            if let Some(req) = inflight.pop() {
                now += 1;
                completed += l1.fill(req, now).len() as u64;
            }
            completed += l1.pop_ready_hits(now).len() as u64;
        }
        // Drain everything left.
        for req in inflight {
            now += 1;
            completed += l1.fill(req, now).len() as u64;
        }
        now += 100;
        completed += l1.pop_ready_hits(now).len() as u64;
        prop_assert_eq!(completed, accepted_loads);
        prop_assert_eq!(l1.outstanding_misses(), 0);
    }
}
