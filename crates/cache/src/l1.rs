//! The per-core L1 data cache controller.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gpumem_config::{GpuConfig, L1Config};
use gpumem_types::{
    AccessKind, Cycle, FetchArena, LineAddr, MemFetch, QueueStats, SimQueue, SlotId,
};

use crate::{MshrAllocation, MshrError, MshrTable, TagArray};

/// Why the L1 refused an access this cycle (the access must be retried).
///
/// Every variant stalls the LSU pipeline head, which in turn back-pressures
/// the core — the throttling chain the paper describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1BlockReason {
    /// A fresh MSHR entry was needed but the table is full.
    MshrFull,
    /// The line is outstanding but its MSHR merge capacity is exhausted.
    MshrMergeCapacity,
    /// The miss queue towards the interconnect is full.
    MissQueueFull,
}

/// Result of presenting one coalesced access to the L1.
#[derive(Debug)]
pub enum L1AccessOutcome {
    /// Load hit; the response will surface from
    /// [`L1Dcache::pop_ready_hits`] after the hit latency.
    Hit,
    /// Load miss; a fill request entered the miss queue (`merged == false`)
    /// or was merged into an outstanding MSHR entry (`merged == true`).
    Miss {
        /// Whether the access merged into an existing outstanding miss.
        merged: bool,
    },
    /// Store accepted into the write-through path (it will travel to L2 via
    /// the miss queue; no response will return).
    StoreAccepted,
    /// The access could not be accepted this cycle; it is handed back and
    /// must be retried.
    Blocked(MemFetch, L1BlockReason),
}

/// Counters exposed by the L1 controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct L1Stats {
    /// Load hits.
    pub load_hits: u64,
    /// Load misses (including merged ones).
    pub load_misses: u64,
    /// Misses absorbed by MSHR merging (no downstream request).
    pub merged_misses: u64,
    /// Stores accepted (write-through traffic).
    pub stores: u64,
    /// Accesses rejected because the MSHR table was full.
    pub mshr_full_stalls: u64,
    /// Accesses rejected because an entry's merge capacity was exhausted.
    pub mshr_merge_stalls: u64,
    /// Accesses rejected because the miss queue was full.
    pub miss_queue_stalls: u64,
}

impl L1Stats {
    /// Accumulates another controller's counters (for per-GPU aggregation).
    pub fn merge(&mut self, other: &L1Stats) {
        self.load_hits += other.load_hits;
        self.load_misses += other.load_misses;
        self.merged_misses += other.merged_misses;
        self.stores += other.stores;
        self.mshr_full_stalls += other.mshr_full_stalls;
        self.mshr_merge_stalls += other.mshr_merge_stalls;
        self.miss_queue_stalls += other.miss_queue_stalls;
    }

    /// Load miss rate in `[0, 1]`; 0 if no loads were seen.
    pub fn miss_rate(&self) -> f64 {
        let total = self.load_hits + self.load_misses;
        if total == 0 {
            0.0
        } else {
            self.load_misses as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct HitEntry {
    ready: Cycle,
    seq: u64,
    /// Arena slot holding the completed fetch (keeping the heap element at
    /// 24 bytes instead of carrying the whole `MemFetch` through sifts).
    slot: SlotId,
}

impl PartialEq for HitEntry {
    fn eq(&self, other: &Self) -> bool {
        self.ready == other.ready && self.seq == other.seq
    }
}
impl Eq for HitEntry {}
impl PartialOrd for HitEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HitEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-ready first.
        (other.ready, other.seq).cmp(&(self.ready, self.seq))
    }
}

/// A non-blocking, write-through / write-no-allocate L1 data cache.
///
/// Matches the GPGPU-Sim Fermi L1D: load misses allocate MSHRs and send
/// line fills through a bounded miss queue; stores always write through to
/// L2 without allocating a line; fills from the interconnect install the
/// line and release all merged accesses at once.
///
/// The owner drives it with one [`access`](L1Dcache::access) per cycle at
/// most (the L1 port), drains
/// [`pop_ready_hits_into`](L1Dcache::pop_ready_hits_into) and the miss
/// queue, pushes interconnect responses through
/// [`fill_into`](L1Dcache::fill_into), and calls
/// [`observe`](L1Dcache::observe) once per cycle.
#[derive(Debug)]
pub struct L1Dcache {
    line_bytes: u64,
    sets: usize,
    hit_latency: u64,
    tags: TagArray,
    /// Waiters merged on an outstanding line. `None` marks the primary
    /// access — its body IS the request travelling down the hierarchy, so
    /// no copy is parked here; the returning fill reconstitutes it.
    mshr: MshrTable<Option<SlotId>>,
    /// Reused buffer for the waiters a fill drains out of `mshr`.
    waiters: Vec<Option<SlotId>>,
    miss_queue: SimQueue<MemFetch>,
    ready_hits: BinaryHeap<HitEntry>,
    /// Parked bodies of merged waiters and latency-pending hit responses.
    arena: FetchArena,
    next_seq: u64,
    stats: L1Stats,
}

impl L1Dcache {
    /// Builds an L1 from the global configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        Self::from_parts(&cfg.l1, cfg.line_bytes)
    }

    /// Builds an L1 from an [`L1Config`] and the line size.
    pub fn from_parts(l1: &L1Config, line_bytes: u64) -> Self {
        L1Dcache {
            line_bytes,
            sets: l1.sets,
            hit_latency: l1.hit_latency,
            tags: TagArray::new(l1.sets, l1.assoc),
            mshr: MshrTable::new(l1.mshr_entries, l1.mshr_merge),
            waiters: Vec::with_capacity(l1.mshr_merge),
            miss_queue: SimQueue::new("l1_miss", l1.miss_queue),
            ready_hits: BinaryHeap::new(),
            arena: FetchArena::with_capacity(l1.mshr_entries * l1.mshr_merge),
            next_seq: 0,
            stats: L1Stats::default(),
        }
    }

    /// The line size this cache was built with.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.index() % self.sets as u64) as usize
    }

    /// Presents one coalesced access (the L1 port accepts at most one per
    /// cycle; enforcing that is the caller's job).
    pub fn access(&mut self, mut fetch: MemFetch, now: Cycle) -> L1AccessOutcome {
        let set = self.set_of(fetch.line);
        match fetch.kind {
            AccessKind::Load => {
                if self.tags.access(set, fetch.line, now) {
                    self.stats.load_hits += 1;
                    fetch.timeline.returned = Some(now + self.hit_latency);
                    self.ready_hits.push(HitEntry {
                        ready: now + self.hit_latency,
                        seq: self.next_seq,
                        slot: self.arena.insert(fetch),
                    });
                    self.next_seq += 1;
                    return L1AccessOutcome::Hit;
                }
                // Miss path, one MSHR search. A merge consumes no
                // miss-queue slot; a fresh entry needs both a register and
                // queue space.
                let reservation = match self.mshr.reserve(fetch.line) {
                    Ok(r) => r,
                    Err(MshrError::MergeCapacity) => {
                        self.stats.mshr_merge_stalls += 1;
                        return L1AccessOutcome::Blocked(fetch, L1BlockReason::MshrMergeCapacity);
                    }
                    Err(MshrError::Full) => {
                        self.stats.mshr_full_stalls += 1;
                        return L1AccessOutcome::Blocked(fetch, L1BlockReason::MshrFull);
                    }
                };
                if reservation.kind() == MshrAllocation::Merged {
                    fetch.timeline.l1_miss = Some(now);
                    let slot = self.arena.insert(fetch);
                    if self.mshr.commit(reservation, Some(slot)).is_err() {
                        // Unreachable after reserve; recover the body and
                        // stall rather than panic in the model hot path.
                        let mut fetch = self.arena.take(slot);
                        fetch.timeline.l1_miss = None;
                        self.stats.mshr_merge_stalls += 1;
                        return L1AccessOutcome::Blocked(fetch, L1BlockReason::MshrMergeCapacity);
                    }
                    self.stats.load_misses += 1;
                    self.stats.merged_misses += 1;
                    return L1AccessOutcome::Miss { merged: true };
                }
                if self.miss_queue.is_full() {
                    self.stats.miss_queue_stalls += 1;
                    return L1AccessOutcome::Blocked(fetch, L1BlockReason::MissQueueFull);
                }
                fetch.timeline.l1_miss = Some(now);
                self.stats.load_misses += 1;
                // The primary access is not copied: its body travels down
                // the hierarchy as the fill request and comes back through
                // `fill`, which reconstitutes it from the response.
                if self.mshr.commit(reservation, None).is_err() {
                    // Unreachable after reserve; stall rather than panic.
                    fetch.timeline.l1_miss = None;
                    self.stats.load_misses -= 1;
                    self.stats.mshr_full_stalls += 1;
                    return L1AccessOutcome::Blocked(fetch, L1BlockReason::MshrFull);
                }
                if let Err(e) = self.miss_queue.push(fetch) {
                    // Unreachable after is_full; undo the allocation and
                    // stall rather than panic.
                    let mut fetch = e.into_inner();
                    self.mshr.complete_into(fetch.line, &mut self.waiters);
                    self.waiters.clear();
                    fetch.timeline.l1_miss = None;
                    self.stats.load_misses -= 1;
                    self.stats.miss_queue_stalls += 1;
                    return L1AccessOutcome::Blocked(fetch, L1BlockReason::MissQueueFull);
                }
                L1AccessOutcome::Miss { merged: false }
            }
            AccessKind::Store => {
                if self.miss_queue.is_full() {
                    self.stats.miss_queue_stalls += 1;
                    return L1AccessOutcome::Blocked(fetch, L1BlockReason::MissQueueFull);
                }
                // Write-through: refresh a resident line, never allocate.
                self.tags.touch(set, fetch.line, now);
                fetch.timeline.l1_miss = Some(now);
                self.stats.stores += 1;
                if let Err(e) = self.miss_queue.push(fetch) {
                    // Unreachable after is_full; stall rather than panic.
                    let mut fetch = e.into_inner();
                    fetch.timeline.l1_miss = None;
                    self.stats.stores -= 1;
                    self.stats.miss_queue_stalls += 1;
                    return L1AccessOutcome::Blocked(fetch, L1BlockReason::MissQueueFull);
                }
                L1AccessOutcome::StoreAccepted
            }
        }
    }

    /// Appends the completed load hits whose latency has elapsed to `out`,
    /// in ready order.
    pub fn pop_ready_hits_into(&mut self, now: Cycle, out: &mut Vec<MemFetch>) {
        while let Some(head) = self.ready_hits.peek() {
            if head.ready > now {
                break;
            }
            let Some(entry) = self.ready_hits.pop() else {
                break;
            };
            out.push(self.arena.take(entry.slot));
        }
    }

    /// Completed load hits whose latency has elapsed.
    pub fn pop_ready_hits(&mut self, now: Cycle) -> Vec<MemFetch> {
        let mut out = Vec::new();
        self.pop_ready_hits_into(now, &mut out);
        out
    }

    /// The fill request at the head of the miss queue, if any.
    pub fn peek_miss(&self) -> Option<&MemFetch> {
        self.miss_queue.front()
    }

    /// Removes the head fill request (after successful injection into the
    /// interconnect).
    pub fn pop_miss(&mut self) -> Option<MemFetch> {
        self.miss_queue.pop()
    }

    /// Installs a returning line and appends every access merged on it to
    /// `out`: the completed loads (primary + merged, in arrival order) to
    /// wake warps with. Write-through means evicted lines are never dirty,
    /// so no writeback traffic is generated.
    ///
    /// Takes the response by value: the primary waiter was never copied at
    /// miss time, so the returning body itself completes it.
    pub fn fill_into(&mut self, fetch: MemFetch, now: Cycle, out: &mut Vec<MemFetch>) {
        let set = self.set_of(fetch.line);
        self.tags.fill(set, fetch.line, now);
        self.mshr.complete_into(fetch.line, &mut self.waiters);
        let mut primary = Some(fetch);
        for w in self.waiters.drain(..) {
            // Each entry holds exactly one primary; a duplicate is skipped
            // here and surfaces as a conservation failure (MshrLeak) at the
            // simulator's run-end check.
            let mut f = match w {
                None => match primary.take() {
                    Some(f) => f,
                    None => continue,
                },
                Some(slot) => self.arena.take(slot),
            };
            f.timeline.returned = Some(now);
            out.push(f);
        }
    }

    /// Installs a returning line and releases every access merged on it;
    /// see [`fill_into`](Self::fill_into).
    pub fn fill(&mut self, fetch: MemFetch, now: Cycle) -> Vec<MemFetch> {
        let mut out = Vec::new();
        self.fill_into(fetch, now, &mut out);
        out
    }

    /// Ready time of the earliest queued hit response, if any.
    pub fn next_ready_hit(&self) -> Option<Cycle> {
        self.ready_hits.peek().map(|h| h.ready)
    }

    /// Per-cycle bookkeeping (queue occupancy statistics).
    pub fn observe(&mut self) {
        self.miss_queue.observe();
    }

    /// Batch bookkeeping for `cycles` consecutive quiescent cycles (see
    /// [`SimQueue::observe_many`]).
    pub fn observe_many(&mut self, cycles: u64) {
        self.miss_queue.observe_many(cycles);
    }

    /// Activity counters.
    pub fn stats(&self) -> &L1Stats {
        &self.stats
    }

    /// Miss-queue occupancy statistics.
    pub fn miss_queue_stats(&self) -> &QueueStats {
        self.miss_queue.stats()
    }

    /// Number of outstanding MSHR entries (for stall diagnosis).
    pub fn outstanding_misses(&self) -> usize {
        self.mshr.len()
    }

    /// Current miss-queue depth (for the trace layer's occupancy probes).
    pub fn miss_queue_len(&self) -> usize {
        self.miss_queue.len()
    }

    /// Tag-array hit/miss counters (demand accesses only).
    pub fn tag_stats(&self) -> (u64, u64) {
        (self.tags.hits(), self.tags.misses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_types::{CoreId, FetchId};

    fn cache() -> L1Dcache {
        let mut cfg = GpuConfig::gtx480();
        cfg.l1.hit_latency = 2;
        cfg.l1.miss_queue = 2;
        cfg.l1.mshr_entries = 2;
        cfg.l1.mshr_merge = 2;
        L1Dcache::new(&cfg)
    }

    fn load(id: u64, line: u64) -> MemFetch {
        MemFetch::new(
            FetchId::new(id),
            AccessKind::Load,
            LineAddr::new(line),
            CoreId::new(0),
        )
    }

    fn store(id: u64, line: u64) -> MemFetch {
        MemFetch::new(
            FetchId::new(id),
            AccessKind::Store,
            LineAddr::new(line),
            CoreId::new(0),
        )
    }

    #[test]
    fn cold_miss_then_fill_then_hit() {
        let mut c = cache();
        let now = Cycle::new(10);
        match c.access(load(1, 5), now) {
            L1AccessOutcome::Miss { merged: false } => {}
            other => panic!("expected cold miss, got {other:?}"),
        }
        let req = c.pop_miss().unwrap();
        assert_eq!(req.line, LineAddr::new(5));
        assert_eq!(req.timeline.l1_miss, Some(now));

        let done = c.fill(req, Cycle::new(100));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].timeline.returned, Some(Cycle::new(100)));
        assert_eq!(done[0].timeline.l1_miss_latency(), Some(90));

        match c.access(load(2, 5), Cycle::new(101)) {
            L1AccessOutcome::Hit => {}
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(c.pop_ready_hits(Cycle::new(102)).is_empty());
        let hits = c.pop_ready_hits(Cycle::new(103));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, FetchId::new(2));
    }

    #[test]
    fn merged_misses_consume_no_miss_queue() {
        let mut c = cache();
        let now = Cycle::new(0);
        c.access(load(1, 7), now);
        match c.access(load(2, 7), now) {
            L1AccessOutcome::Miss { merged: true } => {}
            other => panic!("expected merge, got {other:?}"),
        }
        // Only one downstream request.
        let req = c.pop_miss().unwrap();
        assert!(c.pop_miss().is_none());
        // Fill releases both.
        let done = c.fill(req, Cycle::new(50));
        assert_eq!(done.len(), 2);
        assert_eq!(c.stats().merged_misses, 1);
    }

    #[test]
    fn mshr_full_blocks_new_lines() {
        let mut c = cache();
        let now = Cycle::new(0);
        c.access(load(1, 1), now);
        c.access(load(2, 2), now);
        match c.access(load(3, 3), now) {
            L1AccessOutcome::Blocked(f, L1BlockReason::MshrFull) => {
                assert_eq!(f.id, FetchId::new(3));
            }
            other => panic!("expected mshr-full block, got {other:?}"),
        }
        assert_eq!(c.stats().mshr_full_stalls, 1);
    }

    #[test]
    fn merge_capacity_blocks() {
        let mut c = cache();
        let now = Cycle::new(0);
        c.access(load(1, 1), now);
        c.access(load(2, 1), now); // merge #2 fills capacity (max_merge = 2)
        match c.access(load(3, 1), now) {
            L1AccessOutcome::Blocked(_, L1BlockReason::MshrMergeCapacity) => {}
            other => panic!("expected merge-capacity block, got {other:?}"),
        }
    }

    #[test]
    fn miss_queue_full_blocks_even_with_free_mshrs() {
        let mut cfg = GpuConfig::gtx480();
        cfg.l1.miss_queue = 1;
        let mut c = L1Dcache::new(&cfg);
        let now = Cycle::new(0);
        c.access(load(1, 1), now);
        match c.access(load(2, 2), now) {
            L1AccessOutcome::Blocked(_, L1BlockReason::MissQueueFull) => {}
            other => panic!("expected miss-queue block, got {other:?}"),
        }
        assert_eq!(c.stats().miss_queue_stalls, 1);
    }

    #[test]
    fn stores_write_through_without_allocating() {
        let mut c = cache();
        let now = Cycle::new(0);
        match c.access(store(1, 9), now) {
            L1AccessOutcome::StoreAccepted => {}
            other => panic!("expected store accept, got {other:?}"),
        }
        // The store travelled to the miss queue but did not allocate a line
        // or an MSHR.
        assert_eq!(c.outstanding_misses(), 0);
        assert!(c.pop_miss().is_some());
        // A subsequent load to the same line still misses.
        match c.access(load(2, 9), now) {
            L1AccessOutcome::Miss { merged: false } => {}
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn hit_ordering_is_by_ready_time() {
        let mut c = cache();
        // Install two lines.
        for (id, line) in [(1, 1), (2, 2)] {
            c.access(load(id, line), Cycle::new(0));
            let req = c.pop_miss().unwrap();
            c.fill(req, Cycle::new(1));
        }
        c.access(load(10, 1), Cycle::new(5));
        c.access(load(11, 2), Cycle::new(6));
        let ready = c.pop_ready_hits(Cycle::new(8));
        assert_eq!(ready.len(), 2);
        assert_eq!(ready[0].id, FetchId::new(10));
        assert_eq!(ready[1].id, FetchId::new(11));
    }

    #[test]
    fn stats_miss_rate() {
        let mut c = cache();
        c.access(load(1, 1), Cycle::new(0));
        let req = c.pop_miss().unwrap();
        c.fill(req, Cycle::new(1));
        c.access(load(2, 1), Cycle::new(2));
        assert_eq!(c.stats().miss_rate(), 0.5);
        assert_eq!(L1Stats::default().miss_rate(), 0.0);
    }
}
