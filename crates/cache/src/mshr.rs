//! Miss Status Holding Registers with request merging.

use std::error::Error;
use std::fmt;

use gpumem_types::LineAddr;

/// How an access was recorded in the MSHR table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAllocation {
    /// A fresh entry was allocated: the caller must send a fill request
    /// down the hierarchy.
    NewEntry,
    /// The access was merged into an existing entry for the same line: no
    /// new downstream request is needed.
    Merged,
}

/// Why an access could not be recorded.
///
/// Both variants stall the cache pipeline at the access stage — the
/// serialization effect the paper identifies as consequence ② of high miss
/// latencies (entries are held for the full lifetime of an outstanding
/// miss, so high latency ⇒ prolonged contention of cache resources).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrError {
    /// No free entry and the line has no existing entry.
    Full,
    /// The line has an entry but its merge capacity is exhausted.
    MergeCapacity,
}

impl fmt::Display for MshrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MshrError::Full => write!(f, "mshr table full"),
            MshrError::MergeCapacity => write!(f, "mshr merge capacity exhausted"),
        }
    }
}

impl Error for MshrError {}

/// Where a line stands in an [`MshrTable`], found by one search in
/// [`MshrTable::reserve`] and spent by [`MshrTable::commit`].
///
/// Holding a reservation lets a caller check its own resources (a miss
/// queue slot, an arena slot) between the capacity check and the insert
/// without searching the table twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrReservation {
    line: LineAddr,
    /// Position of `line` in the sorted index (its insertion point when
    /// absent).
    pos: usize,
    kind: MshrAllocation,
}

impl MshrReservation {
    /// Whether committing will open a fresh entry or merge into one.
    pub fn kind(&self) -> MshrAllocation {
        self.kind
    }
}

/// A table of Miss Status Holding Registers.
///
/// Each entry tracks one outstanding line fill; accesses to a line that is
/// already outstanding merge into the entry (up to `max_merge` per entry)
/// instead of issuing duplicate downstream requests. The waiter payload `W`
/// is caller-defined — the L1 stores the merged [`gpumem_types::MemFetch`]s
/// so it can complete all of them on fill.
///
/// The table is flat: a line-sorted index over a pool of waiter lists. A
/// completed entry's list is emptied but keeps its capacity for the next
/// allocation, so once every register has been used the table allocates
/// nothing.
///
/// # Example
///
/// ```
/// use gpumem_cache::{MshrAllocation, MshrTable};
/// use gpumem_types::LineAddr;
///
/// let mut mshr: MshrTable<&str> = MshrTable::new(2, 4);
/// let line = LineAddr::new(10);
/// assert_eq!(mshr.allocate(line, "first").unwrap(), MshrAllocation::NewEntry);
/// assert_eq!(mshr.allocate(line, "second").unwrap(), MshrAllocation::Merged);
/// assert_eq!(mshr.complete(line), vec!["first", "second"]);
/// assert!(mshr.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct MshrTable<W> {
    max_entries: usize,
    max_merge: usize,
    /// Outstanding lines in ascending order, each with the register (index
    /// into `lists`) holding its waiters.
    index: Vec<(LineAddr, usize)>,
    /// Waiter lists, one per register ever used.
    lists: Vec<Vec<W>>,
    /// Registers in `lists` not currently outstanding (their lists are
    /// empty).
    free: Vec<usize>,
    peak_occupancy: usize,
    merges: u64,
    allocations: u64,
}

impl<W> MshrTable<W> {
    /// Creates a table with `max_entries` registers, each merging at most
    /// `max_merge` accesses (including the first).
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(max_entries: usize, max_merge: usize) -> Self {
        assert!(max_entries > 0, "mshr entries must be positive");
        assert!(max_merge > 0, "mshr merge capacity must be positive");
        MshrTable {
            max_entries,
            max_merge,
            index: Vec::new(),
            lists: Vec::new(),
            free: Vec::new(),
            peak_occupancy: 0,
            merges: 0,
            allocations: 0,
        }
    }

    /// Number of outstanding entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no miss is outstanding.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.max_entries
    }

    fn search(&self, line: LineAddr) -> Result<usize, usize> {
        self.index.binary_search_by_key(&line, |&(l, _)| l)
    }

    /// True if `line` already has an outstanding entry.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.search(line).is_ok()
    }

    /// Whether [`allocate`](Self::allocate) would succeed for `line`.
    pub fn can_accept(&self, line: LineAddr) -> bool {
        self.reserve(line).is_ok()
    }

    /// Checks, with one search, whether an access to `line` can be
    /// recorded, and how. Nothing changes until the reservation is passed
    /// to [`commit`](Self::commit).
    ///
    /// # Errors
    ///
    /// [`MshrError::Full`] if a fresh entry is needed but none is free;
    /// [`MshrError::MergeCapacity`] if the line's entry cannot absorb more
    /// waiters.
    pub fn reserve(&self, line: LineAddr) -> Result<MshrReservation, MshrError> {
        match self.search(line) {
            Ok(pos) => {
                if self.lists[self.index[pos].1].len() >= self.max_merge {
                    return Err(MshrError::MergeCapacity);
                }
                Ok(MshrReservation {
                    line,
                    pos,
                    kind: MshrAllocation::Merged,
                })
            }
            Err(pos) => {
                if self.index.len() >= self.max_entries {
                    return Err(MshrError::Full);
                }
                Ok(MshrReservation {
                    line,
                    pos,
                    kind: MshrAllocation::NewEntry,
                })
            }
        }
    }

    /// True if `r` still points at the right place in the index: at
    /// `r.line`'s entry for a merge, between its neighbours for a fresh
    /// entry. Always so when nothing was committed or completed since
    /// `r` was taken.
    fn is_current(&self, r: &MshrReservation) -> bool {
        match r.kind {
            MshrAllocation::Merged => self.index.get(r.pos).is_some_and(|&(l, _)| l == r.line),
            MshrAllocation::NewEntry => {
                r.pos <= self.index.len()
                    && (r.pos == 0 || self.index[r.pos - 1].0 < r.line)
                    && self.index.get(r.pos).is_none_or(|&(l, _)| l > r.line)
            }
        }
    }

    /// Records `waiter` as [`reserve`](Self::reserve) decided. A
    /// reservation made stale by an intervening mutation is re-checked
    /// rather than trusted.
    ///
    /// # Errors
    ///
    /// As [`reserve`](Self::reserve), when a stale reservation no longer
    /// fits.
    pub fn commit(
        &mut self,
        reservation: MshrReservation,
        waiter: W,
    ) -> Result<MshrAllocation, MshrError> {
        let r = if self.is_current(&reservation) {
            reservation
        } else {
            self.reserve(reservation.line)?
        };
        match r.kind {
            MshrAllocation::Merged => {
                let list = self.index[r.pos].1;
                if self.lists[list].len() >= self.max_merge {
                    return Err(MshrError::MergeCapacity);
                }
                self.lists[list].push(waiter);
                self.merges += 1;
            }
            MshrAllocation::NewEntry => {
                if self.index.len() >= self.max_entries {
                    return Err(MshrError::Full);
                }
                let list = match self.free.pop() {
                    Some(list) => list,
                    None => {
                        self.lists.push(Vec::new());
                        self.lists.len() - 1
                    }
                };
                self.lists[list].push(waiter);
                self.index.insert(r.pos, (r.line, list));
                self.allocations += 1;
                self.peak_occupancy = self.peak_occupancy.max(self.index.len());
            }
        }
        Ok(r.kind)
    }

    /// Records an access to `line` carrying `waiter`.
    ///
    /// # Errors
    ///
    /// [`MshrError::Full`] if a fresh entry is needed but none is free;
    /// [`MshrError::MergeCapacity`] if the line's entry cannot absorb more
    /// waiters.
    pub fn allocate(&mut self, line: LineAddr, waiter: W) -> Result<MshrAllocation, MshrError> {
        let r = self.reserve(line)?;
        self.commit(r, waiter)
    }

    /// The waiters currently merged on `line`, if it is outstanding.
    pub fn waiters_of(&self, line: LineAddr) -> Option<&[W]> {
        let pos = self.search(line).ok()?;
        Some(self.lists[self.index[pos].1].as_slice())
    }

    /// Completes the outstanding miss for `line`, releasing the register
    /// and appending all merged waiters to `out` in arrival order. Appends
    /// nothing if the line had no entry (e.g. a stray fill). Returns the
    /// number of waiters appended.
    pub fn complete_into(&mut self, line: LineAddr, out: &mut Vec<W>) -> usize {
        let Ok(pos) = self.search(line) else {
            return 0;
        };
        let (_, list) = self.index.remove(pos);
        let n = self.lists[list].len();
        out.append(&mut self.lists[list]);
        self.free.push(list);
        n
    }

    /// Completes the outstanding miss for `line`, releasing the register
    /// and returning all merged waiters in arrival order. Returns an empty
    /// vector if the line had no entry (e.g. a stray fill).
    pub fn complete(&mut self, line: LineAddr) -> Vec<W> {
        let mut out = Vec::new();
        self.complete_into(line, &mut out);
        out
    }

    /// Highest simultaneous occupancy seen.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Total fresh entries ever allocated.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Total merged accesses ever absorbed.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Iterates over the lines currently outstanding, in ascending order.
    pub fn outstanding_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.index.iter().map(|&(line, _)| line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_up_and_rejects() {
        let mut m: MshrTable<u32> = MshrTable::new(2, 2);
        assert_eq!(
            m.allocate(LineAddr::new(1), 0).unwrap(),
            MshrAllocation::NewEntry
        );
        assert_eq!(
            m.allocate(LineAddr::new(2), 1).unwrap(),
            MshrAllocation::NewEntry
        );
        assert_eq!(m.allocate(LineAddr::new(3), 2), Err(MshrError::Full));
        // Merging into an existing line still works while full.
        assert_eq!(
            m.allocate(LineAddr::new(1), 3).unwrap(),
            MshrAllocation::Merged
        );
        // But merge capacity is bounded.
        assert_eq!(
            m.allocate(LineAddr::new(1), 4),
            Err(MshrError::MergeCapacity)
        );
        assert!(!m.can_accept(LineAddr::new(1)));
        assert!(m.can_accept(LineAddr::new(2)));
        assert!(!m.can_accept(LineAddr::new(9)));
    }

    #[test]
    fn complete_returns_waiters_in_order() {
        let mut m: MshrTable<&str> = MshrTable::new(4, 4);
        m.allocate(LineAddr::new(5), "a").unwrap();
        m.allocate(LineAddr::new(5), "b").unwrap();
        m.allocate(LineAddr::new(5), "c").unwrap();
        assert_eq!(m.complete(LineAddr::new(5)), vec!["a", "b", "c"]);
        assert!(m.complete(LineAddr::new(5)).is_empty());
    }

    #[test]
    fn statistics_track_activity() {
        let mut m: MshrTable<u8> = MshrTable::new(4, 4);
        m.allocate(LineAddr::new(1), 0).unwrap();
        m.allocate(LineAddr::new(2), 0).unwrap();
        m.allocate(LineAddr::new(1), 0).unwrap();
        assert_eq!(m.allocations(), 2);
        assert_eq!(m.merges(), 1);
        assert_eq!(m.peak_occupancy(), 2);
        m.complete(LineAddr::new(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.peak_occupancy(), 2);
    }

    #[test]
    fn outstanding_lines_iterates() {
        let mut m: MshrTable<u8> = MshrTable::new(4, 2);
        m.allocate(LineAddr::new(9), 0).unwrap();
        m.allocate(LineAddr::new(4), 0).unwrap();
        let lines: Vec<_> = m.outstanding_lines().collect();
        assert_eq!(lines, vec![LineAddr::new(4), LineAddr::new(9)]);
    }

    #[test]
    fn errors_display() {
        assert!(MshrError::Full.to_string().contains("full"));
        assert!(MshrError::MergeCapacity.to_string().contains("merge"));
    }
}
