//! Miss-status holding registers.
//!
//! An MSHR tracks one outstanding miss per cache line and merges subsequent
//! requests to the same line (no duplicate traffic to the next level). The
//! waiter payload is generic: the hierarchy engine stores whatever it needs
//! to resume each merged requester when the fill arrives.

use hermes_types::LineAddr;

/// Error returned when the table is full (structural stall).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrFull;

impl std::fmt::Display for MshrFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("all MSHRs in use")
    }
}

impl std::error::Error for MshrFull {}

#[derive(Debug, Clone)]
struct Entry<T> {
    line: LineAddr,
    waiters: Vec<T>,
    /// True while only prefetch requests wait on this line (a demand merge
    /// upgrades it; used for prefetch accounting and fill attribution).
    prefetch_only: bool,
}

/// A fixed-capacity MSHR table with per-line merge.
///
/// # Example
///
/// ```
/// use hermes_cache::MshrTable;
/// use hermes_types::LineAddr;
///
/// let mut t: MshrTable<u32> = MshrTable::new(2);
/// let line = LineAddr::new(7);
/// assert!(t.allocate(line, 1, false).unwrap()); // new entry
/// assert!(!t.allocate(line, 2, false).unwrap()); // merged
/// assert_eq!(t.complete(line).unwrap().0, vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct MshrTable<T> {
    entries: Vec<Entry<T>>,
    capacity: usize,
}

impl<T> MshrTable<T> {
    /// A table with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR table needs at least one register");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Registers a miss for `line` carrying `waiter`.
    ///
    /// Returns `Ok(true)` if a new entry was allocated (the caller must
    /// forward the miss to the next level), `Ok(false)` if merged into an
    /// existing entry.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFull`] when a new entry is needed but no register is
    /// free — the requester must retry later.
    pub fn allocate(
        &mut self,
        line: LineAddr,
        waiter: T,
        is_prefetch: bool,
    ) -> Result<bool, MshrFull> {
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.waiters.push(waiter);
            e.prefetch_only &= is_prefetch;
            return Ok(false);
        }
        if self.entries.len() == self.capacity {
            return Err(MshrFull);
        }
        self.entries.push(Entry {
            line,
            waiters: vec![waiter],
            prefetch_only: is_prefetch,
        });
        Ok(true)
    }

    /// Whether a miss to `line` is already outstanding.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|e| e.line == line)
    }

    /// Whether the outstanding entry for `line` (if any) is still
    /// prefetch-only.
    pub fn is_prefetch_only(&self, line: LineAddr) -> Option<bool> {
        self.entries
            .iter()
            .find(|e| e.line == line)
            .map(|e| e.prefetch_only)
    }

    /// Completes the miss for `line`, releasing the register.
    ///
    /// Returns the merged waiters and whether the entry remained
    /// prefetch-only, or `None` if no entry matches.
    pub fn complete(&mut self, line: LineAddr) -> Option<(Vec<T>, bool)> {
        let pos = self.entries.iter().position(|e| e.line == line)?;
        let e = self.entries.swap_remove(pos);
        Some((e.waiters, e.prefetch_only))
    }

    /// Number of registers currently in use.
    pub fn in_use(&self) -> usize {
        self.entries.len()
    }

    /// Whether every register is occupied.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_same_line() {
        let mut t: MshrTable<u8> = MshrTable::new(4);
        let l = LineAddr::new(1);
        assert_eq!(t.allocate(l, 1, false), Ok(true));
        assert_eq!(t.allocate(l, 2, false), Ok(false));
        assert_eq!(t.in_use(), 1);
        let (w, pf) = t.complete(l).unwrap();
        assert_eq!(w, vec![1, 2]);
        assert!(!pf);
        assert_eq!(t.in_use(), 0);
    }

    #[test]
    fn full_table_rejects_new_lines_only() {
        let mut t: MshrTable<u8> = MshrTable::new(2);
        t.allocate(LineAddr::new(1), 0, false).unwrap();
        t.allocate(LineAddr::new(2), 0, false).unwrap();
        assert!(t.is_full());
        assert_eq!(t.allocate(LineAddr::new(3), 0, false), Err(MshrFull));
        // Merge into an existing line still succeeds.
        assert_eq!(t.allocate(LineAddr::new(1), 9, false), Ok(false));
    }

    #[test]
    fn demand_merge_clears_prefetch_only() {
        let mut t: MshrTable<u8> = MshrTable::new(2);
        let l = LineAddr::new(5);
        t.allocate(l, 0, true).unwrap();
        t.allocate(l, 1, false).unwrap();
        let (_, pf) = t.complete(l).unwrap();
        assert!(!pf);
    }

    #[test]
    fn prefetch_only_preserved() {
        let mut t: MshrTable<u8> = MshrTable::new(2);
        let l = LineAddr::new(6);
        t.allocate(l, 0, true).unwrap();
        let (_, pf) = t.complete(l).unwrap();
        assert!(pf);
    }

    #[test]
    fn complete_missing_line_is_none() {
        let mut t: MshrTable<u8> = MshrTable::new(1);
        assert!(t.complete(LineAddr::new(42)).is_none());
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _: MshrTable<u8> = MshrTable::new(0);
    }
}
