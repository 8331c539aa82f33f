//! The floor: a textbook word-based TL2 — one global version clock, one
//! versioned lock word per cell, lazy write-back — with no boxes, no
//! type erasure, no tracer, no contention manager and no futures. It is
//! not a candidate backend; it is what the same 2-read/2-write
//! transaction costs when nothing but the algorithm is paid for, so every
//! ledger row can be read as "N× the floor".

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

const LOCKED: u64 = 1 << 63;

pub struct Floor {
    // ordering: acquire-load at begin pairs with the acqrel-rmw bump of a
    // committer, so a transaction that samples version v sees every cell
    // written by commits numbered ≤ v.
    clock: AtomicU64,
    // ordering: a writer takes a cell with an acquire-cas and gives it
    // back with a release-store of the new version, after its relaxed
    // store to the cell; a reader's acquire-load of the word before and
    // after its relaxed load of the cell therefore sees either an
    // unchanged unlocked word (the value belongs to that version) or a
    // difference (abort).
    locks: Box<[AtomicU64]>,
    cells: Box<[AtomicI64]>,
}

/// The transaction met a newer or locked cell; run it again.
#[derive(Debug, PartialEq, Eq)]
pub struct Conflict;

pub struct Txn<'m> {
    mem: &'m Floor,
    read_version: u64,
    reads: Vec<usize>,
    writes: Vec<(usize, i64)>,
}

impl Floor {
    pub fn new(cells: usize) -> Floor {
        Floor {
            clock: AtomicU64::new(0),
            locks: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            cells: (0..cells).map(|_| AtomicI64::new(0)).collect(),
        }
    }

    pub fn begin(&self) -> Txn<'_> {
        Txn {
            mem: self,
            read_version: self.clock.load(Ordering::Acquire),
            reads: Vec::with_capacity(8),
            writes: Vec::with_capacity(8),
        }
    }

    /// Runs `body` until it commits.
    pub fn atomic<T>(&self, mut body: impl FnMut(&mut Txn) -> Result<T, Conflict>) -> T {
        loop {
            let mut txn = self.begin();
            if let Ok(value) = body(&mut txn) {
                if txn.commit().is_ok() {
                    return value;
                }
            }
        }
    }

    /// Sum of every cell, outside any transaction (callers are quiescent).
    pub fn sum(&self) -> i64 {
        self.cells.iter().map(|c| c.load(Ordering::Acquire)).sum()
    }
}

impl Txn<'_> {
    pub fn read(&mut self, cell: usize) -> Result<i64, Conflict> {
        if let Some(&(_, v)) = self.writes.iter().rev().find(|(c, _)| *c == cell) {
            return Ok(v);
        }
        let lock = &self.mem.locks[cell];
        let before = lock.load(Ordering::Acquire);
        let value = self.mem.cells[cell].load(Ordering::Relaxed);
        // The cell load must not sink below the second word load.
        std::sync::atomic::fence(Ordering::Acquire);
        let after = lock.load(Ordering::Acquire);
        if before != after || before & LOCKED != 0 || before > self.read_version {
            return Err(Conflict);
        }
        self.reads.push(cell);
        Ok(value)
    }

    pub fn write(&mut self, cell: usize, value: i64) {
        match self.writes.iter_mut().find(|(c, _)| *c == cell) {
            Some(slot) => slot.1 = value,
            None => self.writes.push((cell, value)),
        }
    }

    fn unlock(&self, taken: &[(usize, u64)]) {
        for &(cell, old) in taken {
            self.mem.locks[cell].store(old, Ordering::Release);
        }
    }

    pub fn commit(mut self) -> Result<(), Conflict> {
        if self.writes.is_empty() {
            // Every read was checked against the read version already.
            return Ok(());
        }
        // One global order of acquisition, so two committers never wait
        // on each other; a taken word is a conflict, never a wait.
        self.writes.sort_unstable_by_key(|&(cell, _)| cell);
        let mut taken: Vec<(usize, u64)> = Vec::with_capacity(self.writes.len());
        for &(cell, _) in &self.writes {
            let word = self.mem.locks[cell].load(Ordering::Relaxed);
            let free = word & LOCKED == 0
                && self.mem.locks[cell]
                    .compare_exchange(word, word | LOCKED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok();
            if !free {
                self.unlock(&taken);
                return Err(Conflict);
            }
            taken.push((cell, word));
        }
        let write_version = self.mem.clock.fetch_add(1, Ordering::AcqRel) + 1;
        // When nobody committed since begin, the read set cannot be stale.
        if write_version != self.read_version + 1 {
            for &cell in &self.reads {
                let word = self.mem.locks[cell].load(Ordering::Acquire);
                let mine = taken.iter().any(|&(c, _)| c == cell);
                let version = word & !LOCKED;
                if (word & LOCKED != 0 && !mine) || version > self.read_version {
                    self.unlock(&taken);
                    return Err(Conflict);
                }
            }
        }
        for &(cell, value) in &self.writes {
            self.mem.cells[cell].store(value, Ordering::Relaxed);
            self.mem.locks[cell].store(write_version, Ordering::Release);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_writes_and_commits() {
        let m = Floor::new(4);
        let seen = m.atomic(|t| {
            let v = t.read(1)?;
            t.write(1, v + 5);
            let v = t.read(1)?;
            t.write(1, v + 1);
            t.read(1)
        });
        assert_eq!(seen, 6);
        assert_eq!(m.sum(), 6);
    }

    #[test]
    fn a_stale_read_aborts() {
        let m = Floor::new(2);
        let mut old = m.begin();
        assert_eq!(old.read(0), Ok(0));
        m.atomic(|t| {
            t.write(0, 9);
            Ok(())
        });
        // The cell is newer than `old`'s read version: both a fresh read
        // and a commit that depends on the earlier read must fail.
        assert_eq!(old.read(0), Err(Conflict));
        old.write(1, 1);
        assert_eq!(old.commit(), Err(Conflict));
        assert_eq!(m.sum(), 9);
        assert_eq!(
            m.locks[1].load(Ordering::Relaxed),
            0,
            "failed commit released its lock"
        );
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let m = Floor::new(8);
        let per_thread = 20_000;
        let go = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2usize {
                let (m, go) = (&m, &go);
                s.spawn(move || {
                    go.wait();
                    for i in 0..per_thread {
                        let (a, b) = ((i + t) % 8, (i + t + 3) % 8);
                        m.atomic(|txn| {
                            let (va, vb) = (txn.read(a)?, txn.read(b)?);
                            txn.write(a, va + 1);
                            txn.write(b, vb + 1);
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(m.sum(), 2 * 2 * per_thread as i64);
    }
}
