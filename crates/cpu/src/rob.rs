//! The reorder buffer.

use recon_isa::Inst;
use recon_secure::Seq;

use crate::bpred::PredToken;
use crate::rename::{DstRename, PReg};

/// Execution status of a ROB entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Dispatched, waiting in the instruction queue.
    Waiting,
    /// Issued to a functional unit; completes at the given cycle.
    Executing {
        /// Absolute cycle at which the result is available.
        done_at: u64,
    },
    /// Result available (or no result needed).
    Done,
}

/// One in-flight instruction.
#[derive(Clone, Copy, Debug)]
pub struct RobEntry {
    /// Dynamic sequence number. Numbers grow by one per dispatch and
    /// the window's numbers are contiguous: a squash hands the squashed
    /// numbers back and the next dispatches reuse them (see
    /// [`Rob::squash_after`]). A seq therefore names one instruction
    /// only while that instruction is in the window.
    pub seq: Seq,
    /// Static instruction index.
    pub pc: usize,
    /// The instruction.
    pub inst: Inst,
    /// Renamed source registers, aligned with `inst.srcs()`.
    pub srcs: [Option<PReg>; 2],
    /// Destination rename, if the instruction writes a register.
    pub dst: Option<DstRename>,
    /// Pipeline status.
    pub status: Status,
    /// For conditional branches: `(predicted_taken, predictor token)`.
    pub pred: Option<(bool, PredToken)>,
    /// For resolved conditional branches: the actual direction.
    pub taken_actual: Option<bool>,
    /// Effective address, once computed (loads/stores/amo).
    pub addr: Option<u64>,
    /// For loads: the accessed word was marked revealed (ReCon).
    pub revealed: bool,
    /// For loads: the value came from SQ/SB forwarding (always concealed,
    /// §4.4.2).
    pub forwarded: bool,
    /// Computed result value (for register writeback / store data).
    pub value: Option<u64>,
    /// The guard root placed on the destination at completion, if any
    /// (NDA: own seq; STT: YRoT) — kept for statistics.
    pub guard_root: Option<Seq>,
    /// Whether this instruction was ever delayed by the security scheme
    /// (for the Figure 7 tainted-loads statistic).
    pub was_delayed_by_scheme: bool,
}

impl RobEntry {
    fn new(seq: Seq, pc: usize, inst: Inst) -> Self {
        RobEntry {
            seq,
            pc,
            inst,
            srcs: [None, None],
            dst: None,
            status: Status::Waiting,
            pred: None,
            taken_actual: None,
            addr: None,
            revealed: false,
            forwarded: false,
            value: None,
            guard_root: None,
            was_delayed_by_scheme: false,
        }
    }
}

/// The reorder buffer: a bounded, seq-indexed window of in-flight
/// instructions.
///
/// The window holds the contiguous sequence numbers `head..next_seq`
/// in a power-of-two ring, so entry `seq` sits in slot `seq & mask`:
/// lookups by seq are a bounds check and a mask, and nothing moves on
/// dispatch, commit or squash.
#[derive(Clone, Debug)]
pub struct Rob {
    ring: Vec<RobEntry>,
    capacity: usize,
    /// The oldest entry's seq (equal to `next_seq` when empty).
    head: Seq,
    next_seq: Seq,
}

impl Rob {
    /// Creates an empty ROB with the given capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Rob {
            ring: vec![RobEntry::new(0, 0, Inst::Nop); capacity.next_power_of_two()],
            capacity,
            head: 0,
            next_seq: 0,
        }
    }

    #[inline]
    fn slot(&self, seq: Seq) -> usize {
        seq as usize & (self.ring.len() - 1)
    }

    /// Whether a new instruction can be dispatched.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.len() < self.capacity
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.next_seq - self.head) as usize
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == self.next_seq
    }

    /// Allocates the next entry.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full (check [`Rob::has_space`] first).
    pub fn push(&mut self, pc: usize, inst: Inst) -> Seq {
        assert!(self.has_space(), "ROB full");
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.slot(seq);
        self.ring[slot] = RobEntry::new(seq, pc, inst);
        seq
    }

    /// The oldest entry, if any.
    #[must_use]
    pub fn head(&self) -> Option<&RobEntry> {
        self.get(self.head)
    }

    /// Removes and returns the oldest entry (commit).
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        let entry = *self.head()?;
        self.head += 1;
        Some(entry)
    }

    /// Access an entry by sequence number.
    #[inline]
    #[must_use]
    pub fn get(&self, seq: Seq) -> Option<&RobEntry> {
        (self.head..self.next_seq)
            .contains(&seq)
            .then(|| &self.ring[self.slot(seq)])
    }

    /// Mutable access by sequence number.
    #[inline]
    pub fn get_mut(&mut self, seq: Seq) -> Option<&mut RobEntry> {
        if (self.head..self.next_seq).contains(&seq) {
            let slot = self.slot(seq);
            Some(&mut self.ring[slot])
        } else {
            None
        }
    }

    /// Iterates oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        (self.head..self.next_seq).map(|seq| &self.ring[self.slot(seq)])
    }

    /// The next sequence number a pushed entry would receive. At a
    /// drained-pipeline checkpoint the window is empty and this counter
    /// is the only ROB state worth serializing.
    #[must_use]
    pub fn next_seq(&self) -> Seq {
        self.next_seq
    }

    /// Restores the sequence counter (checkpoint restore; the window
    /// must be empty).
    ///
    /// # Panics
    ///
    /// Panics if the window still holds entries.
    pub fn set_next_seq(&mut self, seq: Seq) {
        assert!(self.is_empty(), "ROB must be empty to restore");
        self.head = seq;
        self.next_seq = seq;
    }

    /// Removes every entry **younger than** `seq`, handing each to `f`
    /// youngest-first (the order rename undo must be applied in), and
    /// returns how many were removed.
    ///
    /// Squashed sequence numbers are reused by subsequent pushes: the
    /// caller must purge them from every side structure (IQ, LSQ,
    /// shadows, guards), which also keeps the window's sequence numbers
    /// contiguous.
    pub fn squash_after(&mut self, seq: Seq, mut f: impl FnMut(&RobEntry)) -> usize {
        let keep_end = seq.saturating_add(1).clamp(self.head, self.next_seq);
        for s in (keep_end..self.next_seq).rev() {
            f(&self.ring[self.slot(s)]);
        }
        let squashed = (self.next_seq - keep_end) as usize;
        self.next_seq = keep_end;
        squashed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nop() -> Inst {
        Inst::Nop
    }

    #[test]
    fn push_assigns_monotonic_seq() {
        let mut rob = Rob::new(4);
        assert_eq!(rob.push(0, nop()), 0);
        assert_eq!(rob.push(1, nop()), 1);
        assert_eq!(rob.len(), 2);
    }

    #[test]
    fn get_by_seq() {
        let mut rob = Rob::new(4);
        rob.push(0, nop());
        rob.push(1, nop());
        assert_eq!(rob.get(1).unwrap().pc, 1);
        assert!(rob.get(2).is_none());
        rob.pop_head();
        assert!(rob.get(0).is_none(), "committed entries unreachable");
        assert_eq!(rob.get(1).unwrap().pc, 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(2);
        rob.push(0, nop());
        rob.push(1, nop());
        assert!(!rob.has_space());
        rob.pop_head();
        assert!(rob.has_space());
    }

    #[test]
    fn squash_returns_youngest_first() {
        let mut rob = Rob::new(8);
        for pc in 0..5 {
            rob.push(pc, nop());
        }
        let mut seqs = Vec::new();
        assert_eq!(rob.squash_after(1, |e| seqs.push(e.seq)), 3);
        assert_eq!(seqs, vec![4, 3, 2]);
        assert_eq!(rob.len(), 2);
        // Squashed sequence numbers are reused to keep the window
        // contiguous.
        assert_eq!(rob.push(9, nop()), 2);
    }

    #[test]
    #[should_panic(expected = "ROB full")]
    fn push_past_capacity_panics() {
        let mut rob = Rob::new(1);
        rob.push(0, nop());
        rob.push(1, nop());
    }
}
