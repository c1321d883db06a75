//! Event-driven scheduling state of one core: the reservation-station
//! half of the backend.
//!
//! Instead of rescanning the reorder buffer and the instruction queue
//! every cycle, the core keeps event-fed structures:
//!
//! * a **completion wheel** of issued instructions bucketed by the cycle
//!   their result is available (`done_at`), drained oldest-`seq`-first;
//! * a **wakeup list** per physical register naming the dispatched
//!   instructions still waiting for it, in dispatch order;
//! * the **ready list**: instruction-queue entries whose issue operands
//!   have all been produced, ordered by `seq` (issue walks only these);
//! * the **blocked list**: ready entries the security scheme holds back
//!   because an operand is guarded, each with the guard root the shadow
//!   frontier must reach before it may issue;
//! * the **waiting AMOs**, oldest first, which younger loads gate on.
//!
//! Squashed sequence numbers are reused by later dispatches, so the
//! completion wheel may hold stale `(done_at, seq)` pairs; the core
//! checks each popped pair against the live ROB entry, which makes them
//! harmless. Every other structure is purged of squashed entries
//! eagerly ([`Scheduler::squash`]).

use std::collections::VecDeque;

use recon_secure::Seq;

use crate::rename::{PReg, Rename};

/// A dispatched instruction waiting for one physical register.
#[derive(Clone, Copy, Debug)]
struct Waiter {
    seq: Seq,
    /// A store waiting for its *data* operand (not for issue).
    store_data: bool,
}

/// See the [module documentation](self).
#[derive(Clone, Debug)]
pub(crate) struct Scheduler {
    completions: Wheel,
    waiters: Vec<Vec<Waiter>>,
    /// Outstanding issue operands per in-flight instruction, indexed by
    /// `seq` modulo its power-of-two length (the ROB window is
    /// contiguous and no wider than the ROB, so live entries never share
    /// a slot).
    pending: Vec<u8>,
    ready: Vec<Seq>,
    /// `(seq, root)` ordered by `seq`: blocked until `frontier >= root`.
    /// An operand's guard is final once the operand is produced, and the
    /// frontier never moves back past a live entry's roots, so an entry
    /// stays blocked exactly until then.
    blocked: Vec<(Seq, Seq)>,
    /// Entries the current issue walk found blocked, in `seq` order.
    newly_blocked: Vec<(Seq, Seq)>,
    /// Stores whose data register has been produced but whose value has
    /// not yet reached the store queue (NDA may withhold it).
    data_ready: Vec<Seq>,
    waiting_amos: VecDeque<Seq>,
    /// Dispatched, not yet issued instructions (the IQ occupancy).
    iq_len: usize,
}

impl Scheduler {
    pub(crate) fn new(num_pregs: usize, rob_entries: usize) -> Self {
        Scheduler {
            completions: Wheel::new(),
            waiters: vec![Vec::new(); num_pregs],
            pending: vec![0; rob_entries.next_power_of_two()],
            ready: Vec::new(),
            blocked: Vec::new(),
            newly_blocked: Vec::new(),
            data_ready: Vec::new(),
            waiting_amos: VecDeque::new(),
            iq_len: 0,
        }
    }

    /// Instruction-queue occupancy.
    pub(crate) fn iq_len(&self) -> usize {
        self.iq_len
    }

    /// Enters a dispatched instruction: `issue_srcs` gate its issue,
    /// `store_data` (stores only) feeds its store-queue value.
    pub(crate) fn dispatch(
        &mut self,
        seq: Seq,
        issue_srcs: &[Option<PReg>],
        store_data: Option<PReg>,
        is_amo: bool,
        rename: &Rename,
    ) {
        self.iq_len += 1;
        let mut pending = 0;
        for &p in issue_srcs.iter().flatten() {
            if !rename.is_ready(p) {
                self.waiters[p as usize].push(Waiter {
                    seq,
                    store_data: false,
                });
                pending += 1;
            }
        }
        let slot = self.slot(seq);
        self.pending[slot] = pending;
        if pending == 0 {
            // The youngest seq: appending keeps the list ordered.
            self.ready.push(seq);
        }
        if let Some(p) = store_data {
            if rename.is_ready(p) {
                self.data_ready.push(seq);
            } else {
                self.waiters[p as usize].push(Waiter {
                    seq,
                    store_data: true,
                });
            }
        }
        if is_amo {
            self.waiting_amos.push_back(seq);
        }
    }

    fn slot(&self, seq: Seq) -> usize {
        seq as usize & (self.pending.len() - 1)
    }

    /// Physical register `p` was produced: its waiters lose one
    /// outstanding operand and join the ready lists.
    pub(crate) fn wake(&mut self, p: PReg) {
        if self.waiters[p as usize].is_empty() {
            return;
        }
        let mut list = std::mem::take(&mut self.waiters[p as usize]);
        for w in list.drain(..) {
            if w.store_data {
                self.data_ready.push(w.seq);
                continue;
            }
            let slot = self.slot(w.seq);
            self.pending[slot] -= 1;
            if self.pending[slot] == 0 {
                let at = self.ready.partition_point(|&s| s < w.seq);
                self.ready.insert(at, w.seq);
            }
        }
        self.waiters[p as usize] = list;
    }

    /// Records an issued instruction completing at `done_at`.
    pub(crate) fn schedule(&mut self, seq: Seq, done_at: u64) {
        self.completions.insert(seq, done_at);
    }

    /// Moves every completion due by `now` into `due`, oldest `seq`
    /// first (entries may be stale; the caller checks the ROB).
    pub(crate) fn pop_due(&mut self, now: u64, due: &mut Vec<Seq>) {
        self.completions.drain_through(now, due);
        due.sort_unstable();
        due.dedup();
    }

    /// The earliest cycle a scheduled completion is due, if any.
    pub(crate) fn next_completion(&self) -> Option<u64> {
        self.completions.next_due()
    }

    /// Takes the ready list out for an issue walk; hand it back with
    /// [`Scheduler::put_ready`].
    pub(crate) fn take_ready(&mut self) -> Vec<Seq> {
        std::mem::take(&mut self.ready)
    }

    pub(crate) fn put_ready(&mut self, ready: Vec<Seq>) {
        self.ready = ready;
    }

    /// Returns every blocked entry whose guard root the frontier has
    /// reached to the ready list.
    pub(crate) fn unblock(&mut self, frontier: Seq) {
        if !self.blocked.iter().any(|&(_, root)| root <= frontier) {
            return;
        }
        let ready = &mut self.ready;
        self.blocked.retain(|&(seq, root)| {
            if root > frontier {
                return true;
            }
            let at = ready.partition_point(|&s| s < seq);
            ready.insert(at, seq);
            false
        });
    }

    /// The issue walk found `seq` blocked behind guard `root`.
    pub(crate) fn block(&mut self, seq: Seq, root: Seq) {
        self.newly_blocked.push((seq, root));
    }

    /// Ends an issue walk that visited every entry older than `bound`:
    /// returns how many of the previously blocked entries it passed
    /// (each costs one scheme-delay cycle), then files the newly
    /// blocked ones.
    pub(crate) fn end_walk(&mut self, bound: Seq) -> u64 {
        let passed = self.blocked.partition_point(|&(s, _)| s < bound) as u64;
        if !self.newly_blocked.is_empty() {
            self.blocked.append(&mut self.newly_blocked);
            self.blocked.sort_unstable();
        }
        passed
    }

    /// An instruction left the queue by issuing.
    pub(crate) fn issued(&mut self) {
        self.iq_len -= 1;
    }

    /// The data-ready store list, for the store-data stage to consume.
    pub(crate) fn data_ready_mut(&mut self) -> &mut Vec<Seq> {
        &mut self.data_ready
    }

    /// Whether an AMO older than `seq` has not issued yet. Its memory
    /// update happens at issue, so younger loads gate on this.
    pub(crate) fn unissued_amo_older_than(&self, seq: Seq) -> bool {
        self.waiting_amos.front().is_some_and(|&a| a < seq)
    }

    /// The AMO `seq` issued (AMOs issue at the ROB head, so it is the
    /// oldest waiting one).
    pub(crate) fn amo_issued(&mut self, seq: Seq) {
        let front = self.waiting_amos.pop_front();
        debug_assert_eq!(front, Some(seq), "AMOs issue in order");
    }

    /// Forgets one squashed instruction (`seq >= first`): its operand
    /// wait lists lose their squashed suffix, and an unissued entry
    /// leaves the queue. Call for every squashed entry, then
    /// [`Scheduler::squash`].
    pub(crate) fn forget(&mut self, srcs: &[Option<PReg>], unissued: bool, first: Seq) {
        if unissued {
            self.iq_len -= 1;
        }
        for &p in srcs.iter().flatten() {
            let list = &mut self.waiters[p as usize];
            while list.last().is_some_and(|w| w.seq >= first) {
                list.pop();
            }
        }
    }

    /// Drops every ready-list, blocked and AMO entry with `seq >= first`.
    pub(crate) fn squash(&mut self, first: Seq) {
        let keep = self.ready.partition_point(|&s| s < first);
        self.ready.truncate(keep);
        let keep = self.blocked.partition_point(|&(s, _)| s < first);
        self.blocked.truncate(keep);
        self.data_ready.retain(|&s| s < first);
        while self.waiting_amos.back().is_some_and(|&a| a >= first) {
            self.waiting_amos.pop_back();
        }
    }

    /// Iterates the ready and blocked lists (for the auditor).
    pub(crate) fn ready(&self) -> impl Iterator<Item = Seq> + '_ {
        self.ready
            .iter()
            .copied()
            .chain(self.blocked.iter().map(|&(s, _)| s))
    }
}

/// A timing wheel: bucket `t % len` holds the sequence numbers due at
/// cycle `t`, for every `t` in `base..base + len`. It grows when an
/// entry lies further ahead. `len` is a power of two, so the bucket is
/// `t & (len - 1)`.
#[derive(Clone, Debug)]
struct Wheel {
    buckets: Vec<Vec<Seq>>,
    /// Every cycle before `base` has been drained.
    base: u64,
    queued: usize,
}

impl Wheel {
    /// Covers the default hierarchy's longest latency without growing.
    const INITIAL_LEN: usize = 256;

    fn new() -> Self {
        Wheel {
            buckets: vec![Vec::new(); Self::INITIAL_LEN],
            base: 0,
            queued: 0,
        }
    }

    fn slot(&self, t: u64) -> usize {
        (t & (self.buckets.len() as u64 - 1)) as usize
    }

    /// Queues `seq` for `done_at`; a cycle already drained is due at the
    /// next drain.
    fn insert(&mut self, seq: Seq, done_at: u64) {
        let t = done_at.max(self.base);
        if t - self.base >= self.buckets.len() as u64 {
            self.grow(t - self.base + 1);
        }
        let slot = self.slot(t);
        self.buckets[slot].push(seq);
        self.queued += 1;
    }

    /// Rebuckets every entry into a wheel spanning at least `span`.
    fn grow(&mut self, span: u64) {
        let len = (span as usize)
            .next_power_of_two()
            .max(2 * self.buckets.len());
        let old = std::mem::replace(&mut self.buckets, vec![Vec::new(); len]);
        let old_len = old.len() as u64;
        for (i, bucket) in old.into_iter().enumerate() {
            let t = self.base + (i as u64 + old_len - self.base % old_len) % old_len;
            let slot = self.slot(t);
            self.buckets[slot].extend(bucket);
        }
    }

    /// Appends every entry due at or before `now` to `due`.
    fn drain_through(&mut self, now: u64, due: &mut Vec<Seq>) {
        if self.queued == 0 {
            self.base = self.base.max(now + 1);
            return;
        }
        while self.base <= now {
            let slot = self.slot(self.base);
            self.queued -= self.buckets[slot].len();
            due.append(&mut self.buckets[slot]);
            self.base += 1;
        }
    }

    fn next_due(&self) -> Option<u64> {
        if self.queued == 0 {
            return None;
        }
        (self.base..).find(|&t| !self.buckets[self.slot(t)].is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::ArchReg;

    #[test]
    fn wakeup_orders_the_ready_list_by_seq() {
        let mut rename = Rename::new(40);
        let a = rename.allocate(ArchReg::new(1)).unwrap().new;
        let b = rename.allocate(ArchReg::new(2)).unwrap().new;
        let mut s = Scheduler::new(40, 8);
        s.dispatch(2, &[Some(a), None], None, false, &rename);
        s.dispatch(3, &[Some(b), Some(a)], None, false, &rename);
        s.dispatch(4, &[Some(b), None], None, false, &rename);
        assert_eq!(s.iq_len(), 3);
        assert_eq!(s.ready().count(), 0);
        s.wake(b);
        assert_eq!(s.ready().collect::<Vec<_>>(), vec![4]);
        s.wake(a);
        assert_eq!(s.ready().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn squash_purges_waiters_so_a_reused_seq_starts_clean() {
        let mut rename = Rename::new(40);
        let a = rename.allocate(ArchReg::new(1)).unwrap().new;
        let mut s = Scheduler::new(40, 8);
        s.dispatch(5, &[Some(a), None], None, false, &rename);
        s.forget(&[Some(a), None], true, 5);
        s.squash(5);
        assert_eq!(s.iq_len(), 0);
        // Seq 5 is reused by an instruction with no outstanding operand;
        // the producer's wakeup must not count against it again.
        s.dispatch(5, &[None, None], None, false, &rename);
        s.wake(a);
        assert_eq!(s.ready().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn due_completions_come_out_oldest_seq_first_without_duplicates() {
        let mut s = Scheduler::new(40, 8);
        s.schedule(7, 10);
        s.schedule(3, 11);
        s.schedule(5, 9);
        s.schedule(7, 10);
        s.schedule(1, 12);
        let mut due = Vec::new();
        s.pop_due(11, &mut due);
        assert_eq!(due, vec![3, 5, 7]);
        assert_eq!(s.next_completion(), Some(12));
        // An instruction issued after this cycle's drain with no latency
        // is due at the next one.
        s.schedule(9, 11);
        due.clear();
        s.pop_due(12, &mut due);
        assert_eq!(due, vec![1, 9]);
        assert_eq!(s.next_completion(), None);
    }

    #[test]
    fn the_wheel_grows_for_latencies_beyond_its_span() {
        let mut s = Scheduler::new(40, 8);
        s.schedule(2, 100);
        s.schedule(4, 5_000);
        s.schedule(3, 300);
        let mut due = Vec::new();
        s.pop_due(299, &mut due);
        assert_eq!(due, vec![2]);
        assert_eq!(s.next_completion(), Some(300));
        due.clear();
        s.pop_due(5_000, &mut due);
        assert_eq!(due, vec![3, 4]);
    }
}
