//! Trace-based leakage tracking, after the paper's companion tool
//! *Clueless* (§6.1–6.2).
//!
//! Two trackers run over the same committed-instruction trace:
//!
//! * **Global DIFT** — every register (and memory word) carries the set
//!   of memory addresses its value transitively derives from. When a
//!   value is *turned into an address* (used as the base of a memory
//!   access), every address in its provenance set becomes a **leakage
//!   point**: its content has been exposed to the memory hierarchy.
//!   A store to an address reverts it to non-leaked (its content is a
//!   new, unobserved value).
//! * **Direct load pairs** — ReCon's subset: a register directly written
//!   by a load (and not modified since) carries that one address; using
//!   it as a base leaks exactly that address. This is what the
//!   load-pair table can capture (§4.3).
//!
//! The pair-leaked set is a subset of the DIFT-leaked set by
//! construction; their ratio is the paper's Figure 4 / Figure 9 metric.

use std::sync::Arc;

use recon_isa::hash::FxHashMap;
use recon_isa::{ArchReg, Inst, MemEffect, StepRecord, NUM_ARCH_REGS};

/// Cap on provenance size. A union that would exceed it keeps the
/// [`PROVENANCE_CAP`] lowest word ids, i.e. the earliest-touched
/// addresses; the later ones are dropped and are *not* leaked when the
/// value becomes an address. Keeping the lowest ids makes the rule
/// deterministic and lets a saturated accumulator (`sum += a[i]`) absorb
/// each newer id in O(1). One exception: a loaded value always keeps the
/// loaded word itself (with the 127 lowest ids of the word's stored
/// provenance), so a direct pair's word is always DIFT-leaked too.
const PROVENANCE_CAP: usize = 128;

/// A touched word's dense index, handed out in first-touch order.
type WordId = u32;

/// Per-value provenance: the ids of the words the value derives from,
/// sorted and deduplicated. The common empty and single-id cases are
/// inline; larger lists are shared, so copying a provenance (an
/// immediate ALU op, a store, a union that adds nothing) never
/// allocates.
#[derive(Clone, Debug, Default)]
enum Provenance {
    #[default]
    Empty,
    One(WordId),
    /// Two to [`PROVENANCE_CAP`] ids.
    Many(Arc<[WordId]>),
}

impl Provenance {
    fn ids(&self) -> &[WordId] {
        match self {
            Provenance::Empty => &[],
            Provenance::One(id) => std::slice::from_ref(id),
            Provenance::Many(ids) => ids,
        }
    }

    fn from_sorted(ids: &[WordId]) -> Self {
        match *ids {
            [] => Provenance::Empty,
            [id] => Provenance::One(id),
            _ => Provenance::Many(ids.into()),
        }
    }

    /// The union of two provenances, capped to the lowest ids. Returns a
    /// shared copy of an operand whenever the union equals it.
    fn union(&self, other: &Self) -> Self {
        let (a, b) = (self.ids(), other.ids());
        if absorbs(a, b) {
            return self.clone();
        }
        if absorbs(b, a) {
            return other.clone();
        }
        let mut buf = [0; PROVENANCE_CAP];
        let (mut i, mut j, mut n) = (0, 0, 0);
        while n < PROVENANCE_CAP {
            let id = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) => {
                    i += usize::from(x <= y);
                    j += usize::from(y <= x);
                    x.min(y)
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => break,
            };
            buf[n] = id;
            n += 1;
        }
        Self::from_sorted(&buf[..n])
    }
}

/// Whether the capped union of `a` and `b` is `a` itself, checked
/// without building it: every id of `b` is in `a`, or `a` is full and
/// the id is above all of `a`'s (so a saturated list absorbs newer ids
/// at once).
fn absorbs(a: &[WordId], b: &[WordId]) -> bool {
    let full_below = match a.last() {
        Some(&last) if a.len() == PROVENANCE_CAP => last,
        _ => WordId::MAX,
    };
    let mut rest = a;
    b.iter().take_while(|&&id| id <= full_below).all(|&id| {
        match rest.iter().position(|&x| x >= id) {
            Some(k) if rest[k] == id => {
                rest = &rest[k + 1..];
                true
            }
            _ => false,
        }
    })
}

/// A set of word ids as a bitset with a running count.
#[derive(Debug, Default)]
struct IdSet {
    bits: Vec<u64>,
    len: usize,
}

impl IdSet {
    fn insert(&mut self, id: WordId) {
        let (w, mask) = (id as usize / 64, 1u64 << (id % 64));
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        if self.bits[w] & mask == 0 {
            self.bits[w] |= mask;
            self.len += 1;
        }
    }

    fn remove(&mut self, id: WordId) {
        let mask = 1u64 << (id % 64);
        if let Some(word) = self.bits.get_mut(id as usize / 64) {
            if *word & mask != 0 {
                *word &= !mask;
                self.len -= 1;
            }
        }
    }

    fn contains(&self, id: WordId) -> bool {
        self.bits
            .get(id as usize / 64)
            .is_some_and(|word| word & (1u64 << (id % 64)) != 0)
    }
}

/// The leakage analysis state.
///
/// Feed it every committed instruction (a [`recon_isa::StepRecord`]
/// stream) via
/// [`LeakageAnalysis::observe`], then read the [`crate::LeakReport`].
/// Every touched word address is interned to a dense `u32` id; all
/// per-word state lives in vectors and bitsets indexed by it.
#[derive(Debug, Default)]
pub struct LeakageAnalysis {
    /// Word address to id; its length is the touched-word count.
    ids: FxHashMap<u64, WordId>,
    /// Global-DIFT provenance per architectural register.
    reg_prov: [Provenance; NUM_ARCH_REGS],
    /// Provenance carried by memory words (through stores), by id.
    mem_prov: Vec<Provenance>,
    /// Direct-load provenance: register was written by a load from this
    /// word and is unmodified since.
    reg_direct: [Option<WordId>; NUM_ARCH_REGS],

    /// Words currently leaked per global DIFT.
    leaked_dift: IdSet,
    /// Words currently leaked via direct load pairs.
    leaked_pair: IdSet,
    /// Words ever leaked (never reverted) per global DIFT.
    ever_dift: IdSet,
    /// Words ever leaked via direct pairs.
    ever_pair: IdSet,
}

impl LeakageAnalysis {
    /// Creates an empty analysis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of `addr`, handing out the next one on first touch.
    fn intern(&mut self, addr: u64) -> WordId {
        let next = WordId::try_from(self.mem_prov.len()).expect("fewer than 2^32 touched words");
        let mem_prov = &mut self.mem_prov;
        *self.ids.entry(addr).or_insert_with(|| {
            mem_prov.push(Provenance::Empty);
            next
        })
    }

    fn leak_via_reg(&mut self, base: ArchReg) {
        // Global DIFT: everything in the base register's provenance has
        // now been exposed as (part of) an address.
        for &id in self.reg_prov[base.index()].ids() {
            self.leaked_dift.insert(id);
            self.ever_dift.insert(id);
        }
        // Direct pair: only a pristine directly-loaded value counts.
        if let Some(id) = self.reg_direct[base.index()] {
            self.leaked_pair.insert(id);
            self.ever_pair.insert(id);
        }
    }

    fn write_reg(&mut self, dst: ArchReg, prov: Provenance, direct: Option<WordId>) {
        if dst.is_zero() {
            return;
        }
        self.reg_prov[dst.index()] = prov;
        self.reg_direct[dst.index()] = direct;
    }

    /// The provenance of the value loaded from word `id`: the word
    /// itself plus whatever the word's stored provenance was. The word
    /// is never capped away, as it is what a direct pair leaks; a full
    /// stored provenance gives up its highest id for it instead.
    fn loaded_prov(&self, id: WordId) -> Provenance {
        let stored = &self.mem_prov[id as usize];
        let ids = stored.ids();
        if ids.len() < PROVENANCE_CAP || ids.binary_search(&id).is_ok() {
            return stored.union(&Provenance::One(id));
        }
        let mut kept = ids[..PROVENANCE_CAP - 1].to_vec();
        let at = kept.partition_point(|&x| x < id);
        kept.insert(at, id);
        Provenance::from_sorted(&kept)
    }

    /// Processes one committed instruction.
    pub fn observe(&mut self, rec: &StepRecord) {
        // 1. Address uses leak the provenance of every address source
        //    (two for multi-source loads, §5.1.1).
        for base in rec.inst.addr_srcs().into_iter().flatten() {
            self.leak_via_reg(base);
        }
        // 2. Memory effects update touched / reverts.
        let word = match rec.mem {
            MemEffect::Load { addr, .. } => Some(self.intern(addr)),
            MemEffect::Store { addr, .. } | MemEffect::Amo { addr, .. } => {
                let id = self.intern(addr);
                // New content: the word reverts to non-leaked.
                self.leaked_dift.remove(id);
                self.leaked_pair.remove(id);
                Some(id)
            }
            MemEffect::None => None,
        };
        // 3. Dataflow.
        match rec.inst {
            Inst::LoadImm { dst, .. } => {
                self.write_reg(dst, Provenance::Empty, None);
            }
            Inst::Alu { dst, a, b, .. } => {
                let prov = self.reg_prov[a.index()].union(&self.reg_prov[b.index()]);
                self.write_reg(dst, prov, None);
            }
            Inst::AluImm { dst, a, .. } => {
                let prov = self.reg_prov[a.index()].clone();
                self.write_reg(dst, prov, None);
            }
            Inst::Load { dst, .. } | Inst::LoadIdx { dst, .. } => {
                let id = word.expect("a load records a Load effect");
                let prov = self.loaded_prov(id);
                self.write_reg(dst, prov, Some(id));
            }
            Inst::Store { val, .. } => {
                let id = word.expect("a store records a Store effect");
                self.mem_prov[id as usize] = self.reg_prov[val.index()].clone();
            }
            Inst::AmoAdd { dst, add, .. } => {
                let id = word.expect("an amo records an Amo effect");
                let loaded = self.loaded_prov(id);
                // `add` is read before `dst` is written, even when they
                // are the same register.
                self.mem_prov[id as usize] = loaded.union(&self.reg_prov[add.index()]);
                self.write_reg(dst, loaded, None);
            }
            Inst::Branch { .. } | Inst::Jump { .. } | Inst::Nop | Inst::Halt => {}
        }
    }

    /// Words the program has touched so far.
    #[must_use]
    pub fn touched_words(&self) -> usize {
        self.ids.len()
    }

    /// Addresses currently leaked under global DIFT.
    #[must_use]
    pub fn dift_leaked_now(&self) -> usize {
        self.leaked_dift.len
    }

    /// Addresses currently leaked via direct load pairs.
    #[must_use]
    pub fn pair_leaked_now(&self) -> usize {
        self.leaked_pair.len
    }

    /// Addresses ever leaked under global DIFT.
    #[must_use]
    pub fn dift_leaked_ever(&self) -> usize {
        self.ever_dift.len
    }

    /// Addresses ever leaked via direct load pairs.
    #[must_use]
    pub fn pair_leaked_ever(&self) -> usize {
        self.ever_pair.len
    }

    /// Whether `addr` is currently a DIFT leakage point.
    #[must_use]
    pub fn is_leaked(&self, addr: u64) -> bool {
        self.ids
            .get(&addr)
            .is_some_and(|&id| self.leaked_dift.contains(id))
    }

    /// Whether `addr` is currently a direct-pair leakage point.
    #[must_use]
    pub fn is_pair_leaked(&self, addr: u64) -> bool {
        self.ids
            .get(&addr)
            .is_some_and(|&id| self.leaked_pair.contains(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::reg::names::*;
    use recon_isa::{run_collect, Asm};

    fn analyze(asm: Asm) -> LeakageAnalysis {
        let p = asm.assemble().unwrap();
        let (trace, _) = run_collect(&p, 1_000_000).unwrap();
        let mut la = LeakageAnalysis::new();
        for rec in &trace {
            la.observe(rec);
        }
        la
    }

    #[test]
    fn direct_dereference_leaks_the_pointer_word() {
        let mut a = Asm::new();
        a.data(0x100, 0x200).data(0x200, 5);
        a.li(R1, 0x100).load(R2, R1, 0).load(R3, R2, 0).halt();
        let la = analyze(a);
        assert!(
            la.is_leaked(0x100),
            "0x100's content was used as an address"
        );
        assert!(la.is_pair_leaked(0x100), "and it was a direct pair");
        assert!(
            !la.is_leaked(0x200),
            "the target's content never became an address"
        );
    }

    #[test]
    fn indirect_dereference_leaks_dift_only() {
        // v = mem[0x100] + mem[0x108]; load [v]: both sources leak under
        // DIFT; neither is a *direct* pair.
        let mut a = Asm::new();
        a.data(0x100, 0x80).data(0x108, 0x80).data(0x100 + 0x60, 1);
        a.li(R1, 0x100);
        a.load(R2, R1, 0);
        a.load(R3, R1, 8);
        a.add(R4, R2, R3);
        a.load(R5, R4, 0);
        a.halt();
        let la = analyze(a);
        assert!(la.is_leaked(0x100) && la.is_leaked(0x108));
        assert!(!la.is_pair_leaked(0x100) && !la.is_pair_leaked(0x108));
        assert!(la.dift_leaked_now() >= 2);
        assert_eq!(la.pair_leaked_now(), 0);
    }

    #[test]
    fn offset_still_forms_a_pair() {
        let mut a = Asm::new();
        a.data(0x100, 0x200).data(0x210, 5);
        a.li(R1, 0x100).load(R2, R1, 0).load(R3, R2, 0x10).halt();
        let la = analyze(a);
        assert!(
            la.is_pair_leaked(0x100),
            "offsets do not break pairs (§4.3)"
        );
    }

    #[test]
    fn store_reverts_leakage() {
        let mut a = Asm::new();
        a.data(0x100, 0x200).data(0x200, 5);
        a.li(R1, 0x100).load(R2, R1, 0).load(R3, R2, 0);
        a.li(R4, 0x300).store(R4, R1, 0); // overwrite the pointer word
        a.halt();
        let la = analyze(a);
        assert!(!la.is_leaked(0x100), "new content is unobserved");
        assert!(!la.is_pair_leaked(0x100));
        assert_eq!(la.dift_leaked_ever(), 1, "but it *was* leaked once");
    }

    #[test]
    fn provenance_propagates_through_memory() {
        // v = mem[0x100]; store v to 0x300; w = mem[0x300]; load [w]:
        // 0x100 leaked (its content flowed into the address), and 0x300
        // leaked too.
        let mut a = Asm::new();
        a.data(0x100, 0x400).data(0x400, 9);
        a.li(R1, 0x100).load(R2, R1, 0);
        a.li(R3, 0x300).store(R2, R3, 0);
        a.load(R4, R3, 0);
        a.load(R5, R4, 0);
        a.halt();
        let la = analyze(a);
        assert!(la.is_leaked(0x100), "provenance flowed through memory");
        assert!(la.is_leaked(0x300));
        // The final load *is* a direct pair with the load from 0x300.
        assert!(la.is_pair_leaked(0x300));
        assert!(!la.is_pair_leaked(0x100), "0x100 is two hops away");
    }

    #[test]
    fn alu_breaks_direct_but_not_dift() {
        let mut a = Asm::new();
        a.data(0x100, 0x1F8).data(0x200, 5);
        a.li(R1, 0x100).load(R2, R1, 0);
        a.addi(R2, R2, 8); // modify: no longer a pristine load value
        a.load(R3, R2, 0);
        a.halt();
        let la = analyze(a);
        assert!(la.is_leaked(0x100));
        assert!(!la.is_pair_leaked(0x100));
    }

    #[test]
    fn touched_counts_all_accessed_words() {
        let mut a = Asm::new();
        a.data(0x100, 1);
        a.li(R1, 0x100).load(R2, R1, 0).store(R2, R1, 8).halt();
        let la = analyze(a);
        assert_eq!(la.touched_words(), 2);
    }

    #[test]
    fn capped_provenance_keeps_the_earliest_touched_words() {
        // sum = a[0] + ... + a[199]; load [sum]: the sum's provenance is
        // capped, and exactly the 128 earliest-touched words leak.
        const WORDS: u64 = 200;
        let mut a = Asm::new();
        for i in 0..WORDS {
            a.data(0x1000 + i * 8, 0);
        }
        a.li(R1, 0x1000).li(R5, 0);
        for i in 0..WORDS {
            a.load(R2, R1, i as i64 * 8);
            a.add(R5, R5, R2);
        }
        a.load(R6, R5, 0x1000);
        a.halt();
        let la = analyze(a);
        assert_eq!(la.dift_leaked_ever(), PROVENANCE_CAP);
        for i in 0..WORDS {
            assert_eq!(
                la.is_leaked(0x1000 + i * 8),
                i < PROVENANCE_CAP as u64,
                "word {i}"
            );
        }
        assert_eq!(la.pair_leaked_ever(), 0);
    }

    #[test]
    fn reloading_a_capped_value_keeps_the_loaded_word() {
        // sum = a[0] + ... + a[199]; store sum to a fresh word X; reload
        // it and dereference it. X is touched after every a[i], so its
        // id is the highest, yet it is the direct pair and must leak
        // under DIFT too.
        const WORDS: u64 = 200;
        const X: u64 = 0x8000;
        let mut a = Asm::new();
        for i in 0..WORDS {
            a.data(0x1000 + i * 8, 0);
        }
        a.li(R1, 0x1000).li(R5, 0);
        for i in 0..WORDS {
            a.load(R2, R1, i as i64 * 8);
            a.add(R5, R5, R2);
        }
        a.li(R3, X).store(R5, R3, 0);
        a.load(R4, R3, 0).load(R6, R4, 0x1000);
        a.halt();
        let la = analyze(a);
        assert!(la.is_pair_leaked(X) && la.is_leaked(X));
        assert_eq!(la.pair_leaked_ever(), 1);
        // X takes the place of the highest of the 128 earliest words.
        assert_eq!(la.dift_leaked_ever(), PROVENANCE_CAP);
        for i in 0..WORDS {
            assert_eq!(
                la.is_leaked(0x1000 + i * 8),
                i + 1 < PROVENANCE_CAP as u64,
                "word {i}"
            );
        }
    }

    #[test]
    fn amo_reads_its_addend_before_writing_it() {
        // amoadd r2, [0x100], r2: the addend's provenance (0x200) flows
        // into the stored sum even though r2 is also the destination.
        let mut a = Asm::new();
        a.data(0x100, 0).data(0x200, 0x300);
        a.li(R1, 0x100).li(R4, 0x200).load(R2, R4, 0);
        a.amoadd(R2, R1, 0, R2);
        a.load(R3, R1, 0).load(R5, R3, 0);
        a.halt();
        let la = analyze(a);
        assert!(la.is_leaked(0x100) && la.is_leaked(0x200));
        assert!(la.is_pair_leaked(0x100) && !la.is_pair_leaked(0x200));
    }

    #[test]
    fn capped_union_keeps_the_lowest_ids_and_shares_absorbed_operands() {
        let ids = |r: std::ops::Range<WordId>| Provenance::from_sorted(&r.collect::<Vec<_>>());
        let full = ids(0..PROVENANCE_CAP as WordId);
        // A saturated set absorbs a newer id without copying.
        let grown = full.union(&Provenance::One(500));
        let (Provenance::Many(x), Provenance::Many(y)) = (&full, &grown) else {
            panic!("both are lists")
        };
        assert!(Arc::ptr_eq(x, y));
        // An older id displaces the highest one.
        let evens: Vec<WordId> = (0..PROVENANCE_CAP as WordId).map(|i| 2 * i).collect();
        let u = Provenance::from_sorted(&evens).union(&Provenance::from_sorted(&[1, 3, 1000]));
        assert_eq!(u.ids().len(), PROVENANCE_CAP);
        assert_eq!(&u.ids()[..5], &[0, 1, 2, 3, 4]);
        assert_eq!(u.ids().last(), Some(&(2 * (PROVENANCE_CAP as WordId - 3))));
        // Subsets and empties return an operand; singletons stay inline.
        assert!(matches!(
            Provenance::One(7).union(&Provenance::Empty),
            Provenance::One(7)
        ));
        assert_eq!(
            ids(0..4).union(&Provenance::from_sorted(&[1, 3])).ids(),
            &[0, 1, 2, 3]
        );
        assert_eq!(
            Provenance::from_sorted(&[1, 3]).union(&ids(2..5)).ids(),
            &[1, 2, 3, 4]
        );
    }

    #[test]
    fn pair_leaks_are_subset_of_dift() {
        // Structural invariant, exercised on a small pointer-chase.
        let mut a = Asm::new();
        for i in 0..8u64 {
            a.data(0x1000 + i * 8, 0x2000 + ((i + 1) % 8) * 8);
            a.data(0x2000 + i * 8, 0x1000 + i * 8);
        }
        a.li(R1, 0x1000);
        for _ in 0..16 {
            a.load(R1, R1, 0);
        }
        a.halt();
        let la = analyze(a);
        assert!(la.pair_leaked_now() <= la.dift_leaked_now());
        assert!(la.pair_leaked_now() > 0);
    }
}
