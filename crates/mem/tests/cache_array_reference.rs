//! `CacheArray` against a naive reference model.
//!
//! The array stores its ways as a structure of arrays, counts valid
//! ways per set and finds the LRU way with four running minima. The
//! reference below is the plain
//! form: a `Vec` of way records per set, the first invalid way as the
//! victim, else the way with the smallest `last_use`. Seeded
//! `SplitMix64` sequences of fills, touches, invalidations, mask merges
//! and state changes run on both, and after every step the evictions,
//! lookups, occupancy and checkpoint bytes must agree. Failures name
//! the seed and step.

use recon::RevealMask;
use recon_isa::rng::{Rng as _, SplitMix64};
use recon_isa::snap::{SnapReader, SnapWriter};
use recon_mem::{CacheArray, CacheGeometry, Evicted, Mesi};

const LINE_BYTES: u64 = 64;

#[derive(Clone, Copy, Default)]
struct Way {
    valid: bool,
    tag: u64,
    state: Mesi,
    mask: u8,
    last_use: u64,
}

struct Reference {
    geom: CacheGeometry,
    sets: Vec<Vec<Way>>,
    tick: u64,
}

impl Reference {
    fn new(geom: CacheGeometry) -> Self {
        Reference {
            geom,
            sets: vec![vec![Way::default(); geom.ways()]; geom.num_sets()],
            tick: 0,
        }
    }

    fn find(&self, addr: u64) -> Option<(usize, usize)> {
        let (set, tag) = self.geom.slice(addr);
        let way = self.sets[set]
            .iter()
            .position(|w| w.valid && w.tag == tag)?;
        Some((set, way))
    }

    fn fill(&mut self, addr: u64, state: Mesi, mask: u8) -> Option<Evicted> {
        self.tick += 1;
        if let Some((s, w)) = self.find(addr) {
            let way = &mut self.sets[s][w];
            (way.state, way.mask, way.last_use) = (state, mask, self.tick);
            return None;
        }
        let (set, tag) = self.geom.slice(addr);
        let ways = &self.sets[set];
        let victim = ways.iter().position(|w| !w.valid).unwrap_or_else(|| {
            (0..ways.len())
                .min_by_key(|&i| ways[i].last_use)
                .expect("positive associativity")
        });
        let old = ways[victim];
        self.sets[set][victim] = Way {
            valid: true,
            tag,
            state,
            mask,
            last_use: self.tick,
        };
        old.valid.then(|| Evicted {
            addr: self.geom.unslice(set, old.tag),
            state: old.state,
            mask: RevealMask::from_bits(old.mask),
        })
    }

    fn touch(&mut self, addr: u64) -> Option<(Mesi, RevealMask)> {
        let (s, w) = self.find(addr)?;
        self.tick += 1;
        let way = &mut self.sets[s][w];
        way.last_use = self.tick;
        Some((way.state, RevealMask::from_bits(way.mask)))
    }

    fn invalidate(&mut self, addr: u64) -> Option<(Mesi, RevealMask)> {
        let (s, w) = self.find(addr)?;
        let way = &mut self.sets[s][w];
        let mask = way.mask;
        way.valid = false;
        way.mask = 0;
        Some((way.state, RevealMask::from_bits(mask)))
    }

    fn or_mask(&mut self, addr: u64, mask: u8) -> bool {
        self.find(addr)
            .map(|(s, w)| self.sets[s][w].mask |= mask)
            .is_some()
    }

    fn set_state(&mut self, addr: u64, state: Mesi) -> bool {
        self.find(addr)
            .map(|(s, w)| self.sets[s][w].state = state)
            .is_some()
    }

    fn state_of(&self, addr: u64) -> Option<Mesi> {
        self.find(addr).map(|(s, w)| self.sets[s][w].state)
    }

    fn mask_of(&self, addr: u64) -> Option<RevealMask> {
        self.find(addr)
            .map(|(s, w)| RevealMask::from_bits(self.sets[s][w].mask))
    }

    fn lines(&self) -> Vec<(u64, Mesi, RevealMask)> {
        let mut v = Vec::new();
        for (set, ways) in self.sets.iter().enumerate() {
            for w in ways.iter().filter(|w| w.valid) {
                v.push((
                    self.geom.unslice(set, w.tag),
                    w.state,
                    RevealMask::from_bits(w.mask),
                ));
            }
        }
        v
    }

    /// The `CARR` checkpoint encoding, way by way.
    fn snap(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.tag(b"CARR");
        w.u64(self.tick);
        w.u32(self.sets.len() as u32);
        w.u32(self.geom.ways() as u32);
        for way in self.sets.iter().flatten() {
            w.bool(way.valid);
            w.u64(way.tag);
            w.u8(match way.state {
                Mesi::Invalid => 0,
                Mesi::Shared => 1,
                Mesi::Exclusive => 2,
                Mesi::Modified => 3,
            });
            w.u8(way.mask);
            w.u64(way.last_use);
        }
        w.into_bytes()
    }
}

fn snap(c: &CacheArray) -> Vec<u8> {
    let mut w = SnapWriter::new();
    c.save_snap(&mut w);
    w.into_bytes()
}

const STATES: [Mesi; 4] = [Mesi::Invalid, Mesi::Shared, Mesi::Exclusive, Mesi::Modified];

/// Runs `steps` random operations on both models over a pool of
/// `pool` lines (a few times the capacity, so sets overflow).
fn replay(geom: CacheGeometry, seed: u64, steps: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut dut = CacheArray::new(geom);
    let mut refm = Reference::new(geom);
    let pool = geom.num_lines() as u64 * 3;
    for step in 0..steps {
        let ctx = format!(
            "seed {seed:#x} step {step} ({} sets x {} ways)",
            geom.num_sets(),
            geom.ways()
        );
        let addr = rng.below(pool) * LINE_BYTES + rng.below(LINE_BYTES / 8) * 8;
        let bits = rng.next_u64() as u8;
        match rng.below(10) {
            0..=3 => {
                let state = STATES[1 + rng.below_usize(3)];
                let mask = RevealMask::from_bits(bits);
                assert_eq!(
                    dut.fill(addr, state, mask),
                    refm.fill(addr, state, bits),
                    "fill: {ctx}"
                );
            }
            4 | 5 => assert_eq!(dut.touch(addr), refm.touch(addr), "touch: {ctx}"),
            6 => assert_eq!(
                dut.invalidate(addr),
                refm.invalidate(addr),
                "invalidate: {ctx}"
            ),
            7 | 8 => assert_eq!(
                dut.or_mask(addr, RevealMask::from_bits(bits)),
                refm.or_mask(addr, bits),
                "or_mask: {ctx}"
            ),
            _ => {
                let state = STATES[rng.below_usize(4)];
                assert_eq!(
                    dut.set_state(addr, state),
                    refm.set_state(addr, state),
                    "set_state: {ctx}"
                );
            }
        }
        let probe = rng.below(pool) * LINE_BYTES;
        assert_eq!(dut.state_of(probe), refm.state_of(probe), "state_of: {ctx}");
        assert_eq!(dut.mask_of(probe), refm.mask_of(probe), "mask_of: {ctx}");
        assert_eq!(
            dut.find(probe).is_some(),
            refm.find(probe).is_some(),
            "find: {ctx}"
        );
        let want = refm.lines();
        assert_eq!(dut.iter_lines().collect::<Vec<_>>(), want, "lines: {ctx}");
        assert_eq!(dut.occupancy(), want.len(), "occupancy: {ctx}");
        let revealed: u64 = want.iter().map(|l| u64::from(l.2.count_revealed())).sum();
        assert_eq!(dut.revealed_words(), revealed, "revealed words: {ctx}");
        if step % 16 == 0 {
            assert_eq!(snap(&dut), refm.snap(), "snapshot bytes: {ctx}");
        }
    }
    // A restored array encodes identically and keeps replacing the same
    // victims as the original.
    let bytes = snap(&dut);
    assert_eq!(bytes, refm.snap(), "final snapshot bytes, seed {seed:#x}");
    let mut back = CacheArray::load_snap(geom, &mut SnapReader::new(&bytes)).unwrap();
    assert_eq!(snap(&back), bytes, "restored bytes, seed {seed:#x}");
    for i in 0..geom.num_lines() as u64 * 2 {
        let addr = (pool + i) * LINE_BYTES;
        let state = Mesi::Shared;
        let mask = RevealMask::all_concealed();
        assert_eq!(
            back.fill(addr, state, mask),
            refm.fill(addr, state, 0),
            "refill {i}, seed {seed:#x}"
        );
    }
}

#[test]
fn cache_array_matches_the_reference_model() {
    let geometries = [
        CacheGeometry::new(4 * 64, 1),
        CacheGeometry::new(4 * 4 * 64, 4),
        CacheGeometry::new(2 * 8 * 64, 8),
        CacheGeometry::new(2 * 32 * 64, 32),
        CacheGeometry::new(64 * 64, 64),
    ];
    for (g, geom) in geometries.into_iter().enumerate() {
        for seed in 0..6u64 {
            replay(geom, 0xca_c4e0_0000 + (g as u64) * 0x100 + seed, 2_000);
        }
    }
}

#[test]
fn lookup_hands_on_the_hit_slot_or_the_fill_victim() {
    // 1 set x 4 ways: fill three lines, invalidate the middle one; the
    // next miss fills that hole, and a full set then evicts the LRU way.
    let geom = CacheGeometry::new(4 * 64, 4);
    let mut c = CacheArray::new(geom);
    let concealed = RevealMask::all_concealed();
    for line in 0..3u64 {
        c.fill(line * 64, Mesi::Shared, concealed);
    }
    let hole = c.find(64).unwrap();
    c.invalidate(64);
    let miss = c.lookup(7 * 64).unwrap_err();
    assert_eq!(c.fill_miss(miss, Mesi::Modified, concealed), (hole, None));
    c.fill(8 * 64, Mesi::Shared, concealed); // the last invalid way
    let hit = c.lookup(0).unwrap();
    assert_eq!(c.touch_at(hit), (Mesi::Shared, concealed));
    // Line 2 (way 2) is now the least recently used.
    let lru = c.find(2 * 64).unwrap();
    let miss = c.lookup(9 * 64).unwrap_err();
    let (slot, evicted) = c.fill_miss(miss, Mesi::Shared, concealed);
    assert_eq!(slot, lru);
    assert_eq!(evicted.map(|e| e.addr), Some(2 * 64));
}
