//! Generic set-associative cache array with LRU replacement.
//!
//! The array stores coherence metadata (tag, MESI state) plus the ReCon
//! [`RevealMask`]. Data values are *not* stored: the reproduction is a
//! timing-directed model where architectural data lives in a flat
//! functional memory (see `recon-sim`), as in many timing simulators.
//!
//! Reveal masks live in a dense [`MaskArray`] indexed by `(set, way)`
//! rather than inside the per-way metadata, so array-wide mask
//! operations (occupancy-style reveal counts, any-revealed probes) run
//! over packed `u64` words instead of walking every way a byte at a
//! time.

use recon::{MaskArray, RevealMask};
use recon_isa::snap::{SnapError, SnapReader, SnapWriter};

use crate::geometry::CacheGeometry;
use crate::mesi::Mesi;

/// One way of one set (coherence metadata only — the reveal mask is in
/// the array's packed [`MaskArray`]).
#[derive(Clone, Copy, Debug, Default)]
struct Way {
    valid: bool,
    tag: u64,
    state: Mesi,
    last_use: u64,
}

/// A line evicted by [`CacheArray::fill`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Evicted {
    /// Line base address of the victim.
    pub addr: u64,
    /// Its MESI state at eviction.
    pub state: Mesi,
    /// Its reveal mask at eviction (to be merged or written back).
    pub mask: RevealMask,
}

/// Set-associative array of coherence + reveal metadata.
///
/// ```
/// use recon_mem::{CacheArray, CacheGeometry, Mesi};
/// use recon::RevealMask;
///
/// let mut c = CacheArray::new(CacheGeometry::new(1024, 2));
/// assert!(c.state_of(0x0).is_none());
/// c.fill(0x0, Mesi::Shared, RevealMask::all_concealed());
/// assert_eq!(c.state_of(0x0), Some(Mesi::Shared));
/// ```
#[derive(Clone, Debug)]
pub struct CacheArray {
    geom: CacheGeometry,
    sets: Vec<Vec<Way>>,
    /// The lookup index: the tag of each valid way in `(set, way)`
    /// order and [`NO_LINE`] for an invalid one, so a lookup scans one
    /// packed `u64` per way instead of whole `Way` records. `fill`,
    /// `invalidate` and `load_snap`, the only writers of a way's valid
    /// bit or tag, keep it in step with `sets`.
    keys: Vec<u64>,
    masks: MaskArray,
    tick: u64,
}

/// The key of an invalid way. A tag is a line number shifted right by
/// the set-index bits, so it is never all ones.
const NO_LINE: u64 = u64::MAX;

impl CacheArray {
    /// Creates an empty array with the given geometry.
    #[must_use]
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = vec![vec![Way::default(); geom.ways()]; geom.num_sets()];
        let masks = MaskArray::new(geom.num_sets() * geom.ways());
        CacheArray {
            geom,
            sets,
            keys: vec![NO_LINE; geom.num_sets() * geom.ways()],
            masks,
            tick: 0,
        }
    }

    /// The array's geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Flat index of `(set, way)` into the packed mask array.
    #[inline]
    fn mask_slot(&self, set: usize, way: usize) -> usize {
        set * self.geom.ways() + way
    }

    /// The keys of `set`'s ways.
    fn set_keys(&self, set: usize) -> &[u64] {
        let ways = self.geom.ways();
        &self.keys[set * ways..(set + 1) * ways]
    }

    fn find(&self, addr: u64) -> Option<(usize, usize)> {
        let (set, tag) = self.geom.slice(addr);
        self.set_keys(set)
            .iter()
            .position(|&k| k == tag)
            .map(|way| (set, way))
    }

    /// The MESI state of the line containing `addr`, if present.
    #[must_use]
    pub fn state_of(&self, addr: u64) -> Option<Mesi> {
        self.find(addr).map(|(s, w)| self.sets[s][w].state)
    }

    /// The reveal mask of the line containing `addr`, if present.
    #[must_use]
    pub fn mask_of(&self, addr: u64) -> Option<RevealMask> {
        self.find(addr)
            .map(|(s, w)| self.masks.get(self.mask_slot(s, w)))
    }

    /// Looks up the line and refreshes its LRU position. Returns
    /// `(state, mask)` on hit.
    pub fn touch(&mut self, addr: u64) -> Option<(Mesi, RevealMask)> {
        let (s, w) = self.find(addr)?;
        self.tick += 1;
        self.sets[s][w].last_use = self.tick;
        Some((self.sets[s][w].state, self.masks.get(self.mask_slot(s, w))))
    }

    /// Changes the state of a present line. Returns `false` if absent.
    pub fn set_state(&mut self, addr: u64, state: Mesi) -> bool {
        match self.find(addr) {
            Some((s, w)) => {
                self.sets[s][w].state = state;
                true
            }
            None => false,
        }
    }

    /// Replaces the mask of a present line. Returns `false` if absent.
    pub fn set_mask(&mut self, addr: u64, mask: RevealMask) -> bool {
        match self.find(addr) {
            Some((s, w)) => {
                self.masks.set(self.mask_slot(s, w), mask);
                true
            }
            None => false,
        }
    }

    /// Applies `f` to the mask of a present line. Returns `false` if
    /// absent.
    pub fn update_mask(&mut self, addr: u64, f: impl FnOnce(&mut RevealMask)) -> bool {
        match self.find(addr) {
            Some((s, w)) => {
                let slot = self.mask_slot(s, w);
                let mut mask = self.masks.get(slot);
                f(&mut mask);
                self.masks.set(slot, mask);
                true
            }
            None => false,
        }
    }

    /// ORs `mask` into a present line's mask via the packed batch path
    /// (the §5.3 merge rule). Returns `false` if absent.
    pub fn or_mask(&mut self, addr: u64, mask: RevealMask) -> bool {
        match self.find(addr) {
            Some((s, w)) => {
                self.masks.or_line(self.mask_slot(s, w), mask);
                true
            }
            None => false,
        }
    }

    /// Inserts a line, evicting the LRU victim if the set is full.
    ///
    /// The caller handles the returned victim (writeback / directory
    /// notification / mask merge). Filling an already-present line just
    /// updates its state and mask.
    pub fn fill(&mut self, addr: u64, state: Mesi, mask: RevealMask) -> Option<Evicted> {
        debug_assert!(state.readable(), "filling an Invalid line is meaningless");
        self.tick += 1;
        let tick = self.tick;
        if let Some((s, w)) = self.find(addr) {
            let slot = self.mask_slot(s, w);
            let way = &mut self.sets[s][w];
            way.state = state;
            way.last_use = tick;
            self.masks.set(slot, mask);
            return None;
        }
        let (set, tag) = self.geom.slice(addr);
        let slot = if let Some(i) = self.set_keys(set).iter().position(|&k| k == NO_LINE) {
            i
        } else {
            // LRU victim.
            self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_use)
                .map(|(i, _)| i)
                .expect("associativity is positive")
        };
        let mask_slot = self.mask_slot(set, slot);
        let victim = &self.sets[set][slot];
        let evicted = victim.valid.then(|| Evicted {
            addr: self.geom.unslice(set, victim.tag),
            state: victim.state,
            mask: self.masks.get(mask_slot),
        });
        self.sets[set][slot] = Way {
            valid: true,
            tag,
            state,
            last_use: tick,
        };
        self.keys[mask_slot] = tag;
        self.masks.set(mask_slot, mask);
        evicted
    }

    /// Removes a line, returning its `(state, mask)` if it was present.
    pub fn invalidate(&mut self, addr: u64) -> Option<(Mesi, RevealMask)> {
        let (s, w) = self.find(addr)?;
        let slot = self.mask_slot(s, w);
        let mask = self.masks.get(slot);
        // Conceal the slot so array-wide packed scans only see valid
        // lines' reveal bits.
        self.masks.set(slot, RevealMask::all_concealed());
        self.keys[slot] = NO_LINE;
        let way = &mut self.sets[s][w];
        way.valid = false;
        Some((way.state, mask))
    }

    /// Number of valid lines (for tests and occupancy stats).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.sets.iter().flatten().filter(|w| w.valid).count()
    }

    /// Total revealed words across all resident lines, computed by
    /// `u64` popcount over the packed mask array — no per-way walk.
    ///
    /// Invalidated slots are concealed eagerly, so the packed count
    /// equals the sum over valid lines.
    #[must_use]
    pub fn revealed_words(&self) -> u64 {
        self.masks.count_revealed()
    }

    /// Iterates over `(line_addr, state, mask)` of every valid line.
    pub fn iter_lines(&self) -> impl Iterator<Item = (u64, Mesi, RevealMask)> + '_ {
        self.sets.iter().enumerate().flat_map(move |(set, ways)| {
            ways.iter()
                .enumerate()
                .filter(|(_, w)| w.valid)
                .map(move |(way, w)| {
                    (
                        self.geom.unslice(set, w.tag),
                        w.state,
                        self.masks.get(self.mask_slot(set, way)),
                    )
                })
        })
    }

    /// Invariant sweep over this array's internal bookkeeping:
    ///
    /// * an **invalid** slot's packed reveal mask must be fully
    ///   concealed ([`CacheArray::invalidate`] conceals eagerly, and
    ///   [`CacheArray::revealed_words`] depends on it);
    /// * a **valid** way must be in a readable MESI state — `Invalid`
    ///   metadata under a set valid bit is a contradiction
    ///   ([`CacheArray::fill`] asserts readability on entry);
    /// * no set may hold two valid ways with the same tag (lookups
    ///   would resolve nondeterministically).
    ///
    /// Violations are appended to `out` labeled with `site`.
    pub fn audit(&self, site: &str, out: &mut Vec<recon::AuditViolation>) {
        for (set, ways) in self.sets.iter().enumerate() {
            for (way, meta) in ways.iter().enumerate() {
                let mask = self.masks.get(self.mask_slot(set, way));
                if !meta.valid && mask.bits() != 0 {
                    out.push(recon::AuditViolation::new(
                        "mask-on-invalid-way",
                        site,
                        format!(
                            "set {set} way {way}: invalid slot carries reveal bits {:#04x}",
                            mask.bits()
                        ),
                    ));
                }
                if meta.valid && !meta.state.readable() {
                    out.push(recon::AuditViolation::new(
                        "valid-way-unreadable",
                        site,
                        format!(
                            "set {set} way {way} (line {:#x}): valid bit set but state Invalid",
                            self.geom.unslice(set, meta.tag)
                        ),
                    ));
                }
            }
            for (i, a) in ways.iter().enumerate() {
                if !a.valid {
                    continue;
                }
                for b in &ways[i + 1..] {
                    if b.valid && a.tag == b.tag {
                        out.push(recon::AuditViolation::new(
                            "duplicate-tag",
                            site,
                            format!(
                                "set {set}: two valid ways hold line {:#x}",
                                self.geom.unslice(set, a.tag)
                            ),
                        ));
                    }
                }
            }
        }
    }

    /// Soft-error injection hook: flips one random bit of one slot's
    /// packed reveal mask (valid or invalid — soft errors do not read
    /// the valid bit first). Returns a description of the flip.
    pub fn inject_mask_bit(&mut self, rng: &mut recon_isa::rng::SplitMix64) -> Option<String> {
        use recon_isa::rng::Rng as _;
        let slots = self.sets.len() * self.geom.ways();
        if slots == 0 {
            return None;
        }
        let slot = rng.next_u64() as usize % slots;
        let word = rng.next_u64() as usize % recon::WORDS_PER_LINE;
        let mut mask = self.masks.get(slot);
        if mask.is_revealed(word) {
            mask.conceal(word);
        } else {
            mask.reveal(word);
        }
        self.masks.set(slot, mask);
        let (set, way) = (slot / self.geom.ways(), slot % self.geom.ways());
        let valid = self.sets[set][way].valid;
        Some(format!(
            "mask bit {word} of set {set} way {way} flipped (way {})",
            if valid { "valid" } else { "invalid" }
        ))
    }

    /// Soft-error injection hook: overwrites the MESI state of a random
    /// *valid* way with a different random state (possibly `Invalid`,
    /// modeling a decayed state field). Returns a description, or
    /// `None` when the array holds no valid line.
    pub fn inject_state_flip(&mut self, rng: &mut recon_isa::rng::SplitMix64) -> Option<String> {
        use recon_isa::rng::Rng as _;
        let valid: Vec<(usize, usize)> = self
            .sets
            .iter()
            .enumerate()
            .flat_map(|(s, ways)| {
                ways.iter()
                    .enumerate()
                    .filter(|(_, w)| w.valid)
                    .map(move |(w, _)| (s, w))
            })
            .collect();
        let &(set, way) = valid.get(rng.next_u64() as usize % valid.len().max(1))?;
        let old = self.sets[set][way].state;
        let choices = [Mesi::Invalid, Mesi::Shared, Mesi::Exclusive, Mesi::Modified];
        let new = choices[rng.next_u64() as usize % choices.len()];
        let new = if new == old {
            choices[(mesi_to_u8(old) as usize + 1) % choices.len()]
        } else {
            new
        };
        self.sets[set][way].state = new;
        Some(format!(
            "line {:#x}: MESI {old:?} -> {new:?}",
            self.geom.unslice(set, self.sets[set][way].tag)
        ))
    }

    /// Serializes every way of every set in array order, including LRU
    /// timestamps, so replacement decisions replay identically after a
    /// restore. Geometry is *not* stored — it is re-derived from the
    /// run configuration and validated by the caller.
    pub fn save_snap(&self, w: &mut SnapWriter) {
        w.tag(b"CARR");
        w.u64(self.tick);
        w.u32(self.sets.len() as u32);
        w.u32(self.geom.ways() as u32);
        for (set, ways) in self.sets.iter().enumerate() {
            for (way, meta) in ways.iter().enumerate() {
                w.bool(meta.valid);
                w.u64(meta.tag);
                w.u8(mesi_to_u8(meta.state));
                w.u8(self.masks.get(self.mask_slot(set, way)).bits());
                w.u64(meta.last_use);
            }
        }
    }

    /// Reconstructs an array from [`CacheArray::save_snap`] bytes into
    /// a freshly built array of geometry `geom`.
    ///
    /// # Errors
    ///
    /// Fails if the stored dimensions disagree with `geom` (the run was
    /// checkpointed under a different cache configuration) or the
    /// stream is corrupt.
    pub fn load_snap(geom: CacheGeometry, r: &mut SnapReader<'_>) -> Result<CacheArray, SnapError> {
        r.expect_tag(b"CARR")?;
        let tick = r.u64()?;
        let num_sets = r.u32()? as usize;
        let num_ways = r.u32()? as usize;
        if num_sets != geom.num_sets() || num_ways != geom.ways() {
            return Err(SnapError {
                what: format!(
                    "cache dimensions {num_sets}x{num_ways} do not match configured {}x{}",
                    geom.num_sets(),
                    geom.ways()
                ),
                offset: r.offset(),
            });
        }
        let mut sets = Vec::with_capacity(num_sets);
        let mut keys = vec![NO_LINE; num_sets * num_ways];
        let mut masks = MaskArray::new(num_sets * num_ways);
        for set in 0..num_sets {
            let mut ways = Vec::with_capacity(num_ways);
            for way in 0..num_ways {
                let valid = r.bool()?;
                let tag = r.u64()?;
                if valid && tag == NO_LINE {
                    return Err(SnapError {
                        what: format!("set {set} way {way}: tag {tag:#x} is out of range"),
                        offset: r.offset(),
                    });
                }
                let state = mesi_from_u8(r.u8()?, r)?;
                let mask = RevealMask::from_bits(r.u8()?);
                let last_use = r.u64()?;
                ways.push(Way {
                    valid,
                    tag,
                    state,
                    last_use,
                });
                // Invalid slots stay concealed in the packed array so
                // revealed_words() counts only resident lines.
                if valid {
                    keys[set * num_ways + way] = tag;
                    masks.set(set * num_ways + way, mask);
                }
            }
            sets.push(ways);
        }
        Ok(CacheArray {
            geom,
            sets,
            keys,
            masks,
            tick,
        })
    }
}

/// Stable byte encoding of a [`Mesi`] state for snapshots.
pub(crate) fn mesi_to_u8(m: Mesi) -> u8 {
    match m {
        Mesi::Invalid => 0,
        Mesi::Shared => 1,
        Mesi::Exclusive => 2,
        Mesi::Modified => 3,
    }
}

/// Inverse of [`mesi_to_u8`], failing on unknown bytes.
pub(crate) fn mesi_from_u8(b: u8, r: &SnapReader<'_>) -> Result<Mesi, SnapError> {
    Ok(match b {
        0 => Mesi::Invalid,
        1 => Mesi::Shared,
        2 => Mesi::Exclusive,
        3 => Mesi::Modified,
        other => {
            return Err(SnapError {
                what: format!("invalid MESI byte {other:#x}"),
                offset: r.offset(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray {
        // 2 sets, 2 ways, 64B lines = 256 B.
        CacheArray::new(CacheGeometry::new(256, 2))
    }

    #[test]
    fn fill_and_probe() {
        let mut c = small();
        assert_eq!(
            c.fill(0x000, Mesi::Exclusive, RevealMask::all_concealed()),
            None
        );
        assert_eq!(c.state_of(0x000), Some(Mesi::Exclusive));
        assert_eq!(c.state_of(0x040), None);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn sub_line_addresses_hit_same_line() {
        let mut c = small();
        c.fill(0x000, Mesi::Shared, RevealMask::all_concealed());
        assert_eq!(c.state_of(0x038), Some(Mesi::Shared));
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut c = small();
        // Set 0 holds lines 0x000, 0x080, 0x100 (stride = 2 sets * 64).
        c.fill(0x000, Mesi::Shared, RevealMask::all_concealed());
        c.fill(0x080, Mesi::Shared, RevealMask::all_concealed());
        c.touch(0x000); // make 0x080 the LRU
        let ev = c
            .fill(0x100, Mesi::Shared, RevealMask::all_concealed())
            .unwrap();
        assert_eq!(ev.addr, 0x080);
        assert_eq!(c.state_of(0x000), Some(Mesi::Shared));
        assert_eq!(c.state_of(0x100), Some(Mesi::Shared));
    }

    #[test]
    fn eviction_carries_state_and_mask() {
        let mut c = small();
        let mut m = RevealMask::all_concealed();
        m.reveal(3);
        c.fill(0x000, Mesi::Modified, m);
        c.fill(0x080, Mesi::Shared, RevealMask::all_concealed());
        let ev = c
            .fill(0x100, Mesi::Shared, RevealMask::all_concealed())
            .unwrap();
        assert_eq!(
            ev,
            Evicted {
                addr: 0x000,
                state: Mesi::Modified,
                mask: m
            }
        );
    }

    #[test]
    fn refill_updates_in_place() {
        let mut c = small();
        c.fill(0x000, Mesi::Shared, RevealMask::all_concealed());
        assert_eq!(
            c.fill(0x000, Mesi::Modified, RevealMask::all_revealed()),
            None
        );
        assert_eq!(c.state_of(0x000), Some(Mesi::Modified));
        assert_eq!(c.mask_of(0x000), Some(RevealMask::all_revealed()));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_removes_and_returns() {
        let mut c = small();
        c.fill(0x000, Mesi::Modified, RevealMask::all_revealed());
        let (st, mask) = c.invalidate(0x000).unwrap();
        assert_eq!(st, Mesi::Modified);
        assert_eq!(mask, RevealMask::all_revealed());
        assert_eq!(c.state_of(0x000), None);
        assert_eq!(c.invalidate(0x000), None);
    }

    #[test]
    fn update_mask_mutates() {
        let mut c = small();
        c.fill(0x000, Mesi::Modified, RevealMask::all_concealed());
        assert!(c.update_mask(0x000, |m| m.reveal(5)));
        assert!(c.mask_of(0x000).unwrap().is_revealed(5));
        assert!(!c.update_mask(0x040, |m| m.reveal(1)), "absent line");
    }

    #[test]
    fn or_mask_merges_via_packed_path() {
        let mut c = small();
        c.fill(0x000, Mesi::Modified, RevealMask::from_bits(0b0001));
        assert!(c.or_mask(0x000, RevealMask::from_bits(0b1010)));
        assert_eq!(c.mask_of(0x000), Some(RevealMask::from_bits(0b1011)));
        assert!(!c.or_mask(0x040, RevealMask::all_revealed()), "absent line");
    }

    #[test]
    fn revealed_words_counts_only_resident_lines() {
        let mut c = small();
        c.fill(0x000, Mesi::Modified, RevealMask::from_bits(0b0111));
        c.fill(0x040, Mesi::Shared, RevealMask::from_bits(0b1000));
        assert_eq!(c.revealed_words(), 4);
        c.invalidate(0x000);
        assert_eq!(c.revealed_words(), 1, "invalidated slot is concealed");
        // Evicting 0x040 (set 1, along with 0x0C0 and 0x140) must drop
        // its bits from the packed count as the victim leaves.
        c.fill(0x0C0, Mesi::Shared, RevealMask::all_concealed());
        let ev = c
            .fill(0x140, Mesi::Shared, RevealMask::all_concealed())
            .unwrap();
        assert_eq!(ev.addr, 0x040);
        assert_eq!(c.revealed_words(), 0);
    }

    #[test]
    fn iter_lines_lists_valid() {
        let mut c = small();
        c.fill(0x000, Mesi::Shared, RevealMask::all_concealed());
        c.fill(0x040, Mesi::Modified, RevealMask::all_concealed());
        let mut lines: Vec<_> = c.iter_lines().map(|(a, s, _)| (a, s)).collect();
        lines.sort();
        assert_eq!(lines, vec![(0x000, Mesi::Shared), (0x040, Mesi::Modified)]);
    }

    #[test]
    fn snapshot_round_trips_masks_in_packed_store() {
        let mut c = small();
        c.fill(0x000, Mesi::Modified, RevealMask::from_bits(0b0101));
        c.fill(0x080, Mesi::Shared, RevealMask::from_bits(0b0010));
        c.invalidate(0x080);
        let mut w = SnapWriter::new();
        c.save_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = CacheArray::load_snap(c.geometry(), &mut r).unwrap();
        assert_eq!(back.mask_of(0x000), Some(RevealMask::from_bits(0b0101)));
        assert_eq!(back.occupancy(), 1);
        assert_eq!(back.revealed_words(), 2);
    }
}
