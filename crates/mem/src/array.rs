//! Generic set-associative cache array with LRU replacement.
//!
//! The array stores coherence metadata (tag, MESI state) plus the ReCon
//! [`RevealMask`]. Data values are *not* stored: the reproduction is a
//! timing-directed model where architectural data lives in a flat
//! functional memory (see `recon-sim`), as in many timing simulators.
//!
//! Ways are stored as a structure of arrays indexed by a flat *slot*,
//! `set * ways + way`: lookup keys, stored tags, MESI states and LRU
//! stamps each get one dense vector, and reveal masks live in a packed
//! [`MaskArray`], so array-wide mask operations (occupancy-style reveal
//! counts, any-revealed probes) run over packed `u64` words. A lookup
//! scans only the set's keys; a caller that goes on to act on the line
//! keeps the slot (or the [`Miss`]) instead of searching the set again.

use recon::{MaskArray, RevealMask};
use recon_isa::snap::{SnapError, SnapReader, SnapWriter};

use crate::geometry::CacheGeometry;
use crate::mesi::Mesi;

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

/// A line [`CacheArray::lookup`] did not find: the set it belongs in and
/// its tag, to hand to [`CacheArray::fill_miss`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Miss {
    set: usize,
    tag: u64,
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
    /// The lookup key of each way: its tag when valid, [`NO_LINE`] when
    /// invalid. A way is valid exactly when its key is not `NO_LINE`.
    keys: Vec<u64>,
    /// The stored tag of each way. An invalidated way keeps its stale
    /// tag (checkpoints carry it).
    tags: Vec<u64>,
    states: Vec<Mesi>,
    /// LRU stamps: the value of `tick` at each way's last fill or touch.
    stamps: Vec<u64>,
    masks: MaskArray,
    /// Valid ways per set, so a full set's fill skips the search for
    /// an invalid way.
    valid_ways: Vec<u8>,
    tick: u64,
}

/// The key of an invalid way. A tag is a line number shifted right by
/// the set-index bits, so it is never all ones.
const NO_LINE: u64 = u64::MAX;

/// The first way of a set whose key is `key`. Compares four keys per
/// step with one branch.
#[inline]
fn way_of(keys: &[u64], key: u64) -> Option<usize> {
    let mut chunks = keys.chunks_exact(4);
    for (i, c) in (&mut chunks).enumerate() {
        if (c[0] == key) | (c[1] == key) | (c[2] == key) | (c[3] == key) {
            return c.iter().position(|&k| k == key).map(|w| 4 * i + w);
        }
    }
    let rem = chunks.remainder();
    rem.iter()
        .position(|&k| k == key)
        .map(|w| keys.len() - rem.len() + w)
}

/// Whether two valid keys of a set are equal: one insert per key into a
/// small open-addressing table of `N` entries, `N` at least twice the
/// associativity.
fn has_duplicate<const N: usize>(keys: &[u64]) -> bool {
    debug_assert!(2 * keys.len() <= N && N.is_power_of_two());
    let mut table = [NO_LINE; N];
    for &k in keys.iter().filter(|&&k| k != NO_LINE) {
        let mut h = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - N.trailing_zeros())) as usize;
        loop {
            match table[h] {
                NO_LINE => {
                    table[h] = k;
                    break;
                }
                t if t == k => return true,
                _ => h = (h + 1) & (N - 1),
            }
        }
    }
    false
}

/// The way with the smallest stamp, the first such on a tie. Four
/// running minima, one per way index modulo 4, keep the compare chains
/// short; merging them by `(stamp, way)` restores first-on-tie.
#[inline]
fn oldest(stamps: &[u64]) -> usize {
    let mut chunks = stamps.chunks_exact(4);
    let Some(first) = chunks.next() else {
        return (0..stamps.len())
            .min_by_key(|&w| stamps[w])
            .expect("positive associativity");
    };
    let mut min = [first[0], first[1], first[2], first[3]];
    let mut at = [0, 1, 2, 3];
    for (i, c) in chunks.by_ref().enumerate() {
        let base = 4 * (i + 1);
        for lane in 0..4 {
            if c[lane] < min[lane] {
                min[lane] = c[lane];
                at[lane] = base + lane;
            }
        }
    }
    let mut best = (min[0], at[0]);
    for lane in 1..4 {
        best = best.min((min[lane], at[lane]));
    }
    let tail = stamps.len() - chunks.remainder().len();
    for (w, &stamp) in chunks.remainder().iter().enumerate() {
        best = best.min((stamp, tail + w));
    }
    best.1
}

impl CacheArray {
    /// Creates an empty array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 64 (the audit's duplicate-tag
    /// table holds at most 128 keys at half load).
    #[must_use]
    pub fn new(geom: CacheGeometry) -> Self {
        assert!(geom.ways() <= 64, "at most 64 ways per set");
        let slots = geom.num_lines();
        CacheArray {
            geom,
            keys: vec![NO_LINE; slots],
            tags: vec![0; slots],
            states: vec![Mesi::Invalid; slots],
            stamps: vec![0; slots],
            masks: MaskArray::new(slots),
            valid_ways: vec![0; geom.num_sets()],
            tick: 0,
        }
    }

    /// The array's geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Number of slots (`sets * ways`).
    fn slots(&self) -> usize {
        self.keys.len()
    }

    /// Finds the line containing `addr`: its slot on a hit, else where
    /// to fill it. One pass over the set's keys.
    #[inline]
    pub fn lookup(&self, addr: u64) -> Result<usize, Miss> {
        let (set, tag) = self.geom.slice(addr);
        let base = set * self.geom.ways();
        match way_of(&self.keys[base..base + self.geom.ways()], tag) {
            Some(way) => Ok(base + way),
            None => Err(Miss { set, tag }),
        }
    }

    /// The slot holding the line containing `addr`, if present.
    #[inline]
    #[must_use]
    pub fn find(&self, addr: u64) -> Option<usize> {
        self.lookup(addr).ok()
    }

    /// Whether `slot` holds a valid line.
    #[must_use]
    #[inline]
    pub fn is_valid(&self, slot: usize) -> bool {
        self.keys[slot] != NO_LINE
    }

    /// Line base address of the valid way at `slot` (a division: walks
    /// over many lines use [`CacheArray::valid_lines`]).
    #[must_use]
    pub fn line_at(&self, slot: usize) -> u64 {
        let ways = self.geom.ways();
        self.geom.unslice(slot / ways, self.tags[slot])
    }

    /// MESI state of the way at `slot`.
    #[must_use]
    #[inline]
    pub fn state_at(&self, slot: usize) -> Mesi {
        self.states[slot]
    }

    /// Reveal mask of the way at `slot`.
    #[must_use]
    #[inline]
    pub fn mask_at(&self, slot: usize) -> RevealMask {
        self.masks.get(slot)
    }

    /// Refreshes the LRU position of the way at `slot` and returns its
    /// `(state, mask)`.
    #[inline]
    pub fn touch_at(&mut self, slot: usize) -> (Mesi, RevealMask) {
        self.tick += 1;
        self.stamps[slot] = self.tick;
        (self.states[slot], self.masks.get(slot))
    }

    /// Changes the state of the way at `slot`.
    #[inline]
    pub fn set_state_at(&mut self, slot: usize, state: Mesi) {
        self.states[slot] = state;
    }

    /// Replaces the mask of the way at `slot`.
    #[inline]
    pub fn set_mask_at(&mut self, slot: usize, mask: RevealMask) {
        self.masks.set(slot, mask);
    }

    /// ORs `mask` into the mask of the way at `slot` (the §5.3 merge
    /// rule, packed).
    #[inline]
    pub fn or_mask_at(&mut self, slot: usize, mask: RevealMask) {
        self.masks.or_line(slot, mask);
    }

    /// The MESI state of the line containing `addr`, if present.
    #[must_use]
    #[inline]
    pub fn state_of(&self, addr: u64) -> Option<Mesi> {
        self.find(addr).map(|s| self.states[s])
    }

    /// The reveal mask of the line containing `addr`, if present.
    #[must_use]
    #[inline]
    pub fn mask_of(&self, addr: u64) -> Option<RevealMask> {
        self.find(addr).map(|s| self.masks.get(s))
    }

    /// Looks up the line and refreshes its LRU position. Returns
    /// `(state, mask)` on hit.
    #[inline]
    pub fn touch(&mut self, addr: u64) -> Option<(Mesi, RevealMask)> {
        let slot = self.find(addr)?;
        Some(self.touch_at(slot))
    }

    /// Changes the state of a present line. Returns `false` if absent.
    #[inline]
    pub fn set_state(&mut self, addr: u64, state: Mesi) -> bool {
        self.find(addr).map(|s| self.states[s] = state).is_some()
    }

    /// Replaces the mask of a present line. Returns `false` if absent.
    #[inline]
    pub fn set_mask(&mut self, addr: u64, mask: RevealMask) -> bool {
        self.find(addr).map(|s| self.masks.set(s, mask)).is_some()
    }

    /// Applies `f` to the mask of a present line. Returns `false` if
    /// absent.
    #[inline]
    pub fn update_mask(&mut self, addr: u64, f: impl FnOnce(&mut RevealMask)) -> bool {
        let Some(slot) = self.find(addr) else {
            return false;
        };
        let mut mask = self.masks.get(slot);
        f(&mut mask);
        self.masks.set(slot, mask);
        true
    }

    /// ORs `mask` into a present line's mask via the packed batch path
    /// (the §5.3 merge rule). Returns `false` if absent.
    #[inline]
    pub fn or_mask(&mut self, addr: u64, mask: RevealMask) -> bool {
        self.find(addr)
            .map(|s| self.masks.or_line(s, mask))
            .is_some()
    }

    /// Inserts a line, evicting the LRU victim if the set is full.
    ///
    /// The caller handles the returned victim (writeback / directory
    /// notification / mask merge). Filling an already-present line just
    /// updates its state and mask.
    #[inline]
    pub fn fill(&mut self, addr: u64, state: Mesi, mask: RevealMask) -> Option<Evicted> {
        match self.lookup(addr) {
            Ok(slot) => {
                debug_assert!(state.readable(), "filling an Invalid line is meaningless");
                self.tick += 1;
                self.states[slot] = state;
                self.stamps[slot] = self.tick;
                self.masks.set(slot, mask);
                None
            }
            Err(miss) => self.fill_miss(miss, state, mask).1,
        }
    }

    /// Inserts a line [`CacheArray::lookup`] missed into its set's fill
    /// victim: the first invalid way, else the least recently used one.
    /// Returns the slot filled and the line evicted from it. The set may
    /// have changed since the lookup, as long as the line is still
    /// absent.
    #[inline]
    pub fn fill_miss(
        &mut self,
        miss: Miss,
        state: Mesi,
        mask: RevealMask,
    ) -> (usize, Option<Evicted>) {
        debug_assert!(state.readable(), "filling an Invalid line is meaningless");
        let slot = self.victim(miss.set);
        debug_assert!(
            self.lookup(self.geom.unslice(miss.set, miss.tag)).is_err(),
            "filling a line that is already present"
        );
        self.tick += 1;
        let evicted = self.is_valid(slot).then(|| Evicted {
            addr: self.geom.unslice(miss.set, self.tags[slot]),
            state: self.states[slot],
            mask: self.masks.get(slot),
        });
        if evicted.is_none() {
            self.valid_ways[miss.set] += 1;
        }
        self.keys[slot] = miss.tag;
        self.tags[slot] = miss.tag;
        self.states[slot] = state;
        self.stamps[slot] = self.tick;
        self.masks.set(slot, mask);
        (slot, evicted)
    }

    /// The fill victim of `set`: the first invalid way, else the way
    /// with the smallest LRU stamp (the first such on a tie).
    #[inline]
    fn victim(&self, set: usize) -> usize {
        let ways = self.geom.ways();
        let base = set * ways;
        if usize::from(self.valid_ways[set]) < ways {
            let way = way_of(&self.keys[base..base + ways], NO_LINE);
            return base + way.expect("the set has an invalid way");
        }
        base + oldest(&self.stamps[base..base + ways])
    }

    /// Removes a line, returning its `(state, mask)` if it was present.
    #[inline]
    pub fn invalidate(&mut self, addr: u64) -> Option<(Mesi, RevealMask)> {
        let slot = self.find(addr)?;
        let mask = self.masks.get(slot);
        // Conceal the slot so array-wide packed scans only see valid
        // lines' reveal bits.
        self.masks.set(slot, RevealMask::all_concealed());
        self.keys[slot] = NO_LINE;
        self.valid_ways[self.geom.slice(addr).0] -= 1;
        Some((self.states[slot], mask))
    }

    /// Number of valid lines (for tests and occupancy stats).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&k| k != NO_LINE).count()
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

    /// Iterates over `(slot, line_addr)` of every valid line, in slot
    /// order.
    pub fn valid_lines(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let ways = self.geom.ways();
        self.keys
            .chunks_exact(ways)
            .enumerate()
            .flat_map(move |(set, keys)| {
                keys.iter()
                    .enumerate()
                    .filter(|&(_, &k)| k != NO_LINE)
                    .map(move |(way, &k)| (set * ways + way, self.geom.unslice(set, k)))
            })
    }

    /// Iterates over `(line_addr, state, mask)` of every valid line.
    pub fn iter_lines(&self) -> impl Iterator<Item = (u64, Mesi, RevealMask)> + '_ {
        self.valid_lines()
            .map(|(s, line)| (line, self.states[s], self.masks.get(s)))
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
        let ways = self.geom.ways();
        for (slot, &key) in self.keys.iter().enumerate() {
            let at = || (slot / ways, slot % ways);
            if key == NO_LINE {
                let mask = self.masks.get(slot);
                if mask.bits() != 0 {
                    let (set, way) = at();
                    out.push(recon::AuditViolation::new(
                        "mask-on-invalid-way",
                        site,
                        format!(
                            "set {set} way {way}: invalid slot carries reveal bits {:#04x}",
                            mask.bits()
                        ),
                    ));
                }
            } else if !self.states[slot].readable() {
                let (set, way) = at();
                out.push(recon::AuditViolation::new(
                    "valid-way-unreadable",
                    site,
                    format!(
                        "set {set} way {way} (line {:#x}): valid bit set but state Invalid",
                        self.geom.unslice(set, key)
                    ),
                ));
            }
        }
        for (set, keys) in self.keys.chunks_exact(ways).enumerate() {
            // Only a damaged set pays the pairwise walk below.
            let duplicate = match ways {
                0..=8 => has_duplicate::<16>(keys),
                9..=32 => has_duplicate::<64>(keys),
                _ => has_duplicate::<128>(keys),
            };
            if !duplicate {
                continue;
            }
            for (i, &a) in keys.iter().enumerate() {
                if a == NO_LINE {
                    continue;
                }
                for &b in &keys[i + 1..] {
                    if a == b {
                        out.push(recon::AuditViolation::new(
                            "duplicate-tag",
                            site,
                            format!(
                                "set {set}: two valid ways hold line {:#x}",
                                self.geom.unslice(set, a)
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
        let slots = self.slots();
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
        Some(format!(
            "mask bit {word} of set {set} way {way} flipped (way {})",
            if self.is_valid(slot) {
                "valid"
            } else {
                "invalid"
            }
        ))
    }

    /// Soft-error injection hook: overwrites the MESI state of a random
    /// *valid* way with a different random state (possibly `Invalid`,
    /// modeling a decayed state field). Returns a description, or
    /// `None` when the array holds no valid line.
    pub fn inject_state_flip(&mut self, rng: &mut recon_isa::rng::SplitMix64) -> Option<String> {
        use recon_isa::rng::Rng as _;
        let valid: Vec<(usize, u64)> = self.valid_lines().collect();
        let &(slot, line) = valid.get(rng.next_u64() as usize % valid.len().max(1))?;
        let old = self.states[slot];
        let choices = [Mesi::Invalid, Mesi::Shared, Mesi::Exclusive, Mesi::Modified];
        let new = choices[rng.next_u64() as usize % choices.len()];
        let new = if new == old {
            choices[(mesi_to_u8(old) as usize + 1) % choices.len()]
        } else {
            new
        };
        self.states[slot] = new;
        Some(format!("line {line:#x}: MESI {old:?} -> {new:?}"))
    }

    /// Serializes every way of every set in array order, including LRU
    /// timestamps and the stale tags and states of invalid ways, so
    /// replacement decisions replay identically after a restore.
    /// Geometry is *not* stored — it is re-derived from the run
    /// configuration and validated by the caller.
    pub fn save_snap(&self, w: &mut SnapWriter) {
        w.tag(b"CARR");
        w.u64(self.tick);
        w.u32(self.geom.num_sets() as u32);
        w.u32(self.geom.ways() as u32);
        for slot in 0..self.slots() {
            w.bool(self.is_valid(slot));
            w.u64(self.tags[slot]);
            w.u8(mesi_to_u8(self.states[slot]));
            w.u8(self.masks.get(slot).bits());
            w.u64(self.stamps[slot]);
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
        let mut a = CacheArray::new(geom);
        a.tick = tick;
        for slot in 0..a.slots() {
            let valid = r.bool()?;
            let tag = r.u64()?;
            if valid && tag == NO_LINE {
                return Err(SnapError {
                    what: format!(
                        "set {} way {}: tag {tag:#x} is out of range",
                        slot / num_ways,
                        slot % num_ways
                    ),
                    offset: r.offset(),
                });
            }
            a.tags[slot] = tag;
            a.states[slot] = mesi_from_u8(r.u8()?, r)?;
            let mask = RevealMask::from_bits(r.u8()?);
            a.stamps[slot] = r.u64()?;
            // Invalid slots stay concealed in the packed array so
            // revealed_words() counts only resident lines.
            if valid {
                a.keys[slot] = tag;
                a.masks.set(slot, mask);
                a.valid_ways[slot / num_ways] += 1;
            }
        }
        Ok(a)
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
