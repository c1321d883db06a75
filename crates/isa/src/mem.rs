//! Data memory abstraction and a paged flat-store implementation.

use crate::hash::FxHashMap;
use crate::program::MemImage;
use crate::snap::{SnapError, SnapReader, SnapWriter};

/// Word-granular data memory as seen by the functional semantics.
///
/// All accesses are aligned 8-byte words. Uninitialized words read as 0.
pub trait DataMem {
    /// Reads the word at the (aligned) address.
    fn read(&mut self, addr: u64) -> u64;
    /// Writes the word at the (aligned) address.
    fn write(&mut self, addr: u64, value: u64);
}

/// Page granularity: 4 KiB = 512 words. Large enough to amortize the
/// page lookup over hundreds of neighbouring accesses, small enough
/// that sparse workload images stay sparse.
const PAGE_SHIFT: u32 = 12;
/// Words per page.
const PAGE_WORDS: usize = 1 << (PAGE_SHIFT - 3);
/// Word-index mask within a page.
const WORD_MASK: u64 = PAGE_WORDS as u64 - 1;

/// One zero-initialized page of backing store.
type Page = [u64; PAGE_WORDS];

/// Entries in [`SparseMem`]'s page cache (a power of two).
const CACHED_PAGES: usize = 64;
/// The page-cache tag of an empty entry. A page number is an address
/// shifted right by [`PAGE_SHIFT`], so it is never all ones.
const NO_PAGE: u64 = u64::MAX;

/// Sparse paged memory. Uninitialized words read as zero.
///
/// This sits on the simulator's hottest path — every functional load and
/// store of every core, every cycle — so it is a flat array walk, not a
/// per-word hash lookup: addresses map to 4 KiB pages (allocated on
/// first write) and the word index within the page is a shift-and-mask.
///
/// Pages live in a `Vec` in allocation order, found through an
/// [`FxHashMap`] from page number to position. In front of the map sits
/// a 64-entry **direct-mapped page cache**: entry `page % 64` remembers
/// the position of the last page looked up there. Sequential and
/// loop-local accesses, and pointer chases over up to 64 pages, skip the
/// hash probe and go straight to an index into the page; a miss costs
/// one map probe and refills the entry. Nothing moves when the cache
/// changes, so it is pure lookup state: equality, snapshots and every
/// value read are independent of it.
///
/// ```
/// use recon_isa::{DataMem, SparseMem};
///
/// let mut m = SparseMem::new();
/// assert_eq!(m.read(0x1000), 0);
/// m.write(0x1000, 99);
/// assert_eq!(m.read(0x1000), 99);
/// ```
#[derive(Clone, Debug)]
pub struct SparseMem {
    pages: Vec<Box<Page>>,
    /// Page number -> position in `pages`.
    index: FxHashMap<u64, u32>,
    /// `(page number, position)` of the last page looked up in each
    /// entry, `NO_PAGE` for an empty entry.
    cache: [(u64, u32); CACHED_PAGES],
}

impl Default for SparseMem {
    fn default() -> Self {
        SparseMem {
            pages: Vec::new(),
            index: FxHashMap::default(),
            cache: [(NO_PAGE, 0); CACHED_PAGES],
        }
    }
}

impl PartialEq for SparseMem {
    /// Logical equality over resident pages: allocation order and the
    /// page cache are access-pattern artifacts, not state.
    fn eq(&self, other: &Self) -> bool {
        self.resident_pages() == other.resident_pages()
            && self
                .index
                .iter()
                .all(|(&idx, &pos)| other.page_ref(idx) == Some(&*self.pages[pos as usize]))
    }
}

impl Eq for SparseMem {}

#[inline]
fn page_of(addr: u64) -> u64 {
    addr >> PAGE_SHIFT
}

#[inline]
fn word_in_page(addr: u64) -> usize {
    ((addr >> 3) & WORD_MASK) as usize
}

#[inline]
fn cache_entry(idx: u64) -> usize {
    (idx as usize) & (CACHED_PAGES - 1)
}

impl SparseMem {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a memory pre-loaded from a program image.
    #[must_use]
    pub fn from_image(image: &MemImage) -> Self {
        let mut m = SparseMem::new();
        for (addr, value) in image.iter() {
            m.write(addr, value);
        }
        m
    }

    /// Number of resident backing pages (4 KiB each).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of words with backing store allocated (an upper bound on
    /// the words ever written: writes allocate whole pages).
    #[must_use]
    pub fn resident_words(&self) -> usize {
        self.resident_pages() * PAGE_WORDS
    }

    /// Position of page `idx` in `pages`, through the page cache first.
    #[inline]
    fn position(&self, idx: u64) -> Option<usize> {
        let (tag, pos) = self.cache[cache_entry(idx)];
        if tag == idx {
            return Some(pos as usize);
        }
        self.index.get(&idx).map(|&p| p as usize)
    }

    /// [`SparseMem::position`], refilling the page-cache entry on a hit
    /// in the map.
    #[inline]
    fn position_mut(&mut self, idx: u64) -> Option<usize> {
        let entry = cache_entry(idx);
        let (tag, pos) = self.cache[entry];
        if tag == idx {
            return Some(pos as usize);
        }
        let pos = *self.index.get(&idx)?;
        self.cache[entry] = (idx, pos);
        Some(pos as usize)
    }

    /// The resident page at `idx`.
    #[inline]
    fn page_ref(&self, idx: u64) -> Option<&Page> {
        self.position(idx).map(|p| &*self.pages[p])
    }

    /// Serializes resident pages in ascending page order (canonical
    /// bytes: the same contents always encode identically, regardless
    /// of allocation order or the page cache).
    pub fn save_snap(&self, w: &mut SnapWriter) {
        w.tag(b"SMEM");
        let mut resident: Vec<(u64, u32)> = self.index.iter().map(|(&i, &p)| (i, p)).collect();
        resident.sort_unstable();
        w.u64(resident.len() as u64);
        for (idx, pos) in resident {
            w.u64(idx);
            for word in self.pages[pos as usize].iter() {
                w.u64(*word);
            }
        }
    }

    /// Reconstructs a memory from [`SparseMem::save_snap`] bytes.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from a truncated or corrupt stream.
    pub fn load_snap(r: &mut SnapReader<'_>) -> Result<SparseMem, SnapError> {
        r.expect_tag(b"SMEM")?;
        let count = r.u64()? as usize;
        let mut m = SparseMem::new();
        for _ in 0..count {
            let idx = r.u64()?;
            let mut page = Box::new([0u64; PAGE_WORDS]);
            for word in page.iter_mut() {
                *word = r.u64()?;
            }
            match m.index.get(&idx) {
                // A repeated page number keeps the last copy, as a map
                // insert would.
                Some(&pos) => m.pages[pos as usize] = page,
                None => {
                    m.index.insert(idx, m.pages.len() as u32);
                    m.pages.push(page);
                }
            }
        }
        Ok(m)
    }

    /// Reads without requiring `&mut self` (the trait takes `&mut` so
    /// that timing models can update internal state on reads). Shared
    /// access cannot refill the page cache, so a peek outside it pays
    /// the map probe.
    #[must_use]
    #[inline]
    pub fn peek(&self, addr: u64) -> u64 {
        debug_assert_eq!(addr % 8, 0, "misaligned read at {addr:#x}");
        match self.page_ref(page_of(addr)) {
            Some(page) => page[word_in_page(addr)],
            None => 0,
        }
    }
}

impl DataMem for SparseMem {
    #[inline]
    fn read(&mut self, addr: u64) -> u64 {
        debug_assert_eq!(addr % 8, 0, "misaligned read at {addr:#x}");
        match self.position_mut(page_of(addr)) {
            Some(pos) => self.pages[pos][word_in_page(addr)],
            None => 0,
        }
    }

    #[inline]
    fn write(&mut self, addr: u64, value: u64) {
        debug_assert_eq!(addr % 8, 0, "misaligned write at {addr:#x}");
        let idx = page_of(addr);
        let pos = match self.position_mut(idx) {
            Some(pos) => pos,
            None => {
                // First touch: allocate and cache the new page.
                let pos = self.pages.len();
                let pos32 = u32::try_from(pos).expect("fewer than 2^32 resident pages");
                self.pages.push(Box::new([0u64; PAGE_WORDS]));
                self.index.insert(idx, pos32);
                self.cache[cache_entry(idx)] = (idx, pos32);
                pos
            }
        };
        self.pages[pos][word_in_page(addr)] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninitialized_reads_zero() {
        let mut m = SparseMem::new();
        assert_eq!(m.read(0x0), 0);
        assert_eq!(m.read(0xFFF8), 0);
        assert_eq!(m.resident_pages(), 0, "reads allocate nothing");
    }

    #[test]
    fn write_then_read() {
        let mut m = SparseMem::new();
        m.write(0x8, 1234);
        assert_eq!(m.read(0x8), 1234);
        assert_eq!(m.peek(0x8), 1234);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.resident_words(), PAGE_WORDS);
    }

    #[test]
    fn from_image_preloads() {
        let img: MemImage = [(0x10, 7)].into_iter().collect();
        let mut m = SparseMem::from_image(&img);
        assert_eq!(m.read(0x10), 7);
    }

    #[test]
    fn page_boundaries_are_independent_words() {
        let mut m = SparseMem::new();
        // Last word of page 0, first word of page 1.
        m.write(0x0FF8, 1);
        m.write(0x1000, 2);
        assert_eq!(m.read(0x0FF8), 1);
        assert_eq!(m.read(0x1000), 2);
        assert_eq!(m.resident_pages(), 2);
        // Untouched neighbours on both pages stay zero.
        assert_eq!(m.read(0x0FF0), 0);
        assert_eq!(m.read(0x1008), 0);
    }

    #[test]
    fn distant_addresses_do_not_alias() {
        let mut m = SparseMem::new();
        // Same word-in-page index, different pages.
        m.write(0x0008, 10);
        m.write(0x0010_0008, 20);
        m.write(0xFFFF_FFFF_FFFF_F008, 30);
        assert_eq!(m.read(0x0008), 10);
        assert_eq!(m.read(0x0010_0008), 20);
        assert_eq!(m.read(0xFFFF_FFFF_FFFF_F008), 30);
    }

    #[test]
    fn snapshot_round_trip_is_canonical() {
        let mut m = SparseMem::new();
        m.write(0x8, 1);
        m.write(0x1000, 2);
        m.write(0xFFFF_FFFF_FFFF_F008, 3);
        let mut w = crate::snap::SnapWriter::new();
        m.save_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::snap::SnapReader::new(&bytes);
        let restored = SparseMem::load_snap(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored, m);
        // Canonical bytes: a clone (fresh hash-map iteration order)
        // serializes identically.
        let mut w2 = crate::snap::SnapWriter::new();
        restored.save_snap(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "misaligned")]
    fn misaligned_write_panics_in_debug() {
        let mut m = SparseMem::new();
        m.write(0x3, 1);
    }

    // A "hot" page below is one the page cache currently holds.

    #[test]
    fn hot_slot_rotation_preserves_contents() {
        // Ping-pong across pages that share one page-cache entry: every
        // access refills it, and nothing is lost or aliased.
        let mut m = SparseMem::new();
        let stride = (CACHED_PAGES as u64) << PAGE_SHIFT;
        m.write(0, 1);
        m.write(stride, 2); // same entry as page 0
        m.write(2 * stride, 3); // and again
        for _ in 0..4 {
            assert_eq!(m.read(0), 1);
            assert_eq!(m.read(stride), 2);
            assert_eq!(m.read(2 * stride), 3);
        }
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn equality_ignores_which_page_is_hot() {
        let stride = (CACHED_PAGES as u64) << PAGE_SHIFT;
        let mut a = SparseMem::new();
        a.write(0, 7);
        a.write(stride, 8);
        let mut b = a.clone();
        // Leave different pages cached in each.
        a.read(0);
        b.read(stride);
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.write(stride, 9);
        assert_ne!(a, b);
    }

    #[test]
    fn snapshot_is_canonical_regardless_of_hot_page() {
        let stride = (CACHED_PAGES as u64) << PAGE_SHIFT;
        let mut m = SparseMem::new();
        m.write(0x8, 1);
        m.write(stride, 2);
        let first = snap_of(&m);
        m.read(0x8); // refill the shared entry
        assert_eq!(snap_of(&m), first);
        m.read(stride);
        assert_eq!(snap_of(&m), first);
    }

    #[test]
    fn peek_sees_the_hot_page() {
        let stride = (CACHED_PAGES as u64) << PAGE_SHIFT;
        let mut m = SparseMem::new();
        m.write(0x2000, 5); // cached
        m.write(0x2000 + stride, 6); // takes over 0x2000's entry
        assert_eq!(m.peek(0x2000), 5);
        assert_eq!(m.peek(0x2000 + stride), 6);
    }

    fn snap_of(mem: &SparseMem) -> Vec<u8> {
        let mut w = crate::snap::SnapWriter::new();
        mem.save_snap(&mut w);
        w.into_bytes()
    }

    /// Replays a seeded mix of reads and writes over `pages` pages that
    /// collide in the page cache, against a plain word map.
    fn replay_against_a_word_map(seed: u64, pages: u64, ops: usize) -> SparseMem {
        use crate::rng::{Rng, SplitMix64};
        let mut rng = SplitMix64::new(seed);
        let mut m = SparseMem::new();
        let mut reference: std::collections::BTreeMap<u64, u64> = Default::default();
        // Page numbers 0, 64, 128, ... all map to entry 0; a few others
        // fill the rest of the cache.
        let page = |rng: &mut SplitMix64| {
            let p = rng.below(pages);
            if p.is_multiple_of(4) {
                p * CACHED_PAGES as u64
            } else {
                p
            }
        };
        for _ in 0..ops {
            let addr = (page(&mut rng) << PAGE_SHIFT) | (rng.below(PAGE_WORDS as u64) << 3);
            if rng.below(2) == 0 {
                let v = rng.next_u64();
                m.write(addr, v);
                reference.insert(addr, v);
            } else {
                let want = reference.get(&addr).copied().unwrap_or(0);
                assert_eq!(m.read(addr), want, "read {addr:#x}");
                assert_eq!(m.peek(addr), want, "peek {addr:#x}");
            }
        }
        for (&addr, &v) in &reference {
            assert_eq!(m.peek(addr), v);
        }
        m
    }

    #[test]
    fn page_cache_collisions_match_a_word_map() {
        for seed in 0..8 {
            let m = replay_against_a_word_map(seed, 300, 6_000);
            assert!(m.resident_pages() > CACHED_PAGES);
        }
    }

    #[test]
    fn snapshot_and_equality_do_not_depend_on_the_page_cache() {
        let m = replay_against_a_word_map(42, 300, 6_000);
        let bytes = snap_of(&m);
        // The same contents, loaded cold (empty cache, sorted
        // allocation order), encode and compare identically.
        let mut r = crate::snap::SnapReader::new(&bytes);
        let cold = SparseMem::load_snap(&mut r).unwrap();
        assert_eq!(cold, m);
        assert_eq!(snap_of(&cold), bytes);
        // So does a clone whose cache was warmed on other pages.
        let mut warm = m.clone();
        for p in 0..200u64 {
            warm.read(p * CACHED_PAGES as u64 * 4096);
        }
        assert_eq!(warm, m);
        assert_eq!(snap_of(&warm), bytes);
        // One changed word breaks both.
        let (addr, v) = (0x10_0000 * 4096 + 8, 1);
        warm.write(addr, v);
        assert_ne!(warm, m);
        assert_ne!(snap_of(&warm), bytes);
    }
}
