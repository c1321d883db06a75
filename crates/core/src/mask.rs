//! Reveal/conceal bit-vectors — the per-cache-line metadata at the heart
//! of ReCon (§5.2 of the paper).
//!
//! Every 64-byte cache line carries one bit per aligned 8-byte word:
//! `1` = *revealed* (the word's value has leaked non-speculatively and is
//! safe to dereference under speculation), `0` = *concealed* (must be
//! protected by the underlying secure speculation scheme).

use core::fmt;

/// Bytes per machine word tracked by ReCon (reveals are word-granular).
pub const WORD_BYTES: u64 = 8;
/// Bytes per cache line.
pub const LINE_BYTES: u64 = 64;
/// Words per cache line — one reveal bit each.
pub const WORDS_PER_LINE: usize = (LINE_BYTES / WORD_BYTES) as usize;

/// Returns the line-aligned base address containing `addr`.
#[must_use]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

/// Returns the index (0..[`WORDS_PER_LINE`]) of the word containing
/// `addr` within its line.
#[must_use]
pub fn word_index(addr: u64) -> usize {
    ((addr % LINE_BYTES) / WORD_BYTES) as usize
}

/// The reveal/conceal bit-vector of one cache line.
///
/// A freshly fetched line is all-concealed (§5.2: "A newly fetched cache
/// line from memory has all its words marked as concealed").
///
/// ```
/// use recon::RevealMask;
///
/// let mut m = RevealMask::all_concealed();
/// assert!(!m.is_revealed(3));
/// m.reveal(3);
/// assert!(m.is_revealed(3));
/// m.conceal(3); // a store to the word conceals it again
/// assert!(!m.is_revealed(3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RevealMask(u8);

impl RevealMask {
    /// A mask with every word concealed — the state of a line fetched
    /// from memory.
    #[must_use]
    #[inline]
    pub fn all_concealed() -> Self {
        RevealMask(0)
    }

    /// A mask with every word revealed (useful in tests).
    #[must_use]
    #[inline]
    pub fn all_revealed() -> Self {
        RevealMask(0xFF)
    }

    /// Constructs a mask from its raw bits (bit *i* = word *i*).
    #[must_use]
    #[inline]
    pub fn from_bits(bits: u8) -> Self {
        RevealMask(bits)
    }

    /// The raw bits (bit *i* = word *i*).
    #[must_use]
    #[inline]
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Whether word `word` (0..[`WORDS_PER_LINE`]) is revealed.
    ///
    /// # Panics
    ///
    /// Panics if `word >= WORDS_PER_LINE`.
    #[must_use]
    #[inline]
    pub fn is_revealed(self, word: usize) -> bool {
        assert!(word < WORDS_PER_LINE, "word index {word} out of range");
        self.0 & (1 << word) != 0
    }

    /// Marks word `word` revealed (a committed load pair dereferenced it).
    ///
    /// # Panics
    ///
    /// Panics if `word >= WORDS_PER_LINE`.
    #[inline]
    pub fn reveal(&mut self, word: usize) {
        assert!(word < WORDS_PER_LINE, "word index {word} out of range");
        self.0 |= 1 << word;
    }

    /// Marks word `word` concealed (a committed store changed it).
    ///
    /// # Panics
    ///
    /// Panics if `word >= WORDS_PER_LINE`.
    #[inline]
    pub fn conceal(&mut self, word: usize) {
        assert!(word < WORDS_PER_LINE, "word index {word} out of range");
        self.0 &= !(1 << word);
    }

    /// Merges another copy of this line's mask into this one by logical
    /// OR — the §5.3 rule applied when an L1 evicts its copy back to the
    /// directory ("Or-ing the L1 bit-vector with the directory bit-vector
    /// guarantees that information is preserved across consecutive
    /// evictions from different L1s").
    #[inline]
    pub fn merge_or(&mut self, other: RevealMask) {
        self.0 |= other.0;
    }

    /// Number of revealed words in the line.
    #[must_use]
    #[inline]
    pub fn count_revealed(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether any word in the line is revealed.
    #[must_use]
    #[inline]
    pub fn any_revealed(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Debug for RevealMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RevealMask({:08b})", self.0)
    }
}

impl fmt::Display for RevealMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Word 0 printed leftmost for readability.
        for w in 0..WORDS_PER_LINE {
            f.write_str(if self.is_revealed(w) { "R" } else { "c" })?;
        }
        Ok(())
    }
}

impl core::ops::BitOr for RevealMask {
    type Output = RevealMask;

    fn bitor(self, rhs: RevealMask) -> RevealMask {
        RevealMask(self.0 | rhs.0)
    }
}

/// Line masks packed into one u64 word.
pub const MASKS_PER_WORD: usize = 8;

/// A dense array of per-line [`RevealMask`]s packed eight to a `u64` —
/// the bitset fast path for the mem-side mask arrays.
///
/// Cache and directory structures track one mask per line; scanning or
/// merging them a byte at a time is the detailed mode's second-biggest
/// hot-path cost after decode. Packing eight line-masks per machine
/// word makes the multi-line operations — OR-merging one array into
/// another (§5.3 eviction/downgrade propagation), counting revealed
/// words, testing for any reveal — touch words, not bytes, while
/// keeping single-line get/set a shift-and-mask.
///
/// ```
/// use recon::{MaskArray, RevealMask};
///
/// let mut a = MaskArray::new(16);
/// a.set(3, RevealMask::from_bits(0b101));
/// assert_eq!(a.get(3).bits(), 0b101);
/// assert_eq!(a.count_revealed(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MaskArray {
    words: Vec<u64>,
    lines: usize,
}

impl MaskArray {
    /// An array of `lines` all-concealed masks.
    #[must_use]
    pub fn new(lines: usize) -> Self {
        MaskArray {
            words: vec![0; lines.div_ceil(MASKS_PER_WORD)],
            lines,
        }
    }

    /// Number of line masks held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines
    }

    /// Whether the array holds no lines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }

    #[inline]
    fn slot(line: usize) -> (usize, u32) {
        (line / MASKS_PER_WORD, (line % MASKS_PER_WORD) as u32 * 8)
    }

    /// The mask of line `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line >= len()`.
    #[must_use]
    #[inline]
    pub fn get(&self, line: usize) -> RevealMask {
        assert!(line < self.lines, "line {line} out of range");
        let (w, sh) = Self::slot(line);
        RevealMask::from_bits((self.words[w] >> sh) as u8)
    }

    /// Replaces the mask of line `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line >= len()`.
    #[inline]
    pub fn set(&mut self, line: usize, mask: RevealMask) {
        assert!(line < self.lines, "line {line} out of range");
        let (w, sh) = Self::slot(line);
        self.words[w] = (self.words[w] & !(0xFFu64 << sh)) | (u64::from(mask.bits()) << sh);
    }

    /// ORs `mask` into line `line` (the §5.3 merge rule).
    ///
    /// # Panics
    ///
    /// Panics if `line >= len()`.
    #[inline]
    pub fn or_line(&mut self, line: usize, mask: RevealMask) {
        assert!(line < self.lines, "line {line} out of range");
        let (w, sh) = Self::slot(line);
        self.words[w] |= u64::from(mask.bits()) << sh;
    }

    /// ORs every mask of `other` into this array, one machine word at a
    /// time — the batch form of [`RevealMask::merge_or`] across a whole
    /// structure.
    ///
    /// # Panics
    ///
    /// Panics if the arrays have different lengths.
    pub fn merge_or_from(&mut self, other: &MaskArray) {
        assert_eq!(self.lines, other.lines, "mask array size mismatch");
        for (dst, src) in self.words.iter_mut().zip(&other.words) {
            *dst |= *src;
        }
    }

    /// Total revealed words across every line, by per-word popcount.
    #[must_use]
    pub fn count_revealed(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Whether any line has any revealed word (word-wide compare).
    #[must_use]
    pub fn any_revealed(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Conceals every word of every line (word-wide clear).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_line_is_all_concealed() {
        let m = RevealMask::all_concealed();
        assert!(!m.any_revealed());
        assert_eq!(m.count_revealed(), 0);
        for w in 0..WORDS_PER_LINE {
            assert!(!m.is_revealed(w));
        }
    }

    #[test]
    fn reveal_conceal_round_trip() {
        let mut m = RevealMask::all_concealed();
        m.reveal(0);
        m.reveal(7);
        assert!(m.is_revealed(0) && m.is_revealed(7) && !m.is_revealed(3));
        assert_eq!(m.count_revealed(), 2);
        m.conceal(0);
        assert!(!m.is_revealed(0) && m.is_revealed(7));
    }

    #[test]
    fn merge_or_preserves_information() {
        let mut dir = RevealMask::from_bits(0b0000_1010);
        let l1 = RevealMask::from_bits(0b0100_0010);
        dir.merge_or(l1);
        assert_eq!(dir.bits(), 0b0100_1010);
    }

    #[test]
    fn bitor_operator_matches_merge() {
        let a = RevealMask::from_bits(0b1);
        let b = RevealMask::from_bits(0b10);
        assert_eq!((a | b).bits(), 0b11);
    }

    #[test]
    fn line_and_word_helpers() {
        assert_eq!(line_of(0x1234), 0x1200);
        assert_eq!(line_of(0x1200), 0x1200);
        assert_eq!(word_index(0x1200), 0);
        assert_eq!(word_index(0x1208), 1);
        assert_eq!(word_index(0x1238), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_word_panics() {
        let _ = RevealMask::all_concealed().is_revealed(8);
    }

    #[test]
    fn display_shows_per_word_state() {
        let mut m = RevealMask::all_concealed();
        m.reveal(1);
        assert_eq!(m.to_string(), "cRcccccc");
    }

    #[test]
    fn all_revealed_counts_eight() {
        assert_eq!(RevealMask::all_revealed().count_revealed(), 8);
    }

    #[test]
    fn mask_array_round_trips_every_line() {
        let mut a = MaskArray::new(21); // not a multiple of MASKS_PER_WORD
        assert_eq!(a.len(), 21);
        assert!(!a.is_empty());
        for line in 0..21 {
            a.set(line, RevealMask::from_bits((line as u8).wrapping_mul(37)));
        }
        for line in 0..21 {
            assert_eq!(a.get(line).bits(), (line as u8).wrapping_mul(37));
        }
    }

    #[test]
    fn mask_array_set_overwrites_only_its_slot() {
        let mut a = MaskArray::new(8);
        for line in 0..8 {
            a.set(line, RevealMask::all_revealed());
        }
        a.set(3, RevealMask::from_bits(0b1));
        assert_eq!(a.get(3).bits(), 0b1);
        for line in (0..8).filter(|&l| l != 3) {
            assert_eq!(a.get(line).bits(), 0xFF);
        }
    }

    #[test]
    fn mask_array_batch_ops_match_per_line_reference() {
        // Drive MaskArray and a plain Vec<RevealMask> with the same
        // pseudo-random op sequence; they must stay equivalent.
        let n = 37;
        let mut packed = MaskArray::new(n);
        let mut reference = vec![RevealMask::all_concealed(); n];
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = (x as usize >> 8) % n;
            let bits = (x >> 32) as u8;
            match x % 3 {
                0 => {
                    packed.set(line, RevealMask::from_bits(bits));
                    reference[line] = RevealMask::from_bits(bits);
                }
                1 => {
                    packed.or_line(line, RevealMask::from_bits(bits));
                    reference[line].merge_or(RevealMask::from_bits(bits));
                }
                _ => {
                    assert_eq!(packed.get(line), reference[line]);
                }
            }
        }
        for (line, want) in reference.iter().enumerate() {
            assert_eq!(packed.get(line), *want);
        }
        let want_count: u64 = reference
            .iter()
            .map(|m| u64::from(m.count_revealed()))
            .sum();
        assert_eq!(packed.count_revealed(), want_count);
        assert_eq!(
            packed.any_revealed(),
            reference.iter().any(|m| m.any_revealed())
        );
    }

    #[test]
    fn mask_array_merge_or_from_is_per_line_or() {
        let n = 19;
        let mut a = MaskArray::new(n);
        let mut b = MaskArray::new(n);
        for line in 0..n {
            a.set(line, RevealMask::from_bits((line as u8) << 1));
            b.set(line, RevealMask::from_bits(0xA5 ^ line as u8));
        }
        let mut want = MaskArray::new(n);
        for line in 0..n {
            want.set(line, a.get(line) | b.get(line));
        }
        a.merge_or_from(&b);
        assert_eq!(a, want);
    }

    #[test]
    fn mask_array_clear_conceals_everything() {
        let mut a = MaskArray::new(11);
        for line in 0..11 {
            a.set(line, RevealMask::all_revealed());
        }
        assert!(a.any_revealed());
        a.clear();
        assert!(!a.any_revealed());
        assert_eq!(a.count_revealed(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_array_out_of_range_panics() {
        let _ = MaskArray::new(4).get(4);
    }
}
