//! Packed function keys and the flat table that deduplicates them.
//!
//! An orbit walk produces one transformed function per orbit point, and
//! both the pruner ("have I seen this function?") and the complete screen
//! ("does some configuration realize it?") only need equality on those
//! functions. [`KeyLayout`] packs a function's output truth tables densely
//! into a handful of `u64`s — output `o`'s `2^n_in` bits start at bit
//! `o·2^n_in` — so a 4→4 S-box is one word and a 6→4 DES box four, read
//! straight off the [`TruthTable`](mvf_logic::TruthTable) words with no
//! per-minterm evaluation. [`KeyTable`] stores such keys in one flat arena
//! behind an open-addressed `u32` index: one hash per lookup, no per-key
//! allocation, and the same code for every key width.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use mvf_logic::{word, VectorFunction};

/// How an `n_in → n_out` function packs into key words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyLayout {
    n_in: usize,
    n_out: usize,
}

impl KeyLayout {
    pub(crate) fn new(n_in: usize, n_out: usize) -> KeyLayout {
        KeyLayout { n_in, n_out }
    }

    /// Key length in words.
    pub(crate) fn width(&self) -> usize {
        (self.n_out << self.n_in).div_ceil(64)
    }

    /// Words one output occupies (its truth table's word count).
    fn words_per_output(&self) -> usize {
        (1usize << self.n_in).div_ceil(64)
    }

    /// First key word and bit shift of output `o`.
    fn origin(&self, o: usize) -> (usize, u32) {
        let bit = o << self.n_in;
        (bit / 64, (bit % 64) as u32)
    }

    /// ORs output `o`'s column words `src` — a truth table, or screen
    /// columns whose first `2^n_in` bits are one — complemented when
    /// `flip` is all-ones, into `key`. Only the first `2^n_in` bits of
    /// `src` are read, so columns that cycle the minterms past that
    /// normalise to the truth table.
    pub(crate) fn place(&self, o: usize, src: &[u64], flip: u64, key: &mut [u64]) {
        let (word, shift) = self.origin(o);
        let tail = word::tail(self.n_in);
        for (dst, &w) in key[word..].iter_mut().zip(&src[..self.words_per_output()]) {
            *dst |= ((w ^ flip) & tail) << shift;
        }
    }

    /// Complements output `o` of a packed key in place.
    pub(crate) fn flip_output(&self, o: usize, key: &mut [u64]) {
        let (word, shift) = self.origin(o);
        let flip = word::tail(self.n_in) << shift;
        for dst in &mut key[word..word + self.words_per_output()] {
            *dst ^= flip;
        }
    }

    /// Packs `f` (outputs in order) into `key`, which must be
    /// [`width`](Self::width) words long.
    pub(crate) fn pack(&self, f: &VectorFunction, key: &mut [u64]) {
        key.fill(0);
        for (o, t) in f.outputs().iter().enumerate() {
            self.place(o, t.words(), 0, key);
        }
    }
}

/// Marks an empty slot of [`KeyTable::slots`].
const EMPTY: u32 = u32::MAX;

/// An insertion-ordered set of fixed-width `u64` keys: entry `e` is the
/// `e`-th distinct key inserted, stored at `keys[e·width..]`. Lookups
/// hash once with a per-table [`RandomState`] (keys can derive from
/// client-supplied functions, so the hasher stays collision-resistant)
/// and probe linearly; the table doubles at half load.
pub(crate) struct KeyTable {
    width: usize,
    len: usize,
    keys: Vec<u64>,
    slots: Vec<u32>,
    hasher: RandomState,
}

impl KeyTable {
    pub(crate) fn new(width: usize) -> KeyTable {
        KeyTable {
            width,
            len: 0,
            keys: Vec::new(),
            slots: Vec::new(),
            hasher: RandomState::new(),
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The key of entry `e`.
    pub(crate) fn key(&self, e: u32) -> &[u64] {
        &self.keys[e as usize * self.width..][..self.width]
    }

    /// Makes room for `additional` more keys without rehashing.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let need = (self.len + additional)
            .saturating_mul(2)
            .next_power_of_two();
        if need > self.slots.len() {
            self.resize(need);
        }
        self.keys.reserve(additional.saturating_mul(self.width));
    }

    /// Approximate heap footprint in bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<u64>() + self.slots.len() * std::mem::size_of::<u32>()
    }

    /// The entry holding `key`, if any.
    pub(crate) fn get(&self, key: &[u64]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(key, self.hasher.hash_one(key)).ok()
    }

    /// The entry holding `key`, inserting it first if it is new; the flag
    /// is `true` exactly when it was inserted.
    pub(crate) fn insert(&mut self, key: &[u64]) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.width);
        if (self.len + 1) * 2 > self.slots.len() {
            self.resize((self.slots.len() * 2).max(16));
        }
        match self.probe(key, self.hasher.hash_one(key)) {
            Ok(e) => (e, false),
            Err(slot) => {
                let e = u32::try_from(self.len).expect("key table exceeds u32 entries");
                self.slots[slot] = e;
                self.keys.extend_from_slice(key);
                self.len += 1;
                (e, true)
            }
        }
    }

    /// `Ok(entry)` when `key` is present, else `Err(empty slot)` where it
    /// would go. The table is never full (load stays at most one half).
    fn probe(&self, key: &[u64], hash: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                e if self.key(e) == key => return Ok(e),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn resize(&mut self, n_slots: usize) {
        self.slots.clear();
        self.slots.resize(n_slots, EMPTY);
        for e in 0..self.len as u32 {
            let Err(slot) = self.probe(self.key(e), self.hasher.hash_one(self.key(e))) else {
                unreachable!("stored keys are distinct");
            };
            self.slots[slot] = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_packs_outputs_densely() {
        // 2 → 3: three 4-bit tables in one word.
        let f = VectorFunction::from_lookup_table(2, 3, &[0b001, 0b010, 0b100, 0b111]).unwrap();
        let layout = KeyLayout::new(2, 3);
        assert_eq!(layout.width(), 1);
        let mut key = vec![0; 1];
        layout.pack(&f, &mut key);
        let want = f.output(0).as_word() | f.output(1).as_word() << 4 | f.output(2).as_word() << 8;
        assert_eq!(key, [want]);
        layout.flip_output(1, &mut key);
        let mut flipped = vec![0; 1];
        layout.pack(&f.negate_outputs(0b010), &mut flipped);
        assert_eq!(key, flipped);
        // 7 → 2: two-word tables, four words in all.
        let table: Vec<u16> = (0..128u16).map(|m| (m * 37 + 11) % 4).collect();
        let g = VectorFunction::from_lookup_table(7, 2, &table).unwrap();
        let layout = KeyLayout::new(7, 2);
        let mut key = vec![0; layout.width()];
        layout.pack(&g, &mut key);
        let words: Vec<u64> = g
            .outputs()
            .iter()
            .flat_map(|t| t.words().to_vec())
            .collect();
        assert_eq!(key, words);
        layout.flip_output(0, &mut key);
        assert_eq!(key[..2], [!words[0], !words[1]]);
        assert_eq!(key[2..], words[2..]);
    }

    #[test]
    fn place_normalises_cycled_columns() {
        // A screen column over a 64-vector batch that cycles 8 minterms
        // repeats the 8-bit table; only the first period is packed.
        let layout = KeyLayout::new(3, 2);
        let period = 0b1011_0010u64;
        let cycled = (0..8).fold(0u64, |acc, k| acc | period << (8 * k));
        let mut key = vec![0; 1];
        layout.place(1, &[cycled], !0, &mut key);
        assert_eq!(key, [(!period & 0xFF) << 8]);
    }

    #[test]
    fn table_numbers_keys_in_first_appearance_order() {
        let mut table = KeyTable::new(2);
        let keys: Vec<[u64; 2]> = (0..1000u64).map(|i| [i % 300, i % 7]).collect();
        let mut first = std::collections::HashMap::new();
        for k in &keys {
            let next = first.len() as u32;
            let want = *first.entry(*k).or_insert(next);
            let (e, fresh) = table.insert(k);
            assert_eq!(e, want);
            assert_eq!(fresh, e == next);
        }
        assert_eq!(table.len(), first.len());
        for (k, &e) in &first {
            assert_eq!(table.get(k), Some(e));
            assert_eq!(table.key(e), k);
        }
        assert_eq!(table.get(&[300, 0]), None);
    }
}
