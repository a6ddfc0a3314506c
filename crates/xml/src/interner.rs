//! A simple string interner.
//!
//! Element/attribute names and node string values are stored once and
//! referred to by dense `u32` ids. The `doc` encoding table and the
//! relational engine both key their statistics and B-tree entries on these
//! ids (comparisons on interned ids are resolved back to string order where
//! the semantics require it).
//!
//! "Stored once" is literal: every distinct string's bytes sit in one
//! shared buffer, and the hash table that finds an id from a string holds
//! ids only, comparing a probe against the buffer.

use std::hash::{BuildHasher, RandomState};

/// A free slot of the hash table.
const EMPTY: u32 = u32::MAX;

/// Interns strings to dense `u32` ids, with O(1) lookup in both directions.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Every distinct string, concatenated in id order.
    text: String,
    /// End offset in `text` of each id's string; it starts where the
    /// previous one ends.
    ends: Vec<usize>,
    /// Open-addressing (linear probing) table of ids, `EMPTY` where free.
    /// Its length is zero or a power of two, at most half full.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// The id of `s`, or the free slot where it belongs. The table must
    /// not be empty.
    fn find(&self, s: &str) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.hasher.hash_one(s) as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                id if self.resolve(id) == s => return Ok(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Intern `s`, returning its id (existing or fresh).
    pub fn intern(&mut self, s: &str) -> u32 {
        if 2 * self.ends.len() >= self.slots.len() {
            self.grow();
        }
        match self.find(s) {
            Ok(id) => id,
            Err(slot) => {
                let id = self.ends.len() as u32;
                self.text.push_str(s);
                self.ends.push(self.text.len());
                self.slots[slot] = id;
                id
            }
        }
    }

    /// Double the table and re-insert every id.
    fn grow(&mut self) {
        self.slots = vec![EMPTY; (2 * self.slots.len()).max(16)];
        for id in 0..self.ends.len() as u32 {
            if let Err(slot) = self.find(self.resolve(id)) {
                self.slots[slot] = id;
            }
        }
    }

    /// Look up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(s).ok()
    }

    /// Resolve an id back to its string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: u32) -> &str {
        let i = id as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if no string has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Heap bytes held: the string buffer, the offsets and the table.
    pub fn heap_bytes(&self) -> usize {
        self.text.capacity()
            + self.ends.capacity() * size_of::<usize>()
            + self.slots.capacity() * size_of::<u32>()
    }

    /// Iterate over `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        (0..self.ends.len() as u32).map(|id| (id, self.resolve(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_and_resolves() {
        let mut i = Interner::new();
        let a = i.intern("bidder");
        let b = i.intern("price");
        let a2 = i.intern("bidder");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "bidder");
        assert_eq!(i.resolve(b), "price");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let id = i.intern("x");
        assert_eq!(i.get("x"), Some(id));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered_by_first_occurrence() {
        let mut i = Interner::new();
        for (n, s) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(i.intern(s), n as u32);
        }
        let collected: Vec<_> = i.iter().map(|(_, s)| s.to_string()).collect();
        assert_eq!(collected, vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
        assert_eq!(i.get(""), None);
    }

    #[test]
    fn many_strings_survive_growth_and_clone() {
        let mut i = Interner::new();
        let words: Vec<String> = (0..5000).map(|n| format!("w{n}")).collect();
        for (n, w) in words.iter().enumerate() {
            assert_eq!(i.intern(w), n as u32);
        }
        assert_eq!(i.intern(""), 5000);
        let j = i.clone();
        for (n, w) in words.iter().enumerate() {
            assert_eq!(j.get(w), Some(n as u32));
            assert_eq!(j.resolve(n as u32), w);
        }
        assert_eq!(j.get(""), Some(5000));
        assert_eq!(j.resolve(5000), "");
        assert_eq!(j.get("w5000"), None);
    }
}
