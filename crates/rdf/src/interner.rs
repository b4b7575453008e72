//! Term interning.
//!
//! The quad store does not index [`Term`] values directly: every distinct term
//! is assigned a dense `u32` [`TermId`] and all indexes operate on ids. This
//! keeps index entries at 16 bytes per quad and makes equality a register
//! compare — the dominant operation during BGP matching (see the `interning`
//! ablation bench for the measured effect).
//!
//! The table is open-addressed (linear probing over a power-of-two bucket
//! array) rather than a `HashMap<Term, TermId>`: each distinct term is stored
//! exactly once in the dense `terms` vector, so interning clones the term a
//! single time, and IRI-only call sites (`Interner::intern_iri`,
//! `Interner::get_iri`) hash the IRI directly without materializing a
//! temporary `Term` wrapper.

use crate::model::{Iri, Term};
use std::hash::{Hash, Hasher};

/// A dense identifier for an interned [`Term`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// The raw index value.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32`, for id-space index keys.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from a raw index key component. The caller must have
    /// obtained the value from the same store's id space.
    pub(crate) fn from_raw(raw: u32) -> Self {
        TermId(raw)
    }
}

const EMPTY: u32 = u32::MAX;

/// FxHash-style multiplicative hasher — terms are tiny, SipHash's setup cost
/// dominates BGP matching otherwise.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        // Hash whole words where possible; strings (IRIs are 20-60 bytes)
        // arrive here via `str`'s `Hash`, so this is the hot path.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = (tail << 8) | b as u64;
        }
        self.add(tail ^ bytes.len() as u64);
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

fn hash_term(term: &Term) -> u64 {
    let mut h = FxHasher::default();
    term.hash(&mut h);
    h.finish()
}

/// Must agree with [`Term`]'s manual `Hash` impl for the `Iri` variant.
fn hash_iri_term(iri: &Iri) -> u64 {
    let mut h = FxHasher::default();
    crate::model::hash_term_iri(iri, &mut h);
    h.finish()
}

/// A bidirectional `Term ↔ TermId` table.
///
/// Not thread-safe by itself; the store wraps it (together with the indexes)
/// in a single `parking_lot::RwLock`, following the guidance of keeping
/// values accessed together under one lock.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    terms: Vec<Term>,
    /// Cached hash of each interned term, index-aligned with `terms`.
    hashes: Vec<u64>,
    /// Open-addressed bucket array holding term ids; `EMPTY` marks a free
    /// slot. Length is always a power of two.
    table: Vec<u32>,
}

impl Interner {
    fn mask(&self) -> usize {
        self.table.len() - 1
    }

    fn grow(&mut self) {
        let new_len = (self.table.len() * 2).max(16);
        self.table = vec![EMPTY; new_len];
        let mask = new_len - 1;
        for (id, &h) in self.hashes.iter().enumerate() {
            let mut slot = h as usize & mask;
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = id as u32;
        }
    }

    /// Probes for a term with hash `h` satisfying `eq`; returns the id if
    /// found, otherwise the free slot where it belongs.
    fn probe(&self, h: u64, eq: impl Fn(&Term) -> bool) -> Result<TermId, usize> {
        let mask = self.mask();
        let mut slot = h as usize & mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                return Err(slot);
            }
            if self.hashes[id as usize] == h && eq(&self.terms[id as usize]) {
                return Ok(TermId(id));
            }
            slot = (slot + 1) & mask;
        }
    }

    fn insert_at(&mut self, slot: usize, h: u64, term: Term) -> TermId {
        // `u32::MAX` is reserved: it is the bucket table's EMPTY marker (and
        // the evaluator's UNBOUND row sentinel), so the last representable
        // u32 must never become a term id.
        let id = u32::try_from(self.terms.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("interner overflow: more than 2^32 - 1 terms");
        self.terms.push(term);
        self.hashes.push(h);
        self.table[slot] = id;
        // Grow at ~70% load so probe chains stay short.
        if self.terms.len() * 10 >= self.table.len() * 7 {
            self.grow();
        }
        TermId(id)
    }

    /// Interns a term, returning its id. Idempotent. The term is cloned at
    /// most once (on first sight).
    pub(crate) fn intern(&mut self, term: &Term) -> TermId {
        if self.table.is_empty() {
            self.grow();
        }
        let h = hash_term(term);
        match self.probe(h, |t| t == term) {
            Ok(id) => id,
            Err(slot) => self.insert_at(slot, h, term.clone()),
        }
    }

    /// Interns `Term::Iri(iri)` without materializing the wrapper on lookup —
    /// the hot path for predicates and graph names.
    pub(crate) fn intern_iri(&mut self, iri: &Iri) -> TermId {
        if self.table.is_empty() {
            self.grow();
        }
        let h = hash_iri_term(iri);
        match self.probe(h, |t| matches!(t, Term::Iri(i) if i == iri)) {
            Ok(id) => id,
            Err(slot) => self.insert_at(slot, h, Term::Iri(iri.clone())),
        }
    }

    /// Looks up the id of an already-interned term.
    pub(crate) fn get(&self, term: &Term) -> Option<TermId> {
        if self.table.is_empty() {
            return None;
        }
        self.probe(hash_term(term), |t| t == term).ok()
    }

    /// Looks up the id of `Term::Iri(iri)` without building the wrapper.
    pub(crate) fn get_iri(&self, iri: &Iri) -> Option<TermId> {
        if self.table.is_empty() {
            return None;
        }
        self.probe(
            hash_iri_term(iri),
            |t| matches!(t, Term::Iri(i) if i == iri),
        )
        .ok()
    }

    /// Resolves an id back to its term.
    ///
    /// # Panics
    /// Panics if the id was not produced by this interner.
    pub(crate) fn resolve(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Number of distinct interned terms.
    pub(crate) fn len(&self) -> usize {
        self.terms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Iri, Literal};

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::default();
        let t = Term::iri("http://e/a");
        let a = i.intern(&t);
        let b = i.intern(&t);
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let mut i = Interner::default();
        let a = i.intern(&Term::iri("http://e/a"));
        let b = i.intern(&Term::iri("http://e/b"));
        let c = i.intern(&Term::Literal(Literal::string("http://e/a")));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::default();
        let term = Term::Iri(Iri::new("http://e/x"));
        let id = i.intern(&term);
        assert_eq!(i.resolve(id), &term);
    }

    #[test]
    fn get_does_not_intern() {
        let i = Interner::default();
        assert!(i.get(&Term::iri("http://e/a")).is_none());
        assert_eq!(i.len(), 0);
    }

    #[test]
    fn iri_fast_path_agrees_with_term_path() {
        let mut i = Interner::default();
        let iri = Iri::new("http://e/p");
        let via_iri = i.intern_iri(&iri);
        let via_term = i.intern(&Term::Iri(iri.clone()));
        assert_eq!(via_iri, via_term);
        assert_eq!(i.get_iri(&iri), Some(via_iri));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn survives_growth_with_many_terms() {
        let mut i = Interner::default();
        let ids: Vec<TermId> = (0..10_000)
            .map(|n| i.intern(&Term::iri(format!("http://e/t/{n}"))))
            .collect();
        assert_eq!(i.len(), 10_000);
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(i.get(&Term::iri(format!("http://e/t/{n}"))), Some(*id));
            assert_eq!(i.resolve(*id), &Term::iri(format!("http://e/t/{n}")));
        }
    }
}
