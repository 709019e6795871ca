//! Synthesis threads (paper Section 4).

pub mod tte;

pub use tte::{Bound, OpenFd, SavedRegs, Thread, ThreadState, Tid, WaitObject};

/// A set of thread ids, one bit per tid. Tids are handed out densely from
/// 0, so the set grows by a word per 64 tids rather than by a hashed
/// entry per member.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TidSet {
    words: Vec<u64>,
}

impl TidSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> TidSet {
        TidSet::default()
    }

    fn at(tid: Tid) -> (usize, u64) {
        (tid as usize / 64, 1 << (tid % 64))
    }

    /// Whether `tid` is in the set.
    #[must_use]
    pub fn contains(&self, tid: &Tid) -> bool {
        let (w, bit) = TidSet::at(*tid);
        self.words.get(w).is_some_and(|word| word & bit != 0)
    }

    /// Add `tid`.
    pub fn insert(&mut self, tid: Tid) {
        let (w, bit) = TidSet::at(tid);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= bit;
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Tid> + '_ {
        (0..).zip(&self.words).flat_map(|(w, &word): (Tid, _)| {
            (0..64)
                .filter(move |b| word >> b & 1 != 0)
                .map(move |b| w * 64 + b)
        })
    }
}
