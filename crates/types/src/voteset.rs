//! A set of replicas as a bitset: the one tally type behind PBFT's prepare
//! and commit quorums and a client's `f + 1`-reply confirmation (§V-B).

use crate::ids::ReplicaId;

/// The replicas that voted (or replied), as a bitset over replica ids: a
/// quorum tally only ever inserts, counts and clears. Ids below 128 (every
/// deployment the paper evaluates) live in one inline word, so a tally
/// allocates nothing; higher ids spill into `high`, one bit per id from 128
/// up. There is no cap on the id: callers that must bound the set (PBFT
/// admits ids below `n` only) check before inserting.
#[derive(Debug, Default, Clone)]
pub struct VoteSet {
    low: u128,
    high: Vec<u64>,
}

impl VoteSet {
    /// Record `voter`'s vote; false if it had already voted.
    pub fn insert(&mut self, voter: ReplicaId) -> bool {
        let id = voter.as_usize();
        if id < 128 {
            let bit = 1u128 << id;
            let fresh = self.low & bit == 0;
            self.low |= bit;
            return fresh;
        }
        let (word, bit) = ((id - 128) / 64, 1u64 << (id % 64));
        if word >= self.high.len() {
            self.high.resize(word + 1, 0);
        }
        let fresh = self.high[word] & bit == 0;
        self.high[word] |= bit;
        fresh
    }

    /// Number of distinct voters.
    pub fn len(&self) -> usize {
        let high: u32 = self.high.iter().map(|w| w.count_ones()).sum();
        (self.low.count_ones() + high) as usize
    }

    /// Has nobody voted?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forget every vote.
    pub fn clear(&mut self) {
        self.low = 0;
        self.high.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_set_inserts_counts_and_clears_across_words() {
        let mut votes = VoteSet::default();
        assert!(votes.is_empty());
        // 127 is the last inline id; 128 and 129 are the first to spill.
        for (i, id) in [0, 63, 64, 127, 128, 129, 200].into_iter().enumerate() {
            assert!(votes.insert(ReplicaId::new(id)), "first vote of {id}");
            assert!(!votes.insert(ReplicaId::new(id)), "duplicate vote of {id}");
            assert_eq!(votes.len(), i + 1);
        }
        // Earlier words survive growth, and a low id after a high one lands.
        assert!(!votes.insert(ReplicaId::new(0)));
        assert!(votes.insert(ReplicaId::new(1)));
        assert_eq!(votes.len(), 8);
        // Clearing after a spill empties both halves.
        votes.clear();
        assert!(votes.is_empty());
        for id in [127, 128, 129, 200] {
            assert!(votes.insert(ReplicaId::new(id)), "vote of {id} after clear");
        }
        assert_eq!(votes.len(), 4);
    }
}
