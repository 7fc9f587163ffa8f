//! Round-robin arbitration on request masks.
//!
//! Used by the VC allocator and both stages of the separable switch
//! allocator. The arbiter remembers the last grantee and gives lowest
//! priority to it in the next round, which guarantees strong fairness among
//! persistent requesters.
//!
//! Requests arrive as `u32` words of `stride` bits each: bit `b` of word
//! `w` requests index `w × stride + b`. The VC allocator's flat
//! `(input port, VC)` space is five words of `num_vcs` bits, one per input
//! port; the switch allocator's arbiters take a single word.

/// A round-robin arbiter over `n = words × stride` requesters.
///
/// ```
/// use noc_sim::arbiter::RoundRobinArbiter;
///
/// let mut arb = RoundRobinArbiter::new(3);
/// // Everyone requests: grants rotate.
/// assert_eq!(arb.grant(&[0b111]), Some(0));
/// assert_eq!(arb.grant(&[0b111]), Some(1));
/// assert_eq!(arb.grant(&[0b111]), Some(2));
/// assert_eq!(arb.grant(&[0b111]), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    words: usize,
    stride: usize,
    /// The word and bit of the index with highest priority in the next
    /// round, kept apart so no grant divides.
    next_word: usize,
    next_bit: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n ≤ 32` requesters, all in one request
    /// word.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds 32.
    pub fn new(n: usize) -> Self {
        RoundRobinArbiter::with_words(1, n)
    }

    /// Creates an arbiter over `words × stride` requesters whose requests
    /// arrive as `words` words of `stride` bits.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `stride` exceeds 32.
    pub fn with_words(words: usize, stride: usize) -> Self {
        assert!(
            words > 0 && stride > 0,
            "arbiter needs at least one requester"
        );
        assert!(stride <= 32, "a request word holds at most 32 requesters");
        RoundRobinArbiter {
            words,
            stride,
            next_word: 0,
            next_bit: 0,
        }
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.words * self.stride
    }

    /// The index that holds highest priority in the next round — the
    /// arbiter's only mutable state, exposed for snapshot/restore.
    pub fn priority(&self) -> usize {
        self.next_word * self.stride + self.next_bit
    }

    /// Restores a priority pointer previously read with
    /// [`priority`](Self::priority).
    ///
    /// # Panics
    ///
    /// Panics if `next` is out of range for this arbiter.
    pub fn set_priority(&mut self, next: usize) {
        assert!(
            next < self.len(),
            "priority {next} out of range (n = {})",
            self.len()
        );
        self.next_word = next / self.stride;
        self.next_bit = next % self.stride;
    }

    /// Always `false`: the constructor rejects zero requesters.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grants the lowest requesting index at or above the priority
    /// pointer, else the lowest requesting index, and moves the pointer
    /// just past the grantee. Returns `None` (and leaves priority
    /// unchanged) when nobody requests. `requests` holds one word per
    /// `stride` requesters; bits at or beyond `stride` must be clear.
    pub fn grant(&mut self, requests: &[u32]) -> Option<usize> {
        debug_assert_eq!(requests.len(), self.words, "one request word per group");
        debug_assert!(
            self.stride == 32 || requests.iter().all(|&w| w >> self.stride == 0),
            "request bits beyond the stride"
        );
        if self.words == 1 {
            // The switch allocator's shape: the rotation of one word.
            let req = requests[0];
            if req == 0 {
                return None;
            }
            let at_or_above = req & (u32::MAX << self.next_bit);
            let first = if at_or_above != 0 { at_or_above } else { req };
            let bit = first.trailing_zeros() as usize;
            self.next_bit = if bit + 1 < self.stride { bit + 1 } else { 0 };
            return Some(bit);
        }
        let (word, bit) = self.find(requests)?;
        if bit + 1 < self.stride {
            self.next_word = word;
            self.next_bit = bit + 1;
        } else {
            self.next_word = if word + 1 < self.words { word + 1 } else { 0 };
            self.next_bit = 0;
        }
        Some(word * self.stride + bit)
    }

    /// The word and bit [`grant`](Self::grant) picks: the rotation of the
    /// request words that starts at the priority pointer.
    fn find(&self, requests: &[u32]) -> Option<(usize, usize)> {
        let mut w = self.next_word;
        let at_or_above = requests[w] & (u32::MAX << self.next_bit);
        if at_or_above != 0 {
            return Some((w, at_or_above.trailing_zeros() as usize));
        }
        // The words after the pointer's, wrapping round to the pointer's
        // own (whose bits at or above the pointer are clear).
        for _ in 0..self.words {
            w = if w + 1 == self.words { 0 } else { w + 1 };
            if requests[w] != 0 {
                return Some((w, requests[w].trailing_zeros() as usize));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_requester_always_wins() {
        let mut arb = RoundRobinArbiter::new(4);
        for _ in 0..10 {
            assert_eq!(arb.grant(&[0b0100]), Some(2));
        }
    }

    #[test]
    fn no_request_no_grant() {
        let mut arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.grant(&[0]), None);
        // Priority unchanged: index 0 wins next.
        assert_eq!(arb.grant(&[0b1111]), Some(0));
    }

    #[test]
    fn fairness_among_persistent_requesters() {
        let mut arb = RoundRobinArbiter::new(5);
        let mut counts = [0usize; 5];
        for _ in 0..100 {
            let g = arb.grant(&[0b01010]).unwrap();
            counts[g] += 1;
        }
        assert_eq!(counts[1], 50);
        assert_eq!(counts[3], 50);
    }

    #[test]
    #[should_panic(expected = "at least one requester")]
    fn zero_requesters_panics() {
        let _ = RoundRobinArbiter::new(0);
    }
}
