//! Round-robin arbitration.
//!
//! Used by the VC allocator and both stages of the separable switch
//! allocator. The arbiter remembers the last grantee and gives lowest
//! priority to it in the next round, which guarantees strong fairness among
//! persistent requesters.

/// A round-robin arbiter over `n` requesters.
///
/// ```
/// use noc_sim::arbiter::RoundRobinArbiter;
///
/// let mut arb = RoundRobinArbiter::new(3);
/// // Everyone requests: grants rotate.
/// assert_eq!(arb.grant(|_| true), Some(0));
/// assert_eq!(arb.grant(|_| true), Some(1));
/// assert_eq!(arb.grant(|_| true), Some(2));
/// assert_eq!(arb.grant(|_| true), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    n: usize,
    /// Index with highest priority in the next round.
    next: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        RoundRobinArbiter { n, next: 0 }
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n
    }

    /// The index that holds highest priority in the next round — the
    /// arbiter's only mutable state, exposed for snapshot/restore.
    pub fn priority(&self) -> usize {
        self.next
    }

    /// Restores a priority pointer previously read with
    /// [`priority`](Self::priority).
    ///
    /// # Panics
    ///
    /// Panics if `next` is out of range for this arbiter.
    pub fn set_priority(&mut self, next: usize) {
        assert!(next < self.n, "priority {next} out of range (n = {})", self.n);
        self.next = next;
    }

    /// Always `false`: the constructor rejects zero requesters.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grants the highest-priority index for which `requesting` returns
    /// `true`, advancing the priority pointer past the grantee. Returns
    /// `None` (and leaves priority unchanged) when nobody requests.
    pub fn grant<F: FnMut(usize) -> bool>(&mut self, requesting: F) -> Option<usize> {
        let idx = self.peek(requesting)?;
        self.next = if idx + 1 == self.n { 0 } else { idx + 1 };
        Some(idx)
    }

    /// Like [`grant`](Self::grant) but does not rotate priority — used to
    /// peek at who would win. Probes `next..n` then `0..next`, so no probe
    /// divides.
    pub fn peek<F: FnMut(usize) -> bool>(&self, mut requesting: F) -> Option<usize> {
        (self.next..self.n)
            .chain(0..self.next)
            .find(|&idx| requesting(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_requester_always_wins() {
        let mut arb = RoundRobinArbiter::new(4);
        for _ in 0..10 {
            assert_eq!(arb.grant(|i| i == 2), Some(2));
        }
    }

    #[test]
    fn no_request_no_grant() {
        let mut arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.grant(|_| false), None);
        // Priority unchanged: index 0 wins next.
        assert_eq!(arb.grant(|_| true), Some(0));
    }

    #[test]
    fn fairness_among_persistent_requesters() {
        let mut arb = RoundRobinArbiter::new(5);
        let mut counts = [0usize; 5];
        for _ in 0..100 {
            let g = arb.grant(|i| i == 1 || i == 3).unwrap();
            counts[g] += 1;
        }
        assert_eq!(counts[1], 50);
        assert_eq!(counts[3], 50);
    }

    #[test]
    fn peek_does_not_rotate() {
        let mut arb = RoundRobinArbiter::new(3);
        assert_eq!(arb.peek(|_| true), Some(0));
        assert_eq!(arb.peek(|_| true), Some(0));
        assert_eq!(arb.grant(|_| true), Some(0));
        assert_eq!(arb.peek(|_| true), Some(1));
    }

    #[test]
    #[should_panic(expected = "at least one requester")]
    fn zero_requesters_panics() {
        let _ = RoundRobinArbiter::new(0);
    }
}
