//! The worker pool: addresses, liveness, deterministic assignment.

use crate::engine::CampaignError;
use noc_service::ServiceClient;
use std::sync::atomic::{AtomicBool, Ordering};

/// A pool of `noc-service` workers sharing one result store.
///
/// Liveness is tracked per worker with interior mutability so the
/// dispatcher can mark a worker dead from behind the shared
/// [`EpochExecutor`](crate::EpochExecutor) reference. Death is sticky for
/// the life of the pool: a worker that refused a TCP connection once is
/// skipped by every later assignment, keeping the retry schedule
/// deterministic for a given failure pattern.
#[derive(Debug)]
pub struct WorkerPool {
    clients: Vec<ServiceClient>,
    alive: Vec<AtomicBool>,
}

impl WorkerPool {
    /// A pool over `addrs` (`host:port` each). All workers start alive.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Dispatch`] when `addrs` is empty.
    pub fn new(addrs: &[String]) -> Result<WorkerPool, CampaignError> {
        if addrs.is_empty() {
            return Err(CampaignError::Dispatch(
                "a remote campaign needs at least one worker address".to_string(),
            ));
        }
        Ok(WorkerPool {
            clients: addrs.iter().map(ServiceClient::new).collect(),
            alive: addrs.iter().map(|_| AtomicBool::new(true)).collect(),
        })
    }

    /// Total workers, dead or alive.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// `true` when the pool has no workers (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Workers still considered alive.
    pub fn alive_count(&self) -> usize {
        self.alive
            .iter()
            .filter(|flag| flag.load(Ordering::Relaxed))
            .count()
    }

    /// The client for worker `index`.
    pub fn client(&self, index: usize) -> &ServiceClient {
        &self.clients[index]
    }

    /// The address of worker `index`.
    pub fn addr(&self, index: usize) -> &str {
        self.clients[index].addr()
    }

    /// Marks worker `index` dead (transport failure observed).
    pub fn mark_dead(&self, index: usize) {
        self.alive[index].store(false, Ordering::Relaxed);
    }

    /// Whether worker `index` is still alive.
    pub fn is_alive(&self, index: usize) -> bool {
        self.alive[index].load(Ordering::Relaxed)
    }

    /// The deterministic worker assignment for `(epoch, attempt)`: the
    /// `(epoch + attempt) mod alive`-th worker among those still alive.
    /// Epochs spread round-robin across the pool; each retry rotates to
    /// the next live worker, so a reassignment after a death lands
    /// somewhere else whenever somewhere else exists. `None` when every
    /// worker is dead.
    pub fn planned_worker(&self, epoch: u32, attempt: u32) -> Option<usize> {
        let live: Vec<usize> = (0..self.clients.len())
            .filter(|&i| self.is_alive(i))
            .collect();
        if live.is_empty() {
            return None;
        }
        let slot = (epoch as usize + attempt as usize) % live.len();
        Some(live[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> WorkerPool {
        let addrs: Vec<String> = (0..n).map(|i| format!("127.0.0.1:{}", 4000 + i)).collect();
        WorkerPool::new(&addrs).unwrap()
    }

    #[test]
    fn empty_pools_are_rejected() {
        assert!(matches!(
            WorkerPool::new(&[]).unwrap_err(),
            CampaignError::Dispatch(_)
        ));
    }

    #[test]
    fn assignment_is_round_robin_and_deterministic() {
        let p = pool(3);
        let first: Vec<_> = (0..6).map(|e| p.planned_worker(e, 0)).collect();
        assert_eq!(
            first,
            vec![Some(0), Some(1), Some(2), Some(0), Some(1), Some(2)]
        );
        // Replays identically.
        let again: Vec<_> = (0..6).map(|e| p.planned_worker(e, 0)).collect();
        assert_eq!(first, again);
        // A retry rotates to the next worker.
        assert_eq!(p.planned_worker(0, 1), Some(1));
        assert_eq!(p.planned_worker(0, 2), Some(2));
        assert_eq!(p.planned_worker(0, 3), Some(0));
    }

    #[test]
    fn dead_workers_are_skipped_until_none_remain() {
        let p = pool(3);
        p.mark_dead(1);
        assert_eq!(p.alive_count(), 2);
        // Assignments only ever name workers 0 and 2 now.
        for epoch in 0..8 {
            for attempt in 0..4 {
                let w = p.planned_worker(epoch, attempt).unwrap();
                assert_ne!(w, 1, "dead worker assigned at ({epoch},{attempt})");
            }
        }
        p.mark_dead(0);
        assert_eq!(p.planned_worker(5, 0), Some(2));
        p.mark_dead(2);
        assert_eq!(p.planned_worker(0, 0), None);
        assert_eq!(p.alive_count(), 0);
    }
}
