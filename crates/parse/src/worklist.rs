//! Shared batch worklist and the one per-item fan-out built on it.
//!
//! Every parallel pipeline pass — CFG parse, loops plus liveness, and the
//! instrumenter's plan phase — goes through [`fan_out`]. Workers claim
//! work in *batches* to amortise synchronisation — per-item locking
//! dominates on large inputs (the first parallel parser did exactly that
//! and was slower than sequential) — and the batch size adapts to the
//! queue depth so the remaining work is shared fairly across workers
//! instead of drained by whoever gets the lock first.
//!
//! The worklist supports *dynamic discovery*: a worker may push newly
//! found items while completing a batch (the parser pushes callees). A
//! claimed-set dedups pushes so every item is processed exactly once.
//! Static work sets simply never push.

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Condvar, Mutex};
use std::thread;

/// Maximum number of items one `next_batch` call may claim.
pub const BATCH: usize = 16;

struct State<T> {
    queue: VecDeque<T>,
    in_flight: usize,
    claimed: BTreeSet<T>,
}

/// A blocking, batch-claiming work queue shared by a fixed pool of
/// workers. Termination is cooperative: `next_batch` returns an empty
/// batch once the queue is empty *and* no batch is still in flight
/// (an in-flight batch may still discover new work).
pub struct Worklist<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    nworkers: usize,
}

impl<T: Ord + Clone> Worklist<T> {
    /// A worklist seeded with `seed` (each seed item counts as claimed)
    /// serviced by `nworkers` workers.
    pub fn new(seed: impl IntoIterator<Item = T>, nworkers: usize) -> Worklist<T> {
        let queue: VecDeque<T> = seed.into_iter().collect();
        let claimed: BTreeSet<T> = queue.iter().cloned().collect();
        Worklist {
            state: Mutex::new(State {
                queue,
                in_flight: 0,
                claimed,
            }),
            cv: Condvar::new(),
            nworkers: nworkers.max(1),
        }
    }

    /// Claim the next batch, blocking while the queue is empty but other
    /// batches are still in flight. An empty return value means the
    /// worklist is drained and the worker should exit. The batch size is
    /// `min(BATCH, ceil(queue_len / nworkers))`, so a deep queue hands
    /// out full batches while a shallow one is spread across workers.
    pub fn next_batch(&self) -> Vec<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if !st.queue.is_empty() {
                let fair = st.queue.len().div_ceil(self.nworkers);
                let n = fair.clamp(1, BATCH);
                st.in_flight += n;
                return st.queue.drain(..n).collect();
            }
            if st.in_flight == 0 {
                // Drained: wake everyone so they observe termination.
                self.cv.notify_all();
                return Vec::new();
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Finish a batch of `done` items, enqueueing any newly `discovered`
    /// items that were never claimed before.
    pub fn complete(&self, done: usize, discovered: impl IntoIterator<Item = T>) {
        {
            let mut st = self.state.lock().unwrap();
            for c in discovered {
                if st.claimed.insert(c.clone()) {
                    st.queue.push_back(c);
                }
            }
            st.in_flight -= done;
        }
        self.cv.notify_all();
    }
}

/// Run `work` over every item reachable from `seed` on `nworkers`
/// scoped threads, or inline on the calling thread when `nworkers <= 1`,
/// and return each processed item with its result.
///
/// `work` receives one claimed batch and returns one result per batch
/// item, in batch order. It may push newly found items onto its second
/// argument; each is processed once, however often it is reported. The
/// pairs come back in no particular order; callers that need one
/// collect them into a map.
///
/// A panic in `work` still completes its batch, so the other workers
/// drain the queue and the panic then resumes on the calling thread.
pub fn fan_out<T, R, F>(seed: impl IntoIterator<Item = T>, nworkers: usize, work: F) -> Vec<(T, R)>
where
    T: Ord + Clone + Send + Sync,
    R: Send,
    F: Fn(&[T], &mut Vec<T>) -> Vec<R> + Sync,
{
    let wl = Worklist::new(seed, nworkers);
    let worker = || {
        let mut local = Vec::new();
        loop {
            let batch = wl.next_batch();
            if batch.is_empty() {
                return local;
            }
            let mut completion = Completion {
                wl: &wl,
                done: batch.len(),
                discovered: Vec::new(),
            };
            let results = work(&batch, &mut completion.discovered);
            assert_eq!(results.len(), batch.len(), "one result per batch item");
            local.extend(batch.into_iter().zip(results));
        }
    };
    if nworkers <= 1 {
        return worker();
    }
    thread::scope(|scope| {
        let handles: Vec<_> = (0..nworkers).map(|_| scope.spawn(worker)).collect();
        let mut out = Vec::new();
        for h in handles {
            match h.join() {
                Ok(local) => out.extend(local),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    })
}

/// Completes a claimed batch when dropped — after its work returned, or
/// while that work unwinds — so no worker waits on a batch that will
/// never finish.
struct Completion<'a, T: Ord + Clone> {
    wl: &'a Worklist<T>,
    done: usize,
    discovered: Vec<T>,
}

impl<T: Ord + Clone> Drop for Completion<'_, T> {
    fn drop(&mut self) {
        self.wl.complete(self.done, self.discovered.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Items `fan_out` processed, sorted, from a static work set.
    fn processed(seed: impl IntoIterator<Item = u64>, nworkers: usize) -> Vec<u64> {
        let mut seen: Vec<u64> = fan_out(seed, nworkers, |batch, _| vec![(); batch.len()])
            .into_iter()
            .map(|(n, ())| n)
            .collect();
        seen.sort_unstable();
        seen
    }

    #[test]
    fn static_work_set_is_fully_processed_once() {
        assert_eq!(processed(0u64..100, 4), (0u64..100).collect::<Vec<_>>());
    }

    #[test]
    fn discovery_pushes_are_deduped() {
        // Each item n < 50 discovers n + 50; duplicates must not
        // double-process.
        let out = fan_out(0u64..50, 3, |batch, found| {
            found.extend(
                batch
                    .iter()
                    .filter(|&&n| n < 50)
                    .flat_map(|&n| [n + 50, n + 50]),
            );
            vec![(); batch.len()]
        });
        let mut seen: Vec<u64> = out.into_iter().map(|(n, ())| n).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0u64..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_seed_processes_nothing() {
        for nworkers in [1, 4] {
            assert!(processed(std::iter::empty(), nworkers).is_empty());
        }
    }

    #[test]
    fn more_workers_than_items_process_each_once() {
        for nworkers in [2, 8] {
            assert_eq!(processed(0u64..3, nworkers), vec![0, 1, 2]);
        }
    }

    #[test]
    fn results_stay_paired_with_their_items() {
        let out = fan_out(0u64..200, 4, |batch, _| {
            batch.iter().map(|n| n * 3).collect()
        });
        assert_eq!(out.len(), 200);
        assert!(out.iter().all(|&(n, r)| r == n * 3));
    }

    #[test]
    fn a_panicking_worker_propagates_instead_of_hanging() {
        for nworkers in [2, 4] {
            // Run on a helper thread so a regression fails the test
            // rather than blocking the test binary forever.
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let run = std::panic::catch_unwind(|| {
                    fan_out(0u64..100, nworkers, |batch, _| {
                        assert!(!batch.contains(&3), "item 3 fails");
                        vec![(); batch.len()]
                    })
                });
                let _ = tx.send(run.is_err());
            });
            let panicked = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| {
                    panic!("fan_out hung after a worker panic ({nworkers} workers)")
                });
            assert!(
                panicked,
                "the worker panic was swallowed ({nworkers} workers)"
            );
        }
    }
}
