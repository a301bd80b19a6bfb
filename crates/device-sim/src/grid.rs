//! Persistent-worker grid launcher.
//!
//! The paper dynamically assigns chunks to thread blocks for load balance
//! (§III-E). The simulation runs its blocks on the same **persistent
//! worker pool** that backs the host-side parallel paths
//! ([`rayon::broadcast`]): each participating thread repeatedly claims the
//! next block index from an atomic counter, so a launch costs an epoch
//! broadcast instead of a spawn/join of fresh OS threads per call.
//! Because indices are claimed **in ascending order** and workers never
//! block on *later* indices, any block a worker waits on during decoupled
//! look-back is either finished or currently running — the same
//! forward-progress argument real single-pass scans rely on (resident
//! blocks make progress). That argument also survives the pool's inline
//! nested-launch path (a single sequential claimant finishes every
//! earlier block before looking back at it).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Launch `num_blocks` instances of `kernel` on `workers` persistent
/// worker threads. `kernel(b)` is called exactly once for every
/// `b in 0..num_blocks`.
///
/// # Panics
/// Propagates panics from kernels (the scope joins all workers).
pub fn launch<F>(num_blocks: usize, workers: usize, kernel: F)
where
    F: Fn(usize) + Sync,
{
    launch_init(num_blocks, workers, || (), |(), b| kernel(b));
}

/// [`launch`] with per-worker state: each participating thread calls
/// `init` at most once (lazily, on its first claimed block) and passes the
/// state to every kernel invocation it claims. This models per-SM shared
/// memory — kernels reuse worker-resident scratch buffers instead of
/// allocating per block.
///
/// # Panics
/// Propagates panics from kernels (the pool joins all participants before
/// unwinding).
pub fn launch_init<S, I, F>(num_blocks: usize, workers: usize, init: I, kernel: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    if num_blocks == 0 {
        return;
    }
    let workers = workers.clamp(1, num_blocks);
    if workers == 1 {
        let mut state = init();
        for b in 0..num_blocks {
            kernel(&mut state, b);
        }
        return;
    }
    let counter = AtomicUsize::new(0);
    rayon::broadcast(workers, || {
        // Lazy state: a participant that never claims a block (the whole
        // grid was drained first) also never pays for an init.
        let mut state: Option<S> = None;
        loop {
            let b = counter.fetch_add(1, Ordering::Relaxed);
            if b >= num_blocks {
                break;
            }
            kernel(state.get_or_insert_with(&init), b);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_block_runs_once() {
        let n = 1000;
        let flags: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        launch(n, 8, |b| {
            flags[b].fetch_add(1, Ordering::SeqCst);
        });
        assert!(flags.iter().all(|f| f.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn zero_blocks_is_noop() {
        launch(0, 4, |_| panic!("must not run"));
    }

    #[test]
    fn single_worker_is_sequential() {
        let order = std::sync::Mutex::new(Vec::new());
        launch(10, 1, |b| order.lock().unwrap().push(b));
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn per_worker_state_covers_all_blocks() {
        let n = 500;
        let flags: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let inits = AtomicU64::new(0);
        launch_init(
            n,
            4,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                Vec::<usize>::new()
            },
            |seen, b| {
                seen.push(b);
                flags[b].fetch_add(1, Ordering::SeqCst);
            },
        );
        assert!(flags.iter().all(|f| f.load(Ordering::SeqCst) == 1));
        assert!(inits.load(Ordering::SeqCst) <= 4, "one init per worker");
    }
}
