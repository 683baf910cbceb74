//! `xp-par`: a from-scratch, dependency-free parallel execution layer.
//!
//! Every hot substrate of the workspace — segmented sieving, balanced
//! product trees, top-down labeling, `LabelTable` builds, partitioned
//! structural joins — funnels its data-parallel inner loop through this
//! crate. The design goals, in order:
//!
//! 1. **Determinism.** For every primitive here, the output is a pure
//!    function of the input — *never* of the thread count, scheduling
//!    order, or timing. [`par_map`] places each result at its input's
//!    index, so a caller that folds the results folds them in input
//!    order. `XP_THREADS=1` is an *exact* sequential fallback: the same
//!    code path, minus the spawns.
//! 2. **Zero dependencies.** Pure `std`: [`std::thread::scope`] for
//!    borrow-friendly workers, one shared atomic cursor for work
//!    distribution. No channels, no queues, no unsafe.
//! 3. **No nested oversubscription.** Worker threads run with an ambient
//!    thread budget of 1, so a parallel region reached from inside another
//!    parallel region degrades to the sequential path instead of spawning
//!    `threads²` OS threads.
//!
//! Sizing: the ambient thread budget is, in priority order, the value set
//! by [`with_threads`] (scoped, used by tests and benches), the
//! `XP_THREADS` environment variable, then
//! [`std::thread::available_parallelism`].
//!
//! Worker panics are captured and re-raised on the calling thread via
//! [`std::panic::resume_unwind`], so a panicking closure behaves exactly
//! as it would in a sequential loop.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
// Unit tests may unwrap: a panic there is a test failure, not a crash.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Scoped override of the ambient thread budget. `Some(1)` inside
    /// worker threads (the no-nesting rule); `Some(n)` inside
    /// [`with_threads`]; `None` means "consult the environment".
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Restores the previous thread override when dropped, so [`with_threads`]
/// unwinds correctly even when its closure panics.
struct OverrideGuard(Option<usize>);

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|c| c.set(self.0));
    }
}

/// The ambient thread budget for parallel regions started from this
/// thread: the [`with_threads`] override if one is active, else
/// `XP_THREADS` (non-integers and `0` are ignored with a warning), else
/// the machine's available parallelism.
pub fn threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("XP_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => {
                if !v.trim().is_empty() {
                    eprintln!("warning: ignoring XP_THREADS={v:?} (want an integer >= 1)");
                }
            }
        }
    }
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Runs `f` with the ambient thread budget pinned to `n` (minimum 1) on
/// the current thread, restoring the previous budget afterwards — the
/// race-free way for tests and benches to compare thread counts inside one
/// process (mutating `XP_THREADS` via `set_var` would leak across the test
/// harness's own threads).
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = OverrideGuard(THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Maps `f` over `items`, in parallel when the ambient budget allows,
/// returning results in input order. The output is identical to
/// `items.iter().map(f).collect()` at any thread count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Index-driven [`par_map`]: calls `f` on every index in `0..len` and
/// returns the results in index order. The workhorse behind every other
/// primitive; use it directly when the work is described by positions
/// rather than a materialized slice (e.g. sieving window `i`).
pub fn par_map_indexed<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads().min(len);
    if threads <= 1 {
        return (0..len).map(f).collect();
    }

    // Workers claim small contiguous runs from a shared cursor: one atomic
    // op per run amortizes contention, and runs keep adjacent items (often
    // adjacent memory) on one worker. 8 runs per worker gives the cursor
    // enough slack to absorb unevenly-sized items.
    let run = len.div_ceil(threads * 8).max(1);
    let cursor = AtomicUsize::new(0);
    let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    // The no-nesting rule: parallel regions reached from
                    // this worker run sequentially.
                    THREAD_OVERRIDE.with(|c| c.set(Some(1)));
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(run, Ordering::Relaxed);
                        if start >= len {
                            break;
                        }
                        for i in start..(start + run).min(len) {
                            local.push((i, f(i)));
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => parts.push(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    for (i, r) in parts.into_iter().flatten() {
        out[i] = Some(r);
    }
    // Every index in 0..len was claimed by exactly one worker, so every
    // slot is filled; flatten() drops nothing.
    out.into_iter().flatten().collect()
}

/// Splits `items` into contiguous chunks of at most `chunk_len` elements
/// (the final chunk may be shorter), maps `f` over the chunks in parallel,
/// and returns the per-chunk results in input order. The chunk boundaries
/// depend only on `items.len()` and `chunk_len` — never on the thread
/// count — so downstream consumers that care about *where* the splits fall
/// (e.g. the product tree's leaf products) see identical partitions at any
/// `XP_THREADS`.
pub fn par_chunks<T, R, F>(items: &[T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let chunk_len = chunk_len.max(1);
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    par_map_indexed(chunks.len(), |i| f(chunks[i]))
}

/// Maps `f` over mutable references to `items`, in parallel when the
/// ambient budget allows, returning results in input order. Each item is
/// visited exactly once, so the closure gets genuinely exclusive `&mut`
/// access — the enabling primitive for per-shard batch mutation, where
/// every shard owns disjoint state but all shards live in one `Vec`.
///
/// Safety is purely library-level (this crate forbids `unsafe`): each
/// `&mut T` is parked in its own `Mutex<Option<&mut T>>` cell and taken by
/// the single worker that claims that index from the dispatch cursor.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    use std::sync::Mutex;
    let cells: Vec<Mutex<Option<&mut T>>> =
        items.iter_mut().map(|r| Mutex::new(Some(r))).collect();
    par_map_indexed(cells.len(), |i| {
        // A poisoned cell can only arise from another worker panicking on
        // this very index, which the dispatch cursor rules out; recover the
        // guard rather than propagate a bogus secondary panic.
        let mut guard = match cells[i].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        match guard.take() {
            Some(item) => f(i, item),
            // Unreachable: par_map_indexed claims each index exactly once.
            None => unreachable!("par_map_mut cell {i} taken twice"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for n in [1, 2, 3, 8, 64] {
            let got = with_threads(n, || par_map(&items, |x| x * x + 1));
            assert_eq!(got, expected, "thread count {n}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(with_threads(4, || par_map(&empty, |x| x + 1)), Vec::<u32>::new());
        assert_eq!(with_threads(4, || par_map(&[7u32], |x| x + 1)), vec![8]);
    }

    #[test]
    fn par_chunks_boundaries_are_thread_independent() {
        let items: Vec<u32> = (0..103).collect();
        let expected: Vec<Vec<u32>> = items.chunks(10).map(<[u32]>::to_vec).collect();
        for n in [1, 2, 8] {
            let got = with_threads(n, || par_chunks(&items, 10, <[u32]>::to_vec));
            assert_eq!(got, expected, "thread count {n}");
        }
    }

    #[test]
    fn par_map_mut_gives_exclusive_access() {
        let mut items: Vec<Vec<u32>> = (0..64).map(|i| vec![i]).collect();
        for n in [1, 2, 8] {
            let lens = with_threads(n, || {
                par_map_mut(&mut items, |i, v| {
                    v.push(i as u32);
                    v.len()
                })
            });
            assert_eq!(lens.len(), 64, "thread count {n}");
        }
        // Three passes ran (1, 2, 8 threads): every item grew by three.
        assert!(items.iter().enumerate().all(|(i, v)| v.len() == 4 && v[0] == i as u32));
    }

    #[test]
    fn par_map_mut_results_in_input_order() {
        let mut items: Vec<usize> = (0..100).collect();
        let got = with_threads(8, || par_map_mut(&mut items, |i, x| i * 1000 + *x));
        let expected: Vec<usize> = (0..100).map(|i| i * 1000 + i).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = threads();
        with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(1, || assert_eq!(threads(), 1));
            assert_eq!(threads(), 3);
        });
        assert_eq!(threads(), outer);
    }

    #[test]
    fn with_threads_restores_after_panic() {
        let outer = threads();
        let result = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(threads(), outer);
    }

    #[test]
    fn workers_run_nested_regions_sequentially() {
        // Inside a worker the ambient budget must be 1, so nested par_map
        // calls take the sequential path instead of spawning threads².
        let budgets = with_threads(4, || par_map_indexed(16, |_| threads()));
        assert!(budgets.iter().all(|&b| b == 1), "budgets: {budgets:?}");
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map_indexed(64, |i| {
                    assert!(i != 33, "worker fault at 33");
                    i
                })
            })
        });
        assert!(result.is_err());
    }
}
