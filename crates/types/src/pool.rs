//! A zero-dependency scoped thread pool.
//!
//! [`parallel_map`] spawns up to `threads` scoped workers that claim work
//! through a shared atomic cursor, so uneven item costs balance
//! automatically and each item is visited exactly once — parallelism changes
//! wall-clock, never results. Worker counts are additionally clamped to the
//! machine's available parallelism: oversubscribing cores buys nothing and
//! costs context switches, and results are thread-count independent by
//! design. The runner's scenario sweeps are its caller; `orthrus_core`
//! re-exports it under its historical path.

/// Worker count actually used for a request of `threads` over `items` items.
#[expect(
    clippy::disallowed_methods,
    reason = "the deterministic pool sizes itself to the machine; results do not depend on its width"
)]
fn effective_threads(threads: usize, items: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    threads.max(1).min(cores).min(items.max(1))
}

/// Apply `f` to every item on a scoped thread pool of up to `threads`
/// workers, returning results in input order.
///
/// Workers claim fixed-size *chunks* of the input (not single items) through
/// the shared cursor: one claim and one result slot per chunk keeps the
/// coordination cost negligible even for tens of thousands of small items,
/// while chunks are small enough for uneven costs to balance.
#[expect(
    clippy::disallowed_methods,
    reason = "the deterministic pool: the one place workers are spawned; results come back in input order"
)]
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = effective_threads(threads, items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    // At least 8 claims per worker so stragglers balance; at most 256 items
    // per chunk so claims stay rare.
    let chunk = (items.len() / (threads * 8)).clamp(1, 256);
    let chunks: Vec<&[T]> = items.chunks(chunk).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Vec<R>>> = chunks
        .iter()
        .map(|_| std::sync::Mutex::new(Vec::new()))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= chunks.len() {
                    break;
                }
                let out: Vec<R> = chunks[i].iter().map(&f).collect();
                *slots[i].lock().expect("no panics while holding the lock") = out;
            });
        }
    });
    let mut results = Vec::with_capacity(items.len());
    for slot in slots {
        results.extend(slot.into_inner().expect("no panics while holding the lock"));
    }
    debug_assert_eq!(results.len(), items.len());
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 3, 8] {
            let out = parallel_map(&items, threads, |x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_oversubscribed_inputs_are_fine() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(&empty, 8, |x| *x).is_empty());
        assert_eq!(parallel_map(&[1u64, 2], 16, |x| x * 10), vec![10, 20]);
    }
}
