//! Deterministic fork-join over contiguous chunks, for experiment-level
//! parallelism (`vmtherm_core::stable::run_experiments_threaded`).
//!
//! Items are partitioned into **contiguous shards** — disjoint `&mut`
//! sub-slices — and a scoped worker pool drains the shard queue.
//! Because every shard owns a disjoint, index-addressed range and all
//! mutation happens in place through those exclusive borrows, the end
//! state is **bit-identical for any thread count and any shard
//! partitioning**: there is no cross-shard data flow whose order could
//! vary. This is the same contract as `vmtherm_svm::grid`'s
//! index-addressed merge, which the L9 lint vets; this module is its
//! sibling on the simulator side.
//!
//! The engine and the fleet monitor step serially: per-server work per
//! tick is too small for a fork per tick to pay (DESIGN.md §10).

/// Splits `len` items into at most `shards` contiguous ranges of
/// near-equal size (the first `len % shards` ranges are one longer).
///
/// Returns `(start, end)` half-open bounds in index order. Empty ranges
/// are never produced: fewer than `shards` ranges come back when
/// `len < shards`.
///
/// ```
/// use vmtherm_sim::shard::shard_bounds;
/// assert_eq!(shard_bounds(5, 2), vec![(0, 3), (3, 5)]);
/// assert_eq!(shard_bounds(2, 8), vec![(0, 1), (1, 2)]);
/// assert_eq!(shard_bounds(0, 4), vec![]);
/// ```
#[must_use]
pub fn shard_bounds(len: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1).min(len);
    let mut bounds = Vec::with_capacity(shards);
    if len == 0 {
        return bounds;
    }
    let base = len / shards;
    let extra = len % shards;
    let mut start = 0;
    for s in 0..shards {
        let size = base + usize::from(s < extra);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// Runs `f` over disjoint contiguous chunks of `items` on a scoped
/// worker pool.
///
/// `items` is split according to [`shard_bounds`]`(items.len(), shards)`
/// and each worker repeatedly takes the next unclaimed chunk. `f`
/// receives `(offset, chunk)` where `offset` is the global index of
/// `chunk[0]`, so callers address global per-item state (RNG streams,
/// result slots) by stable index rather than by shard position.
///
/// Determinism contract: `f` must only mutate state reachable through
/// its exclusive `chunk` borrow (plus order-independent atomics such as
/// observability counters). Under that contract the result is
/// bit-identical for every `threads >= 1`, because chunk execution
/// order cannot influence any value.
///
/// With `threads <= 1` or a single chunk the work runs inline on the
/// caller's thread and no pool is spun up. Worker panics are re-raised
/// on the caller with their original payload.
pub fn for_each_chunk<T, F>(items: &mut [T], shards: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let bounds = shard_bounds(items.len(), shards);
    // Carve the slice into disjoint chunks up front; handing each
    // worker an exclusive borrow means no two threads can alias a
    // server. Bounds are contiguous from zero, so each chunk's global
    // offset is simply the number of items consumed before it.
    let mut chunks: Vec<(usize, &mut [T])> = Vec::with_capacity(bounds.len());
    let mut rest = items;
    let mut consumed = 0;
    for (_, end) in &bounds {
        let (chunk, tail) = rest.split_at_mut(end - consumed);
        chunks.push((consumed, chunk));
        rest = tail;
        consumed = *end;
    }

    if threads <= 1 || chunks.len() <= 1 {
        for (offset, chunk) in chunks {
            f(offset, chunk);
        }
        return;
    }

    // Chunk pick-up order is arbitrary; determinism rests only on the
    // exclusive-borrow contract above.
    let workers = threads.min(chunks.len());
    let queue = std::sync::Mutex::new(chunks);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let job = {
                        let mut q = queue
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        q.pop()
                    };
                    match job {
                        Some((offset, chunk)) => f(offset, chunk),
                        None => break,
                    }
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_cover_the_range_exactly_once() {
        for len in 0..40 {
            for shards in 1..10 {
                let bounds = shard_bounds(len, shards);
                let mut expect = 0;
                for (start, end) in &bounds {
                    assert_eq!(*start, expect);
                    assert!(end > start, "empty shard in {bounds:?}");
                    expect = *end;
                }
                assert_eq!(expect, len);
                // Near-equal: sizes differ by at most one.
                if let (Some(max), Some(min)) = (
                    bounds.iter().map(|(s, e)| e - s).max(),
                    bounds.iter().map(|(s, e)| e - s).min(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn chunks_see_global_offsets() {
        let mut data = vec![0usize; 13];
        for_each_chunk(&mut data, 4, 4, |offset, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = offset + i;
            }
        });
        let expect: Vec<usize> = (0..13).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn result_is_identical_across_thread_and_shard_counts() {
        let run = |shards: usize, threads: usize| -> Vec<f64> {
            let mut data: Vec<f64> = (0..23).map(|i| f64::from(i) * 0.1).collect();
            for_each_chunk(&mut data, shards, threads, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    let global = offset + i;
                    *v = (*v).sin() + (global as f64).sqrt();
                }
            });
            data
        };
        let reference = run(1, 1);
        for shards in [1, 2, 3, 5, 8, 23, 64] {
            for threads in [1, 2, 4, 8] {
                let got = run(shards, threads);
                for (a, b) in reference.iter().zip(&got) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn worker_panics_propagate_with_payload() {
        let caught = std::panic::catch_unwind(|| {
            let mut data = vec![0u8; 8];
            for_each_chunk(&mut data, 4, 2, |offset, _chunk| {
                if offset >= 4 {
                    panic!("shard exploded");
                }
            });
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "shard exploded");
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let mut data: Vec<u32> = Vec::new();
        for_each_chunk(&mut data, 4, 4, |_, _| panic!("no chunks expected"));
    }
}
