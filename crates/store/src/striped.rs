//! The one scoped-thread fan-out of the read path: partition loads in the
//! store and chunk decodes in `mistique-core`'s reader both run through it.

/// Run `f(i, items[i])` for every item on up to `workers` scoped threads
/// with round-robin striding, reassembling results by item index. Each item
/// is moved to the one call that takes it, so items can be disjoint `&mut`
/// slices of one output. The output — including which error is reported
/// when several items fail (the smallest-indexed one) — is identical at
/// every worker count. A worker panic surfaces as the error `panicked`
/// builds, never a process abort.
pub fn run_striped<I, T, E, F>(
    items: Vec<I>,
    workers: usize,
    f: &F,
    panicked: impl FnOnce() -> E,
) -> Result<Vec<T>, E>
where
    I: Send,
    T: Send,
    E: Send,
    F: Fn(usize, I) -> Result<T, E> + Sync,
{
    let n_items = items.len();
    let workers = workers.max(1).min(n_items.max(1));
    if workers <= 1 {
        return (items.into_iter().enumerate())
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let mut stripes: Vec<Vec<(usize, I)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        stripes[i % workers].push((i, item));
    }
    type Striped<T, E> = Vec<Vec<(usize, Result<T, E>)>>;
    let joined: std::thread::Result<Striped<T, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = stripes
            .into_iter()
            .map(|stripe| {
                scope.spawn(move || {
                    (stripe.into_iter())
                        .map(|(i, item)| (i, f(i, item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let per_worker = joined.map_err(|_| panicked())?;
    let mut slots: Vec<Option<Result<T, E>>> = (0..n_items).map(|_| None).collect();
    for (i, res) in per_worker.into_iter().flatten() {
        slots[i] = Some(res);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("striding covers every item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panicked() -> String {
        "worker panicked".to_string()
    }

    #[test]
    fn run_striped_reassembles_identically_at_every_worker_count() {
        // 13 items (not divisible by 2 or 4): every worker count must yield
        // the same in-order output.
        let f = |i: usize, x: u64| -> Result<u64, String> { Ok((i as u64) * 31 + x) };
        let items = || (0..13u64).map(|i| i * i).collect::<Vec<_>>();
        let serial = run_striped(items(), 1, &f, panicked).unwrap();
        for workers in [2usize, 4, 8] {
            assert_eq!(
                run_striped(items(), workers, &f, panicked).unwrap(),
                serial,
                "workers={workers}"
            );
        }
        // Zero items is an empty result, not an error.
        assert!(run_striped(Vec::new(), 4, &f, panicked).unwrap().is_empty());
    }

    #[test]
    fn run_striped_reports_the_smallest_indexed_error() {
        // Items 2, 5 and 9 fail; every schedule must deterministically
        // surface item 2's error.
        let f = |i: usize, (): ()| -> Result<usize, String> {
            if i == 2 || i == 5 || i == 9 {
                Err(format!("item {i} failed"))
            } else {
                Ok(i)
            }
        };
        for workers in [1usize, 2, 4] {
            assert_eq!(
                run_striped(vec![(); 12], workers, &f, panicked),
                Err("item 2 failed".to_string()),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn run_striped_worker_panic_is_an_error_not_an_abort() {
        // A panic that escapes the per-item closure must come back as an
        // error from the join, not unwind through the scope into an abort.
        let f = |i: usize, (): ()| -> Result<usize, String> {
            if i == 3 {
                panic!("boom in worker");
            }
            Ok(i)
        };
        assert_eq!(run_striped(vec![(); 8], 4, &f, panicked), Err(panicked()));
    }
}
