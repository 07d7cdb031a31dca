//! The one scoped-thread fan-out of the read path: partition loads in the
//! store and chunk decodes in `mistique-core`'s reader both run through it.

/// Run `f(0..n_items)` on up to `workers` scoped threads with round-robin
/// striding, reassembling results by item index. The output — including
/// which error is reported when several items fail (the smallest-indexed
/// one) — is identical at every worker count. A worker panic surfaces as
/// the error `panicked` builds, never a process abort.
pub fn run_striped<T, E, F>(
    n_items: usize,
    workers: usize,
    f: &F,
    panicked: impl FnOnce() -> E,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let workers = workers.max(1).min(n_items.max(1));
    if workers <= 1 {
        return (0..n_items).map(f).collect();
    }
    type Striped<T, E> = Vec<Vec<(usize, Result<T, E>)>>;
    let joined: std::thread::Result<Striped<T, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut part = Vec::new();
                    let mut i = w;
                    while i < n_items {
                        part.push((i, f(i)));
                        i += workers;
                    }
                    part
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
        let f = |i: usize| -> Result<u64, String> { Ok((i as u64) * 31 + 7) };
        let serial = run_striped(13, 1, &f, panicked).unwrap();
        for workers in [2usize, 4, 8] {
            assert_eq!(
                run_striped(13, workers, &f, panicked).unwrap(),
                serial,
                "workers={workers}"
            );
        }
        // Zero items is an empty result, not an error.
        assert!(run_striped(0, 4, &f, panicked).unwrap().is_empty());
    }

    #[test]
    fn run_striped_reports_the_smallest_indexed_error() {
        // Items 2, 5 and 9 fail; every schedule must deterministically
        // surface item 2's error.
        let f = |i: usize| -> Result<usize, String> {
            if i == 2 || i == 5 || i == 9 {
                Err(format!("item {i} failed"))
            } else {
                Ok(i)
            }
        };
        for workers in [1usize, 2, 4] {
            assert_eq!(
                run_striped(12, workers, &f, panicked),
                Err("item 2 failed".to_string()),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn run_striped_worker_panic_is_an_error_not_an_abort() {
        // A panic that escapes the per-item closure must come back as an
        // error from the join, not unwind through the scope into an abort.
        let f = |i: usize| -> Result<usize, String> {
            if i == 3 {
                panic!("boom in worker");
            }
            Ok(i)
        };
        assert_eq!(run_striped(8, 4, &f, panicked), Err(panicked()));
    }
}
