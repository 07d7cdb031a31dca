//! Offline stand-in for `crossbeam`: only `thread::scope`, the one item the
//! engine uses, implemented over `std::thread::scope` (same join-on-exit
//! semantics, same thread-per-spawn cost).

pub mod thread {
    /// Handle passed to the scope closure and to every spawned closure.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Join handle of one scoped thread.
    pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

    impl<T> ScopedJoinHandle<'_, T> {
        /// Wait for the thread; `Err` carries its panic payload.
        pub fn join(self) -> std::thread::Result<T> {
            self.0.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread that may borrow from the enclosing scope.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle(inner.spawn(move || f(&Scope { inner })))
        }
    }

    /// Run `f` with a scope whose threads are all joined before returning.
    /// Every caller in the engine joins its own handles, so the `Err` arm
    /// of crossbeam's signature (an unjoined thread panicked) cannot occur.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}
