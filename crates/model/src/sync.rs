//! `dla_sync`: the workspace's single point of entry for concurrency
//! primitives (the facade the `dla-lint` `sync-facade` rule enforces).
//!
//! Serving-path code (`dla-predict`'s `service.rs`, `fleet.rs`, `health.rs`
//! and `router.rs`) imports *all* of its atomics and locks from here instead
//! of `std::sync`.  That buys two things:
//!
//! * **Model checking.**  Under `--cfg interleave` (set via `RUSTFLAGS` by
//!   the `interleave` CI job) the atomics and locks become the shim types of
//!   the vendored [`interleave`] model checker, so the concurrency tests in
//!   `dla-predict`'s `tests/interleave_service.rs` and
//!   `tests/interleave_fleet.rs` exhaustively explore the interleavings —
//!   and the weak-memory store visibilities — of the real serving code, not
//!   of a transliteration that could drift.
//!
//! * **A single poison policy.**  The lock wrappers do not expose
//!   [`std::sync::PoisonError`]: `read`/`write`/`lock` return guards
//!   directly, recovering the inner value if a previous holder panicked.
//!   Recovery is sound for every lock routed through here because no critical
//!   section leaves data torn: the service's published generation and the
//!   fleet's last-good slot are only ever *replaced* as a whole `Arc` (a
//!   panic can abandon the replacement, never half-apply it).  Without this
//!   policy, a panicking background rebuild could poison the service's lock
//!   and take the whole serving tier down with `PoisonError` unwraps on
//!   every later query —
//!   degrading to "serve what we have" is strictly better.
//!
//! [`Arc`] is deliberately `std::sync::Arc` under **both** cfgs: it appears
//! in public signatures (`Arc<ModelRepository>` snapshots,
//! `Arc<CompiledRepository>` handles), so shimming it would fork the public
//! API by cfg.  The checker still explores handle lifetimes: clones/drops of
//! `std` `Arc`s are data-race-free by construction, and the counter-lifetime
//! invariant is asserted on `strong_count` in the model tests.

/// Atomic integer/bool types plus [`atomic::Ordering`], mirroring the
/// `std::sync::atomic` module shape.
pub mod atomic {
    #[cfg(interleave)]
    pub use interleave::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    #[cfg(not(interleave))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

pub use std::sync::Arc;

#[cfg(interleave)]
pub use interleave::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(interleave))]
mod std_locks {
    use std::sync::PoisonError;

    /// Non-poisoning wrapper over [`std::sync::RwLock`]; see the module docs
    /// for why recovery is the right policy on these locks.
    pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

    /// Shared-access guard returned by [`RwLock::read`].
    pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
    /// Exclusive-access guard returned by [`RwLock::write`].
    pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

    impl<T> RwLock<T> {
        /// Creates a new lock holding `value`.
        pub fn new(value: T) -> RwLock<T> {
            RwLock(std::sync::RwLock::new(value))
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Acquires shared read access, recovering from poison.
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            self.0.read().unwrap_or_else(PoisonError::into_inner)
        }

        /// Acquires exclusive write access, recovering from poison.
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            self.0.write().unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T: Default> Default for RwLock<T> {
        fn default() -> RwLock<T> {
            RwLock::new(T::default())
        }
    }

    impl<T: ?Sized> std::fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("RwLock(..)")
        }
    }

    /// Non-poisoning wrapper over [`std::sync::Mutex`]; see the module docs
    /// for why recovery is the right policy on these locks.
    pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

    /// Guard returned by [`Mutex::lock`].
    pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

    impl<T> Mutex<T> {
        /// Creates a new mutex holding `value`.
        pub fn new(value: T) -> Mutex<T> {
            Mutex(std::sync::Mutex::new(value))
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the mutex, recovering from poison.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Mutex<T> {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Mutex(..)")
        }
    }
}

#[cfg(not(interleave))]
pub use std_locks::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(test)]
mod tests {
    use super::atomic::{AtomicU64, Ordering};
    use super::{Mutex, RwLock};

    #[test]
    fn facade_types_behave_like_std() {
        let a = AtomicU64::new(1);
        assert_eq!(a.fetch_add(2, Ordering::Relaxed), 1);
        assert_eq!(a.load(Ordering::Relaxed), 3);

        let l = RwLock::new(5u64);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);

        let m = Mutex::new(7u64);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 8);
    }

    /// The poison policy: a panicking holder must not take the lock (or the
    /// serving tier above it) down with it.
    #[cfg(not(interleave))]
    #[test]
    fn poisoned_locks_recover() {
        use super::Arc;

        let l = Arc::new(RwLock::new(1u64));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*l.read(), 1, "read after poison still serves");
        *l.write() = 2;
        assert_eq!(*l.read(), 2);

        let m = Arc::new(Mutex::new(1u64));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }
}
