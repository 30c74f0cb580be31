//! Test-of-the-tool: prove the `interleave` checker actually catches the
//! bug class the ordering audit guards against.
//!
//! The classic lock-free publish protocol installs a new value and then
//! bumps a generation tag with `Ordering::Release`, pairing with an
//! `Acquire` load of the tag.  Here we model that protocol on bare atomics,
//! *seed the exact weakening a careless refactor could introduce* —
//! demoting the generation store to `Relaxed` — and assert the checker
//! reports a violation, while the `Release` protocol verifies clean and
//! exhaustively.  (The serving layer itself publishes each generation as one
//! `Arc` under a lock, which the model suites in `dla-predict` check.)
//!
//! Unlike the `#![cfg(interleave)]` model suites, this file compiles under
//! the normal cfg, so tier-1 `cargo test` re-validates the tool itself on
//! every run.

use interleave::sync::atomic::{AtomicU64, Ordering};
use interleave::sync::Arc;
use interleave::{Outcome, ViolationKind};

/// The publish protocol on bare atomics: install the repository slot, then
/// publish the generation tag with `publish` ordering.  The reader's
/// contract: observing tag 1 must imply seeing the repository installed
/// before the bump.
fn check_generation_publish(publish: Ordering) -> Outcome {
    interleave::check(move || {
        // Stands in for the compiled-repository slot (0 = seed, 42 = new).
        let repository = Arc::new(AtomicU64::new(0));
        let generation = Arc::new(AtomicU64::new(0));
        let (repo2, gen2) = (Arc::clone(&repository), Arc::clone(&generation));
        let swapper = interleave::thread::spawn(move || {
            repo2.store(42, Ordering::Relaxed);
            gen2.store(1, publish);
        });
        if generation.load(Ordering::Acquire) == 1 {
            assert_eq!(
                repository.load(Ordering::Relaxed),
                42,
                "observed the new generation tag without its repository"
            );
        }
        swapper.join().unwrap();
    })
}

/// The seeded weakening: a `Relaxed` generation publish lets a reader see
/// the new tag before the repository it names — and the checker must find
/// that interleaving-plus-visibility rather than rubber-stamp it.
#[test]
fn relaxed_generation_publish_is_caught() {
    let outcome = check_generation_publish(Ordering::Relaxed);
    let violation = outcome
        .violation
        .expect("the checker must catch the torn publish under Relaxed");
    assert_eq!(violation.kind, ViolationKind::Panic);
    assert!(
        violation.message.contains("without its repository"),
        "unexpected violation: {}",
        violation.message
    );
}

/// The real protocol: a `Release` publish paired with the `Acquire` read is
/// clean across the *entire* explored space (no truncation).
#[test]
fn release_generation_publish_is_exhaustively_clean() {
    let outcome = check_generation_publish(Ordering::Release);
    assert!(
        outcome.violation.is_none(),
        "release publish must be race-free: {:?}",
        outcome.violation
    );
    assert!(!outcome.truncated, "exploration must be exhaustive");
    assert!(
        outcome.executions > 1,
        "more than one interleaving explored"
    );
}
