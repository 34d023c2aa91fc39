//! SIGINT latch without a libc dependency.
//!
//! The handler only flips an `AtomicBool`, which is async-signal-safe;
//! `signal()` installs it with `SA_RESTART`, so a blocked `accept` is not
//! interrupted, and the serve loop's watcher thread polls [`triggered`]
//! to turn the latch into a shutdown. On non-Unix targets
//! the latch exists but never fires (Ctrl-C then terminates the process
//! the default way, and `POST /shutdown` remains available).

use std::sync::atomic::{AtomicBool, Ordering};

static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::*;

    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        SIGINT_SEEN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGINT handler (idempotent).
pub fn install() {
    imp::install();
}

/// Whether SIGINT has been received since [`install`].
pub fn triggered() -> bool {
    SIGINT_SEEN.load(Ordering::SeqCst)
}

/// Raises the latch programmatically (`POST /shutdown` and tests share
/// the graceful path with the signal).
pub fn trigger() {
    SIGINT_SEEN.store(true, Ordering::SeqCst);
}

/// Clears the latch — lets one process host several serve lifetimes
/// (tests).
pub fn reset() {
    SIGINT_SEEN.store(false, Ordering::SeqCst);
}
