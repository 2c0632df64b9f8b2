//! SIGTERM/SIGINT → a process-global shutdown flag and a woken accept
//! loop. `signal(2)` and `shutdown(2)` are declared by hand (no libc
//! crate), and this is the one module of the workspace with `unsafe`.
//!
//! The handler stores into an `AtomicBool`, then calls
//! `shutdown(fd, SHUT_RD)` on the listening socket registered at
//! [`install`]. Both are async-signal-safe: the store takes no lock and
//! allocates nothing, and POSIX lists `shutdown` among the calls a
//! handler may make. A listening socket shut for reading fails a
//! blocked `accept` at once, and every later one, so the daemon notices
//! a signal without a timer. `EINTR` would not do: glibc's `signal()`
//! installs handlers with `SA_RESTART`, so an interrupted `accept` just
//! resumes. A [`ShutdownHandle`](crate::ShutdownHandle) wakes its own
//! server through the same [`wake`].

use std::sync::atomic::{AtomicBool, Ordering};

use crate::Server;

pub(crate) use sys::{forget, wake};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown signal has been received (or [`request_shutdown`]
/// called).
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// What the handler does, by hand: sets the flag and wakes the
/// listener registered at [`install`], if any.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
    sys::wake_registered();
}

/// Clears the flag (a real daemon shuts down once).
#[cfg(test)]
fn reset_for_testing() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

/// Installs the handler for SIGINT and SIGTERM and registers `server`'s
/// listening socket as the one it wakes. Off Unix nothing is installed.
pub fn install(server: &Server) {
    sys::install(server.listener());
}

#[cfg(unix)]
mod sys {
    #![allow(unsafe_code)]

    use std::net::TcpListener;
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicI32, Ordering};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const SHUT_RD: i32 = 0;

    /// The listening socket the handler wakes; `-1` for none.
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn shutdown(fd: i32, how: i32) -> i32;
    }

    extern "C" fn on_signal(_signum: i32) {
        super::request_shutdown();
    }

    pub fn install(listener: &TcpListener) {
        WAKE_FD.store(listener.as_raw_fd(), Ordering::SeqCst);
        // SAFETY: `signal` is the POSIX libc symbol (always linked by
        // std on Unix); the handler performs an atomic store and a
        // `shutdown` call, both async-signal-safe per POSIX.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    /// Deregisters `listener` if [`install`] registered it. Called
    /// before it can close, so a late signal cannot shut down whatever
    /// socket reuses the descriptor.
    pub fn forget(listener: &TcpListener) {
        let fd = listener.as_raw_fd();
        let _ = WAKE_FD.compare_exchange(fd, -1, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Makes a blocked `accept` on `listener` return, and every later
    /// one fail.
    pub fn wake(listener: &TcpListener) {
        shut(listener.as_raw_fd());
    }

    pub fn wake_registered() {
        shut(WAKE_FD.load(Ordering::SeqCst));
    }

    fn shut(fd: i32) {
        if fd >= 0 {
            // SAFETY: `shutdown` only changes the state of the socket
            // behind `fd`, which is open: `wake` borrows it, and the
            // registered one is forgotten before it closes. An error
            // (already shut) needs no handling.
            unsafe {
                shutdown(fd, SHUT_RD);
            }
        }
    }
}

/// Off Unix there are no handlers, and a connection is what ends a
/// blocked `accept`.
#[cfg(not(unix))]
mod sys {
    use std::net::{TcpListener, TcpStream};

    pub fn install(_: &TcpListener) {}
    pub fn forget(_: &TcpListener) {}
    pub fn wake_registered() {}
    pub fn wake(listener: &TcpListener) {
        if let Ok(addr) = listener.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trips() {
        reset_for_testing();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        reset_for_testing();
        assert!(!shutdown_requested());
    }
}
