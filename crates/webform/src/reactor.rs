//! A thin, std-only epoll readiness reactor.
//!
//! Both halves of the real wire multiplex on this module: the
//! [`HttpTransport`](crate::httpc::HttpTransport) client blocks in one
//! `epoll_wait` across every pipelined connection instead of a blocking
//! read on the causally-earliest fetch, and the `hdsampler-server` crate
//! runs its connection engine (a resumable per-connection state
//! machine, thread-per-core) over the same wrapper.
//!
//! The wrapper is dependency-free by design: the three `epoll` entry
//! points are declared directly (`std` already links libc on Linux, so no
//! `libc` crate is needed) and the epoll fd is owned through
//! `std::os::fd::OwnedFd`. On non-Linux targets the same API exists but
//! [`Epoll::new`] fails with `Unsupported` and
//! [`reactor_supported`] returns `false` — callers fall back to their
//! blocking paths (the client's deadline-bounded `complete`, the server's
//! blocking connection driver).
//!
//! Level-triggered semantics throughout: an fd reported readable stays
//! reported until drained, so a missed wakeup costs one extra `wait`
//! round, never a lost connection.

use std::io;

#[cfg(unix)]
pub use std::os::fd::RawFd;
/// Raw fd placeholder on targets without `std::os::fd`.
#[cfg(not(unix))]
pub type RawFd = i32;

/// Whether this build has a working readiness reactor (Linux epoll).
pub fn reactor_supported() -> bool {
    cfg!(target_os = "linux")
}

/// What readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Wake when the fd is readable (or hung up).
    Read,
    /// Wake when the fd is writable.
    Write,
    /// Wake on either.
    ReadWrite,
}

/// One readiness event out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct ReadyEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Data (or EOF) can be read without blocking.
    pub readable: bool,
    /// The fd can be written without blocking.
    pub writable: bool,
    /// The peer hung up or the fd is in an error state; the owner should
    /// drain and close.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    /// Mirror of the kernel's `struct epoll_event`. On x86-64 the kernel
    /// ABI packs it (no padding between `events` and `data`); other
    /// architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
}

/// Most events one [`Epoll::wait`] call surfaces; excess readiness is
/// simply reported on the next call (level-triggered).
const MAX_EVENTS: usize = 1024;

/// An epoll instance. All methods take `&self`: the kernel serializes
/// concurrent `epoll_ctl`/`epoll_wait` on one instance, so registration
/// from one thread while another waits is safe without a userspace lock.
#[derive(Debug)]
pub struct Epoll {
    #[cfg(target_os = "linux")]
    fd: std::os::fd::OwnedFd,
}

#[cfg(target_os = "linux")]
impl Epoll {
    /// Create an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall; a negative return is an error, otherwise
        // the fd is fresh and exclusively ours to own.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a live fd we exclusively own (just created).
        Ok(Epoll {
            fd: unsafe { std::os::fd::FromRawFd::from_raw_fd(fd) },
        })
    }

    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: RawFd,
        event: Option<sys::EpollEvent>,
    ) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        let mut event = event;
        let ptr = event
            .as_mut()
            .map_or(std::ptr::null_mut(), |e| e as *mut sys::EpollEvent);
        // SAFETY: `ptr` is null only for EPOLL_CTL_DEL (which ignores it)
        // and otherwise points at a live stack value for the call's
        // duration.
        let rc = unsafe { sys::epoll_ctl(self.fd.as_raw_fd(), op, fd, ptr) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn mask(interest: Interest) -> u32 {
        let base = sys::EPOLLRDHUP;
        match interest {
            Interest::Read => sys::EPOLLIN | base,
            Interest::Write => sys::EPOLLOUT | base,
            Interest::ReadWrite => sys::EPOLLIN | sys::EPOLLOUT | base,
        }
    }

    /// Register `fd` under `token` with the given interest.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_ADD,
            fd,
            Some(sys::EpollEvent {
                events: Self::mask(interest),
                data: token,
            }),
        )
    }

    /// Change an existing registration's token or interest.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_MOD,
            fd,
            Some(sys::EpollEvent {
                events: Self::mask(interest),
                data: token,
            }),
        )
    }

    /// Remove `fd` from the set. Must be called *before* the fd is closed:
    /// the kernel forgets closed fds on its own, but a userspace
    /// registration map that outlives the close can alias a reused fd
    /// number and deregister someone else's live socket.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, None)
    }

    /// Block until readiness or `timeout_ms` (negative blocks forever,
    /// zero polls). Fills `events` (cleared first) and returns the count;
    /// an `EINTR`-interrupted wait reports zero events rather than
    /// erroring.
    pub fn wait(&self, events: &mut Vec<ReadyEvent>, timeout_ms: i32) -> io::Result<usize> {
        use std::os::fd::AsRawFd;
        events.clear();
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        // SAFETY: `raw` outlives the call and `MAX_EVENTS` bounds what the
        // kernel may write.
        let n = unsafe {
            sys::epoll_wait(
                self.fd.as_raw_fd(),
                raw.as_mut_ptr(),
                MAX_EVENTS as std::os::raw::c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for ev in raw.iter().take(n as usize) {
            let bits = ev.events;
            events.push(ReadyEvent {
                token: ev.data,
                readable: bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(events.len())
    }
}

#[cfg(not(target_os = "linux"))]
impl Epoll {
    /// No reactor on this target; callers fall back to blocking paths.
    pub fn new() -> io::Result<Self> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll reactor is Linux-only",
        ))
    }

    /// Unreachable: [`Epoll::new`] never succeeds here.
    pub fn register(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
        unreachable!("no Epoll value exists on non-Linux targets")
    }

    /// Unreachable: [`Epoll::new`] never succeeds here.
    pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
        unreachable!("no Epoll value exists on non-Linux targets")
    }

    /// Unreachable: [`Epoll::new`] never succeeds here.
    pub fn deregister(&self, _fd: RawFd) -> io::Result<()> {
        unreachable!("no Epoll value exists on non-Linux targets")
    }

    /// Unreachable: [`Epoll::new`] never succeeds here.
    pub fn wait(&self, _events: &mut Vec<ReadyEvent>, _timeout_ms: i32) -> io::Result<usize> {
        unreachable!("no Epoll value exists on non-Linux targets")
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readiness_is_level_triggered_and_tokened() {
        let ep = Epoll::new().unwrap();
        let (mut a, b) = pair();
        ep.register(b.as_raw_fd(), 7, Interest::Read).unwrap();

        let mut events = Vec::new();
        // Nothing written yet: a zero-timeout wait reports nothing.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        a.write_all(b"x").unwrap();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: unread data keeps reporting.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 1);

        let mut buf = [0u8; 8];
        let mut b = b;
        assert_eq!(b.read(&mut buf).unwrap(), 1);
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained fd is quiet");
    }

    #[test]
    fn peer_hangup_reports_readable_and_hangup() {
        let ep = Epoll::new().unwrap();
        let (a, b) = pair();
        ep.register(b.as_raw_fd(), 1, Interest::Read).unwrap();
        drop(a);
        let mut events = Vec::new();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        assert!(events[0].readable, "EOF must wake a reader");
        assert!(events[0].hangup);
    }

    #[test]
    fn deregister_silences_an_fd() {
        let ep = Epoll::new().unwrap();
        let (mut a, b) = pair();
        ep.register(b.as_raw_fd(), 1, Interest::Read).unwrap();
        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        ep.deregister(b.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        // Double-deregister errors (ENOENT) instead of corrupting state.
        assert!(ep.deregister(b.as_raw_fd()).is_err());
    }

    #[test]
    fn modify_switches_interest() {
        let ep = Epoll::new().unwrap();
        let (_a, b) = pair();
        // A fresh socket with an empty send buffer is writable, not
        // readable.
        ep.register(b.as_raw_fd(), 3, Interest::Read).unwrap();
        let mut events = Vec::new();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        ep.modify(b.as_raw_fd(), 4, Interest::ReadWrite).unwrap();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token, 4, "modify rebinds the token");
        assert!(events[0].writable);
        assert!(!events[0].hangup);
    }
}
