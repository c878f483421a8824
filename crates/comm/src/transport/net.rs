//! Socket-family abstraction for the process backend: every connection
//! is either a Unix-domain socket (single-machine default) or a TCP
//! socket (multi-node mode, selected by a [`HostFile`]). The frame
//! codec ([`super::wire`]) and the reliability machinery in
//! [`super::proc`] are written against [`Stream`]/[`Listener`] and
//! never see which family is underneath.
//!
//! Also home to the small pieces the whole transport shares:
//!
//! * [`lock_or_recover`] — poison-tolerant mutex acquisition. A rank
//!   process runs sibling threads (acceptor, monitor, a redial);
//!   if one panics mid-critical-section the rest must degrade into the
//!   structured error path (peer death, watchdog timeout) instead of
//!   cascading poisoned-mutex panics.
//! * [`Backoff`] — capped exponential backoff with deterministic
//!   jitter (a pure function of the seed), used by every
//!   connection-establishment retry loop: rendezvous dial, mesh dial,
//!   and dialer-side reconnect.
//! * The two blocking waits the transport and the supervisor use instead
//!   of sleep-polling: [`poll_ready`] (`poll(2)` over sockets and
//!   listeners, for input or for room to write) and [`wait_child_exit`]
//!   (a non-reaping `waitid(2)` for the supervisor's per-child exit
//!   waiters).

use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Duration;

/// Acquires `m`, recovering the guard if a sibling thread panicked
/// while holding it. The protected state is counters / connection
/// bookkeeping whose invariants hold between individual field writes,
/// so continuing with the inner value is safe — and the panicking
/// thread's failure still surfaces through the structured path (its
/// own unwind, peer-death records, or the watchdog).
pub(crate) fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// [`lock_or_recover`] without waiting: `None` while another thread
/// holds `m`.
pub(crate) fn try_lock_or_recover<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

// ---- splitmix64 -----------------------------------------------------------

/// One step of splitmix64 — the deterministic bit mixer behind backoff
/// jitter and the chaos interposer's per-link randomness. Pure function
/// of its input, so identical seeds replay identical schedules.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---- Backoff --------------------------------------------------------------

/// Capped exponential backoff with ±50% deterministic jitter. Each call
/// to [`Backoff::next`] returns the current jittered delay and doubles
/// the base (up to the cap). Jitter is a pure function of
/// `(seed, attempt)` so retry schedules replay exactly under a fixed
/// seed — the property the chaos soak tests lean on.
pub(crate) struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    seed: u64,
    attempt: u64,
}

impl Backoff {
    pub(crate) fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Self {
        Backoff {
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
            seed,
            attempt: 0,
        }
    }

    /// The next delay: `min(base · 2^attempt, cap)` scaled by a
    /// deterministic factor in `[0.5, 1.5)`.
    pub(crate) fn next(&mut self) -> Duration {
        let exp = self.attempt.min(20);
        let raw = self.base_ms.saturating_mul(1u64 << exp).min(self.cap_ms);
        let r = splitmix64(self.seed.wrapping_add(self.attempt));
        self.attempt += 1;
        // Map the top 10 bits onto [0.5, 1.5).
        let frac = 0.5 + (r >> 54) as f64 / 1024.0;
        Duration::from_micros(((raw * 1000) as f64 * frac) as u64)
    }
}

// ---- HostFile -------------------------------------------------------------

/// Parsed hostfile: one line per rank, `host[:port]`, `#` comments and
/// blank lines ignored. Line order assigns ranks. Rank 0's line **must**
/// carry a port — that is the rendezvous endpoint every other rank
/// dials. Other lines may pin their mesh-listener port; without one the
/// kernel assigns an ephemeral port, which the rendezvous ADDRBOOK then
/// publishes (so only rank 0's port needs coordinating up front).
///
/// ```text
/// # hosts.txt — 4 ranks, two machines
/// 10.0.0.1:7700   # rank 0 (rendezvous port 7700)
/// 10.0.0.1
/// 10.0.0.2:7710   # pinned mesh port (e.g. for a firewall hole)
/// 10.0.0.2
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostFile {
    entries: Vec<(String, Option<u16>)>,
}

impl HostFile {
    /// Parses hostfile text. Errors name the offending line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (host, port) = match line.rsplit_once(':') {
                Some((h, p)) => {
                    let port = p
                        .parse::<u16>()
                        .map_err(|_| format!("hostfile line {}: bad port {p:?}", lineno + 1))?;
                    (h, Some(port))
                }
                None => (line, None),
            };
            if host.is_empty() {
                return Err(format!("hostfile line {}: empty host", lineno + 1));
            }
            entries.push((host.to_string(), port));
        }
        if entries.is_empty() {
            return Err("hostfile has no host lines".to_string());
        }
        if entries[0].1.is_none() {
            return Err(
                "hostfile line for rank 0 must carry a port (the rendezvous endpoint)".to_string(),
            );
        }
        Ok(HostFile { entries })
    }

    /// Loads and parses a hostfile from disk.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Number of ranks (one per host line).
    pub fn p(&self) -> usize {
        self.entries.len()
    }

    /// The host for `rank`.
    pub fn host(&self, rank: usize) -> &str {
        &self.entries[rank].0
    }

    /// The pinned port for `rank` (0 = let the kernel choose).
    pub fn port(&self, rank: usize) -> u16 {
        self.entries[rank].1.unwrap_or(0)
    }

    /// `host:port` of the rank-0 rendezvous listener.
    pub fn rendezvous_addr(&self) -> String {
        format!("{}:{}", self.entries[0].0, self.entries[0].1.unwrap_or(0))
    }

    /// True when every host is a loopback name — the single-machine
    /// simulation CI runs: all ranks spawn locally and span the mesh
    /// over `127.0.0.1` ports.
    pub fn all_loopback(&self) -> bool {
        self.entries
            .iter()
            .all(|(h, _)| h == "localhost" || h == "::1" || h.starts_with("127."))
    }
}

impl fmt::Display for HostFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (host, port) in &self.entries {
            match port {
                Some(p) => writeln!(f, "{host}:{p}")?,
                None => writeln!(f, "{host}")?,
            }
        }
        Ok(())
    }
}

// ---- Stream / Listener ----------------------------------------------------

/// One connected socket of either family. The reliability layer holds
/// these behind the same `Option<Stream>` slot it used to hold a
/// `UnixStream` in, and the frame codec reads/writes them through the
/// blanket [`Read`]/[`Write`] impls below.
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// Dials `addr`: a filesystem path (Unix) or `host:port` (TCP).
    /// Address-book strings are self-describing — socket paths always
    /// contain `/`, TCP addresses never do.
    pub(crate) fn connect(addr: &str) -> io::Result<Stream> {
        if addr.contains('/') {
            let s = UnixStream::connect(addr)?;
            fix_send_buffer(&s)?;
            Ok(Stream::Unix(s))
        } else {
            let s = TcpStream::connect(addr)?;
            // Frames are latency-sensitive (heartbeats, ACKs): never
            // let Nagle hold a flushed frame back.
            s.set_nodelay(true)?;
            Ok(Stream::Tcp(s))
        }
    }

    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    pub(crate) fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(how),
            Stream::Tcp(s) => s.shutdown(how),
        }
    }

    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    pub(crate) fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(nb),
            Stream::Tcp(s) => s.set_nonblocking(nb),
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write_vectored(bufs),
            Stream::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Sockets support reads/writes through shared references (the OS
/// serializes them); mirror the std `impl Read for &UnixStream` pattern
/// so held rendezvous streams can be polled without a mutable borrow.
impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match *self {
            Stream::Unix(s) => (&mut &*s).read(buf),
            Stream::Tcp(s) => (&mut &*s).read(buf),
        }
    }
}

impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match *self {
            Stream::Unix(s) => (&mut &*s).write(buf),
            Stream::Tcp(s) => (&mut &*s).write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match *self {
            Stream::Unix(s) => (&mut &*s).write_vectored(bufs),
            Stream::Tcp(s) => (&mut &*s).write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match *self {
            Stream::Unix(s) => (&mut &*s).flush(),
            Stream::Tcp(s) => (&mut &*s).flush(),
        }
    }
}

/// A bound listening socket of either family.
pub(crate) enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Binds a Unix listener at `path` (removing a stale socket file).
    pub(crate) fn bind_unix(path: &str) -> io::Result<Listener> {
        let _ = std::fs::remove_file(path);
        Ok(Listener::Unix(UnixListener::bind(path)?))
    }

    /// Binds a TCP listener on `host:port` (`port` 0 = ephemeral).
    ///
    /// Bound with `SO_REUSEADDR` where possible: a restarted generation
    /// must re-bind its pinned rendezvous/mesh port *immediately*, even
    /// while connections from the killed generation linger in
    /// TIME_WAIT — std's `TcpListener::bind` never sets the option, and
    /// a checkpoint-restart cannot wait out the quarantine.
    pub(crate) fn bind_tcp(host: &str, port: u16) -> io::Result<Listener> {
        use std::net::ToSocketAddrs;
        let mut last_err = None;
        for addr in (host, port).to_socket_addrs()? {
            match reuseaddr_bind(&addr).unwrap_or_else(|| TcpListener::bind(addr)) {
                Ok(l) => return Ok(Listener::Tcp(l)),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{host}:{port} resolved to no addresses"),
            )
        }))
    }

    /// The address peers should dial: the bind path (Unix) or
    /// `host:port` with the kernel-assigned port resolved (TCP).
    /// `advertise_host` replaces a wildcard/local bind host with the
    /// name peers reach us by.
    pub(crate) fn advertised_addr(&self, advertise_host: &str) -> io::Result<String> {
        match self {
            Listener::Unix(_) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "unix listeners advertise their bind path",
            )),
            Listener::Tcp(l) => {
                let port = l.local_addr()?.port();
                Ok(format!("{advertise_host}:{port}"))
            }
        }
    }

    pub(crate) fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                fix_send_buffer(&s)?;
                Ok(Stream::Unix(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
        }
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }
}

/// What a descriptor is waited on for in [`poll_ready`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ready {
    /// Bytes, a pending connection, EOF or an error: a read or accept
    /// will not block.
    Read,
    /// Room in the send buffer, or an error: a write will not block.
    Write,
}

/// Blocks until at least one descriptor of `set` is ready for what it is
/// waited on for, or until `timeout` passes. Returns one flag per entry:
/// all `false` on a timeout, or when a signal cut the wait short (callers
/// wait again against their own deadline).
pub(crate) fn poll_ready(set: &[(RawFd, Ready)], timeout: Duration) -> io::Result<Vec<bool>> {
    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;

    let mut set: Vec<PollFd> = set
        .iter()
        .map(|&(fd, ready)| PollFd {
            fd,
            events: if ready == Ready::Read {
                POLLIN
            } else {
                POLLOUT
            },
            revents: 0,
        })
        .collect();
    // Rounded up: a sub-millisecond remainder must wait, not spin.
    let ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
    // SAFETY: `set` is an exclusively borrowed, initialised array of
    // `set.len()` `repr(C)` mirrors of `struct pollfd`; `poll` reads and
    // writes only those entries and keeps no pointer after it returns.
    let n = unsafe { poll(set.as_mut_ptr(), set.len() as NFds, ms) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    // Any returned event (the one asked for, POLLHUP, POLLERR, POLLNVAL)
    // means the next read, accept or write returns at once.
    Ok(set.iter().map(|p| n > 0 && p.revents != 0).collect())
}

/// Blocks until child process `pid` has exited, **without reaping it**:
/// `waitid(P_PID, pid, WEXITED | WNOWAIT)` leaves the zombie and its
/// status to the `Child` that owns them, whose `try_wait`/`wait` reap
/// as before. A process supervisor can therefore give each child a
/// thread that wakes it on the exit, while it alone reaps and signals.
///
/// `Err` means `pid` is not, or no longer, a waitable child of this
/// process — for example its owner already reaped it — and comes back
/// at once. Linux, Android, macOS and iOS; elsewhere every call is an
/// `Unsupported` error.
pub fn wait_child_exit(pid: u32) -> io::Result<()> {
    #[cfg(any(
        target_os = "linux",
        target_os = "android",
        target_os = "macos",
        target_os = "ios"
    ))]
    {
        extern "C" {
            fn waitid(idtype: i32, id: u32, infop: *mut u64, options: i32) -> i32;
        }
        const P_PID: i32 = 1;
        const WEXITED: i32 = 4;
        #[cfg(any(target_os = "linux", target_os = "android"))]
        const WNOWAIT: i32 = 0x0100_0000;
        #[cfg(any(target_os = "macos", target_os = "ios"))]
        const WNOWAIT: i32 = 0x20;
        // Room for a `siginfo_t`: 128 bytes on Linux, 104 on Apple
        // targets, 8-aligned on both.
        let mut info = [0u64; 16];
        loop {
            // SAFETY: `info` is 128 writable, 8-aligned bytes, at least
            // one `siginfo_t`, which is all `waitid` writes; it keeps no
            // pointer after it returns. `WNOWAIT` makes the call
            // read-only with respect to the child: nothing is reaped.
            if unsafe { waitid(P_PID, pid, info.as_mut_ptr(), WEXITED | WNOWAIT) } == 0 {
                return Ok(());
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
    #[cfg(not(any(
        target_os = "linux",
        target_os = "android",
        target_os = "macos",
        target_os = "ios"
    )))]
    {
        let _ = pid;
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "non-reaping waitid is not wired up for this target",
        ))
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}
#[cfg(target_os = "linux")]
const SOL_SOCKET: i32 = 1;
#[cfg(target_os = "linux")]
const SO_SNDBUF: i32 = 7;

/// The send buffer every Unix-domain rank socket asks for, in bytes.
/// A rank's one thread alternates writing and reading, so each `poll`
/// round hands its peer one buffer's worth: the 208 KiB default leaves
/// both ranks idling on each other under a flood. TCP sockets keep
/// autotuning, which a fixed `SO_SNDBUF` would switch off.
const UNIX_SNDBUF: i32 = 4 << 20;

/// Sets [`UNIX_SNDBUF`] on a Unix-domain socket. The kernel caps the
/// request at `net.core.wmem_max` (and doubles it for its own
/// bookkeeping). Linux only; elsewhere the default stays.
fn fix_send_buffer(s: &UnixStream) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `s` owns a live descriptor for the whole call, and
        // `setsockopt` reads 4 bytes from `&UNIX_SNDBUF`, an `i32`, and
        // keeps no pointer after it returns.
        if unsafe { setsockopt(s.as_raw_fd(), SOL_SOCKET, SO_SNDBUF, &UNIX_SNDBUF, 4) } < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = s;
    Ok(())
}

/// `SO_REUSEADDR` bind, raw-syscall edition: stable std exposes no
/// socket builder, so the option must be set between `socket()` and
/// `bind()` by hand. Linux + IPv4 only — `None` means "no special path
/// here, fall back to `TcpListener::bind`".
#[cfg(target_os = "linux")]
fn reuseaddr_bind(addr: &std::net::SocketAddr) -> Option<io::Result<TcpListener>> {
    use std::os::fd::FromRawFd;

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    /// `struct sockaddr_in` (port and address in network byte order).
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port_be: u16,
        addr_be: u32,
        zero: [u8; 8],
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0o200_0000;
    const SO_REUSEADDR: i32 = 2;

    let std::net::SocketAddr::V4(v4) = addr else {
        return None;
    };
    let sa = SockaddrIn {
        family: AF_INET as u16,
        port_be: v4.port().to_be(),
        addr_be: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    // SAFETY: plain syscalls on a descriptor this function owns. `socket`
    // returns a fresh fd or a negative error, checked before use.
    // `setsockopt` reads 4 bytes from `&one`, an `i32`; `bind` reads
    // `size_of::<SockaddrIn>()` bytes from `&sa`, a `repr(C)` mirror of
    // `sockaddr_in`. On failure the fd is closed once and dropped; on
    // success `from_raw_fd` takes sole ownership of it.
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Some(Err(io::Error::last_os_error()));
        }
        let one: i32 = 1;
        if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) < 0
            || bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) < 0
            || listen(fd, 128) < 0
        {
            let e = io::Error::last_os_error();
            close(fd);
            return Some(Err(e));
        }
        Some(Ok(TcpListener::from_raw_fd(fd)))
    }
}

#[cfg(not(target_os = "linux"))]
fn reuseaddr_bind(_addr: &std::net::SocketAddr) -> Option<io::Result<TcpListener>> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostfile_parses_ports_comments_and_blanks() {
        let hf = HostFile::parse(
            "# cluster\n10.0.0.1:7700  # rank 0\n10.0.0.1\n\n10.0.0.2:7710\n10.0.0.2\n",
        )
        .unwrap();
        assert_eq!(hf.p(), 4);
        assert_eq!(hf.rendezvous_addr(), "10.0.0.1:7700");
        assert_eq!(hf.host(2), "10.0.0.2");
        assert_eq!(hf.port(1), 0);
        assert_eq!(hf.port(2), 7710);
        assert!(!hf.all_loopback());
    }

    #[test]
    fn tcp_rebind_survives_time_wait_from_a_dead_generation() {
        let l = Listener::bind_tcp("127.0.0.1", 0).expect("first bind");
        let addr = l.advertised_addr("127.0.0.1").expect("addr");
        let port: u16 = addr.rsplit(':').next().unwrap().parse().unwrap();
        let client = Stream::connect(&addr).expect("dial");
        let server = l.accept().expect("accept");
        // The accepted socket shares the pinned local port. Closing it
        // from the server side first parks it in TIME_WAIT — exactly
        // the state a killed generation leaves behind — which makes a
        // plain `TcpListener::bind` of the same port EADDRINUSE.
        let _ = server.shutdown(Shutdown::Both);
        drop(server);
        drop(l);
        drop(client);
        let again = Listener::bind_tcp("127.0.0.1", port);
        assert!(
            again.is_ok(),
            "rebinding the pinned port must not fail: {:?}",
            again.err()
        );
    }

    #[test]
    fn hostfile_loopback_detection() {
        let hf = HostFile::parse("127.0.0.1:7700\nlocalhost\n127.0.0.2\n").unwrap();
        assert!(hf.all_loopback());
    }

    #[test]
    fn hostfile_rejects_bad_input() {
        assert!(HostFile::parse("").is_err(), "empty");
        assert!(HostFile::parse("# only comments\n").is_err(), "no hosts");
        assert!(
            HostFile::parse("10.0.0.1\n10.0.0.2\n").is_err(),
            "rank 0 must have a port"
        );
        assert!(HostFile::parse("10.0.0.1:notaport\n").is_err(), "bad port");
        assert!(HostFile::parse(":7700\n").is_err(), "empty host");
    }

    /// Every prefix and every single-byte mutation of a valid hostfile
    /// parses to `Ok` or `Err`; none panics, none yields more ranks than
    /// the text has lines, and whatever parses survives its own
    /// `Display`.
    #[test]
    fn mutated_hostfiles_never_panic() {
        let text = "# cluster\n10.0.0.1:7700  # rank 0\n10.0.0.1\n\n[::1]:7710\nlocalhost\n";
        let bytes = text.as_bytes();
        let check = |bytes: &[u8]| {
            // `parse` takes text: bytes that are not UTF-8 never reach it.
            let Ok(text) = std::str::from_utf8(bytes) else {
                return;
            };
            if let Ok(hf) = HostFile::parse(text) {
                assert!(hf.p() <= text.lines().count(), "{text:?}");
                assert_eq!(HostFile::parse(&hf.to_string()).as_ref(), Ok(&hf));
            }
        };
        assert_eq!(HostFile::parse(text).unwrap().p(), 4);
        for cut in 0..=bytes.len() {
            check(&bytes[..cut]);
        }
        for at in 0..bytes.len() {
            for flip in [0x01, 0x08, 0x10, 0x20, 0x80] {
                let mut m = bytes.to_vec();
                m[at] ^= flip;
                check(&m);
            }
            for put in [b':', b'#', b'\n', b' ', b'9', 0xff] {
                let mut m = bytes.to_vec();
                m[at] = put;
                check(&m);
            }
        }
    }

    /// The exit wait leaves the status to the `Child`: after it returns,
    /// `try_wait` still reaps the real exit code. Once reaped, the pid is
    /// no child of ours and the wait fails at once instead of blocking.
    #[test]
    fn waiting_for_a_child_exit_does_not_reap_it() {
        let mut child = std::process::Command::new("sh")
            .args(["-c", "exit 7"])
            .spawn()
            .expect("spawn sh");
        wait_child_exit(child.id()).expect("a live child is waitable");
        let status = child.try_wait().expect("try_wait").expect("exited");
        assert_eq!(status.code(), Some(7), "the wait must not reap");
        let t0 = std::time::Instant::now();
        assert!(wait_child_exit(child.id()).is_err(), "reaped pid");
        assert!(t0.elapsed() < Duration::from_secs(5), "must not block");
    }

    #[test]
    fn poll_wakes_on_bytes_and_eof_and_times_out_on_silence() {
        let (a, b) = UnixStream::pair().unwrap();
        let (a, b) = (Stream::Unix(a), Stream::Unix(b));
        let fds = [a.as_raw_fd(), b.as_raw_fd()];
        let poll_readable = |fds: &[RawFd], timeout| {
            let set: Vec<_> = fds.iter().map(|&fd| (fd, Ready::Read)).collect();
            poll_ready(&set, timeout)
        };
        let t0 = std::time::Instant::now();
        let quiet = poll_readable(&fds, Duration::from_millis(30)).unwrap();
        assert_eq!(quiet, [false, false]);
        assert!(
            t0.elapsed() >= Duration::from_millis(25),
            "{:?}",
            t0.elapsed()
        );
        (&a).write_all(b"x").unwrap();
        assert_eq!(
            poll_readable(&fds, Duration::from_secs(5)).unwrap(),
            [false, true]
        );
        drop(b);
        // The peer is gone: `a` reads EOF at once.
        assert_eq!(
            poll_readable(&fds[..1], Duration::from_secs(5)).unwrap(),
            [true]
        );
    }

    #[test]
    fn poll_for_room_waits_while_the_send_buffer_is_full() {
        let (a, b) = UnixStream::pair().unwrap();
        let (mut a, mut b) = (Stream::Unix(a), Stream::Unix(b));
        let room =
            |s: &Stream| poll_ready(&[(s.as_raw_fd(), Ready::Write)], Duration::from_millis(30));
        assert_eq!(room(&a).unwrap(), [true]);
        a.set_nonblocking(true).unwrap();
        let chunk = [7u8; 4096];
        let mut sent = 0;
        while let Ok(n) = a.write(&chunk) {
            sent += n;
        }
        assert_eq!(room(&a).unwrap(), [false], "full after {sent} bytes");
        // Draining the peer makes room again.
        let mut sink = vec![0u8; sent];
        b.read_exact(&mut sink).unwrap();
        assert_eq!(room(&a).unwrap(), [true]);
    }

    #[test]
    fn hostfile_roundtrips_through_display() {
        let text = "127.0.0.1:7700\n127.0.0.1\n127.0.0.1:7710\n";
        let hf = HostFile::parse(text).unwrap();
        assert_eq!(hf.to_string(), text);
        assert_eq!(HostFile::parse(&hf.to_string()).unwrap(), hf);
    }

    #[test]
    fn backoff_grows_caps_and_replays_deterministically() {
        let delays: Vec<Duration> = {
            let mut b = Backoff::new(10, 500, 42);
            (0..12).map(|_| b.next()).collect()
        };
        let replay: Vec<Duration> = {
            let mut b = Backoff::new(10, 500, 42);
            (0..12).map(|_| b.next()).collect()
        };
        assert_eq!(delays, replay, "same seed, same schedule");
        for d in &delays {
            assert!(*d >= Duration::from_millis(5), "floor = base/2");
            assert!(*d < Duration::from_millis(750), "cap × 1.5");
        }
        // The tail must sit at the cap band, not keep growing.
        assert!(delays[11] >= Duration::from_millis(250));
        let other: Vec<Duration> = {
            let mut b = Backoff::new(10, 500, 43);
            (0..12).map(|_| b.next()).collect()
        };
        assert_ne!(delays, other, "different seed, different jitter");
    }

    /// Both ends of a Unix rank connection carry the fixed send buffer:
    /// what the kernel reports back is the request, capped at
    /// `net.core.wmem_max`, doubled.
    #[cfg(target_os = "linux")]
    #[test]
    fn unix_rank_sockets_get_the_fixed_send_buffer() {
        extern "C" {
            fn getsockopt(fd: i32, level: i32, name: i32, value: *mut i32, len: *mut u32) -> i32;
        }
        let sndbuf = |s: &Stream| {
            let (mut value, mut len) = (0i32, 4u32);
            // SAFETY: `s` owns a live descriptor; `getsockopt` writes at
            // most `len` = 4 bytes into `value`, an `i32`, and `len`.
            let rc =
                unsafe { getsockopt(s.as_raw_fd(), SOL_SOCKET, SO_SNDBUF, &mut value, &mut len) };
            assert_eq!(rc, 0, "{}", io::Error::last_os_error());
            value
        };
        let Ok(cap) = std::fs::read_to_string("/proc/sys/net/core/wmem_max") else {
            println!("skipped: net.core.wmem_max is not readable");
            return;
        };
        let cap: i32 = cap.trim().parse().unwrap();
        let dir = std::env::temp_dir().join(format!("gnn-sndbuf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.sock");
        let path = path.to_str().unwrap();
        let l = Listener::bind_unix(path).unwrap();
        let client = Stream::connect(path).unwrap();
        let server = l.accept().unwrap();
        let want = 2 * UNIX_SNDBUF.min(cap);
        assert_eq!((sndbuf(&client), sndbuf(&server)), (want, want));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_stream_roundtrips_bytes() {
        let listener = Listener::bind_tcp("127.0.0.1", 0).unwrap();
        let addr = listener.advertised_addr("127.0.0.1").unwrap();
        let t = std::thread::spawn(move || {
            let mut s = Stream::connect(&addr).unwrap();
            s.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            s.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"pong");
        });
        let mut s = listener.accept().unwrap();
        let mut buf = [0u8; 4];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        s.write_all(b"pong").unwrap();
        t.join().unwrap();
    }
}
