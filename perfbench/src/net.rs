//! The load generator's transport: two loopback TCP connections driven
//! by one thread through `ppoll(2)`.
//!
//! Writes never block the loop: each connection keeps an output buffer
//! that drains as the socket accepts bytes, so an open-loop send happens
//! when it is due even while the server is busy, and responses are read
//! (and time-stamped) as soon as they arrive.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// One line read from a connection, stamped when it was read.
#[derive(Debug)]
pub struct Received {
    pub conn: usize,
    pub at: Instant,
    pub line: String,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    acc: Vec<u8>,
    closed: bool,
}

/// The feeder (0) and tenant (1) connections.
pub struct Wire {
    conns: Vec<Conn>,
}

impl Wire {
    /// Connects both connections to `addr`, retrying until `deadline`
    /// while the server starts.
    pub fn connect(addr: &str, deadline: Instant) -> std::io::Result<Wire> {
        let mut conns = Vec::new();
        while conns.len() < 2 {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_nonblocking(true)?;
                    conns.push(Conn {
                        stream,
                        out: Vec::new(),
                        sent: 0,
                        acc: Vec::new(),
                        closed: false,
                    });
                }
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Wire { conns })
    }

    /// Whether a connection was closed by the server.
    pub fn closed(&self, conn: usize) -> bool {
        self.conns[conn].closed
    }

    /// Queues one request line and writes as much as the socket takes.
    pub fn send(&mut self, conn: usize, line: &str) {
        let c = &mut self.conns[conn];
        c.out.extend_from_slice(line.as_bytes());
        c.out.push(b'\n');
        flush(c);
    }

    /// Waits until `until` or until at least one line arrives, moving
    /// queued bytes out meanwhile. Appends what arrived to `into`.
    pub fn pump(&mut self, until: Instant, into: &mut Vec<Received>) {
        let before = into.len();
        loop {
            let mut fds: Vec<PollFd> = self
                .conns
                .iter()
                .map(|c| PollFd {
                    fd: c.stream.as_raw_fd(),
                    events: if c.closed {
                        0
                    } else if c.sent < c.out.len() {
                        POLLIN | POLLOUT
                    } else {
                        POLLIN
                    },
                    revents: 0,
                })
                .collect();
            let wait = until.saturating_duration_since(Instant::now());
            let ts = Timespec {
                tv_sec: wait.as_secs() as i64,
                tv_nsec: i64::from(wait.subsec_nanos()),
            };
            // SAFETY: `fds` is a live, correctly laid-out pollfd array of
            // the stated length, `ts` outlives the call, and a null
            // sigmask leaves the signal mask unchanged.
            let ready = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
            if ready > 0 {
                for (i, fd) in fds.iter().enumerate() {
                    if fd.revents == 0 {
                        continue;
                    }
                    let c = &mut self.conns[i];
                    flush(c);
                    read_lines(c, i, into);
                }
            }
            if into.len() > before || Instant::now() >= until {
                return;
            }
        }
    }
}

fn flush(c: &mut Conn) {
    while c.sent < c.out.len() && !c.closed {
        match c.stream.write(&c.out[c.sent..]) {
            Ok(0) => c.closed = true,
            Ok(n) => c.sent += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => c.closed = true,
        }
    }
    if c.sent == c.out.len() {
        c.out.clear();
        c.sent = 0;
    }
}

fn read_lines(c: &mut Conn, conn: usize, into: &mut Vec<Received>) {
    let mut buf = [0u8; 64 * 1024];
    loop {
        match c.stream.read(&mut buf) {
            Ok(0) => {
                c.closed = true;
                break;
            }
            Ok(n) => c.acc.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                c.closed = true;
                break;
            }
        }
    }
    let at = Instant::now();
    let mut start = 0;
    while let Some(pos) = c.acc[start..].iter().position(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(&c.acc[start..start + pos]).into_owned();
        into.push(Received { conn, at, line });
        start += pos + 1;
    }
    c.acc.drain(..start);
}
