//! The open-loop load generator: one thread, a few pipelined client
//! connections, built from `ftm-net`'s public pieces (the client `Hello`,
//! length-prefixed frames and ring buffers).
//!
//! Unlike a closed loop, the generator never waits for a reply before the
//! next send: every command has a *due* time, is written when due (or as
//! soon after as the generator gets to it), and replies are matched to
//! requests in order per connection. How late each send left is recorded
//! beside its due time.

use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::net::TcpStream;

use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};
use ftm_net::{frame_into, write_frame, Hello, RingBuf, WallClock, DEFAULT_MAX_FRAME};
use ftm_serve::api::{Reply, Request, Status};

/// Write-ring cap per connection: a burst stages at most this much ahead
/// of the socket.
const WRITE_RING: usize = 256 * 1024;

/// One command's life as the generator sees it (µs on the run clock;
/// zero = not yet).
#[derive(Debug, Clone, Copy)]
pub struct Cmd {
    /// The command value.
    pub value: u64,
    /// Connection it goes out on.
    pub conn: usize,
    /// When it was due.
    pub due_us: u64,
    /// When it was written.
    pub sent_us: u64,
    /// When its `Submitted` reply was read.
    pub ack_us: u64,
    /// Whether the reply was anything but `Submitted`.
    pub rejected: bool,
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    Submit(usize),
    Status,
}

struct Link {
    addr: String,
    stream: TcpStream,
    rb: RingBuf,
    wb: RingBuf,
    pending: VecDeque<Pending>,
    next_status_us: u64,
}

fn open(addr: &str, cluster: u64) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(&mut stream, &Hello::Client { cluster }.canonical_bytes())?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// The generator's connections and what it has read back.
pub struct Generator {
    links: Vec<Link>,
    cluster: u64,
    clock: WallClock,
    /// Every command scheduled, in schedule order.
    pub cmds: Vec<Cmd>,
    /// Status replies read, as `(connection, status)`.
    pub statuses: Vec<(usize, Status)>,
    /// Connections re-opened after an I/O error.
    pub reconnects: u64,
    /// `Status` period per connection in µs (0 = no status reads).
    status_every_us: u64,
    next: usize,
}

impl Generator {
    /// Opens one client connection per address.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures.
    pub fn connect(addrs: &[String], cluster: u64, clock: WallClock) -> io::Result<Self> {
        let mut links = Vec::with_capacity(addrs.len());
        for addr in addrs {
            links.push(Link {
                addr: addr.clone(),
                stream: open(addr, cluster)?,
                rb: RingBuf::with_max(DEFAULT_MAX_FRAME + 4),
                wb: RingBuf::with_max(WRITE_RING),
                pending: VecDeque::new(),
                next_status_us: 0,
            });
        }
        Ok(Generator {
            links,
            cluster,
            clock,
            cmds: Vec::new(),
            statuses: Vec::new(),
            reconnects: 0,
            status_every_us: 0,
            next: 0,
        })
    }

    /// Appends commands to the schedule (`(value, connection, due_us)`,
    /// in due order).
    pub fn schedule(&mut self, cmds: impl IntoIterator<Item = (u64, usize, u64)>) {
        self.cmds
            .extend(cmds.into_iter().map(|(value, conn, due_us)| Cmd {
                value,
                conn,
                due_us,
                sent_us: 0,
                ack_us: 0,
                rejected: false,
            }));
    }

    /// Starts periodic `Status` reads on every connection from `at_us`.
    pub fn status_reads(&mut self, every_us: u64, at_us: u64) {
        self.status_every_us = every_us;
        for link in &mut self.links {
            link.next_status_us = at_us;
        }
    }

    /// Whether every scheduled command has been written.
    pub fn all_sent(&self) -> bool {
        self.next == self.cmds.len()
    }

    /// Requests still waiting for a reply.
    pub fn outstanding(&self) -> usize {
        self.links.iter().map(|l| l.pending.len()).sum()
    }

    /// Due time of the next unsent command.
    pub fn next_due_us(&self) -> Option<u64> {
        self.cmds.get(self.next).map(|c| c.due_us)
    }

    /// One generator iteration: stage due commands and status reads,
    /// flush, read and match replies. Returns whether anything moved.
    pub fn step(&mut self) -> bool {
        let now = self.clock.micros();
        let mut moved = false;
        while let Some(cmd) = self.cmds.get(self.next) {
            if cmd.due_us > now {
                break;
            }
            let frame = Request::Submit { value: cmd.value }.canonical_bytes();
            let link = &mut self.links[cmd.conn];
            if !frame_into(&mut link.wb, &frame) {
                break; // ring full: the socket is the bottleneck
            }
            link.pending.push_back(Pending::Submit(self.next));
            self.cmds[self.next].sent_us = now;
            self.next += 1;
            moved = true;
        }
        if self.status_every_us > 0 && !self.all_sent() {
            for link in &mut self.links {
                if now >= link.next_status_us
                    && frame_into(&mut link.wb, &Request::Status.canonical_bytes())
                {
                    link.pending.push_back(Pending::Status);
                    link.next_status_us = now + self.status_every_us;
                    moved = true;
                }
            }
        }
        for i in 0..self.links.len() {
            match self.io(i) {
                Ok(progress) => moved |= progress,
                Err(_) => {
                    self.reconnect(i);
                    moved = true;
                }
            }
        }
        moved
    }

    /// Flushes link `i`'s write ring and parses every complete reply.
    fn io(&mut self, i: usize) -> io::Result<bool> {
        let mut moved = false;
        let link = &mut self.links[i];
        while !link.wb.is_empty() {
            match link.wb.write_to(&mut &link.stream) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(_) => moved = true,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        loop {
            if link.rb.free() == 0 {
                break;
            }
            match link.rb.read_from(&mut &link.stream) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(_) => moved = true,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let now = self.clock.micros();
        loop {
            let link = &mut self.links[i];
            let mut len_buf = [0u8; 4];
            if !link.rb.copy_to(&mut len_buf, 4) {
                break;
            }
            let len = u32::from_be_bytes(len_buf) as usize;
            if link.rb.len() < 4 + len {
                break;
            }
            link.rb.consume(4);
            let mut frame = vec![0u8; len];
            link.rb.copy_to(&mut frame, len);
            link.rb.consume(len);
            let reply = Reply::from_canonical_bytes(&frame);
            match (link.pending.pop_front(), reply) {
                (Some(Pending::Submit(k)), Ok(Reply::Submitted { .. })) => {
                    self.cmds[k].ack_us = now;
                }
                (Some(Pending::Submit(k)), _) => self.cmds[k].rejected = true,
                (Some(Pending::Status), Ok(Reply::Status(s))) => self.statuses.push((i, s)),
                _ => return Err(ErrorKind::InvalidData.into()),
            }
        }
        Ok(moved)
    }

    /// Re-opens link `i` after an I/O error; requests in flight on it are
    /// lost (their commands count as failed).
    fn reconnect(&mut self, i: usize) {
        self.reconnects += 1;
        let link = &mut self.links[i];
        for p in link.pending.drain(..) {
            if let Pending::Submit(k) = p {
                self.cmds[k].rejected = true;
            }
        }
        link.rb = RingBuf::with_max(DEFAULT_MAX_FRAME + 4);
        link.wb = RingBuf::with_max(WRITE_RING);
        if let Ok(stream) = open(&link.addr, self.cluster) {
            link.stream = stream;
        }
    }

    /// Runs the schedule until every command is written and every reply
    /// read, or `deadline_us` passes. Idle waits sleep until the next due
    /// time, in short slices while replies are outstanding.
    pub fn run_until_replied(&mut self, deadline_us: u64) {
        loop {
            let moved = self.step();
            let now = self.clock.micros();
            if (self.all_sent() && self.outstanding() == 0) || now >= deadline_us {
                return;
            }
            if moved {
                continue;
            }
            let until_due = self
                .next_due_us()
                .map_or(u64::MAX, |due| due.saturating_sub(now));
            let until_status = if self.status_every_us > 0 && !self.all_sent() {
                self.links
                    .iter()
                    .map(|l| l.next_status_us.saturating_sub(now))
                    .min()
                    .unwrap_or(u64::MAX)
            } else {
                u64::MAX
            };
            let slice = if self.outstanding() > 0 { 50 } else { 1000 };
            let wait = until_due.min(until_status).min(slice);
            if wait > 0 {
                std::thread::sleep(std::time::Duration::from_micros(wait));
            }
        }
    }

    /// Sends `Shutdown` on every connection (best effort).
    pub fn shutdown(&mut self) {
        for link in &mut self.links {
            let _ = link.stream.set_nonblocking(false);
            let _ = write_frame(&mut link.stream, &Request::Shutdown.canonical_bytes());
        }
    }
}
