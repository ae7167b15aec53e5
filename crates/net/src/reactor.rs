//! A hand-rolled readiness-driven reactor: one thread, one `poll(2)`
//! set, thousands of framed connections.
//!
//! Every connection is nonblocking, a single loop thread waits for
//! readiness (`poll(2)` on every platform — no external async
//! runtime), and per-connection state is nothing but an
//! incremental [`FrameDecoder`] and a bounded [`OutboundQueue`] — an
//! idle connection costs a slab entry, not a thread. The protocol
//! state machines never see the readiness machinery: the loop hands
//! the *application* ([`ReactorApp`]) whole decoded [`NetMsg`] frames,
//! exactly what a blocking `recv` would have produced.
//!
//! ## Structure
//!
//! - **Poller** — `poll(2)` via one direct FFI declaration (no `libc`
//!   dependency is reachable offline), level-triggered. The interest
//!   set *is* the `pollfd` array, indexed by token, so a wait neither
//!   rebuilds nor allocates it.
//! - **Waker** — a nonblocking `UnixStream` self-pipe. Worker threads
//!   push commands (outbound frames, closes, nudges) into a shared
//!   queue through a [`ReactorHandle`] and write one byte to the pipe;
//!   the loop drains both. [`ReactorConnTx`] wraps that as a
//!   [`FrameTx`], so session workers address reactor connections
//!   through the transport trait. A worker's close is flush-then-close:
//!   frames it sent first are delivered before the line drops.
//! - **Backpressure, inbound** — when the app cannot take a frame (its
//!   worker queue is full, signalled by returning the frame from
//!   [`ReactorApp::on_frame`]), the loop *parks* the frame, drops read
//!   interest on that connection (TCP backpressure does the rest), and
//!   retries on every tick and nudge.
//! - **Backpressure, outbound** — each connection's [`OutboundQueue`]
//!   is byte-bounded; a peer that stops draining its socket overflows
//!   it and is disconnected, so one slow consumer can never hold the
//!   daemon's memory hostage.
//! - **Timeouts** — a connection that has not completed its handshake
//!   (the app calls [`ReactorCtx::set_handshaken`] when it does) is
//!   closed after `handshake_timeout`; an optional `idle_timeout`
//!   reaps handshaken connections with no traffic. Both are enforced
//!   by a coarse tick, not per-connection timers.
//!
//! The connection-scale smoke test (`tests/reactor_scale.rs`) drives
//! ≥1024 concurrent framed connections through one loop thread and
//! checks bit-identical service; DESIGN.md §15 is the architecture
//! note.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::codec::{FrameDecoder, OutboundQueue, WriteProgress};
use crate::error::NetError;
use crate::framing::{encode_frame, DEFAULT_MAX_FRAME};
use crate::transport::{FrameTx, NetMsg};

// ------------------------------------------------------------ poller

/// Readiness flags for one registered fd.
#[derive(Debug, Clone, Copy)]
struct Readiness {
    token: u64,
    readable: bool,
    writable: bool,
    hangup: bool,
}

mod poll_sys {
    use std::os::raw::{c_int, c_ulong};

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const POLLERR: i16 = 0x8;
    pub const POLLHUP: i16 = 0x10;

    unsafe extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// The readiness backend: `poll(2)` over an interest set kept *as* the
/// `pollfd` array, indexed by token. Tokens are dense (two fixed ones,
/// then one per slab slot), so registering, re-arming and removing are
/// O(1) writes into the array, and `wait` hands it to the kernel as is.
/// A vacant entry has `fd = -1`, which `poll(2)` skips.
struct Poller {
    fds: Vec<poll_sys::PollFd>,
}

const VACANT: poll_sys::PollFd = poll_sys::PollFd {
    fd: -1,
    events: 0,
    revents: 0,
};

impl Poller {
    fn events(want_read: bool, want_write: bool) -> i16 {
        (if want_read { poll_sys::POLLIN } else { 0 })
            | (if want_write { poll_sys::POLLOUT } else { 0 })
    }

    fn add(&mut self, fd: RawFd, token: u64, want_read: bool, want_write: bool) {
        let i = token as usize;
        if self.fds.len() <= i {
            self.fds.resize(i + 1, VACANT);
        }
        self.fds[i] = poll_sys::PollFd {
            fd,
            events: Self::events(want_read, want_write),
            revents: 0,
        };
    }

    fn modify(&mut self, token: u64, want_read: bool, want_write: bool) {
        if let Some(pfd) = self.fds.get_mut(token as usize) {
            pfd.events = Self::events(want_read, want_write);
        }
    }

    fn remove(&mut self, token: u64) {
        if let Some(pfd) = self.fds.get_mut(token as usize) {
            *pfd = VACANT;
        }
    }

    /// Blocks up to `timeout` for readiness and appends results to
    /// `out`.
    fn wait(&mut self, timeout: Duration, out: &mut Vec<Readiness>) {
        let millis = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is an exclusively borrowed, initialised array of
        // `repr(C)` pollfd entries and `nfds` is its length; the kernel
        // writes only the `revents` fields within it.
        let n = unsafe {
            poll_sys::poll(
                self.fds.as_mut_ptr(),
                self.fds.len() as std::os::raw::c_ulong,
                millis,
            )
        };
        if n <= 0 {
            return;
        }
        for (token, pfd) in self.fds.iter().enumerate() {
            if pfd.revents == 0 {
                continue;
            }
            out.push(Readiness {
                token: token as u64,
                readable: pfd.revents & poll_sys::POLLIN != 0,
                writable: pfd.revents & poll_sys::POLLOUT != 0,
                hangup: pfd.revents & (poll_sys::POLLERR | poll_sys::POLLHUP) != 0,
            });
        }
    }
}

// ---------------------------------------------------------- identity

/// A reactor connection: a slab slot plus a generation counter, so a
/// stale id held by a worker after the slot was reused addresses
/// nobody (the send is dropped) instead of a stranger's connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId {
    slot: u32,
    gen: u32,
}

impl core::fmt::Display for ConnId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "conn{}.{}", self.slot, self.gen)
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_CONN_BASE: u64 = 2;

// ----------------------------------------------------------- handles

enum Command {
    /// Queue one already-encoded frame on a connection.
    Send(ConnId, Vec<u8>),
    /// Close a connection once the frames queued before this command
    /// have flushed.
    Close(ConnId),
    /// Wake the app ([`ReactorApp::on_nudge`]) and retry parked frames
    /// — e.g. a worker drained its queue and can take more.
    Nudge,
    /// Stop the loop.
    Shutdown,
}

struct HandleInner {
    queue: Mutex<Vec<Command>>,
    waker: UnixStream,
    max_frame: usize,
}

/// A cloneable handle into a running reactor: worker threads use it to
/// push outbound frames, close connections, and nudge the loop. All
/// operations are nonblocking (the command queue is unbounded, but
/// each connection's outbound bytes are bounded by the reactor).
#[derive(Clone)]
pub struct ReactorHandle {
    inner: Arc<HandleInner>,
}

impl ReactorHandle {
    fn push(&self, cmd: Command) {
        self.inner.queue.lock().push(cmd);
        // One byte is enough; a full pipe already implies a pending
        // wakeup, so WouldBlock is success.
        let _ = (&self.inner.waker).write(&[1]);
    }

    /// Encodes `msg` and queues it on `conn`. Encoding happens on the
    /// calling (worker) thread, off the loop.
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLarge`] / [`NetError::Malformed`] from
    /// encoding. Delivery itself is asynchronous: a dead `conn` drops
    /// the frame silently (exactly like a socket send racing a close).
    pub fn send(&self, conn: ConnId, msg: &NetMsg) -> Result<(), NetError> {
        let frame = encode_frame(msg, self.inner.max_frame)?;
        self.push(Command::Send(conn, frame));
        Ok(())
    }

    /// Requests an asynchronous close of `conn`: frames sent on it
    /// before this call are flushed first (send-then-close delivers
    /// the frame), bounded by the connection's outbound cap.
    pub fn close(&self, conn: ConnId) {
        self.push(Command::Close(conn));
    }

    /// Wakes the loop: parked inbound frames are retried and
    /// [`ReactorApp::on_nudge`] runs.
    pub fn nudge(&self) {
        self.push(Command::Nudge);
    }

    /// Asks the loop to stop. The owning [`Reactor`] joins it.
    pub fn shutdown(&self) {
        self.push(Command::Shutdown);
    }

    /// A [`FrameTx`] addressing `conn`, so worker code written against
    /// the transport traits can answer reactor clients unchanged.
    pub fn conn_tx(&self, conn: ConnId) -> ReactorConnTx {
        ReactorConnTx {
            handle: self.clone(),
            conn,
        }
    }
}

/// [`FrameTx`] over a reactor connection (see
/// [`ReactorHandle::conn_tx`]).
pub struct ReactorConnTx {
    handle: ReactorHandle,
    conn: ConnId,
}

impl FrameTx for ReactorConnTx {
    fn send(&mut self, msg: &NetMsg) -> Result<(), NetError> {
        self.handle.send(self.conn, msg)
    }

    fn close(&mut self) {
        self.handle.close(self.conn);
    }
}

// ------------------------------------------------------------- stats

#[derive(Debug, Default)]
struct StatsInner {
    accepted: AtomicU64,
    live: AtomicUsize,
    peak: AtomicUsize,
}

/// A point-in-time view of the loop's connection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactorStats {
    /// Connections accepted since start.
    pub accepted: u64,
    /// Currently-open connections.
    pub live: usize,
    /// High-water mark of concurrently-open connections.
    pub peak: usize,
}

// --------------------------------------------------------------- app

/// The application driven by a reactor loop.
///
/// All methods run **on the loop thread**; they must not block. Heavy
/// work belongs on worker threads fed through bounded queues, with
/// results pushed back via a [`ReactorHandle`].
pub trait ReactorApp: Send + 'static {
    /// One decoded inbound frame. Return `None` when consumed; return
    /// the frame back (`Some`) when downstream is full — the reactor
    /// parks it, suspends reading that connection, and retries on
    /// every tick and nudge.
    fn on_frame(&mut self, ctx: &mut ReactorCtx<'_>, conn: ConnId, msg: NetMsg) -> Option<NetMsg>;

    /// `conn` is gone (peer close, error, timeout, or an app-requested
    /// close). The id is already invalid for sending.
    fn on_closed(&mut self, ctx: &mut ReactorCtx<'_>, conn: ConnId);

    /// Periodic tick (the reactor's coarse clock).
    fn on_tick(&mut self, _ctx: &mut ReactorCtx<'_>) {}

    /// A worker nudged the loop (after parked-frame retries).
    fn on_nudge(&mut self, _ctx: &mut ReactorCtx<'_>) {}
}

// -------------------------------------------------------------- loop

struct Conn {
    gen: u32,
    stream: TcpStream,
    decoder: FrameDecoder,
    outbound: OutboundQueue,
    /// A frame the app could not take yet; read interest stays off
    /// while it is here.
    parked: Option<NetMsg>,
    want_write: bool,
    read_suspended: bool,
    close_after_flush: bool,
    handshaken: bool,
    /// Accept time. The handshake deadline runs against this, not
    /// `last_activity` — a pre-`Hello` peer trickling one byte per
    /// tick must not be able to hold a slot forever.
    established: Instant,
    last_activity: Instant,
}

struct LoopCore {
    poller: Poller,
    listener: TcpListener,
    waker_rx: UnixStream,
    conns: Vec<Option<Conn>>,
    free_slots: Vec<u32>,
    /// Slots freed this iteration; reusable only from the next one, so
    /// a stale readiness event in the current batch can never land on
    /// a fresh connection.
    freed_this_iter: Vec<u32>,
    next_gen: u32,
    dead: VecDeque<ConnId>,
    stats: Arc<StatsInner>,
    opts: ReactorOptions,
    running: bool,
}

/// Tuning for a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorOptions {
    /// Frame cap per connection (both directions).
    pub max_frame: usize,
    /// Outbound byte bound per connection; overflowing it disconnects
    /// the slow consumer.
    pub outbound_cap: usize,
    /// Connection cap; excess accepts are closed immediately.
    pub max_conns: usize,
    /// A connection must handshake (the app calls
    /// [`ReactorCtx::set_handshaken`]) within this window or is closed.
    pub handshake_timeout: Duration,
    /// Reap handshaken connections with no traffic for this long.
    /// `None` lets identified peers idle indefinitely.
    pub idle_timeout: Option<Duration>,
    /// Tick period: the granularity of timeouts and parked-frame
    /// retries.
    pub tick: Duration,
}

impl Default for ReactorOptions {
    fn default() -> Self {
        Self {
            max_frame: DEFAULT_MAX_FRAME,
            outbound_cap: 64 * 1024 * 1024,
            max_conns: 16 * 1024,
            handshake_timeout: Duration::from_secs(30),
            idle_timeout: None,
            tick: Duration::from_millis(25),
        }
    }
}

/// What the loop exposes to app callbacks. All operations are
/// immediate (no cross-thread queue): sends go straight into the
/// connection's outbound queue with an opportunistic flush.
pub struct ReactorCtx<'a> {
    core: &'a mut LoopCore,
}

impl ReactorCtx<'_> {
    /// Queues `msg` on `conn` and flushes opportunistically.
    ///
    /// # Errors
    ///
    /// Encoding failures, and [`NetError::Backpressure`] when the
    /// connection's outbound bound is hit — in which case the slow
    /// consumer is already being disconnected and the caller should
    /// forget it.
    pub fn send(&mut self, conn: ConnId, msg: &NetMsg) -> Result<(), NetError> {
        let frame = encode_frame(msg, self.core.opts.max_frame)?;
        self.core.send_bytes(conn, frame)
    }

    /// Closes `conn` once its queued outbound frames have flushed —
    /// the Reject path: the verdict is delivered, then the line drops.
    pub fn close_after_flush(&mut self, conn: ConnId) {
        self.core.close_after_flush(conn);
    }

    /// Closes `conn` now; queued outbound frames are dropped.
    pub fn close(&mut self, conn: ConnId) {
        if self.core.conn_mut(conn).is_some() {
            self.core.dead.push_back(conn);
        }
    }

    /// Marks `conn` as identified: the handshake deadline is lifted
    /// and the idle policy takes over.
    pub fn set_handshaken(&mut self, conn: ConnId) {
        if let Some(c) = self.core.conn_mut(conn) {
            c.handshaken = true;
            c.last_activity = Instant::now();
        }
    }
}

impl LoopCore {
    fn conn_mut(&mut self, id: ConnId) -> Option<&mut Conn> {
        match self.conns.get_mut(id.slot as usize) {
            Some(Some(c)) if c.gen == id.gen => Some(c),
            _ => None,
        }
    }

    fn conn_id(&self, slot: u32) -> Option<ConnId> {
        self.conns
            .get(slot as usize)
            .and_then(|s| s.as_ref())
            .map(|c| ConnId { slot, gen: c.gen })
    }

    fn set_interest(&mut self, slot: u32) {
        let Some(Some(c)) = self.conns.get(slot as usize) else {
            return;
        };
        let want_read = !c.read_suspended && c.parked.is_none();
        let want_write = c.want_write;
        self.poller
            .modify(TOKEN_CONN_BASE + slot as u64, want_read, want_write);
    }

    fn send_bytes(&mut self, id: ConnId, frame: Vec<u8>) -> Result<(), NetError> {
        let pushed = match self.conn_mut(id) {
            // Racing a close: like a send on a just-closed socket.
            None => return Ok(()),
            Some(c) => c.outbound.push(frame),
        };
        if let Err(e) = pushed {
            // Slow-consumer policy: the queue bound is the line.
            self.dead.push_back(id);
            return Err(e);
        }
        self.flush_conn(id.slot);
        Ok(())
    }

    fn close_after_flush(&mut self, id: ConnId) {
        let empty = match self.conn_mut(id) {
            None => return,
            Some(c) => {
                if !c.outbound.is_empty() {
                    c.close_after_flush = true;
                    // Stop reading a peer we are about to drop.
                    c.read_suspended = true;
                }
                c.outbound.is_empty()
            }
        };
        if empty {
            self.dead.push_back(id);
        } else {
            self.set_interest(id.slot);
        }
    }

    /// Pushes queued bytes; updates write interest; schedules the close
    /// when a flush completes a `close_after_flush`.
    fn flush_conn(&mut self, slot: u32) {
        enum After {
            Nothing,
            Reinterest,
            Close(ConnId),
        }
        let after = match self.conns.get_mut(slot as usize) {
            Some(Some(c)) => {
                let gen = c.gen;
                match c.outbound.write_to(&mut c.stream) {
                    Ok(WriteProgress::Drained) => {
                        if c.close_after_flush {
                            After::Close(ConnId { slot, gen })
                        } else if c.want_write {
                            c.want_write = false;
                            After::Reinterest
                        } else {
                            After::Nothing
                        }
                    }
                    Ok(WriteProgress::Blocked) => {
                        if !c.want_write {
                            c.want_write = true;
                            After::Reinterest
                        } else {
                            After::Nothing
                        }
                    }
                    Err(_) => After::Close(ConnId { slot, gen }),
                }
            }
            _ => return,
        };
        match after {
            After::Nothing => {}
            After::Reinterest => self.set_interest(slot),
            After::Close(id) => self.dead.push_back(id),
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let live = self.stats.live.load(Ordering::Relaxed);
                    if live >= self.opts.max_conns {
                        // At capacity: drop immediately. (A reject
                        // frame could block; the cap is a safety rail,
                        // not a protocol state.)
                        continue;
                    }
                    let fd = stream.as_raw_fd();
                    let gen = self.next_gen;
                    self.next_gen = self.next_gen.wrapping_add(1);
                    let conn = Conn {
                        gen,
                        stream,
                        decoder: FrameDecoder::new(self.opts.max_frame),
                        outbound: OutboundQueue::new(self.opts.outbound_cap),
                        parked: None,
                        want_write: false,
                        read_suspended: false,
                        close_after_flush: false,
                        handshaken: false,
                        established: Instant::now(),
                        last_activity: Instant::now(),
                    };
                    let slot = match self.free_slots.pop() {
                        Some(s) => {
                            self.conns[s as usize] = Some(conn);
                            s
                        }
                        None => {
                            self.conns.push(Some(conn));
                            (self.conns.len() - 1) as u32
                        }
                    };
                    self.poller
                        .add(fd, TOKEN_CONN_BASE + slot as u64, true, false);
                    self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    let live = self.stats.live.fetch_add(1, Ordering::Relaxed) + 1;
                    self.stats.peak.fetch_max(live, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.waker_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Tears one connection down; returns its id if it was live (the
    /// caller then runs [`ReactorApp::on_closed`]).
    fn teardown(&mut self, id: ConnId) -> bool {
        let slot = id.slot as usize;
        let matches = matches!(self.conns.get(slot), Some(Some(c)) if c.gen == id.gen);
        if !matches {
            return false;
        }
        let c = self.conns[slot].take().expect("checked above");
        self.poller.remove(TOKEN_CONN_BASE + id.slot as u64);
        let _ = c.stream.shutdown(std::net::Shutdown::Both);
        drop(c);
        self.freed_this_iter.push(id.slot);
        self.stats.live.fetch_sub(1, Ordering::Relaxed);
        true
    }
}

/// Delivers buffered frames (parked first) to the app until the
/// decoder runs dry or the app parks one.
fn deliver_frames<A: ReactorApp>(core: &mut LoopCore, app: &mut A, slot: u32) {
    // The message variant dwarfs the others, but this enum never
    // outlives one loop iteration — boxing it would put an allocation
    // on the per-frame hot path.
    #[allow(clippy::large_enum_variant)]
    enum Next {
        Gone,
        Dry { resume: bool },
        Poisoned(ConnId),
        Msg(ConnId, NetMsg),
    }
    loop {
        let next = match core.conn_id(slot) {
            None => Next::Gone,
            Some(id) => match core.conn_mut(id) {
                None => Next::Gone,
                Some(c) => match c.parked.take() {
                    Some(m) => Next::Msg(id, m),
                    None => match c.decoder.next_msg::<NetMsg>() {
                        Ok(Some(m)) => Next::Msg(id, m),
                        Ok(None) => {
                            let resume = c.read_suspended && !c.close_after_flush;
                            if resume {
                                c.read_suspended = false;
                            }
                            Next::Dry { resume }
                        }
                        // Oversized or garbage frame: the stream is
                        // poisoned; drop the peer.
                        Err(_) => Next::Poisoned(id),
                    },
                },
            },
        };
        match next {
            Next::Gone => return,
            Next::Dry { resume } => {
                if resume {
                    core.set_interest(slot);
                }
                return;
            }
            Next::Poisoned(id) => {
                core.dead.push_back(id);
                return;
            }
            Next::Msg(id, msg) => {
                let mut ctx = ReactorCtx { core };
                if let Some(parked) = app.on_frame(&mut ctx, id, msg) {
                    if let Some(c) = core.conn_mut(id) {
                        c.parked = Some(parked);
                        c.read_suspended = true;
                    }
                    core.set_interest(slot);
                    return;
                }
            }
        }
    }
}

fn read_ready<A: ReactorApp>(core: &mut LoopCore, app: &mut A, slot: u32) {
    let Some(id) = core.conn_id(slot) else { return };
    let mut buf = [0u8; 16 * 1024];
    loop {
        enum Got {
            Bytes,
            Stop,
            Dead,
            Retry,
        }
        let got = match core.conn_mut(id) {
            None => return,
            Some(c) => {
                if c.read_suspended || c.parked.is_some() {
                    Got::Stop
                } else {
                    match c.stream.read(&mut buf) {
                        Ok(0) => Got::Dead,
                        Ok(n) => {
                            c.last_activity = Instant::now();
                            if c.decoder.extend(&buf[..n]).is_err() {
                                Got::Dead
                            } else {
                                Got::Bytes
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => Got::Stop,
                        Err(e) if e.kind() == ErrorKind::Interrupted => Got::Retry,
                        Err(_) => Got::Dead,
                    }
                }
            }
        };
        match got {
            Got::Bytes => deliver_frames(core, app, slot),
            Got::Retry => {}
            Got::Stop => break,
            Got::Dead => {
                core.dead.push_back(id);
                break;
            }
        }
    }
    // EOF/error still delivers frames already buffered.
    deliver_frames(core, app, slot);
}

fn drain_dead<A: ReactorApp>(core: &mut LoopCore, app: &mut A) {
    while let Some(id) = core.dead.pop_front() {
        if core.teardown(id) {
            let mut ctx = ReactorCtx { core };
            app.on_closed(&mut ctx, id);
        }
    }
}

fn retry_parked<A: ReactorApp>(core: &mut LoopCore, app: &mut A) {
    let slots: Vec<u32> = (0..core.conns.len() as u32)
        .filter(|&s| {
            core.conns[s as usize]
                .as_ref()
                .is_some_and(|c| c.parked.is_some())
        })
        .collect();
    for slot in slots {
        deliver_frames(core, app, slot);
        drain_dead(core, app);
    }
}

fn process_commands<A: ReactorApp>(core: &mut LoopCore, app: &mut A, queue: &Mutex<Vec<Command>>) {
    let commands = std::mem::take(&mut *queue.lock());
    let mut nudged = false;
    for cmd in commands {
        match cmd {
            Command::Send(id, frame) => {
                // Backpressure/encode errors already scheduled the
                // close; the worker finds out via on_closed.
                let _ = core.send_bytes(id, frame);
            }
            Command::Close(id) => core.close_after_flush(id),
            Command::Nudge => nudged = true,
            Command::Shutdown => core.running = false,
        }
        drain_dead(core, app);
    }
    if nudged {
        retry_parked(core, app);
        let mut ctx = ReactorCtx { core };
        app.on_nudge(&mut ctx);
        drain_dead(core, app);
    }
}

fn run_loop<A: ReactorApp>(mut core: LoopCore, mut app: A, queue: Arc<HandleInner>) {
    let mut events: Vec<Readiness> = Vec::with_capacity(1024);
    let mut last_tick = Instant::now();
    while core.running {
        events.clear();
        core.poller.wait(core.opts.tick, &mut events);
        for &ev in &events {
            match ev.token {
                TOKEN_LISTENER => core.accept_ready(),
                TOKEN_WAKER => core.drain_waker(),
                token => {
                    let slot = (token - TOKEN_CONN_BASE) as u32;
                    if ev.writable {
                        core.flush_conn(slot);
                    }
                    if ev.readable {
                        read_ready(&mut core, &mut app, slot);
                    } else if ev.hangup {
                        // A pure hangup with nothing readable: the
                        // peer is gone.
                        if let Some(id) = core.conn_id(slot) {
                            core.dead.push_back(id);
                        }
                    }
                }
            }
            drain_dead(&mut core, &mut app);
        }
        process_commands(&mut core, &mut app, &queue.queue);

        if last_tick.elapsed() >= core.opts.tick {
            last_tick = Instant::now();
            retry_parked(&mut core, &mut app);
            // Timeouts: coarse, scanned per tick.
            let now = Instant::now();
            for slot in 0..core.conns.len() as u32 {
                let Some(Some(c)) = core.conns.get(slot as usize) else {
                    continue;
                };
                let gen = c.gen;
                let expired = if !c.handshaken {
                    now.duration_since(c.established) > core.opts.handshake_timeout
                } else if let Some(idle) = core.opts.idle_timeout {
                    now.duration_since(c.last_activity) > idle
                } else {
                    false
                };
                if expired {
                    core.dead.push_back(ConnId { slot, gen });
                }
            }
            drain_dead(&mut core, &mut app);
            let mut ctx = ReactorCtx { core: &mut core };
            app.on_tick(&mut ctx);
            drain_dead(&mut core, &mut app);
        }

        let freed = std::mem::take(&mut core.freed_this_iter);
        core.free_slots.extend(freed);
    }
    // Shutdown: close everything still live.
    for slot in 0..core.conns.len() {
        if let Some(c) = core.conns[slot].take() {
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

// ------------------------------------------------------------ daemon

/// A running reactor: the loop thread plus its handle. Dropping (or
/// [`shutdown`](Self::shutdown)) stops the loop and joins it.
pub struct Reactor {
    addr: SocketAddr,
    handle: ReactorHandle,
    join: Option<JoinHandle<()>>,
    stats: Arc<StatsInner>,
}

impl Reactor {
    /// Starts the loop over a bound listener. `make_app` builds the
    /// application with the reactor's handle in hand (so the app can
    /// seed its worker threads with it before the first event fires).
    ///
    /// # Errors
    ///
    /// Listener and self-pipe setup failures.
    pub fn start<A: ReactorApp>(
        listener: TcpListener,
        options: ReactorOptions,
        make_app: impl FnOnce(&ReactorHandle) -> A,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;

        let mut poller = Poller { fds: Vec::new() };
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false);
        poller.add(waker_rx.as_raw_fd(), TOKEN_WAKER, true, false);

        let inner = Arc::new(HandleInner {
            queue: Mutex::new(Vec::new()),
            waker: waker_tx,
            max_frame: options.max_frame,
        });
        let handle = ReactorHandle {
            inner: Arc::clone(&inner),
        };
        let app = make_app(&handle);
        let stats = Arc::new(StatsInner::default());
        let core = LoopCore {
            poller,
            listener,
            waker_rx,
            conns: Vec::new(),
            free_slots: Vec::new(),
            freed_this_iter: Vec::new(),
            next_gen: 0,
            dead: VecDeque::new(),
            stats: Arc::clone(&stats),
            opts: options,
            running: true,
        };
        let join = std::thread::Builder::new()
            .name("cryptonn-reactor".into())
            .spawn(move || run_loop(core, app, inner))?;
        Ok(Self {
            addr,
            handle,
            join: Some(join),
            stats,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for worker threads.
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// Connection counters.
    pub fn stats(&self) -> ReactorStats {
        ReactorStats {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            live: self.stats.live.load(Ordering::Relaxed),
            peak: self.stats.peak.load(Ordering::Relaxed),
        }
    }

    /// Stops the loop and joins it. The app (and whatever worker
    /// plumbing it owns) is dropped on the loop thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.stop();
        }
    }
}
