//! The transport abstraction: framed, bidirectional, splittable
//! message pipes.
//!
//! A [`Transport`] carries [`NetMsg`] frames — the session-protocol
//! alphabet plus the connection-scoped handshake — over either a real
//! `std::net` TCP stream ([`TcpTransport`]) or an in-memory channel
//! pair ([`MemTransport`], from [`mem_pair`]). Both run the *same*
//! length-prefixed codec from [`framing`](crate::framing): the
//! in-memory pair moves encoded frames, not Rust values, so every test
//! over it exercises the exact bytes TCP would carry.
//!
//! **One wire format out, both decoded**: every sender encodes the
//! binary payload of `cryptonn-wire`; every receiver sniffs each
//! payload's first byte, so a peer pinned to the seed JSON (through
//! [`TcpTransport::set_wire_format`]) is still understood. Nothing is
//! negotiated and nothing mirrors the peer (DESIGN.md §16).

use std::cell::Cell;
use std::io::BufReader;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{Receiver, SyncSender};
use std::time::Duration;

use cryptonn_wire::WireFormat;
use serde::{Deserialize, Serialize};

use cryptonn_protocol::{ClientId, SessionConfig, SessionId, WireMessage};

use crate::error::NetError;
use crate::framing::{encode_frame, encode_frame_into, read_frame, DEFAULT_MAX_FRAME};

/// Who is opening a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Peer {
    /// A data-owner client.
    Client(ClientId),
    /// The training server (connecting to the key authority).
    Server,
}

/// The connection handshake: names the session, the connecting role,
/// and the session agreement the peer must share.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// The session this connection belongs to.
    pub session: SessionId,
    /// The connecting role.
    pub peer: Peer,
    /// The wire-level session agreement; the first connection fixes it,
    /// later ones must match bit-for-bit.
    pub config: SessionConfig,
}

/// One frame on a CryptoNN transport.
#[allow(clippy::large_enum_variant)] // payloads are heap-dominated, as WireMessage
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetMsg {
    /// Connection handshake (first frame of every connection).
    Hello(Hello),
    /// A session-protocol message.
    Msg(WireMessage),
    /// The peer refuses or aborts the exchange with a reason.
    Reject(String),
}

/// The sending half of a transport. Sends are whole frames, so a
/// mutex around a `FrameTx` is enough to serialize concurrent writers.
pub trait FrameTx: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLarge`] past the cap, I/O failures, or a
    /// hung-up peer.
    fn send(&mut self, msg: &NetMsg) -> Result<(), NetError>;

    /// Tears the connection down, unblocking a peer (or a local reader
    /// thread) stuck in `recv`. Idempotent; errors are ignored.
    fn close(&mut self);
}

/// The receiving half of a transport.
pub trait FrameRx: Send {
    /// Receives one frame; `None` on a clean close.
    ///
    /// # Errors
    ///
    /// Typed framing errors ([`NetError::FrameTooLarge`],
    /// [`NetError::Truncated`], [`NetError::Malformed`]) and I/O
    /// failures.
    fn recv(&mut self) -> Result<Option<NetMsg>, NetError>;
}

/// A bidirectional framed pipe that can split into independently-owned
/// halves (a reader thread and a shared writer).
pub trait Transport: FrameTx + FrameRx {
    /// Splits into send and receive halves.
    fn split(self: Box<Self>) -> (Box<dyn FrameTx>, Box<dyn FrameRx>);
}

// ---------------------------------------------------------------- TCP

/// A framed codec over a `std::net::TcpStream`.
///
/// `TCP_NODELAY` is set: session frames are latency-sensitive
/// request/response traffic, and Nagle coalescing would stall the
/// per-step key exchanges.
#[derive(Debug)]
pub struct TcpTransport {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    max_frame: usize,
    /// Outbound payload format: binary unless pinned otherwise.
    format: Cell<WireFormat>,
    /// Reused encode buffer — one allocation per connection, not per
    /// frame.
    scratch: Vec<u8>,
}

impl TcpTransport {
    /// Wraps an accepted or connected stream; frames go out binary.
    ///
    /// # Errors
    ///
    /// Propagates `try_clone` failure.
    pub fn new(stream: TcpStream, max_frame: usize) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            writer: stream,
            reader,
            max_frame,
            format: Cell::new(WireFormat::Binary),
            scratch: Vec::new(),
        })
    }

    /// Pins this connection's *outbound* format — what a test uses to
    /// play a peer that still sends the seed JSON. The pin carries
    /// across [`Transport::split`]; inbound frames of either format
    /// decode regardless, and the peer answers in binary.
    pub fn set_wire_format(&self, format: WireFormat) {
        self.format.set(format);
    }

    /// Connects to `addr` with the given frame cap.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr, max_frame: usize) -> std::io::Result<Self> {
        Self::new(TcpStream::connect(addr)?, max_frame)
    }

    /// Connects to `addr`, giving up after `timeout`.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] (`during: "connect"`) when the deadline
    /// elapses before the handshake completes; [`NetError::Io`] on
    /// other connection failures.
    pub fn connect_timeout(
        addr: SocketAddr,
        max_frame: usize,
        timeout: Duration,
    ) -> Result<Self, NetError> {
        let stream = TcpStream::connect_timeout(&addr, timeout).map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ) {
                NetError::Timeout { during: "connect" }
            } else {
                NetError::Io(e.to_string())
            }
        })?;
        Ok(Self::new(stream, max_frame)?)
    }

    /// Bounds how long a `recv` may wait for the peer. `None` clears
    /// the bound. An elapsed deadline surfaces as
    /// [`NetError::Timeout`], so a driver can distinguish a quiet peer
    /// from a broken pipe and retry. The bound is a socket property:
    /// it survives [`Transport::split`].
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }
}

/// Assembles one frame in `format` into `scratch` and writes it whole
/// — the shared hot path of both TCP senders.
fn send_tcp_frame(
    writer: &mut TcpStream,
    msg: &NetMsg,
    max_frame: usize,
    format: WireFormat,
    scratch: &mut Vec<u8>,
) -> Result<(), NetError> {
    encode_frame_into(msg, max_frame, format, scratch)?;
    writer.write_all(scratch)?;
    writer.flush()?;
    Ok(())
}

impl FrameTx for TcpTransport {
    fn send(&mut self, msg: &NetMsg) -> Result<(), NetError> {
        send_tcp_frame(
            &mut self.writer,
            msg,
            self.max_frame,
            self.format.get(),
            &mut self.scratch,
        )
    }

    fn close(&mut self) {
        let _ = self.writer.shutdown(Shutdown::Both);
    }
}

impl FrameRx for TcpTransport {
    fn recv(&mut self) -> Result<Option<NetMsg>, NetError> {
        read_frame(&mut self.reader, self.max_frame)
    }
}

impl Transport for TcpTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameTx>, Box<dyn FrameRx>) {
        let tx = TcpFrameTx {
            writer: self.writer,
            max_frame: self.max_frame,
            format: self.format.get(),
            scratch: self.scratch,
        };
        let rx = TcpFrameRx {
            reader: self.reader,
            max_frame: self.max_frame,
        };
        (Box::new(tx), Box::new(rx))
    }
}

struct TcpFrameTx {
    writer: TcpStream,
    max_frame: usize,
    format: WireFormat,
    scratch: Vec<u8>,
}

impl FrameTx for TcpFrameTx {
    fn send(&mut self, msg: &NetMsg) -> Result<(), NetError> {
        send_tcp_frame(
            &mut self.writer,
            msg,
            self.max_frame,
            self.format,
            &mut self.scratch,
        )
    }

    fn close(&mut self) {
        let _ = self.writer.shutdown(Shutdown::Both);
    }
}

struct TcpFrameRx {
    reader: BufReader<TcpStream>,
    max_frame: usize,
}

impl FrameRx for TcpFrameRx {
    fn recv(&mut self) -> Result<Option<NetMsg>, NetError> {
        read_frame(&mut self.reader, self.max_frame)
    }
}

// ---------------------------------------------------------- in-memory

/// One end of an in-memory transport pair. Frames cross the channel in
/// their encoded byte form, so the codec (caps included) is exercised
/// exactly as over TCP; the bounded channel depth provides the same
/// backpressure a socket buffer would.
pub struct MemTransport {
    tx: Option<SyncSender<Vec<u8>>>,
    rx: Receiver<Vec<u8>>,
    max_frame: usize,
}

/// Builds a connected in-memory transport pair with the given channel
/// depth (frames buffered per direction before senders block) and
/// frame cap.
pub fn mem_pair(depth: usize, max_frame: usize) -> (MemTransport, MemTransport) {
    let (a_tx, a_rx) = std::sync::mpsc::sync_channel(depth.max(1));
    let (b_tx, b_rx) = std::sync::mpsc::sync_channel(depth.max(1));
    (
        MemTransport {
            tx: Some(a_tx),
            rx: b_rx,
            max_frame,
        },
        MemTransport {
            tx: Some(b_tx),
            rx: a_rx,
            max_frame,
        },
    )
}

/// [`mem_pair`] with the default frame cap and a small depth.
pub fn mem_pair_default() -> (MemTransport, MemTransport) {
    mem_pair(16, DEFAULT_MAX_FRAME)
}

fn send_mem_frame(
    tx: &Option<SyncSender<Vec<u8>>>,
    msg: &NetMsg,
    max_frame: usize,
) -> Result<(), NetError> {
    let frame = encode_frame(msg, max_frame)?;
    match tx {
        Some(tx) => tx.send(frame).map_err(|_| NetError::Disconnected),
        None => Err(NetError::Disconnected),
    }
}

impl FrameTx for MemTransport {
    fn send(&mut self, msg: &NetMsg) -> Result<(), NetError> {
        send_mem_frame(&self.tx, msg, self.max_frame)
    }

    fn close(&mut self) {
        self.tx.take();
    }
}

impl FrameRx for MemTransport {
    fn recv(&mut self) -> Result<Option<NetMsg>, NetError> {
        match self.rx.recv() {
            Ok(frame) => read_frame(&mut &frame[..], self.max_frame),
            Err(_) => Ok(None), // peer dropped: clean close
        }
    }
}

impl Transport for MemTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameTx>, Box<dyn FrameRx>) {
        let tx = MemFrameTx {
            tx: self.tx,
            max_frame: self.max_frame,
        };
        let rx = MemFrameRx {
            rx: self.rx,
            max_frame: self.max_frame,
        };
        (Box::new(tx), Box::new(rx))
    }
}

struct MemFrameTx {
    tx: Option<SyncSender<Vec<u8>>>,
    max_frame: usize,
}

impl FrameTx for MemFrameTx {
    fn send(&mut self, msg: &NetMsg) -> Result<(), NetError> {
        send_mem_frame(&self.tx, msg, self.max_frame)
    }

    fn close(&mut self) {
        self.tx.take();
    }
}

struct MemFrameRx {
    rx: Receiver<Vec<u8>>,
    max_frame: usize,
}

impl FrameRx for MemFrameRx {
    fn recv(&mut self) -> Result<Option<NetMsg>, NetError> {
        match self.rx.recv() {
            Ok(frame) => read_frame(&mut &frame[..], self.max_frame),
            Err(_) => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptonn_protocol::{ClientId, SessionId};

    #[test]
    fn mem_pair_roundtrips_frames() {
        let (mut a, mut b) = mem_pair_default();
        a.send(&NetMsg::Reject("nope".into())).unwrap();
        assert_eq!(b.recv().unwrap(), Some(NetMsg::Reject("nope".into())));
        b.send(&NetMsg::Reject("back".into())).unwrap();
        assert_eq!(a.recv().unwrap(), Some(NetMsg::Reject("back".into())));
        a.close();
        assert_eq!(b.recv().unwrap(), None);
    }

    #[test]
    fn mem_pair_enforces_frame_cap() {
        let (mut a, _b) = mem_pair(4, 8);
        let err = a.send(&NetMsg::Reject("way too long for 8 bytes".into()));
        assert!(matches!(err, Err(NetError::FrameTooLarge { max: 8, .. })));
    }

    #[test]
    fn read_timeout_surfaces_as_typed_timeout() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = std::thread::spawn(move || listener.accept().unwrap().0);
        let mut t =
            TcpTransport::connect_timeout(addr, DEFAULT_MAX_FRAME, Duration::from_secs(5)).unwrap();
        let _held_open = accept.join().unwrap(); // peer connected but silent
        t.set_read_timeout(Some(Duration::from_millis(30))).unwrap();
        match t.recv() {
            Err(NetError::Timeout { during }) => assert_eq!(during, "socket read"),
            other => panic!("expected Timeout, got {other:?}"),
        }
        // The deadline poisons nothing: clearing it restores blocking
        // reads, and a clean peer close still reads as None.
        t.set_read_timeout(None).unwrap();
        drop(_held_open);
        assert_eq!(t.recv().unwrap(), None);
    }

    #[test]
    fn connect_timeout_to_live_listener_succeeds() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = TcpTransport::connect_timeout(addr, DEFAULT_MAX_FRAME, Duration::from_secs(5));
        assert!(t.is_ok());
    }

    #[test]
    fn peer_roles_serialize() {
        let peer = Peer::Client(ClientId(3));
        let json = serde_json::to_string(&peer).unwrap();
        assert_eq!(serde_json::from_str::<Peer>(&json).unwrap(), peer);
        let _ = SessionId(7); // referenced: Hello carries it
    }
}
