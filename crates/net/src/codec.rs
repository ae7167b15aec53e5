//! The incremental frame codec: the length-prefixed wire format of
//! [`framing`](crate::framing), reworked for nonblocking I/O.
//!
//! The blocking codec reads exactly one frame per call and writes whole
//! frames with `write_all`; a readiness-driven reactor gets neither
//! luxury. [`FrameDecoder`] consumes *arbitrary* byte chunks — a single
//! byte, half a header, three frames and a tail — and yields complete
//! frames as they materialize, bit-identical to what
//! [`read_frame`](crate::framing::read_frame) would have produced on
//! the same stream. [`OutboundQueue`] holds encoded frames awaiting a
//! writable socket, survives short writes mid-frame, and enforces a
//! byte bound — the reactor's backpressure boundary: a peer that stops
//! reading fills its queue and is disconnected rather than ballooning
//! the process.
//!
//! The wire format is the blocking codec's (4-byte big-endian length +
//! payload), so reactor and thread-per-connection peers interoperate
//! frame-for-frame; the equivalence proptests in
//! `tests/codec_proptests.rs` pin this down at every chunk boundary.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};

use serde::de::DeserializeOwned;

use crate::error::NetError;
use crate::framing::FRAME_HEADER;

/// An incremental decoder for the length-prefixed frame stream.
///
/// Feed raw bytes with [`extend`](Self::extend) as the socket yields
/// them; drain complete frames with [`next_msg`](Self::next_msg). The
/// decoder enforces the frame cap from the *header* — a hostile peer
/// announcing an oversized payload is refused before its bytes are
/// buffered — and its memory is bounded by the cap plus one read
/// chunk.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by yielded frames; compacted
    /// away once they dominate the buffer.
    start: usize,
    max_frame: usize,
}

impl FrameDecoder {
    /// An empty decoder enforcing `max_frame` as the payload cap.
    pub fn new(max_frame: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Appends raw stream bytes.
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLarge`] if the buffered prefix already
    /// announces a payload beyond the cap — checked here as well as in
    /// [`next_msg`](Self::next_msg) so a hostile header poisons the
    /// connection before its payload accumulates.
    pub fn extend(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        // Compact before growing: once the consumed prefix outweighs
        // the live tail, move the tail down instead of reallocating.
        if self.start > 0 && self.start >= self.buf.len() - self.start {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
        if let Some(len) = self.pending_len() {
            if len > self.max_frame {
                return Err(NetError::FrameTooLarge {
                    len,
                    max: self.max_frame,
                });
            }
        }
        Ok(())
    }

    /// The announced payload length of the frame at the buffer head,
    /// once its header is complete.
    fn pending_len(&self) -> Option<usize> {
        let live = &self.buf[self.start..];
        if live.len() < FRAME_HEADER {
            return None;
        }
        let mut header = [0u8; FRAME_HEADER];
        header.copy_from_slice(&live[..FRAME_HEADER]);
        Some(u32::from_be_bytes(header) as usize)
    }

    /// Yields the next complete frame's payload bytes, or `None` if the
    /// buffer holds only a partial frame.
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLarge`] past the cap.
    pub fn next_payload(&mut self) -> Result<Option<&[u8]>, NetError> {
        let Some(len) = self.pending_len() else {
            return Ok(None);
        };
        if len > self.max_frame {
            return Err(NetError::FrameTooLarge {
                len,
                max: self.max_frame,
            });
        }
        if self.buf.len() - self.start < FRAME_HEADER + len {
            return Ok(None);
        }
        let at = self.start + FRAME_HEADER;
        self.start = at + len;
        Ok(Some(&self.buf[at..at + len]))
    }

    /// Yields the next complete frame, decoded, or `None` if the buffer
    /// holds only a partial frame.
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLarge`] past the cap;
    /// [`NetError::Malformed`] if a complete payload does not decode —
    /// exactly the taxonomy of the blocking
    /// [`read_frame`](crate::framing::read_frame).
    pub fn next_msg<T: DeserializeOwned>(&mut self) -> Result<Option<T>, NetError> {
        // Decoded straight from the buffered bytes — sniffed dispatch,
        // no whole-payload `from_utf8` pre-pass.
        self.next_payload()?
            .map(cryptonn_wire::decode_payload)
            .transpose()
            .map_err(|e| NetError::Malformed(e.to_string()))
    }

    /// Bytes buffered but not yet consumed by a yielded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when the stream sits exactly at a frame boundary — an EOF
    /// here is a clean close, anywhere else a truncated frame.
    pub fn at_boundary(&self) -> bool {
        self.buffered() == 0
    }

    /// The typed error an EOF at the current position deserves: `None`
    /// at a frame boundary (clean close), [`NetError::Truncated`]
    /// mid-frame, with the missing byte count when the header already
    /// announced it.
    pub fn eof_error(&self) -> Option<NetError> {
        if self.at_boundary() {
            return None;
        }
        let missing = match self.pending_len() {
            Some(len) => (FRAME_HEADER + len).saturating_sub(self.buffered()),
            None => FRAME_HEADER - self.buffered(),
        };
        Some(NetError::Truncated { missing })
    }
}

/// How a flush attempt left the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteProgress {
    /// Every queued byte reached the socket.
    Drained,
    /// The socket stopped accepting bytes (`WouldBlock`) with frames
    /// still queued — keep write interest registered.
    Blocked,
}

/// A bounded queue of encoded outbound frames tolerating short writes.
///
/// Frames enter whole (already encoded); [`write_to`](Self::write_to)
/// pushes as many bytes as the socket accepts, remembering the offset
/// inside a partially-written frame. The byte bound is the reactor's
/// backpressure discipline: pushing past it fails, and the caller's
/// policy (disconnect the slow consumer) keeps one unread peer from
/// holding the daemon's memory hostage.
#[derive(Debug)]
pub struct OutboundQueue {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written.
    front_written: usize,
    queued_bytes: usize,
    max_bytes: usize,
}

impl OutboundQueue {
    /// An empty queue refusing to hold more than `max_bytes` of
    /// undelivered frames.
    pub fn new(max_bytes: usize) -> Self {
        Self {
            frames: VecDeque::new(),
            front_written: 0,
            queued_bytes: 0,
            max_bytes: max_bytes.max(1),
        }
    }

    /// Enqueues one encoded frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Backpressure`] if the queue already holds
    /// `max_bytes` or more — the peer is not draining its socket.
    pub fn push(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        if self.queued_bytes >= self.max_bytes {
            return Err(NetError::Backpressure {
                queued: self.queued_bytes,
                max: self.max_bytes,
            });
        }
        self.queued_bytes += frame.len();
        self.frames.push_back(frame);
        Ok(())
    }

    /// Writes queued bytes until the sink blocks or the queue drains.
    /// Partial writes leave the offset mid-frame; the next call resumes
    /// exactly there, so the byte stream is identical to a blocking
    /// `write_all` of the same frames.
    ///
    /// # Errors
    ///
    /// I/O failures other than `WouldBlock` (which is
    /// [`WriteProgress::Blocked`], not an error).
    pub fn write_to<W: Write>(&mut self, w: &mut W) -> Result<WriteProgress, NetError> {
        while let Some(front) = self.frames.front() {
            match w.write(&front[self.front_written..]) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => {
                    self.front_written += n;
                    self.queued_bytes -= n;
                    if self.front_written == front.len() {
                        self.frames.pop_front();
                        self.front_written = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(WriteProgress::Blocked),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(WriteProgress::Drained)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Undelivered bytes currently queued.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{encode_frame, DEFAULT_MAX_FRAME};

    #[test]
    fn single_byte_feed_reassembles_frames() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&encode_frame(&"alpha".to_string(), DEFAULT_MAX_FRAME).unwrap());
        wire.extend_from_slice(&encode_frame(&vec![1u32, 2, 3], DEFAULT_MAX_FRAME).unwrap());

        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut got_a: Option<String> = None;
        let mut got_b: Option<Vec<u32>> = None;
        for &b in &wire {
            dec.extend(&[b]).unwrap();
            if got_a.is_none() {
                got_a = dec.next_msg().unwrap();
            } else if got_b.is_none() {
                got_b = dec.next_msg().unwrap();
            }
        }
        assert_eq!(got_a.as_deref(), Some("alpha"));
        assert_eq!(got_b, Some(vec![1, 2, 3]));
        assert!(dec.at_boundary());
        assert!(dec.eof_error().is_none());
    }

    #[test]
    fn hostile_header_is_refused_before_payload_arrives() {
        let mut dec = FrameDecoder::new(1024);
        let err = dec.extend(&u32::MAX.to_be_bytes()).unwrap_err();
        assert!(matches!(err, NetError::FrameTooLarge { max: 1024, .. }));
    }

    #[test]
    fn eof_mid_frame_is_typed_truncation() {
        let frame = encode_frame(&"payload".to_string(), 1024).unwrap();
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&frame[..frame.len() - 3]).unwrap();
        assert_eq!(dec.next_msg::<String>().unwrap(), None);
        assert!(matches!(
            dec.eof_error(),
            Some(NetError::Truncated { missing: 3 })
        ));
        // Inside the header, the header's remainder is what is missing.
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&frame[..2]).unwrap();
        assert!(matches!(
            dec.eof_error(),
            Some(NetError::Truncated { missing: 2 })
        ));
    }

    #[test]
    fn garbage_payload_is_malformed() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&4u32.to_be_bytes());
        wire.extend_from_slice(&[0xff, 0x00, 0xfe, 0x01]);
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&wire).unwrap();
        assert!(matches!(
            dec.next_msg::<String>(),
            Err(NetError::Malformed(_))
        ));
    }

    /// A sink accepting at most `n` bytes per write, blocking every
    /// other call — the worst-case short-write socket.
    struct Dribble {
        out: Vec<u8>,
        per_write: usize,
        block_next: bool,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            self.block_next = true;
            let n = buf.len().min(self.per_write);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_produce_the_exact_blocking_byte_stream() {
        let frames: Vec<Vec<u8>> = ["one", "two", "three"]
            .iter()
            .map(|s| encode_frame(&s.to_string(), 1024).unwrap())
            .collect();
        let expected: Vec<u8> = frames.iter().flatten().copied().collect();

        let mut q = OutboundQueue::new(1 << 20);
        for f in &frames {
            q.push(f.clone()).unwrap();
        }
        let mut sink = Dribble {
            out: Vec::new(),
            per_write: 3,
            block_next: false,
        };
        loop {
            match q.write_to(&mut sink).unwrap() {
                WriteProgress::Drained => break,
                WriteProgress::Blocked => continue,
            }
        }
        assert_eq!(sink.out, expected);
        assert!(q.is_empty());
        assert_eq!(q.queued_bytes(), 0);
    }

    #[test]
    fn queue_bound_is_enforced() {
        let mut q = OutboundQueue::new(8);
        q.push(vec![0u8; 8]).unwrap();
        let err = q.push(vec![0u8; 1]).unwrap_err();
        assert!(matches!(err, NetError::Backpressure { queued: 8, max: 8 }));
    }
}
