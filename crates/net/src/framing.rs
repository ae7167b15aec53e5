//! The length-prefixed framed codec.
//!
//! Every message on a CryptoNN transport is one *frame*: a 4-byte
//! big-endian payload length followed by the payload — the binary
//! encoding of `cryptonn-wire`, which every sender writes. Readers
//! still decode the seed JSON, told apart by the payload's first byte
//! (DESIGN.md §16). Decoding is
//! defensive — the reader enforces a configurable payload cap *before*
//! allocating, distinguishes a clean close (EOF at a frame boundary)
//! from a truncated frame (EOF inside one), and surfaces garbage
//! payloads as a typed error — a hostile peer can fail a connection,
//! never panic or balloon the process.

use std::io::{ErrorKind, Read, Write};

use cryptonn_wire::WireFormat;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::error::NetError;

/// Default payload cap: generous for encrypted image batches at the
/// paper's dimensions, far below anything that could balloon a server.
pub const DEFAULT_MAX_FRAME: usize = 64 * 1024 * 1024;

/// Frame header size on the wire.
pub const FRAME_HEADER: usize = 4;

/// Encodes `msg` as one frame (header + binary payload). Only a test
/// playing a JSON peer needs [`encode_frame_fmt`].
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] if the encoded payload exceeds `max`;
/// [`NetError::Malformed`] on serializer failure.
pub fn encode_frame<T: Serialize>(msg: &T, max: usize) -> Result<Vec<u8>, NetError> {
    encode_frame_fmt(msg, max, WireFormat::Binary)
}

/// Encodes `msg` as one frame in `format`.
///
/// # Errors
///
/// As [`encode_frame`].
pub fn encode_frame_fmt<T: Serialize>(
    msg: &T,
    max: usize,
    format: WireFormat,
) -> Result<Vec<u8>, NetError> {
    let mut frame = Vec::new();
    encode_frame_into(msg, max, format, &mut frame)?;
    Ok(frame)
}

/// Encodes `msg` as one frame in `format` into `buf` (cleared first) —
/// the allocation-reuse entry point: a connection writer keeps one
/// scratch buffer across sends instead of allocating per frame, and
/// the payload is serialized directly behind the header with no
/// string→bytes copy.
///
/// # Errors
///
/// As [`encode_frame`]. On error `buf` contents are unspecified.
pub fn encode_frame_into<T: Serialize>(
    msg: &T,
    max: usize,
    format: WireFormat,
    buf: &mut Vec<u8>,
) -> Result<(), NetError> {
    buf.clear();
    buf.extend_from_slice(&[0u8; FRAME_HEADER]);
    cryptonn_wire::append_payload(msg, format, buf)
        .map_err(|e| NetError::Malformed(e.to_string()))?;
    let len = buf.len() - FRAME_HEADER;
    if len > max {
        return Err(NetError::FrameTooLarge { len, max });
    }
    buf[..FRAME_HEADER].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// Writes `msg` as one frame. The frame is assembled first and written
/// with a single `write_all`, so concurrent writers serialized by a
/// lock never interleave partial frames.
///
/// # Errors
///
/// As [`encode_frame`], plus I/O failures.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T, max: usize) -> Result<(), NetError> {
    let frame = encode_frame(msg, max)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame of either payload format, returning `None` on a
/// clean close (EOF exactly at a frame boundary).
///
/// # Errors
///
/// - [`NetError::FrameTooLarge`] if the header announces a payload
///   beyond `max` — detected before any allocation;
/// - [`NetError::Truncated`] if the stream ends inside the header or
///   the payload;
/// - [`NetError::Malformed`] if the payload does not decode;
/// - [`NetError::Timeout`] when a read deadline (`SO_RCVTIMEO`)
///   elapses mid-wait;
/// - [`NetError::Io`] on other I/O failures.
pub fn read_frame<R: Read, T: DeserializeOwned>(
    r: &mut R,
    max: usize,
) -> Result<Option<T>, NetError> {
    let mut header = [0u8; FRAME_HEADER];
    match read_exact_or_eof(r, &mut header)? {
        Filled::Eof => return Ok(None),
        Filled::Partial(got) => {
            return Err(NetError::Truncated {
                missing: FRAME_HEADER - got,
            })
        }
        Filled::Complete => {}
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(NetError::FrameTooLarge { len, max });
    }
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(r, &mut payload)? {
        Filled::Complete => {}
        Filled::Eof => return Err(NetError::Truncated { missing: len }),
        Filled::Partial(got) => return Err(NetError::Truncated { missing: len - got }),
    }
    // Decoded straight from bytes — the format dispatcher sniffs, the
    // JSON parser validates UTF-8 only where it matters (no
    // whole-payload `from_utf8` pre-pass).
    cryptonn_wire::decode_payload(&payload)
        .map(Some)
        .map_err(|e| NetError::Malformed(e.to_string()))
}

enum Filled {
    /// The buffer was filled completely.
    Complete,
    /// EOF before the first byte.
    Eof,
    /// EOF after `n` bytes.
    Partial(usize),
}

/// `read_exact`, but distinguishing "EOF at the boundary" from "EOF
/// mid-buffer" — the difference between a closed connection and a
/// truncated frame.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<Filled, NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Filled::Eof
                } else {
                    Filled::Partial(filled)
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // A blocking read under SO_RCVTIMEO reports its elapsed
            // deadline as either kind depending on the platform; both
            // mean "the peer went quiet", not "the pipe broke". This is
            // the only place WouldBlock becomes a timeout — the framed
            // readers run on blocking sockets, where it cannot mean
            // "retry".
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(NetError::Timeout {
                    during: "socket read",
                })
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Filled::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &vec![1u32, 2, 3], DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, &"hello".to_string(), DEFAULT_MAX_FRAME).unwrap();
        let mut r = &buf[..];
        let a: Vec<u32> = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap();
        let b: String = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(b, "hello");
        assert!(read_frame::<_, String>(&mut r, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none());
    }

    #[test]
    fn oversized_frames_are_refused_on_both_sides() {
        let big = "x".repeat(100);
        assert!(matches!(
            encode_frame(&big, 16),
            Err(NetError::FrameTooLarge { max: 16, .. })
        ));
        // A hostile header announcing a huge payload is refused before
        // allocation.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(b"whatever");
        assert!(matches!(
            read_frame::<_, String>(&mut &wire[..], 1024),
            Err(NetError::FrameTooLarge { max: 1024, .. })
        ));
    }

    #[test]
    fn truncation_is_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &"payload".to_string(), 1024).unwrap();
        // Chop inside the payload.
        wire.truncate(wire.len() - 3);
        assert!(matches!(
            read_frame::<_, String>(&mut &wire[..], 1024),
            Err(NetError::Truncated { .. })
        ));
        // Chop inside the header.
        assert!(matches!(
            read_frame::<_, String>(&mut &wire[..2], 1024),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn encode_buffer_is_reusable() {
        let mut buf = Vec::new();
        encode_frame_into(&"first".to_string(), 1024, WireFormat::Binary, &mut buf).unwrap();
        let first = buf.clone();
        encode_frame_into(&"x".to_string(), 1024, WireFormat::Json, &mut buf).unwrap();
        assert_ne!(buf, first);
        let mut r = &buf[..];
        assert_eq!(
            read_frame::<_, String>(&mut r, 1024).unwrap().as_deref(),
            Some("x")
        );
    }

    #[test]
    fn garbage_payload_is_malformed_not_a_panic() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&4u32.to_be_bytes());
        wire.extend_from_slice(&[0xff, 0x00, 0xfe, 0x01]);
        assert!(matches!(
            read_frame::<_, String>(&mut &wire[..], 1024),
            Err(NetError::Malformed(_))
        ));
    }
}
