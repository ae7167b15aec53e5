//! The binary wire codec (DESIGN.md §16).
//!
//! Every CryptoNN frame payload is one serde [`Value`] tree, and every
//! sender encodes it with this crate's bincode-shaped binary encoding:
//! width-tagged little-endian integers, length-prefixed strings and
//! sequences, varint-free. The seed JSON encoding stays decodable:
//!
//! - **Self-identifying payloads.** A binary payload starts with
//!   [`BINARY_MAGIC`] (`0xB1`), a byte that can never begin a JSON
//!   document (it is a UTF-8 continuation byte, and JSON starts with
//!   ASCII). [`decode_payload`] sniffs every payload with
//!   [`WireFormat::sniff`], so a peer that still sends JSON is
//!   understood without any handshake field.
//! - **Narrow integers.** An integer is written under a tag that names
//!   its width — the narrowest of 1, 2, 4 or 8 bytes — and values in
//!   `-32..=31` (signed) or `0..=31` (unsigned) ride in the tag byte
//!   itself, so a frame of small weights is never larger than its JSON
//!   text. The tag names the width; there are no continuation bits.
//! - **Raw limb bytes.** Group elements serialize as [`Value::Bytes`]
//!   (minimal little-endian limbs). JSON renders them as the legacy
//!   hex strings; the binary encoding carries the raw bytes — the
//!   vendored analogue of real serde's `is_human_readable()` seam.
//!   Blobs up to 255 bytes (every group element at every supported
//!   level) take a one-byte length; longer ones a four-byte length.
//! - **Per-payload string interning.** Map keys and enum tags repeat
//!   heavily in a frame (one `"cmt"`/`"value"` pair per ciphertext
//!   cell); the first occurrence is written inline and both sides
//!   register it, later occurrences are a 5-byte back-reference.
//! - **Defensive decoding.** Length and count prefixes are validated
//!   against the remaining input *before* allocation, nesting depth is
//!   bounded, and every failure is a typed [`WireError`] — hostile
//!   bytes can fail a connection, never panic or balloon a process.

use std::collections::HashMap;

use serde::de::DeserializeOwned;
use serde::{Serialize, Value};

/// First byte of every binary payload. `0xB1` is a UTF-8 continuation
/// byte: no JSON document (which begins with ASCII `{`, `[`, `"`, a
/// digit, `-`, `t`, `f`, or `n`) can start with it, so a payload's
/// first byte alone names its format.
pub const BINARY_MAGIC: u8 = 0xB1;

/// Second byte of every binary payload: the encoding version. Bumped
/// only for incompatible changes; decoders refuse versions they do not
/// know instead of misreading them. Version 2 added the narrow integer
/// tags.
pub const BINARY_VERSION: u8 = 0x02;

/// Nesting bound while decoding — hostile deeply-nested input fails
/// with a typed error instead of overflowing the stack. Real payloads
/// nest a dozen levels at most.
const MAX_DEPTH: usize = 96;

/// Strings longer than this are never interned (hex blobs would bloat
/// the table for one-shot wins); map keys and enum tags are short.
const INTERN_MAX_LEN: usize = 64;

/// Intern-table entry cap per payload, both sides. Beyond it, strings
/// keep being written inline — correctness is unaffected, only
/// compression degrades.
const INTERN_MAX_ENTRIES: usize = 4096;

// Value tags. Fixed-width payloads follow each tag directly.
const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_I64: u8 = 0x03;
const TAG_U64: u8 = 0x04;
const TAG_F64: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_STR_REF: u8 = 0x07;
const TAG_BYTES: u8 = 0x08;
const TAG_SEQ: u8 = 0x09;
const TAG_MAP: u8 = 0x0a;
/// Byte strings up to 255 bytes — one length byte instead of four.
/// Group elements (8–32 bytes of limbs) are the dominant leaf of every
/// encrypted frame, so the shorter fixed-width form is what almost all
/// real payload bytes use; the u32 form stays for bulk blobs. Not a
/// varint: which form applies is named by the tag, never by
/// continuation bits.
const TAG_BYTES8: u8 = 0x0b;
/// Integers narrower than eight bytes: the tag names the width (1, 2
/// or 4 little-endian bytes follow), and the decoder widens back to the
/// same [`Value`] variant. `TAG_I64` / `TAG_U64` are the 8-byte forms.
const TAG_I8: u8 = 0x0c;
const TAG_I16: u8 = 0x0d;
const TAG_I32: u8 = 0x0e;
const TAG_U8: u8 = 0x0f;
const TAG_U16: u8 = 0x10;
const TAG_U32: u8 = 0x11;
/// Tiny integers live in the tag byte itself: `TAG_TINY_U + n` for an
/// unsigned `n` in `0..=31`, `TAG_TINY_I + 32 + n` for a signed `n` in
/// `-32..=31`. Without them a one-byte value costs two bytes — as much
/// as its JSON digit and comma — and the four-byte sequence count
/// would leave a row of unit weights larger than its JSON text.
const TAG_TINY_U: u8 = 0x20;
const TAG_TINY_U_LAST: u8 = 0x3f;
const TAG_TINY_I: u8 = 0x40;
const TAG_TINY_I_LAST: u8 = 0x7f;
const TINY_U_MAX: u64 = 31;
const TINY_I_MIN: i64 = -32;
const TINY_I_MAX: i64 = 31;

/// Which encoding a frame payload carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// Compact JSON text (the seed encoding; still decoded, no longer
    /// sent by any connection).
    Json,
    /// The binary value encoding defined by this crate.
    Binary,
}

impl WireFormat {
    /// Names the format a payload carries by its first byte. Empty
    /// payloads sniff as JSON (and will fail JSON decoding with a
    /// proper error).
    pub fn sniff(payload: &[u8]) -> Self {
        match payload.first() {
            Some(&BINARY_MAGIC) => WireFormat::Binary,
            _ => WireFormat::Json,
        }
    }
}

/// Errors from binary encoding or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "binary wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

// ------------------------------------------------------------ encode

/// Serializes `value` into one binary payload (magic, version, value
/// tree).
///
/// # Errors
///
/// [`WireError`] if the value contains a non-finite float (parity with
/// the JSON writer) or overflows a `u32` length prefix.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    append_to_vec(value, &mut out)?;
    Ok(out)
}

/// Appends `value`'s binary payload to `out` — the allocation-reuse
/// entry point for frame assembly. On error, `out` may hold a partial
/// encoding; the caller owns truncating back to its checkpoint.
///
/// # Errors
///
/// As [`to_vec`].
pub fn append_to_vec<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) -> Result<(), WireError> {
    let v = serde::ser::to_value(value);
    out.push(BINARY_MAGIC);
    out.push(BINARY_VERSION);
    let mut interned: HashMap<String, u32> = HashMap::new();
    encode_value(&v, out, &mut interned)
}

fn write_len(len: usize, out: &mut Vec<u8>) -> Result<(), WireError> {
    let n = u32::try_from(len).map_err(|_| WireError(format!("length {len} overflows u32")))?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

fn encode_str(
    s: &str,
    out: &mut Vec<u8>,
    interned: &mut HashMap<String, u32>,
) -> Result<(), WireError> {
    if let Some(&idx) = interned.get(s) {
        out.push(TAG_STR_REF);
        out.extend_from_slice(&idx.to_le_bytes());
        return Ok(());
    }
    out.push(TAG_STR);
    write_len(s.len(), out)?;
    out.extend_from_slice(s.as_bytes());
    if s.len() <= INTERN_MAX_LEN && interned.len() < INTERN_MAX_ENTRIES {
        interned.insert(s.to_owned(), interned.len() as u32);
    }
    Ok(())
}

/// Writes a signed integer in the narrowest form that holds it.
fn encode_i64(n: i64, out: &mut Vec<u8>) {
    if (TINY_I_MIN..=TINY_I_MAX).contains(&n) {
        out.push(TAG_TINY_I + (n - TINY_I_MIN) as u8);
    } else if let Ok(n) = i8::try_from(n) {
        out.push(TAG_I8);
        out.extend_from_slice(&n.to_le_bytes());
    } else if let Ok(n) = i16::try_from(n) {
        out.push(TAG_I16);
        out.extend_from_slice(&n.to_le_bytes());
    } else if let Ok(n) = i32::try_from(n) {
        out.push(TAG_I32);
        out.extend_from_slice(&n.to_le_bytes());
    } else {
        out.push(TAG_I64);
        out.extend_from_slice(&n.to_le_bytes());
    }
}

/// Writes an unsigned integer in the narrowest form that holds it.
fn encode_u64(n: u64, out: &mut Vec<u8>) {
    if n <= TINY_U_MAX {
        out.push(TAG_TINY_U + n as u8);
    } else if let Ok(n) = u8::try_from(n) {
        out.push(TAG_U8);
        out.push(n);
    } else if let Ok(n) = u16::try_from(n) {
        out.push(TAG_U16);
        out.extend_from_slice(&n.to_le_bytes());
    } else if let Ok(n) = u32::try_from(n) {
        out.push(TAG_U32);
        out.extend_from_slice(&n.to_le_bytes());
    } else {
        out.push(TAG_U64);
        out.extend_from_slice(&n.to_le_bytes());
    }
}

fn encode_value(
    v: &Value,
    out: &mut Vec<u8>,
    interned: &mut HashMap<String, u32>,
) -> Result<(), WireError> {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::I64(n) => encode_i64(*n, out),
        Value::U64(n) => encode_u64(*n, out),
        Value::F64(f) => {
            if !f.is_finite() {
                return Err(WireError("cannot encode non-finite float".into()));
            }
            out.push(TAG_F64);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => encode_str(s, out, interned)?,
        Value::Bytes(b) => {
            if let Ok(short) = u8::try_from(b.len()) {
                out.push(TAG_BYTES8);
                out.push(short);
            } else {
                out.push(TAG_BYTES);
                write_len(b.len(), out)?;
            }
            out.extend_from_slice(b);
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            write_len(items.len(), out)?;
            for item in items {
                encode_value(item, out, interned)?;
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            write_len(entries.len(), out)?;
            for (k, item) in entries {
                encode_str(k, out, interned)?;
                encode_value(item, out, interned)?;
            }
        }
    }
    Ok(())
}

// ------------------------------------------------------------ decode

/// Deserializes a typed value from one binary payload.
///
/// # Errors
///
/// [`WireError`] on a missing/foreign magic, an unknown version,
/// malformed bytes (bad tag, truncated fixed-width field, length
/// prefix past the input, dangling intern reference, over-deep
/// nesting, trailing bytes), or a type mismatch in the typed
/// conversion.
pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, WireError> {
    let value = parse_payload(bytes)?;
    serde::de::from_value(value).map_err(|e| WireError(e.to_string()))
}

/// Parses one binary payload into its [`Value`] tree.
///
/// # Errors
///
/// As [`from_slice`], minus the typed conversion.
pub fn parse_payload(bytes: &[u8]) -> Result<Value, WireError> {
    let mut d = Decoder {
        bytes,
        pos: 0,
        interned: Vec::new(),
    };
    match d.take_byte("magic")? {
        BINARY_MAGIC => {}
        other => {
            return Err(WireError(format!(
                "not a binary payload (first byte {other:#04x})"
            )))
        }
    }
    match d.take_byte("version")? {
        BINARY_VERSION => {}
        other => {
            return Err(WireError(format!(
                "unknown binary wire version {other:#04x}"
            )))
        }
    }
    let v = d.parse_value(0)?;
    if d.pos != d.bytes.len() {
        return Err(WireError(format!(
            "{} trailing bytes after the value",
            d.bytes.len() - d.pos
        )));
    }
    Ok(v)
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    interned: Vec<String>,
}

impl Decoder<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take_byte(&mut self, what: &str) -> Result<u8, WireError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| WireError(format!("input ended before {what}")))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&[u8], WireError> {
        if self.remaining() < n {
            return Err(WireError(format!(
                "input ended inside {what} ({} of {n} bytes left)",
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], WireError> {
        let mut buf = [0u8; N];
        buf.copy_from_slice(self.take(N, what)?);
        Ok(buf)
    }

    fn take_len(&mut self, what: &str) -> Result<usize, WireError> {
        Ok(self.take_array(what).map(u32::from_le_bytes)? as usize)
    }

    fn take_str(&mut self, tag: u8) -> Result<String, WireError> {
        match tag {
            TAG_STR => {
                let len = self.take_len("string length")?;
                // Validated against remaining input before allocation:
                // a hostile prefix cannot balloon memory.
                let raw = self.take(len, "string contents")?;
                let s = std::str::from_utf8(raw)
                    .map_err(|_| WireError("invalid UTF-8 in string".into()))?
                    .to_owned();
                if s.len() <= INTERN_MAX_LEN && self.interned.len() < INTERN_MAX_ENTRIES {
                    self.interned.push(s.clone());
                }
                Ok(s)
            }
            TAG_STR_REF => {
                let idx = self.take_len("string reference")?;
                self.interned
                    .get(idx)
                    .cloned()
                    .ok_or_else(|| WireError(format!("dangling string reference {idx}")))
            }
            other => Err(WireError(format!(
                "expected a string, got tag {other:#04x}"
            ))),
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError(format!("nesting deeper than {MAX_DEPTH}")));
        }
        let tag = self.take_byte("value tag")?;
        Ok(match tag {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_TINY_U..=TAG_TINY_U_LAST => Value::U64(u64::from(tag - TAG_TINY_U)),
            TAG_TINY_I..=TAG_TINY_I_LAST => Value::I64(i64::from(tag - TAG_TINY_I) + TINY_I_MIN),
            TAG_I8 => Value::I64(self.take_array("i8").map(i8::from_le_bytes)?.into()),
            TAG_I16 => Value::I64(self.take_array("i16").map(i16::from_le_bytes)?.into()),
            TAG_I32 => Value::I64(self.take_array("i32").map(i32::from_le_bytes)?.into()),
            TAG_I64 => Value::I64(self.take_array("i64").map(i64::from_le_bytes)?),
            TAG_U8 => Value::U64(self.take_byte("u8")?.into()),
            TAG_U16 => Value::U64(self.take_array("u16").map(u16::from_le_bytes)?.into()),
            TAG_U32 => Value::U64(self.take_array("u32").map(u32::from_le_bytes)?.into()),
            TAG_U64 => Value::U64(self.take_array("u64").map(u64::from_le_bytes)?),
            TAG_F64 => {
                let f = f64::from_le_bytes(self.take_array("f64")?);
                if !f.is_finite() {
                    return Err(WireError("non-finite float on the wire".into()));
                }
                Value::F64(f)
            }
            TAG_STR | TAG_STR_REF => Value::Str(self.take_str(tag)?),
            TAG_BYTES => {
                let len = self.take_len("byte-string length")?;
                Value::Bytes(self.take(len, "byte-string contents")?.to_vec())
            }
            TAG_BYTES8 => {
                let len = self.take_byte("short byte-string length")? as usize;
                Value::Bytes(self.take(len, "byte-string contents")?.to_vec())
            }
            TAG_SEQ => {
                let count = self.take_len("sequence count")?;
                // Every element costs at least one tag byte, so a count
                // past the remaining input is a lie — refuse it before
                // reserving capacity.
                if count > self.remaining() {
                    return Err(WireError(format!(
                        "sequence count {count} exceeds the {} remaining bytes",
                        self.remaining()
                    )));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.parse_value(depth + 1)?);
                }
                Value::Seq(items)
            }
            TAG_MAP => {
                let count = self.take_len("map count")?;
                if count > self.remaining() {
                    return Err(WireError(format!(
                        "map count {count} exceeds the {} remaining bytes",
                        self.remaining()
                    )));
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let key_tag = self.take_byte("map key tag")?;
                    let key = self.take_str(key_tag)?;
                    let value = self.parse_value(depth + 1)?;
                    entries.push((key, value));
                }
                Value::Map(entries)
            }
            other => return Err(WireError(format!("unknown value tag {other:#04x}"))),
        })
    }
}

// --------------------------------------------------- format dispatch

/// Appends `value` to `out` in `format` — JSON text or the binary
/// payload. The single switch point frame assembly goes through.
///
/// # Errors
///
/// The underlying encoder's errors, stringified into [`WireError`].
pub fn append_payload<T: Serialize + ?Sized>(
    value: &T,
    format: WireFormat,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    match format {
        WireFormat::Json => {
            serde_json::append_to_vec(value, out).map_err(|e| WireError(e.to_string()))
        }
        WireFormat::Binary => append_to_vec(value, out),
    }
}

/// Decodes one payload of either format, sniffing by the first byte.
///
/// # Errors
///
/// The matching decoder's errors, stringified into [`WireError`].
pub fn decode_payload<T: DeserializeOwned>(payload: &[u8]) -> Result<T, WireError> {
    match WireFormat::sniff(payload) {
        WireFormat::Json => serde_json::from_slice(payload).map_err(|e| WireError(e.to_string())),
        WireFormat::Binary => from_slice(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I64(-42),
            Value::U64(u64::MAX),
            Value::F64(-1.5),
            Value::Str("hello".into()),
            Value::Bytes(vec![0xde, 0xad, 0x00]),
        ] {
            let bytes = to_vec(&v).unwrap();
            assert_eq!(bytes[0], BINARY_MAGIC);
            let back = parse_payload(&bytes).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn integers_take_the_narrowest_width_and_keep_their_variant() {
        // (value, encoded length after magic and version).
        let signed = [
            (0, 1),
            (1, 1),
            (-1, 1),
            (TINY_I_MIN, 1),
            (TINY_I_MAX, 1),
            (TINY_I_MIN - 1, 2),
            (TINY_I_MAX + 1, 2),
            (i64::from(i8::MIN), 2),
            (i64::from(i8::MAX), 2),
            (i64::from(i8::MIN) - 1, 3),
            (i64::from(i8::MAX) + 1, 3),
            (i64::from(i16::MIN), 3),
            (i64::from(i16::MAX), 3),
            (i64::from(i16::MIN) - 1, 5),
            (i64::from(i16::MAX) + 1, 5),
            (i64::from(i32::MIN), 5),
            (i64::from(i32::MAX), 5),
            (i64::from(i32::MIN) - 1, 9),
            (i64::from(i32::MAX) + 1, 9),
            (i64::MIN, 9),
            (i64::MAX, 9),
        ];
        for (n, len) in signed {
            let bytes = to_vec(&Value::I64(n)).unwrap();
            assert_eq!(bytes.len(), 2 + len, "I64({n})");
            assert_eq!(parse_payload(&bytes).unwrap(), Value::I64(n));
        }
        let unsigned = [
            (0, 1),
            (1, 1),
            (TINY_U_MAX, 1),
            (TINY_U_MAX + 1, 2),
            (u64::from(u8::MAX), 2),
            (u64::from(u8::MAX) + 1, 3),
            (u64::from(u16::MAX), 3),
            (u64::from(u16::MAX) + 1, 5),
            (u64::from(u32::MAX), 5),
            (u64::from(u32::MAX) + 1, 9),
            (u64::MAX, 9),
        ];
        for (n, len) in unsigned {
            let bytes = to_vec(&Value::U64(n)).unwrap();
            assert_eq!(bytes.len(), 2 + len, "U64({n})");
            assert_eq!(parse_payload(&bytes).unwrap(), Value::U64(n));
        }
        // Truncated narrow forms fail typed.
        for tag in [TAG_I16, TAG_I32, TAG_U16, TAG_U32] {
            assert!(parse_payload(&[BINARY_MAGIC, BINARY_VERSION, tag, 1]).is_err());
        }
    }

    #[test]
    fn interning_compresses_repeated_keys() {
        let row = Value::Map(vec![
            ("commitment".into(), Value::U64(1)),
            ("value".into(), Value::U64(2)),
        ]);
        let seq = Value::Seq(vec![row.clone(); 64]);
        let bytes = to_vec(&seq).unwrap();
        // Without interning every row would pay both inline keys
        // (tag + u32 length + contents); with it, only the first row
        // does and later rows pay 5-byte references. The values are
        // tiny integers: one tag byte each.
        let inline_row = 5 + (5 + 10 + 1) + (5 + 5 + 1);
        let ref_row = 5 + (5 + 1) + (5 + 1);
        assert_eq!(bytes.len(), 2 + 5 + inline_row + 63 * ref_row);
        assert!(bytes.len() < 2 + 5 + 64 * inline_row);
        assert_eq!(parse_payload(&bytes).unwrap(), seq);
    }

    #[test]
    fn byte_strings_pick_the_shortest_length_form() {
        // ≤ 255 bytes: tag + 1 length byte + contents.
        let short = Value::Bytes(vec![0xab; 255]);
        let bytes = to_vec(&short).unwrap();
        assert_eq!(
            &bytes[..4],
            &[BINARY_MAGIC, BINARY_VERSION, TAG_BYTES8, 255]
        );
        assert_eq!(bytes.len(), 4 + 255);
        assert_eq!(parse_payload(&bytes).unwrap(), short);
        // 256 bytes: tag + 4 length bytes + contents.
        let long = Value::Bytes(vec![0xcd; 256]);
        let bytes = to_vec(&long).unwrap();
        assert_eq!(bytes[2], TAG_BYTES);
        assert_eq!(bytes.len(), 3 + 4 + 256);
        assert_eq!(parse_payload(&bytes).unwrap(), long);
        // Both forms decode; a truncated short form fails typed.
        assert!(parse_payload(&[BINARY_MAGIC, BINARY_VERSION, TAG_BYTES8, 9, 0]).is_err());
        assert!(parse_payload(&[BINARY_MAGIC, BINARY_VERSION, TAG_BYTES8]).is_err());
    }

    #[test]
    fn sniffing_separates_formats() {
        assert_eq!(WireFormat::sniff(b"{\"a\":1}"), WireFormat::Json);
        assert_eq!(WireFormat::sniff(&[BINARY_MAGIC, 1]), WireFormat::Binary);
        assert_eq!(WireFormat::sniff(b""), WireFormat::Json);
    }

    #[test]
    fn hostile_inputs_fail_typed() {
        // Unknown version, and the retired version 1 (fixed 8-byte
        // integers), which would misread the narrow tags.
        assert!(parse_payload(&[BINARY_MAGIC, 0x7f, TAG_NULL]).is_err());
        assert!(parse_payload(&[BINARY_MAGIC, 0x01, TAG_NULL]).is_err());
        // Truncated fixed-width field.
        assert!(parse_payload(&[BINARY_MAGIC, BINARY_VERSION, TAG_U64, 1, 2]).is_err());
        // Length prefix past the input — refused before allocation.
        let mut huge = vec![BINARY_MAGIC, BINARY_VERSION, TAG_BYTES];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(parse_payload(&huge).is_err());
        // Hostile sequence count.
        let mut seq = vec![BINARY_MAGIC, BINARY_VERSION, TAG_SEQ];
        seq.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(parse_payload(&seq).is_err());
        // Dangling intern reference.
        let mut r = vec![BINARY_MAGIC, BINARY_VERSION, TAG_STR_REF];
        r.extend_from_slice(&7u32.to_le_bytes());
        assert!(parse_payload(&r).is_err());
        // Trailing bytes.
        assert!(parse_payload(&[BINARY_MAGIC, BINARY_VERSION, TAG_NULL, 0]).is_err());
        // Unknown tag.
        assert!(parse_payload(&[BINARY_MAGIC, BINARY_VERSION, 0xf0]).is_err());
    }

    #[test]
    fn depth_is_bounded() {
        let mut bytes = vec![BINARY_MAGIC, BINARY_VERSION];
        for _ in 0..(MAX_DEPTH + 8) {
            bytes.push(TAG_SEQ);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(TAG_NULL);
        assert!(parse_payload(&bytes).is_err());
    }

    #[test]
    fn dispatch_sniffs_both_formats() {
        let v = vec![1u64, 2, 3];
        let mut json = Vec::new();
        append_payload(&v, WireFormat::Json, &mut json).unwrap();
        let mut bin = Vec::new();
        append_payload(&v, WireFormat::Binary, &mut bin).unwrap();
        assert_eq!(decode_payload::<Vec<u64>>(&json).unwrap(), v);
        assert_eq!(decode_payload::<Vec<u64>>(&bin).unwrap(), v);
    }
}
