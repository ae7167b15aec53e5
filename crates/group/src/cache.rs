//! Versioned on-disk cache for BSGS tables (DESIGN.md §13.4).
//!
//! A BSGS baby-step table is a pure function of the group parameters
//! and the bound, and building one at training's bounds takes
//! milliseconds, so a restart skips the build by reloading the table
//! from disk. Nothing else is cached: the generator comb rebuilds in
//! ≈ 40 µs at `Bits256Fast`, and a warm load saved only half of that
//! (DESIGN.md §13.4).
//!
//! ## File format
//!
//! ```text
//! magic    8 B   "CNNTBL04" (bumped on any layout change)
//! kind     1 B   2 = dlog table (1, the retired generator comb, is a miss)
//! fprint  96 B   p ‖ q ‖ g, each 32 B big-endian
//! payload  …     see below
//! check    8 B   4-lane word-folded FNV-1a-64 over everything above
//!                (see [`fnv1a`]), little-endian
//! ```
//!
//! The group fingerprint appears **twice**: hashed into the filename
//! (so different groups never race on one path) and verbatim in the
//! header (so a renamed or copied file from another group is rejected
//! rather than silently producing garbage elements). Readers treat any
//! mismatch — magic, kind, fingerprint, checksum, geometry — as a miss:
//! the table is rebuilt from scratch and the file rewritten. Writes go
//! through a temp file + rename so a crash mid-write can never leave a
//! truncated file that parses.
//!
//! Payload: `m`, `bound`, `up_mont`, `giant_mont`, then the baby map in
//! packed form — slot capacity, length-prefixed occupancy bitmap,
//! length-prefixed occupied `(key, index)` pairs in slot order — and
//! the length-prefixed collision side list.
//!
//! Both the payload shape and the checksum are sized against the warm
//! path, not the cold one. The file persists the baby map's occupied
//! slots *in slot order* with a one-bit-per-slot occupancy bitmap: a
//! warm load is a bitmap-guided sequential scatter — re-keying `√B`
//! entries through the hash map would rival the
//! (lane-kernel-accelerated) Montgomery baby chain it is meant to skip
//! — and the ≥ ⅓ of slots that are vacant by construction cost one bit
//! each instead of 16 bytes, nearly halving what the warm start must
//! read, checksum, and parse. Likewise the checksum folds 8-byte words
//! across four pipelined lanes instead of chaining one multiply per
//! byte: a byte-wise FNV over the file costs about as much as the baby
//! chain itself, which would cap the warm-over-cold speedup near 2x.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cryptonn_bigint::U256;

use crate::dlog::{DlogTable, PackedSlots};
use crate::group::SchnorrGroup;

const MAGIC: [u8; 8] = *b"CNNTBL04";
/// The byte after the magic: the table kind. Only dlog tables persist.
const KIND_DLOG: u8 = 2;
const FPRINT_LEN: usize = 96;
const HEADER_LEN: usize = MAGIC.len() + 1 + FPRINT_LEN;

/// `p ‖ q ‖ g`, each 32 bytes big-endian — the identity of a group as
/// far as cached tables are concerned.
pub(crate) fn fingerprint(p: &U256, q: &U256, g: &U256) -> [u8; FPRINT_LEN] {
    let mut out = [0u8; FPRINT_LEN];
    out[..32].copy_from_slice(&p.to_be_bytes());
    out[32..64].copy_from_slice(&q.to_be_bytes());
    out[64..].copy_from_slice(&g.to_be_bytes());
    out
}

/// Four-lane FNV-1a-64 over 8-byte little-endian words.
///
/// Byte-wise FNV costs one serial multiply per byte; over a table file
/// that chain rivals the Montgomery baby chain the cache exists to
/// skip. Folding 8-byte words cuts the multiply count 8x, and striping
/// 32-byte blocks across four independent lanes breaks the remaining
/// latency chain so the multiplies pipeline. The lane digests and the
/// total length fold into a final serial pass, so the digest stays
/// sensitive to content, order, and length (the zero-padded tail block
/// cannot alias a longer file).
fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = [SEED, SEED ^ 1, SEED ^ 2, SEED ^ 3];
    let mut blocks = bytes.chunks_exact(32);
    for block in blocks.by_ref() {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(word.try_into().expect("exact chunk"));
            *lane = lane.wrapping_mul(PRIME);
        }
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 32];
        padded[..tail.len()].copy_from_slice(tail);
        for (lane, word) in lanes.iter_mut().zip(padded.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(word.try_into().expect("exact chunk"));
            *lane = lane.wrapping_mul(PRIME);
        }
    }
    let mut h = SEED;
    for lane in lanes.into_iter().chain([bytes.len() as u64]) {
        h ^= lane;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The filename-embedded short form of a fingerprint.
fn short(fp: &[u8; FPRINT_LEN]) -> u64 {
    fnv1a(fp)
}

fn dlog_path(dir: &Path, fp: &[u8; FPRINT_LEN], bound: u64) -> PathBuf {
    dir.join(format!("dlog-{:016x}-b{bound}.tbl", short(fp)))
}

/// Frames `payload` and writes it atomically (temp file + rename).
fn write_atomic(path: &Path, fp: &[u8; FPRINT_LEN], payload: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    buf.extend_from_slice(&MAGIC);
    buf.push(KIND_DLOG);
    buf.extend_from_slice(fp);
    buf.extend_from_slice(payload);
    let check = fnv1a(&buf);
    buf.extend_from_slice(&check.to_le_bytes());

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, &buf)?;
    fs::rename(&tmp, path)
}

/// Reads and verifies a framed file; returns the whole frame, or
/// `None` on any mismatch (missing file, wrong magic/kind/fingerprint,
/// bad checksum). Callers slice the payload out with [`payload`] —
/// returning the frame instead of copying the payload keeps the
/// warm-start path to a single buffer.
fn read_verified(path: &Path, fp: &[u8; FPRINT_LEN]) -> Option<Vec<u8>> {
    let buf = fs::read(path).ok()?;
    if buf.len() < HEADER_LEN + 8 {
        return None;
    }
    let (body, check) = buf.split_at(buf.len() - 8);
    if fnv1a(body) != u64::from_le_bytes(check.try_into().ok()?) {
        return None;
    }
    if body[..MAGIC.len()] != MAGIC || body[MAGIC.len()] != KIND_DLOG {
        return None;
    }
    if &body[MAGIC.len() + 1..HEADER_LEN] != fp {
        return None;
    }
    Some(buf)
}

/// The payload slice of a frame returned by [`read_verified`].
fn payload(frame: &[u8]) -> &[u8] {
    &frame[HEADER_LEN..frame.len() - 8]
}

// ---- payload (de)serialization ---------------------------------------

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn u64(&mut self) -> Option<u64> {
        let (head, rest) = self.0.split_at_checked(8)?;
        self.0 = rest;
        Some(u64::from_le_bytes(head.try_into().ok()?))
    }

    fn u256(&mut self) -> Option<U256> {
        let (head, rest) = self.0.split_at_checked(32)?;
        self.0 = rest;
        Some(U256::from_be_bytes(head.try_into().ok()?))
    }

    /// A length-prefixed `(u64, u64)` list, parsed in bulk: one bounds
    /// check up front, then a straight sequential copy — this sits on
    /// the warm-start path, where a per-element parse loop would show.
    fn pairs(&mut self) -> Option<Vec<(u64, u64)>> {
        let n = self.u64()? as usize;
        // Guard against absurd length prefixes before allocating.
        let (head, rest) = self.0.split_at_checked(n.checked_mul(16)?)?;
        self.0 = rest;
        Some(
            head.chunks_exact(16)
                .map(|c| {
                    (
                        u64::from_le_bytes(c[..8].try_into().expect("exact chunk")),
                        u64::from_le_bytes(c[8..].try_into().expect("exact chunk")),
                    )
                })
                .collect(),
        )
    }

    /// A length-prefixed `u64` list (the occupancy bitmap), parsed in
    /// bulk like [`Reader::pairs`].
    fn words(&mut self) -> Option<Vec<u64>> {
        let n = self.u64()? as usize;
        let (head, rest) = self.0.split_at_checked(n.checked_mul(8)?)?;
        self.0 = rest;
        Some(
            head.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("exact chunk")))
                .collect(),
        )
    }

    fn done(&self) -> bool {
        self.0.is_empty()
    }
}

fn push_pairs(buf: &mut Vec<u8>, pairs: &[(u64, u64)]) {
    buf.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for &(a, b) in pairs {
        buf.extend_from_slice(&a.to_le_bytes());
        buf.extend_from_slice(&b.to_le_bytes());
    }
}

fn push_words(buf: &mut Vec<u8>, words: &[u64]) {
    buf.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for &w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

// ---- dlog table -------------------------------------------------------

/// Loads a cached BSGS table for `group` at exactly `bound`, or `None`
/// on miss.
pub(crate) fn load_dlog(dir: &Path, group: &SchnorrGroup, bound: u64) -> Option<DlogTable> {
    let fp = fingerprint(group.modulus(), group.order(), group.generator().value());
    let frame = read_verified(&dlog_path(dir, &fp, bound), &fp)?;
    let mut r = Reader(payload(&frame));
    let m = r.u64()?;
    let file_bound = r.u64()?;
    if file_bound != bound {
        return None;
    }
    let up = r.u256()?;
    let giant = r.u256()?;
    let packed = PackedSlots {
        cap: r.u64()?,
        bitmap: r.words()?,
        occupied: r.pairs()?,
    };
    let collisions = r.pairs()?;
    if !r.done() {
        return None;
    }
    DlogTable::from_cache_parts(m, bound, up, giant, packed, collisions)
}

/// Persists a BSGS table keyed on `group`'s fingerprint and its bound.
pub(crate) fn store_dlog(dir: &Path, group: &SchnorrGroup, table: &DlogTable) -> io::Result<()> {
    let fp = fingerprint(group.modulus(), group.order(), group.generator().value());
    let (m, bound, up, giant, packed, collisions) = table.cache_parts();
    let mut payload = Vec::with_capacity(
        16 + 64 + 32 + packed.bitmap.len() * 8 + (packed.occupied.len() + collisions.len()) * 16,
    );
    payload.extend_from_slice(&m.to_le_bytes());
    payload.extend_from_slice(&bound.to_le_bytes());
    payload.extend_from_slice(&up.to_be_bytes());
    payload.extend_from_slice(&giant.to_be_bytes());
    payload.extend_from_slice(&packed.cap.to_le_bytes());
    push_words(&mut payload, &packed.bitmap);
    push_pairs(&mut payload, &packed.occupied);
    push_pairs(&mut payload, collisions);
    write_atomic(&dlog_path(dir, &fp, bound), &fp, &payload)
}

impl DlogTable {
    /// [`DlogTable::new`], but warm-startable: loads a cached table for
    /// this exact `(group, bound)` if `dir` holds a valid one, and
    /// otherwise builds it and persists it (best-effort) for the next
    /// start. Any invalid cache file — foreign fingerprint, corruption,
    /// stale format — is rejected, rebuilt, and overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero, as [`DlogTable::new`].
    pub fn load_or_build(group: &SchnorrGroup, bound: u64, dir: &Path) -> Self {
        if let Some(table) = load_dlog(dir, group, bound) {
            return table;
        }
        let table = Self::new(group, bound);
        let _ = store_dlog(dir, group, &table);
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::SecurityLevel;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh unique directory under the system temp dir; callers
    /// remove it when done (best-effort).
    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cryptonn-cache-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn dlog_load_or_build_roundtrip() {
        let dir = scratch_dir("dlog");
        let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        let bound = 4_000u64;
        let cold = DlogTable::load_or_build(&group, bound, &dir);
        let warm = DlogTable::load_or_build(&group, bound, &dir);
        for z in [-(bound as i64), -17, 0, 23, bound as i64] {
            let target = group.exp(&group.scalar_from_i64(z));
            assert_eq!(cold.solve(&group, &target), Ok(z));
            assert_eq!(warm.solve(&group, &target), Ok(z));
        }
        // A different bound is a different file, not a false hit.
        assert!(load_dlog(&dir, &group, bound + 1).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected_and_rebuilt() {
        let dir = scratch_dir("mismatch");
        let group_a = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        let group_b = SchnorrGroup::precomputed(SecurityLevel::Bits256Fast);
        let bound = 2_000u64;

        // Populate the cache for group A, then plant A's file at group
        // B's expected path — the filename matches B but the embedded
        // fingerprint still says A.
        let _ = DlogTable::load_or_build(&group_a, bound, &dir);
        let fp_a = fingerprint(
            group_a.modulus(),
            group_a.order(),
            group_a.generator().value(),
        );
        let fp_b = fingerprint(
            group_b.modulus(),
            group_b.order(),
            group_b.generator().value(),
        );
        fs::copy(dlog_path(&dir, &fp_a, bound), dlog_path(&dir, &fp_b, bound)).unwrap();

        // The planted file must be rejected (a raw load misses) …
        assert!(load_dlog(&dir, &group_b, bound).is_none());
        // … and load_or_build must rebuild a *correct* table for B …
        let rebuilt = DlogTable::load_or_build(&group_b, bound, &dir);
        for z in [-5i64, 0, 1_999] {
            let target = group_b.exp(&group_b.scalar_from_i64(z));
            assert_eq!(rebuilt.solve(&group_b, &target), Ok(z));
        }
        // … and overwrite the planted file so the next start is warm.
        let healed = load_dlog(&dir, &group_b, bound).expect("rewritten cache");
        let target = group_b.exp(&group_b.scalar_from_i64(-321));
        assert_eq!(healed.solve(&group_b, &target), Ok(-321));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_rejected() {
        let dir = scratch_dir("corrupt");
        let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        let bound = 1_500u64;
        let _ = DlogTable::load_or_build(&group, bound, &dir);
        let fp = fingerprint(group.modulus(), group.order(), group.generator().value());
        let path = dlog_path(&dir, &fp, bound);

        let pristine = fs::read(&path).unwrap();
        // Bit flip in the payload: checksum mismatch.
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert!(load_dlog(&dir, &group, bound).is_none());
        // Truncation: too short to even frame.
        fs::write(&path, &pristine[..HEADER_LEN]).unwrap();
        assert!(load_dlog(&dir, &group, bound).is_none());
        // Wrong kind byte — 1, the retired generator comb — with the
        // checksum re-stamped to isolate the check.
        let mut wrong_kind = pristine.clone();
        wrong_kind[MAGIC.len()] = 1;
        let body_len = wrong_kind.len() - 8;
        let check = fnv1a(&wrong_kind[..body_len]);
        wrong_kind[body_len..].copy_from_slice(&check.to_le_bytes());
        fs::write(&path, &wrong_kind).unwrap();
        assert!(load_dlog(&dir, &group, bound).is_none());
        // Restored file loads again.
        fs::write(&path, &pristine).unwrap();
        assert!(load_dlog(&dir, &group, bound).is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
