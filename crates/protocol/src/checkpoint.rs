//! Durable training checkpoints (DESIGN.md §14).
//!
//! A [`SessionCheckpoint`] captures everything a
//! [`ServerSession`](crate::ServerSession) mutates between training
//! steps — the schedule cursor, the loss trajectory, per-client
//! delivery credit, the active re-shard, and the model snapshot
//! (including the lazily-derived unit keys, so a resumed server's
//! key-request stream matches recordings). Together with the input
//! suffix past `transcript_offset` (transcript entries or ledger
//! lines), it reconstructs the exact live server: server state is a
//! pure function of the message stream, so `checkpoint + suffix ≡
//! full stream`.
//!
//! ## File format
//!
//! The on-disk [`CheckpointStore`] mirrors the discipline of the group
//! table cache (`crates/group/src/cache.rs`):
//!
//! ```text
//! magic    8 B   "CNNCKP01" (bumped on any layout change)
//! fprint   8 B   FNV-1a-64 over the canonical JSON of the
//!                SessionConfig, little-endian
//! payload  …     the SessionCheckpoint in the binary wire encoding
//!                (DESIGN.md §16); any other payload is `Corrupt`
//! check    8 B   4-lane word-folded FNV-1a-64 over everything above,
//!                little-endian
//! ```
//!
//! The config fingerprint appears verbatim in the header so a file
//! copied between sessions with different configs is rejected rather
//! than silently resuming the wrong run. Writes go through a temp
//! file and an atomic rename, so a crash mid-write can never leave a
//! truncated file that parses; any mismatch — length, checksum, magic,
//! fingerprint, schema — is a **typed** [`CheckpointError`], not a
//! panic or a silent miss, because resuming from a bad checkpoint must
//! fail loud.

use core::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use cryptonn_core::MlpSnapshot;
use serde::{Deserialize, Serialize};

use crate::messages::{ClientId, ReshardSpec, SessionConfig, SessionId};

/// The checkpoint payload schema this build writes and reads. Bumped
/// whenever [`SessionCheckpoint`] changes shape.
pub const CHECKPOINT_SCHEMA: u32 = 1;

const MAGIC: [u8; 8] = *b"CNNCKP01";
const HEADER_LEN: usize = MAGIC.len() + 8;

/// One client's per-client counter inside a checkpoint (the vendored
/// serde has no tuple support, so `(client, count)` pairs get a named
/// shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientCursor {
    /// The client.
    pub client: ClientId,
    /// The counter: batches per epoch in `registered`, own batches
    /// consumed in `delivered`.
    pub count: u64,
}

/// Everything a [`ServerSession`](crate::ServerSession) needs to pick a
/// run back up mid-schedule. See the module docs for the resume
/// equation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Payload schema version ([`CHECKPOINT_SCHEMA`] when written by
    /// this build).
    pub schema: u32,
    /// How many entries of the session's input stream (transcript
    /// envelopes or ledger lines) this state already reflects; a
    /// resume replays only the suffix.
    pub transcript_offset: u64,
    /// The schedule cursor: the next global step to train.
    pub next_step: u64,
    /// Per-step secure losses so far.
    pub losses: Vec<f64>,
    /// Batches per epoch for every registered client.
    pub registered: Vec<ClientCursor>,
    /// Own batches consumed per client — the credit state a rejoining
    /// client's send cursor rewinds to.
    pub delivered: Vec<ClientCursor>,
    /// The fixed schedule width, once every client registered.
    pub batches_per_epoch: Option<u64>,
    /// Total steps of the (possibly re-cut) run.
    pub total_steps: Option<u64>,
    /// Schedule generation at the cut.
    pub gen: u32,
    /// The active re-shard, if the schedule was re-cut.
    pub reshard: Option<ReshardSpec>,
    /// The model's between-step state (weights + cached unit keys).
    pub model: MlpSnapshot,
}

/// Every way loading or applying a checkpoint can fail, typed so the
/// corruption proptests need no string matching.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// No checkpoint exists for the session.
    Missing,
    /// The file is truncated, fails its checksum, or carries the wrong
    /// magic — anything that breaks the frame before the payload can
    /// be trusted.
    Corrupt(String),
    /// The header fingerprint does not match the session config the
    /// caller expects — a file from a different run.
    FingerprintMismatch,
    /// The payload speaks a schema this build does not.
    StaleSchema {
        /// The schema the file carries.
        found: u32,
        /// The schema this build speaks.
        expected: u32,
    },
    /// The session's model family has no snapshot support.
    UnsupportedModel(&'static str),
    /// Filesystem I/O failed (distinct from a malformed file).
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Missing => write!(f, "no checkpoint on disk"),
            CheckpointError::Corrupt(why) => write!(f, "checkpoint file corrupt: {why}"),
            CheckpointError::FingerprintMismatch => {
                write!(f, "checkpoint belongs to a different session config")
            }
            CheckpointError::StaleSchema { found, expected } => {
                write!(f, "checkpoint schema {found}, this build speaks {expected}")
            }
            CheckpointError::UnsupportedModel(family) => {
                write!(f, "the {family} model family has no checkpoint support")
            }
            CheckpointError::Io(why) => write!(f, "checkpoint I/O failed: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Four-lane FNV-1a-64 over 8-byte little-endian words — the same
/// digest the group table cache uses (content-, order- and
/// length-sensitive; the zero-padded tail block cannot alias a longer
/// file).
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

/// The 8-byte header fingerprint of a session config: FNV-1a-64 over
/// its canonical JSON.
pub fn config_fingerprint(config: &SessionConfig) -> u64 {
    let json = serde_json::to_string(config).expect("SessionConfig serializes");
    fnv1a(json.as_bytes())
}

/// A directory of per-session checkpoint files, latest-wins (one file
/// per session, atomically replaced on every save).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file one session's checkpoint lives in.
    pub fn path(&self, session: SessionId) -> PathBuf {
        self.dir.join(format!("{session}.ckpt"))
    }

    /// Frames and atomically writes one session's checkpoint,
    /// replacing any previous one.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn save(
        &self,
        session: SessionId,
        config: &SessionConfig,
        ckpt: &SessionCheckpoint,
    ) -> Result<(), CheckpointError> {
        let mut buf = Vec::with_capacity(HEADER_LEN + 8);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&config_fingerprint(config).to_le_bytes());
        cryptonn_wire::append_to_vec(ckpt, &mut buf)
            .map_err(|e| CheckpointError::Io(e.to_string()))?;
        let check = fnv1a(&buf);
        buf.extend_from_slice(&check.to_le_bytes());

        let path = self.path(session);
        fs::create_dir_all(&self.dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, &buf).map_err(|e| CheckpointError::Io(e.to_string()))?;
        fs::rename(&tmp, &path).map_err(|e| CheckpointError::Io(e.to_string()))
    }

    /// Reads and fully verifies one session's checkpoint: frame length,
    /// checksum, magic, config fingerprint, payload schema — any
    /// mismatch is a typed rejection, never a silently-wrong resume.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Missing`] when no file exists; the other
    /// variants per their docs.
    pub fn load(
        &self,
        session: SessionId,
        config: &SessionConfig,
    ) -> Result<SessionCheckpoint, CheckpointError> {
        let path = self.path(session);
        let buf = match fs::read(&path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(CheckpointError::Missing)
            }
            Err(e) => return Err(CheckpointError::Io(e.to_string())),
        };
        if buf.len() < HEADER_LEN + 8 {
            return Err(CheckpointError::Corrupt(format!(
                "{} bytes is shorter than the frame header",
                buf.len()
            )));
        }
        let (body, check) = buf.split_at(buf.len() - 8);
        let check = u64::from_le_bytes(check.try_into().expect("8-byte suffix"));
        if fnv1a(body) != check {
            return Err(CheckpointError::Corrupt("checksum mismatch".into()));
        }
        if body[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::Corrupt("bad magic".into()));
        }
        let fp = u64::from_le_bytes(body[MAGIC.len()..HEADER_LEN].try_into().expect("8 bytes"));
        if fp != config_fingerprint(config) {
            return Err(CheckpointError::FingerprintMismatch);
        }
        let ckpt: SessionCheckpoint = cryptonn_wire::from_slice(&body[HEADER_LEN..])
            .map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        if ckpt.schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::StaleSchema {
                found: ckpt.schema,
                expected: CHECKPOINT_SCHEMA,
            });
        }
        Ok(ckpt)
    }

    /// Deletes one session's checkpoint, if present (completed sessions
    /// need no durability).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure other than the
    /// file already being gone.
    pub fn remove(&self, session: SessionId) -> Result<(), CheckpointError> {
        match fs::remove_file(self.path(session)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(CheckpointError::Io(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::MlpSpec;
    use crate::runner::mlp_session_config;
    use cryptonn_core::Objective;
    use cryptonn_matrix::Matrix;

    /// A well-framed file — right magic, fingerprint and checksum —
    /// whose payload is the checkpoint as JSON is refused as corrupt:
    /// the store reads the binary encoding only.
    #[test]
    fn json_payload_is_rejected_as_corrupt() {
        let config = mlp_session_config(
            MlpSpec {
                feature_dim: 2,
                hidden: vec![2],
                classes: 2,
                objective: Objective::SoftmaxCrossEntropy,
            },
            1,
            1,
            2,
            0.5,
        );
        let ckpt = SessionCheckpoint {
            schema: CHECKPOINT_SCHEMA,
            transcript_offset: 0,
            next_step: 0,
            losses: Vec::new(),
            registered: Vec::new(),
            delivered: Vec::new(),
            batches_per_epoch: None,
            total_steps: None,
            gen: 0,
            reshard: None,
            model: MlpSnapshot {
                w1: Matrix::zeros(2, 2),
                b1: Matrix::zeros(1, 2),
                rest: Vec::new(),
                unit_keys: None,
            },
        };
        let dir = std::env::temp_dir().join(format!("cryptonn-ckpt-json-{}", std::process::id()));
        let store = CheckpointStore::new(&dir);
        let session = SessionId(1);
        store.save(session, &config, &ckpt).expect("save");
        assert_eq!(store.load(session, &config).expect("binary loads"), ckpt);

        let mut forged = Vec::new();
        forged.extend_from_slice(&MAGIC);
        forged.extend_from_slice(&config_fingerprint(&config).to_le_bytes());
        forged.extend_from_slice(serde_json::to_string(&ckpt).expect("json").as_bytes());
        let check = fnv1a(&forged);
        forged.extend_from_slice(&check.to_le_bytes());
        fs::write(store.path(session), forged).expect("overwrite");
        assert!(matches!(
            store.load(session, &config),
            Err(CheckpointError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
