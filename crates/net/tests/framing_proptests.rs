//! Fuzz-style properties of the framed codec: frames must survive
//! arbitrary byte-boundary splits (a TCP stream owes no alignment),
//! and every malformed input class must come back as its typed error,
//! never a panic or a hang. Every property runs over both payload
//! formats the reader decodes — the binary codec every sender writes
//! and the seed JSON — including mixed-format streams on one
//! connection, which the sniffing reader must tell apart frame by
//! frame.

use proptest::prelude::*;

use cryptonn_net::{encode_frame_fmt, read_frame, NetMsg, WireFormat, DEFAULT_MAX_FRAME};
use cryptonn_protocol::{ClientId, EpochBarrier, ModelDelta, TrainingStart, WireMessage};

/// A reader that hands out the underlying bytes in chunks whose sizes
/// follow `cuts` — simulating a TCP stream fragmenting frames at
/// arbitrary boundaries.
struct ChoppyReader {
    data: Vec<u8>,
    pos: usize,
    cuts: Vec<usize>,
    next_cut: usize,
}

impl std::io::Read for ChoppyReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let chunk = self.cuts[self.next_cut % self.cuts.len()].max(1);
        self.next_cut += 1;
        let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn msg_strategy() -> impl Strategy<Value = NetMsg> {
    prop_oneof![
        any::<u64>().prop_map(|seed| {
            NetMsg::Msg(WireMessage::Delta(ModelDelta {
                step: seed % 100_000,
                client: ClientId((seed >> 17) as u32 % 16),
                loss: ((seed % 2_000_001) as f64 / 1000.0) - 1000.0,
            }))
        }),
        (0u64..10_000).prop_map(|b| {
            NetMsg::Msg(WireMessage::Start(TrainingStart {
                batches_per_epoch: b,
            }))
        }),
        (0u32..100).prop_map(|e| NetMsg::Msg(WireMessage::Epoch(EpochBarrier { epoch: e }))),
        proptest::collection::vec(0u8..128, 0..64)
            .prop_map(|bytes| { NetMsg::Reject(String::from_utf8_lossy(&bytes).into_owned()) }),
    ]
}

fn format_strategy() -> impl Strategy<Value = WireFormat> {
    prop_oneof![Just(WireFormat::Json), Just(WireFormat::Binary)]
}

/// Pairs each message with a format coin flip — a mixed-format stream
/// as one daemon sees it from two dialects of client. (The vendored
/// proptest has no tuple strategies, so messages and coins arrive as
/// separate draws and are zipped here; coins cycle if short.)
fn mixed_stream(msgs: Vec<NetMsg>, coins: &[bool]) -> Vec<(NetMsg, WireFormat)> {
    msgs.into_iter()
        .enumerate()
        .map(|(i, m)| {
            let binary = coins.get(i % coins.len().max(1)).copied().unwrap_or(false);
            (
                m,
                if binary {
                    WireFormat::Binary
                } else {
                    WireFormat::Json
                },
            )
        })
        .collect()
}

proptest! {
    /// Any mixed-format frame sequence, split at any byte boundaries,
    /// decodes back to the original messages, followed by a clean EOF.
    #[test]
    fn frames_survive_arbitrary_splits(
        raw in proptest::collection::vec(msg_strategy(), 1..6),
        coins in proptest::collection::vec(any::<bool>(), 1..7),
        cuts in proptest::collection::vec(1usize..13, 1..8),
    ) {
        let msgs = mixed_stream(raw, &coins);
        let mut wire = Vec::new();
        for (msg, fmt) in &msgs {
            wire.extend_from_slice(&encode_frame_fmt(msg, DEFAULT_MAX_FRAME, *fmt).unwrap());
        }
        let mut reader = ChoppyReader { data: wire, pos: 0, cuts, next_cut: 0 };
        let mut decoded = Vec::new();
        while let Some(msg) = read_frame::<_, NetMsg>(&mut reader, DEFAULT_MAX_FRAME).unwrap() {
            decoded.push(msg);
        }
        let sent: Vec<NetMsg> = msgs.into_iter().map(|(msg, _)| msg).collect();
        prop_assert_eq!(decoded, sent);
    }

    /// Truncating a frame stream at any interior byte yields a typed
    /// truncation error (or a clean EOF exactly at a frame boundary) —
    /// never a panic and never a bogus message. Holds for both formats.
    #[test]
    fn truncation_never_panics(
        raw in proptest::collection::vec(msg_strategy(), 1..4),
        coins in proptest::collection::vec(any::<bool>(), 1..5),
        frac in 0.0f64..1.0,
    ) {
        let msgs = mixed_stream(raw, &coins);
        let mut wire = Vec::new();
        let mut boundaries = vec![0usize];
        for (msg, fmt) in &msgs {
            wire.extend_from_slice(&encode_frame_fmt(msg, DEFAULT_MAX_FRAME, *fmt).unwrap());
            boundaries.push(wire.len());
        }
        let cut = ((wire.len() as f64) * frac) as usize;
        wire.truncate(cut);
        let mut reader = &wire[..];
        loop {
            match read_frame::<_, NetMsg>(&mut reader, DEFAULT_MAX_FRAME) {
                Ok(Some(_)) => {} // a fully-contained prefix frame
                Ok(None) => {
                    // Clean EOF is only legal exactly on a boundary.
                    prop_assert!(boundaries.contains(&cut));
                    break;
                }
                Err(cryptonn_net::NetError::Truncated { missing }) => {
                    prop_assert!(missing > 0);
                    prop_assert!(!boundaries.contains(&cut));
                    break;
                }
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }

    /// The frame cap is enforced against hostile headers before any
    /// payload allocation.
    #[test]
    fn hostile_lengths_are_capped(len in 1024u32..u32::MAX) {
        let mut wire = Vec::new();
        wire.extend_from_slice(&len.to_be_bytes());
        wire.extend_from_slice(&[0u8; 32]);
        let got = read_frame::<_, NetMsg>(&mut &wire[..], 1023);
        prop_assert!(matches!(
            got,
            Err(cryptonn_net::NetError::FrameTooLarge { max: 1023, .. })
        ));
    }

    /// Flipping any byte of a frame payload never panics the decoder:
    /// it either still parses (rare) or fails typed — for JSON payloads,
    /// binary payloads, and flips that turn one format's sniff byte
    /// into the other's.
    #[test]
    fn corrupted_payloads_fail_typed(
        msg in msg_strategy(),
        fmt in format_strategy(),
        flip_at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut wire = encode_frame_fmt(&msg, DEFAULT_MAX_FRAME, fmt).unwrap();
        let payload_len = wire.len() - 4;
        if payload_len == 0 {
            return Ok(());
        }
        let idx = 4 + flip_at % payload_len;
        wire[idx] ^= xor;
        match read_frame::<_, NetMsg>(&mut &wire[..], DEFAULT_MAX_FRAME) {
            Ok(Some(_)) | Err(cryptonn_net::NetError::Malformed(_)) => {}
            other => prop_assert!(false, "unexpected outcome {other:?}"),
        }
    }

    /// Chopping bytes off the *end of a binary payload* (with the
    /// header length patched to match, so the frame itself is whole)
    /// is a malformed payload, not a crash: every length prefix inside
    /// the binary encoding is validated against the remaining input.
    #[test]
    fn truncated_binary_payloads_fail_typed(
        msg in msg_strategy(),
        drop in 1usize..64,
    ) {
        let full = encode_frame_fmt(&msg, DEFAULT_MAX_FRAME, WireFormat::Binary).unwrap();
        let payload_len = full.len() - 4;
        if drop >= payload_len {
            return Ok(());
        }
        let kept = payload_len - drop;
        let mut wire = Vec::with_capacity(4 + kept);
        wire.extend_from_slice(&(kept as u32).to_be_bytes());
        wire.extend_from_slice(&full[4..4 + kept]);
        match read_frame::<_, NetMsg>(&mut &wire[..], DEFAULT_MAX_FRAME) {
            Err(cryptonn_net::NetError::Malformed(_)) => {}
            other => prop_assert!(false, "unexpected outcome {other:?}"),
        }
    }
}
