//! Serde roundtrips for every wire message type: anything the session
//! layer can put on the wire must survive JSON and come back equal —
//! including the ciphertext-bearing payloads, whose group elements are
//! the actual serialized surface. Every roundtrip here runs through
//! *both* wire formats — the seed JSON and the binary codec — and
//! cross-format (encode one, the typed result equals the other's), so
//! the two stay interchangeable dialects of one frozen alphabet.

use cryptonn_core::{Client, Objective};
use cryptonn_fe::threshold::{ShareAuthority, ShareSpec, ThresholdSetup};
use cryptonn_fe::{BasicOp, FeboKeyRequest, KeyAuthority, KeyService, PermittedFunctions};
use cryptonn_group::{SchnorrGroup, SecurityLevel};
use cryptonn_matrix::{ConvSpec, Matrix, Tensor4};
use cryptonn_protocol::{
    mlp_session_config, ClientId, CnnArch, EncryptedBatchMsg, EncryptedImageBatchMsg, EpochBarrier,
    FeboKeysRequest, FeipKeysRequest, KeyRequest, KeyResponse, MlpSpec, ModelDelta, ModelSpec,
    PartialKey, Party, PredictRequest, Prediction, PublicParams, RegisterClient, SessionSummary,
    ShareInfo, ShareRequest, TrainingStart, Transcript, WireMessage,
};
use cryptonn_smc::FixedPoint;
use proptest::prelude::*;
use std::sync::OnceLock;

fn authority() -> &'static KeyAuthority {
    static AUTH: OnceLock<KeyAuthority> = OnceLock::new();
    AUTH.get_or_init(|| {
        let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        KeyAuthority::with_seed(group, PermittedFunctions::all(), 55)
    })
}

fn roundtrip(msg: &WireMessage) {
    let json = serde_json::to_string(msg).expect("serialize");
    let from_json: WireMessage = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(&from_json, msg);
    let bin = cryptonn_wire::to_vec(msg).expect("binary serialize");
    let from_bin: WireMessage = cryptonn_wire::from_slice(&bin).expect("binary deserialize");
    assert_eq!(&from_bin, msg);
    // Cross-format equivalence: both decodes land on the identical
    // typed message, so a JSON client and a binary client of one
    // daemon observe the same protocol.
    assert_eq!(from_json, from_bin);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn config_roundtrips(clients in 1u32..8, epochs in 1u32..5, hidden in 1usize..9) {
        let spec = MlpSpec {
            feature_dim: 7,
            hidden: vec![hidden, hidden + 1],
            classes: 3,
            objective: Objective::SoftmaxCrossEntropy,
        };
        roundtrip(&WireMessage::Config(mlp_session_config(spec, clients, epochs, 4, 0.25)));
    }

    #[test]
    fn register_and_metrics_roundtrip(client in 0u32..32, step in 0u64..1000, loss in -10.0f64..10.0) {
        roundtrip(&WireMessage::Register(RegisterClient {
            client: ClientId(client),
            batches_per_epoch: step,
        }));
        roundtrip(&WireMessage::Delta(ModelDelta {
            step,
            client: ClientId(client),
            loss,
        }));
        roundtrip(&WireMessage::Epoch(EpochBarrier { epoch: client }));
        roundtrip(&WireMessage::Start(TrainingStart {
            batches_per_epoch: step,
        }));
    }

    #[test]
    fn public_params_roundtrip(dim in 1usize..5, classes in 1usize..4) {
        let auth = authority();
        roundtrip(&WireMessage::PublicParams(PublicParams {
            x_mpk: KeyAuthority::feip_public_key(auth, dim),
            y_mpk: KeyAuthority::feip_public_key(auth, classes),
            febo_mpk: KeyAuthority::febo_public_key(auth),
            fp: FixedPoint::TWO_DECIMALS,
        }));
    }

    #[test]
    fn encrypted_batch_roundtrips(seed in 0u64..1000, rows in 1usize..4) {
        let auth = authority();
        let mut client = Client::for_mlp(auth, 3, 2, FixedPoint::TWO_DECIMALS, seed);
        let x = Matrix::from_fn(rows, 3, |r, c| ((r * 3 + c + seed as usize) % 10) as f64 / 10.0);
        let y = Matrix::from_fn(rows, 2, |r, c| if r % 2 == c { 1.0 } else { 0.0 });
        let batch = client.encrypt_batch(&x, &y).unwrap();
        let msg = WireMessage::Batch(EncryptedBatchMsg {
            client: ClientId(seed as u32 % 4),
            step: seed,
            gen: 0,
            batch,
        });
        roundtrip(&msg);
        // Label-free prediction batches serialize too.
        let pred = client.encrypt_features(&x).unwrap();
        roundtrip(&WireMessage::Batch(EncryptedBatchMsg {
            client: ClientId(0),
            step: seed,
            gen: 0,
            batch: pred,
        }));
    }

    #[test]
    fn encrypted_image_batch_roundtrips(seed in 0u64..1000) {
        let auth = authority();
        let spec = ConvSpec::square(3, 1, 1);
        let mut client = Client::for_cnn(auth, &spec, 1, 2, FixedPoint::TWO_DECIMALS, seed);
        let images = Tensor4::from_vec(
            1, 1, 4, 4,
            (0..16).map(|v| ((v + seed as usize) % 7) as f64 / 7.0).collect(),
        );
        let y = Matrix::from_rows(&[&[1.0, 0.0]]);
        let batch = client.encrypt_image_batch(&images, &y, &spec).unwrap();
        let msg = WireMessage::ImageBatch(EncryptedImageBatchMsg {
            client: ClientId(1),
            step: seed,
            gen: 0,
            batch,
        });
        roundtrip(&msg);
    }

    #[test]
    fn key_traffic_roundtrips(dim in 1usize..4, y in -50i64..50) {
        let auth = authority();
        let ys: Vec<Vec<i64>> = (0..2).map(|i| (0..dim).map(|j| y + (i * dim + j) as i64).collect()).collect();
        roundtrip(&WireMessage::KeyRequest(KeyRequest::FeipMpk(dim)));
        roundtrip(&WireMessage::KeyRequest(KeyRequest::Feip(FeipKeysRequest {
            dim,
            ys: ys.clone(),
        })));
        let keys = auth.derive_ip_keys(dim, &ys).unwrap();
        roundtrip(&WireMessage::KeyResponse(KeyResponse::Feip(keys)));
        roundtrip(&WireMessage::KeyResponse(KeyResponse::FeipMpk(
            KeyAuthority::feip_public_key(auth, dim),
        )));

        let mut rng = rand::rngs::StdRng::seed_from_u64(y.unsigned_abs());
        let ct = cryptonn_fe::febo::encrypt(&KeyAuthority::febo_public_key(auth), y, &mut rng);
        let reqs = vec![FeboKeyRequest { cmt: *ct.commitment(), op: BasicOp::Sub, y }];
        roundtrip(&WireMessage::KeyRequest(KeyRequest::Febo(FeboKeysRequest {
            reqs: reqs.clone(),
        })));
        let keys = auth.derive_bo_keys(&reqs).unwrap();
        roundtrip(&WireMessage::KeyResponse(KeyResponse::Febo(keys)));
        roundtrip(&WireMessage::KeyResponse(KeyResponse::Denied("refused".into())));
    }

    #[test]
    fn share_traffic_roundtrips(dim in 1usize..4, y in -50i64..50, index in 1u32..4) {
        let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        let setup = ThresholdSetup::new(3, 2).unwrap();
        let spec = ShareSpec::new(setup, index).unwrap();
        let node = ShareAuthority::with_seed(group, PermittedFunctions::all(), 55, spec);

        roundtrip(&WireMessage::ShareRequest(ShareRequest::Info));
        roundtrip(&WireMessage::PartialKey(PartialKey::Info(ShareInfo {
            index,
            n: 3,
            t: 2,
            febo_commitments: node.febo_commitments().to_vec(),
        })));

        let ys: Vec<Vec<i64>> = (0..2).map(|i| (0..dim).map(|j| y + (i * dim + j) as i64).collect()).collect();
        roundtrip(&WireMessage::ShareRequest(ShareRequest::Feip(FeipKeysRequest {
            dim,
            ys: ys.clone(),
        })));
        roundtrip(&WireMessage::PartialKey(PartialKey::Feip(
            node.feip_partials(dim, &ys).unwrap(),
        )));

        let mut rng = rand::rngs::StdRng::seed_from_u64(y.unsigned_abs());
        let ct = cryptonn_fe::febo::encrypt(&node.febo_public_key(), y, &mut rng);
        let reqs = vec![FeboKeyRequest { cmt: *ct.commitment(), op: BasicOp::Sub, y }];
        roundtrip(&WireMessage::ShareRequest(ShareRequest::Febo(FeboKeysRequest {
            reqs: reqs.clone(),
        })));
        roundtrip(&WireMessage::PartialKey(PartialKey::Febo(
            node.febo_partials(&reqs).unwrap(),
        )));
        roundtrip(&WireMessage::PartialKey(PartialKey::Denied("refused".into())));
    }

    #[test]
    fn predict_traffic_roundtrips(seed in 0u64..1000, rows in 1usize..4) {
        let auth = authority();
        let mut client = Client::for_mlp(auth, 3, 2, FixedPoint::TWO_DECIMALS, seed);
        let x = Matrix::from_fn(rows, 3, |r, c| ((r * 3 + c + seed as usize) % 10) as f64 / 10.0);
        let predict = WireMessage::Predict(PredictRequest {
            id: seed,
            batch: client.encrypt_features(&x).unwrap(),
        });
        roundtrip(&predict);
        roundtrip(&WireMessage::Prediction(Prediction {
            id: seed,
            outputs: Matrix::from_fn(rows, 2, |r, c| (r as f64 + seed as f64) / (c as f64 + 2.0)),
        }));
    }

    #[test]
    fn summary_roundtrips(rows in 1usize..4, cols in 1usize..4) {
        roundtrip(&WireMessage::Summary(SessionSummary {
            steps: (rows * cols) as u64,
            losses: (0..rows).map(|i| i as f64 / 3.0).collect(),
            final_w1: Matrix::from_fn(rows, cols, |r, c| (r as f64) - (c as f64) / 7.0),
            final_b1: Matrix::from_fn(1, cols, |_, c| c as f64 * 0.125),
        }));
    }
}

use rand::SeedableRng;

/// A transcript with one envelope of every party pairing survives the
/// JSON roundtrip with sequence numbers and addressing intact.
#[test]
fn transcript_envelopes_roundtrip() {
    let mut t = Transcript::new();
    t.push(
        Party::Scheduler,
        Party::Broadcast,
        WireMessage::Epoch(EpochBarrier { epoch: 0 }),
    );
    t.push(
        Party::Client(3),
        Party::Server,
        WireMessage::Register(RegisterClient {
            client: ClientId(3),
            batches_per_epoch: 2,
        }),
    );
    t.push(
        Party::Server,
        Party::Authority,
        WireMessage::KeyRequest(KeyRequest::FeipMpk(5)),
    );
    let json = t.to_json().unwrap();
    let back = Transcript::from_json(&json).unwrap();
    assert_eq!(back, t);
    assert_eq!(back.entries[2].seq, 2);
    assert_eq!(back.of_kind("key-request").count(), 1);
}

/// The CNN model specs serialize (they ride in `SessionConfig`).
#[test]
fn cnn_specs_roundtrip() {
    for model in [
        ModelSpec::Cnn(CnnArch::Lenet5),
        ModelSpec::Cnn(CnnArch::LenetSmall(4)),
    ] {
        let json = serde_json::to_string(&model).unwrap();
        let back: ModelSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, model);
    }
}

/// The wire alphabet is frozen: transport-layer work (the reactor, the
/// inference fleet) must ride the protocol unchanged. The wildcard-free
/// match makes adding or removing a `WireMessage` variant a compile
/// error here, and the serde envelope of a representative frame pins
/// the external tag shape byte-for-byte.
#[test]
fn wire_alphabet_is_frozen() {
    fn serde_tag(msg: &WireMessage) -> &'static str {
        match msg {
            WireMessage::Config(_) => "Config",
            WireMessage::Register(_) => "Register",
            WireMessage::PublicParams(_) => "PublicParams",
            WireMessage::Start(_) => "Start",
            WireMessage::Batch(_) => "Batch",
            WireMessage::ImageBatch(_) => "ImageBatch",
            WireMessage::KeyRequest(_) => "KeyRequest",
            WireMessage::KeyResponse(_) => "KeyResponse",
            WireMessage::ShareRequest(_) => "ShareRequest",
            WireMessage::PartialKey(_) => "PartialKey",
            WireMessage::Delta(_) => "Delta",
            WireMessage::Epoch(_) => "Epoch",
            WireMessage::Summary(_) => "Summary",
            WireMessage::Predict(_) => "Predict",
            WireMessage::Prediction(_) => "Prediction",
            WireMessage::Resume(_) => "Resume",
            WireMessage::Reshard(_) => "Reshard",
        }
    }
    // Cheaply-constructible variants double-check that the serde tag
    // really is the variant name (externally tagged, no renames).
    let samples = [
        WireMessage::Start(TrainingStart {
            batches_per_epoch: 3,
        }),
        WireMessage::Epoch(EpochBarrier { epoch: 1 }),
        WireMessage::Delta(ModelDelta {
            step: 0,
            client: ClientId(0),
            loss: 0.0,
        }),
    ];
    for msg in &samples {
        let json = serde_json::to_string(msg).unwrap();
        let envelope = format!("{{\"{}\":", serde_tag(msg));
        assert!(
            json.starts_with(&envelope),
            "tag drifted for {msg:?}: {json}"
        );
    }
    assert_eq!(
        serde_json::to_string(&samples[1]).unwrap(),
        r#"{"Epoch":{"epoch":1}}"#
    );
}

/// At the paper's production group width, the binary encoding of an
/// encrypted batch is strictly — and substantially — smaller than the
/// JSON one: every 256-bit group element costs 64 hex digits plus
/// quotes under JSON but `tag + u32 len + ≤32` raw limb bytes under
/// binary. (At the tiny `Bits64` test group the fixed-width integer
/// tags can outweigh the hex savings, which is why this check pins
/// `Bits256Fast` specifically — the benchmark's level.)
#[test]
fn binary_encrypted_batch_is_smaller_at_bits256() {
    let group = SchnorrGroup::precomputed(SecurityLevel::Bits256Fast);
    let auth = KeyAuthority::with_seed(group, PermittedFunctions::all(), 77);
    let mut client = Client::for_mlp(&auth, 4, 3, FixedPoint::TWO_DECIMALS, 9);
    let x = Matrix::from_fn(2, 4, |r, c| ((r * 4 + c) % 10) as f64 / 10.0);
    let y = Matrix::from_fn(2, 3, |r, c| if r == c { 1.0 } else { 0.0 });
    let msg = WireMessage::Batch(EncryptedBatchMsg {
        client: ClientId(0),
        step: 0,
        gen: 0,
        batch: client.encrypt_batch(&x, &y).unwrap(),
    });
    roundtrip(&msg);
    let json = serde_json::to_string(&msg).unwrap();
    let bin = cryptonn_wire::to_vec(&msg).unwrap();
    assert!(
        bin.len() < json.len(),
        "binary ({}) not smaller than JSON ({})",
        bin.len(),
        json.len()
    );
}

/// The binary twin of [`wire_alphabet_is_frozen`]: the binary codec's
/// bytes are pinned at the same granularity — one full frame payload
/// byte-for-byte, plus the envelope prefix (magic, version, outer map,
/// tag string) of a frame of each cheap variant. Any change to the
/// magic, version, tag bytes, or field layout fails here before it
/// silently strands persisted ledgers and checkpoints.
#[test]
fn binary_wire_fixture_is_frozen() {
    // `{"Epoch":{"epoch":1}}`, in full.
    let msg = WireMessage::Epoch(EpochBarrier { epoch: 1 });
    let bytes = cryptonn_wire::to_vec(&msg).unwrap();
    let mut expect = vec![
        0xb1, 0x01, // magic, version
        0x0a, 1, 0, 0, 0, // map, 1 entry
        0x06, 5, 0, 0, 0, // inline str, 5 bytes
    ];
    expect.extend_from_slice(b"Epoch");
    expect.extend_from_slice(&[0x0a, 1, 0, 0, 0, 0x06, 5, 0, 0, 0]);
    expect.extend_from_slice(b"epoch");
    expect.push(0x04); // u64
    expect.extend_from_slice(&1u64.to_le_bytes());
    assert_eq!(bytes, expect, "binary Epoch frame drifted");
    let back: WireMessage = cryptonn_wire::from_slice(&bytes).unwrap();
    assert_eq!(back, msg);

    // Every cheap variant's envelope: magic, version, a 1-entry outer
    // map whose key is the inline variant tag.
    for (msg, tag) in [
        (
            WireMessage::Start(TrainingStart {
                batches_per_epoch: 3,
            }),
            "Start",
        ),
        (WireMessage::Epoch(EpochBarrier { epoch: 1 }), "Epoch"),
        (
            WireMessage::Delta(ModelDelta {
                step: 0,
                client: ClientId(0),
                loss: 0.0,
            }),
            "Delta",
        ),
    ] {
        let bytes = cryptonn_wire::to_vec(&msg).unwrap();
        let mut envelope = vec![0xb1, 0x01, 0x0a, 1, 0, 0, 0, 0x06];
        envelope.extend_from_slice(&(tag.len() as u32).to_le_bytes());
        envelope.extend_from_slice(tag.as_bytes());
        assert!(
            bytes.starts_with(&envelope),
            "binary envelope drifted for {msg:?}: {bytes:02x?}"
        );
    }
}
