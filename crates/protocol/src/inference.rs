//! The inference serving state machine: encrypted predictions against
//! a frozen trained model.
//!
//! Training sessions end with a trained model on the server; the
//! serving phase exposes it to predict clients without ever seeing
//! their features in the clear. [`InferenceSession`] is the server
//! side, as an event-driven state machine in the same style as the
//! training roles: [`PredictRequest`]s come in, [`Prediction`]s go
//! back, and the transport layer (`cryptonn-net`) is a thin pump.
//!
//! Two properties distinguish serving from training:
//!
//! - **The model is frozen**, so the FEIP function keys for its
//!   first-layer weights never change. The session therefore reaches
//!   the authority through a
//!   [`CachingKeyService`] wrapped
//!   around the wire-backed [`ChannelKeyService`]: the first sweep
//!   derives the keys, every later request is **authority-free** (the
//!   cache-key correctness argument is DESIGN.md §12).
//! - **Requests are coalesced**: up to
//!   [`max_batch`](InferenceOptions::max_batch) in-flight requests are
//!   served in one
//!   [`predict_encrypted_many`](cryptonn_core::CryptoMlp::predict_encrypted_many)
//!   sweep, so every ciphertext column across every coalesced request
//!   shares one set of wNAF row recodings and a **single** batched
//!   modular inversion.
//!
//! Served outputs are bit-identical to in-process
//! [`CryptoMlp::predict_encrypted`] on the same ciphertexts — the
//! equivalence the serving tests pin down.
//!
//! [`CryptoMlp::predict_encrypted`]: cryptonn_core::CryptoMlp::predict_encrypted

use std::collections::VecDeque;
use std::sync::Arc;

use cryptonn_core::{CryptoMlp, CryptoNnError, MAX_DLOG_BOUND};
use cryptonn_fe::{CachingKeyService, KeyCacheStats};

use crate::error::ProtocolError;
use crate::messages::{ClientId, PredictRequest, Prediction, PublicParams, WireMessage};
use crate::session::{AuthorityChannel, ChannelKeyService, Outbound};
use crate::transcript::Party;

/// Tuning for an [`InferenceSession`].
#[derive(Debug, Clone, Copy)]
pub struct InferenceOptions {
    /// Coalescing cap `B`: how many pending requests one secure sweep
    /// serves at most. `1` disables coalescing (every request is its
    /// own sweep — the per-request baseline of the serving benchmarks).
    pub max_batch: usize,
    /// Capacity of the functional-key cache, in FEIP keys. `0` disables
    /// caching: every sweep re-derives through the authority channel —
    /// the "cache off" benchmark arm.
    pub key_cache: usize,
}

impl Default for InferenceOptions {
    fn default() -> Self {
        Self {
            max_batch: 4,
            key_cache: 1024,
        }
    }
}

/// The inference server role: serves encrypted predict requests from a
/// frozen trained [`CryptoMlp`], coalescing pending requests into
/// shared secure sweeps and caching the model's function keys.
///
/// Drivers queue client messages through
/// [`handle_message`](Self::handle_message) and serve them with
/// [`flush`](Self::flush) once their inbound backlog is drained, so
/// latency under light load stays one sweep deep while bursts
/// amortize. Queuing and serving are deliberately separate calls:
/// queue-time errors are attributable to one client, sweep-time
/// errors to the whole window.
pub struct InferenceSession {
    model: CryptoMlp,
    // Shared, not owned: N shard sessions behind one front door hold
    // the same warmed cache (and its single authority link), so a key
    // derived by any shard is a hit for every other.
    keys: Arc<CachingKeyService<ChannelKeyService>>,
    pending: VecDeque<(ClientId, PredictRequest)>,
    max_batch: usize,
    served: u64,
    sweeps: u64,
}

impl core::fmt::Debug for InferenceSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("InferenceSession")
            .field("pending", &self.pending.len())
            .field("max_batch", &self.max_batch)
            .field("served", &self.served)
            .field("sweeps", &self.sweeps)
            .finish_non_exhaustive()
    }
}

impl InferenceSession {
    /// Builds the serving session around a frozen trained model, with
    /// `link` as its line to the key authority (used on cache misses
    /// only).
    pub fn new(
        params: &PublicParams,
        link: Box<dyn AuthorityChannel>,
        model: CryptoMlp,
        options: InferenceOptions,
    ) -> Self {
        let keys = Arc::new(CachingKeyService::new(
            ChannelKeyService::new(params, link),
            options.key_cache,
        ));
        Self::with_shared_keys(keys, model, options)
    }

    /// Builds a serving session over an *already shared* key service —
    /// the sharded-fleet constructor. Every shard of a front door calls
    /// this with the same `Arc`, so the frozen model's function keys
    /// are derived once fleet-wide: correctness holds because the cache
    /// is keyed on the exact quantized weight vectors (DESIGN.md §12),
    /// which are identical across shards replicated from one snapshot.
    pub fn with_shared_keys(
        keys: Arc<CachingKeyService<ChannelKeyService>>,
        model: CryptoMlp,
        options: InferenceOptions,
    ) -> Self {
        Self {
            model,
            keys,
            pending: VecDeque::new(),
            max_batch: options.max_batch.max(1),
            served: 0,
            sweeps: 0,
        }
    }

    /// The frozen model being served.
    pub fn model(&self) -> &CryptoMlp {
        &self.model
    }

    /// Backs the served model's BSGS table cache with an on-disk
    /// directory so a serving restart warm-starts its tables instead of
    /// rebuilding them.
    pub fn attach_table_cache(&mut self, dir: std::path::PathBuf) {
        self.model.attach_table_cache(dir);
    }

    /// Requests currently waiting for a sweep.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Requests answered so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Secure sweeps run so far (≤ served; the gap is the coalescing).
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// The functional-key cache counters.
    pub fn cache_stats(&self) -> KeyCacheStats {
        self.keys.stats()
    }

    /// The event-driven surface: validates and queues one predict
    /// request. Requests are *served* by [`flush`](Self::flush) — never
    /// here — so every error this method returns is attributable to
    /// `from` alone (a driver may safely drop that one connection),
    /// while sweep failures, which lose a whole coalescing window, only
    /// ever surface from `flush`.
    ///
    /// # Errors
    ///
    /// - [`ProtocolError::Training`] if the request's feature dimension
    ///   does not match the served model (a shape mismatch) or its
    ///   declared `max_abs_x` would need a discrete-log table above
    ///   [`MAX_DLOG_BOUND`] ([`CryptoNnError::DlogBoundTooLarge`]) —
    ///   rejected *before* queuing, so one malformed request never
    ///   poisons a coalesced sweep carrying other clients' work;
    /// - [`ProtocolError::Unexpected`] for message kinds the serving
    ///   role never consumes.
    pub fn handle_message(
        &mut self,
        from: ClientId,
        msg: &WireMessage,
    ) -> Result<Vec<Outbound>, ProtocolError> {
        match msg {
            WireMessage::Predict(req) => {
                let expected = self.model.first_layer().in_dim();
                if req.batch.feature_dim() != expected {
                    return Err(ProtocolError::Training(CryptoNnError::BatchShapeMismatch {
                        expected,
                        got: req.batch.feature_dim(),
                        what: "feature dimension",
                    }));
                }
                let bound = self.model.predict_bound(req.batch.max_abs_x());
                if bound > MAX_DLOG_BOUND {
                    return Err(ProtocolError::Training(CryptoNnError::DlogBoundTooLarge {
                        bound,
                        max: MAX_DLOG_BOUND,
                    }));
                }
                self.pending.push_back((from, req.clone()));
                Ok(Vec::new())
            }
            other => Err(ProtocolError::Unexpected {
                role: "inference-server",
                kind: other.kind(),
            }),
        }
    }

    /// Serves **every** pending request, in coalescing windows of at
    /// most [`max_batch`](InferenceOptions::max_batch) requests per
    /// secure sweep. Drivers call this after draining their inbound
    /// backlog — the momentary backlog *is* the coalescing window.
    ///
    /// # Errors
    ///
    /// Training-stack failures from the sweeps (an unreachable
    /// authority, a broken key response). Such a failure is collective
    /// — the drained window's requests are lost — so a driver should
    /// tell every waiting client rather than blame one.
    pub fn flush(&mut self) -> Result<Vec<Outbound>, ProtocolError> {
        let mut out = Vec::new();
        while !self.pending.is_empty() {
            out.extend(self.sweep()?);
        }
        Ok(out)
    }

    /// One coalesced sweep over up to `max_batch` pending requests.
    fn sweep(&mut self) -> Result<Vec<Outbound>, ProtocolError> {
        let take = self.pending.len().min(self.max_batch);
        if take == 0 {
            return Ok(Vec::new());
        }
        let window: Vec<(ClientId, PredictRequest)> = self.pending.drain(..take).collect();
        let batches: Vec<&cryptonn_core::EncryptedBatch> =
            window.iter().map(|(_, req)| &req.batch).collect();
        let outputs = self
            .model
            .predict_encrypted_many(self.keys.as_ref(), &batches)?;
        self.sweeps += 1;
        self.served += window.len() as u64;
        Ok(window
            .into_iter()
            .zip(outputs)
            .map(|((client, req), outputs)| {
                Outbound::to(
                    Party::Client(client.0),
                    WireMessage::Prediction(Prediction {
                        id: req.id,
                        outputs,
                    }),
                )
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{MlpSpec, SessionConfig};
    use crate::runner::mlp_session_config;
    use crate::session::AuthoritySession;
    use crate::KeyRequest;
    use crate::KeyResponse;
    use cryptonn_core::{Client, CryptoNnConfig, Objective};
    use cryptonn_matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn config() -> SessionConfig {
        mlp_session_config(
            MlpSpec {
                feature_dim: 4,
                hidden: vec![3],
                classes: 2,
                objective: Objective::SoftmaxCrossEntropy,
            },
            1,
            1,
            2,
            0.5,
        )
    }

    struct CountingChannel {
        authority: Arc<AuthoritySession>,
        exchanges: Arc<AtomicUsize>,
    }

    impl AuthorityChannel for CountingChannel {
        fn exchange(&mut self, req: KeyRequest) -> Result<KeyResponse, ProtocolError> {
            self.exchanges.fetch_add(1, Ordering::SeqCst);
            Ok(self.authority.handle(&req))
        }
    }

    fn serving_setup(
        options: InferenceOptions,
    ) -> (InferenceSession, Client, CryptoMlp, Arc<AtomicUsize>) {
        let config = config();
        let authority = Arc::new(AuthoritySession::new(&config));
        let params = authority.public_params_for(&config);
        let cc = CryptoNnConfig {
            level: config.level,
            fp: config.fp,
            grad_fp: config.grad_fp,
            parallelism: cryptonn_parallel::Parallelism::Serial,
        };
        // Twin frozen models from the same seed: one served, one the
        // in-process reference.
        let mut rng = StdRng::seed_from_u64(config.model_seed);
        let served = CryptoMlp::new(4, &[3], 2, Objective::SoftmaxCrossEntropy, cc, &mut rng);
        let mut rng = StdRng::seed_from_u64(config.model_seed);
        let reference = CryptoMlp::new(4, &[3], 2, Objective::SoftmaxCrossEntropy, cc, &mut rng);

        let exchanges = Arc::new(AtomicUsize::new(0));
        let link = Box::new(CountingChannel {
            authority: Arc::clone(&authority),
            exchanges: Arc::clone(&exchanges),
        });
        let session = InferenceSession::new(&params, link, served, options);
        let client = Client::from_keys(
            params.x_mpk.clone(),
            params.y_mpk.clone(),
            params.febo_mpk.clone(),
            params.fp,
            77,
        );
        (session, client, reference, exchanges)
    }

    fn request(client: &mut Client, id: u64, rows: usize) -> PredictRequest {
        let x = Matrix::from_fn(rows, 4, |r, c| ((id as usize + r * 3 + c) % 7) as f64 / 7.0);
        PredictRequest {
            id,
            batch: client.encrypt_features(&x).unwrap(),
        }
    }

    /// Requests queue without being served, then one flush answers all
    /// of them in a single coalesced sweep — addressed to their
    /// requesters, ids echoed, outputs bit-identical to the in-process
    /// predict path.
    #[test]
    fn coalesced_window_served_bit_identically() {
        let (mut session, mut client, mut reference, _) = serving_setup(InferenceOptions {
            max_batch: 3,
            key_cache: 64,
        });
        // Same authority master keys: the reference decrypts the same
        // ciphertexts through a co-located authority session.
        let ref_authority = AuthoritySession::new(&config());

        let reqs: Vec<PredictRequest> = (0..3).map(|i| request(&mut client, i, 2)).collect();
        for (i, req) in reqs.iter().enumerate() {
            let from = ClientId([0, 1, 0][i]);
            assert!(
                session
                    .handle_message(from, &WireMessage::Predict(req.clone()))
                    .unwrap()
                    .is_empty(),
                "queuing never serves"
            );
        }
        assert_eq!(session.pending(), 3);

        let out = session.flush().unwrap();
        assert_eq!(out.len(), 3, "full window answered in one sweep");
        assert_eq!(session.pending(), 0);
        assert_eq!(session.served(), 3);
        assert_eq!(session.sweeps(), 1);

        for (i, ob) in out.iter().enumerate() {
            let expected_party = [Party::Client(0), Party::Client(1), Party::Client(0)][i];
            assert_eq!(ob.to, expected_party);
            let WireMessage::Prediction(p) = &ob.msg else {
                panic!("expected a prediction, got {}", ob.msg.kind());
            };
            assert_eq!(p.id, i as u64);
            let direct = reference
                .predict_encrypted(ref_authority.authority(), &reqs[i].batch)
                .unwrap();
            assert_eq!(p.outputs, direct, "served output diverged from in-process");
        }
    }

    /// `flush` serves a partial window; with the cache on, only the
    /// first sweep touches the authority.
    #[test]
    fn flush_serves_partials_and_cache_makes_serving_authority_free() {
        let (mut session, mut client, _, exchanges) = serving_setup(InferenceOptions {
            max_batch: 8,
            key_cache: 64,
        });
        for i in 0..3 {
            let req = request(&mut client, i, 1);
            assert!(session
                .handle_message(ClientId(0), &WireMessage::Predict(req))
                .unwrap()
                .is_empty());
        }
        let out = session.flush().unwrap();
        assert_eq!(out.len(), 3);
        let after_first = exchanges.load(Ordering::SeqCst);
        assert!(after_first > 0, "first sweep must derive keys");

        // Steady state: every further sweep is authority-free.
        for i in 3..6 {
            let req = request(&mut client, i, 1);
            session
                .handle_message(ClientId(0), &WireMessage::Predict(req))
                .unwrap();
            session.flush().unwrap();
        }
        assert_eq!(
            exchanges.load(Ordering::SeqCst),
            after_first,
            "cached serving must not touch the authority again"
        );
        let stats = session.cache_stats();
        assert!(stats.hits > 0);

        // Cache off: the same steady state keeps paying the authority.
        let (mut uncached, mut client2, _, exchanges2) = serving_setup(InferenceOptions {
            max_batch: 8,
            key_cache: 0,
        });
        for i in 0..3 {
            let req = request(&mut client2, i, 1);
            uncached
                .handle_message(ClientId(0), &WireMessage::Predict(req))
                .unwrap();
            uncached.flush().unwrap();
        }
        assert!(
            exchanges2.load(Ordering::SeqCst) >= 3,
            "uncached serving derives per sweep"
        );
    }

    /// A wrong-dimension request is refused before queuing and leaves
    /// queued work intact.
    #[test]
    fn bad_request_rejected_without_poisoning_the_window() {
        let (mut session, mut client, _, _) = serving_setup(InferenceOptions {
            max_batch: 4,
            key_cache: 64,
        });
        session
            .handle_message(
                ClientId(0),
                &WireMessage::Predict(request(&mut client, 0, 1)),
            )
            .unwrap();

        // A foreign-geometry client.
        let bad_config = mlp_session_config(
            MlpSpec {
                feature_dim: 6,
                hidden: vec![3],
                classes: 2,
                objective: Objective::SoftmaxCrossEntropy,
            },
            1,
            1,
            2,
            0.5,
        );
        let bad_authority = AuthoritySession::new(&bad_config);
        let bad_params = bad_authority.public_params_for(&bad_config);
        let mut bad_client = Client::from_keys(
            bad_params.x_mpk.clone(),
            bad_params.y_mpk.clone(),
            bad_params.febo_mpk.clone(),
            bad_params.fp,
            5,
        );
        let bad = PredictRequest {
            id: 9,
            batch: bad_client.encrypt_features(&Matrix::zeros(1, 6)).unwrap(),
        };
        let err = session
            .handle_message(ClientId(1), &WireMessage::Predict(bad))
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Training(_)));
        assert_eq!(session.pending(), 1, "queued work untouched");
        assert_eq!(session.flush().unwrap().len(), 1);
    }

    /// A request whose declared `max_abs_x` sizes the dlog search past
    /// the cap — saturating to `u64::MAX`, or 2⁴⁰ — is refused with a
    /// typed error before queuing, and the other client's request in
    /// the same window is still served.
    #[test]
    fn oversized_dlog_bound_rejected_without_poisoning_the_window() {
        let (mut session, mut client, _, _) = serving_setup(InferenceOptions {
            max_batch: 4,
            key_cache: 64,
        });
        session
            .handle_message(
                ClientId(0),
                &WireMessage::Predict(request(&mut client, 0, 1)),
            )
            .unwrap();
        for max_abs_x in [u64::MAX, 1 << 40] {
            // The bound is public metadata a peer writes on the wire.
            let honest = request(&mut client, 9, 1);
            let json = serde_json::to_string(&honest.batch).unwrap();
            let field = format!("\"max_abs_x\":{}", honest.batch.max_abs_x());
            assert!(json.contains(&field), "fixture: {json:.200}");
            let forged = json.replace(&field, &format!("\"max_abs_x\":{max_abs_x}"));
            let bad = PredictRequest {
                id: 9,
                batch: serde_json::from_str(&forged).unwrap(),
            };
            assert_eq!(bad.batch.max_abs_x(), max_abs_x);
            let err = session
                .handle_message(ClientId(1), &WireMessage::Predict(bad))
                .unwrap_err();
            let ProtocolError::Training(CryptoNnError::DlogBoundTooLarge { bound, max }) = err
            else {
                panic!("expected DlogBoundTooLarge, got {err:?}");
            };
            assert_eq!(max, MAX_DLOG_BOUND);
            assert_eq!(bound, session.model().predict_bound(max_abs_x));
            assert!(bound > max);
        }
        assert_eq!(session.pending(), 1, "queued work untouched");
        let out = session.flush().unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, Party::Client(0));
    }

    /// The serving role consumes nothing but predict requests.
    #[test]
    fn foreign_messages_are_unexpected() {
        let (mut session, _, _, _) = serving_setup(InferenceOptions::default());
        let err = session
            .handle_message(ClientId(0), &WireMessage::Config(config()))
            .unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::Unexpected {
                role: "inference-server",
                ..
            }
        ));
    }
}
