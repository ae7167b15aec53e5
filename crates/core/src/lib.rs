//! # cryptonn-core
//!
//! The CryptoNN framework (Xu, Joshi & Li, ICDCS 2019): **training
//! neural networks over encrypted data** with functional encryption —
//! Algorithm 2 of the paper, plus the CryptoCNN instantiation (§III-E)
//! and the §III-D MLP family.
//!
//! ## Roles (paper Fig. 1)
//!
//! - [`KeyAuthority`](cryptonn_fe::KeyAuthority) — the trusted third
//!   party: master keys, public-key distribution, function-key issuance
//!   under the permitted set `F`.
//! - [`Client`] — the data owner: pre-processes (one-hot labels,
//!   flattening, quantization) and encrypts; nothing leaves in the
//!   clear. Any number of clients may encrypt under the same `mpk`
//!   (distributed data sources); [`Client::from_keys`] builds a client
//!   from wire-delivered public parameters alone.
//! - Server — [`CryptoMlp`] / [`CryptoCnn`]: trains on the encrypted
//!   batches, learning only the functional outputs (first-layer
//!   products, `P − Y`, the loss, and the first-layer gradients). The
//!   training loops are generic over
//!   [`KeyService`](cryptonn_fe::KeyService), the authority-capability
//!   trait — hand them a [`KeyAuthority`](cryptonn_fe::KeyAuthority)
//!   for in-process training (below) or a wire-backed service for the
//!   federated session topology.
//!
//! ## Multi-client sessions
//!
//! The `cryptonn-protocol` crate drives these roles as message-passing
//! sessions: K clients shard a dataset, encrypt in a pipeline, and
//! stream batches to one server, with every exchange recorded into a
//! replayable transcript. In-process single-client training (this
//! crate's API, below) is exactly the `K = 1` special case:
//!
//! ```ignore
//! use cryptonn_protocol::{mlp_session_config, MlpSpec, TrainingSessionRunner};
//!
//! let spec = MlpSpec { feature_dim, hidden: vec![8], classes, objective };
//! let runner = TrainingSessionRunner::new(mlp_session_config(spec, 4, 10, 16, 1.0));
//! let outcome = runner.run_mlp(&dataset)?;          // 4 clients, recorded
//! let replay = cryptonn_protocol::replay_server(&outcome.transcript)?;
//! assert!(replay.matches_recording());              // bit-for-bit
//! ```
//!
//! ## Example (in-process, K = 1)
//!
//! ```
//! use cryptonn_core::{Client, CryptoMlp, CryptoNnConfig, Objective};
//! use cryptonn_fe::{KeyAuthority, PermittedFunctions};
//! use cryptonn_group::SchnorrGroup;
//! use cryptonn_matrix::Matrix;
//! use rand::SeedableRng;
//!
//! let config = CryptoNnConfig::fast();
//! let group = SchnorrGroup::precomputed(config.level);
//! let authority = KeyAuthority::with_seed(group, PermittedFunctions::all(), 7);
//!
//! // Client encrypts a (tiny) batch.
//! let mut client = Client::for_mlp(&authority, 2, 1, config.fp, 8);
//! let x = Matrix::from_rows(&[&[0.9, 0.1], &[0.1, 0.9]]);
//! let y = Matrix::from_rows(&[&[1.0], &[0.0]]);
//! let batch = client.encrypt_batch(&x, &y)?;
//!
//! // Server trains without ever seeing x or y.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(9);
//! let mut model = CryptoMlp::binary(2, &[4], config, &mut rng);
//! let step = model.train_encrypted_batch(&authority, &batch, 1.0)?;
//! assert!(step.loss.is_finite());
//! # Ok::<(), cryptonn_core::CryptoNnError>(())
//! ```

mod client;
mod cnn;
mod config;
mod error;
mod mlp;
pub mod secure_steps;
mod tables;

pub use client::{Client, EncryptedBatch, EncryptedImageBatch};
pub use cnn::CryptoCnn;
pub use config::CryptoNnConfig;
pub use error::CryptoNnError;
pub use mlp::{CryptoMlp, LayerSnapshot, MlpSnapshot, Objective, StepOutput};
pub use tables::{DlogTableCache, MAX_DLOG_BOUND};
