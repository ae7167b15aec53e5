//! # cryptonn-net
//!
//! The transport layer under the CryptoNN session protocol: the
//! paper's Fig. 1 topology — many data owners, one training server,
//! one key authority — over real sockets.
//!
//! - [`framing`] — the length-prefixed codec: 4-byte big-endian length
//!   plus a binary payload (JSON payloads still decode), with a
//!   configurable cap and typed rejection of oversized, truncated, and
//!   garbage frames.
//! - [`transport`] — [`Transport`]: framed, splittable message pipes,
//!   implemented by `std::net` TCP ([`TcpTransport`]) and an in-memory
//!   channel pair ([`mem_pair`]) that moves the same encoded bytes.
//! - [`codec`] — the length-prefixed codec reworked for nonblocking
//!   I/O: [`FrameDecoder`] reassembles frames from arbitrary partial
//!   reads, [`OutboundQueue`] survives short writes under a byte
//!   bound — both proven equivalent to the blocking codec by the
//!   `codec_proptests` suite.
//! - [`reactor`] — [`Reactor`]: a hand-rolled readiness-driven loop
//!   (`poll(2)` on every platform) multiplexing every connection on one
//!   thread, with a self-pipe command queue for off-loop senders,
//!   per-connection backpressure in both directions, and
//!   handshake/idle timeouts (DESIGN.md §15).
//! - [`server`] — [`SessionServer`]: the concurrent multi-session
//!   daemon — a [`SessionId`]-keyed registry behind the reactor (every
//!   connection is admitted and pumped by the one loop thread), bounded
//!   per-session inbound queues for backpressure, failure isolation
//!   per session, and (with [`ServerOptions::durability`]) per-session
//!   write-ahead ledgers plus checkpoints that let a restarted daemon
//!   resume interrupted sessions bit-identically (DESIGN.md §14).
//! - [`fault`] — [`FaultyTransport`]: deterministic fault injection at
//!   frame boundaries (scripted and seeded-random kill points, frame
//!   delays) — the churn test harness.
//! - [`authority`] — [`AuthorityServer`]: the key authority as its own
//!   networked service, plus the [`AuthorityConnector`] abstraction
//!   ([`RemoteAuthority`] / [`LocalAuthority`]) the training server
//!   uses to reach it.
//! - [`client`] — [`run_client`]: the data-owner driver, and
//!   [`run_client_resumable`]: the reconnecting variant that rides out
//!   connection loss via the server's `Resume` barrier.
//! - [`fleet`] — [`InferenceFleet`]: encrypted prediction serving
//!   against a frozen trained model — the reactor front door hashing
//!   concurrent predict clients onto N serving shards, request
//!   coalescing into shared secure sweeps, and one functional-key
//!   cache that makes the steady state authority-free (DESIGN.md §12,
//!   §15).
//! - [`inference`] — [`InferenceClient`] / [`run_inference_client`]:
//!   the data-owner side of serving — encrypt features, pipeline
//!   predict requests, await the matching predictions.
//!
//! Every daemon and driver pumps the *same* role state machines as the
//! in-process [`TrainingSessionRunner`](cryptonn_protocol::TrainingSessionRunner)
//! and the transcript replayer
//! (`cryptonn-protocol`), so a session trained over TCP loopback
//! produces weights bit-identical to the deterministic in-process run
//! on the same config and dataset.
//!
//! ## Example: full loopback topology
//!
//! ```
//! use std::sync::Arc;
//! use cryptonn_core::Objective;
//! use cryptonn_data::clinic_dataset;
//! use cryptonn_parallel::Parallelism;
//! use cryptonn_protocol::{
//!     mlp_session_config, round_robin_shards, ClientId, ClientSession, MlpSpec, SessionId,
//! };
//! use cryptonn_net::{
//!     run_client, AuthorityOptions, AuthorityServer, RemoteAuthority, ServerOptions,
//!     SessionServer, TcpTransport, DEFAULT_MAX_FRAME,
//! };
//!
//! // Daemons: key authority and multi-session training server.
//! let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())?;
//! let server = SessionServer::start(
//!     "127.0.0.1:0",
//!     Arc::new(RemoteAuthority::new(authority.local_addr())),
//!     ServerOptions::default(),
//! )?;
//!
//! // One two-client session over the clinic toy task.
//! let data = clinic_dataset(12, 5);
//! let spec = MlpSpec {
//!     feature_dim: data.feature_dim(),
//!     hidden: vec![4],
//!     classes: data.classes(),
//!     objective: Objective::SoftmaxCrossEntropy,
//! };
//! let config = mlp_session_config(spec, 2, 1, 6, 0.5);
//! let shards = round_robin_shards(&data, 6, 2);
//! let session = SessionId(1);
//! let addr = server.local_addr();
//! let workers: Vec<_> = shards
//!     .into_iter()
//!     .enumerate()
//!     .map(|(i, shard)| {
//!         let config = config.clone();
//!         std::thread::spawn(move || {
//!             let sm = ClientSession::new(
//!                 ClientId(i as u32),
//!                 config.client_seed_base + i as u64,
//!                 Parallelism::Serial,
//!                 shard,
//!             );
//!             let transport = TcpTransport::connect(addr, DEFAULT_MAX_FRAME).unwrap();
//!             run_client(transport, session, sm, &config).unwrap()
//!         })
//!     })
//!     .collect();
//! let summaries: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
//! assert_eq!(summaries[0], summaries[1]); // every member sees the same model
//! assert_eq!(summaries[0].steps, 2);
//! server.shutdown();
//! authority.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod authority;
pub mod client;
pub mod codec;
pub mod fault;
pub mod fleet;
pub mod framing;
pub mod inference;
pub mod reactor;
pub mod server;
pub mod transport;

mod error;

pub use authority::{
    connector_from_spec, AuthorityConnector, AuthorityOptions, AuthorityServer, LocalAuthority,
    RemoteAuthority, TcpShareClient, ThresholdAuthority,
};
pub use client::{run_client, run_client_resumable};
pub use codec::{FrameDecoder, OutboundQueue, WriteProgress};
pub use cryptonn_wire::WireFormat;
pub use error::NetError;
pub use fault::{FaultHandle, FaultPlan, FaultyTransport, RandomFaults};
pub use fleet::{FleetOptions, InferenceFleet};
pub use framing::{
    encode_frame, encode_frame_fmt, encode_frame_into, read_frame, write_frame, DEFAULT_MAX_FRAME,
    FRAME_HEADER,
};
pub use inference::{run_inference_client, InferenceClient};
pub use reactor::{
    ConnId, Reactor, ReactorApp, ReactorConnTx, ReactorCtx, ReactorHandle, ReactorOptions,
    ReactorStats,
};
pub use server::{ResumedSession, ServerOptions, SessionOutcomeKind, SessionServer};
pub use transport::{
    mem_pair, mem_pair_default, FrameRx, FrameTx, Hello, MemTransport, NetMsg, Peer, TcpTransport,
    Transport,
};

// Re-exported so driver code built on this crate needs only one import
// for the session-layer vocabulary it wires together.
pub use cryptonn_protocol::{SessionConfig, SessionId};
