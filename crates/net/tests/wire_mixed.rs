//! A peer that still sends JSON on one daemon (DESIGN.md §16.2): every
//! receiver decodes both payload formats, so a client pinned to JSON
//! trains beside a binary client in the *same* session — and the
//! resulting model must be bit-identical to an all-binary run of the
//! same configuration.

use std::sync::Arc;

use cryptonn_core::Objective;
use cryptonn_data::clinic_dataset;
use cryptonn_net::{
    run_client, AuthorityOptions, AuthorityServer, RemoteAuthority, ServerOptions, SessionServer,
    TcpTransport, WireFormat, DEFAULT_MAX_FRAME,
};
use cryptonn_parallel::Parallelism;
use cryptonn_protocol::{
    mlp_session_config, round_robin_shards, ClientId, ClientSession, MlpSpec, SessionId,
    SessionSummary,
};

/// Trains one two-client session over TCP loopback with each client's
/// wire format chosen by `wire_of`, returning the (asserted-agreeing)
/// member summary.
fn train_session(
    addr: std::net::SocketAddr,
    session: SessionId,
    wire_of: fn(usize) -> WireFormat,
) -> SessionSummary {
    let data = clinic_dataset(12, 5);
    let spec = MlpSpec {
        feature_dim: data.feature_dim(),
        hidden: vec![4],
        classes: data.classes(),
        objective: Objective::SoftmaxCrossEntropy,
    };
    let config = mlp_session_config(spec, 2, 1, 6, 0.5);
    let shards = round_robin_shards(&data, 6, 2);
    let workers: Vec<_> = shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            let config = config.clone();
            std::thread::spawn(move || {
                let sm = ClientSession::new(
                    ClientId(i as u32),
                    config.client_seed_base + i as u64,
                    Parallelism::Serial,
                    shard,
                );
                let transport = TcpTransport::connect(addr, DEFAULT_MAX_FRAME).unwrap();
                transport.set_wire_format(wire_of(i));
                run_client(transport, session, sm, &config).unwrap()
            })
        })
        .collect();
    let summaries: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert_eq!(
        summaries[0], summaries[1],
        "members must see the same model"
    );
    summaries.into_iter().next().unwrap()
}

#[test]
fn mixed_format_clients_train_bit_identically() {
    let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default()).unwrap();
    let server = SessionServer::start(
        "127.0.0.1:0",
        Arc::new(RemoteAuthority::new(authority.local_addr())),
        ServerOptions::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let all_binary = train_session(addr, SessionId(1), |_| WireFormat::Binary);
    let mixed = train_session(addr, SessionId(2), |i| {
        if i % 2 == 0 {
            WireFormat::Binary
        } else {
            WireFormat::Json
        }
    });

    assert_eq!(
        mixed, all_binary,
        "a session with one JSON client must train bit-identically to all-binary"
    );

    server.shutdown();
    authority.shutdown();
}
