//! The data-owner side of encrypted inference serving.
//!
//! [`InferenceClient`] talks to an
//! [`InferenceFleet`](crate::fleet::InferenceFleet) over the framed
//! transport:
//!
//! - **handshake** — the client opens with the same `Hello` frame the
//!   training server uses; the config must match the serving config
//!   bit-for-bit (it fixes the group, the quantization and the model
//!   geometry the client encrypts against), and the fleet answers with
//!   the session's [`PublicParams`](cryptonn_protocol::PublicParams),
//!   so the encryptor is built from the wire alone;
//! - **pipelining** — encrypt features, send a `Predict` request, await
//!   the matching `Prediction`, with as many requests in flight as the
//!   caller wants ([`run_inference_client`] drives a fixed window).

use std::net::SocketAddr;

use cryptonn_matrix::Matrix;
use cryptonn_protocol::{
    ClientId, PredictRequest, Prediction, SessionConfig, SessionId, WireMessage,
};

use crate::error::NetError;
use crate::framing::DEFAULT_MAX_FRAME;
use crate::transport::{FrameRx, FrameTx, Hello, NetMsg, Peer, TcpTransport};

/// A predict client: encrypts features under the wire-delivered public
/// parameters and exchanges `Predict`/`Prediction` frames, with any
/// number of requests in flight.
#[derive(Debug)]
pub struct InferenceClient {
    transport: TcpTransport,
    encryptor: cryptonn_core::Client,
    next_id: u64,
}

impl InferenceClient {
    /// Connects to a serving daemon, handshakes, and builds the
    /// encryptor from the echoed session parameters.
    ///
    /// The `config` must equal the serving config bit-for-bit; `seed`
    /// drives this client's encryption randomness.
    ///
    /// # Errors
    ///
    /// - [`NetError::Rejected`] if the fleet refuses (wrong session,
    ///   config mismatch);
    /// - connection and framing failures.
    pub fn connect(
        addr: SocketAddr,
        session: SessionId,
        id: ClientId,
        config: &SessionConfig,
        seed: u64,
        max_frame: usize,
    ) -> Result<Self, NetError> {
        let mut transport = TcpTransport::connect(addr, max_frame).map_err(NetError::from)?;
        transport.send(&NetMsg::Hello(Hello {
            session,
            peer: Peer::Client(id),
            config: config.clone(),
        }))?;
        let params = match transport.recv()? {
            Some(NetMsg::Msg(WireMessage::PublicParams(p))) => p,
            Some(NetMsg::Reject(why)) => return Err(NetError::Rejected(why)),
            Some(_) => return Err(NetError::UnexpectedFrame("expected PublicParams")),
            None => return Err(NetError::Disconnected),
        };
        let encryptor = cryptonn_core::Client::from_keys(
            params.x_mpk.clone(),
            params.y_mpk.clone(),
            params.febo_mpk.clone(),
            params.fp,
            seed,
        );
        Ok(Self {
            transport,
            encryptor,
            next_id: 0,
        })
    }

    /// Encrypts `x` (`batch × features`) and sends it as one predict
    /// request, returning the request id without waiting.
    ///
    /// # Errors
    ///
    /// Encryption shape mismatches; send failures.
    pub fn send_request(&mut self, x: &Matrix<f64>) -> Result<u64, NetError> {
        let batch = self
            .encryptor
            .encrypt_features(x)
            .map_err(|e| NetError::Protocol(e.into()))?;
        self.send_encrypted(batch)
    }

    /// Sends an already-encrypted feature batch.
    ///
    /// # Errors
    ///
    /// Send failures.
    pub fn send_encrypted(
        &mut self,
        batch: cryptonn_core::EncryptedBatch,
    ) -> Result<u64, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.transport
            .send(&NetMsg::Msg(WireMessage::Predict(PredictRequest {
                id,
                batch,
            })))?;
        Ok(id)
    }

    /// Receives the next prediction frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Rejected`] if the server aborts;
    /// [`NetError::Disconnected`] on a closed connection; framing
    /// failures.
    pub fn recv_prediction(&mut self) -> Result<Prediction, NetError> {
        match self.transport.recv()? {
            Some(NetMsg::Msg(WireMessage::Prediction(p))) => Ok(p),
            Some(NetMsg::Reject(why)) => Err(NetError::Rejected(why)),
            Some(_) => Err(NetError::UnexpectedFrame("expected a Prediction")),
            None => Err(NetError::Disconnected),
        }
    }

    /// One synchronous round trip: encrypt, send, await the matching
    /// prediction.
    ///
    /// # Errors
    ///
    /// As [`send_request`](Self::send_request) and
    /// [`recv_prediction`](Self::recv_prediction); an id mismatch is
    /// [`NetError::UnexpectedFrame`].
    pub fn predict(&mut self, x: &Matrix<f64>) -> Result<Matrix<f64>, NetError> {
        let id = self.send_request(x)?;
        let p = self.recv_prediction()?;
        if p.id != id {
            return Err(NetError::UnexpectedFrame("prediction for a different id"));
        }
        Ok(p.outputs)
    }
}

/// Convenience driver: connect, predict on every matrix in `inputs`
/// with up to `window` requests in flight, and return the outputs in
/// order.
///
/// # Errors
///
/// As [`InferenceClient`]'s methods.
pub fn run_inference_client(
    addr: SocketAddr,
    session: SessionId,
    id: ClientId,
    config: &SessionConfig,
    seed: u64,
    inputs: &[Matrix<f64>],
    window: usize,
) -> Result<Vec<Matrix<f64>>, NetError> {
    let mut client = InferenceClient::connect(addr, session, id, config, seed, DEFAULT_MAX_FRAME)?;
    let window = window.max(1);
    let mut results: Vec<Option<Matrix<f64>>> = vec![None; inputs.len()];
    let mut sent = 0usize;
    let mut received = 0usize;
    while received < inputs.len() {
        while sent < inputs.len() && sent - received < window {
            client.send_request(&inputs[sent])?;
            sent += 1;
        }
        let p = client.recv_prediction()?;
        let idx = usize::try_from(p.id).map_err(|_| NetError::UnexpectedFrame("id overflow"))?;
        if idx >= inputs.len() || results[idx].is_some() {
            return Err(NetError::UnexpectedFrame("prediction for an unknown id"));
        }
        results[idx] = Some(p.outputs);
        received += 1;
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("all received"))
        .collect())
}
