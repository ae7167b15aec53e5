//! # cryptonn-fe
//!
//! Functional encryption for the CryptoNN framework:
//!
//! - [`feip`] — functional encryption for **inner products** (Abdalla et
//!   al., PKC 2015), restated in §II-B of the paper; used for secure
//!   dot-products and secure convolution.
//! - [`febo`] — functional encryption for **basic operations**
//!   (+, −, ×, ÷), the paper's novel ElGamal-derived construction
//!   (§III-B); used for element-wise secure computation.
//! - [`KeyAuthority`] — the trusted third party of Fig. 1: holds master
//!   keys, distributes public keys, enforces the permitted-function set
//!   `F`, and logs key-request traffic for the §IV-B2 communication
//!   analysis.
//!
//! Unlike homomorphic encryption, decryption with a function-derived key
//! reveals `f(x)` in plaintext — which is exactly what lets CryptoNN
//! *train* (not just predict) over encrypted data.
//!
//! ## Example
//!
//! ```
//! use cryptonn_fe::{feip, KeyAuthority, PermittedFunctions};
//! use cryptonn_group::{DlogTable, SchnorrGroup, SecurityLevel};
//!
//! let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
//! let authority = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), 42);
//!
//! // A client encrypts its feature vector.
//! let mpk = authority.feip_public_key(3);
//! let ct = feip::encrypt(&mpk, &[5, -3, 2], &mut rand::rng())?;
//!
//! // The server obtains a key for its weights and learns only <x, w>.
//! let w = [2i64, 4, 10];
//! let sk = authority.derive_ip_key(3, &w)?;
//! let table = DlogTable::new(&group, 1_000);
//! assert_eq!(feip::decrypt(&mpk, &ct, &sk, &w, &table)?, 18);
//! # Ok::<(), cryptonn_fe::FeError>(())
//! ```

#![warn(missing_docs)]

mod authority;
mod cache;
mod error;
pub mod febo;
pub mod feip;
mod service;
pub mod threshold;

pub use authority::{
    CommLog, KeyAuthority, PermittedFunctions, COMMITMENT_BYTES, KEY_BYTES, WEIGHT_BYTES,
};
pub use cache::{CachingKeyService, KeyCacheStats};
pub use error::FeError;
pub use febo::{BasicOp, FeboCiphertext, FeboFunctionKey, FeboMasterKey, FeboPublicKey};
pub use feip::{FeipCiphertext, FeipFunctionKey, FeipMasterKey, FeipPublicKey};
pub use service::{FeboKeyRequest, KeyService};
pub use threshold::{
    local_threshold_service, DleqProof, FeboPartial, LocalShareClient, ShareAuthority, ShareClient,
    ShareClientError, ShareSpec, ThresholdKeyService, ThresholdSetup, ThresholdStats,
};
