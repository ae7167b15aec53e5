//! Error types for the CryptoNN framework.

use core::fmt;

use cryptonn_fe::FeError;
use cryptonn_smc::SmcError;

/// Errors from encrypted training and prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoNnError {
    /// An encrypted batch's dimensions do not match the model.
    BatchShapeMismatch {
        /// What the model expects (features or classes).
        expected: usize,
        /// What the batch carries.
        got: usize,
        /// Which dimension disagreed.
        what: &'static str,
    },
    /// A prediction batch (no encrypted labels) was fed to a training
    /// step that needs the secure evaluation against `Y`.
    MissingLabels,
    /// The secure-computation layer failed.
    Smc(SmcError),
    /// A functional-encryption operation failed.
    Fe(FeError),
    /// A back-propagated delta handed to a secure gradient step is NaN
    /// or infinite — the model has diverged. Quantizing it would turn
    /// NaN into a zero gradient and ±∞ into a saturated one.
    NonFiniteDelta,
    /// A secure step needs a discrete-log table above the cap
    /// ([`MAX_DLOG_BOUND`](crate::MAX_DLOG_BOUND)) — the bound follows
    /// the batch's `max_abs_x`, which a peer chooses.
    DlogBoundTooLarge {
        /// The bound the step would need.
        bound: u64,
        /// The largest bound a table is built for.
        max: u64,
    },
    /// The model contains a layer that cannot be captured into (or
    /// restored from) a checkpoint snapshot.
    SnapshotUnsupported {
        /// The offending layer's name.
        layer: &'static str,
    },
}

impl fmt::Display for CryptoNnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoNnError::BatchShapeMismatch {
                expected,
                got,
                what,
            } => {
                write!(
                    f,
                    "encrypted batch {what} mismatch: expected {expected}, got {got}"
                )
            }
            CryptoNnError::MissingLabels => {
                write!(f, "batch was encrypted without labels (prediction batch)")
            }
            CryptoNnError::NonFiniteDelta => {
                write!(f, "gradient delta is NaN or infinite (diverged model)")
            }
            CryptoNnError::DlogBoundTooLarge { bound, max } => {
                write!(f, "discrete-log bound {bound} exceeds the cap {max}")
            }
            CryptoNnError::Smc(e) => write!(f, "secure computation failed: {e}"),
            CryptoNnError::Fe(e) => write!(f, "functional encryption failed: {e}"),
            CryptoNnError::SnapshotUnsupported { layer } => {
                write!(
                    f,
                    "model snapshot unsupported: layer {layer:?} does not expose parameters"
                )
            }
        }
    }
}

impl std::error::Error for CryptoNnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CryptoNnError::Smc(e) => Some(e),
            CryptoNnError::Fe(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SmcError> for CryptoNnError {
    fn from(e: SmcError) -> Self {
        CryptoNnError::Smc(e)
    }
}

impl From<FeError> for CryptoNnError {
    fn from(e: FeError) -> Self {
        CryptoNnError::Fe(e)
    }
}
