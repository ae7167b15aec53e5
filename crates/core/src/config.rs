//! Configuration shared by the CryptoNN roles.

use cryptonn_group::SecurityLevel;
use cryptonn_smc::{FixedPoint, Parallelism};

/// Configuration for a CryptoNN deployment, fixing the crypto parameters
/// and quantization that authority, clients and server must agree on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CryptoNnConfig {
    /// The group security level (the paper evaluates at 256 bits; tests
    /// and CI benches use smaller groups — same algorithms, faster
    /// arithmetic).
    pub level: SecurityLevel,
    /// Quantization for data, labels and weights (paper: two decimals).
    pub fp: FixedPoint,
    /// Quantization for back-propagated deltas in the secure gradient
    /// step. Deltas are typically ≪ 1, so they get a finer scale.
    pub grad_fp: FixedPoint,
    /// Thread policy for the decryption loops.
    pub parallelism: Parallelism,
}

impl CryptoNnConfig {
    /// The paper's setting: 256-bit group, two-decimal quantization.
    pub fn paper() -> Self {
        Self {
            level: SecurityLevel::Bits256Fast,
            fp: FixedPoint::TWO_DECIMALS,
            grad_fp: FixedPoint::new(10_000),
            parallelism: Parallelism::available(),
        }
    }

    /// A fast setting for tests and CI benches: 64-bit group, otherwise
    /// identical pipeline.
    pub fn fast() -> Self {
        Self {
            level: SecurityLevel::Bits64,
            fp: FixedPoint::TWO_DECIMALS,
            grad_fp: FixedPoint::new(10_000),
            parallelism: Parallelism::available(),
        }
    }
}

impl Default for CryptoNnConfig {
    fn default() -> Self {
        Self::fast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(CryptoNnConfig::paper().level, SecurityLevel::Bits256Fast);
        assert_eq!(CryptoNnConfig::fast().level, SecurityLevel::Bits64);
        assert_eq!(CryptoNnConfig::default(), CryptoNnConfig::fast());
        assert_eq!(CryptoNnConfig::fast().fp.scale(), 100);
    }
}
