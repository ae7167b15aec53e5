//! Fixed-point quantization.
//!
//! The underlying functional encryption works over small integers, so
//! the paper "keep[s] two-decimal places approximately and then
//! transfer[s] the floating point number to the integer" (§IV-B3).
//! [`FixedPoint`] is that codec, with a configurable scale so the
//! precision test (`two_decimals_of_fixed_point_suffice`) can sweep it.

use cryptonn_matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A fixed-point codec mapping `f64 ↔ i64` by a decimal scale factor.
///
/// ```
/// use cryptonn_smc::FixedPoint;
///
/// let fp = FixedPoint::TWO_DECIMALS;
/// assert_eq!(fp.encode(3.14159), 314);
/// assert_eq!(fp.decode(314), 3.14);
/// // Products of two encoded values carry scale² and use decode_product.
/// assert_eq!(fp.decode_product(fp.encode(1.5) * fp.encode(2.0)), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FixedPoint {
    scale: u32,
}

impl FixedPoint {
    /// The paper's setting: two decimal places (scale 100).
    pub const TWO_DECIMALS: FixedPoint = FixedPoint { scale: 100 };
    /// One decimal place (scale 10).
    pub const ONE_DECIMAL: FixedPoint = FixedPoint { scale: 10 };
    /// Three decimal places (scale 1000).
    pub const THREE_DECIMALS: FixedPoint = FixedPoint { scale: 1000 };

    /// Creates a codec with an explicit scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn new(scale: u32) -> Self {
        assert!(scale > 0, "scale must be positive");
        Self { scale }
    }

    /// The scale factor.
    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// Quantizes a float to the nearest scaled integer.
    pub fn encode(&self, v: f64) -> i64 {
        (v * self.scale as f64).round() as i64
    }

    /// Dequantizes a scaled integer.
    pub fn decode(&self, v: i64) -> f64 {
        v as f64 / self.scale as f64
    }

    /// Dequantizes the product of two encoded values (scale²) — the
    /// shape of every secure dot-product / multiplication result.
    pub fn decode_product(&self, v: i64) -> f64 {
        v as f64 / (self.scale as f64 * self.scale as f64)
    }

    /// Quantizes a matrix element-wise.
    pub fn encode_matrix(&self, m: &Matrix<f64>) -> Matrix<i64> {
        m.map(|v| self.encode(v))
    }

    /// Dequantizes a matrix element-wise.
    pub fn decode_matrix(&self, m: &Matrix<i64>) -> Matrix<f64> {
        m.map(|v| self.decode(v))
    }

    /// Dequantizes a matrix of products (scale²) element-wise.
    pub fn decode_product_matrix(&self, m: &Matrix<i64>) -> Matrix<f64> {
        m.map(|v| self.decode_product(v))
    }

    /// The quantization round-trip `decode(encode(v))`, i.e. the value
    /// the encrypted pipeline actually sees. Exposed so the plaintext
    /// baseline can be run on identically-quantized data.
    pub fn roundtrip(&self, v: f64) -> f64 {
        self.decode(self.encode(v))
    }

    /// Round-trips a matrix through quantization.
    pub fn roundtrip_matrix(&self, m: &Matrix<f64>) -> Matrix<f64> {
        m.map(|v| self.roundtrip(v))
    }
}

impl Default for FixedPoint {
    fn default() -> Self {
        Self::TWO_DECIMALS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_rounds_to_nearest() {
        let fp = FixedPoint::TWO_DECIMALS;
        assert_eq!(fp.encode(1.234), 123);
        assert_eq!(fp.encode(1.235), 124);
        assert_eq!(fp.encode(-1.234), -123);
        assert_eq!(fp.encode(-1.236), -124);
        assert_eq!(fp.encode(0.0), 0);
    }

    #[test]
    fn decode_inverts_encode_for_representable_values() {
        let fp = FixedPoint::TWO_DECIMALS;
        for v in [-5.25, -0.01, 0.0, 0.5, 123.45] {
            assert!((fp.roundtrip(v) - v).abs() < 1e-12, "{v}");
        }
    }

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let fp = FixedPoint::TWO_DECIMALS;
        for i in 0..1000 {
            let v = (i as f64) * 0.00317 - 1.5;
            assert!((fp.roundtrip(v) - v).abs() <= 0.005 + 1e-12);
        }
    }

    #[test]
    fn product_decoding() {
        let fp = FixedPoint::TWO_DECIMALS;
        let a = fp.encode(1.25);
        let b = fp.encode(-0.8);
        assert!((fp.decode_product(a * b) - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn matrix_roundtrip() {
        let fp = FixedPoint::new(10);
        let m = Matrix::from_rows(&[&[0.15, -0.24], &[1.0, 2.5]]);
        let q = fp.encode_matrix(&m);
        assert_eq!(q.as_slice(), &[2, -2, 10, 25]);
        let back = fp.decode_matrix(&q);
        assert!(back.approx_eq(&Matrix::from_rows(&[&[0.2, -0.2], &[1.0, 2.5]]), 1e-12));
        assert_eq!(back, fp.roundtrip_matrix(&m));
    }

    #[test]
    fn scales() {
        assert_eq!(FixedPoint::ONE_DECIMAL.scale(), 10);
        assert_eq!(FixedPoint::TWO_DECIMALS.scale(), 100);
        assert_eq!(FixedPoint::THREE_DECIMALS.scale(), 1000);
        assert_eq!(FixedPoint::default(), FixedPoint::TWO_DECIMALS);
    }
}
