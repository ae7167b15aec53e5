//! Fixed-width unsigned big integers: [`U256`] and [`U512`].
//!
//! `U256` is the working size for group elements and exponents (the paper
//! evaluates with a 256-bit security parameter); `U512` holds the result
//! of a full `U256 × U256` product before modular reduction.

use core::cmp::Ordering;
use core::fmt;

use rand::{Rng, RngExt};

use crate::limbs::{self, Limb};

/// Error returned when parsing a big integer from a hex string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUintError {
    kind: ParseUintErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseUintErrorKind {
    Empty,
    InvalidDigit(char),
    TooLong { max_hex_digits: usize },
}

impl fmt::Display for ParseUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseUintErrorKind::Empty => write!(f, "empty hex string"),
            ParseUintErrorKind::InvalidDigit(c) => write!(f, "invalid hex digit {c:?}"),
            ParseUintErrorKind::TooLong { max_hex_digits } => {
                write!(f, "hex string longer than {max_hex_digits} digits")
            }
        }
    }
}

impl std::error::Error for ParseUintError {}

macro_rules! define_uint {
    ($(#[$doc:meta])* $name:ident, $limbs:expr, $bits:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name {
            limbs: [Limb; $limbs],
        }

        impl $name {
            /// Number of 64-bit limbs.
            pub const LIMBS: usize = $limbs;
            /// Width in bits.
            pub const BITS: usize = $bits;
            /// The value 0.
            pub const ZERO: Self = Self { limbs: [0; $limbs] };
            /// The value 1.
            pub const ONE: Self = Self::from_u64(1);
            /// The largest representable value, `2^BITS - 1`.
            pub const MAX: Self = Self { limbs: [Limb::MAX; $limbs] };

            /// Creates a value from a `u64`.
            pub const fn from_u64(v: u64) -> Self {
                let mut limbs = [0; $limbs];
                limbs[0] = v;
                Self { limbs }
            }

            /// Creates a value from a `u128`.
            pub const fn from_u128(v: u128) -> Self {
                let mut limbs = [0; $limbs];
                limbs[0] = v as u64;
                limbs[1] = (v >> 64) as u64;
                Self { limbs }
            }

            /// Creates a value from little-endian limbs.
            pub const fn from_limbs(limbs: [Limb; $limbs]) -> Self {
                Self { limbs }
            }

            /// Borrows the little-endian limb representation.
            pub const fn as_limbs(&self) -> &[Limb; $limbs] {
                &self.limbs
            }

            /// Returns the little-endian limb representation by value.
            pub const fn to_limbs(self) -> [Limb; $limbs] {
                self.limbs
            }

            /// Parses a big-endian hex string (with or without a `0x` prefix).
            ///
            /// # Errors
            ///
            /// Returns [`ParseUintError`] if the string is empty, contains a
            /// non-hex character, or encodes a value wider than `BITS` bits.
            pub fn from_hex(s: &str) -> Result<Self, ParseUintError> {
                let s = s.strip_prefix("0x").unwrap_or(s);
                if s.is_empty() {
                    return Err(ParseUintError { kind: ParseUintErrorKind::Empty });
                }
                let max = $limbs * 16;
                let digits: Vec<u8> = s
                    .chars()
                    .filter(|c| *c != '_')
                    .map(|c| {
                        c.to_digit(16)
                            .map(|d| d as u8)
                            .ok_or(ParseUintError { kind: ParseUintErrorKind::InvalidDigit(c) })
                    })
                    .collect::<Result<_, _>>()?;
                if digits.len() > max && digits[..digits.len() - max].iter().any(|&d| d != 0) {
                    return Err(ParseUintError {
                        kind: ParseUintErrorKind::TooLong { max_hex_digits: max },
                    });
                }
                let mut limbs = [0 as Limb; $limbs];
                for (i, &d) in digits.iter().rev().enumerate() {
                    if i / 16 < $limbs {
                        limbs[i / 16] |= (d as Limb) << (4 * (i % 16));
                    }
                }
                Ok(Self { limbs })
            }

            /// Formats the value as a minimal-length lowercase hex string.
            pub fn to_hex(&self) -> String {
                let n = limbs::significant_limbs(&self.limbs);
                if n == 0 {
                    return "0".to_string();
                }
                let mut s = format!("{:x}", self.limbs[n - 1]);
                for i in (0..n - 1).rev() {
                    s.push_str(&format!("{:016x}", self.limbs[i]));
                }
                s
            }

            /// Returns the big-endian byte encoding.
            pub fn to_be_bytes(&self) -> [u8; $limbs * 8] {
                let mut out = [0u8; $limbs * 8];
                for (i, limb) in self.limbs.iter().enumerate() {
                    let start = ($limbs - 1 - i) * 8;
                    out[start..start + 8].copy_from_slice(&limb.to_be_bytes());
                }
                out
            }

            /// Creates a value from its big-endian byte encoding.
            pub fn from_be_bytes(bytes: [u8; $limbs * 8]) -> Self {
                let mut limbs = [0 as Limb; $limbs];
                for (i, limb) in limbs.iter_mut().enumerate() {
                    let start = ($limbs - 1 - i) * 8;
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(&bytes[start..start + 8]);
                    *limb = Limb::from_be_bytes(buf);
                }
                Self { limbs }
            }

            /// Returns the minimal little-endian byte encoding: no
            /// trailing zero bytes, empty for zero. The binary wire
            /// form — raw limb bytes, no hex round-trip.
            pub fn to_le_bytes_min(&self) -> Vec<u8> {
                let n = limbs::significant_limbs(&self.limbs);
                if n == 0 {
                    return Vec::new();
                }
                let top_len = 8 - (self.limbs[n - 1].leading_zeros() as usize) / 8;
                let mut out = Vec::with_capacity((n - 1) * 8 + top_len);
                for limb in &self.limbs[..n - 1] {
                    out.extend_from_slice(&limb.to_le_bytes());
                }
                out.extend_from_slice(&self.limbs[n - 1].to_le_bytes()[..top_len]);
                out
            }

            /// Creates a value from little-endian bytes of any length up
            /// to the type's width (trailing zero bytes are fine).
            ///
            /// # Errors
            ///
            /// Returns [`ParseUintError`] if significant bytes extend
            /// past `BITS` bits.
            pub fn from_le_slice(bytes: &[u8]) -> Result<Self, ParseUintError> {
                let max = $limbs * 8;
                if bytes.len() > max && bytes[max..].iter().any(|&b| b != 0) {
                    return Err(ParseUintError {
                        kind: ParseUintErrorKind::TooLong { max_hex_digits: $limbs * 16 },
                    });
                }
                let mut limbs = [0 as Limb; $limbs];
                for (i, &b) in bytes.iter().take(max).enumerate() {
                    limbs[i / 8] |= (b as Limb) << (8 * (i % 8));
                }
                Ok(Self { limbs })
            }

            /// Returns true if the value is zero.
            pub fn is_zero(&self) -> bool {
                self.limbs.iter().all(|&l| l == 0)
            }

            /// Returns true if the value is odd.
            pub fn is_odd(&self) -> bool {
                self.limbs[0] & 1 == 1
            }

            /// Returns true if the value is even.
            pub fn is_even(&self) -> bool {
                !self.is_odd()
            }

            /// Returns bit `i` (little-endian order).
            ///
            /// # Panics
            ///
            /// Panics if `i >= Self::BITS`.
            pub fn bit(&self, i: usize) -> bool {
                assert!(i < Self::BITS, "bit index out of range");
                (self.limbs[i / 64] >> (i % 64)) & 1 == 1
            }

            /// Number of significant bits (0 for zero).
            pub fn bit_len(&self) -> usize {
                limbs::bit_len(&self.limbs)
            }

            /// Truncates to the low 64 bits.
            pub fn low_u64(&self) -> u64 {
                self.limbs[0]
            }

            /// Addition returning `(wrapped_sum, carried)`.
            pub fn overflowing_add(&self, rhs: &Self) -> (Self, bool) {
                let mut out = *self;
                let carry = limbs::add_assign(&mut out.limbs, &rhs.limbs);
                (out, carry != 0)
            }

            /// Subtraction returning `(wrapped_difference, borrowed)`.
            pub fn overflowing_sub(&self, rhs: &Self) -> (Self, bool) {
                let mut out = *self;
                let borrow = limbs::sub_assign(&mut out.limbs, &rhs.limbs);
                (out, borrow != 0)
            }

            /// Wrapping (mod `2^BITS`) addition.
            pub fn wrapping_add(&self, rhs: &Self) -> Self {
                self.overflowing_add(rhs).0
            }

            /// Wrapping (mod `2^BITS`) subtraction.
            pub fn wrapping_sub(&self, rhs: &Self) -> Self {
                self.overflowing_sub(rhs).0
            }

            /// Checked addition; `None` on overflow.
            pub fn checked_add(&self, rhs: &Self) -> Option<Self> {
                match self.overflowing_add(rhs) {
                    (v, false) => Some(v),
                    _ => None,
                }
            }

            /// Checked subtraction; `None` on underflow.
            pub fn checked_sub(&self, rhs: &Self) -> Option<Self> {
                match self.overflowing_sub(rhs) {
                    (v, false) => Some(v),
                    _ => None,
                }
            }

            /// Truncating (mod `2^BITS`) multiplication.
            pub fn wrapping_mul(&self, rhs: &Self) -> Self {
                let mut wide = [0 as Limb; 2 * $limbs];
                limbs::mul_into(&self.limbs, &rhs.limbs, &mut wide);
                let mut limbs = [0 as Limb; $limbs];
                limbs.copy_from_slice(&wide[..$limbs]);
                Self { limbs }
            }

            /// Checked multiplication; `None` on overflow.
            pub fn checked_mul(&self, rhs: &Self) -> Option<Self> {
                let mut wide = [0 as Limb; 2 * $limbs];
                limbs::mul_into(&self.limbs, &rhs.limbs, &mut wide);
                if wide[$limbs..].iter().any(|&l| l != 0) {
                    return None;
                }
                let mut limbs = [0 as Limb; $limbs];
                limbs.copy_from_slice(&wide[..$limbs]);
                Some(Self { limbs })
            }

            /// Euclidean division: returns `(self / divisor, self % divisor)`.
            ///
            /// # Panics
            ///
            /// Panics if `divisor` is zero.
            pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
                let mut q = [0 as Limb; $limbs];
                let mut r = [0 as Limb; $limbs];
                limbs::div_rem_into(&self.limbs, &divisor.limbs, &mut q, &mut r);
                (Self { limbs: q }, Self { limbs: r })
            }

            /// Remainder of division by `divisor`.
            ///
            /// # Panics
            ///
            /// Panics if `divisor` is zero.
            pub fn rem(&self, divisor: &Self) -> Self {
                self.div_rem(divisor).1
            }

            /// Remainder of division by a single 64-bit divisor.
            ///
            /// # Panics
            ///
            /// Panics if `divisor` is zero.
            pub fn rem_u64(&self, divisor: u64) -> u64 {
                assert!(divisor != 0, "division by zero");
                let d = divisor as u128;
                let mut rem: u128 = 0;
                for &limb in self.limbs.iter().rev() {
                    rem = ((rem << 64) | limb as u128) % d;
                }
                rem as u64
            }

            /// Logical shift right by `shift` bits (zero if `shift >= BITS`).
            pub fn shr(&self, shift: usize) -> Self {
                if shift >= Self::BITS {
                    return Self::ZERO;
                }
                let limb_shift = shift / 64;
                let bit_shift = (shift % 64) as u32;
                let mut out = [0 as Limb; $limbs];
                out[..$limbs - limb_shift].copy_from_slice(&self.limbs[limb_shift..]);
                limbs::shr_small(&mut out, bit_shift);
                Self { limbs: out }
            }

            /// Logical shift left by `shift` bits (zero if `shift >= BITS`);
            /// overflowing bits are discarded.
            pub fn shl(&self, shift: usize) -> Self {
                if shift >= Self::BITS {
                    return Self::ZERO;
                }
                let limb_shift = shift / 64;
                let bit_shift = (shift % 64) as u32;
                let mut out = [0 as Limb; $limbs];
                out[limb_shift..].copy_from_slice(&self.limbs[..$limbs - limb_shift]);
                limbs::shl_small(&mut out, bit_shift);
                Self { limbs: out }
            }

            /// Samples a uniformly random value over the full width.
            pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
                let mut limbs = [0 as Limb; $limbs];
                for limb in &mut limbs {
                    *limb = rng.random();
                }
                Self { limbs }
            }

            /// Samples a uniformly random value in `[0, bound)` by rejection
            /// sampling on the bit length of `bound`.
            ///
            /// # Panics
            ///
            /// Panics if `bound` is zero.
            pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &Self) -> Self {
                assert!(!bound.is_zero(), "random_below: zero bound");
                let bits = bound.bit_len();
                let top_limb = (bits - 1) / 64;
                let mask = if bits % 64 == 0 { Limb::MAX } else { (1 << (bits % 64)) - 1 };
                loop {
                    let mut limbs = [0 as Limb; $limbs];
                    for limb in limbs.iter_mut().take(top_limb + 1) {
                        *limb = rng.random();
                    }
                    limbs[top_limb] &= mask;
                    let candidate = Self { limbs };
                    if candidate < *bound {
                        return candidate;
                    }
                }
            }
        }

        impl Ord for $name {
            fn cmp(&self, other: &Self) -> Ordering {
                limbs::cmp_slices(&self.limbs, &other.limbs)
            }
        }

        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "(0x{})"), self.to_hex())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "0x{}", self.to_hex())
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.to_hex())
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self::from_u64(v)
            }
        }

        impl From<u128> for $name {
            fn from(v: u128) -> Self {
                Self::from_u128(v)
            }
        }

        impl core::str::FromStr for $name {
            type Err = ParseUintError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                Self::from_hex(s)
            }
        }

        impl serde::Serialize for $name {
            fn serialize<S: serde::Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
                // Byte form: raw minimal little-endian limbs. The JSON
                // writer renders this as the exact minimal lowercase
                // hex `to_hex()` used to emit, so text documents are
                // unchanged while binary formats skip hex entirely.
                ser.serialize_bytes(&self.to_le_bytes_min())
            }
        }

        impl<'de> serde::Deserialize<'de> for $name {
            fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
                match de.deserialize_value()? {
                    serde::Value::Bytes(b) => {
                        Self::from_le_slice(&b).map_err(serde::de::Error::custom)
                    }
                    serde::Value::Str(s) => Self::from_hex(&s).map_err(serde::de::Error::custom),
                    other => Err(serde::de::Error::custom(format!(
                        concat!("expected hex string or bytes for ", stringify!($name), ", got {}"),
                        other.kind()
                    ))),
                }
            }
        }
    };
}

define_uint!(
    /// A 256-bit unsigned integer (4 × 64-bit limbs, little-endian).
    ///
    /// ```
    /// use cryptonn_bigint::U256;
    ///
    /// let a = U256::from_u64(41);
    /// let b = a.wrapping_add(&U256::ONE);
    /// assert_eq!(b, U256::from_u64(42));
    /// ```
    U256,
    4,
    256
);

define_uint!(
    /// A 512-bit unsigned integer, wide enough to hold a `U256 × U256`
    /// product before reduction.
    ///
    /// ```
    /// use cryptonn_bigint::{U256, U512};
    ///
    /// let p = U256::MAX.widening_mul(&U256::MAX);
    /// assert_eq!(p.bit_len(), 512);
    /// let trunc: U256 = p.truncate();
    /// assert_eq!(trunc, U256::ONE); // (2^256 - 1)^2 ≡ 1 (mod 2^256)
    /// ```
    U512,
    8,
    512
);

impl U256 {
    /// Full-width multiplication into a [`U512`].
    pub fn widening_mul(&self, rhs: &Self) -> U512 {
        let mut wide = [0 as Limb; 8];
        limbs::mul_into(self.as_limbs(), rhs.as_limbs(), &mut wide);
        U512::from_limbs(wide)
    }

    /// Zero-extends into a [`U512`].
    pub fn widen(&self) -> U512 {
        let mut limbs = [0 as Limb; 8];
        limbs[..4].copy_from_slice(self.as_limbs());
        U512::from_limbs(limbs)
    }
}

impl U512 {
    /// Truncates to the low 256 bits.
    pub fn truncate(&self) -> U256 {
        let mut limbs = [0 as Limb; 4];
        limbs.copy_from_slice(&self.as_limbs()[..4]);
        U256::from_limbs(limbs)
    }

    /// Remainder of division by a 256-bit modulus.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn rem_u256(&self, modulus: &U256) -> U256 {
        let mut q = [0 as Limb; 8];
        let mut r = [0 as Limb; 4];
        limbs::div_rem_into(self.as_limbs(), modulus.as_limbs(), &mut q, &mut r);
        U256::from_limbs(r)
    }
}

impl From<U256> for U512 {
    fn from(v: U256) -> Self {
        v.widen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn constants() {
        assert!(U256::ZERO.is_zero());
        assert!(U256::ONE.is_odd());
        assert_eq!(U256::MAX.bit_len(), 256);
        assert_eq!(U256::ZERO.bit_len(), 0);
    }

    #[test]
    fn hex_roundtrip() {
        let cases = ["0", "1", "deadbeef", "ffffffffffffffffffffffffffffffff"];
        for c in cases {
            let v = U256::from_hex(c).unwrap();
            assert_eq!(v.to_hex(), c);
        }
        assert_eq!(U256::from_hex("0xFF").unwrap(), U256::from_u64(255));
    }

    #[test]
    fn hex_errors() {
        assert!(U256::from_hex("").is_err());
        assert!(U256::from_hex("xyz").is_err());
        // 65 hex digits with a significant top digit does not fit in 256 bits.
        let too_long = format!("1{}", "0".repeat(64));
        assert!(U256::from_hex(&too_long).is_err());
        // Leading zeros are allowed even past the width.
        let padded = format!("0{}", "f".repeat(64));
        assert!(U256::from_hex(&padded).is_ok());
    }

    #[test]
    fn be_bytes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            let v = U256::random(&mut rng);
            assert_eq!(U256::from_be_bytes(v.to_be_bytes()), v);
        }
    }

    #[test]
    fn add_sub_invariants() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..64 {
            let a = U256::random(&mut rng);
            let b = U256::random(&mut rng);
            let sum = a.wrapping_add(&b);
            assert_eq!(sum.wrapping_sub(&b), a);
            assert_eq!(sum.wrapping_sub(&a), b);
        }
    }

    #[test]
    fn checked_ops() {
        assert_eq!(U256::MAX.checked_add(&U256::ONE), None);
        assert_eq!(U256::ZERO.checked_sub(&U256::ONE), None);
        assert_eq!(
            U256::from_u64(5).checked_add(&U256::from_u64(6)),
            Some(U256::from_u64(11))
        );
        assert_eq!(U256::MAX.checked_mul(&U256::from_u64(2)), None);
        assert_eq!(
            U256::from_u128(1 << 100).checked_mul(&U256::from_u64(4)),
            Some(U256::from_u128(1 << 102))
        );
    }

    #[test]
    fn div_rem_invariant_small() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..128 {
            let a = U256::random(&mut rng);
            let b = U256::from_u128((rng.random::<u128>() >> 32).max(1));
            let (q, r) = a.div_rem(&b);
            assert!(r < b);
            // a = q*b + r
            let back = q.wrapping_mul(&b).wrapping_add(&r);
            assert_eq!(back, a);
        }
    }

    #[test]
    fn widening_mul_vs_u128() {
        let a = U256::from_u128(u128::MAX);
        let b = U256::from_u128(u128::MAX);
        let wide = a.widening_mul(&b);
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let expect =
            U512::from_hex("fffffffffffffffffffffffffffffffe00000000000000000000000000000001")
                .unwrap();
        assert_eq!(wide, expect);
    }

    #[test]
    fn rem_u256_matches_div_rem() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            let a = U256::random(&mut rng);
            let b = U256::random(&mut rng);
            let m = U256::random(&mut rng);
            if m.is_zero() {
                continue;
            }
            let wide = a.widening_mul(&b);
            let r = wide.rem_u256(&m);
            assert!(r < m);
        }
    }

    #[test]
    fn shifts() {
        let v = U256::from_u64(1);
        assert!(v.shl(255).bit(255));
        assert_eq!(v.shl(256), U256::ZERO);
        assert_eq!(v.shl(64).low_u64(), 0);
        assert_eq!(v.shl(64).as_limbs()[1], 1);
        assert_eq!(v.shl(70).shr(70), v);
        let x = U256::from_hex("123456789abcdef0123456789abcdef0").unwrap();
        assert_eq!(x.shl(13).shr(13), x);
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let bound = U256::from_u64(1000);
        for _ in 0..256 {
            let v = U256::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
        // A one-value range always yields zero.
        assert_eq!(U256::random_below(&mut rng, &U256::ONE), U256::ZERO);
    }

    #[test]
    fn rem_u64_small() {
        let v = U256::from_u128(12345678901234567890123456789);
        assert_eq!(
            v.rem_u64(97),
            (12345678901234567890123456789u128 % 97) as u64
        );
    }

    #[test]
    fn ordering() {
        let a = U256::from_u64(5);
        let b = U256::from_hex("100000000000000000").unwrap();
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), core::cmp::Ordering::Equal);
    }

    #[test]
    fn display_and_debug_nonempty() {
        assert_eq!(format!("{}", U256::ZERO), "0x0");
        assert_eq!(format!("{:x}", U256::from_u64(255)), "ff");
        assert!(format!("{:?}", U256::ONE).contains("U256"));
    }
}
