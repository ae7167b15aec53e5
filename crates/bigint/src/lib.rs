//! # cryptonn-bigint
//!
//! Fixed-width multi-precision integers and modular arithmetic — the
//! lowest layer of the CryptoNN reproduction, standing in for the GMP
//! library that the paper's Charm-based prototype relies on.
//!
//! The crate provides:
//!
//! - [`U256`] / [`U512`]: fixed-width unsigned integers with full
//!   arithmetic (Knuth Algorithm D division, widening multiplication),
//! - [`modular`]: modular add/sub/mul/pow/inverse over 256-bit moduli,
//! - [`montgomery`]: a reusable Montgomery reduction context (CIOS
//!   multiplication, with a fast-reduction path for moduli ≡ −1 mod
//!   2⁶⁴) that backs [`modular::mod_pow`] for odd moduli and the group
//!   layer's fixed-base exponentiation tables,
//! - [`lanes`]: the 4-wide lane-batched Montgomery kernel (four
//!   interleaved scalar CIOS chains, the same code on every target),
//! - [`prime`]: Miller–Rabin primality testing and (safe-)prime
//!   generation for `GroupGen(1^λ)`.
//!
//! ## Example
//!
//! ```
//! use cryptonn_bigint::{modular, U256};
//!
//! let p = U256::from_u64(1_000_003); // a prime modulus
//! let a = U256::from_u64(123_456);
//! let inv = modular::mod_inv(&a, &p).expect("p is prime");
//! assert_eq!(modular::mod_mul(&a, &inv, &p), U256::ONE);
//! ```

pub mod lanes;
pub mod limbs;
pub mod modular;
pub mod montgomery;
pub mod prime;
mod uint;

pub use lanes::kernel_name;
pub use montgomery::{Montgomery, Reducer};
pub use uint::{ParseUintError, U256, U512};
