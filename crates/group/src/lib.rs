//! # cryptonn-group
//!
//! DDH-hard Schnorr groups and bounded discrete-logarithm recovery — the
//! algebraic setting for CryptoNN's functional encryption schemes.
//!
//! The paper's `GroupGen(1^λ)` (§II-B) is realized by
//! [`SchnorrGroup::generate`] (fresh safe prime) or
//! [`SchnorrGroup::precomputed`], which embeds two groups: the paper's
//! 256 bits ([`SecurityLevel::Bits256Fast`]) and a 64-bit group for
//! tests ([`SecurityLevel::Bits64`]). Decryption in both FEIP and FEBO ends with a
//! discrete logarithm of a bounded value, recovered via the baby-step
//! giant-step [`DlogTable`].
//!
//! All arithmetic runs on a cached per-group Montgomery context, and
//! fixed bases (the generator, FE public-key elements) get radix-2⁴
//! comb tables ([`FixedBaseTable`], [`SchnorrGroup::exp_table`],
//! [`SchnorrGroup::multi_pow`]) — the exponentiation pipeline of
//! DESIGN.md §8. *Variable* bases with small signed exponents (the
//! decrypt-side `∏ ctᵢ^{yᵢ}`) go through the Straus/wNAF multi-scalar
//! subsystem ([`WnafScalars`], [`OddPowerTables`],
//! [`SchnorrGroup::multi_scalar_ratio`]) with batched inversion
//! ([`SchnorrGroup::inv_batch`]) — DESIGN.md §10.
//!
//! The batch-decrypt hot paths additionally stride four independent
//! cells per call through `cryptonn-bigint`'s lane-batched Montgomery
//! kernel ([`SchnorrGroup::multi_scalar_ratio_lanes`],
//! [`DlogTable::solve_batch`]), [`SecurityLevel::Bits256Fast`] is a
//! Montgomery-friendly safe prime with one multiply per reduction
//! round shaved off, and BSGS tables persist to a fingerprinted on-disk
//! cache ([`DlogTable::load_or_build`]) so restarts skip the table
//! build — DESIGN.md §13.
//!
//! ## Example
//!
//! ```
//! use cryptonn_group::{DlogTable, SchnorrGroup, SecurityLevel};
//!
//! let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
//! let table = DlogTable::new(&group, 10_000);
//!
//! // g^(a+b) recovered from g^a * g^b.
//! let ga = group.exp(&group.scalar_from_i64(1234));
//! let gb = group.exp(&group.scalar_from_i64(-7000));
//! let sum = group.mul(&ga, &gb);
//! assert_eq!(table.solve(&group, &sum)?, -5766);
//! # Ok::<(), cryptonn_group::GroupError>(())
//! ```

mod cache;
mod dlog;
mod error;
mod fixed_base;
mod group;
mod multi_scalar;

pub use cryptonn_bigint::lanes::LANES;
pub use dlog::DlogTable;
pub use error::GroupError;
pub use fixed_base::FixedBaseTable;
pub use group::{Element, Scalar, SchnorrGroup, SecurityLevel};
pub use multi_scalar::{ElementRatio, OddPowerTables, WnafScalars, DEFAULT_WINDOW};
