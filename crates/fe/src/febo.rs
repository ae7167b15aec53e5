//! FEBO: functional encryption for basic arithmetic operations.
//!
//! The CryptoNN paper's novel construction (§III-B), derived from ElGamal
//! encryption: for `f_Δ(x, y) = x Δ y` with `Δ ∈ {+, −, ×, ÷}`:
//!
//! - `Setup(1^λ)`: `msk = s`, `mpk = (g, h = g^s)`.
//! - `Encrypt(mpk, x)`: nonce `r`; commitment `cmt = g^r`,
//!   ciphertext `ct = h^r · g^x`.
//! - `KeyDerive(msk, cmt, Δ, y)`:
//!   `cmt^s · g^{∓y}` for ±, `(cmt^s)^y` for ×, `(cmt^s)^{y⁻¹}` for ÷.
//! - `Decrypt`: `ct / sk`, `ct^y / sk`, or `ct^{y⁻¹} / sk` respectively,
//!   yielding `g^{f_Δ(x,y)}`, recovered by BSGS.
//!
//! ## Division caveat
//!
//! For `Δ = ÷` the exponent is `x · y⁻¹ mod q`, which equals the integer
//! quotient only when `y` divides `x`; otherwise it is a full-size field
//! element and [`decrypt`] reports `DlogOutOfRange`. This is inherent to
//! the paper's construction (see DESIGN.md §3.4).

use std::sync::{Arc, OnceLock};

use cryptonn_group::{DlogTable, Element, ElementRatio, FixedBaseTable, Scalar, SchnorrGroup};
use cryptonn_parallel::{parallel_map, Parallelism};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::FeError;

/// The four basic arithmetic operations supported by FEBO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BasicOp {
    /// `x + y`
    Add,
    /// `x - y`
    Sub,
    /// `x * y`
    Mul,
    /// `x / y` (exact only when `y | x`; see module docs)
    Div,
}

impl BasicOp {
    /// All four operations, for exhaustive tests and benches.
    pub const ALL: [BasicOp; 4] = [BasicOp::Add, BasicOp::Sub, BasicOp::Mul, BasicOp::Div];

    /// Applies the operation to plaintext operands (reference semantics
    /// for tests). Division is Euclidean and only meaningful when exact.
    pub fn apply(&self, x: i64, y: i64) -> i64 {
        match self {
            BasicOp::Add => x + y,
            BasicOp::Sub => x - y,
            BasicOp::Mul => x * y,
            BasicOp::Div => x / y,
        }
    }

    /// The operator symbol, for diagnostics.
    pub fn symbol(&self) -> &'static str {
        match self {
            BasicOp::Add => "+",
            BasicOp::Sub => "-",
            BasicOp::Mul => "*",
            BasicOp::Div => "/",
        }
    }
}

impl core::fmt::Display for BasicOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.symbol())
    }
}

/// FEBO public key `(g, h = g^s)` plus the group.
///
/// Carries a fixed-base comb table for `h` — derived state that
/// travels with the key and is rebuilt (lazily, on first [`encrypt`])
/// rather than shipped across serialization (DESIGN.md §8). Clones
/// share the table via `Arc`.
#[derive(Clone)]
pub struct FeboPublicKey {
    group: SchnorrGroup,
    h: Element,
    /// Comb table for `h`; lazily built, never serialized.
    h_table: Arc<OnceLock<FixedBaseTable>>,
}

impl FeboPublicKey {
    /// Assembles a public key from its parts.
    fn assemble(group: SchnorrGroup, h: Element) -> Self {
        Self {
            group,
            h,
            h_table: Arc::new(OnceLock::new()),
        }
    }

    /// The underlying group.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// The comb table for `h`, built on first use.
    pub fn h_table(&self) -> &FixedBaseTable {
        self.h_table
            .get_or_init(|| self.group.fixed_base_table(&self.h))
    }

    /// The public element `h = g^s` — the common commitment a threshold
    /// combiner anchors its share commitments against
    /// (`Π Fⱼ^{λⱼ} = h` for any t-subset).
    pub fn element(&self) -> &Element {
        &self.h
    }
}

impl core::fmt::Debug for FeboPublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FeboPublicKey")
            .field("group", &self.group)
            .field("h", &self.h)
            .finish()
    }
}

impl PartialEq for FeboPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // The table is a pure function of (group, h).
        self.group == other.group && self.h == other.h
    }
}

impl Eq for FeboPublicKey {}

impl Serialize for FeboPublicKey {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(serde::Value::Map(vec![
            ("group".to_string(), serde::ser::to_value(&self.group)),
            ("h".to_string(), serde::ser::to_value(&self.h)),
        ]))
    }
}

impl<'de> Deserialize<'de> for FeboPublicKey {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let value = deserializer.deserialize_value()?;
        let entries = value
            .as_map()
            .ok_or_else(|| D::Error::custom("expected map for FeboPublicKey"))?;
        let group: SchnorrGroup = serde::de::field(entries, "group").map_err(D::Error::custom)?;
        let h: Element = serde::de::field(entries, "h").map_err(D::Error::custom)?;
        Ok(Self::assemble(group, h))
    }
}

/// FEBO master secret key `s`. Held only by the authority.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeboMasterKey {
    s: Scalar,
}

impl FeboMasterKey {
    /// The raw secret — crate-internal, so the threshold dealer can
    /// Shamir-share it without exposing it outside the crate.
    pub(crate) fn scalar(&self) -> &Scalar {
        &self.s
    }
}

/// A FEBO ciphertext: the commitment `cmt = g^r` (sent to the authority
/// for key derivation) and the payload `ct = h^r · g^x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeboCiphertext {
    cmt: Element,
    ct: Element,
}

impl FeboCiphertext {
    /// The commitment `cmt = g^r`, which the server forwards to the
    /// authority when requesting an operation key.
    pub fn commitment(&self) -> &Element {
        &self.cmt
    }
}

/// A function-derived key for one `(cmt, Δ, y)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeboFunctionKey {
    sk: Element,
    op: BasicOp,
}

impl FeboFunctionKey {
    /// The operation this key was derived for.
    pub fn op(&self) -> BasicOp {
        self.op
    }

    /// Raw element, exposed for size accounting in the authority's
    /// communication log.
    pub fn element(&self) -> &Element {
        &self.sk
    }
}

/// `Setup(1^λ)`: creates a FEBO instance over `group`.
pub fn setup<R: Rng + ?Sized>(group: SchnorrGroup, rng: &mut R) -> (FeboPublicKey, FeboMasterKey) {
    let s = group.random_scalar(rng);
    let h = group.exp(&s);
    (FeboPublicKey::assemble(group, h), FeboMasterKey { s })
}

/// `Encrypt(mpk, x)`: encrypts a signed integer.
///
/// Both exponentiations run against precomputed fixed-base tables:
/// `cmt = g^r` through the generator table and `ct = h^r · g^x` as one
/// fused two-factor multi-exponentiation through the key's `h` table.
pub fn encrypt<R: Rng + ?Sized>(mpk: &FeboPublicKey, x: i64, rng: &mut R) -> FeboCiphertext {
    let group = &mpk.group;
    let r = group.random_scalar(rng);
    let cmt = group.exp(&r);
    let x = group.scalar_from_i64(x);
    let ct = group.multi_pow(&[(mpk.h_table(), &r), (group.generator_table(), &x)]);
    FeboCiphertext { cmt, ct }
}

/// Batched `Encrypt`: encrypts each value in `xs`, fanning the samples
/// out over `parallelism`.
///
/// Randomness is forked exactly as in
/// [`feip::encrypt_batch`](crate::feip::encrypt_batch): one full-width
/// 256-bit seed per sample drawn from `rng` up front, so the output is
/// bit-identical across thread counts without capping the
/// per-ciphertext randomness.
pub fn encrypt_batch<R: Rng + ?Sized>(
    mpk: &FeboPublicKey,
    xs: &[i64],
    rng: &mut R,
    parallelism: Parallelism,
) -> Vec<FeboCiphertext> {
    let seeds: Vec<[u8; 32]> = (0..xs.len())
        .map(|_| {
            let mut seed = [0u8; 32];
            rng.fill_bytes(&mut seed);
            seed
        })
        .collect();
    parallel_map(xs.len(), parallelism.thread_count(), |i| {
        let mut sample_rng = StdRng::from_seed(seeds[i]);
        encrypt(mpk, xs[i], &mut sample_rng)
    })
}

/// `KeyDerive(msk, cmt, Δ, y)`: derives the operation key for a specific
/// ciphertext commitment and server operand `y`.
///
/// # Errors
///
/// Returns [`FeError::InvalidOperand`] for `Δ = ÷` with `y = 0`.
pub fn key_derive(
    group: &SchnorrGroup,
    msk: &FeboMasterKey,
    cmt: &Element,
    op: BasicOp,
    y: i64,
) -> Result<FeboFunctionKey, FeError> {
    finish_key(group, group.pow(cmt, &msk.s), op, y)
}

/// Applies the operand adjustment to a computed `cmt^s`, producing the
/// final operation key. Split out of [`key_derive`] so the threshold
/// combiner — which reconstructs `cmt^s` from Lagrange-weighted
/// partials instead of holding `s` — lands on the identical key bits.
pub(crate) fn finish_key(
    group: &SchnorrGroup,
    cmt_s: Element,
    op: BasicOp,
    y: i64,
) -> Result<FeboFunctionKey, FeError> {
    let sk = match op {
        BasicOp::Add => {
            // cmt^s · g^{-y}
            group.mul(&cmt_s, &group.exp(&group.scalar_from_i64(-y)))
        }
        BasicOp::Sub => {
            // cmt^s · g^{y}
            group.mul(&cmt_s, &group.exp(&group.scalar_from_i64(y)))
        }
        BasicOp::Mul => {
            // (cmt^s)^y
            group.pow(&cmt_s, &group.scalar_from_i64(y))
        }
        BasicOp::Div => {
            let y_scalar = group.scalar_from_i64(y);
            let y_inv = group
                .scalar_inv(&y_scalar)
                .ok_or(FeError::InvalidOperand("division by zero"))?;
            group.pow(&cmt_s, &y_inv)
        }
    };
    Ok(FeboFunctionKey { sk, op })
}

/// Computes the raw decryption `g^{f_Δ(x,y)}` without solving the
/// discrete log.
///
/// The multiply branch runs `ct^y` through the wNAF signed-digit path
/// (`SchnorrGroup::pow_signed_ratio`), so its cost scales with
/// `log₂|y|` instead of the full 256-bit chain. Batch callers should
/// prefer [`decrypt_ratio`] + `SchnorrGroup::resolve_ratios` so the
/// `/ sk` division amortizes across a whole matrix of cells.
///
/// # Errors
///
/// Returns [`FeError::InvalidOperand`] if the key's operation disagrees
/// with `op`, or for `Δ = ÷` with `y = 0`.
pub fn decrypt_raw(
    mpk: &FeboPublicKey,
    sk: &FeboFunctionKey,
    ct: &FeboCiphertext,
    op: BasicOp,
    y: i64,
) -> Result<Element, FeError> {
    Ok(decrypt_ratio(mpk, sk, ct, op, y)?.resolve(&mpk.group))
}

/// As [`decrypt_raw`], but returns the deferred ratio so many cells can
/// be resolved with one batched inversion (for `+`/`−` the numerator is
/// just `ct` — the whole per-cell cost collapses into the shared
/// inversion).
///
/// # Errors
///
/// As [`decrypt_raw`].
pub fn decrypt_ratio(
    mpk: &FeboPublicKey,
    sk: &FeboFunctionKey,
    ct: &FeboCiphertext,
    op: BasicOp,
    y: i64,
) -> Result<ElementRatio, FeError> {
    if sk.op != op {
        return Err(FeError::InvalidOperand(
            "function key derived for a different operation",
        ));
    }
    let group = &mpk.group;
    let ratio = match op {
        BasicOp::Add | BasicOp::Sub => ElementRatio::from_element(group, ct.ct),
        BasicOp::Mul => group.pow_signed_ratio(&ct.ct, y),
        BasicOp::Div => {
            let y_scalar = group.scalar_from_i64(y);
            let y_inv = group
                .scalar_inv(&y_scalar)
                .ok_or(FeError::InvalidOperand("division by zero"))?;
            ElementRatio::from_element(group, group.pow(&ct.ct, &y_inv))
        }
    };
    Ok(ratio.div_by(group, &sk.sk))
}

/// The pre-multi-scalar reference decryption: a full-width
/// exponentiation for `×` and an eager inversion per cell. Kept public
/// as the reference arm of the equivalence property tests.
///
/// # Errors
///
/// As [`decrypt_raw`].
pub fn decrypt_raw_naive(
    mpk: &FeboPublicKey,
    sk: &FeboFunctionKey,
    ct: &FeboCiphertext,
    op: BasicOp,
    y: i64,
) -> Result<Element, FeError> {
    if sk.op != op {
        return Err(FeError::InvalidOperand(
            "function key derived for a different operation",
        ));
    }
    let group = &mpk.group;
    let raw = match op {
        BasicOp::Add | BasicOp::Sub => group.div(&ct.ct, &sk.sk),
        BasicOp::Mul => {
            let ct_y = group.pow(&ct.ct, &group.scalar_from_i64(y));
            group.div(&ct_y, &sk.sk)
        }
        BasicOp::Div => {
            let y_scalar = group.scalar_from_i64(y);
            let y_inv = group
                .scalar_inv(&y_scalar)
                .ok_or(FeError::InvalidOperand("division by zero"))?;
            let ct_y = group.pow(&ct.ct, &y_inv);
            group.div(&ct_y, &sk.sk)
        }
    };
    Ok(raw)
}

/// `Decrypt(mpk, sk_fΔ, ct, Δ, y)`: recovers `x Δ y` as a signed integer
/// using the supplied BSGS table.
///
/// # Errors
///
/// - [`FeError::InvalidOperand`] on operation mismatch or `y = 0`
///   division,
/// - [`FeError::Group`] wrapping `DlogOutOfRange` if the result exceeds
///   the table bound (always the case for inexact division).
pub fn decrypt(
    mpk: &FeboPublicKey,
    sk: &FeboFunctionKey,
    ct: &FeboCiphertext,
    op: BasicOp,
    y: i64,
    table: &DlogTable,
) -> Result<i64, FeError> {
    let raw = decrypt_raw(mpk, sk, ct, op, y)?;
    Ok(table.solve(&mpk.group, &raw)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptonn_group::{GroupError, SecurityLevel};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn setup_small() -> (FeboPublicKey, FeboMasterKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        let (mpk, msk) = setup(group, &mut rng);
        (mpk, msk, rng)
    }

    #[test]
    fn all_ops_roundtrip() {
        let (mpk, msk, mut rng) = setup_small();
        let table = DlogTable::new(mpk.group(), 100_000);
        let cases = [
            (BasicOp::Add, 17, 25),
            (BasicOp::Add, -17, 25),
            (BasicOp::Sub, 9, 30),
            (BasicOp::Sub, -9, -30),
            (BasicOp::Mul, 12, 11),
            (BasicOp::Mul, -12, 11),
            (BasicOp::Mul, 12, -11),
            (BasicOp::Div, 144, 12),
            (BasicOp::Div, -144, 12),
            (BasicOp::Div, 144, -12),
        ];
        for (op, x, y) in cases {
            let ct = encrypt(&mpk, x, &mut rng);
            let sk = key_derive(mpk.group(), &msk, ct.commitment(), op, y).unwrap();
            let got = decrypt(&mpk, &sk, &ct, op, y, &table).unwrap();
            assert_eq!(got, op.apply(x, y), "{x} {op} {y}");
        }
    }

    #[test]
    fn random_add_sub_mul() {
        let (mpk, msk, mut rng) = setup_small();
        let table = DlogTable::new(mpk.group(), 1_000_000);
        for _ in 0..32 {
            let x = rng.random_range(-500i64..=500);
            let y = rng.random_range(-500i64..=500);
            for op in [BasicOp::Add, BasicOp::Sub, BasicOp::Mul] {
                let ct = encrypt(&mpk, x, &mut rng);
                let sk = key_derive(mpk.group(), &msk, ct.commitment(), op, y).unwrap();
                assert_eq!(
                    decrypt(&mpk, &sk, &ct, op, y, &table).unwrap(),
                    op.apply(x, y),
                    "{x} {op} {y}"
                );
            }
        }
    }

    #[test]
    fn exact_division_only() {
        let (mpk, msk, mut rng) = setup_small();
        let table = DlogTable::new(mpk.group(), 1000);
        // Exact: 84 / 7 = 12.
        let ct = encrypt(&mpk, 84, &mut rng);
        let sk = key_derive(mpk.group(), &msk, ct.commitment(), BasicOp::Div, 7).unwrap();
        assert_eq!(
            decrypt(&mpk, &sk, &ct, BasicOp::Div, 7, &table).unwrap(),
            12
        );
        // Inexact: 85 / 7 — exponent is a field element, dlog must fail.
        let ct = encrypt(&mpk, 85, &mut rng);
        let sk = key_derive(mpk.group(), &msk, ct.commitment(), BasicOp::Div, 7).unwrap();
        assert_eq!(
            decrypt(&mpk, &sk, &ct, BasicOp::Div, 7, &table),
            Err(FeError::Group(GroupError::DlogOutOfRange { bound: 1000 }))
        );
    }

    #[test]
    fn fast_decrypt_matches_naive_reference() {
        let (mpk, msk, mut rng) = setup_small();
        for _ in 0..16 {
            let x = rng.random_range(-500i64..=500);
            let y = rng.random_range(-500i64..=500);
            for op in [BasicOp::Add, BasicOp::Sub, BasicOp::Mul] {
                let ct = encrypt(&mpk, x, &mut rng);
                let sk = key_derive(mpk.group(), &msk, ct.commitment(), op, y).unwrap();
                assert_eq!(
                    decrypt_raw(&mpk, &sk, &ct, op, y).unwrap(),
                    decrypt_raw_naive(&mpk, &sk, &ct, op, y).unwrap(),
                    "{x} {op} {y}"
                );
            }
        }
        // Division (exact and inexact raw forms agree too) and y = 0 mul.
        let ct = encrypt(&mpk, 84, &mut rng);
        let sk = key_derive(mpk.group(), &msk, ct.commitment(), BasicOp::Div, 7).unwrap();
        assert_eq!(
            decrypt_raw(&mpk, &sk, &ct, BasicOp::Div, 7).unwrap(),
            decrypt_raw_naive(&mpk, &sk, &ct, BasicOp::Div, 7).unwrap()
        );
        let ct = encrypt(&mpk, 9, &mut rng);
        let sk = key_derive(mpk.group(), &msk, ct.commitment(), BasicOp::Mul, 0).unwrap();
        assert_eq!(
            decrypt_raw(&mpk, &sk, &ct, BasicOp::Mul, 0).unwrap(),
            decrypt_raw_naive(&mpk, &sk, &ct, BasicOp::Mul, 0).unwrap()
        );
    }

    #[test]
    fn division_by_zero_rejected() {
        let (mpk, msk, mut rng) = setup_small();
        let ct = encrypt(&mpk, 10, &mut rng);
        assert_eq!(
            key_derive(mpk.group(), &msk, ct.commitment(), BasicOp::Div, 0),
            Err(FeError::InvalidOperand("division by zero"))
        );
    }

    #[test]
    fn op_mismatch_rejected() {
        let (mpk, msk, mut rng) = setup_small();
        let table = DlogTable::new(mpk.group(), 1000);
        let ct = encrypt(&mpk, 10, &mut rng);
        let sk = key_derive(mpk.group(), &msk, ct.commitment(), BasicOp::Add, 5).unwrap();
        assert!(matches!(
            decrypt(&mpk, &sk, &ct, BasicOp::Mul, 5, &table),
            Err(FeError::InvalidOperand(_))
        ));
    }

    #[test]
    fn key_is_bound_to_commitment() {
        // A key derived for ciphertext A must not decrypt ciphertext B
        // (the commitment randomness differs).
        let (mpk, msk, mut rng) = setup_small();
        let table = DlogTable::new(mpk.group(), 1000);
        let ct_a = encrypt(&mpk, 10, &mut rng);
        let ct_b = encrypt(&mpk, 10, &mut rng);
        let sk_a = key_derive(mpk.group(), &msk, ct_a.commitment(), BasicOp::Add, 5).unwrap();
        match decrypt(&mpk, &sk_a, &ct_b, BasicOp::Add, 5, &table) {
            Ok(v) => assert_ne!(v, 15),
            Err(FeError::Group(GroupError::DlogOutOfRange { .. })) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let (mpk, _msk, mut rng) = setup_small();
        let a = encrypt(&mpk, 3, &mut rng);
        let b = encrypt(&mpk, 3, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_operands() {
        let (mpk, msk, mut rng) = setup_small();
        let table = DlogTable::new(mpk.group(), 100);
        // x = 0 works for every op with nonzero y.
        for op in [BasicOp::Add, BasicOp::Sub, BasicOp::Mul, BasicOp::Div] {
            let ct = encrypt(&mpk, 0, &mut rng);
            let sk = key_derive(mpk.group(), &msk, ct.commitment(), op, 4).unwrap();
            assert_eq!(
                decrypt(&mpk, &sk, &ct, op, 4, &table).unwrap(),
                op.apply(0, 4)
            );
        }
        // y = 0 works for add/sub/mul.
        for op in [BasicOp::Add, BasicOp::Sub, BasicOp::Mul] {
            let ct = encrypt(&mpk, 9, &mut rng);
            let sk = key_derive(mpk.group(), &msk, ct.commitment(), op, 0).unwrap();
            assert_eq!(
                decrypt(&mpk, &sk, &ct, op, 0, &table).unwrap(),
                op.apply(9, 0)
            );
        }
    }
}
