//! Schnorr groups: the DDH-hard setting for FEIP and FEBO.
//!
//! `GroupGen(1^λ)` in the paper returns a triple `(G, p, g)`. We realize
//! `G` as the order-`q` subgroup of `Z_p^*` for a safe prime `p = 2q + 1`
//! (the subgroup of quadratic residues), in which the Decisional
//! Diffie–Hellman assumption is standard.

use std::sync::Arc;

use cryptonn_bigint::modular::{mod_inv, mod_neg, mod_pow};
use cryptonn_bigint::prime::{gen_safe_prime, is_prime};
use cryptonn_bigint::{Montgomery, U256};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::GroupError;
use crate::fixed_base::FixedBaseTable;

/// An element of the multiplicative group `Z_p^*` (in practice, of its
/// order-`q` subgroup of quadratic residues).
///
/// Elements are created and combined through [`SchnorrGroup`] methods,
/// which maintain the reduced-mod-`p` invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Element(pub(crate) U256);

impl Element {
    /// The raw reduced representative in `[0, p)`.
    pub fn value(&self) -> &U256 {
        &self.0
    }
}

/// An exponent in `Z_q`, the scalar field of the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Scalar(U256);

impl Scalar {
    /// The scalar zero.
    pub const ZERO: Scalar = Scalar(U256::ZERO);
    /// The scalar one.
    pub const ONE: Scalar = Scalar(U256::ONE);

    /// The raw reduced representative in `[0, q)`.
    pub fn value(&self) -> &U256 {
        &self.0
    }
}

/// A Schnorr group `(p, q, g)` with `p = 2q + 1` a safe prime and `g` a
/// generator of the order-`q` subgroup.
///
/// Every group carries a shared precomputation context: Montgomery
/// reduction contexts for both `p` (element arithmetic) and `q` (scalar
/// arithmetic), plus a fixed-base comb table for the generator. The
/// context is rebuilt from `(p, q, g)` on deserialization and is never
/// serialized itself, so key material carries its own precomputation
/// wherever it travels (DESIGN.md §8). Cloning a group shares the
/// context via `Arc`.
///
/// ```
/// use cryptonn_group::{SchnorrGroup, SecurityLevel};
///
/// let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
/// let x = group.scalar_from_u64(7);
/// let gx = group.exp(&x);                  // g^7
/// let g3 = group.exp(&group.scalar_from_u64(3));
/// let g4 = group.exp(&group.scalar_from_u64(4));
/// assert_eq!(group.mul(&g3, &g4), gx);     // g^3 · g^4 = g^7
/// ```
#[derive(Clone)]
pub struct SchnorrGroup {
    p: U256,
    q: U256,
    g: U256,
    ctx: Arc<GroupCtx>,
}

/// Shared per-group precomputation: built once per `(p, q, g)` and
/// shared by all clones.
#[derive(Debug)]
struct GroupCtx {
    /// Montgomery context for the element field `Z_p`.
    mont_p: Montgomery,
    /// Montgomery context for the scalar field `Z_q`.
    mont_q: Montgomery,
    /// Radix-2⁴ comb table for the generator `g`.
    g_table: FixedBaseTable,
}

impl core::fmt::Debug for SchnorrGroup {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The derived cache is noise; show the defining triple only.
        f.debug_struct("SchnorrGroup")
            .field("p", &self.p)
            .field("q", &self.q)
            .field("g", &self.g)
            .finish()
    }
}

impl PartialEq for SchnorrGroup {
    fn eq(&self, other: &Self) -> bool {
        // The context is a pure function of (p, q, g).
        self.p == other.p && self.q == other.q && self.g == other.g
    }
}

impl Eq for SchnorrGroup {}

impl Serialize for SchnorrGroup {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Mirrors the layout a field derive would produce; the
        // precomputation context is derived state and stays local.
        serializer.serialize_value(serde::Value::Map(vec![
            ("p".to_string(), serde::ser::to_value(&self.p)),
            ("q".to_string(), serde::ser::to_value(&self.q)),
            ("g".to_string(), serde::ser::to_value(&self.g)),
        ]))
    }
}

impl<'de> Deserialize<'de> for SchnorrGroup {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let value = deserializer.deserialize_value()?;
        let entries = value
            .as_map()
            .ok_or_else(|| D::Error::custom("expected map for SchnorrGroup"))?;
        let p: U256 = serde::de::field(entries, "p").map_err(D::Error::custom)?;
        let q: U256 = serde::de::field(entries, "q").map_err(D::Error::custom)?;
        let g: U256 = serde::de::field(entries, "g").map_err(D::Error::custom)?;
        if p.is_even() || p <= U256::ONE || q.is_even() || q <= U256::ONE {
            return Err(D::Error::custom(
                "SchnorrGroup moduli must be odd primes greater than one",
            ));
        }
        Ok(Self::from_checked_parts(p, q, g))
    }
}

/// Named security levels with precomputed safe-prime parameters.
///
/// The parameters were generated once by
/// `cryptonn-bigint/examples/gen_group_params.rs` from a fixed seed and
/// verified prime on construction (see `params` tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SecurityLevel {
    /// 32-bit toy parameters — unit tests only.
    Bits32,
    /// 64-bit parameters — fast integration tests and CI benches.
    Bits64,
    /// 128-bit parameters — the default for the figure benchmarks.
    Bits128,
    /// 192-bit parameters.
    Bits192,
    /// 224-bit parameters.
    Bits224,
    /// 256-bit parameters — the paper's evaluation setting.
    Bits256,
    /// 256-bit Montgomery-friendly parameters: a safe prime with
    /// `p ≡ -1 (mod 2^64)` (and `q ≡ -1 (mod 2^64)` as well), so both
    /// modulus fields take the `Reducer::FastP64` reduction that drops
    /// one multiply per CIOS round (DESIGN.md §13.2). Same margin as
    /// [`SecurityLevel::Bits256`], which is to say none against a
    /// discrete-log computation: no level here resists one. A 256-bit
    /// prime field is far below the 795-bit NFS record (Boudot et al.,
    /// CRYPTO 2020), so whoever can run NFS on `p` recovers secret
    /// exponents from public keys (DESIGN.md §3.2).
    Bits256Fast,
}

impl SecurityLevel {
    /// The modulus width in bits.
    pub fn bits(&self) -> usize {
        match self {
            SecurityLevel::Bits32 => 32,
            SecurityLevel::Bits64 => 64,
            SecurityLevel::Bits128 => 128,
            SecurityLevel::Bits192 => 192,
            SecurityLevel::Bits224 => 224,
            SecurityLevel::Bits256 => 256,
            SecurityLevel::Bits256Fast => 256,
        }
    }
}

/// Precomputed `(p, q)` hex pairs, indexed like [`SecurityLevel`].
const PARAMS: &[(SecurityLevel, &str, &str)] = &[
    (SecurityLevel::Bits32, "85a1545f", "42d0aa2f"),
    (
        SecurityLevel::Bits64,
        "e1946b58700bae4f",
        "70ca35ac3805d727",
    ),
    (
        SecurityLevel::Bits128,
        "e8a60f34154b07019e29019fd53661e7",
        "7453079a0aa58380cf1480cfea9b30f3",
    ),
    (
        SecurityLevel::Bits192,
        "cae643bc62df98dce86d1a300a4f8dc41916bd5ee88ba403",
        "657321de316fcc6e74368d180527c6e20c8b5eaf7445d201",
    ),
    (
        SecurityLevel::Bits224,
        "f1fcd972befe655dea418894ba5e896515c2f7f09dee7ecd12512353",
        "78fe6cb95f7f32aef520c44a5d2f44b28ae17bf84ef73f66892891a9",
    ),
    (
        SecurityLevel::Bits256,
        "a504130456d8cce0af73fd190c683b02148b6371a703ba4bac786a772db736af",
        "528209822b6c667057b9fe8c86341d810a45b1b8d381dd25d63c353b96db9b57",
    ),
    // Generated by cryptonn-bigint/examples/gen_fast_prime.rs (seeded);
    // p = k·2^64 − 1 with k even, so q = (p−1)/2 ends in 64 one-bits too.
    (
        SecurityLevel::Bits256Fast,
        "9f2c45ea4d0cf9de4608fe14686ecec4ec2bde9b9326aa17ffffffffffffffff",
        "4f9622f526867cef23047f0a343767627615ef4dc993550bffffffffffffffff",
    ),
];

impl SchnorrGroup {
    /// `GroupGen(1^λ)`: generates a fresh safe-prime group of `bits` bits.
    ///
    /// This is expensive for large `bits`; prefer [`SchnorrGroup::precomputed`]
    /// unless fresh parameters are required.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 4` or `bits > 256`.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!((4..=256).contains(&bits), "bits must be in 4..=256");
        let (p, q) = gen_safe_prime(bits, rng);
        Self::with_default_generator(p, q)
    }

    /// Returns the embedded group for a named security level.
    pub fn precomputed(level: SecurityLevel) -> Self {
        let (p, q) = Self::embedded_params(level);
        Self::with_default_generator(p, q)
    }

    /// [`precomputed`](Self::precomputed), but warm-startable: loads
    /// the generator comb table from the on-disk cache in `dir` when a
    /// valid one exists, and otherwise builds it and persists it
    /// (best-effort) for the next start. Cache files are keyed and
    /// stamped with the group fingerprint `(p, q, g)`; anything invalid
    /// — foreign fingerprint, corruption, stale format — is rebuilt and
    /// overwritten (DESIGN.md §13.4).
    pub fn precomputed_cached(level: SecurityLevel, dir: &std::path::Path) -> Self {
        let (p, q) = Self::embedded_params(level);
        let g = U256::from_u64(4);
        debug_assert_eq!(mod_pow(&g, &q, &p), U256::ONE);
        let cached = crate::cache::load_comb(dir, &p, &q, &g);
        let warm = cached.is_some();
        let group = Self::from_checked_parts_with(p, q, g, cached);
        if !warm {
            let _ = crate::cache::store_comb(dir, &group);
        }
        group
    }

    /// The embedded `(p, q)` pair for a named security level.
    fn embedded_params(level: SecurityLevel) -> (U256, U256) {
        let (_, p_hex, q_hex) = PARAMS
            .iter()
            .find(|(l, _, _)| *l == level)
            .expect("all levels have parameters");
        let p = U256::from_hex(p_hex).expect("valid embedded hex");
        let q = U256::from_hex(q_hex).expect("valid embedded hex");
        (p, q)
    }

    /// Builds a group from explicit parameters, validating primality of
    /// `p` and `q`, the safe-prime relation, and the generator.
    ///
    /// # Errors
    ///
    /// Returns [`GroupError`] if any validity check fails.
    pub fn from_params<R: Rng + ?Sized>(
        p: U256,
        q: U256,
        g: U256,
        rng: &mut R,
    ) -> Result<Self, GroupError> {
        if !is_prime(&p, rng) {
            return Err(GroupError::CompositeModulus);
        }
        if !is_prime(&q, rng) || p != q.shl(1).wrapping_add(&U256::ONE) {
            return Err(GroupError::InvalidOrder);
        }
        if g <= U256::ONE || g >= p || mod_pow(&g, &q, &p) != U256::ONE {
            return Err(GroupError::InvalidGenerator);
        }
        Ok(Self::from_checked_parts(p, q, g))
    }

    /// `g = 4 = 2²`, a quadratic residue, generates the order-`q`
    /// subgroup whenever `q` is prime and `4 ≠ 1 (mod p)`.
    fn with_default_generator(p: U256, q: U256) -> Self {
        let g = U256::from_u64(4);
        debug_assert_eq!(mod_pow(&g, &q, &p), U256::ONE);
        Self::from_checked_parts(p, q, g)
    }

    /// Builds the group and its shared precomputation context. `p` and
    /// `q` must already be validated odd primes (all callers either
    /// embed, generate, or explicitly check them).
    fn from_checked_parts(p: U256, q: U256, g: U256) -> Self {
        Self::from_checked_parts_with(p, q, g, None)
    }

    /// [`from_checked_parts`](Self::from_checked_parts) with an
    /// optional pre-built (cache-loaded) generator comb.
    fn from_checked_parts_with(p: U256, q: U256, g: U256, table: Option<FixedBaseTable>) -> Self {
        let mont_p = Montgomery::new(&p).expect("p is an odd prime");
        let mont_q = Montgomery::new(&q).expect("q is an odd prime");
        let g_table = table.unwrap_or_else(|| FixedBaseTable::build(&mont_p, &g, q.bit_len()));
        Self {
            p,
            q,
            g,
            ctx: Arc::new(GroupCtx {
                mont_p,
                mont_q,
                g_table,
            }),
        }
    }

    /// The cached Montgomery context for the element field `Z_p` — the
    /// in-crate hook the multi-scalar module evaluates through.
    pub(crate) fn mont_p(&self) -> &Montgomery {
        &self.ctx.mont_p
    }

    /// The prime modulus `p`.
    pub fn modulus(&self) -> &U256 {
        &self.p
    }

    /// The prime subgroup order `q`.
    pub fn order(&self) -> &U256 {
        &self.q
    }

    /// The subgroup generator `g`.
    pub fn generator(&self) -> Element {
        Element(self.g)
    }

    /// The identity element `1`.
    pub fn identity(&self) -> Element {
        Element(U256::ONE)
    }

    // ---- scalar (Z_q) arithmetic -------------------------------------

    /// Embeds a `u64` into `Z_q`.
    pub fn scalar_from_u64(&self, v: u64) -> Scalar {
        Scalar(U256::from_u64(v).rem(&self.q))
    }

    /// Embeds a signed integer into `Z_q` (negative values map to
    /// `q - |v|`, the standard balanced representation).
    pub fn scalar_from_i64(&self, v: i64) -> Scalar {
        if v >= 0 {
            self.scalar_from_u64(v as u64)
        } else {
            Scalar(mod_neg(
                &U256::from_u64(v.unsigned_abs()).rem(&self.q),
                &self.q,
            ))
        }
    }

    /// Reduces an arbitrary 256-bit value into `Z_q`.
    pub fn scalar_from_u256(&self, v: U256) -> Scalar {
        Scalar(v.rem(&self.q))
    }

    /// Samples a uniform scalar in `[0, q)`.
    pub fn random_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> Scalar {
        Scalar(U256::random_below(rng, &self.q))
    }

    /// `(a + b) mod q`.
    pub fn scalar_add(&self, a: &Scalar, b: &Scalar) -> Scalar {
        Scalar(cryptonn_bigint::modular::mod_add(&a.0, &b.0, &self.q))
    }

    /// `(a - b) mod q`.
    pub fn scalar_sub(&self, a: &Scalar, b: &Scalar) -> Scalar {
        Scalar(cryptonn_bigint::modular::mod_sub(&a.0, &b.0, &self.q))
    }

    /// `(a * b) mod q`, via the cached Montgomery context for `q`.
    pub fn scalar_mul(&self, a: &Scalar, b: &Scalar) -> Scalar {
        Scalar(self.ctx.mont_q.mod_mul(&a.0, &b.0))
    }

    /// `(-a) mod q`.
    pub fn scalar_neg(&self, a: &Scalar) -> Scalar {
        Scalar(mod_neg(&a.0, &self.q))
    }

    /// `a⁻¹ mod q`, or `None` for the zero scalar.
    pub fn scalar_inv(&self, a: &Scalar) -> Option<Scalar> {
        mod_inv(&a.0, &self.q).map(Scalar)
    }

    /// Inner product `⟨a, b⟩ mod q` of two scalar slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn scalar_dot(&self, a: &[Scalar], b: &[Scalar]) -> Scalar {
        assert_eq!(a.len(), b.len(), "scalar_dot length mismatch");
        let mut acc = Scalar::ZERO;
        for (x, y) in a.iter().zip(b) {
            acc = self.scalar_add(&acc, &self.scalar_mul(x, y));
        }
        acc
    }

    // ---- group (Z_p^*) arithmetic ------------------------------------

    /// `g^e` for the group generator, via the cached fixed-base comb
    /// table (≤ `⌈bits(q)/4⌉` Montgomery products, no squarings).
    pub fn exp(&self, e: &Scalar) -> Element {
        Element(self.ctx.g_table.pow(&self.ctx.mont_p, &e.0))
    }

    /// `base^e` for an arbitrary base, by windowed exponentiation in
    /// the cached Montgomery domain. For bases that recur (the FEIP
    /// `hᵢ`, any server-side constant), precompute a
    /// [`FixedBaseTable`] and use [`exp_table`](Self::exp_table)
    /// instead.
    pub fn pow(&self, base: &Element, e: &Scalar) -> Element {
        Element(self.ctx.mont_p.pow(&base.0, &e.0))
    }

    /// `a · b mod p`, via the cached Montgomery context for `p`.
    pub fn mul(&self, a: &Element, b: &Element) -> Element {
        Element(self.ctx.mont_p.mod_mul(&a.0, &b.0))
    }

    /// `a⁻¹ mod p`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is zero — zero is not a group element, so this
    /// indicates a broken invariant upstream.
    pub fn inv(&self, a: &Element) -> Element {
        Element(mod_inv(&a.0, &self.p).expect("group elements are invertible"))
    }

    /// `a / b = a · b⁻¹ mod p`.
    pub fn div(&self, a: &Element, b: &Element) -> Element {
        self.mul(a, &self.inv(b))
    }

    /// Inverts every element at the cost of **one** extended-GCD
    /// inversion plus three Montgomery products per element
    /// (Montgomery's trick; see
    /// [`Montgomery::batch_inv`](cryptonn_bigint::Montgomery::batch_inv)).
    /// The decrypt fast path uses this to amortize the divisions of a
    /// whole matrix of cells into a single inversion.
    ///
    /// # Panics
    ///
    /// Panics if any element is zero — zero is not a group element, so
    /// this indicates a broken invariant upstream (as [`inv`](Self::inv)).
    pub fn inv_batch(&self, elements: &[Element]) -> Vec<Element> {
        let values: Vec<U256> = elements.iter().map(|e| e.0).collect();
        self.ctx
            .mont_p
            .batch_inv(&values)
            .expect("group elements are invertible")
            .into_iter()
            .map(Element)
            .collect()
    }

    /// Builds an element from a raw value, reducing mod `p`.
    ///
    /// Intended for deserialization paths; arithmetic should go through
    /// the other methods.
    pub fn element_from_u256(&self, v: U256) -> Element {
        Element(v.rem(&self.p))
    }

    // ---- fixed-base exponentiation -----------------------------------

    /// Precomputes a radix-2⁴ comb table for `base` with `⌈bits(q)/4⌉`
    /// windows, making every subsequent [`exp_table`](Self::exp_table)
    /// against that base cost at most one Montgomery product per
    /// window. The build amortizes after about four exponentiations;
    /// key material with long-lived bases (the FEIP `hᵢ`) builds tables
    /// at setup/deserialization time.
    pub fn fixed_base_table(&self, base: &Element) -> FixedBaseTable {
        FixedBaseTable::build(&self.ctx.mont_p, &base.0, self.q.bit_len())
    }

    /// The cached comb table for the generator `g` — the same table
    /// [`exp`](Self::exp) uses internally.
    pub fn generator_table(&self) -> &FixedBaseTable {
        &self.ctx.g_table
    }

    /// `base^e` through a precomputed table.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `table` was built for this group's modulus.
    pub fn exp_table(&self, table: &FixedBaseTable, e: &Scalar) -> Element {
        Element(table.pow(&self.ctx.mont_p, &e.0))
    }

    /// Lane-batched [`exp_table`](Self::exp_table): `tableⱼ.base^e` for
    /// four different tables and one shared exponent, in one 4-lane
    /// sweep — the batch-decrypt denominator shape (`ct0ⱼ^{sk_row}` for
    /// a stride of four ciphertexts).
    ///
    /// # Panics
    ///
    /// As [`exp_table`](Self::exp_table), for any foreign table.
    pub fn exp_tables_lanes(
        &self,
        tables: [&FixedBaseTable; cryptonn_bigint::lanes::LANES],
        e: &Scalar,
    ) -> [Element; cryptonn_bigint::lanes::LANES] {
        let ctx = &self.ctx.mont_p;
        let acc = FixedBaseTable::mul_pow_mont_lanes(
            tables,
            ctx,
            [ctx.one(); cryptonn_bigint::lanes::LANES],
            &e.0,
        );
        let plain = ctx.from_mont_lanes(&acc);
        core::array::from_fn(|lane| Element(plain[lane]))
    }

    /// Lane-batched [`exp_table`](Self::exp_table) with the roles
    /// swapped: one table, four exponents — the coordinate-decrypt
    /// denominator shape (one shared `ct0` comb, one unit-key exponent
    /// per coordinate).
    ///
    /// # Panics
    ///
    /// As [`exp_table`](Self::exp_table), for a foreign table.
    pub fn exp_table_many(
        &self,
        table: &FixedBaseTable,
        es: [&Scalar; cryptonn_bigint::lanes::LANES],
    ) -> [Element; cryptonn_bigint::lanes::LANES] {
        let plain = table.pow_many(&self.ctx.mont_p, core::array::from_fn(|lane| &es[lane].0));
        core::array::from_fn(|lane| Element(plain[lane]))
    }

    /// The multi-exponentiation `∏ tableⱼ.base ^ eⱼ`, evaluated in one
    /// pass through the Montgomery domain (one final conversion instead
    /// of one per factor). This is the shape of FEIP/FEBO encryption:
    /// `hᵢ^r · g^x` is a two-factor multi-pow.
    pub fn multi_pow(&self, factors: &[(&FixedBaseTable, &Scalar)]) -> Element {
        let ctx = &self.ctx.mont_p;
        let mut acc = ctx.one();
        for (table, e) in factors {
            acc = table.mul_pow_mont(ctx, acc, &e.0);
        }
        Element(ctx.from_mont(&acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn group() -> SchnorrGroup {
        SchnorrGroup::precomputed(SecurityLevel::Bits64)
    }

    #[test]
    fn all_precomputed_params_are_valid() {
        let mut rng = StdRng::seed_from_u64(0);
        for (level, _, _) in PARAMS {
            let g = SchnorrGroup::precomputed(*level);
            assert_eq!(g.modulus().bit_len(), level.bits());
            // Re-validate through the checked constructor.
            let validated = SchnorrGroup::from_params(
                *g.modulus(),
                *g.order(),
                *g.generator().value(),
                &mut rng,
            );
            assert!(validated.is_ok(), "level {level:?}");
        }
    }

    #[test]
    fn generate_small_group() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = SchnorrGroup::generate(24, &mut rng);
        assert_eq!(g.modulus().bit_len(), 24);
        let e = g.random_scalar(&mut rng);
        let x = g.exp(&e);
        assert_eq!(mod_pow(x.value(), g.order(), g.modulus()), U256::ONE);
    }

    #[test]
    fn from_params_rejects_bad_inputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = group();
        let (p, q) = (*g.modulus(), *g.order());
        // Composite modulus.
        assert_eq!(
            SchnorrGroup::from_params(U256::from_u64(15), q, U256::from_u64(4), &mut rng),
            Err(GroupError::CompositeModulus)
        );
        // Wrong order.
        assert_eq!(
            SchnorrGroup::from_params(p, U256::from_u64(97), U256::from_u64(4), &mut rng),
            Err(GroupError::InvalidOrder)
        );
        // Identity generator.
        assert_eq!(
            SchnorrGroup::from_params(p, q, U256::ONE, &mut rng),
            Err(GroupError::InvalidGenerator)
        );
        // Generator outside subgroup: p - 1 ≡ -1 has order 2, and is a
        // non-residue since p ≡ 3 (mod 4).
        assert_eq!(
            SchnorrGroup::from_params(p, q, p.wrapping_sub(&U256::ONE), &mut rng),
            Err(GroupError::InvalidGenerator)
        );
    }

    #[test]
    fn fast_level_selects_fast_reducer_on_both_fields() {
        use cryptonn_bigint::Reducer;
        let fast = SchnorrGroup::precomputed(SecurityLevel::Bits256Fast);
        assert_eq!(fast.ctx.mont_p.reducer(), Reducer::FastP64);
        assert_eq!(fast.ctx.mont_q.reducer(), Reducer::FastP64);
        let generic = SchnorrGroup::precomputed(SecurityLevel::Bits256);
        assert_eq!(generic.ctx.mont_p.reducer(), Reducer::Generic);
        assert_eq!(generic.ctx.mont_q.reducer(), Reducer::Generic);
        // One-limb moduli skip the 4-limb CIOS on both fields.
        let small = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        assert_eq!(small.ctx.mont_p.reducer(), Reducer::OneLimb);
        assert_eq!(small.ctx.mont_q.reducer(), Reducer::OneLimb);
        // Same bit budget, same generator convention.
        assert_eq!(fast.modulus().bit_len(), 256);
        assert_eq!(fast.generator(), generic.generator());
    }

    #[test]
    fn precomputed_cached_warm_start_matches_cold() {
        let dir = std::env::temp_dir().join(format!("cryptonn-group-comb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = SchnorrGroup::precomputed_cached(SecurityLevel::Bits64, &dir);
        let warm = SchnorrGroup::precomputed_cached(SecurityLevel::Bits64, &dir);
        let plain = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..8 {
            let e = plain.random_scalar(&mut rng);
            assert_eq!(cold.exp(&e), plain.exp(&e));
            assert_eq!(warm.exp(&e), plain.exp(&e));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exp_homomorphism() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..16 {
            let a = g.random_scalar(&mut rng);
            let b = g.random_scalar(&mut rng);
            let lhs = g.exp(&g.scalar_add(&a, &b));
            let rhs = g.mul(&g.exp(&a), &g.exp(&b));
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn signed_scalar_encoding() {
        let g = group();
        // g^(-3) * g^3 = identity
        let neg = g.exp(&g.scalar_from_i64(-3));
        let pos = g.exp(&g.scalar_from_i64(3));
        assert_eq!(g.mul(&neg, &pos), g.identity());
        assert_eq!(g.scalar_from_i64(5), g.scalar_from_u64(5));
    }

    #[test]
    fn scalar_field_laws() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..32 {
            let a = g.random_scalar(&mut rng);
            let b = g.random_scalar(&mut rng);
            assert_eq!(g.scalar_add(&a, &g.scalar_neg(&a)), Scalar::ZERO);
            assert_eq!(g.scalar_sub(&g.scalar_add(&a, &b), &b), a);
            if a != Scalar::ZERO {
                let inv = g.scalar_inv(&a).unwrap();
                assert_eq!(g.scalar_mul(&a, &inv), Scalar::ONE);
            }
        }
        assert_eq!(g.scalar_inv(&Scalar::ZERO), None);
    }

    #[test]
    fn scalar_dot_small() {
        let g = group();
        let a: Vec<_> = [1u64, 2, 3].iter().map(|&v| g.scalar_from_u64(v)).collect();
        let b: Vec<_> = [4u64, 5, 6].iter().map(|&v| g.scalar_from_u64(v)).collect();
        assert_eq!(g.scalar_dot(&a, &b), g.scalar_from_u64(32));
    }

    #[test]
    fn div_is_mul_inverse() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(5);
        let a = g.exp(&g.random_scalar(&mut rng));
        let b = g.exp(&g.random_scalar(&mut rng));
        assert_eq!(g.mul(&g.div(&a, &b), &b), a);
    }

    #[test]
    fn lane_exp_wrappers_match_exp_table() {
        use cryptonn_bigint::lanes::LANES;
        let g = SchnorrGroup::precomputed(SecurityLevel::Bits256Fast);
        let mut rng = StdRng::seed_from_u64(9);
        let tables: Vec<FixedBaseTable> = (0..LANES)
            .map(|_| g.fixed_base_table(&g.exp(&g.random_scalar(&mut rng))))
            .collect();
        let refs: [&FixedBaseTable; LANES] = core::array::from_fn(|i| &tables[i]);
        for _ in 0..4 {
            let e = g.random_scalar(&mut rng);
            let got = g.exp_tables_lanes(refs, &e);
            for lane in 0..LANES {
                assert_eq!(got[lane], g.exp_table(refs[lane], &e), "lane {lane}");
            }
            let es: Vec<Scalar> = (0..LANES).map(|_| g.random_scalar(&mut rng)).collect();
            let got = g.exp_table_many(refs[0], core::array::from_fn(|i| &es[i]));
            for lane in 0..LANES {
                assert_eq!(got[lane], g.exp_table(refs[0], &es[lane]), "lane {lane}");
            }
        }
    }

    #[test]
    fn exponents_wider_than_the_comb_stay_exact() {
        use cryptonn_bigint::lanes::LANES;
        use cryptonn_bigint::modular;
        let g = group();
        let (p, q) = (*g.modulus(), *g.order());
        let mut rng = StdRng::seed_from_u64(10);
        let bases: Vec<Element> = (0..LANES)
            .map(|_| g.exp(&g.random_scalar(&mut rng)))
            .collect();
        let tables: Vec<FixedBaseTable> = bases.iter().map(|b| g.fixed_base_table(b)).collect();
        let refs: [&FixedBaseTable; LANES] = core::array::from_fn(|i| &tables[i]);
        // The comb covers ⌈bits(q)/4⌉ windows, not 256 bits.
        assert_eq!(
            tables[0].entries_flat().count(),
            q.bit_len().div_ceil(4) * 15
        );

        // A scalar decoded off the wire is not reduced mod q.
        let bytes = cryptonn_wire::to_vec(&U256::MAX.wrapping_sub(&U256::ONE)).unwrap();
        let decoded: Scalar = cryptonn_wire::from_slice(&bytes).unwrap();
        assert!(decoded.value() >= &q);
        let wide = [
            Scalar(q.wrapping_add(&U256::from_u64(5))),
            Scalar(U256::MAX),
            decoded,
        ];
        let expect = |b: &Element, e: &Scalar| Element(modular::mod_pow(&b.0, &e.0, &p));
        for e in &wide {
            for lane in 0..LANES {
                assert_eq!(g.exp_table(refs[lane], e), expect(&bases[lane], e), "{e:?}");
            }
            assert_eq!(g.exp(e), expect(&g.generator(), e), "{e:?}");
            let got = g.exp_tables_lanes(refs, e);
            for lane in 0..LANES {
                assert_eq!(got[lane], expect(&bases[lane], e), "lanes {e:?}");
            }
            assert_eq!(g.multi_pow(&[(refs[0], e)]), expect(&bases[0], e));
        }
        // One wide exponent among narrow ones.
        let mixed = [wide[0], g.scalar_from_u64(7), wide[1], wide[2]];
        let got = g.exp_table_many(refs[0], core::array::from_fn(|i| &mixed[i]));
        for lane in 0..LANES {
            assert_eq!(
                got[lane],
                expect(&bases[0], &mixed[lane]),
                "many lane {lane}"
            );
        }
    }

    #[test]
    fn exp_table_matches_pow() {
        let g = SchnorrGroup::precomputed(SecurityLevel::Bits256);
        let mut rng = StdRng::seed_from_u64(6);
        let base = g.exp(&g.random_scalar(&mut rng));
        let table = g.fixed_base_table(&base);
        for _ in 0..16 {
            let e = g.random_scalar(&mut rng);
            assert_eq!(g.exp_table(&table, &e), g.pow(&base, &e));
        }
        // The cached generator table is the exp() fast path.
        let e = g.random_scalar(&mut rng);
        assert_eq!(g.exp_table(g.generator_table(), &e), g.exp(&e));
    }

    #[test]
    fn multi_pow_matches_factored_form() {
        let g = SchnorrGroup::precomputed(SecurityLevel::Bits128);
        let mut rng = StdRng::seed_from_u64(7);
        let b1 = g.exp(&g.random_scalar(&mut rng));
        let b2 = g.exp(&g.random_scalar(&mut rng));
        let (t1, t2) = (g.fixed_base_table(&b1), g.fixed_base_table(&b2));
        for _ in 0..8 {
            let (e1, e2) = (g.random_scalar(&mut rng), g.random_scalar(&mut rng));
            let fused = g.multi_pow(&[(&t1, &e1), (&t2, &e2)]);
            let split = g.mul(&g.pow(&b1, &e1), &g.pow(&b2, &e2));
            assert_eq!(fused, split);
        }
        // Empty product is the identity.
        assert_eq!(g.multi_pow(&[]), g.identity());
    }

    #[test]
    #[should_panic(expected = "foreign group")]
    fn foreign_table_is_rejected_in_release_too() {
        let g64 = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        let g128 = SchnorrGroup::precomputed(SecurityLevel::Bits128);
        let table = g64.fixed_base_table(&g64.generator());
        let _ = g128.exp_table(&table, &g128.scalar_from_u64(3));
    }

    #[test]
    fn serde_roundtrip_rebuilds_context() {
        let g = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        let value = serde::ser::to_value(&g);
        let back: SchnorrGroup = serde::de::from_value(value).unwrap();
        assert_eq!(back, g);
        // The rebuilt context must actually work.
        let e = back.scalar_from_u64(123);
        assert_eq!(back.exp(&e), g.exp(&e));
    }

    #[test]
    fn deserialize_rejects_even_moduli() {
        use cryptonn_bigint::U256;
        let bad = serde::Value::Map(vec![
            ("p".to_string(), serde::ser::to_value(&U256::from_u64(16))),
            ("q".to_string(), serde::ser::to_value(&U256::from_u64(7))),
            ("g".to_string(), serde::ser::to_value(&U256::from_u64(4))),
        ]);
        assert!(serde::de::from_value::<SchnorrGroup>(bad).is_err());
    }
}
