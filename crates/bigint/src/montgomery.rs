//! Montgomery-form modular arithmetic over odd 256-bit moduli.
//!
//! Every hot path in CryptoNN bottoms out in modular multiplication: a
//! single FEIP `Encrypt` performs `η + 1` full 256-bit exponentiations,
//! and Algorithm 1 runs thousands of them per SGD step. The schoolbook
//! [`mod_mul`](crate::modular::mod_mul) pays a full 512-bit Knuth
//! division per product; Montgomery multiplication replaces that
//! division with shifts and multiplies against a precomputed constant.
//!
//! A [`Montgomery`] context fixes one odd modulus `m` and represents
//! residues as `ã = a·R mod m` with `R = 2^256`. The core operation is
//! the CIOS (coarsely integrated operand scanning) product
//! `mont_mul(x, y) = x·y·R⁻¹ mod m`, which maps Montgomery forms to
//! Montgomery forms. Conversions are themselves single `mont_mul`s
//! against the precomputed `R² mod m`. A modulus below `2^64` keeps the
//! same `R` but skips the 4-limb CIOS for a one-limb product
//! ([`Reducer::OneLimb`]), so Montgomery forms never depend on the arm.
//!
//! The context is meant to be built once per modulus and reused — the
//! group layer caches one per `(p, q)` pair, and every fixed-base table
//! stores its entries already in Montgomery form (DESIGN.md §8).

use crate::limbs::{adc, mac, Limb};
use crate::uint::U256;

/// The number of 64-bit limbs in the working width.
const N: usize = U256::LIMBS;

/// The reduction strategy a [`Montgomery`] context dispatches through.
///
/// Selected once at construction from the shape of the modulus; a
/// cheaper arm is picked automatically whenever it applies, so callers
/// never choose (they can [inspect](Montgomery::reducer) the choice for
/// telemetry). Every arm computes the same reduced residue
/// `x·y·2⁻²⁵⁶ mod m`, so Montgomery forms, persisted tables and wire
/// bytes do not depend on the arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reducer {
    /// The generic CIOS round: `mu = t₀·m′ mod 2^64`, then a full
    /// `mu·m` multiply-accumulate pass.
    Generic,
    /// Montgomery-friendly modulus `m ≡ -1 (mod 2^64)`: then
    /// `m′ = -m⁻¹ = 1`, so `mu = t₀` (one multiply gone), and the first
    /// limb of the `mu·m` pass collapses —
    /// `t₀ + mu·m₀ = mu + mu·(2^64 - 1) = mu·2^64`, i.e. the low limb
    /// cancels exactly and the carry out is just `mu` (a second
    /// multiply gone). Two of the nine 64×64 multiplies in every CIOS
    /// round disappear.
    FastP64,
    /// One-limb modulus `m < 2^64` (the `Bits64` group): the
    /// three upper limbs of every operand are zero, so the product is
    /// one `u128` multiply followed by four single-limb REDC rounds
    /// (`R` stays `2^256`). Only the first round can carry past 128
    /// bits; it is taken with an explicit carry. Picked before
    /// [`FastP64`](Self::FastP64), which then only ever applies to
    /// multi-limb moduli.
    OneLimb,
}

/// A reusable Montgomery reduction context for one odd modulus.
///
/// ```
/// use cryptonn_bigint::montgomery::Montgomery;
/// use cryptonn_bigint::{modular, U256};
///
/// let m = U256::from_u64(1_000_003); // odd modulus
/// let ctx = Montgomery::new(&m).unwrap();
/// let a = U256::from_u64(123_456);
/// let b = U256::from_u64(654_321);
/// assert_eq!(ctx.mod_mul(&a, &b), modular::mod_mul(&a, &b, &m));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Montgomery {
    /// The odd modulus `m`.
    pub(crate) m: U256,
    /// `-m⁻¹ mod 2^64`, the per-limb reduction constant.
    pub(crate) m_prime: Limb,
    /// `R mod m` — the Montgomery form of 1.
    pub(crate) r1: U256,
    /// `R² mod m` — the to-Montgomery conversion factor.
    pub(crate) r2: U256,
    /// The reduction strategy, a pure function of `m`.
    pub(crate) reducer: Reducer,
}

impl Montgomery {
    /// Builds a context for `m`. Returns `None` when `m` is even or
    /// `< 2` (Montgomery reduction requires `gcd(m, 2^256) = 1`, and a
    /// modulus of 1 has no residues); callers fall back to the
    /// schoolbook path for such moduli.
    pub fn new(m: &U256) -> Option<Self> {
        if m.is_even() || *m <= U256::ONE {
            return None;
        }
        // m' = -m⁻¹ mod 2^64 by Newton–Hensel lifting. The seed
        // inv = m0 is already a correct inverse mod 8 (odd² ≡ 1 mod 8
        // gives m0·m0 ≡ 1), i.e. 3 valid bits; each iteration doubles
        // them: 3 → 6 → 12 → 24 → 48 → 96 ≥ 64.
        let m0 = m.as_limbs()[0];
        let mut inv: Limb = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let m_prime = inv.wrapping_neg();

        // R mod m = (2^256 - 1 mod m) + 1, reduced once more.
        let r1 = {
            let r = U256::MAX.rem(m).wrapping_add(&U256::ONE);
            if r == *m {
                U256::ZERO
            } else {
                r
            }
        };
        // R² mod m by 256 modular doublings of R mod m.
        let mut r2 = r1;
        for _ in 0..U256::BITS {
            r2 = crate::modular::mod_add(&r2, &r2, m);
        }
        // A one-limb modulus skips the 4-limb CIOS entirely (see
        // [`Reducer::OneLimb`]). Otherwise m ≡ -1 (mod 2^64) ⟺ the low
        // limb is all-ones ⟺ m′ = 1; the CIOS round then sheds two
        // multiplies (see [`Reducer::FastP64`]).
        let reducer = if m.bit_len() <= Limb::BITS as usize {
            Reducer::OneLimb
        } else if m0 == Limb::MAX {
            debug_assert_eq!(m_prime, 1);
            Reducer::FastP64
        } else {
            Reducer::Generic
        };
        Some(Self {
            m: *m,
            m_prime,
            r1,
            r2,
            reducer,
        })
    }

    /// The reduction strategy this context selected for its modulus.
    pub fn reducer(&self) -> Reducer {
        self.reducer
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &U256 {
        &self.m
    }

    /// The Montgomery form of 1 (`R mod m`).
    pub fn one(&self) -> U256 {
        self.r1
    }

    /// Converts `a` (reduced, `< m`) into Montgomery form `a·R mod m`.
    pub fn to_mont(&self, a: &U256) -> U256 {
        self.mont_mul(a, &self.r2)
    }

    /// Converts a Montgomery form back to the plain residue.
    pub fn from_mont(&self, a: &U256) -> U256 {
        self.mont_mul(a, &U256::ONE)
    }

    /// The CIOS Montgomery product `x·y·R⁻¹ mod m`.
    ///
    /// Both inputs must be `< m` (debug-asserted); the result is `< m`.
    /// On Montgomery forms this computes the Montgomery form of the
    /// product; on a Montgomery form and a plain residue it computes the
    /// plain product.
    pub fn mont_mul(&self, x: &U256, y: &U256) -> U256 {
        debug_assert!(x < &self.m && y < &self.m, "operands must be reduced");
        if self.reducer == Reducer::OneLimb {
            return U256::from_u64(self.mont_mul_one_limb(x.as_limbs()[0], y.as_limbs()[0]));
        }
        let m = self.m.as_limbs();
        let x = x.as_limbs();
        let y = y.as_limbs();
        // t has N + 2 limbs; t[N+1] never exceeds 1.
        let mut t = [0 as Limb; N + 2];

        for &yi in y.iter().take(N) {
            // t += x * yi
            let mut carry = 0;
            for j in 0..N {
                let (lo, hi) = mac(t[j], x[j], yi, carry);
                t[j] = lo;
                carry = hi;
            }
            let (sum, over) = adc(t[N], carry, 0);
            t[N] = sum;
            t[N + 1] = over;

            // t += mu * m, then shift one limb: mu kills t[0] exactly.
            let (mu, mut carry) = match self.reducer {
                // OneLimb returned above; the generic round is exact for
                // it all the same.
                Reducer::Generic | Reducer::OneLimb => {
                    let mu = t[0].wrapping_mul(self.m_prime);
                    let (_, carry) = mac(t[0], mu, m[0], 0);
                    (mu, carry)
                }
                // m′ = 1 ⟹ mu = t[0], and t[0] + mu·(2^64 − 1) = mu·2^64:
                // the low limb cancels and the carry out is mu itself.
                Reducer::FastP64 => (t[0], t[0]),
            };
            for j in 1..N {
                let (lo, hi) = mac(t[j], mu, m[j], carry);
                t[j - 1] = lo;
                carry = hi;
            }
            let (sum, over) = adc(t[N], carry, 0);
            t[N - 1] = sum;
            t[N] = t[N + 1] + over;
            t[N + 1] = 0;
        }

        let mut r = U256::from_limbs([t[0], t[1], t[2], t[3]]);
        // The loop invariant guarantees t < 2m, so at most one
        // correction is needed; t[N] = 1 means t ≥ 2^256 > m.
        if t[N] != 0 || r >= self.m {
            r = r.wrapping_sub(&self.m);
        }
        r
    }

    /// [`Reducer::OneLimb`]'s product: `x·y·2⁻²⁵⁶ mod m` for
    /// `x, y < m < 2^64`, as four REDC rounds of one limb each.
    ///
    /// Round one starts from `x·y < m²` and adds `mu·m < 2^64·m`, which
    /// can pass `2^128`, so its carry is kept; the quotient is then
    /// below `2m`. From there each round stays below `2^128` and leaves
    /// `t ≤ m + 1`, so one conditional subtraction finishes.
    #[inline(always)]
    fn mont_mul_one_limb(&self, x: Limb, y: Limb) -> Limb {
        let m = self.m.as_limbs()[0] as u128;
        let t = x as u128 * y as u128;
        let mu = (t as Limb).wrapping_mul(self.m_prime);
        let (sum, carry) = t.overflowing_add(mu as u128 * m);
        let mut t = (sum >> Limb::BITS) | ((carry as u128) << Limb::BITS);
        for _ in 1..N {
            let mu = (t as Limb).wrapping_mul(self.m_prime);
            t = (t + mu as u128 * m) >> Limb::BITS;
        }
        if t >= m {
            t -= m;
        }
        t as Limb
    }

    /// The Montgomery square `x²·R⁻¹ mod m`.
    pub fn mont_sqr(&self, x: &U256) -> U256 {
        self.mont_mul(x, x)
    }

    /// Four independent Montgomery products in one call:
    /// `out[i] = x[i]·y[i]·R⁻¹ mod m`, computed by the lane-batched
    /// kernel (see [`crate::lanes`]): four CIOS chains interleaved for
    /// instruction-level parallelism.
    ///
    /// Unlike [`mont_mul`](Self::mont_mul), operands may be unreduced
    /// (wire-range): each is reduced on entry, so the call is
    /// equivalent to four `mont_mul`s on the reduced operands. The
    /// check is one limb comparison in the already-reduced hot case.
    pub fn mont_mul_lanes(&self, x: &[U256; 4], y: &[U256; 4]) -> [U256; 4] {
        let reduce = |v: &U256| if v < &self.m { *v } else { v.rem(&self.m) };
        let xr = [reduce(&x[0]), reduce(&x[1]), reduce(&x[2]), reduce(&x[3])];
        let yr = [reduce(&y[0]), reduce(&y[1]), reduce(&y[2]), reduce(&y[3])];
        if self.reducer == Reducer::OneLimb {
            // Four independent one-limb chains; nothing to interleave
            // by hand at this width.
            return core::array::from_fn(|lane| {
                U256::from_u64(
                    self.mont_mul_one_limb(xr[lane].as_limbs()[0], yr[lane].as_limbs()[0]),
                )
            });
        }
        crate::lanes::mont_mul_x4(self, &xr, &yr)
    }

    /// Four Montgomery squares in one lane-batched call.
    pub fn mont_sqr_lanes(&self, x: &[U256; 4]) -> [U256; 4] {
        self.mont_mul_lanes(x, x)
    }

    /// Converts four Montgomery forms back to plain residues in one
    /// lane-batched call.
    pub fn from_mont_lanes(&self, a: &[U256; 4]) -> [U256; 4] {
        self.mont_mul_lanes(a, &[U256::ONE; 4])
    }

    /// Batch modular inversion by Montgomery's trick: inverts every
    /// element of `values` at the cost of **one** extended-GCD
    /// inversion plus `3(n−1)` Montgomery products (and the domain
    /// conversions at the edges).
    ///
    /// The trick: form the prefix products `P_i = v_0·…·v_i`, invert
    /// only `P_{n−1}`, then peel inverses off the back —
    /// `v_i⁻¹ = P_{n−1}⁻¹·…·v_{i+1}⁻¹·P_{i−1}` — reusing the running
    /// suffix inverse. The CryptoNN server uses this to amortize the
    /// per-cell division of `∏ ctᵢ^{yᵢ} / ct₀^{sk}` across a whole
    /// matrix of decryptions (DESIGN.md §10).
    ///
    /// Operands may be unreduced (wire data); they are reduced on entry
    /// like [`mod_mul`](Self::mod_mul). Returns `None` if **any** value
    /// is not invertible (zero or sharing a factor with `m`) — partial
    /// results would silently corrupt every later inverse, so the whole
    /// batch is refused.
    pub fn batch_inv(&self, values: &[U256]) -> Option<Vec<U256>> {
        if values.is_empty() {
            return Some(Vec::new());
        }
        // All products run in the Montgomery domain: prefix[i] carries a
        // single factor of R, so one mont_mul per step keeps the form.
        let mont: Vec<U256> = values
            .iter()
            .map(|v| {
                let v = if v < &self.m { *v } else { v.rem(&self.m) };
                self.to_mont(&v)
            })
            .collect();
        let mut prefix = Vec::with_capacity(mont.len());
        let mut acc = mont[0];
        prefix.push(acc);
        for v in &mont[1..] {
            acc = self.mont_mul(&acc, v);
            prefix.push(acc);
        }
        // One real inversion, of the full product.
        let total = self.from_mont(&acc);
        let inv_total = crate::modular::mod_inv(&total, &self.m)?;
        // suffix = (v_i·…·v_{n−1})⁻¹ in Montgomery form, peeled backwards.
        let mut suffix = self.to_mont(&inv_total);
        let mut out = vec![U256::ZERO; mont.len()];
        for i in (1..mont.len()).rev() {
            out[i] = self.from_mont(&self.mont_mul(&suffix, &prefix[i - 1]));
            suffix = self.mont_mul(&suffix, &mont[i]);
        }
        out[0] = self.from_mont(&suffix);
        Some(out)
    }

    /// `(a · b) mod m` on plain residues: one conversion plus one
    /// Montgomery product — two multiplies in place of the schoolbook
    /// 512-bit Knuth division.
    ///
    /// Unlike [`mont_mul`](Self::mont_mul), this entry point accepts
    /// unreduced operands: values arriving from deserialized wire data
    /// may exceed `m`, and the schoolbook `mod_mul` this replaces
    /// reduced them correctly. The check is one limb comparison in the
    /// (universal in practice) already-reduced case.
    pub fn mod_mul(&self, a: &U256, b: &U256) -> U256 {
        let a = if a < &self.m { *a } else { a.rem(&self.m) };
        let b = if b < &self.m { *b } else { b.rem(&self.m) };
        // (a·R)·b·R⁻¹ = a·b (mod m).
        self.mont_mul(&self.to_mont(&a), &b)
    }

    /// `(base^exp) mod m` by 4-bit fixed-window exponentiation carried
    /// out entirely in the Montgomery domain.
    ///
    /// `base` need not be reduced. `exp` is used in full; callers
    /// wanting group semantics reduce it modulo the group order first.
    pub fn pow(&self, base: &U256, exp: &U256) -> U256 {
        let base = if base < &self.m {
            *base
        } else {
            base.rem(&self.m)
        };
        if exp.is_zero() {
            return U256::ONE;
        }
        if base.is_zero() {
            return U256::ZERO;
        }

        // table[d] = base^d in Montgomery form, d ∈ [0, 16).
        let mut table = [self.r1; 16];
        table[1] = self.to_mont(&base);
        for d in 2..16 {
            table[d] = self.mont_mul(&table[d - 1], &table[1]);
        }

        let bits = exp.bit_len();
        let windows = bits.div_ceil(4);
        let mut acc = self.r1;
        for w in (0..windows).rev() {
            if w != windows - 1 {
                acc = self.mont_sqr(&acc);
                acc = self.mont_sqr(&acc);
                acc = self.mont_sqr(&acc);
                acc = self.mont_sqr(&acc);
            }
            let mut nibble = 0usize;
            for b in 0..4 {
                let idx = w * 4 + b;
                if idx < bits && exp.bit(idx) {
                    nibble |= 1 << b;
                }
            }
            if nibble != 0 {
                acc = self.mont_mul(&acc, &table[nibble]);
            }
        }
        self.from_mont(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// 2^255 - 19: a convenient odd 255-bit prime.
    const P25519: &str = "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed";

    fn random_odd_modulus(rng: &mut StdRng) -> U256 {
        loop {
            let mut m = U256::random(rng);
            if m.is_even() {
                m = m.wrapping_add(&U256::ONE);
            }
            if m > U256::ONE {
                return m;
            }
        }
    }

    #[test]
    fn rejects_even_and_degenerate_moduli() {
        assert!(Montgomery::new(&U256::ZERO).is_none());
        assert!(Montgomery::new(&U256::ONE).is_none());
        assert!(Montgomery::new(&U256::from_u64(4096)).is_none());
        assert!(Montgomery::new(&U256::from_u64(3)).is_some());
    }

    #[test]
    fn constants_are_consistent() {
        let m = U256::from_hex(P25519).unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        // from_mont(one()) == 1.
        assert_eq!(ctx.from_mont(&ctx.one()), U256::ONE);
        // to_mont(1) == R mod m.
        assert_eq!(ctx.to_mont(&U256::ONE), ctx.one());
    }

    #[test]
    fn roundtrip_through_domain() {
        let mut rng = StdRng::seed_from_u64(100);
        for _ in 0..64 {
            let m = random_odd_modulus(&mut rng);
            let ctx = Montgomery::new(&m).unwrap();
            let a = U256::random(&mut rng).rem(&m);
            assert_eq!(ctx.from_mont(&ctx.to_mont(&a)), a, "modulus {m}");
        }
    }

    #[test]
    fn mod_mul_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(101);
        for _ in 0..128 {
            let m = random_odd_modulus(&mut rng);
            let ctx = Montgomery::new(&m).unwrap();
            let a = U256::random(&mut rng).rem(&m);
            let b = U256::random(&mut rng).rem(&m);
            assert_eq!(
                ctx.mod_mul(&a, &b),
                modular::mod_mul(&a, &b, &m),
                "a={a} b={b} m={m}"
            );
        }
    }

    #[test]
    fn small_modulus_cross_check() {
        let mut rng = StdRng::seed_from_u64(102);
        let m64 = 2_305_843_009_213_693_951u64; // 2^61 - 1
        let m = U256::from_u64(m64);
        let ctx = Montgomery::new(&m).unwrap();
        for _ in 0..256 {
            let a = rng.random_range(0..m64);
            let b = rng.random_range(0..m64);
            let expect = ((a as u128 * b as u128) % m64 as u128) as u64;
            assert_eq!(
                ctx.mod_mul(&U256::from_u64(a), &U256::from_u64(b)),
                U256::from_u64(expect)
            );
        }
    }

    #[test]
    fn pow_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(103);
        for _ in 0..16 {
            let m = random_odd_modulus(&mut rng);
            let ctx = Montgomery::new(&m).unwrap();
            let base = U256::random(&mut rng);
            let exp = U256::random(&mut rng);
            assert_eq!(
                ctx.pow(&base, &exp),
                modular::mod_pow_schoolbook(&base, &exp, &m),
                "base={base} exp={exp} m={m}"
            );
        }
    }

    #[test]
    fn pow_edge_cases() {
        let m = U256::from_u64(97);
        let ctx = Montgomery::new(&m).unwrap();
        assert_eq!(ctx.pow(&U256::from_u64(5), &U256::ZERO), U256::ONE);
        assert_eq!(ctx.pow(&U256::ZERO, &U256::from_u64(5)), U256::ZERO);
        assert_eq!(ctx.pow(&U256::from_u64(5), &U256::ONE), U256::from_u64(5));
        // Unreduced base.
        assert_eq!(
            ctx.pow(&U256::from_u64(102), &U256::from_u64(2)),
            U256::from_u64(25)
        );
    }

    #[test]
    fn fermat_little_theorem() {
        let p = U256::from_hex(P25519).unwrap();
        let ctx = Montgomery::new(&p).unwrap();
        let pm1 = p.wrapping_sub(&U256::ONE);
        let mut rng = StdRng::seed_from_u64(104);
        for _ in 0..8 {
            let a = U256::random_below(&mut rng, &p);
            if a.is_zero() {
                continue;
            }
            assert_eq!(ctx.pow(&a, &pm1), U256::ONE);
        }
    }

    #[test]
    fn mod_mul_reduces_unreduced_operands() {
        // Wire data (deserialized elements) can exceed m; mod_mul must
        // match the schoolbook result for such inputs even in release
        // builds, as the division-based path it replaced did.
        let m = U256::from_hex(P25519).unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let a = U256::MAX; // >= m
        let b = U256::MAX.wrapping_sub(&U256::from_u64(7)); // >= m
        assert_eq!(
            ctx.mod_mul(&a, &b),
            modular::mod_mul(&a.rem(&m), &b.rem(&m), &m)
        );
        assert_eq!(ctx.mod_mul(&a, &U256::ONE), a.rem(&m));
    }

    #[test]
    fn batch_inv_matches_individual_inverses() {
        let mut rng = StdRng::seed_from_u64(105);
        let m = U256::from_hex(P25519).unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        for n in [1usize, 2, 3, 17, 64] {
            let values: Vec<U256> = (0..n)
                .map(|_| loop {
                    let v = U256::random_below(&mut rng, &m);
                    if !v.is_zero() {
                        break v;
                    }
                })
                .collect();
            let batch = ctx.batch_inv(&values).expect("all invertible");
            for (v, inv) in values.iter().zip(&batch) {
                assert_eq!(*inv, modular::mod_inv(v, &m).unwrap(), "n={n} v={v}");
            }
        }
        assert_eq!(ctx.batch_inv(&[]), Some(Vec::new()));
    }

    #[test]
    fn batch_inv_refuses_zero_and_noncoprime() {
        let m = U256::from_hex(P25519).unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let ok = U256::from_u64(7);
        assert_eq!(ctx.batch_inv(&[ok, U256::ZERO, ok]), None);
        // Composite modulus: 3 shares a factor with 15.
        let ctx15 = Montgomery::new(&U256::from_u64(15)).unwrap();
        assert_eq!(
            ctx15.batch_inv(&[U256::from_u64(2), U256::from_u64(3)]),
            None
        );
        // Unreduced operands are accepted, as in mod_mul.
        let big = U256::MAX; // >= m
        let got = ctx.batch_inv(&[big]).unwrap();
        assert_eq!(got[0], modular::mod_inv(&big.rem(&m), &m).unwrap());
    }

    #[test]
    fn fast_reducer_selected_and_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(106);
        // Generic moduli keep the generic reducer.
        let ctx = Montgomery::new(&U256::from_hex(P25519).unwrap()).unwrap();
        assert_eq!(ctx.reducer(), Reducer::Generic);
        // Every m = k·2^64 − 1 is odd with an all-ones low limb, so the
        // fast arm must be picked — and must agree with the schoolbook
        // result everywhere.
        for _ in 0..48 {
            let k = U256::random(&mut rng);
            let m = k.shl(64).wrapping_sub(&U256::ONE);
            if m <= U256::ONE {
                continue;
            }
            let ctx = Montgomery::new(&m).unwrap();
            assert_eq!(ctx.reducer(), Reducer::FastP64, "m={m}");
            let a = U256::random_below(&mut rng, &m);
            let b = U256::random_below(&mut rng, &m);
            assert_eq!(
                ctx.mod_mul(&a, &b),
                modular::mod_mul(&a, &b, &m),
                "a={a} b={b} m={m}"
            );
            assert_eq!(ctx.from_mont(&ctx.to_mont(&a)), a, "roundtrip m={m}");
        }
    }

    #[test]
    fn near_maximum_modulus() {
        // Top-bit-set modulus exercises the t[N] overflow limb.
        let m = U256::MAX; // 2^256 - 1 = odd
        let ctx = Montgomery::new(&m).unwrap();
        let a = U256::MAX.wrapping_sub(&U256::from_u64(2));
        let b = U256::MAX.wrapping_sub(&U256::from_u64(5));
        assert_eq!(ctx.mod_mul(&a, &b), modular::mod_mul(&a, &b, &m));
    }
}
