//! Fixed-base exponentiation tables (radix-2⁴ comb).
//!
//! CryptoNN's hot exponentiations almost all share a handful of bases:
//! the group generator `g` (every `Encrypt`, every BSGS verification)
//! and the FEIP public-key elements `hᵢ = g^{sᵢ}` (once per coordinate
//! per `Encrypt`). A [`FixedBaseTable`] trades one-time precomputation
//! for a ~5× cheaper exponentiation: it stores
//! `base^(d · 16^i)` for every window index `i` and digit `d ∈ [1, 16)`
//! in Montgomery form, so `base^e` becomes at most one Montgomery
//! product per window — no squarings, no conversions until the very
//! end (DESIGN.md §8).
//!
//! A comb is sized to the exponents it serves: the group builds every
//! table with `⌈bits(q)/4⌉` windows, since scalars live in `Z_q`. That
//! is 64 windows (960 build products) for a 256-bit group and 16 (240)
//! for `Bits64`. An exponent wider than its comb (a scalar decoded off
//! the wire without reduction mod `q`) takes a cold branch through
//! [`Montgomery::pow`] on the table's base, so it is never truncated.
//!
//! Tables are bound to the group's modulus; build them through
//! [`SchnorrGroup::fixed_base_table`](crate::SchnorrGroup::fixed_base_table)
//! and use them through
//! [`exp_table`](crate::SchnorrGroup::exp_table) /
//! [`multi_pow`](crate::SchnorrGroup::multi_pow).

use cryptonn_bigint::lanes::LANES;
use cryptonn_bigint::{Montgomery, U256};

/// Window width in bits. 4 balances table size (15 × 32 B = 480 B per
/// window: 30 KiB for a 256-bit exponent) against the product count
/// per exponentiation (one per window).
const WINDOW_BITS: usize = 4;
/// Non-zero digits per window.
const DIGITS: usize = (1 << WINDOW_BITS) - 1;

/// Number of radix-2⁴ windows covering an `exp_bits`-bit exponent.
fn windows(exp_bits: usize) -> usize {
    exp_bits.div_ceil(WINDOW_BITS)
}

/// A precomputed radix-2⁴ comb table for one base in one group.
///
/// The table is deliberately *not* serializable: it is derived state,
/// rebuilt from the base at deserialization time by the owning key
/// material (`SchnorrGroup`, `FeipPublicKey`, `FeboPublicKey`).
#[derive(Clone)]
pub struct FixedBaseTable {
    /// The plain-form base, for equality/debugging.
    base: U256,
    /// The modulus the Montgomery entries live under.
    modulus: U256,
    /// `rows[i][d - 1] = base^(d · 16^i) mod m`, in Montgomery form.
    rows: Vec<[U256; DIGITS]>,
}

impl FixedBaseTable {
    /// Precomputes the comb for `base` under `ctx`, covering exponents
    /// of up to `exp_bits` bits. Costs `⌈exp_bits/4⌉ × 15` Montgomery
    /// products — amortized after roughly four exponentiations.
    pub(crate) fn build(ctx: &Montgomery, base: &U256, exp_bits: usize) -> Self {
        let base = if base < ctx.modulus() {
            *base
        } else {
            base.rem(ctx.modulus())
        };
        let windows = windows(exp_bits);
        let mut rows = Vec::with_capacity(windows);
        // cur = base^(16^i) in Montgomery form.
        let mut cur = ctx.to_mont(&base);
        for _ in 0..windows {
            let mut row = [ctx.one(); DIGITS];
            row[0] = cur;
            for d in 1..DIGITS {
                row[d] = ctx.mont_mul(&row[d - 1], &cur);
            }
            // base^(16^(i+1)) = base^(15·16^i) · base^(16^i).
            cur = ctx.mont_mul(&row[DIGITS - 1], &cur);
            rows.push(row);
        }
        Self {
            base,
            modulus: *ctx.modulus(),
            rows,
        }
    }

    /// The plain-form base this table was built for.
    pub fn base(&self) -> &U256 {
        &self.base
    }

    /// The modulus this table's entries are reduced by.
    pub fn modulus(&self) -> &U256 {
        &self.modulus
    }

    /// The widest exponent, in bits, the comb rows cover.
    fn covered_bits(&self) -> usize {
        self.rows.len() * WINDOW_BITS
    }

    /// `base^e` in Montgomery form for an exponent wider than the comb,
    /// by plain windowed exponentiation. Only an unreduced scalar off
    /// the wire gets here; everything the group produces is `< q`.
    #[cold]
    fn pow_wide_mont(&self, ctx: &Montgomery, e: &U256) -> U256 {
        ctx.to_mont(&ctx.pow(&self.base, e))
    }

    /// Multiplies `acc` (Montgomery form) by `base^e`, staying in the
    /// Montgomery domain. This is the composable core: chaining calls
    /// over several tables evaluates a multi-exponentiation
    /// `∏ baseⱼ^{eⱼ}` with zero intermediate conversions.
    pub(crate) fn mul_pow_mont(&self, ctx: &Montgomery, mut acc: U256, e: &U256) -> U256 {
        // A real assert, not debug: exp_table/multi_pow are public APIs
        // taking arbitrary tables, and a table built for a different
        // group would silently produce garbage elements in release
        // builds. Four u64 compares against dozens of Montgomery
        // products is free.
        assert_eq!(
            &self.modulus,
            ctx.modulus(),
            "fixed-base table used with a foreign group"
        );
        let bits = e.bit_len();
        if bits > self.covered_bits() {
            return ctx.mont_mul(&acc, &self.pow_wide_mont(ctx, e));
        }
        let windows = bits.div_ceil(WINDOW_BITS);
        for (w, row) in self.rows.iter().enumerate().take(windows) {
            let mut digit = 0usize;
            for b in 0..WINDOW_BITS {
                let idx = w * WINDOW_BITS + b;
                if idx < bits && e.bit(idx) {
                    digit |= 1 << b;
                }
            }
            if digit != 0 {
                acc = ctx.mont_mul(&acc, &row[digit - 1]);
            }
        }
        acc
    }

    /// `base^e mod m` as a plain residue.
    pub(crate) fn pow(&self, ctx: &Montgomery, e: &U256) -> U256 {
        ctx.from_mont(&self.mul_pow_mont(ctx, ctx.one(), e))
    }

    /// Lane-batched [`mul_pow_mont`](Self::mul_pow_mont): multiplies
    /// four accumulators by `tableⱼ.base^e` — four *different* tables,
    /// one shared exponent. This is the shape of the batch-decrypt
    /// denominator, `ct0ⱼ^{sk_row}` for a stride of four ciphertexts:
    /// the digit schedule is identical across lanes, so every window is
    /// one gathered 4-lane Montgomery product.
    ///
    /// # Panics
    ///
    /// As [`mul_pow_mont`](Self::mul_pow_mont), for any foreign table.
    pub(crate) fn mul_pow_mont_lanes(
        tables: [&Self; LANES],
        ctx: &Montgomery,
        mut acc: [U256; LANES],
        e: &U256,
    ) -> [U256; LANES] {
        for t in tables {
            assert_eq!(
                &t.modulus,
                ctx.modulus(),
                "fixed-base table used with a foreign group"
            );
        }
        let bits = e.bit_len();
        if tables.iter().any(|t| bits > t.covered_bits()) {
            return core::array::from_fn(|lane| tables[lane].mul_pow_mont(ctx, acc[lane], e));
        }
        for w in 0..bits.div_ceil(WINDOW_BITS) {
            let mut digit = 0usize;
            for b in 0..WINDOW_BITS {
                let idx = w * WINDOW_BITS + b;
                if idx < bits && e.bit(idx) {
                    digit |= 1 << b;
                }
            }
            if digit != 0 {
                let gathered = core::array::from_fn(|lane| tables[lane].rows[w][digit - 1]);
                acc = ctx.mont_mul_lanes(&acc, &gathered);
            }
        }
        acc
    }

    /// Four exponentiations of the *same* base in one lane-batched
    /// sweep: `base^{eⱼ}` for `j ∈ 0..4`, as plain residues. Lanes with
    /// a zero digit in some window multiply by the Montgomery-domain
    /// identity `ctx.one()` so the four digit schedules stay in
    /// lockstep. This is the shape of the coordinate-decrypt
    /// denominator: one shared `ct0` comb, one secret-key exponent per
    /// output coordinate.
    ///
    /// # Panics
    ///
    /// As [`mul_pow_mont`](Self::mul_pow_mont), for a foreign table.
    pub(crate) fn pow_many(&self, ctx: &Montgomery, es: [&U256; LANES]) -> [U256; LANES] {
        assert_eq!(
            &self.modulus,
            ctx.modulus(),
            "fixed-base table used with a foreign group"
        );
        let bits = es.iter().map(|e| e.bit_len()).max().unwrap_or(0);
        if bits > self.covered_bits() {
            return core::array::from_fn(|lane| self.pow(ctx, es[lane]));
        }
        let windows = bits.div_ceil(WINDOW_BITS);
        let mut acc = [ctx.one(); LANES];
        for (w, row) in self.rows.iter().enumerate().take(windows) {
            let mut any = false;
            let gathered = core::array::from_fn(|lane| {
                let mut digit = 0usize;
                for b in 0..WINDOW_BITS {
                    let idx = w * WINDOW_BITS + b;
                    if idx < es[lane].bit_len() && es[lane].bit(idx) {
                        digit |= 1 << b;
                    }
                }
                if digit != 0 {
                    any = true;
                    row[digit - 1]
                } else {
                    ctx.one()
                }
            });
            if any {
                acc = ctx.mont_mul_lanes(&acc, &gathered);
            }
        }
        ctx.from_mont_lanes(&acc)
    }
}

impl core::fmt::Debug for FixedBaseTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FixedBaseTable")
            .field("base", &self.base)
            .field("modulus", &self.modulus)
            .field("windows", &self.rows.len())
            .finish()
    }
}

impl PartialEq for FixedBaseTable {
    fn eq(&self, other: &Self) -> bool {
        // A table computes `base^e mod modulus`; its window count only
        // decides which exponents take the cold wide branch.
        self.base == other.base && self.modulus == other.modulus
    }
}

impl Eq for FixedBaseTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptonn_bigint::modular;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p25519() -> U256 {
        U256::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed").unwrap()
    }

    #[test]
    fn matches_generic_mod_pow() {
        let p = p25519();
        let ctx = Montgomery::new(&p).unwrap();
        let base = U256::from_u64(4);
        let table = FixedBaseTable::build(&ctx, &base, U256::BITS);
        let mut rng = StdRng::seed_from_u64(200);
        for _ in 0..32 {
            let e = U256::random(&mut rng);
            assert_eq!(
                table.pow(&ctx, &e),
                modular::mod_pow(&base, &e, &p),
                "e = {e}"
            );
        }
        // Degenerate exponents.
        assert_eq!(table.pow(&ctx, &U256::ZERO), U256::ONE);
        assert_eq!(table.pow(&ctx, &U256::ONE), base);
        assert_eq!(
            table.pow(&ctx, &U256::MAX),
            modular::mod_pow(&base, &U256::MAX, &p)
        );
    }

    #[test]
    fn chained_multi_exponentiation() {
        let p = p25519();
        let ctx = Montgomery::new(&p).unwrap();
        let (b1, b2) = (U256::from_u64(4), U256::from_u64(9));
        let (t1, t2) = (
            FixedBaseTable::build(&ctx, &b1, U256::BITS),
            FixedBaseTable::build(&ctx, &b2, U256::BITS),
        );
        let (e1, e2) = (U256::from_u64(12345), U256::from_u64(67890));
        let acc = t1.mul_pow_mont(&ctx, ctx.one(), &e1);
        let acc = t2.mul_pow_mont(&ctx, acc, &e2);
        let got = ctx.from_mont(&acc);
        let expect = modular::mod_mul(
            &modular::mod_pow(&b1, &e1, &p),
            &modular::mod_pow(&b2, &e2, &p),
            &p,
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn lane_variants_match_serial() {
        let p = p25519();
        let ctx = Montgomery::new(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let bases: [U256; LANES] = core::array::from_fn(|i| U256::from_u64(3 + 2 * i as u64));
        let tables: Vec<FixedBaseTable> = bases
            .iter()
            .map(|b| FixedBaseTable::build(&ctx, b, U256::BITS))
            .collect();
        let refs: [&FixedBaseTable; LANES] = core::array::from_fn(|i| &tables[i]);

        for _ in 0..8 {
            // Four tables, one exponent.
            let e = U256::random(&mut rng);
            let acc = FixedBaseTable::mul_pow_mont_lanes(refs, &ctx, [ctx.one(); LANES], &e);
            for lane in 0..LANES {
                assert_eq!(ctx.from_mont(&acc[lane]), tables[lane].pow(&ctx, &e));
            }
            // One table, four exponents.
            let es: [U256; LANES] = core::array::from_fn(|_| U256::random(&mut rng));
            let got = tables[0].pow_many(&ctx, core::array::from_fn(|i| &es[i]));
            for lane in 0..LANES {
                assert_eq!(got[lane], tables[0].pow(&ctx, &es[lane]));
            }
        }

        // Degenerate exponents force identity lanes in every window.
        let es = [U256::ZERO, U256::ONE, U256::from_u64(12345), U256::MAX];
        let got = tables[1].pow_many(&ctx, core::array::from_fn(|i| &es[i]));
        for lane in 0..LANES {
            assert_eq!(got[lane], tables[1].pow(&ctx, &es[lane]));
        }
    }

    #[test]
    fn unreduced_base_is_reduced() {
        let p = U256::from_u64(97);
        let ctx = Montgomery::new(&p).unwrap();
        let table = FixedBaseTable::build(&ctx, &U256::from_u64(97 + 5), 7);
        assert_eq!(*table.base(), U256::from_u64(5));
        assert_eq!(table.pow(&ctx, &U256::from_u64(2)), U256::from_u64(25));
    }
}
