//! Variable-base multi-scalar exponentiation (Straus interleaving over
//! wNAF-recoded exponents).
//!
//! CryptoNN's server spends nearly all its time in `secure-computation`,
//! whose inner loop is `∏ ctᵢ^{yᵢ}` — a product of *variable* bases
//! (fresh ciphertext elements every batch) raised to *small* signed
//! exponents (quantized weights, typically ≤ 20 bits). Evaluating that
//! product one full-width exponentiation per base costs `n × 256`
//! squarings; this module makes the cost scale with `log₂(max|yᵢ|)`
//! instead:
//!
//! - [`WnafScalars`] recodes each exponent once into width-`w` NAF
//!   digits (odd, `|d| < 2^{w−1}`), so a `b`-bit exponent contributes at
//!   most `⌈b/(w+1)⌉ + 1` nonzero digits.
//! - [`OddPowerTables`] precomputes `baseᵢ^{1,3,…,2^{w−1}−1}` in
//!   Montgomery form — one squaring plus `2^{w−2} − 1` products per
//!   base, amortized across every row of cells that reuses the bases.
//! - [`SchnorrGroup::multi_scalar_ratio`] runs **one shared squaring
//!   chain** across all bases (Straus interleaving): per digit position
//!   the two accumulators square once each, then absorb every base's
//!   digit at that position with a single product.
//!
//! Negative digits never force a per-base inversion: they multiply into
//! a separate *denominator* accumulator, and the result is returned as
//! a deferred [`ElementRatio`]. Ratios across a whole matrix of cells
//! resolve through one batched inversion
//! ([`SchnorrGroup::resolve_ratios`], Montgomery's trick) — which also
//! swallows the `ct₀^{sk}` division of FEIP/FEBO decryption for free.
//! See DESIGN.md §10 for the operation-count math.

use cryptonn_bigint::lanes::LANES;
use cryptonn_bigint::U256;

use crate::group::{Element, SchnorrGroup};

/// Default wNAF window width: digits in `{±1, ±3, ±5, ±7}`, a four-entry
/// odd-power table per base. For the ≤ 20-bit quantized exponents of the
/// decrypt path, wider windows cost more in table building than they
/// save in digit products.
pub const DEFAULT_WINDOW: usize = 4;

/// A deferred group division `num / den`, produced by evaluations that
/// postpone the (expensive) modular inversion so many of them can be
/// resolved with one batched inversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementRatio {
    /// Product of the positive-digit contributions.
    pub num: Element,
    /// Product of the negative-digit contributions (never zero; the
    /// identity when all digits were non-negative).
    pub den: Element,
}

impl ElementRatio {
    /// The ratio representing a bare element (`den = 1`).
    pub fn from_element(group: &SchnorrGroup, num: Element) -> Self {
        Self {
            num,
            den: group.identity(),
        }
    }

    /// Folds an extra factor into the denominator — the decrypt path
    /// folds `ct₀^{sk}` in here so the batched inversion covers it too.
    pub fn div_by(&self, group: &SchnorrGroup, extra_den: &Element) -> Self {
        Self {
            num: self.num,
            den: group.mul(&self.den, extra_den),
        }
    }

    /// Resolves the ratio with one inversion. Prefer
    /// [`SchnorrGroup::resolve_ratios`] when resolving more than one.
    pub fn resolve(&self, group: &SchnorrGroup) -> Element {
        group.div(&self.num, &self.den)
    }
}

/// Width-`w` NAF recodings of a vector of signed exponents, built once
/// per server operand row and shared across every ciphertext column it
/// multiplies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WnafScalars {
    /// `digits[i]` is exponent `i`'s recoding, least-significant first.
    /// Entries are zero or odd with `|d| < 2^{window−1}`.
    digits: Vec<Vec<i8>>,
    /// Length of the longest digit vector (the shared chain height).
    max_len: usize,
    window: usize,
}

impl WnafScalars {
    /// Recodes `y` with the [`DEFAULT_WINDOW`].
    pub fn recode(y: &[i64]) -> Self {
        Self::recode_with_window(y, DEFAULT_WINDOW)
    }

    /// Recodes `y` with an explicit window width in `2..=7` (digits must
    /// fit an `i8`).
    ///
    /// # Panics
    ///
    /// Panics if `window` is outside `2..=7`.
    pub fn recode_with_window(y: &[i64], window: usize) -> Self {
        assert!(
            (2..=7).contains(&window),
            "wNAF window must be in 2..=7, got {window}"
        );
        let digits: Vec<Vec<i8>> = y.iter().map(|&v| wnaf_digits(v, window)).collect();
        let max_len = digits.iter().map(Vec::len).max().unwrap_or(0);
        Self {
            digits,
            max_len,
            window,
        }
    }

    /// Number of recoded exponents.
    pub fn len(&self) -> usize {
        self.digits.len()
    }

    /// True if there are no exponents at all.
    pub fn is_empty(&self) -> bool {
        self.digits.is_empty()
    }

    /// The window width the digits were recoded for.
    pub fn window(&self) -> usize {
        self.window
    }

    /// True when every exponent is zero — callers can skip the whole
    /// evaluation (the product is the identity).
    pub fn is_all_zero(&self) -> bool {
        self.max_len == 0
    }
}

/// Width-`w` NAF digits of `v`, least-significant first.
fn wnaf_digits(v: i64, window: usize) -> Vec<i8> {
    // i128 working copy so i64::MIN and the digit subtraction are safe.
    let mut v = v as i128;
    let full = 1i128 << window;
    let half = 1i128 << (window - 1);
    let mut digits = Vec::new();
    while v != 0 {
        if v & 1 != 0 {
            // Centered remainder mod 2^w: odd, in (−2^{w−1}, 2^{w−1}).
            let mut d = v & (full - 1);
            if d >= half {
                d -= full;
            }
            digits.push(d as i8);
            v -= d;
        } else {
            digits.push(0);
        }
        v >>= 1;
    }
    digits
}

/// Precomputed odd powers `baseᵢ^{1, 3, …, 2^{window−1}−1}` for a batch
/// of variable bases, stored in Montgomery form and bound to the group's
/// modulus (like [`FixedBaseTable`](crate::FixedBaseTable), these are
/// derived state and never serialized).
#[derive(Debug, Clone)]
pub struct OddPowerTables {
    /// `powers[i][k] = basesᵢ^{2k+1}` in Montgomery form.
    powers: Vec<Vec<U256>>,
    modulus: U256,
    window: usize,
}

impl OddPowerTables {
    /// Number of bases covered.
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// True if no bases are covered.
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }

    /// The window width the tables support.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl SchnorrGroup {
    /// Builds odd-power tables for `bases` with the [`DEFAULT_WINDOW`].
    pub fn odd_power_tables(&self, bases: &[Element]) -> OddPowerTables {
        self.odd_power_tables_with_window(bases, DEFAULT_WINDOW)
    }

    /// Builds odd-power tables for `bases`: per base one squaring plus
    /// `2^{window−2} − 1` Montgomery products. The build amortizes as
    /// soon as the bases are reused for a second exponent row.
    ///
    /// # Panics
    ///
    /// Panics if `window` is outside `2..=7`.
    pub fn odd_power_tables_with_window(&self, bases: &[Element], window: usize) -> OddPowerTables {
        assert!(
            (2..=7).contains(&window),
            "wNAF window must be in 2..=7, got {window}"
        );
        let ctx = self.mont_p();
        let count = 1usize << (window - 2);
        let powers = bases
            .iter()
            .map(|b| {
                let b1 = ctx.to_mont(&b.0);
                let mut row = Vec::with_capacity(count);
                row.push(b1);
                if count > 1 {
                    let b2 = ctx.mont_sqr(&b1);
                    for k in 1..count {
                        let prev = row[k - 1];
                        row.push(ctx.mont_mul(&prev, &b2));
                    }
                }
                row
            })
            .collect();
        OddPowerTables {
            powers,
            modulus: *self.modulus(),
            window,
        }
    }

    /// Evaluates `∏ basesᵢ^{yᵢ}` over precomputed tables and recoded
    /// exponents, as a deferred [`ElementRatio`].
    ///
    /// One shared squaring chain serves every base: the cost is
    /// `2·max_len` squarings (both accumulators) plus one product per
    /// nonzero digit — independent of the base count for the squaring
    /// part, which is what makes `n = 784`-wide rows cheap.
    ///
    /// # Panics
    ///
    /// Panics if `tables` and `scalars` disagree in length or window, or
    /// if `tables` was built for a different group.
    pub fn multi_scalar_ratio(
        &self,
        tables: &OddPowerTables,
        scalars: &WnafScalars,
    ) -> ElementRatio {
        assert_eq!(
            tables.len(),
            scalars.len(),
            "multi-scalar base/exponent count mismatch"
        );
        assert_eq!(
            tables.window, scalars.window,
            "multi-scalar window mismatch between tables and recoding"
        );
        // Same rationale as FixedBaseTable::mul_pow_mont: a foreign
        // table would silently produce garbage in release builds.
        assert_eq!(
            &tables.modulus,
            self.modulus(),
            "odd-power tables used with a foreign group"
        );
        let ctx = self.mont_p();
        let mut num = ctx.one();
        let mut den = ctx.one();
        // Accumulators stay the identity until their first digit; until
        // then squaring is a no-op worth skipping.
        let mut num_live = false;
        let mut den_live = false;
        for pos in (0..scalars.max_len).rev() {
            if num_live {
                num = ctx.mont_sqr(&num);
            }
            if den_live {
                den = ctx.mont_sqr(&den);
            }
            for (digits, powers) in scalars.digits.iter().zip(&tables.powers) {
                let d = match digits.get(pos) {
                    Some(&d) if d != 0 => d,
                    _ => continue,
                };
                let entry = &powers[(d.unsigned_abs() as usize - 1) / 2];
                if d > 0 {
                    num = ctx.mont_mul(&num, entry);
                    num_live = true;
                } else {
                    den = ctx.mont_mul(&den, entry);
                    den_live = true;
                }
            }
        }
        ElementRatio {
            num: Element(ctx.from_mont(&num)),
            den: Element(ctx.from_mont(&den)),
        }
    }

    /// Lane-batched [`multi_scalar_ratio`](Self::multi_scalar_ratio):
    /// evaluates the *same* recoded exponent row against four different
    /// table sets at once — the batch-decrypt shape, where one weight
    /// row multiplies a stride of four ciphertext columns.
    ///
    /// All four lanes share one digit schedule, so the shared squaring
    /// chain and every digit product become single 4-lane Montgomery
    /// calls ([`Montgomery::mont_mul_lanes`]) instead of four serial
    /// ones, and the liveness skip flags apply to all lanes uniformly.
    ///
    /// # Panics
    ///
    /// As [`multi_scalar_ratio`](Self::multi_scalar_ratio), checked per
    /// lane.
    ///
    /// [`Montgomery::mont_mul_lanes`]: cryptonn_bigint::Montgomery::mont_mul_lanes
    pub fn multi_scalar_ratio_lanes(
        &self,
        tables: [&OddPowerTables; LANES],
        scalars: &WnafScalars,
    ) -> [ElementRatio; LANES] {
        for t in tables {
            assert_eq!(
                t.len(),
                scalars.len(),
                "multi-scalar base/exponent count mismatch"
            );
            assert_eq!(
                t.window, scalars.window,
                "multi-scalar window mismatch between tables and recoding"
            );
            assert_eq!(
                &t.modulus,
                self.modulus(),
                "odd-power tables used with a foreign group"
            );
        }
        let ctx = self.mont_p();
        let mut num = [ctx.one(); LANES];
        let mut den = [ctx.one(); LANES];
        let mut num_live = false;
        let mut den_live = false;
        for pos in (0..scalars.max_len).rev() {
            if num_live {
                num = ctx.mont_sqr_lanes(&num);
            }
            if den_live {
                den = ctx.mont_sqr_lanes(&den);
            }
            for (i, digits) in scalars.digits.iter().enumerate() {
                let d = match digits.get(pos) {
                    Some(&d) if d != 0 => d,
                    _ => continue,
                };
                let k = (d.unsigned_abs() as usize - 1) / 2;
                let entries = core::array::from_fn(|lane| tables[lane].powers[i][k]);
                if d > 0 {
                    num = ctx.mont_mul_lanes(&num, &entries);
                    num_live = true;
                } else {
                    den = ctx.mont_mul_lanes(&den, &entries);
                    den_live = true;
                }
            }
        }
        let num = ctx.from_mont_lanes(&num);
        let den = ctx.from_mont_lanes(&den);
        core::array::from_fn(|lane| ElementRatio {
            num: Element(num[lane]),
            den: Element(den[lane]),
        })
    }

    /// One-shot `∏ basesᵢ^{yᵢ}` for signed integer exponents: recodes,
    /// builds tables, evaluates, and resolves the ratio. Callers with
    /// reuse across rows or columns should hold [`WnafScalars`] /
    /// [`OddPowerTables`] themselves and batch the resolutions.
    ///
    /// # Panics
    ///
    /// Panics if `bases` and `y` have different lengths.
    pub fn multi_scalar_pow(&self, bases: &[Element], y: &[i64]) -> Element {
        assert_eq!(
            bases.len(),
            y.len(),
            "multi-scalar base/exponent count mismatch"
        );
        let scalars = WnafScalars::recode(y);
        if scalars.is_all_zero() {
            return self.identity();
        }
        let tables = self.odd_power_tables(bases);
        self.multi_scalar_ratio(&tables, &scalars).resolve(self)
    }

    /// Single-base signed-exponent power `base^y` as a deferred ratio —
    /// the FEBO multiply path (`ct^y` with quantized `y`), sharing the
    /// wNAF machinery without the full-width 256-squaring chain of
    /// [`pow`](Self::pow).
    pub fn pow_signed_ratio(&self, base: &Element, y: i64) -> ElementRatio {
        let scalars = WnafScalars::recode(&[y]);
        if scalars.is_all_zero() {
            return ElementRatio::from_element(self, self.identity());
        }
        let tables = self.odd_power_tables(std::slice::from_ref(base));
        self.multi_scalar_ratio(&tables, &scalars)
    }

    /// Resolves many deferred ratios with **one** modular inversion
    /// (Montgomery's trick over the denominators).
    pub fn resolve_ratios(&self, ratios: &[ElementRatio]) -> Vec<Element> {
        let dens: Vec<Element> = ratios.iter().map(|r| r.den).collect();
        let inverses = self.inv_batch(&dens);
        ratios
            .iter()
            .zip(&inverses)
            .map(|(r, inv)| self.mul(&r.num, inv))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::SecurityLevel;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn group() -> SchnorrGroup {
        SchnorrGroup::precomputed(SecurityLevel::Bits64)
    }

    /// Reference evaluation: one full-width pow per base.
    fn naive_product(g: &SchnorrGroup, bases: &[Element], y: &[i64]) -> Element {
        let mut acc = g.identity();
        for (b, &yi) in bases.iter().zip(y) {
            if yi == 0 {
                continue;
            }
            acc = g.mul(&acc, &g.pow(b, &g.scalar_from_i64(yi)));
        }
        acc
    }

    fn random_bases(g: &SchnorrGroup, rng: &mut StdRng, n: usize) -> Vec<Element> {
        (0..n).map(|_| g.exp(&g.random_scalar(rng))).collect()
    }

    #[test]
    fn wnaf_digits_reconstruct_value() {
        for window in 2..=7 {
            for v in [
                0i64,
                1,
                -1,
                7,
                -7,
                8,
                100,
                -100,
                12345,
                -98765,
                i64::MAX,
                i64::MIN,
            ] {
                let digits = wnaf_digits(v, window);
                let mut acc: i128 = 0;
                for &d in digits.iter().rev() {
                    acc = 2 * acc + d as i128;
                    assert!(
                        d == 0 || (d % 2 != 0 && (d as i64).unsigned_abs() < (1 << (window - 1))),
                        "digit {d} invalid for window {window}"
                    );
                }
                assert_eq!(acc, v as i128, "v={v} window={window}");
            }
        }
    }

    #[test]
    fn matches_naive_product() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 2, 5, 16] {
            let bases = random_bases(&g, &mut rng, n);
            let y: Vec<i64> = (0..n)
                .map(|_| rng.random_range(-1_000_000..=1_000_000))
                .collect();
            assert_eq!(
                g.multi_scalar_pow(&bases, &y),
                naive_product(&g, &bases, &y)
            );
        }
    }

    #[test]
    fn all_windows_agree() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(2);
        let bases = random_bases(&g, &mut rng, 6);
        let y: Vec<i64> = (0..6).map(|_| rng.random_range(-5_000..=5_000)).collect();
        let expect = naive_product(&g, &bases, &y);
        for window in 2..=7 {
            let scalars = WnafScalars::recode_with_window(&y, window);
            let tables = g.odd_power_tables_with_window(&bases, window);
            assert_eq!(
                g.multi_scalar_ratio(&tables, &scalars).resolve(&g),
                expect,
                "window {window}"
            );
        }
    }

    #[test]
    fn lanes_match_serial_ratio() {
        // Both the plain group and the fast-reduction prime, so the
        // FastP64 seam is exercised through the lane path too.
        for level in [SecurityLevel::Bits64, SecurityLevel::Bits256Fast] {
            let g = SchnorrGroup::precomputed(level);
            let mut rng = StdRng::seed_from_u64(8);
            let n = 9;
            let y: Vec<i64> = (0..n).map(|_| rng.random_range(-50_000..=50_000)).collect();
            let scalars = WnafScalars::recode(&y);
            let table_sets: Vec<OddPowerTables> = (0..LANES)
                .map(|_| g.odd_power_tables(&random_bases(&g, &mut rng, n)))
                .collect();
            let refs: [&OddPowerTables; LANES] = core::array::from_fn(|i| &table_sets[i]);
            let got = g.multi_scalar_ratio_lanes(refs, &scalars);
            for lane in 0..LANES {
                let expect = g.multi_scalar_ratio(refs[lane], &scalars);
                assert_eq!(got[lane], expect, "lane {lane} level {level:?}");
            }
        }
    }

    #[test]
    fn zero_and_sign_edge_cases() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(3);
        let bases = random_bases(&g, &mut rng, 4);
        // All zero → identity without touching the bases.
        assert_eq!(g.multi_scalar_pow(&bases, &[0, 0, 0, 0]), g.identity());
        // All negative → pure denominator path.
        let y = [-3i64, -1, -500, -7];
        assert_eq!(
            g.multi_scalar_pow(&bases, &y),
            naive_product(&g, &bases, &y)
        );
        // Mixed with zeros.
        let y = [0i64, 9, 0, -12_345];
        assert_eq!(
            g.multi_scalar_pow(&bases, &y),
            naive_product(&g, &bases, &y)
        );
        // Empty input.
        assert_eq!(g.multi_scalar_pow(&[], &[]), g.identity());
    }

    #[test]
    fn extreme_exponents() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(4);
        let bases = random_bases(&g, &mut rng, 2);
        let y = [i64::MAX, i64::MIN];
        assert_eq!(
            g.multi_scalar_pow(&bases, &y),
            naive_product(&g, &bases, &y)
        );
    }

    #[test]
    fn pow_signed_ratio_matches_pow() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(5);
        let base = g.exp(&g.random_scalar(&mut rng));
        for y in [0i64, 1, -1, 17, -17, 100_000, -99_999] {
            assert_eq!(
                g.pow_signed_ratio(&base, y).resolve(&g),
                g.pow(&base, &g.scalar_from_i64(y)),
                "y={y}"
            );
        }
    }

    #[test]
    fn resolve_ratios_batches_correctly() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(6);
        let ratios: Vec<ElementRatio> = (0..9)
            .map(|_| {
                let num = g.exp(&g.random_scalar(&mut rng));
                let den = g.exp(&g.random_scalar(&mut rng));
                ElementRatio { num, den }
            })
            .collect();
        let batch = g.resolve_ratios(&ratios);
        for (r, got) in ratios.iter().zip(&batch) {
            assert_eq!(*got, r.resolve(&g));
        }
        assert!(g.resolve_ratios(&[]).is_empty());
    }

    #[test]
    fn div_by_folds_denominator() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(7);
        let num = g.exp(&g.random_scalar(&mut rng));
        let extra = g.exp(&g.random_scalar(&mut rng));
        let r = ElementRatio::from_element(&g, num).div_by(&g, &extra);
        assert_eq!(r.resolve(&g), g.div(&num, &extra));
    }

    #[test]
    #[should_panic(expected = "foreign group")]
    fn foreign_tables_are_rejected() {
        let g64 = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        let g256 = SchnorrGroup::precomputed(SecurityLevel::Bits256Fast);
        let bases = vec![g64.generator()];
        let tables = g64.odd_power_tables(&bases);
        let scalars = WnafScalars::recode(&[3]);
        let _ = g256.multi_scalar_ratio(&tables, &scalars);
    }

    #[test]
    #[should_panic(expected = "window mismatch")]
    fn window_mismatch_is_rejected() {
        let g = group();
        let bases = vec![g.generator()];
        let tables = g.odd_power_tables_with_window(&bases, 3);
        let scalars = WnafScalars::recode_with_window(&[3], 5);
        let _ = g.multi_scalar_ratio(&tables, &scalars);
    }
}
