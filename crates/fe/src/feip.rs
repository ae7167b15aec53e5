//! FEIP: functional encryption for inner products.
//!
//! The construction of Abdalla, Bourse, De Caro and Pointcheval
//! ("Simple functional encryption schemes for inner products", PKC 2015),
//! exactly as restated in §II-B of the CryptoNN paper:
//!
//! - `Setup(1^λ, 1^η)`: sample `s = (s₁…s_η) ∈ Z_q^η`; publish
//!   `mpk = (g, hᵢ = g^{sᵢ})`.
//! - `KeyDerive(msk, y)`: `sk_f = ⟨y, s⟩ mod q`.
//! - `Encrypt(mpk, x)`: sample `r`; `ct₀ = g^r`, `ctᵢ = hᵢ^r · g^{xᵢ}`.
//! - `Decrypt`: `∏ ctᵢ^{yᵢ} / ct₀^{sk_f} = g^{⟨x,y⟩}`, recovered by
//!   baby-step giant-step.

use std::sync::{Arc, OnceLock};

use cryptonn_group::{
    DlogTable, Element, ElementRatio, FixedBaseTable, OddPowerTables, Scalar, SchnorrGroup,
    WnafScalars, LANES,
};
use cryptonn_parallel::{parallel_map, Parallelism};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::FeError;

/// Public parameters of an FEIP instance: the group and `hᵢ = g^{sᵢ}`.
///
/// The key carries one fixed-base comb table per `hᵢ` — derived state
/// that travels with the key (including across serialization, where it
/// is rebuilt rather than shipped; DESIGN.md §8). Tables are built
/// lazily on the first [`encrypt`], so decrypt-/combine-only consumers
/// of a deserialized key (which never exponentiate the `hᵢ`) pay
/// neither the ~30 KiB per coordinate (at 256 bits) nor the build cost. Clones share
/// the tables via `Arc`.
#[derive(Clone)]
pub struct FeipPublicKey {
    group: SchnorrGroup,
    h: Vec<Element>,
    /// `h_tables[i]` is the comb table for `hᵢ`; lazily built, never
    /// serialized.
    h_tables: Arc<OnceLock<Vec<FixedBaseTable>>>,
}

impl FeipPublicKey {
    /// Assembles a public key from its parts.
    fn assemble(group: SchnorrGroup, h: Vec<Element>) -> Self {
        Self {
            group,
            h,
            h_tables: Arc::new(OnceLock::new()),
        }
    }

    /// The vector dimension `η` this instance supports.
    pub fn dimension(&self) -> usize {
        self.h.len()
    }

    /// The public commitments `hᵢ = g^{sᵢ}` — the check values a
    /// threshold combiner validates recombined keys against
    /// (`g^{sk_y} = Π hᵢ^{yᵢ}`).
    pub fn coordinates(&self) -> &[Element] {
        &self.h
    }

    /// The underlying group.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// The comb table for `hᵢ`, building the full table set on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dimension()`.
    pub fn h_table(&self, i: usize) -> &FixedBaseTable {
        let tables = self.h_tables.get_or_init(|| {
            self.h
                .iter()
                .map(|hi| self.group.fixed_base_table(hi))
                .collect()
        });
        &tables[i]
    }
}

impl core::fmt::Debug for FeipPublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FeipPublicKey")
            .field("group", &self.group)
            .field("h", &self.h)
            .finish()
    }
}

impl PartialEq for FeipPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // Tables are a pure function of (group, h).
        self.group == other.group && self.h == other.h
    }
}

impl Eq for FeipPublicKey {}

impl Serialize for FeipPublicKey {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(serde::Value::Map(vec![
            ("group".to_string(), serde::ser::to_value(&self.group)),
            ("h".to_string(), serde::ser::to_value(&self.h)),
        ]))
    }
}

impl<'de> Deserialize<'de> for FeipPublicKey {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let value = deserializer.deserialize_value()?;
        let entries = value
            .as_map()
            .ok_or_else(|| D::Error::custom("expected map for FeipPublicKey"))?;
        let group: SchnorrGroup = serde::de::field(entries, "group").map_err(D::Error::custom)?;
        let h: Vec<Element> = serde::de::field(entries, "h").map_err(D::Error::custom)?;
        Ok(Self::assemble(group, h))
    }
}

/// The master secret key `s ∈ Z_q^η`. Held only by the authority.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeipMasterKey {
    s: Vec<Scalar>,
}

impl FeipMasterKey {
    /// The vector dimension `η`.
    pub fn dimension(&self) -> usize {
        self.s.len()
    }

    /// The secret coordinates `s₁…s_η` — crate-internal, so the
    /// threshold dealer can Shamir-share each coordinate without the
    /// secret ever crossing the crate boundary.
    pub(crate) fn coordinates(&self) -> &[Scalar] {
        &self.s
    }
}

/// A function-derived key `sk_f = ⟨y, s⟩` for a specific weight vector `y`.
///
/// The decryptor must supply the same `y` at decryption time; the scheme
/// does not bind `y` into the key (as in the paper, the server knows its
/// own weights).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeipFunctionKey {
    sk: Scalar,
}

impl FeipFunctionKey {
    /// Raw scalar, exposed for size accounting in the authority's
    /// communication log.
    pub fn scalar(&self) -> &Scalar {
        &self.sk
    }

    /// Assembles a key from a recombined scalar (threshold Lagrange
    /// aggregation lands on exactly the scalar `key_derive` computes).
    pub(crate) fn from_scalar(sk: Scalar) -> Self {
        Self { sk }
    }
}

/// Ciphertext `(ct₀, ct₁…ct_η)` of a vector `x`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeipCiphertext {
    ct0: Element,
    cts: Vec<Element>,
}

impl FeipCiphertext {
    /// The vector dimension `η` of the encrypted plaintext.
    pub fn dimension(&self) -> usize {
        self.cts.len()
    }
}

/// `Setup(1^λ, 1^η)`: creates an FEIP instance of dimension `dim` over
/// `group`.
///
/// # Panics
///
/// Panics if `dim` is zero.
pub fn setup<R: Rng + ?Sized>(
    group: SchnorrGroup,
    dim: usize,
    rng: &mut R,
) -> (FeipPublicKey, FeipMasterKey) {
    assert!(dim > 0, "FEIP dimension must be positive");
    let s: Vec<Scalar> = (0..dim).map(|_| group.random_scalar(rng)).collect();
    let h: Vec<Element> = s.iter().map(|si| group.exp(si)).collect();
    (FeipPublicKey::assemble(group, h), FeipMasterKey { s })
}

/// `KeyDerive(msk, y)`: returns `sk_f = ⟨y, s⟩ mod q`.
///
/// # Errors
///
/// Returns [`FeError::DimensionMismatch`] if `y` has the wrong length.
pub fn key_derive(
    group: &SchnorrGroup,
    msk: &FeipMasterKey,
    y: &[i64],
) -> Result<FeipFunctionKey, FeError> {
    if y.len() != msk.s.len() {
        return Err(FeError::DimensionMismatch {
            expected: msk.s.len(),
            got: y.len(),
        });
    }
    let y_scalars: Vec<Scalar> = y.iter().map(|&v| group.scalar_from_i64(v)).collect();
    Ok(FeipFunctionKey {
        sk: group.scalar_dot(&y_scalars, &msk.s),
    })
}

/// `Encrypt(mpk, x)`: encrypts a signed integer vector.
///
/// Every exponentiation runs against a precomputed fixed-base table:
/// `ct₀ = g^r` through the group's generator table and each
/// `ctᵢ = hᵢ^r · g^{xᵢ}` as one fused two-factor multi-exponentiation
/// through the key's `hᵢ` table.
///
/// # Errors
///
/// Returns [`FeError::DimensionMismatch`] if `x` has the wrong length.
pub fn encrypt<R: Rng + ?Sized>(
    mpk: &FeipPublicKey,
    x: &[i64],
    rng: &mut R,
) -> Result<FeipCiphertext, FeError> {
    if x.len() != mpk.h.len() {
        return Err(FeError::DimensionMismatch {
            expected: mpk.h.len(),
            got: x.len(),
        });
    }
    let group = &mpk.group;
    let g_table = group.generator_table();
    let r = group.random_scalar(rng);
    let ct0 = group.exp(&r);
    let cts = x
        .iter()
        .enumerate()
        .map(|(i, &xi)| {
            let xi = group.scalar_from_i64(xi);
            group.multi_pow(&[(mpk.h_table(i), &r), (g_table, &xi)])
        })
        .collect();
    Ok(FeipCiphertext { ct0, cts })
}

/// Batched `Encrypt`: encrypts each vector in `xs`, fanning the samples
/// out over `parallelism`.
///
/// Randomness is forked deterministically: one full-width (256-bit)
/// seed per sample is drawn from `rng` up front (in order, via
/// `fill_bytes`), and sample `i` is encrypted with
/// `StdRng::from_seed(seedᵢ)`. The output is therefore **bit-identical
/// across thread counts** for a given `rng` state, and reproducible
/// from a seeded `rng` — the property the batch/sequential equivalence
/// tests pin down. Full-width forking keeps the per-ciphertext
/// randomness at the caller RNG's entropy (a 64-bit seed would cap
/// every `r` at 2⁶⁴ regardless of `SecurityLevel`, and risk birthday
/// collisions — hence reused nonces — in large batches).
///
/// # Errors
///
/// Returns [`FeError::DimensionMismatch`] if any vector has the wrong
/// length.
pub fn encrypt_batch<R, V>(
    mpk: &FeipPublicKey,
    xs: &[V],
    rng: &mut R,
    parallelism: Parallelism,
) -> Result<Vec<FeipCiphertext>, FeError>
where
    R: Rng + ?Sized,
    V: AsRef<[i64]> + Sync,
{
    let seeds: Vec<[u8; 32]> = (0..xs.len())
        .map(|_| {
            let mut seed = [0u8; 32];
            rng.fill_bytes(&mut seed);
            seed
        })
        .collect();
    parallel_map(xs.len(), parallelism.thread_count(), |i| {
        let mut sample_rng = StdRng::from_seed(seeds[i]);
        encrypt(mpk, xs[i].as_ref(), &mut sample_rng)
    })
    .into_iter()
    .collect()
}

/// Checks the operands of a linear combination — every weight row has
/// one weight per ciphertext, every ciphertext the same dimension — and
/// returns that dimension.
///
/// # Panics
///
/// Panics if `cts` is empty.
fn combination_dimension(
    cts: &[&FeipCiphertext],
    weight_rows: &[&[i64]],
) -> Result<usize, FeError> {
    for row in weight_rows {
        if row.len() != cts.len() {
            return Err(FeError::DimensionMismatch {
                expected: cts.len(),
                got: row.len(),
            });
        }
    }
    let dim = cts[0].dimension();
    for ct in cts {
        if ct.dimension() != dim {
            return Err(FeError::DimensionMismatch {
                expected: dim,
                got: ct.dimension(),
            });
        }
    }
    Ok(dim)
}

/// The linear homomorphism of [`combine`] as deferred ratios, the
/// kernel under [`decrypt_combinations`]: for every weight row `r` and
/// every coordinate `j ∈ 0..=dim` (coordinate 0 is `ct₀`), the ratio
/// `Π_s ct_{s,j}^{w_{r,s}}`, row-major `k × (dim + 1)`.
///
/// The shape is [`decrypt_cells_refs`] with the roles transposed: each
/// weight row is wNAF-recoded **once** and shared by all `dim + 1`
/// coordinates; the bases `[ct_{s,j}]ₛ` of each coordinate get **one**
/// set of odd-power tables, shared by all `k` rows; and a work unit is
/// one (row, stride of four coordinates) advancing through the row's
/// Straus digit schedule four coordinates per Montgomery kernel call.
/// A coordinate therefore costs `2·log₂(max|w|)` squarings plus one
/// product per nonzero digit instead of one full-width exponentiation
/// per ciphertext (DESIGN.md §10.5).
///
/// Operands must have passed [`combination_dimension`].
fn combination_ratios(
    group: &SchnorrGroup,
    cts: &[&FeipCiphertext],
    weight_rows: &[&[i64]],
    threads: usize,
) -> Vec<ElementRatio> {
    let ncoords = cts[0].dimension() + 1;
    let recoded: Vec<WnafScalars> = weight_rows
        .iter()
        .map(|row| WnafScalars::recode(row))
        .collect();
    let tables: Vec<OddPowerTables> = parallel_map(ncoords, threads, |j| {
        let bases: Vec<Element> = cts
            .iter()
            .map(|ct| if j == 0 { ct.ct0 } else { ct.cts[j - 1] })
            .collect();
        group.odd_power_tables(&bases)
    });
    let nstrides = ncoords.div_ceil(LANES);
    parallel_map(recoded.len() * nstrides, threads, |idx| {
        let (scalars, j0) = (&recoded[idx / nstrides], idx % nstrides * LANES);
        if j0 + LANES <= ncoords {
            group
                .multi_scalar_ratio_lanes(core::array::from_fn(|i| &tables[j0 + i]), scalars)
                .to_vec()
        } else {
            // Remainder stride (< 4 coordinates): the serial path.
            tables[j0..]
                .iter()
                .map(|t| group.multi_scalar_ratio(t, scalars))
                .collect()
        }
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Linearly combines ciphertexts: given encryptions of vectors
/// `x_1 … x_k` and integer weights `w_1 … w_k`, produces a valid
/// encryption of `Σ w_j · x_j` (under randomness `Σ w_j · r_j`).
///
/// This homomorphism is what lets the CryptoNN server evaluate the
/// first-layer weight gradient `δ · Xᵀ` without learning `X`: each
/// gradient row is a weighted sum of the encrypted sample columns (see
/// DESIGN.md §4 for the security discussion).
///
/// This is the reference form of the homomorphism: it materialises the
/// combination with one full-width exponentiation per (ciphertext,
/// coordinate). The convolution filter gradient reads its result with
/// [`decrypt_coordinates`]; the dense gradient reads the same
/// coordinates off deferred ratios through [`decrypt_combinations`],
/// which is tested against this function bit for bit.
///
/// # Errors
///
/// Returns [`FeError::DimensionMismatch`] if the ciphertext dimensions
/// disagree or `weights.len() != cts.len()`.
///
/// # Panics
///
/// Panics if `cts` is empty.
pub fn combine(
    mpk: &FeipPublicKey,
    cts: &[&FeipCiphertext],
    weights: &[i64],
) -> Result<FeipCiphertext, FeError> {
    assert!(!cts.is_empty(), "combine requires at least one ciphertext");
    let dim = combination_dimension(cts, &[weights])?;
    let group = &mpk.group;
    let mut ct0 = group.identity();
    let mut cts_out = vec![group.identity(); dim];
    for (ct, &w) in cts.iter().zip(weights) {
        if w == 0 {
            continue;
        }
        let e = group.scalar_from_i64(w);
        ct0 = group.mul(&ct0, &group.pow(&ct.ct0, &e));
        for (acc, cti) in cts_out.iter_mut().zip(&ct.cts) {
            *acc = group.mul(acc, &group.pow(cti, &e));
        }
    }
    Ok(FeipCiphertext { ct0, cts: cts_out })
}

/// Computes the raw decryption `g^{⟨x,y⟩} = ∏ ctᵢ^{yᵢ} / ct₀^{sk_f}`
/// without solving the discrete log.
///
/// The numerator runs through the Straus/wNAF multi-scalar subsystem
/// (`cryptonn_group::multi_scalar`): one shared squaring chain of
/// height `log₂(max|yᵢ|)` across all bases instead of one full-width
/// exponentiation per nonzero `yᵢ`. Batch callers should prefer
/// [`decrypt_ratio`] + [`SchnorrGroup::resolve_ratios`] so the final
/// division amortizes too.
///
/// # Errors
///
/// Returns [`FeError::DimensionMismatch`] if `y` does not match the
/// ciphertext dimension.
pub fn decrypt_raw(
    mpk: &FeipPublicKey,
    ct: &FeipCiphertext,
    sk: &FeipFunctionKey,
    y: &[i64],
) -> Result<Element, FeError> {
    Ok(decrypt_ratio(mpk, ct, sk, y)?.resolve(&mpk.group))
}

/// As [`decrypt_raw`], but returns the deferred ratio
/// `(∏ ctᵢ^{yᵢ}) / (den · ct₀^{sk_f})` so many cells can be resolved
/// with one batched inversion.
///
/// Bases with `yᵢ = 0` are filtered out before any table is built, and
/// an all-zero `y` skips the numerator entirely (the ratio is
/// `1 / ct₀^{sk_f}`).
///
/// # Errors
///
/// Returns [`FeError::DimensionMismatch`] if `y` does not match the
/// ciphertext dimension.
pub fn decrypt_ratio(
    mpk: &FeipPublicKey,
    ct: &FeipCiphertext,
    sk: &FeipFunctionKey,
    y: &[i64],
) -> Result<ElementRatio, FeError> {
    if y.len() != ct.cts.len() {
        return Err(FeError::DimensionMismatch {
            expected: ct.cts.len(),
            got: y.len(),
        });
    }
    let group = &mpk.group;
    let denom = group.pow(&ct.ct0, &sk.sk);
    // Single-cell call: drop the zero-exponent bases so their odd-power
    // tables are never built (batch callers keep full-width tables and
    // amortize them across rows instead).
    let (bases, nonzero): (Vec<Element>, Vec<i64>) = ct
        .cts
        .iter()
        .zip(y)
        .filter(|(_, &yi)| yi != 0)
        .map(|(cti, &yi)| (*cti, yi))
        .unzip();
    if bases.is_empty() {
        return Ok(ElementRatio::from_element(group, group.identity()).div_by(group, &denom));
    }
    let scalars = WnafScalars::recode(&nonzero);
    let tables = group.odd_power_tables(&bases);
    Ok(group
        .multi_scalar_ratio(&tables, &scalars)
        .div_by(group, &denom))
}

/// The pre-multi-scalar reference decryption: one full-width
/// exponentiation per nonzero `yᵢ`. Kept public as the baseline arm of
/// the decrypt ablation bench and the equivalence property tests;
/// production callers use [`decrypt_raw`].
///
/// # Errors
///
/// Returns [`FeError::DimensionMismatch`] if `y` does not match the
/// ciphertext dimension.
pub fn decrypt_raw_naive(
    mpk: &FeipPublicKey,
    ct: &FeipCiphertext,
    sk: &FeipFunctionKey,
    y: &[i64],
) -> Result<Element, FeError> {
    if y.len() != ct.cts.len() {
        return Err(FeError::DimensionMismatch {
            expected: ct.cts.len(),
            got: y.len(),
        });
    }
    let group = &mpk.group;
    // Start the accumulator at the first nonzero term instead of the
    // identity — the identity start paid one wasted group.mul per cell.
    let mut terms = ct.cts.iter().zip(y).filter(|(_, &yi)| yi != 0);
    let num = match terms.next() {
        None => group.identity(),
        Some((ct0, &y0)) => {
            let mut acc = group.pow(ct0, &group.scalar_from_i64(y0));
            for (cti, &yi) in terms {
                acc = group.mul(&acc, &group.pow(cti, &group.scalar_from_i64(yi)));
            }
            acc
        }
    };
    let denom = group.pow(&ct.ct0, &sk.sk);
    Ok(group.div(&num, &denom))
}

/// Reference `Decrypt` on top of [`decrypt_raw_naive`] — the "naive" arm
/// of the decrypt ablations.
///
/// # Errors
///
/// As [`decrypt`].
pub fn decrypt_naive(
    mpk: &FeipPublicKey,
    ct: &FeipCiphertext,
    sk: &FeipFunctionKey,
    y: &[i64],
    table: &DlogTable,
) -> Result<i64, FeError> {
    let raw = decrypt_raw_naive(mpk, ct, sk, y)?;
    Ok(table.solve(&mpk.group, &raw)?)
}

/// How many reuses of one fixed base justify building a comb table for
/// it. A comb has `w = ⌈bits(q)/4⌉` windows: the build costs `15·w`
/// Montgomery products, a table-backed `pow` ≤ `w`, and a direct `pow`
/// about `5·w + 15` (at 256 bits: 960, 64 and ~335; at `Bits64`: 240,
/// 16 and ~95). Four reuses pay for the build at every level.
const FIXED_BASE_THRESHOLD: usize = 4;

/// Batched cross-product decryption: recovers
/// `⟨xᶜ, yʳ⟩` for **every** (ciphertext `c`, key row `r`) pair — the
/// cell loop of Algorithm 1's `secure-computation`, with every
/// amortization the batch shape allows:
///
/// - each `y` row is wNAF-recoded **once** and shared across all
///   ciphertexts;
/// - each ciphertext's odd-power tables are built **once** and shared
///   across all rows;
/// - each `ct₀` gets a fixed-base comb table when enough rows reuse it;
/// - all `nrows × ncts` divisions resolve through **one** batched
///   inversion.
///
/// Returns values in ciphertext-major order:
/// `out[c * rows.len() + r]`.
///
/// # Errors
///
/// - [`FeError::DimensionMismatch`] if `keys` and `rows` disagree in
///   length, or any row/ciphertext does not match the first
///   ciphertext's dimension,
/// - [`FeError::Group`] wrapping `DlogOutOfRange` if any cell exceeds
///   the table bound.
pub fn decrypt_cells(
    mpk: &FeipPublicKey,
    cts: &[FeipCiphertext],
    keys: &[FeipFunctionKey],
    rows: &[&[i64]],
    table: &DlogTable,
    parallelism: Parallelism,
) -> Result<Vec<i64>, FeError> {
    let refs: Vec<&FeipCiphertext> = cts.iter().collect();
    decrypt_cells_refs(mpk, &refs, keys, rows, table, parallelism)
}

/// As [`decrypt_cells`], over borrowed ciphertexts — the form the
/// inference serving layer uses to sweep the ciphertext columns of
/// **several coalesced requests** in one call (shared row recodings,
/// shared `ct₀` comb decision, and one batched inversion across every
/// request in flight) without cloning a single ciphertext.
///
/// # Errors
///
/// As [`decrypt_cells`].
pub fn decrypt_cells_refs(
    mpk: &FeipPublicKey,
    cts: &[&FeipCiphertext],
    keys: &[FeipFunctionKey],
    rows: &[&[i64]],
    table: &DlogTable,
    parallelism: Parallelism,
) -> Result<Vec<i64>, FeError> {
    if keys.len() != rows.len() {
        return Err(FeError::DimensionMismatch {
            expected: rows.len(),
            got: keys.len(),
        });
    }
    if cts.is_empty() || rows.is_empty() {
        return Ok(Vec::new());
    }
    let dim = cts[0].dimension();
    for ct in cts {
        if ct.dimension() != dim {
            return Err(FeError::DimensionMismatch {
                expected: dim,
                got: ct.dimension(),
            });
        }
    }
    for row in rows {
        if row.len() != dim {
            return Err(FeError::DimensionMismatch {
                expected: dim,
                got: row.len(),
            });
        }
    }
    let group = &mpk.group;
    let threads = parallelism.thread_count();
    // Recode every row once, up front (cheap, integer-only).
    let recoded: Vec<WnafScalars> = rows.iter().map(|row| WnafScalars::recode(row)).collect();

    // Phase 1 — per-ciphertext precomputation (odd-power tables, ct₀
    // comb table), parallel across ciphertexts.
    let precomp: Vec<(OddPowerTables, Option<FixedBaseTable>)> =
        parallel_map(cts.len(), threads, |c| {
            let ct = &cts[c];
            let tables = group.odd_power_tables(&ct.cts);
            let ct0_table =
                (keys.len() >= FIXED_BASE_THRESHOLD).then(|| group.fixed_base_table(&ct.ct0));
            (tables, ct0_table)
        });

    // Phase 2 — deferred ratios, one work unit per (key row, stride of
    // four ciphertexts): every row's recoding is shared by all its
    // lanes, and each full stride advances through the shared Straus
    // digit schedule four cells per Montgomery kernel call
    // (`multi_scalar_ratio_lanes` for the numerators,
    // `exp_tables_lanes` for the `ct0^sk` denominators). Work units
    // still cover the full `ncts × nrows` grid, so a single-column
    // batch with many key rows occupies every thread.
    let nrows = rows.len();
    let nstrides = cts.len().div_ceil(LANES);
    let stride_ratios: Vec<Vec<ElementRatio>> = parallel_map(nrows * nstrides, threads, |idx| {
        let (r, s) = (idx / nstrides, idx % nstrides);
        let c0 = s * LANES;
        let width = LANES.min(cts.len() - c0);
        let (scalars, key) = (&recoded[r], &keys[r]);
        if width == LANES {
            let tables: [&OddPowerTables; LANES] = core::array::from_fn(|i| &precomp[c0 + i].0);
            let denoms: [Element; LANES] =
                match core::array::from_fn(|i| precomp[c0 + i].1.as_ref()) {
                    // The comb decision is uniform across ciphertexts, so a
                    // stride is all-Some or all-None.
                    [Some(t0), Some(t1), Some(t2), Some(t3)] => {
                        group.exp_tables_lanes([t0, t1, t2, t3], &key.sk)
                    }
                    _ => core::array::from_fn(|i| group.pow(&cts[c0 + i].ct0, &key.sk)),
                };
            let nums: [ElementRatio; LANES] = if scalars.is_all_zero() {
                core::array::from_fn(|_| ElementRatio::from_element(group, group.identity()))
            } else {
                group.multi_scalar_ratio_lanes(tables, scalars)
            };
            (0..LANES)
                .map(|i| nums[i].div_by(group, &denoms[i]))
                .collect()
        } else {
            // Remainder stride (< 4 ciphertexts): the serial path.
            (0..width)
                .map(|i| {
                    let c = c0 + i;
                    let (tables, ct0_table) = &precomp[c];
                    let denom = match ct0_table {
                        Some(t) => group.exp_table(t, &key.sk),
                        None => group.pow(&cts[c].ct0, &key.sk),
                    };
                    if scalars.is_all_zero() {
                        ElementRatio::from_element(group, group.identity()).div_by(group, &denom)
                    } else {
                        group
                            .multi_scalar_ratio(tables, scalars)
                            .div_by(group, &denom)
                    }
                })
                .collect()
        }
    });
    // Reassemble ciphertext-major: cell (c, r) at index c*nrows + r.
    let mut ratios = vec![ElementRatio::from_element(group, group.identity()); cts.len() * nrows];
    for (idx, unit) in stride_ratios.iter().enumerate() {
        let (r, s) = (idx / nstrides, idx % nstrides);
        for (i, ratio) in unit.iter().enumerate() {
            ratios[(s * LANES + i) * nrows + r] = *ratio;
        }
    }

    // Phase 3 — one batched inversion for the whole matrix of cells.
    let raws = group.resolve_ratios(&ratios);

    // Phase 4 — discrete logs: lane-stepped BSGS over chunks of cells,
    // parallel across chunks.
    const SOLVE_CHUNK: usize = 8 * LANES;
    let nchunks = raws.len().div_ceil(SOLVE_CHUNK);
    parallel_map(nchunks, threads, |k| {
        let lo = k * SOLVE_CHUNK;
        let hi = raws.len().min(lo + SOLVE_CHUNK);
        table.solve_batch(group, &raws[lo..hi])
    })
    .into_iter()
    .flatten()
    .map(|r| r.map_err(FeError::from))
    .collect()
}

/// Reads every coordinate of one ciphertext with the caller's cached
/// unit-vector keys: returns `x_j` for each `j`.
///
/// The unit numerators are just `ctⱼ` (no exponentiation at all), the
/// `ct₀^{sk_j}` denominators share one comb table on `ct₀`, and all
/// `dim` divisions resolve through one batched inversion. The
/// convolution filter gradient reads its [`combine`]d ciphertexts this
/// way; the dense gradient reads combinations it never materialises
/// through [`decrypt_combinations`], which ends in the same read.
///
/// # Errors
///
/// - [`FeError::DimensionMismatch`] if `unit_keys` does not match the
///   ciphertext dimension,
/// - [`FeError::Group`] wrapping `DlogOutOfRange` if any coordinate
///   exceeds the table bound.
pub fn decrypt_coordinates(
    mpk: &FeipPublicKey,
    ct: &FeipCiphertext,
    unit_keys: &[FeipFunctionKey],
    table: &DlogTable,
) -> Result<Vec<i64>, FeError> {
    if unit_keys.len() != ct.cts.len() {
        return Err(FeError::DimensionMismatch {
            expected: ct.cts.len(),
            got: unit_keys.len(),
        });
    }
    let group = &mpk.group;
    let nums: Vec<ElementRatio> = ct
        .cts
        .iter()
        .map(|cti| ElementRatio::from_element(group, *cti))
        .collect();
    read_coordinates(group, &ct.ct0, &nums, unit_keys, table)
}

/// The coordinate read under [`decrypt_coordinates`] and
/// [`decrypt_combinations`]: solves `numsⱼ / ct₀^{sk_j}` for every `j`,
/// with one comb table on `ct₀`, four unit-key exponents per kernel
/// call, and one batched inversion. `nums` and `unit_keys` have equal
/// length (checked by the callers).
fn read_coordinates(
    group: &SchnorrGroup,
    ct0: &Element,
    nums: &[ElementRatio],
    unit_keys: &[FeipFunctionKey],
    table: &DlogTable,
) -> Result<Vec<i64>, FeError> {
    let ct0_table = (unit_keys.len() >= FIXED_BASE_THRESHOLD).then(|| group.fixed_base_table(ct0));
    // `ct0^{sk_j}` denominators: with the shared comb table, four
    // distinct exponents walk the table in lockstep per kernel call.
    let mut denoms: Vec<Element> = Vec::with_capacity(unit_keys.len());
    match &ct0_table {
        Some(t) => {
            let mut chunks = unit_keys.chunks_exact(LANES);
            for keys in chunks.by_ref() {
                let es: [&Scalar; LANES] = core::array::from_fn(|i| &keys[i].sk);
                denoms.extend(group.exp_table_many(t, es));
            }
            denoms.extend(chunks.remainder().iter().map(|k| group.exp_table(t, &k.sk)));
        }
        None => denoms.extend(unit_keys.iter().map(|k| group.pow(ct0, &k.sk))),
    }
    let ratios: Vec<ElementRatio> = nums
        .iter()
        .zip(&denoms)
        .map(|(num, denom)| num.div_by(group, denom))
        .collect();
    let raws = group.resolve_ratios(&ratios);
    table
        .solve_batch(group, &raws)
        .into_iter()
        .map(|r| r.map_err(FeError::from))
        .collect()
}

/// The secure first-layer gradient in one call: for every weight row
/// `wʳ` (one per output neuron) and every coordinate `j`,
/// recovers `Σ_s wʳ_s · x_{s,j}` from the encryptions `cts` of the
/// `x_s` — i.e. [`decrypt_coordinates`] of [`combine`]`(cts, wʳ)` for
/// each row, without ever materialising a combined ciphertext.
///
/// Coordinate `j` of combination `r` is one deferred ratio,
/// `Π_s ct_{s,j}^{wʳ_s} / (Π_s ct_{s,0}^{wʳ_s})^{sk_j}`: the products
/// come from one multi-scalar kernel (rows recoded once,
/// per-coordinate tables shared by all rows, four coordinates per
/// kernel call); only the `k` combined `ct₀` are resolved (one batched
/// inversion) because each is the base of its row's comb table; the
/// numerators stay ratios until the row's single batched inversion.
/// Both phases fan out over `parallelism`, the first over
/// (row × coordinate stride) units so few rows over many ciphertexts
/// (the convolution shape, tested but not wired in yet) still fill
/// every thread.
///
/// Returns values row-major: `out[r * dim + j]`. Empty `cts` or
/// `weight_rows` return an empty vector.
///
/// # Errors
///
/// - [`FeError::DimensionMismatch`] if a weight row does not have one
///   weight per ciphertext, the ciphertext dimensions disagree, or
///   `unit_keys` does not match them,
/// - [`FeError::Group`] wrapping `DlogOutOfRange` if any coordinate
///   exceeds the table bound.
pub fn decrypt_combinations(
    mpk: &FeipPublicKey,
    cts: &[&FeipCiphertext],
    weight_rows: &[&[i64]],
    unit_keys: &[FeipFunctionKey],
    table: &DlogTable,
    parallelism: Parallelism,
) -> Result<Vec<i64>, FeError> {
    if cts.is_empty() || weight_rows.is_empty() {
        return Ok(Vec::new());
    }
    let dim = combination_dimension(cts, weight_rows)?;
    if unit_keys.len() != dim {
        return Err(FeError::DimensionMismatch {
            expected: dim,
            got: unit_keys.len(),
        });
    }
    let group = &mpk.group;
    let threads = parallelism.thread_count();
    let ratios = combination_ratios(group, cts, weight_rows, threads);
    let ncoords = dim + 1;
    let ct0_ratios: Vec<ElementRatio> = ratios.iter().step_by(ncoords).copied().collect();
    let ct0s = group.resolve_ratios(&ct0_ratios);
    parallel_map(weight_rows.len(), threads, |r| {
        let nums = &ratios[r * ncoords + 1..(r + 1) * ncoords];
        read_coordinates(group, &ct0s[r], nums, unit_keys, table)
    })
    .into_iter()
    .collect::<Result<Vec<Vec<i64>>, FeError>>()
    .map(|rows| rows.concat())
}

/// `Decrypt(mpk, ct, sk_f, y)`: recovers `⟨x, y⟩` as a signed integer
/// using the supplied BSGS table.
///
/// # Errors
///
/// - [`FeError::DimensionMismatch`] if `y` has the wrong length,
/// - [`FeError::Group`] wrapping `DlogOutOfRange` if `|⟨x,y⟩|` exceeds
///   the table bound.
pub fn decrypt(
    mpk: &FeipPublicKey,
    ct: &FeipCiphertext,
    sk: &FeipFunctionKey,
    y: &[i64],
    table: &DlogTable,
) -> Result<i64, FeError> {
    let raw = decrypt_raw(mpk, ct, sk, y)?;
    Ok(table.solve(&mpk.group, &raw)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptonn_group::{GroupError, SecurityLevel};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn setup_small(dim: usize) -> (FeipPublicKey, FeipMasterKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(42);
        let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        let (mpk, msk) = setup(group, dim, &mut rng);
        (mpk, msk, rng)
    }

    #[test]
    fn roundtrip_inner_product() {
        let (mpk, msk, mut rng) = setup_small(5);
        let table = DlogTable::new(mpk.group(), 100_000);
        let x = [1i64, -2, 3, 0, 7];
        let y = [10i64, 20, -30, 40, 5];
        let expected: i64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();

        let ct = encrypt(&mpk, &x, &mut rng).unwrap();
        let sk = key_derive(mpk.group(), &msk, &y).unwrap();
        let got = decrypt(&mpk, &ct, &sk, &y, &table).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn random_vectors() {
        let (mpk, msk, mut rng) = setup_small(8);
        let table = DlogTable::new(mpk.group(), 1_000_000);
        for _ in 0..16 {
            let x: Vec<i64> = (0..8).map(|_| rng.random_range(-100..=100)).collect();
            let y: Vec<i64> = (0..8).map(|_| rng.random_range(-100..=100)).collect();
            let expected: i64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let ct = encrypt(&mpk, &x, &mut rng).unwrap();
            let sk = key_derive(mpk.group(), &msk, &y).unwrap();
            assert_eq!(decrypt(&mpk, &ct, &sk, &y, &table).unwrap(), expected);
        }
    }

    #[test]
    fn zero_vectors() {
        let (mpk, msk, mut rng) = setup_small(3);
        let table = DlogTable::new(mpk.group(), 10);
        let ct = encrypt(&mpk, &[0, 0, 0], &mut rng).unwrap();
        let sk = key_derive(mpk.group(), &msk, &[1, 2, 3]).unwrap();
        assert_eq!(decrypt(&mpk, &ct, &sk, &[1, 2, 3], &table).unwrap(), 0);
        // All-zero y also works (key is the zero scalar).
        let sk0 = key_derive(mpk.group(), &msk, &[0, 0, 0]).unwrap();
        let ct2 = encrypt(&mpk, &[5, -6, 7], &mut rng).unwrap();
        assert_eq!(decrypt(&mpk, &ct2, &sk0, &[0, 0, 0], &table).unwrap(), 0);
    }

    #[test]
    fn dimension_mismatches() {
        let (mpk, msk, mut rng) = setup_small(4);
        assert_eq!(
            encrypt(&mpk, &[1, 2, 3], &mut rng),
            Err(FeError::DimensionMismatch {
                expected: 4,
                got: 3
            })
        );
        assert_eq!(
            key_derive(mpk.group(), &msk, &[1; 5]).unwrap_err(),
            FeError::DimensionMismatch {
                expected: 4,
                got: 5
            }
        );
        let ct = encrypt(&mpk, &[1, 2, 3, 4], &mut rng).unwrap();
        let sk = key_derive(mpk.group(), &msk, &[1; 4]).unwrap();
        assert!(decrypt_raw(&mpk, &ct, &sk, &[1; 2]).is_err());
    }

    #[test]
    fn wrong_key_gives_wrong_or_no_result() {
        let (mpk, msk, mut rng) = setup_small(3);
        let table = DlogTable::new(mpk.group(), 1000);
        let x = [3i64, 4, 5];
        let y = [1i64, 1, 1];
        let y_other = [2i64, 0, 1];
        let ct = encrypt(&mpk, &x, &mut rng).unwrap();
        let sk_other = key_derive(mpk.group(), &msk, &y_other).unwrap();
        // Decrypting y's product with y_other's key must not yield <x,y>.
        match decrypt(&mpk, &ct, &sk_other, &y, &table) {
            Ok(v) => assert_ne!(v, 12),
            Err(FeError::Group(GroupError::DlogOutOfRange { .. })) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn out_of_range_result_is_detected() {
        let (mpk, msk, mut rng) = setup_small(2);
        let table = DlogTable::new(mpk.group(), 10);
        let ct = encrypt(&mpk, &[100, 100], &mut rng).unwrap();
        let sk = key_derive(mpk.group(), &msk, &[1, 1]).unwrap();
        assert_eq!(
            decrypt(&mpk, &ct, &sk, &[1, 1], &table),
            Err(FeError::Group(GroupError::DlogOutOfRange { bound: 10 }))
        );
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let (mpk, _msk, mut rng) = setup_small(2);
        let a = encrypt(&mpk, &[7, 7], &mut rng).unwrap();
        let b = encrypt(&mpk, &[7, 7], &mut rng).unwrap();
        assert_ne!(a, b, "two encryptions of the same plaintext must differ");
    }

    #[test]
    fn combine_is_linearly_homomorphic() {
        let (mpk, msk, mut rng) = setup_small(3);
        let table = DlogTable::new(mpk.group(), 100_000);
        let x1 = [1i64, -2, 3];
        let x2 = [10i64, 20, -30];
        let x3 = [0i64, 5, 7];
        let w = [4i64, -3, 2];
        let cts = [
            encrypt(&mpk, &x1, &mut rng).unwrap(),
            encrypt(&mpk, &x2, &mut rng).unwrap(),
            encrypt(&mpk, &x3, &mut rng).unwrap(),
        ];
        let combined = combine(&mpk, &[&cts[0], &cts[1], &cts[2]], &w).unwrap();
        // Decrypt each coordinate of the combination with a unit-vector key.
        for i in 0..3 {
            let mut unit = [0i64; 3];
            unit[i] = 1;
            let sk = key_derive(mpk.group(), &msk, &unit).unwrap();
            let got = decrypt(&mpk, &combined, &sk, &unit, &table).unwrap();
            let expect = w[0] * x1[i] + w[1] * x2[i] + w[2] * x3[i];
            assert_eq!(got, expect, "coordinate {i}");
        }
        // And with a full weight vector key.
        let y = [1i64, 1, 1];
        let sk = key_derive(mpk.group(), &msk, &y).unwrap();
        let got = decrypt(&mpk, &combined, &sk, &y, &table).unwrap();
        let expect: i64 = (0..3)
            .map(|i| w[0] * x1[i] + w[1] * x2[i] + w[2] * x3[i])
            .sum();
        assert_eq!(got, expect);
    }

    #[test]
    fn multi_scalar_decrypt_matches_naive_reference() {
        let (mpk, msk, mut rng) = setup_small(6);
        for _ in 0..8 {
            let x: Vec<i64> = (0..6).map(|_| rng.random_range(-200..=200)).collect();
            let y: Vec<i64> = (0..6).map(|_| rng.random_range(-200..=200)).collect();
            let ct = encrypt(&mpk, &x, &mut rng).unwrap();
            let sk = key_derive(mpk.group(), &msk, &y).unwrap();
            assert_eq!(
                decrypt_raw(&mpk, &ct, &sk, &y).unwrap(),
                decrypt_raw_naive(&mpk, &ct, &sk, &y).unwrap()
            );
        }
        // All-zero y takes the numerator-skip path in both.
        let ct = encrypt(&mpk, &[1, 2, 3, 4, 5, 6], &mut rng).unwrap();
        let zero = [0i64; 6];
        let sk = key_derive(mpk.group(), &msk, &zero).unwrap();
        assert_eq!(
            decrypt_raw(&mpk, &ct, &sk, &zero).unwrap(),
            decrypt_raw_naive(&mpk, &ct, &sk, &zero).unwrap()
        );
    }

    #[test]
    fn decrypt_cells_matches_per_cell_decrypt() {
        let (mpk, msk, mut rng) = setup_small(5);
        let table = DlogTable::new(mpk.group(), 1_000_000);
        let cts: Vec<FeipCiphertext> = (0..3)
            .map(|_| {
                let x: Vec<i64> = (0..5).map(|_| rng.random_range(-100..=100)).collect();
                encrypt(&mpk, &x, &mut rng).unwrap()
            })
            .collect();
        // Rows exercise dense, sparse, all-zero and all-negative shapes
        // (row count ≥ FIXED_BASE_THRESHOLD hits the ct₀ comb path).
        let rows: Vec<Vec<i64>> = vec![
            (0..5).map(|_| rng.random_range(-100..=100)).collect(),
            vec![0, 7, 0, 0, -3],
            vec![0; 5],
            vec![-9, -1, -50, -2, -13],
        ];
        let keys: Vec<FeipFunctionKey> = rows
            .iter()
            .map(|r| key_derive(mpk.group(), &msk, r).unwrap())
            .collect();
        let row_refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        for par in [Parallelism::Serial, Parallelism::Threads(3)] {
            let got = decrypt_cells(&mpk, &cts, &keys, &row_refs, &table, par).unwrap();
            for (c, ct) in cts.iter().enumerate() {
                for (r, row) in rows.iter().enumerate() {
                    assert_eq!(
                        got[c * rows.len() + r],
                        decrypt(&mpk, ct, &keys[r], row, &table).unwrap(),
                        "cell ({c},{r}) under {par:?}"
                    );
                }
            }
        }
        // Degenerate shapes.
        assert!(
            decrypt_cells(&mpk, &[], &keys, &row_refs, &table, Parallelism::Serial)
                .unwrap()
                .is_empty()
        );
        assert!(decrypt_cells(
            &mpk,
            &cts,
            &keys[..1],
            &row_refs,
            &table,
            Parallelism::Serial
        )
        .is_err());
    }

    #[test]
    fn decrypt_cells_bit_identical_at_fast_level() {
        // The full optimized stack — FastP64 reducer, lane-batched
        // Montgomery kernel, lane-stepped BSGS — must be bit-identical
        // to the naive reference arm at `Bits256Fast`. Six ciphertexts
        // cover one full 4-wide stride plus a serial remainder.
        let mut rng = StdRng::seed_from_u64(0x2019);
        let group = SchnorrGroup::precomputed(SecurityLevel::Bits256Fast);
        let (mpk, msk) = setup(group, 4, &mut rng);
        let table = DlogTable::new(mpk.group(), 500_000);
        let xs: Vec<Vec<i64>> = (0..6)
            .map(|_| (0..4).map(|_| rng.random_range(-150..=150)).collect())
            .collect();
        let cts: Vec<FeipCiphertext> = xs
            .iter()
            .map(|x| encrypt(&mpk, x, &mut rng).unwrap())
            .collect();
        let rows: Vec<Vec<i64>> = vec![
            (0..4).map(|_| rng.random_range(-150..=150)).collect(),
            vec![0, 11, 0, -5],
            vec![0; 4],
            vec![-3, -70, -1, -8],
            (0..4).map(|_| rng.random_range(-150..=150)).collect(),
        ];
        let keys: Vec<FeipFunctionKey> = rows
            .iter()
            .map(|r| key_derive(mpk.group(), &msk, r).unwrap())
            .collect();
        let row_refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let got = decrypt_cells(&mpk, &cts, &keys, &row_refs, &table, Parallelism::Serial).unwrap();
        for (c, ct) in cts.iter().enumerate() {
            for (r, row) in rows.iter().enumerate() {
                // Element-level identity (before the dlog), then the
                // recovered integer against the naive arm.
                assert_eq!(
                    decrypt_raw(&mpk, ct, &keys[r], row).unwrap(),
                    decrypt_raw_naive(&mpk, ct, &keys[r], row).unwrap(),
                    "raw element for cell ({c},{r})"
                );
                assert_eq!(
                    got[c * rows.len() + r],
                    decrypt_naive(&mpk, ct, &keys[r], row, &table).unwrap(),
                    "cell ({c},{r})"
                );
            }
        }
    }

    #[test]
    fn decrypt_coordinates_reads_combined_ciphertexts() {
        let (mpk, msk, mut rng) = setup_small(4);
        let table = DlogTable::new(mpk.group(), 100_000);
        let x1 = [3i64, -4, 5, 0];
        let x2 = [-1i64, 2, -3, 4];
        let cts = [
            encrypt(&mpk, &x1, &mut rng).unwrap(),
            encrypt(&mpk, &x2, &mut rng).unwrap(),
        ];
        let combined = combine(&mpk, &[&cts[0], &cts[1]], &[5, -2]).unwrap();
        let unit_keys: Vec<FeipFunctionKey> = (0..4)
            .map(|j| {
                let mut unit = [0i64; 4];
                unit[j] = 1;
                key_derive(mpk.group(), &msk, &unit).unwrap()
            })
            .collect();
        let coords = decrypt_coordinates(&mpk, &combined, &unit_keys, &table).unwrap();
        for j in 0..4 {
            assert_eq!(coords[j], 5 * x1[j] - 2 * x2[j], "coordinate {j}");
        }
        assert!(decrypt_coordinates(&mpk, &combined, &unit_keys[..2], &table).is_err());
    }

    #[test]
    fn combine_rejects_mismatches() {
        let (mpk, _msk, mut rng) = setup_small(2);
        let ct = encrypt(&mpk, &[1, 2], &mut rng).unwrap();
        assert!(combine(&mpk, &[&ct], &[1, 2]).is_err());
    }

    /// The ratio kernel under [`decrypt_combinations`], resolved into a
    /// ciphertext, must equal the one-exponentiation-per-term
    /// [`combine`] bit for bit.
    #[test]
    fn ratio_kernel_is_bit_identical_to_combine() {
        const EXTREMES: [i64; 8] = [i64::MIN, 0, i64::MAX, i64::MIN + 1, -1, i64::MAX - 1, 1, 0];
        let mut rng = StdRng::seed_from_u64(0x20);
        for level in [SecurityLevel::Bits64, SecurityLevel::Bits256Fast] {
            let group = SchnorrGroup::precomputed(level);
            // dim + 1 coordinates (ct₀ included) cover every lane
            // remainder: 2, 4, 5, 10 and 11.
            for dim in [1usize, 3, 4, 9, 10] {
                let (mpk, _msk) = setup(group.clone(), dim, &mut rng);
                let cts: Vec<FeipCiphertext> = (0..8)
                    .map(|_| {
                        let x: Vec<i64> = (0..dim).map(|_| rng.random_range(-100..=100)).collect();
                        encrypt(&mpk, &x, &mut rng).unwrap()
                    })
                    .collect();
                for m in [1usize, 3, 8] {
                    let refs: Vec<&FeipCiphertext> = cts[..m].iter().collect();
                    let random: Vec<i64> = (0..m)
                        .map(|_| rng.random_range(-1_000_000..=1_000_000))
                        .collect();
                    for weights in [&random[..], &EXTREMES[..m], &vec![0i64; m][..]] {
                        let mut coords = group
                            .resolve_ratios(&combination_ratios(&group, &refs, &[weights], 1))
                            .into_iter();
                        let ct0 = coords.next().expect("coordinate 0 is ct0");
                        let kernel = FeipCiphertext {
                            ct0,
                            cts: coords.collect(),
                        };
                        assert_eq!(
                            kernel,
                            combine(&mpk, &refs, weights).unwrap(),
                            "{level:?} dim {dim} m {m} weights {weights:?}"
                        );
                    }
                }
            }
        }
    }
}
