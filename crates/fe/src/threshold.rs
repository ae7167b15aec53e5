//! t-of-n threshold key authority: Shamir-shared master keys with
//! exact Lagrange recombination.
//!
//! The single [`KeyAuthority`](crate::KeyAuthority) is the paper's
//! strongest caveat — one node holds every FEIP/FEBO master secret.
//! This module splits that trust across `n` share-holders so that any
//! `t` of them can jointly derive function keys, while `t − 1` learn
//! nothing actionable and reconstruct nothing.
//!
//! ## Why recombination is *exact* (DESIGN.md §17)
//!
//! Everything lives in `Z_q`, the scalar field of the Schnorr group,
//! which is a finite field — Shamir sharing and Lagrange interpolation
//! are exact, not approximate:
//!
//! - **FEIP** keys are linear in the master key: `sk_y = ⟨s, y⟩ mod q`.
//!   Share each coordinate `sᵢ` with a degree-`(t−1)` polynomial
//!   `fᵢ(x)`; node `j` holds `fᵢ(j)`. Its partial is
//!   `pⱼ = ⟨f(j), y⟩ mod q`, and for any t-subset `S`,
//!   `Σ_{j∈S} λⱼ·pⱼ = ⟨Σ λⱼ f(j), y⟩ = ⟨s, y⟩ = sk_y` where `λⱼ` are
//!   the Lagrange coefficients of `S` at `x = 0`. Canonical residues in
//!   `[0, q)` mean the recombined scalar is **bit-identical** to the
//!   single-authority derivation — for *every* t-subset.
//! - **FEBO** keys need `cmt^s`; node `j` returns `dⱼ = cmt^{uⱼ}` for
//!   its share `uⱼ` of the FEBO secret, and
//!   `Π_{j∈S} dⱼ^{λⱼ} = cmt^{Σ λⱼ uⱼ} = cmt^s` — again exact, with the
//!   operand adjustment (`· g^{∓y}`, `^y`, `^{y⁻¹}`) applied once by
//!   the combiner via the same code path as the single authority.
//!
//! ## Validation — no silent wrong key
//!
//! Partials are validated against *public* commitments before a key is
//! ever released:
//!
//! - FEIP: the recombined key must satisfy `g^{sk} = Π hᵢ^{yᵢ}` against
//!   the published `hᵢ = g^{sᵢ}` of the FEIP public key. On mismatch
//!   the combiner walks the other t-subsets (retry-on-surviving-quorum)
//!   and identifies the corrupt node by interpolating the validated
//!   polynomial at the suspect's abscissa.
//! - FEBO: each partial carries a Chaum–Pedersen [`DleqProof`] that
//!   `log_g Fⱼ = log_cmt dⱼ` against the published share commitment
//!   `Fⱼ = g^{uⱼ}`, so a corrupt partial is rejected *before*
//!   recombination. The commitment vector itself is anchored at
//!   construction: `Π Fⱼ^{λⱼ} = h` (the FEBO public key) for the base
//!   subset, and every further `F_u` must lie on the same polynomial.
//!
//! Below quorum the combiner fails closed with
//! [`FeError::InsufficientShares`]; when corruption exhausts every
//! t-subset it fails with [`FeError::SharesTampered`].
//!
//! ## Deployment model
//!
//! Share-holders are *dealer replicas*: every node derives the same
//! master keys from the same session seed (exactly replicating
//! [`KeyAuthority`](crate::KeyAuthority)'s RNG evolution) and then
//! keeps only its own share — the sharing polynomials come from a
//! *separate* RNG stream so the master keys are untouched by the
//! sharing. This keeps the single authority as the `n = t = 1` special
//! case of the same construction, bit-for-bit. The trust win is at
//! *serving* time: compromise of up to `t − 1` running nodes reveals
//! only Shamir shares. All nodes must see the same request stream in
//! the same order (the combiner fans every request out to every live
//! node), which the per-session total order of the protocol layer
//! provides.

use std::collections::HashMap;
use std::sync::Arc;

use cryptonn_group::{Element, Scalar, SchnorrGroup};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::authority::PermittedFunctions;
use crate::error::FeError;
use crate::febo::{self, FeboFunctionKey, FeboPublicKey};
use crate::feip::{self, FeipFunctionKey, FeipPublicKey};
use crate::service::{FeboKeyRequest, KeyService};

/// Domain-separating salt for the sharing-polynomial RNG stream, so the
/// master-key stream of the dealer replica is bit-identical to the
/// single authority's.
const SHARE_RNG_SALT: u64 = 0x7368_6172_655f_706f;
/// Salt for the per-node DLEQ-nonce RNG stream.
const PROOF_RNG_SALT: u64 = 0x646c_6571_5f6e_6f6e;

/// The `(n, t)` shape of a threshold deployment: `n` share-holders, any
/// `t` of which form a quorum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThresholdSetup {
    n: u32,
    t: u32,
}

impl ThresholdSetup {
    /// Creates a setup with `n` share-holders and quorum `t`.
    ///
    /// # Errors
    ///
    /// [`FeError::InvalidOperand`] unless `1 ≤ t ≤ n`.
    pub fn new(n: u32, t: u32) -> Result<Self, FeError> {
        if n == 0 || t == 0 || t > n {
            return Err(FeError::InvalidOperand(
                "threshold setup requires 1 <= t <= n",
            ));
        }
        Ok(Self { n, t })
    }

    /// The degenerate `n = t = 1` setup — the single authority as a
    /// special case of the threshold construction.
    pub fn single() -> Self {
        Self { n: 1, t: 1 }
    }

    /// Number of share-holders.
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Quorum size.
    pub fn t(&self) -> usize {
        self.t as usize
    }
}

/// One node's place in a threshold deployment: the common setup plus
/// this node's 1-based share index (its Shamir abscissa).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShareSpec {
    setup: ThresholdSetup,
    index: u32,
}

impl ShareSpec {
    /// Creates a spec for share-holder `index` (1-based).
    ///
    /// # Errors
    ///
    /// [`FeError::InvalidOperand`] unless `1 ≤ index ≤ n`.
    pub fn new(setup: ThresholdSetup, index: u32) -> Result<Self, FeError> {
        if index == 0 || index as usize > setup.n() {
            return Err(FeError::InvalidOperand("share index out of range"));
        }
        Ok(Self { setup, index })
    }

    /// The common `(n, t)` setup.
    pub fn setup(&self) -> ThresholdSetup {
        self.setup
    }

    /// This node's 1-based share index.
    pub fn index(&self) -> u32 {
        self.index
    }
}

// ---------------------------------------------------------------------------
// Shamir sharing and Lagrange recombination over Z_q
// ---------------------------------------------------------------------------

/// Evaluates `coeffs[0] + coeffs[1]·x + …` by Horner's rule in `Z_q`.
fn poly_eval(group: &SchnorrGroup, coeffs: &[Scalar], x: &Scalar) -> Scalar {
    let mut acc = Scalar::ZERO;
    for c in coeffs.iter().rev() {
        acc = group.scalar_mul(&acc, x);
        acc = group.scalar_add(&acc, c);
    }
    acc
}

/// Shamir-shares `secret` into `n` shares with quorum `t`: share `j`
/// (1-based) is `f(j)` for a degree-`(t−1)` polynomial with constant
/// term `secret` and the remaining coefficients drawn from `rng`.
pub fn share_scalar<R: Rng + ?Sized>(
    group: &SchnorrGroup,
    secret: &Scalar,
    setup: ThresholdSetup,
    rng: &mut R,
) -> Vec<Scalar> {
    let mut coeffs = Vec::with_capacity(setup.t());
    coeffs.push(*secret);
    for _ in 1..setup.t() {
        coeffs.push(group.random_scalar(rng));
    }
    (1..=setup.n() as u64)
        .map(|j| poly_eval(group, &coeffs, &group.scalar_from_u64(j)))
        .collect()
}

/// The Lagrange basis coefficients `Lⱼ(at)` for the abscissas `xs`,
/// evaluated at `at`, all in `Z_q`.
///
/// With `at = 0` these are the recombination weights `λⱼ`; with
/// `at = x_u` they interpolate the quorum's polynomial at a suspect
/// node's abscissa (corrupt-share identification).
///
/// # Panics
///
/// Panics if `xs` contains duplicates (the basis is undefined).
pub fn lagrange_at(group: &SchnorrGroup, xs: &[u32], at: u64) -> Vec<Scalar> {
    let at = group.scalar_from_u64(at);
    xs.iter()
        .map(|&xj| {
            let xj_s = group.scalar_from_u64(u64::from(xj));
            let mut num = Scalar::ONE;
            let mut den = Scalar::ONE;
            for &xk in xs {
                if xk == xj {
                    continue;
                }
                let xk_s = group.scalar_from_u64(u64::from(xk));
                num = group.scalar_mul(&num, &group.scalar_sub(&at, &xk_s));
                den = group.scalar_mul(&den, &group.scalar_sub(&xj_s, &xk_s));
            }
            let den_inv = group
                .scalar_inv(&den)
                .expect("distinct abscissas give a nonzero denominator");
            group.scalar_mul(&num, &den_inv)
        })
        .collect()
}

/// The recombination weights `λⱼ = Lⱼ(0)` for the t-subset `xs`.
pub fn lagrange_at_zero(group: &SchnorrGroup, xs: &[u32]) -> Vec<Scalar> {
    lagrange_at(group, xs, 0)
}

/// Recombines scalar partials: `Σ λⱼ·pⱼ mod q` for the t-subset with
/// abscissas `xs`. For FEIP partials this *is* the function key scalar.
pub fn recombine_scalars(group: &SchnorrGroup, xs: &[u32], partials: &[Scalar]) -> Scalar {
    group.scalar_dot(&lagrange_at_zero(group, xs), partials)
}

/// Recombines element partials in the exponent: `Π eⱼ^{λⱼ}` for the
/// t-subset with abscissas `xs`. For FEBO partials `dⱼ = cmt^{uⱼ}` this
/// reconstructs `cmt^s`.
pub fn recombine_elements(group: &SchnorrGroup, xs: &[u32], partials: &[Element]) -> Element {
    let lam = lagrange_at_zero(group, xs);
    let mut acc: Option<Element> = None;
    for (l, e) in lam.iter().zip(partials) {
        let term = group.pow(e, l);
        acc = Some(match acc {
            Some(a) => group.mul(&a, &term),
            None => term,
        });
    }
    acc.expect("recombination requires at least one partial")
}

// ---------------------------------------------------------------------------
// Chaum–Pedersen DLEQ proofs for FEBO partials
// ---------------------------------------------------------------------------

/// A Chaum–Pedersen proof that `log_g F = log_cmt d` — i.e. that a FEBO
/// partial `d = cmt^u` was computed with the same share `u` that the
/// public commitment `F = g^u` binds the node to.
///
/// Fiat–Shamir is instantiated with a four-lane FNV-1a hash folded into
/// `Z_q` — a deterministic, dependency-free stand-in with the right
/// interface shape, **not** a cryptographic hash (the repo ships no
/// crypto-hash primitive; swapping one in changes only
/// `dleq_challenge`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DleqProof {
    /// First commitment `a = g^k`.
    pub a: Element,
    /// Second commitment `b = cmt^k`.
    pub b: Element,
    /// Response `z = k + c·u mod q`.
    pub z: Scalar,
}

/// Folds the proof transcript into a challenge scalar: four FNV-1a
/// lanes over the minimal little-endian encodings of the statement and
/// commitments, composed base-2⁶⁴ and reduced into `Z_q`.
fn dleq_challenge(
    group: &SchnorrGroup,
    f: &Element,
    cmt: &Element,
    d: &Element,
    a: &Element,
    b: &Element,
) -> Scalar {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [
        FNV_OFFSET,
        FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        FNV_OFFSET ^ 0xc2b2_ae3d_27d4_eb4f,
        FNV_OFFSET ^ 0x1656_67b1_9e37_79f9,
    ];
    let mut absorb = |bytes: &[u8]| {
        for &byte in bytes {
            for lane in &mut lanes {
                *lane ^= u64::from(byte);
                *lane = lane.wrapping_mul(FNV_PRIME);
            }
        }
    };
    absorb(b"cryptonn.dleq.v1");
    for e in [f, cmt, d, a, b] {
        let bytes = e.value().to_le_bytes_min();
        absorb(&[bytes.len() as u8]);
        absorb(&bytes);
    }
    // Compose the lanes base-2^64 into Z_q.
    let shift = {
        let half = group.scalar_from_u64(1 << 32);
        group.scalar_mul(&half, &half)
    };
    let mut c = Scalar::ZERO;
    for lane in lanes.iter().rev() {
        c = group.scalar_mul(&c, &shift);
        c = group.scalar_add(&c, &group.scalar_from_u64(*lane));
    }
    c
}

/// Produces a DLEQ proof for the partial `d = cmt^u` under commitment
/// `F = g^u`.
pub(crate) fn dleq_prove<R: Rng + ?Sized>(
    group: &SchnorrGroup,
    u: &Scalar,
    f: &Element,
    cmt: &Element,
    d: &Element,
    rng: &mut R,
) -> DleqProof {
    let k = group.random_scalar(rng);
    let a = group.exp(&k);
    let b = group.pow(cmt, &k);
    let c = dleq_challenge(group, f, cmt, d, &a, &b);
    let z = group.scalar_add(&k, &group.scalar_mul(&c, u));
    DleqProof { a, b, z }
}

/// Verifies a DLEQ proof: `g^z = a·F^c` and `cmt^z = b·d^c`.
pub fn dleq_verify(
    group: &SchnorrGroup,
    f: &Element,
    cmt: &Element,
    d: &Element,
    proof: &DleqProof,
) -> bool {
    let c = dleq_challenge(group, f, cmt, d, &proof.a, &proof.b);
    group.exp(&proof.z) == group.mul(&proof.a, &group.pow(f, &c))
        && group.pow(cmt, &proof.z) == group.mul(&proof.b, &group.pow(d, &c))
}

/// One node's FEBO partial: `d = cmt^{uⱼ}` plus the DLEQ proof binding
/// it to the node's public share commitment `Fⱼ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeboPartial {
    /// The partial `d = cmt^{uⱼ}`.
    pub d: Element,
    /// Proof that `d` uses the committed share.
    pub proof: DleqProof,
}

// ---------------------------------------------------------------------------
// The share-holder node
// ---------------------------------------------------------------------------

/// One share-holder of a threshold deployment.
///
/// A dealer replica: from the session's authority seed it derives the
/// exact master keys the single [`KeyAuthority`](crate::KeyAuthority)
/// would (same RNG stream, same draw order), Shamir-shares them with a
/// domain-separated second RNG stream, and keeps its own share. It
/// serves *partial* derivations only — it never assembles a full
/// function key, and it refuses full-key requests at the protocol
/// layer.
#[derive(Debug)]
pub struct ShareAuthority {
    group: SchnorrGroup,
    permitted: PermittedFunctions,
    spec: ShareSpec,
    febo_mpk: FeboPublicKey,
    /// This node's share `uⱼ` of the FEBO master scalar.
    febo_share: Scalar,
    /// Public share commitments `F_k = g^{u_k}` for every node `k`.
    febo_commitments: Vec<Element>,
    feip: Mutex<HashMap<usize, Arc<FeipShareInstance>>>,
    /// Replicates the single authority's master-key RNG evolution.
    master_rng: Mutex<StdRng>,
    /// Sharing-polynomial coefficients — identical on every replica.
    share_rng: Mutex<StdRng>,
    /// DLEQ nonces — per-node, never needs cross-node agreement.
    proof_rng: Mutex<StdRng>,
}

#[derive(Debug)]
struct FeipShareInstance {
    mpk: FeipPublicKey,
    /// This node's share `fᵢ(j)` of each master coordinate `sᵢ`.
    share: Vec<Scalar>,
}

impl ShareAuthority {
    /// Creates share-holder `spec.index()` of a threshold deployment
    /// keyed by `seed` — the same seed a single
    /// [`KeyAuthority::with_seed`](crate::KeyAuthority::with_seed)
    /// would use, so recombined keys are bit-identical to it.
    pub fn with_seed(
        group: SchnorrGroup,
        permitted: PermittedFunctions,
        seed: u64,
        spec: ShareSpec,
    ) -> Self {
        let mut master_rng = StdRng::seed_from_u64(seed);
        let mut share_rng = StdRng::seed_from_u64(seed ^ SHARE_RNG_SALT);
        let proof_rng = StdRng::seed_from_u64(
            seed ^ PROOF_RNG_SALT ^ u64::from(spec.index()).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        // Mirror KeyAuthority::from_rng: FEBO setup is the first draw.
        let (febo_mpk, febo_msk) = febo::setup(group.clone(), &mut master_rng);
        let shares = share_scalar(&group, febo_msk.scalar(), spec.setup(), &mut share_rng);
        let febo_commitments = shares.iter().map(|u| group.exp(u)).collect();
        let febo_share = shares[(spec.index() - 1) as usize];
        Self {
            group,
            permitted,
            spec,
            febo_mpk,
            febo_share,
            febo_commitments,
            feip: Mutex::new(HashMap::new()),
            master_rng: Mutex::new(master_rng),
            share_rng: Mutex::new(share_rng),
            proof_rng: Mutex::new(proof_rng),
        }
    }

    /// The group all schemes operate in.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// This node's place in the deployment.
    pub fn spec(&self) -> ShareSpec {
        self.spec
    }

    /// This node's 1-based share index.
    pub fn index(&self) -> u32 {
        self.spec.index()
    }

    /// The common FEBO public key (identical on every replica).
    pub fn febo_public_key(&self) -> FeboPublicKey {
        self.febo_mpk.clone()
    }

    /// The public share commitments `F_k = g^{u_k}`, one per node
    /// (identical on every replica).
    pub fn febo_commitments(&self) -> &[Element] {
        &self.febo_commitments
    }

    /// The FEIP public key for dimension `dim`, creating the shared
    /// instance on first use (identical on every replica that has seen
    /// the same request order).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero, as the single authority does.
    pub fn feip_public_key(&self, dim: usize) -> FeipPublicKey {
        self.feip_instance(dim).mpk.clone()
    }

    fn feip_instance(&self, dim: usize) -> Arc<FeipShareInstance> {
        let mut map = self.feip.lock();
        map.entry(dim)
            .or_insert_with(|| {
                // Master draw order matches KeyAuthority::feip_instance;
                // the sharing draws come from the separate stream so the
                // master keys are unaffected by the sharing.
                let mut master_rng = self.master_rng.lock();
                let (mpk, msk) = feip::setup(self.group.clone(), dim, &mut *master_rng);
                drop(master_rng);
                let mut share_rng = self.share_rng.lock();
                let j = (self.spec.index() - 1) as usize;
                let share = msk
                    .coordinates()
                    .iter()
                    .map(|s| share_scalar(&self.group, s, self.spec.setup(), &mut *share_rng)[j])
                    .collect();
                Arc::new(FeipShareInstance { mpk, share })
            })
            .clone()
    }

    /// Serves a batch of FEIP partial derivations: one partial
    /// `⟨f(j), y⟩ mod q` per weight vector.
    ///
    /// # Errors
    ///
    /// As [`KeyAuthority::derive_ip_key`](crate::KeyAuthority::derive_ip_key):
    /// [`FeError::FunctionNotPermitted`] and [`FeError::DimensionMismatch`].
    pub fn feip_partials(&self, dim: usize, ys: &[Vec<i64>]) -> Result<Vec<Scalar>, FeError> {
        if !self.permitted.dot_product {
            return Err(FeError::FunctionNotPermitted("dot-product"));
        }
        let instance = self.feip_instance(dim);
        ys.iter()
            .map(|y| {
                if y.len() != dim {
                    return Err(FeError::DimensionMismatch {
                        expected: dim,
                        got: y.len(),
                    });
                }
                let y_scalars: Vec<Scalar> =
                    y.iter().map(|&v| self.group.scalar_from_i64(v)).collect();
                Ok(self.group.scalar_dot(&y_scalars, &instance.share))
            })
            .collect()
    }

    /// Serves a batch of FEBO partial derivations: `dⱼ = cmt^{uⱼ}` plus
    /// a DLEQ proof per request.
    ///
    /// # Errors
    ///
    /// As [`KeyAuthority::derive_bo_key`](crate::KeyAuthority::derive_bo_key):
    /// [`FeError::FunctionNotPermitted`] and [`FeError::InvalidOperand`]
    /// for division by zero (refused up front, before any partial is
    /// computed).
    pub fn febo_partials(&self, reqs: &[FeboKeyRequest]) -> Result<Vec<FeboPartial>, FeError> {
        for req in reqs {
            if !self.permitted.allows_op(req.op) {
                return Err(FeError::FunctionNotPermitted(req.op.symbol()));
            }
            if req.op == crate::febo::BasicOp::Div && req.y == 0 {
                return Err(FeError::InvalidOperand("division by zero"));
            }
        }
        let f = &self.febo_commitments[(self.spec.index() - 1) as usize];
        Ok(reqs
            .iter()
            .map(|req| {
                let d = self.group.pow(&req.cmt, &self.febo_share);
                let mut rng = self.proof_rng.lock();
                let proof = dleq_prove(&self.group, &self.febo_share, f, &req.cmt, &d, &mut *rng);
                FeboPartial { d, proof }
            })
            .collect())
    }
}

/// Deals the full node set of a threshold deployment in-process: one
/// [`ShareAuthority`] per index, all replicating the same dealer.
pub fn deal_authorities(
    group: SchnorrGroup,
    permitted: PermittedFunctions,
    seed: u64,
    setup: ThresholdSetup,
) -> Vec<Arc<ShareAuthority>> {
    (1..=setup.n() as u32)
        .map(|index| {
            let spec = ShareSpec::new(setup, index).expect("index in range by construction");
            Arc::new(ShareAuthority::with_seed(
                group.clone(),
                permitted,
                seed,
                spec,
            ))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The combiner: ShareClient + ThresholdKeyService
// ---------------------------------------------------------------------------

/// How a share-holder call failed, from the combiner's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShareClientError {
    /// The node answered and refused — a policy decision
    /// (permitted-set, dimension, operand). Every honest replica
    /// refuses identically, so the refusal propagates to the caller.
    Refused(FeError),
    /// The node failed to answer — transport error, timeout, crash. The
    /// combiner evicts it and continues on the surviving quorum.
    Failed(FeError),
}

impl core::fmt::Display for ShareClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShareClientError::Refused(e) => write!(f, "share node refused: {e}"),
            ShareClientError::Failed(e) => write!(f, "share node failed: {e}"),
        }
    }
}

impl std::error::Error for ShareClientError {}

/// A connection to one share-holder, as the combiner sees it.
///
/// Implementations: [`LocalShareClient`] (in-process) and the
/// `cryptonn-net` TCP client. Methods take `&mut self` because wire
/// implementations own a connection.
pub trait ShareClient: Send {
    /// The node's 1-based share index.
    fn index(&self) -> u32;

    /// The node's FEIP public key for dimension `dim`.
    ///
    /// # Errors
    ///
    /// [`ShareClientError`] on refusal or transport failure.
    fn feip_public_key(&mut self, dim: usize) -> Result<FeipPublicKey, ShareClientError>;

    /// A batch of FEIP partials.
    ///
    /// # Errors
    ///
    /// [`ShareClientError`] on refusal or transport failure.
    fn feip_partials(
        &mut self,
        dim: usize,
        ys: &[Vec<i64>],
    ) -> Result<Vec<Scalar>, ShareClientError>;

    /// A batch of FEBO partials with DLEQ proofs.
    ///
    /// # Errors
    ///
    /// [`ShareClientError`] on refusal or transport failure.
    fn febo_partials(
        &mut self,
        reqs: &[FeboKeyRequest],
    ) -> Result<Vec<FeboPartial>, ShareClientError>;
}

/// An in-process [`ShareClient`] over a co-located [`ShareAuthority`] —
/// the threshold analogue of running against a local
/// [`KeyAuthority`](crate::KeyAuthority).
#[derive(Debug, Clone)]
pub struct LocalShareClient {
    node: Arc<ShareAuthority>,
}

impl LocalShareClient {
    /// Wraps a co-located share-holder.
    pub fn new(node: Arc<ShareAuthority>) -> Self {
        Self { node }
    }
}

impl ShareClient for LocalShareClient {
    fn index(&self) -> u32 {
        self.node.index()
    }

    fn feip_public_key(&mut self, dim: usize) -> Result<FeipPublicKey, ShareClientError> {
        Ok(self.node.feip_public_key(dim))
    }

    fn feip_partials(
        &mut self,
        dim: usize,
        ys: &[Vec<i64>],
    ) -> Result<Vec<Scalar>, ShareClientError> {
        self.node
            .feip_partials(dim, ys)
            .map_err(ShareClientError::Refused)
    }

    fn febo_partials(
        &mut self,
        reqs: &[FeboKeyRequest],
    ) -> Result<Vec<FeboPartial>, ShareClientError> {
        self.node
            .febo_partials(reqs)
            .map_err(ShareClientError::Refused)
    }
}

/// Counters for the combiner's fault handling — pinned by the
/// adversarial-share conformance tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThresholdStats {
    /// Nodes evicted after a transport failure or a detected corrupt
    /// partial. Eviction is permanent for the service's lifetime.
    pub nodes_evicted: u64,
    /// Partial-key batches discarded as invalid: a failed DLEQ proof, a
    /// malformed batch, or a FEIP share identified as off-polynomial.
    pub invalid_partials: u64,
    /// Retries against the surviving quorum: FEIP t-subsets that failed
    /// commitment validation, plus FEBO derivations that had to discard
    /// an invalid node before recombining.
    pub validation_retries: u64,
    /// Derivations that failed closed below quorum
    /// ([`FeError::InsufficientShares`]).
    pub quorum_failures: u64,
}

struct ThresholdState {
    /// Live nodes, ascending share index. Evicted nodes are removed.
    nodes: Vec<Box<dyn ShareClient>>,
    /// Consensus-checked FEIP public keys, one per dimension.
    mpks: HashMap<usize, FeipPublicKey>,
}

/// A [`KeyService`] that fans every request out to `n` share-holders
/// and Lagrange-recombines any validating t-subset of partials —
/// tolerating up to `n − t` node failures, evicting nodes that fail or
/// cheat, and failing closed below quorum.
///
/// Sits *under*
/// [`CachingKeyService`](crate::CachingKeyService) in the server stack,
/// so only the aggregated key is cached — partials never leave this
/// type.
///
/// Every request goes to **every** live node (not just a t-subset):
/// dealer replicas must see an identical request stream to keep their
/// master-RNG evolution aligned, and the surplus partials are what the
/// corrupt-share detection and failover feed on.
pub struct ThresholdKeyService {
    group: SchnorrGroup,
    setup: ThresholdSetup,
    febo_mpk: FeboPublicKey,
    febo_commitments: Vec<Element>,
    state: Mutex<ThresholdState>,
    stats: Mutex<ThresholdStats>,
}

impl ThresholdKeyService {
    /// Builds the combiner over a set of share-holder connections.
    ///
    /// Anchors the public share commitments before accepting them: the
    /// base subset must recombine to the FEBO public key
    /// (`Π Fⱼ^{λⱼ} = h`), and every further commitment must lie on the
    /// same degree-`(t−1)` polynomial — so a tampered commitment vector
    /// is rejected at construction, not at first use.
    ///
    /// # Errors
    ///
    /// [`FeError::Protocol`] on malformed inputs (wrong commitment
    /// count, duplicate or out-of-range node indices, commitments that
    /// do not anchor to the public key).
    pub fn new(
        group: SchnorrGroup,
        setup: ThresholdSetup,
        febo_mpk: FeboPublicKey,
        febo_commitments: Vec<Element>,
        nodes: Vec<Box<dyn ShareClient>>,
    ) -> Result<Self, FeError> {
        if febo_commitments.len() != setup.n() {
            return Err(FeError::Protocol(format!(
                "expected {} share commitments, got {}",
                setup.n(),
                febo_commitments.len()
            )));
        }
        let mut nodes = nodes;
        nodes.sort_by_key(|a| a.index());
        let mut seen = std::collections::HashSet::new();
        for node in &nodes {
            let index = node.index();
            if index == 0 || index as usize > setup.n() || !seen.insert(index) {
                return Err(FeError::Protocol(format!(
                    "share index {index} duplicate or out of range for n = {}",
                    setup.n()
                )));
            }
        }
        // Anchor the commitment vector to the common public key.
        let base: Vec<u32> = (1..=setup.t() as u32).collect();
        let anchored = recombine_elements(&group, &base, &febo_commitments[..setup.t()]);
        if anchored != *febo_mpk.element() {
            return Err(FeError::Protocol(
                "share commitments do not anchor to the FEBO public key".into(),
            ));
        }
        for u in setup.t()..setup.n() {
            let basis = lagrange_at(&group, &base, (u + 1) as u64);
            let mut expected: Option<Element> = None;
            for (l, f) in basis.iter().zip(&febo_commitments[..setup.t()]) {
                let term = group.pow(f, l);
                expected = Some(match expected {
                    Some(a) => group.mul(&a, &term),
                    None => term,
                });
            }
            if expected != Some(febo_commitments[u]) {
                return Err(FeError::Protocol(format!(
                    "share commitment {} is off the quorum polynomial",
                    u + 1
                )));
            }
        }
        Ok(Self {
            group,
            setup,
            febo_mpk,
            febo_commitments,
            state: Mutex::new(ThresholdState {
                nodes,
                mpks: HashMap::new(),
            }),
            stats: Mutex::new(ThresholdStats::default()),
        })
    }

    /// The `(n, t)` shape of the deployment.
    pub fn setup(&self) -> ThresholdSetup {
        self.setup
    }

    /// Number of nodes still live (not evicted).
    pub fn live_nodes(&self) -> usize {
        self.state.lock().nodes.len()
    }

    /// A snapshot of the fault-handling counters.
    pub fn stats(&self) -> ThresholdStats {
        *self.stats.lock()
    }

    /// Fans one call out to every live node. Nodes that fail transport
    /// are evicted; a refusal is collected and propagated only after
    /// every node has seen the request (so surviving replicas stay in
    /// RNG lockstep). Fails closed below quorum.
    fn fan_out<T>(
        &self,
        state: &mut ThresholdState,
        mut call: impl FnMut(&mut Box<dyn ShareClient>) -> Result<T, ShareClientError>,
    ) -> Result<Vec<(u32, T)>, FeError> {
        let mut answers = Vec::new();
        let mut refusal: Option<FeError> = None;
        let mut survivors = Vec::new();
        for mut node in state.nodes.drain(..) {
            let index = node.index();
            match call(&mut node) {
                Ok(v) => {
                    answers.push((index, v));
                    survivors.push(node);
                }
                Err(ShareClientError::Refused(e)) => {
                    refusal.get_or_insert(e);
                    survivors.push(node);
                }
                Err(ShareClientError::Failed(_)) => {
                    self.stats.lock().nodes_evicted += 1;
                }
            }
        }
        state.nodes = survivors;
        if let Some(e) = refusal {
            return Err(e);
        }
        if answers.len() < self.setup.t() {
            self.stats.lock().quorum_failures += 1;
            return Err(FeError::InsufficientShares {
                have: answers.len(),
                need: self.setup.t(),
            });
        }
        Ok(answers)
    }

    /// The consensus-checked FEIP public key for `dim`, fetched from
    /// every live node on first use. Replicas derive it from the same
    /// seed, so any disagreement marks a desynced or corrupt node.
    fn feip_mpk(&self, state: &mut ThresholdState, dim: usize) -> Result<FeipPublicKey, FeError> {
        if let Some(mpk) = state.mpks.get(&dim) {
            return Ok(mpk.clone());
        }
        let answers = self.fan_out(state, |c| c.feip_public_key(dim))?;
        let (_, first) = &answers[0];
        if answers.iter().any(|(_, mpk)| mpk != first) {
            return Err(FeError::Protocol(format!(
                "share nodes disagree on the dimension-{dim} FEIP public key"
            )));
        }
        state.mpks.insert(dim, first.clone());
        Ok(first.clone())
    }

    /// Evicts `index` from the live set (corrupt partial detected).
    fn evict(&self, state: &mut ThresholdState, index: u32) {
        state.nodes.retain(|n| n.index() != index);
        let mut stats = self.stats.lock();
        stats.nodes_evicted += 1;
        stats.invalid_partials += 1;
    }
}

/// Lexicographic k-subsets of `0..m` (positions, not abscissas).
fn k_subsets(m: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..k).collect();
    if k == 0 || k > m {
        return if k == 0 { vec![vec![]] } else { out };
    }
    loop {
        out.push(cur.clone());
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if cur[i] != i + m - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        cur[i] += 1;
        for j in i + 1..k {
            cur[j] = cur[j - 1] + 1;
        }
    }
}

impl KeyService for ThresholdKeyService {
    fn feip_public_key(&self, dim: usize) -> Result<FeipPublicKey, FeError> {
        let mut state = self.state.lock();
        self.feip_mpk(&mut state, dim)
    }

    fn febo_public_key(&self) -> Result<FeboPublicKey, FeError> {
        Ok(self.febo_mpk.clone())
    }

    fn derive_ip_keys(&self, dim: usize, ys: &[Vec<i64>]) -> Result<Vec<FeipFunctionKey>, FeError> {
        let mut state = self.state.lock();
        let mpk = self.feip_mpk(&mut state, dim)?;
        let mut answers = self.fan_out(&mut state, |c| c.feip_partials(dim, ys))?;
        // A malformed batch length is a corrupt answer, not a refusal.
        answers.retain(|(index, partials)| {
            let ok = partials.len() == ys.len();
            if !ok {
                self.evict(&mut state, *index);
            }
            ok
        });
        let t = self.setup.t();
        if answers.len() < t {
            self.stats.lock().quorum_failures += 1;
            return Err(FeError::InsufficientShares {
                have: answers.len(),
                need: t,
            });
        }
        // The public check values: g^{sk_k} must equal Π hᵢ^{y_k,i}.
        let rhs: Vec<Element> = ys
            .iter()
            .map(|y| self.group.multi_scalar_pow(mpk.coordinates(), y))
            .collect();
        let mut subsets_tried = 0;
        for subset in k_subsets(answers.len(), t) {
            let xs: Vec<u32> = subset.iter().map(|&i| answers[i].0).collect();
            let lam = lagrange_at_zero(&self.group, &xs);
            let keys: Vec<Scalar> = (0..ys.len())
                .map(|k| {
                    let partials: Vec<Scalar> = subset.iter().map(|&i| answers[i].1[k]).collect();
                    self.group.scalar_dot(&lam, &partials)
                })
                .collect();
            subsets_tried += 1;
            if keys
                .iter()
                .zip(&rhs)
                .all(|(sk, check)| self.group.exp(sk) == *check)
            {
                // The quorum validates. Audit the surplus responders
                // against the quorum's polynomial and evict any that
                // are off it — the corrupt-share identification.
                for (pos, (index, partials)) in answers.iter().enumerate() {
                    if subset.contains(&pos) {
                        continue;
                    }
                    let basis = lagrange_at(&self.group, &xs, u64::from(*index));
                    let consistent = (0..ys.len()).all(|k| {
                        let quorum: Vec<Scalar> = subset.iter().map(|&i| answers[i].1[k]).collect();
                        self.group.scalar_dot(&basis, &quorum) == partials[k]
                    });
                    if !consistent {
                        self.evict(&mut state, *index);
                    }
                }
                return Ok(keys.into_iter().map(FeipFunctionKey::from_scalar).collect());
            }
            self.stats.lock().validation_retries += 1;
        }
        Err(FeError::SharesTampered { subsets_tried })
    }

    fn derive_bo_keys(&self, reqs: &[FeboKeyRequest]) -> Result<Vec<FeboFunctionKey>, FeError> {
        let mut state = self.state.lock();
        let answers = self.fan_out(&mut state, |c| c.febo_partials(reqs))?;
        // Verify every node's DLEQ proofs; discard cheaters up front.
        let mut valid: Vec<(u32, Vec<FeboPartial>)> = Vec::new();
        for (index, partials) in answers {
            let f = &self.febo_commitments[(index - 1) as usize];
            let sound = partials.len() == reqs.len()
                && partials
                    .iter()
                    .zip(reqs)
                    .all(|(p, req)| dleq_verify(&self.group, f, &req.cmt, &p.d, &p.proof));
            if sound {
                valid.push((index, partials));
            } else {
                self.evict(&mut state, index);
                self.stats.lock().validation_retries += 1;
            }
        }
        let t = self.setup.t();
        if valid.len() < t {
            self.stats.lock().quorum_failures += 1;
            return Err(FeError::InsufficientShares {
                have: valid.len(),
                need: t,
            });
        }
        let xs: Vec<u32> = valid[..t].iter().map(|(i, _)| *i).collect();
        let lam = lagrange_at_zero(&self.group, &xs);
        reqs.iter()
            .enumerate()
            .map(|(k, req)| {
                let mut cmt_s: Option<Element> = None;
                for (l, (_, partials)) in lam.iter().zip(&valid[..t]) {
                    let term = self.group.pow(&partials[k].d, l);
                    cmt_s = Some(match cmt_s {
                        Some(a) => self.group.mul(&a, &term),
                        None => term,
                    });
                }
                let cmt_s = cmt_s.expect("quorum is nonempty");
                febo::finish_key(&self.group, cmt_s, req.op, req.y)
            })
            .collect()
    }
}

/// Deals a full in-process threshold deployment and wires a combiner
/// over it — the threshold analogue of
/// [`KeyAuthority::with_seed`](crate::KeyAuthority::with_seed).
pub fn local_threshold_service(
    group: SchnorrGroup,
    permitted: PermittedFunctions,
    seed: u64,
    setup: ThresholdSetup,
) -> ThresholdKeyService {
    let authorities = deal_authorities(group.clone(), permitted, seed, setup);
    let febo_mpk = authorities[0].febo_public_key();
    let febo_commitments = authorities[0].febo_commitments().to_vec();
    let nodes = authorities
        .into_iter()
        .map(|a| Box::new(LocalShareClient::new(a)) as Box<dyn ShareClient>)
        .collect();
    ThresholdKeyService::new(group, setup, febo_mpk, febo_commitments, nodes)
        .expect("a freshly dealt deployment always anchors")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::febo::BasicOp;
    use crate::KeyAuthority;
    use cryptonn_group::SecurityLevel;

    fn group() -> SchnorrGroup {
        SchnorrGroup::precomputed(SecurityLevel::Bits64)
    }

    #[test]
    fn setup_validation() {
        assert!(ThresholdSetup::new(3, 2).is_ok());
        assert!(ThresholdSetup::new(0, 0).is_err());
        assert!(ThresholdSetup::new(2, 3).is_err());
        assert!(ShareSpec::new(ThresholdSetup::new(3, 2).unwrap(), 4).is_err());
        assert!(ShareSpec::new(ThresholdSetup::new(3, 2).unwrap(), 0).is_err());
    }

    #[test]
    fn shamir_recombines_from_every_t_subset() {
        let group = group();
        let mut rng = StdRng::seed_from_u64(7);
        let secret = group.random_scalar(&mut rng);
        let setup = ThresholdSetup::new(5, 3).unwrap();
        let shares = share_scalar(&group, &secret, setup, &mut rng);
        for subset in k_subsets(5, 3) {
            let xs: Vec<u32> = subset.iter().map(|&i| (i + 1) as u32).collect();
            let picked: Vec<Scalar> = subset.iter().map(|&i| shares[i]).collect();
            assert_eq!(recombine_scalars(&group, &xs, &picked), secret);
        }
        // Two shares of a 3-quorum do NOT recombine to the secret.
        assert_ne!(recombine_scalars(&group, &[1, 2], &shares[..2]), secret);
    }

    #[test]
    fn element_recombination_matches_exponent_recombination() {
        let group = group();
        let mut rng = StdRng::seed_from_u64(8);
        let secret = group.random_scalar(&mut rng);
        let base = group.exp(&group.random_scalar(&mut rng));
        let setup = ThresholdSetup::new(4, 2).unwrap();
        let shares = share_scalar(&group, &secret, setup, &mut rng);
        let partials: Vec<Element> = shares.iter().map(|u| group.pow(&base, u)).collect();
        let expected = group.pow(&base, &secret);
        assert_eq!(
            recombine_elements(&group, &[2, 4], &[partials[1], partials[3]]),
            expected
        );
    }

    #[test]
    fn dleq_roundtrip_and_tamper() {
        let group = group();
        let mut rng = StdRng::seed_from_u64(9);
        let u = group.random_scalar(&mut rng);
        let f = group.exp(&u);
        let cmt = group.exp(&group.random_scalar(&mut rng));
        let d = group.pow(&cmt, &u);
        let proof = dleq_prove(&group, &u, &f, &cmt, &d, &mut rng);
        assert!(dleq_verify(&group, &f, &cmt, &d, &proof));
        // A tampered partial fails against the same proof.
        let bad = group.mul(&d, &group.generator());
        assert!(!dleq_verify(&group, &f, &cmt, &bad, &proof));
    }

    #[test]
    fn k_subsets_enumerates_lexicographically() {
        assert_eq!(
            k_subsets(4, 2),
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        assert_eq!(k_subsets(3, 3), vec![vec![0, 1, 2]]);
        assert_eq!(k_subsets(2, 3), Vec::<Vec<usize>>::new());
    }

    #[test]
    fn threshold_service_matches_single_authority() {
        let group = group();
        let seed = 4242;
        let single = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), seed);
        let setup = ThresholdSetup::new(3, 2).unwrap();
        let service =
            local_threshold_service(group.clone(), PermittedFunctions::all(), seed, setup);

        assert_eq!(
            KeyService::feip_public_key(&service, 4).unwrap(),
            KeyAuthority::feip_public_key(&single, 4)
        );
        assert_eq!(
            KeyService::febo_public_key(&service).unwrap(),
            single.febo_public_key()
        );
        let ys = vec![vec![3, -1, 2, 7], vec![0, 5, -4, 1]];
        assert_eq!(
            service.derive_ip_keys(4, &ys).unwrap(),
            KeyService::derive_ip_keys(&single, 4, &ys).unwrap()
        );

        let mut rng = StdRng::seed_from_u64(10);
        let mpk = single.febo_public_key();
        let ct = febo::encrypt(&mpk, 30, &mut rng);
        let req = FeboKeyRequest {
            cmt: *ct.commitment(),
            op: BasicOp::Sub,
            y: 12,
        };
        assert_eq!(
            service.derive_bo_keys(&[req]).unwrap(),
            KeyService::derive_bo_keys(&single, &[req]).unwrap()
        );
        assert_eq!(service.stats(), ThresholdStats::default());
    }

    #[test]
    fn single_node_setup_degenerates_to_single_authority() {
        let group = group();
        let seed = 17;
        let single = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), seed);
        let service = local_threshold_service(
            group.clone(),
            PermittedFunctions::all(),
            seed,
            ThresholdSetup::single(),
        );
        assert_eq!(
            service.derive_ip_key(3, &[1, -2, 3]).unwrap(),
            KeyAuthority::derive_ip_key(&single, 3, &[1, -2, 3]).unwrap()
        );
    }
}
