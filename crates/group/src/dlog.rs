//! Discrete-logarithm recovery in a known small range.
//!
//! FEIP/FEBO decryption ends with a value `g^z` where `z` is the function
//! output (an inner product or an element-wise result) known to lie in a
//! bounded range. The paper cites Shanks' baby-step giant-step algorithm
//! [26] for recovering `z`; this module implements it, with a reusable
//! precomputed table ([`DlogTable`]) because in Algorithm 1 the server
//! performs thousands of recoveries against the same generator.
//!
//! BSGS is a time–memory trade-off: with `m` baby steps a value `|z|`
//! costs `⌈|z|/m⌉` giant steps. `m = ⌈√(2B+1)⌉` balances build and
//! search for a *single* solve, but one table serves thousands of solves
//! (12 544 per training step for the gradient `δ·Xᵀ` at 784-16), so the
//! table is sized toward `range/256` instead — no solve walks more than
//! 128 giant rounds per direction — within a fixed budget of 2¹⁶ baby
//! steps; above the budget it falls back to `√range` (DESIGN.md
//! §13.3). The geometry is a pure function of
//! the bound, so every decrypted value is the same exact integer
//! whatever `m` is.
//!
//! The giant-step loop is the single hottest multiply chain of the whole
//! decrypt path (DESIGN.md §13.3), so the table lives entirely in the
//! **Montgomery domain**: baby keys are truncated Montgomery residues,
//! the giant factors `g^{±m}` are stored in Montgomery form, and every
//! step costs exactly one `mont_mul` — no per-call exponentiation, no
//! to/from-Montgomery conversions inside the loop.
//!
//! The signed range is searched **outward from zero**, not shifted to
//! `[0, 2B]`: two gammas per instance walk the positive and negative
//! giant strides simultaneously, so an instance whose answer has
//! magnitude `|z|` settles after `⌈|z|/m⌉` rounds instead of the
//! `(z+B)/m` a range-shifted walk pays. CryptoNN's decrypted values are
//! inner products of weight rows against inputs — concentrated near
//! zero, orders of magnitude below the worst-case bound the table must
//! advertise — which makes the centered walk the difference between
//! ~`B/m` and a handful of giant steps per cell (DESIGN.md §13.3). The
//! worst case (`|z| = B`) multiplies exactly as much as the shifted
//! walk did. [`DlogTable::solve_batch`] packs two instances (four
//! gammas) per 4-lane kernel call ([`Montgomery::mont_mul_lanes`]),
//! refilling finished instances from the pending queue so no lane
//! idles.
//!
//! [`Montgomery::mont_mul_lanes`]: cryptonn_bigint::Montgomery::mont_mul_lanes

use cryptonn_bigint::lanes::LANES;
use cryptonn_bigint::{Montgomery, U256};

use crate::error::GroupError;
use crate::group::{Element, SchnorrGroup};

/// Vacant-slot sentinel for [`FlatBabyMap`]; baby indices are `< m ≤
/// 2^33`, so `u64::MAX` can never be a real entry.
const EMPTY: u64 = u64::MAX;

/// Baby-step budget: a table grows toward `range/256` only while it
/// stays within this many entries (2 MiB of [`FlatBabyMap`] slots).
const BABY_BUDGET: u64 = 1 << 16;

/// Giant rounds per direction a table sized within the budget walks at
/// most: the `256` in `range/256`.
const GIANT_SPAN: u128 = 256;

/// The baby-step count `m` of every table at signed bound `B`:
/// `max(⌈√(2B+1)⌉, min(⌈(2B+1)/256⌉, 2¹⁶))`.
///
/// `√range` minimises the cost of one solve, but a table is built once
/// and solved against thousands of times, so it is grown toward
/// `range/256` — no solve walks more than 128 giant rounds per direction
/// — as long as that fits the budget. Above the budget `√range` already
/// exceeds it and stays. One deterministic rule, shared by
/// [`DlogTable::new`] and the cache loader, so a table persisted under
/// any other geometry is rejected and rebuilt.
pub(crate) fn baby_steps(bound: u64) -> u64 {
    let range = 2 * u128::from(bound) + 1;
    let root = range.isqrt();
    let sqrt_ceil = if root * root == range { root } else { root + 1 };
    let toward_span = range.div_ceil(GIANT_SPAN).min(u128::from(BABY_BUDGET));
    // `range ≤ 2^65`, so the root fits in 33 bits.
    sqrt_ceil.max(toward_span) as u64
}

/// An open-addressing flat hash table `truncated key → baby index`,
/// replacing the seed's `HashMap`: power-of-two capacity at ≤ ⅔ load,
/// Fibonacci hashing, linear probing. Lookups sit on the giant-step hot
/// loop, and flat parallel arrays probe one cache line where the std
/// map chases buckets — and pack into the on-disk table cache as an
/// occupancy bitmap plus the occupied slots (see [`PackedSlots`]).
///
/// Keys and indices live in *separate* arrays rather than one
/// `Vec<(u64, u64)>`, for two reasons. Giant-step probes are almost
/// all misses, and a miss only inspects the index array — split, it
/// packs twice as many slots per cache line as interleaved pairs
/// would. Up to 2¹³ slots — bounds through 2¹⁹ after the table cache's
/// power-of-two rounding — each array stays under glibc's default
/// 128 KiB mmap threshold, so warm-start table loads reuse malloc arena
/// pages instead of paying a fresh `mmap` plus first-touch page faults
/// (measured at 30–60 µs per load). Larger tables cross it and pay
/// those faults on each load: the 784-wide serving model's 2²⁰ table
/// has 2¹⁴ slots, and training's 2²³ gradient table 2¹⁷ slots, 1 MiB
/// per array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlatBabyMap {
    /// Truncated keys; meaningful only where `idx[i] != EMPTY`.
    keys: Vec<u64>,
    /// Baby indices; `EMPTY` marks a vacant slot.
    idx: Vec<u64>,
    /// `64 - log2(capacity)`, for Fibonacci hashing.
    shift: u32,
}

impl FlatBabyMap {
    /// An empty map sized for `entries` insertions at ≤ ⅔ load.
    ///
    /// The sizing target is 1.5× the entry count rounded up to a power
    /// of two, not 2×: the table cache rounds bounds to powers of two,
    /// and every term of the baby-step rule (`⌈√(2B+1)⌉`,
    /// `⌈(2B+1)/256⌉`, the 2¹⁶ budget) then lands *at or just above* a
    /// power of two — a 2× target would round the capacity up twice (to
    /// 0.25 load), doubling both the map's cache footprint on the
    /// giant-step hot loop and the persisted cache file's bitmap.
    fn with_capacity(entries: u64) -> Self {
        let cap = (entries.max(1) as usize)
            .saturating_mul(3)
            .div_ceil(2)
            .next_power_of_two();
        Self {
            keys: vec![0; cap],
            idx: vec![EMPTY; cap],
            shift: 64 - cap.trailing_zeros(),
        }
    }

    /// Fibonacci hash of `key` to a slot index. The multiplier is
    /// `⌊2^64/φ⌋`; the high product bits mix every key bit, which a
    /// low-bits mask would not.
    #[inline]
    fn index(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Inserts `key → j` unless `key` is already present (first entry
    /// wins, matching the seed's semantics); returns whether it was
    /// inserted.
    fn insert_first_wins(&mut self, key: u64, j: u64) -> bool {
        debug_assert_ne!(j, EMPTY);
        let mask = self.idx.len() - 1;
        let mut i = self.index(key);
        loop {
            if self.idx[i] == EMPTY {
                self.keys[i] = key;
                self.idx[i] = j;
                return true;
            }
            if self.keys[i] == key {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// The baby index stored under `key`, if any.
    #[inline]
    fn get(&self, key: u64) -> Option<u64> {
        let mask = self.idx.len() - 1;
        let mut i = self.index(key);
        loop {
            let j = self.idx[i];
            if j == EMPTY {
                return None;
            }
            if self.keys[i] == key {
                return Some(j);
            }
            i = (i + 1) & mask;
        }
    }

    /// Overwrites the entry stored under an existing `key` — test
    /// fixture hook for fabricating truncation collisions.
    #[cfg(test)]
    fn set(&mut self, key: u64, j: u64) {
        let mask = self.idx.len() - 1;
        let mut i = self.index(key);
        loop {
            assert_ne!(self.idx[i], EMPTY, "set() requires an existing key");
            if self.keys[i] == key {
                self.idx[i] = j;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Packs the slot arrays for the on-disk table cache.
    fn packed(&self) -> PackedSlots {
        let mut bitmap = vec![0u64; self.idx.len().div_ceil(64)];
        let mut occupied = Vec::with_capacity(self.idx.len());
        for (s, (&key, &j)) in self.keys.iter().zip(&self.idx).enumerate() {
            if j != EMPTY {
                bitmap[s / 64] |= 1 << (s % 64);
                occupied.push((key, j));
            }
        }
        PackedSlots {
            cap: self.idx.len() as u64,
            bitmap,
            occupied,
        }
    }

    /// Rebuilds a map from its packed cache form without re-hashing
    /// anything: the bitmap says which slot each occupied pair scatters
    /// back into, in order. Returns `None` on any shape mismatch —
    /// capacity not a power of two, bitmap the wrong length, a bit set
    /// past the capacity, a popcount that disagrees with the pair
    /// count, or a pair carrying the vacancy sentinel — which the cache
    /// layer treats as corruption.
    fn from_packed(packed: PackedSlots) -> Option<Self> {
        let cap = usize::try_from(packed.cap).ok()?;
        if cap < 2 || !cap.is_power_of_two() || packed.bitmap.len() != cap.div_ceil(64) {
            return None;
        }
        // A set bit at or above `cap` would scatter out of range.
        if cap % 64 != 0 && packed.bitmap.last()? >> (cap % 64) != 0 {
            return None;
        }
        let set: usize = packed.bitmap.iter().map(|w| w.count_ones() as usize).sum();
        if set != packed.occupied.len() {
            return None;
        }
        let mut keys = vec![0; cap];
        let mut idx = vec![EMPTY; cap];
        let mut next = packed.occupied.iter();
        for (w, &word) in packed.bitmap.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                let &(key, j) = next.next()?;
                if j == EMPTY {
                    return None;
                }
                keys[s] = key;
                idx[s] = j;
                bits &= bits - 1;
            }
        }
        Some(Self {
            keys,
            idx,
            shift: 64 - cap.trailing_zeros(),
        })
    }
}

/// [`FlatBabyMap`]'s on-disk form: an occupancy bitmap plus the
/// occupied `(key, index)` pairs in slot order. The map is vacant at
/// ≥ ⅓ of its slots by construction, and persisting a vacant slot as
/// one bit instead of 16 bytes nearly halves the cache file — which
/// the warm start pays for directly in read, checksum, and parse
/// traffic. Unpacking stays re-hash-free: a sequential scatter guided
/// by the bitmap, not `m` fresh inserts.
pub(crate) struct PackedSlots {
    /// Total slot count (a power of two ≥ 2).
    pub(crate) cap: u64,
    /// One bit per slot: bit `s % 64` of word `s / 64` is set iff slot
    /// `s` is occupied.
    pub(crate) bitmap: Vec<u64>,
    /// The occupied slots' `(key, index)` pairs, in slot order.
    pub(crate) occupied: Vec<(u64, u64)>,
}

/// A precomputed baby-step table for solving `g^z = target` with
/// `z ∈ [-bound, bound]` (signed) or `z ∈ [0, bound]` (unsigned).
///
/// Construction costs `m` group operations and `m` entries of memory,
/// where `m` is `⌈(2B+1)/256⌉` capped at 2¹⁶ and never below
/// `⌈√(2B+1)⌉`; each [`solve`](DlogTable::solve) of a value `z` costs
/// `⌈|z|/m⌉` two-multiply rounds — at most 128 while the table fits the
/// budget (`B ≤ 2²³`), `O(√B)` above it.
///
/// The baby-step map is keyed on the *low 64 bits of the Montgomery
/// residue* of each element through a flat open-addressed map, not on full 256-bit
/// elements through SipHash: lookups sit on the giant-step hot loop, and
/// the truncated key plus a final fixed-base verification is both faster
/// and exact. Truncation collisions are kept in a (virtually always
/// empty) side list, so no representable solution can be missed.
///
/// ```
/// use cryptonn_group::{DlogTable, SchnorrGroup, SecurityLevel};
///
/// let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
/// let table = DlogTable::new(&group, 1_000);
/// let target = group.exp(&group.scalar_from_i64(-517));
/// assert_eq!(table.solve(&group, &target), Ok(-517));
/// ```
#[derive(Debug, Clone)]
pub struct DlogTable {
    /// Baby steps: `low64(mont(g^j)) → j` for `j ∈ [0, m)`, first entry
    /// wins.
    baby: FlatBabyMap,
    /// Baby steps whose truncated key collided with an earlier entry.
    collisions: Vec<(u64, u64)>,
    /// `g^{m}` in Montgomery form — the negative-direction giant factor
    /// (multiplying by it moves the implied giant index `i` down by 1).
    up_mont: U256,
    /// `g^{-m}` in Montgomery form — the positive-direction giant
    /// factor.
    giant_mont: U256,
    /// Baby-step count `m`, from the bound by `baby_steps`:
    /// `max(⌈√(2B+1)⌉, min(⌈(2B+1)/256⌉, 2¹⁶))`.
    m: u64,
    /// The signed bound `B`.
    bound: u64,
}

impl DlogTable {
    /// Builds a table able to recover exponents in `[-bound, bound]`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn new(group: &SchnorrGroup, bound: u64) -> Self {
        Self::with_baby_steps(group, bound, baby_steps(bound))
    }

    /// [`DlogTable::new`] at an explicit baby-step count `m` — every
    /// production table takes `baby_steps(bound)`; tests build other
    /// geometries to check that the cache loader rejects them.
    pub(crate) fn with_baby_steps(group: &SchnorrGroup, bound: u64, m: u64) -> Self {
        assert!(bound > 0, "dlog bound must be positive");
        let ctx = group.mont_p();
        let g_mont = ctx.to_mont(group.generator().value());
        // acc = mont(g^j); one mont_mul per baby step. The truncated
        // keys are collected in insertion order — this chain is the
        // expensive part of construction, and it is exactly what the
        // on-disk cache persists.
        let mut keys = Vec::with_capacity(m as usize);
        let mut acc = ctx.one();
        for _ in 0..m {
            keys.push(acc.low_u64());
            acc = ctx.mont_mul(&acc, &g_mont);
        }
        let (baby, collisions) = Self::build_baby(&keys);
        // g^{-m} = (g^m)^{-1}; acc currently holds mont(g^m), which is
        // itself the negative-direction factor.
        let up_mont = acc;
        let giant = group.inv(&Element(ctx.from_mont(&acc)));
        let giant_mont = ctx.to_mont(giant.value());
        Self {
            baby,
            collisions,
            up_mont,
            giant_mont,
            m,
            bound,
        }
    }

    /// The signed bound `B` this table covers.
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Checks whether baby index `j` at signed giant index `i` solves
    /// the instance (`z = i·m + j`), verifying `mont(g^j) = gamma` in
    /// full (the map key is only 64 bits of the residue).
    fn check_candidate(
        &self,
        group: &SchnorrGroup,
        ctx: &Montgomery,
        gamma: &U256,
        i: i64,
        j: u64,
    ) -> Option<i64> {
        let z = i * self.m as i64 + j as i64;
        if z.unsigned_abs() > self.bound {
            return None;
        }
        let verified = group
            .generator_table()
            .mul_pow_mont(ctx, ctx.one(), &U256::from_u64(j))
            == *gamma;
        verified.then_some(z)
    }

    /// Full lookup of one gamma at signed giant index `i`:
    /// truncated-key probe, verification, and the collision side list.
    fn lookup(&self, group: &SchnorrGroup, ctx: &Montgomery, gamma: &U256, i: i64) -> Option<i64> {
        let key = gamma.low_u64();
        let j = self.baby.get(key)?;
        if let Some(z) = self.check_candidate(group, ctx, gamma, i, j) {
            return Some(z);
        }
        // A truncated-key hit that failed verification: consult the
        // collision side list before moving on.
        for &(ckey, cj) in &self.collisions {
            if ckey == key {
                if let Some(z) = self.check_candidate(group, ctx, gamma, i, cj) {
                    return Some(z);
                }
            }
        }
        None
    }

    /// Last round of the outward walk: both directions have probed
    /// every giant index that can still land in `[-B, B]` once `r`
    /// passes this.
    fn max_round(&self) -> u64 {
        self.bound / self.m
    }

    /// Recovers `z ∈ [-B, B]` with `g^z = target`.
    ///
    /// Walks outward from zero: round `r` probes giant indices `r` and
    /// `-(r+1)`, so the cost is `⌈|z|/m⌉` rounds of two `mont_mul`s
    /// rather than `(z+B)/m` single-multiply steps — far cheaper for
    /// the near-zero values CryptoNN actually decrypts, identical in
    /// the worst case.
    ///
    /// # Errors
    ///
    /// Returns [`GroupError::DlogOutOfRange`] if no such `z` exists in the
    /// range — for CryptoNN this means a plaintext value exceeded the
    /// advertised range and the caller's bound must be increased.
    pub fn solve(&self, group: &SchnorrGroup, target: &Element) -> Result<i64, GroupError> {
        let ctx = group.mont_p();
        let t_mont = ctx.to_mont(target.value());
        // `pos` holds gamma at giant index `r`; `neg` at `-(r+1)`.
        let mut pos = t_mont;
        let mut neg = ctx.mont_mul(&t_mont, &self.up_mont);
        let max_round = self.max_round();
        for r in 0..=max_round {
            if let Some(z) = self.lookup(group, ctx, &pos, r as i64) {
                return Ok(z);
            }
            if let Some(z) = self.lookup(group, ctx, &neg, -(r as i64) - 1) {
                return Ok(z);
            }
            if r < max_round {
                pos = ctx.mont_mul(&pos, &self.giant_mont);
                neg = ctx.mont_mul(&neg, &self.up_mont);
            }
        }
        Err(GroupError::DlogOutOfRange { bound: self.bound })
    }

    /// Recovers a whole batch, packing two outward-walking instances —
    /// four gammas, one positive and one negative stride each — per
    /// 4-lane Montgomery call. Finished instances immediately refill
    /// from the pending queue, so the kernel always advances four
    /// useful gammas; the per-instance result order matches `targets`.
    ///
    /// # Errors
    ///
    /// Per target, as [`solve`](DlogTable::solve).
    pub fn solve_batch(
        &self,
        group: &SchnorrGroup,
        targets: &[Element],
    ) -> Vec<Result<i64, GroupError>> {
        let out_of_range = Err(GroupError::DlogOutOfRange { bound: self.bound });
        let mut results = vec![out_of_range; targets.len()];
        if targets.len() < LANES {
            for (r, t) in results.iter_mut().zip(targets) {
                *r = self.solve(group, t);
            }
            return results;
        }
        let ctx = group.mont_p();
        let max_round = self.max_round();
        // Slot `s` owns lanes `2s` (positive stride, factor `g^{-m}`)
        // and `2s+1` (negative stride, factor `g^{m}`).
        const SLOTS: usize = LANES / 2;
        let factors: [U256; LANES] = core::array::from_fn(|l| {
            if l % 2 == 0 {
                self.giant_mont
            } else {
                self.up_mont
            }
        });

        const IDLE: usize = usize::MAX;
        let mut next = 0usize;
        let mut idx = [IDLE; SLOTS];
        let mut round = [0u64; SLOTS];
        let mut gamma = [ctx.one(); LANES];
        let mut live = 0usize;
        let load = |gamma: &mut [U256; LANES], s: usize, t: usize| {
            let t_mont = ctx.to_mont(targets[t].value());
            gamma[2 * s] = t_mont;
            gamma[2 * s + 1] = ctx.mont_mul(&t_mont, &self.up_mont);
        };
        for (s, slot) in idx.iter_mut().enumerate() {
            load(&mut gamma, s, next);
            *slot = next;
            next += 1;
            live += 1;
        }
        while live > 0 {
            for s in 0..SLOTS {
                if idx[s] == IDLE {
                    continue;
                }
                loop {
                    let r = round[s] as i64;
                    let hit = self
                        .lookup(group, ctx, &gamma[2 * s], r)
                        .or_else(|| self.lookup(group, ctx, &gamma[2 * s + 1], -r - 1));
                    match hit {
                        Some(z) => results[idx[s]] = Ok(z),
                        // Unresolved but not exhausted: wait for the
                        // next 4-lane giant step.
                        None if round[s] < max_round => break,
                        // Exhausted: the Err placeholder stands.
                        None => {}
                    }
                    // This slot's instance is settled — refill or idle.
                    if next < targets.len() {
                        load(&mut gamma, s, next);
                        idx[s] = next;
                        round[s] = 0;
                        next += 1;
                        // Loop to probe the fresh gammas at round 0.
                    } else {
                        idx[s] = IDLE;
                        live -= 1;
                        break;
                    }
                }
            }
            if live == 0 {
                break;
            }
            gamma = ctx.mont_mul_lanes(&gamma, &factors);
            for s in 0..SLOTS {
                if idx[s] != IDLE {
                    round[s] += 1;
                }
            }
        }
        results
    }

    /// Recovers `z ∈ [0, B]` with `g^z = target`, rejecting negatives.
    ///
    /// # Errors
    ///
    /// Returns [`GroupError::DlogOutOfRange`] if `z` is negative or
    /// exceeds the bound.
    pub fn solve_unsigned(
        &self,
        group: &SchnorrGroup,
        target: &Element,
    ) -> Result<u64, GroupError> {
        match self.solve(group, target)? {
            z if z >= 0 => Ok(z as u64),
            _ => Err(GroupError::DlogOutOfRange { bound: self.bound }),
        }
    }

    // ---- cache (de)serialization hooks -------------------------------

    /// Builds the baby map and collision side list from the truncated
    /// keys in insertion order (`keys[j] = low64(mont(g^j))`). Shared by
    /// [`DlogTable::new`] and the cache load path, so a reloaded table
    /// is field-identical to a fresh build: first entry wins, later
    /// arrivals under the same truncated key go to the side list.
    fn build_baby(keys: &[u64]) -> (FlatBabyMap, Vec<(u64, u64)>) {
        let mut baby = FlatBabyMap::with_capacity(keys.len() as u64);
        let mut collisions = Vec::new();
        for (j, &key) in keys.iter().enumerate() {
            if !baby.insert_first_wins(key, j as u64) {
                collisions.push((key, j as u64));
            }
        }
        (baby, collisions)
    }

    /// The table's cacheable parts, in field order:
    /// `(m, bound, up_mont, giant_mont, packed_baby, collisions)`.
    /// The baby map goes out in its packed slot-order form — a warm
    /// load is then a bitmap-guided sequential scatter with no per-key
    /// hash inserts, which would otherwise rival the
    /// (lane-kernel-accelerated) Montgomery baby chain itself.
    pub(crate) fn cache_parts(&self) -> (u64, u64, &U256, &U256, PackedSlots, &[(u64, u64)]) {
        (
            self.m,
            self.bound,
            &self.up_mont,
            &self.giant_mont,
            self.baby.packed(),
            &self.collisions,
        )
    }

    /// Rebuilds a table from cached parts. Returns `None` on malformed
    /// geometry — the cache layer treats that as corruption and falls
    /// back to a fresh build. That includes a baby-step count other than
    /// `baby_steps(bound)` (a table persisted under an older sizing
    /// rule would reload at that rule's giant-step cost), and baby
    /// entries plus collisions not accounting for exactly `m` steps (a
    /// missing step makes values in range unsolvable).
    pub(crate) fn from_cache_parts(
        m: u64,
        bound: u64,
        up_mont: U256,
        giant_mont: U256,
        packed_baby: PackedSlots,
        collisions: Vec<(u64, u64)>,
    ) -> Option<Self> {
        if bound == 0
            || m != baby_steps(bound)
            || (packed_baby.occupied.len() + collisions.len()) as u64 != m
        {
            return None;
        }
        let baby = FlatBabyMap::from_packed(packed_baby)?;
        Some(Self {
            baby,
            collisions,
            up_mont,
            giant_mont,
            m,
            bound,
        })
    }
}

/// Exhaustive-search discrete log for tiny ranges: the oracle BSGS is
/// cross-checked against.
///
/// # Errors
///
/// Returns [`GroupError::DlogOutOfRange`] if no exponent in
/// `[-bound, bound]` matches.
#[cfg(test)]
fn solve_dlog_naive(group: &SchnorrGroup, target: &Element, bound: u64) -> Result<i64, GroupError> {
    let g = group.generator();
    let mut pos = group.identity();
    let mut neg = group.identity();
    let g_inv = group.inv(&g);
    if *target == pos {
        return Ok(0);
    }
    for z in 1..=bound {
        pos = group.mul(&pos, &g);
        if pos == *target {
            return Ok(z as i64);
        }
        neg = group.mul(&neg, &g_inv);
        if neg == *target {
            return Ok(-(z as i64));
        }
    }
    Err(GroupError::DlogOutOfRange { bound })
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

    #[test]
    fn solves_all_values_in_small_range() {
        let g = group();
        let table = DlogTable::new(&g, 50);
        for z in -50i64..=50 {
            let target = g.exp(&g.scalar_from_i64(z));
            assert_eq!(table.solve(&g, &target), Ok(z), "z = {z}");
        }
    }

    #[test]
    fn rejects_out_of_range() {
        let g = group();
        let table = DlogTable::new(&g, 10);
        for z in [11i64, -11, 100, -100, 12345] {
            let target = g.exp(&g.scalar_from_i64(z));
            assert_eq!(
                table.solve(&g, &target),
                Err(GroupError::DlogOutOfRange { bound: 10 }),
                "z = {z}"
            );
        }
    }

    #[test]
    fn unsigned_rejects_negative() {
        let g = group();
        let table = DlogTable::new(&g, 20);
        let target = g.exp(&g.scalar_from_i64(-5));
        assert!(table.solve_unsigned(&g, &target).is_err());
        let target = g.exp(&g.scalar_from_i64(17));
        assert_eq!(table.solve_unsigned(&g, &target), Ok(17));
    }

    #[test]
    fn random_values_large_bound() {
        let g = group();
        let bound = 1_000_000;
        let table = DlogTable::new(&g, bound);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..64 {
            let z = rng.random_range(-(bound as i64)..=bound as i64);
            let target = g.exp(&g.scalar_from_i64(z));
            assert_eq!(table.solve(&g, &target), Ok(z));
        }
    }

    #[test]
    fn matches_naive() {
        let g = group();
        let table = DlogTable::new(&g, 64);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            let z = rng.random_range(-64i64..=64);
            let target = g.exp(&g.scalar_from_i64(z));
            assert_eq!(
                table.solve(&g, &target).unwrap(),
                solve_dlog_naive(&g, &target, 64).unwrap()
            );
        }
    }

    #[test]
    fn one_shot_helper() {
        let g = group();
        let target = g.exp(&g.scalar_from_i64(-99));
        assert_eq!(DlogTable::new(&g, 100).solve(&g, &target), Ok(-99));
    }

    #[test]
    fn solve_batch_matches_solve() {
        // Mix of levels so the fast-reduction modulus runs the lane
        // stepping too; mix of in-range, boundary, and out-of-range
        // targets; batch sizes around and below the lane width.
        for level in [SecurityLevel::Bits64, SecurityLevel::Bits256Fast] {
            let g = SchnorrGroup::precomputed(level);
            let bound = 5_000u64;
            let table = DlogTable::new(&g, bound);
            let mut rng = StdRng::seed_from_u64(11);
            let mut zs: Vec<i64> = (0..21)
                .map(|_| rng.random_range(-(bound as i64)..=bound as i64))
                .collect();
            zs.extend([0, bound as i64, -(bound as i64), bound as i64 + 7, -99_999]);
            let targets: Vec<Element> = zs.iter().map(|&z| g.exp(&g.scalar_from_i64(z))).collect();
            for n in [1usize, 3, 4, 5, targets.len()] {
                let got = table.solve_batch(&g, &targets[..n]);
                for (i, r) in got.iter().enumerate() {
                    assert_eq!(*r, table.solve(&g, &targets[i]), "n={n} i={i} {level:?}");
                }
            }
        }
    }

    #[test]
    fn truncation_collision_side_list_is_consulted() {
        // Real low-64-bit collisions among `m` baby steps are a
        // ~m²·2⁻⁶⁵-per-table event (2⁻³³ at the 2¹⁶ budget), so
        // fabricate one: evict the baby-map
        // entry for `j2`'s truncated key and repoint it at a different
        // index, exactly the state `new` leaves behind when a later
        // baby step collides with an earlier one (first entry wins, the
        // loser goes to the side list). `solve` must then fail the full
        // verification against the squatter and fall through to the
        // side list — still recovering the exact exponent.
        let g = group();
        let bound = 1 << 20;
        let mut table = DlogTable::new(&g, bound);
        assert_eq!(table.m, 8_193, "fixture runs at the range/256 geometry");
        let ctx = g.mont_p();
        let j2 = table.m / 2;
        let j1 = j2 + 1; // squatter with a different true key
        let key = ctx.to_mont(g.exp(&g.scalar_from_u64(j2)).value()).low_u64();
        assert_eq!(table.baby.get(key), Some(j2), "fixture sanity");
        table.baby.set(key, j1);
        table.collisions.push((key, j2));

        // Every giant index `i` whose solution lands on baby index j2
        // must go through the side list; check both walk directions.
        for i in [0i64, 1, -1, -2] {
            let z = i * table.m as i64 + j2 as i64;
            if z.unsigned_abs() > bound {
                continue;
            }
            let target = g.exp(&g.scalar_from_i64(z));
            assert_eq!(table.solve(&g, &target), Ok(z), "giant index {i}");
        }
        // The squatter's own solutions and unrelated values still solve.
        let z1 = j1 as i64;
        let target = g.exp(&g.scalar_from_i64(z1));
        assert_eq!(table.solve(&g, &target), Ok(z1));
        for z in [-(bound as i64), -1, 0, 1, 4321, bound as i64] {
            let target = g.exp(&g.scalar_from_i64(z));
            assert_eq!(table.solve(&g, &target), Ok(z), "z = {z}");
        }
        // And the batched path consults the side list identically.
        let targets: Vec<Element> = [-2i64, z1, 0, (j2 as i64) - bound as i64, 4321]
            .iter()
            .map(|&z| g.exp(&g.scalar_from_i64(z)))
            .collect();
        let got = table.solve_batch(&g, &targets);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(*r, table.solve(&g, &targets[i]), "batch i={i}");
        }
    }

    #[test]
    fn cache_parts_roundtrip() {
        let g = group();
        let table = DlogTable::new(&g, 7_500);
        let (m, bound, up, giant, packed, collisions) = table.cache_parts();
        // The packed form really is packed: exactly m occupied pairs,
        // bitmap popcount to match.
        assert_eq!(packed.occupied.len() as u64, m);
        let set: u64 = packed
            .bitmap
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        assert_eq!(set, m);
        let back = DlogTable::from_cache_parts(m, bound, *up, *giant, packed, collisions.to_vec())
            .unwrap();
        // The reload is field-identical, not merely equivalent: same
        // map layout, same collision list.
        assert_eq!(back.baby, table.baby);
        assert_eq!(back.collisions, table.collisions);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..16 {
            let z = rng.random_range(-7_500i64..=7_500);
            let target = g.exp(&g.scalar_from_i64(z));
            assert_eq!(back.solve(&g, &target), Ok(z));
        }
        // Malformed packed forms are rejected, not mis-parsed.
        let reject = |mutate: &dyn Fn(&mut PackedSlots)| {
            let (m, bound, up, giant, mut packed, _) = table.cache_parts();
            mutate(&mut packed);
            assert!(DlogTable::from_cache_parts(m, bound, *up, *giant, packed, vec![]).is_none());
        };
        // Capacity zero / not a power of two.
        reject(&|p| p.cap = 0);
        reject(&|p| p.cap -= 1);
        // Bitmap length disagreeing with the capacity.
        reject(&|p| {
            p.bitmap.pop();
        });
        // Popcount disagreeing with the pair count.
        reject(&|p| {
            p.occupied.pop();
        });
        // A pair carrying the vacancy sentinel.
        reject(&|p| p.occupied[0].1 = u64::MAX);
        // Entries not accounting for exactly `m` baby steps: one step
        // missing (its bit cleared, so the packed form itself is
        // consistent) …
        reject(&|p| {
            let w = p.bitmap.iter().rposition(|&w| w != 0).unwrap();
            p.bitmap[w] &= !(1 << (63 - p.bitmap[w].leading_zeros()));
            p.occupied.pop();
        });
        // … or a spurious collision entry.
        let (m, bound, up, giant, packed, _) = table.cache_parts();
        assert!(DlogTable::from_cache_parts(m, bound, *up, *giant, packed, vec![(7, 0)]).is_none());
        // A geometry other than the rule's, even if self-consistent.
        let other = DlogTable::with_baby_steps(&g, 7_500, m + 1);
        let (m, bound, up, giant, packed, collisions) = other.cache_parts();
        assert!(
            DlogTable::from_cache_parts(m, bound, *up, *giant, packed, collisions.to_vec())
                .is_none()
        );
        // A set bit at or above the capacity (shrink cap so the bitmap
        // has out-of-range bits while keeping its length consistent).
        let small = DlogTable::new(&g, 40);
        let (m, bound, up, giant, mut packed, _) = small.cache_parts();
        assert!(packed.cap < 64, "fixture assumes a sub-word bitmap");
        packed.bitmap[0] |= 1 << (packed.cap + 1);
        assert!(DlogTable::from_cache_parts(m, bound, *up, *giant, packed, vec![]).is_none());
    }

    /// The rule at the bounds the workloads actually build: training's
    /// gradient table grows 16×, serving's 5.7×, and the convolution
    /// gradient's 2³¹ table is already past the budget and keeps
    /// `⌈√(2B+1)⌉`.
    #[test]
    fn baby_steps_at_the_workload_bounds() {
        assert_eq!(baby_steps(1 << 23), 65_536);
        assert_eq!(baby_steps(1 << 20), 8_193);
        assert_eq!(baby_steps(1 << 31), 65_537);
        // Small bounds keep √range: range/256 is smaller there.
        assert_eq!(baby_steps(1), 2);
        assert_eq!(baby_steps(5_000), 101);
        // Saturated bounds do not overflow the rule.
        assert_eq!(baby_steps(u64::MAX), 6_074_001_000);
    }

    /// A generic (non-Montgomery-friendly) 256-bit safe-prime group, so
    /// the `Reducer::Generic` arm walks giant steps too.
    fn generic_group() -> SchnorrGroup {
        SchnorrGroup::from_params(
            U256::from_hex("a504130456d8cce0af73fd190c683b02148b6371a703ba4bac786a772db736af")
                .unwrap(),
            U256::from_hex("528209822b6c667057b9fe8c86341d810a45b1b8d381dd25d63c353b96db9b57")
                .unwrap(),
            U256::from_u64(4),
            &mut StdRng::seed_from_u64(0),
        )
        .unwrap()
    }

    /// `⌈√n⌉`, computed independently of `baby_steps`.
    fn ceil_sqrt(n: u128) -> u128 {
        let mut s = (n as f64).sqrt() as u128;
        while s * s < n {
            s += 1;
        }
        while s > 0 && (s - 1) * (s - 1) >= n {
            s -= 1;
        }
        s
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// For bounds spread log-uniformly over `[1, 2³²]`, at every
        /// reducer arm: the geometry obeys the rule's envelope, `solve`
        /// and `solve_batch` both return the true `z` at zero, at `±B`,
        /// next to multiples of `m` and at random points, and both
        /// refuse `±(B+1)`.
        #[test]
        fn baby_step_rule_and_every_solver_agree(
            log2 in 0u32..32,
            raw in proptest::prelude::any::<u64>(),
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 4),
        ) {
            let bound = (1u64 << log2) | (raw & ((1u64 << log2) - 1));
            let range = 2 * u128::from(bound) + 1;
            let root = ceil_sqrt(range);
            let m = baby_steps(bound);
            proptest::prop_assert!(u128::from(m) >= root, "B={} m={}", bound, m);
            proptest::prop_assert!(u128::from(m) <= root.max(1 << 16), "B={} m={}", bound, m);
            if range.div_ceil(256) <= 1 << 16 {
                proptest::prop_assert!(bound / m <= 128, "B={} m={}", bound, m);
            }

            let b = bound as i64;
            let mi = m as i64;
            let mut zs = vec![0, b, -b];
            for k in [1i64, 2] {
                for d in [-1i64, 0, 1] {
                    zs.extend([k * mi + d, -(k * mi + d)]);
                }
            }
            zs.extend(picks.iter().map(|&p| (p % (2 * bound + 1)) as i64 - b));
            zs.retain(|z| z.unsigned_abs() <= bound);
            let outside = [b + 1, -(b + 1)];

            for g in [
                SchnorrGroup::precomputed(SecurityLevel::Bits64),
                SchnorrGroup::precomputed(SecurityLevel::Bits256Fast),
                generic_group(),
            ] {
                let table = DlogTable::new(&g, bound);
                proptest::prop_assert_eq!(table.m, m);
                let targets: Vec<Element> =
                    zs.iter().map(|&z| g.exp(&g.scalar_from_i64(z))).collect();
                let batch = table.solve_batch(&g, &targets);
                for ((&z, t), got) in zs.iter().zip(&targets).zip(&batch) {
                    proptest::prop_assert_eq!(table.solve(&g, t), Ok(z));
                    proptest::prop_assert_eq!(*got, Ok(z));
                }
                let refused = Err(GroupError::DlogOutOfRange { bound });
                let targets: Vec<Element> =
                    outside.iter().map(|&z| g.exp(&g.scalar_from_i64(z))).collect();
                for t in &targets {
                    proptest::prop_assert_eq!(table.solve(&g, t), refused.clone());
                }
                // Padded past the lane width so the batch kernel runs.
                let padded: Vec<Element> = targets.iter().cycle().take(LANES + 1).cloned().collect();
                for got in table.solve_batch(&g, &padded) {
                    proptest::prop_assert_eq!(got, refused.clone());
                }
            }
        }
    }

    #[test]
    fn boundary_values() {
        let g = group();
        let table = DlogTable::new(&g, 1);
        for z in [-1i64, 0, 1] {
            let target = g.exp(&g.scalar_from_i64(z));
            assert_eq!(table.solve(&g, &target), Ok(z));
        }
    }
}
