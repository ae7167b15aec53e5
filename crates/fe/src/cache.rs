//! The functional-key cache: an LRU layer over any [`KeyService`].
//!
//! Training re-derives its FEIP keys every iteration because the
//! weights move; *inference* reuses one frozen model, so every request
//! would hit the authority with an identical derivation. The cache
//! exploits the determinism of FEIP key derivation — `sk_y = ⟨y, s⟩` is
//! a pure function of the exact integer weight vector `y` — to make a
//! frozen model's key traffic a one-time cost: the first request per
//! weight row goes to the inner service, every later one is served
//! locally, bit-identical (the correctness argument is DESIGN.md §12).
//!
//! FEBO keys are deliberately **not** cached: a FEBO key binds to a
//! specific ciphertext commitment `cmt = g^r`, so it can never be
//! reused across requests — those derivations pass straight through.

use std::collections::{BTreeMap, HashMap};

use parking_lot::Mutex;

use crate::error::FeError;
use crate::febo::{FeboFunctionKey, FeboPublicKey};
use crate::feip::{FeipFunctionKey, FeipPublicKey};
use crate::service::{FeboKeyRequest, KeyService};

/// A snapshot of the cache's hit/miss/eviction counters.
///
/// One FEIP key request counts as one hit or one miss; a batched
/// [`derive_ip_keys`](KeyService::derive_ip_keys) call contributes one
/// count per requested row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyCacheStats {
    /// Requested keys served from the cache.
    pub hits: u64,
    /// Requested keys that had to be derived by the inner service.
    pub misses: u64,
    /// Cached keys dropped to make room (never counted for a
    /// zero-capacity cache, which stores nothing).
    pub evictions: u64,
    /// Keys currently resident.
    pub entries: usize,
}

impl KeyCacheStats {
    /// Hit fraction over all requests so far (0 when nothing was
    /// requested yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The cache key: an FEIP derivation is identified by the instance
/// dimension and the exact quantized weight vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FeipKeyId {
    dim: usize,
    y: Vec<i64>,
}

#[derive(Debug)]
struct Entry {
    key: FeipFunctionKey,
    /// Recency stamp; doubles as the entry's handle in the LRU index.
    tick: u64,
}

/// Interior state behind one mutex: the key map, the recency index
/// (tick → id, ordered oldest-first), and the counters.
#[derive(Debug, Default)]
struct State {
    keys: HashMap<FeipKeyId, Entry>,
    lru: BTreeMap<u64, FeipKeyId>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl State {
    fn touch(&mut self, id: &FeipKeyId) -> Option<FeipFunctionKey> {
        let next = self.tick + 1;
        let entry = self.keys.get_mut(id)?;
        self.lru.remove(&entry.tick);
        entry.tick = next;
        self.tick = next;
        self.lru.insert(next, id.clone());
        Some(entry.key)
    }

    fn insert(&mut self, id: FeipKeyId, key: FeipFunctionKey, capacity: usize) {
        if self.keys.len() >= capacity && !self.keys.contains_key(&id) {
            // Evict the least recently used entry.
            if let Some((&oldest, _)) = self.lru.iter().next() {
                if let Some(victim) = self.lru.remove(&oldest) {
                    self.keys.remove(&victim);
                    self.evictions += 1;
                }
            }
        }
        self.tick += 1;
        if let Some(old) = self.keys.insert(
            id.clone(),
            Entry {
                key,
                tick: self.tick,
            },
        ) {
            self.lru.remove(&old.tick);
        }
        self.lru.insert(self.tick, id);
    }
}

/// An LRU functional-key cache implementing [`KeyService`] by wrapping
/// any inner service — a co-located
/// [`KeyAuthority`](crate::KeyAuthority) or a wire-backed channel to a
/// remote authority.
///
/// FEIP function keys are cached by `(dimension, exact weight vector)`;
/// public keys are cached unboundedly (there are only a handful of
/// instances per deployment); FEBO keys pass through uncached (they
/// bind to per-ciphertext commitments). A capacity of zero disables
/// storage entirely — every request is a recorded miss — which is the
/// "cache off" arm of the serving benchmarks.
///
/// ```
/// use cryptonn_fe::{CachingKeyService, KeyAuthority, KeyService, PermittedFunctions};
/// use cryptonn_group::{SchnorrGroup, SecurityLevel};
///
/// let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
/// let authority = KeyAuthority::with_seed(group, PermittedFunctions::all(), 9);
/// let cached = CachingKeyService::new(authority, 64);
///
/// let first = cached.derive_ip_key(3, &[1, -2, 3])?;
/// let again = cached.derive_ip_key(3, &[1, -2, 3])?;
/// assert_eq!(first, again);
/// assert_eq!(cached.stats().hits, 1);
/// assert_eq!(cached.stats().misses, 1);
/// # Ok::<(), cryptonn_fe::FeError>(())
/// ```
pub struct CachingKeyService<S> {
    inner: S,
    capacity: usize,
    state: Mutex<State>,
    mpks: Mutex<HashMap<usize, FeipPublicKey>>,
    febo_mpk: Mutex<Option<FeboPublicKey>>,
}

impl<S> CachingKeyService<S> {
    /// Wraps `inner` with room for `capacity` FEIP keys. A capacity of
    /// zero stores nothing (every derivation forwards to `inner`).
    pub fn new(inner: S, capacity: usize) -> Self {
        Self {
            inner,
            capacity,
            state: Mutex::new(State::default()),
            mpks: Mutex::new(HashMap::new()),
            febo_mpk: Mutex::new(None),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> KeyCacheStats {
        let state = self.state.lock();
        KeyCacheStats {
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            entries: state.keys.len(),
        }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the cache, dropping all cached keys.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: KeyService> KeyService for CachingKeyService<S> {
    fn feip_public_key(&self, dim: usize) -> Result<FeipPublicKey, FeError> {
        if let Some(mpk) = self.mpks.lock().get(&dim) {
            return Ok(mpk.clone());
        }
        let mpk = self.inner.feip_public_key(dim)?;
        self.mpks.lock().insert(dim, mpk.clone());
        Ok(mpk)
    }

    fn febo_public_key(&self) -> Result<FeboPublicKey, FeError> {
        if let Some(mpk) = self.febo_mpk.lock().as_ref() {
            return Ok(mpk.clone());
        }
        let mpk = self.inner.febo_public_key()?;
        *self.febo_mpk.lock() = Some(mpk.clone());
        Ok(mpk)
    }

    fn derive_ip_keys(&self, dim: usize, ys: &[Vec<i64>]) -> Result<Vec<FeipFunctionKey>, FeError> {
        if self.capacity == 0 {
            self.state.lock().misses += ys.len() as u64;
            return self.inner.derive_ip_keys(dim, ys);
        }
        // Resolve hits under the lock, collecting the misses in request
        // order so the inner service sees one batched call for exactly
        // the keys the cache lacks.
        let mut resolved: Vec<Option<FeipFunctionKey>> = Vec::with_capacity(ys.len());
        let mut miss_idx: Vec<usize> = Vec::new();
        {
            let mut state = self.state.lock();
            for (i, y) in ys.iter().enumerate() {
                let id = FeipKeyId { dim, y: y.clone() };
                match state.touch(&id) {
                    Some(key) => {
                        state.hits += 1;
                        resolved.push(Some(key));
                    }
                    None => {
                        state.misses += 1;
                        miss_idx.push(i);
                        resolved.push(None);
                    }
                }
            }
        }
        if !miss_idx.is_empty() {
            let miss_ys: Vec<Vec<i64>> = miss_idx.iter().map(|&i| ys[i].clone()).collect();
            let derived = self.inner.derive_ip_keys(dim, &miss_ys)?;
            if derived.len() != miss_ys.len() {
                return Err(FeError::Protocol(format!(
                    "requested {} FEIP keys, inner service returned {}",
                    miss_ys.len(),
                    derived.len()
                )));
            }
            let mut state = self.state.lock();
            for (&i, key) in miss_idx.iter().zip(&derived) {
                state.insert(
                    FeipKeyId {
                        dim,
                        y: ys[i].clone(),
                    },
                    *key,
                    self.capacity,
                );
                resolved[i] = Some(*key);
            }
        }
        Ok(resolved
            .into_iter()
            .map(|k| k.expect("every slot resolved"))
            .collect())
    }

    fn derive_bo_keys(&self, reqs: &[FeboKeyRequest]) -> Result<Vec<FeboFunctionKey>, FeError> {
        // Commitment-bound: never reusable, never cached.
        self.inner.derive_bo_keys(reqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::{KeyAuthority, PermittedFunctions};
    use crate::febo::BasicOp;
    use cryptonn_group::{SchnorrGroup, SecurityLevel};

    fn authority(level: SecurityLevel) -> KeyAuthority {
        let group = SchnorrGroup::precomputed(level);
        KeyAuthority::with_seed(group, PermittedFunctions::all(), 123)
    }

    /// Hit-path keys must be bit-identical to uncached derivation, at
    /// every security level.
    #[test]
    fn hits_are_bit_identical_to_uncached_at_every_level() {
        for level in [SecurityLevel::Bits64, SecurityLevel::Bits256Fast] {
            let plain = authority(level);
            let cached = CachingKeyService::new(authority(level), 16);
            let ys = vec![vec![3, -7, 11], vec![0, 0, 1], vec![-100, 50, 25]];

            let direct = plain.derive_ip_keys(3, &ys).unwrap();
            let via_miss = cached.derive_ip_keys(3, &ys).unwrap();
            let via_hit = cached.derive_ip_keys(3, &ys).unwrap();
            assert_eq!(direct, via_miss, "{level:?}: miss path diverged");
            assert_eq!(direct, via_hit, "{level:?}: hit path diverged");

            let stats = cached.stats();
            assert_eq!(stats.misses, 3, "{level:?}");
            assert_eq!(stats.hits, 3, "{level:?}");
            assert_eq!(stats.entries, 3, "{level:?}");
        }
    }

    /// A tiny capacity evicts in LRU order: the least recently touched
    /// key is re-derived, the recently touched one still hits.
    #[test]
    fn evicts_least_recently_used_under_tiny_capacity() {
        let cached = CachingKeyService::new(authority(SecurityLevel::Bits64), 2);
        let (a, b, c) = (vec![1i64, 2], vec![3i64, 4], vec![5i64, 6]);

        cached.derive_ip_key(2, &a).unwrap(); // miss: {a}
        cached.derive_ip_key(2, &b).unwrap(); // miss: {a, b}
        cached.derive_ip_key(2, &a).unwrap(); // hit: a is now newest
        cached.derive_ip_key(2, &c).unwrap(); // miss: evicts b -> {a, c}

        let before = cached.stats();
        assert_eq!(before.evictions, 1);
        assert_eq!(before.entries, 2);

        cached.derive_ip_key(2, &a).unwrap(); // still resident
        assert_eq!(cached.stats().hits, before.hits + 1);
        cached.derive_ip_key(2, &b).unwrap(); // evicted: re-derived
        assert_eq!(cached.stats().misses, before.misses + 1);
        assert_eq!(cached.stats().evictions, 2); // a or c made room for b
    }

    /// The counters account exactly: batched requests count per row,
    /// and a re-request after eviction is a miss again.
    #[test]
    fn counters_are_exact() {
        let cached = CachingKeyService::new(authority(SecurityLevel::Bits64), 8);
        // A batch with a duplicated row: both copies resolve against
        // the pre-call cache state (both miss), and both must still get
        // the same derived key.
        let ys = vec![vec![1i64, 1], vec![2, 2], vec![1, 1]];
        let keys = cached.derive_ip_keys(2, &ys).unwrap();
        assert_eq!(keys[0], keys[2], "duplicate rows get the same key");
        let s = cached.stats();
        assert_eq!(s.hits + s.misses, 3, "every row counted exactly once");
        assert_eq!(s.entries, 2, "two distinct rows resident");

        let again = cached.derive_ip_keys(2, &ys).unwrap();
        assert_eq!(again, keys);
        let s2 = cached.stats();
        assert_eq!(s2.hits, s.hits + 3, "all three rows hit the second time");
        assert_eq!(s2.misses, s.misses);
    }

    /// Capacity zero stores nothing and forwards everything.
    #[test]
    fn zero_capacity_is_a_counting_pass_through() {
        let cached = CachingKeyService::new(authority(SecurityLevel::Bits64), 0);
        let y = vec![7i64, -7];
        let k1 = cached.derive_ip_key(2, &y).unwrap();
        let k2 = cached.derive_ip_key(2, &y).unwrap();
        assert_eq!(k1, k2);
        let s = cached.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2);
        assert_eq!(s.entries, 0);
        assert_eq!(s.evictions, 0);
    }

    /// Public keys are cached; FEBO derivations pass through and still
    /// work.
    #[test]
    fn public_keys_cached_and_febo_passes_through() {
        let inner = authority(SecurityLevel::Bits64);
        let reference = authority(SecurityLevel::Bits64);
        let cached = CachingKeyService::new(inner, 4);

        let mpk = cached.feip_public_key(5).unwrap();
        assert_eq!(mpk, cached.feip_public_key(5).unwrap());
        assert_eq!(mpk, reference.feip_public_key(5));
        assert_eq!(
            cached.febo_public_key().unwrap(),
            reference.febo_public_key()
        );

        let mut rng = rand::rng();
        let ct = crate::febo::encrypt(&cached.febo_public_key().unwrap(), 10, &mut rng);
        let key = cached
            .derive_bo_key(ct.commitment(), BasicOp::Add, 5)
            .unwrap();
        // The FEBO pass-through derives against the inner authority's
        // master key — same as asking it directly.
        let direct = cached
            .inner()
            .derive_bo_key(ct.commitment(), BasicOp::Add, 5)
            .unwrap();
        assert_eq!(key, direct);
    }

    /// The hit rate helper.
    #[test]
    fn hit_rate_reflects_counters() {
        let cached = CachingKeyService::new(authority(SecurityLevel::Bits64), 4);
        assert_eq!(cached.stats().hit_rate(), 0.0);
        cached.derive_ip_key(2, &[1, 2]).unwrap();
        cached.derive_ip_key(2, &[1, 2]).unwrap();
        cached.derive_ip_key(2, &[1, 2]).unwrap();
        let rate = cached.stats().hit_rate();
        assert!((rate - 2.0 / 3.0).abs() < 1e-12, "rate {rate}");
    }
}
