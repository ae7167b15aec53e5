//! Cached baby-step giant-step tables.
//!
//! Training recomputes secure dot-products every iteration with bounds
//! that depend on the current weights; rebuilding a BSGS table per
//! iteration would dominate the runtime. The cache rounds requested
//! bounds up to the next power of two and reuses the table until a
//! larger bound is needed.
//!
//! Bounds are computed from metadata a peer sends (an encrypted batch's
//! `max_abs_x`), so the cache refuses any above [`MAX_DLOG_BOUND`]
//! instead of building whatever table it is asked for.

use std::path::PathBuf;
use std::sync::Arc;

use cryptonn_group::{DlogTable, SchnorrGroup};

use crate::error::CryptoNnError;

/// The largest dlog bound a [`DlogTableCache`] builds a table for:
/// 2³⁶, 32× the convolution gradient's 2³¹. Its table holds
/// `⌈√(2³⁷+1)⌉` ≈ 370 k baby steps (≈ 16 MiB of map slots); a bound a
/// peer can inflate without limit would otherwise make the server build
/// and keep a table of any size, or overflow the power-of-two rounding.
pub const MAX_DLOG_BOUND: u64 = 1 << 36;

/// A grow-only cache of one [`DlogTable`] per group.
#[derive(Debug)]
pub struct DlogTableCache {
    group: SchnorrGroup,
    current: Option<Arc<DlogTable>>,
    disk_dir: Option<PathBuf>,
}

impl DlogTableCache {
    /// Creates an empty cache for `group`.
    pub fn new(group: SchnorrGroup) -> Self {
        Self {
            group,
            current: None,
            disk_dir: None,
        }
    }

    /// The group this cache serves.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// Backs this cache with a fingerprinted on-disk table directory:
    /// subsequent builds go through [`DlogTable::load_or_build`], so a
    /// restarted server with the same group parameters reloads its BSGS
    /// tables instead of regenerating them.
    pub fn attach_dir(&mut self, dir: PathBuf) {
        self.disk_dir = Some(dir);
    }

    /// Returns a table covering at least `[-bound, bound]`, building or
    /// growing (to the next power of two) as needed. A zero bound is
    /// served by the smallest table.
    ///
    /// # Errors
    ///
    /// [`CryptoNnError::DlogBoundTooLarge`] if `bound` exceeds
    /// [`MAX_DLOG_BOUND`]; the cache is left as it was.
    pub fn table(&mut self, bound: u64) -> Result<Arc<DlogTable>, CryptoNnError> {
        if bound > MAX_DLOG_BOUND {
            return Err(CryptoNnError::DlogBoundTooLarge {
                bound,
                max: MAX_DLOG_BOUND,
            });
        }
        Ok(match &self.current {
            Some(t) if t.bound() >= bound => t.clone(),
            _ => {
                let rounded = bound.max(1).next_power_of_two();
                let table = Arc::new(match &self.disk_dir {
                    Some(dir) => DlogTable::load_or_build(&self.group, rounded, dir),
                    None => DlogTable::new(&self.group, rounded),
                });
                self.current = Some(table.clone());
                table
            }
        })
    }

    /// The bound of the currently cached table, if any.
    pub fn current_bound(&self) -> Option<u64> {
        self.current.as_ref().map(|t| t.bound())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptonn_group::SecurityLevel;

    #[test]
    fn grows_monotonically_and_reuses() {
        let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        let mut cache = DlogTableCache::new(group.clone());
        assert_eq!(cache.current_bound(), None);

        let t1 = cache.table(1000).unwrap();
        assert_eq!(t1.bound(), 1024);
        let t2 = cache.table(500).unwrap();
        assert!(Arc::ptr_eq(&t1, &t2), "smaller bound reuses the table");
        let t3 = cache.table(5000).unwrap();
        assert_eq!(t3.bound(), 8192);
        assert!(!Arc::ptr_eq(&t1, &t3));

        // The grown table still solves correctly.
        let target = group.exp(&group.scalar_from_i64(-4999));
        assert_eq!(t3.solve(&group, &target), Ok(-4999));
    }

    #[test]
    fn disk_backed_cache_persists_tables() {
        let dir =
            std::env::temp_dir().join(format!("cryptonn-tablecache-test-{}", std::process::id()));
        let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);

        let mut cold = DlogTableCache::new(group.clone());
        cold.attach_dir(dir.clone());
        let t = cold.table(1000).unwrap();
        assert_eq!(t.bound(), 1024);

        // A fresh cache over the same directory reloads the same
        // geometry and still solves.
        let mut warm = DlogTableCache::new(group.clone());
        warm.attach_dir(dir.clone());
        let t2 = warm.table(1000).unwrap();
        assert_eq!(t2.bound(), 1024);
        let target = group.exp(&group.scalar_from_i64(-777));
        assert_eq!(t2.solve(&group, &target), Ok(-777));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_bounds_are_refused_without_building() {
        let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        let mut cache = DlogTableCache::new(group);
        // A zero bound (a batch declaring `max_abs_x = 0`) gets the
        // smallest table rather than a panic.
        assert_eq!(cache.table(0).unwrap().bound(), 1);
        let t = cache.table(MAX_DLOG_BOUND).map(|_| ());
        assert_eq!(t, Ok(()), "the cap itself is served");
        for bound in [MAX_DLOG_BOUND + 1, 1 << 40, u64::MAX] {
            assert_eq!(
                cache.table(bound).map(|_| ()),
                Err(CryptoNnError::DlogBoundTooLarge {
                    bound,
                    max: MAX_DLOG_BOUND
                })
            );
        }
        assert_eq!(cache.current_bound(), Some(MAX_DLOG_BOUND));
    }
}
