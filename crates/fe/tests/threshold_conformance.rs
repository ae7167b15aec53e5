//! Threshold-authority conformance: every t-subset of share-holders
//! must recombine to keys bit-identical to the single authority's,
//! below quorum the combiner must fail with a typed error, and a
//! corrupted partial must be detected, retried around, and pinned in
//! the fault counters (DESIGN.md §17).

use cryptonn_fe::threshold::{deal_authorities, lagrange_at_zero, recombine_scalars};
use cryptonn_fe::{
    febo, local_threshold_service, BasicOp, FeError, FeboKeyRequest, FeboPartial, FeipPublicKey,
    KeyAuthority, KeyService, LocalShareClient, PermittedFunctions, ShareClient, ShareClientError,
    ThresholdKeyService, ThresholdSetup, ThresholdStats,
};
use cryptonn_group::{Scalar, SchnorrGroup, SecurityLevel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn group() -> SchnorrGroup {
    SchnorrGroup::precomputed(SecurityLevel::Bits64)
}

/// All size-`t` subsets of the 1-based node indices `1..=n`.
fn index_subsets(n: usize, t: usize) -> Vec<Vec<u32>> {
    (0u32..1 << n)
        .filter(|mask| mask.count_ones() as usize == t)
        .map(|mask| {
            (1..=n as u32)
                .filter(|i| mask & (1 << (i - 1)) != 0)
                .collect()
        })
        .collect()
}

/// Builds a combiner over exactly the nodes in `subset` (1-based
/// indices) of an already-dealt deployment.
fn service_over_subset(
    group: &SchnorrGroup,
    seed: u64,
    setup: ThresholdSetup,
    subset: &[u32],
) -> ThresholdKeyService {
    let authorities = deal_authorities(group.clone(), PermittedFunctions::all(), seed, setup);
    let febo_mpk = authorities[0].febo_public_key();
    let commitments = authorities[0].febo_commitments().to_vec();
    let nodes = subset
        .iter()
        .map(|&i| {
            Box::new(LocalShareClient::new(authorities[(i - 1) as usize].clone()))
                as Box<dyn ShareClient>
        })
        .collect();
    ThresholdKeyService::new(group.clone(), setup, febo_mpk, commitments, nodes)
        .expect("freshly dealt commitments anchor")
}

/// One FEBO request per operation against a fresh commitment under the
/// deployment's common public key.
fn febo_requests(single: &KeyAuthority, seed: u64) -> Vec<FeboKeyRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mpk = single.febo_public_key();
    [
        (BasicOp::Add, 9),
        (BasicOp::Sub, -4),
        (BasicOp::Mul, 3),
        (BasicOp::Div, 5),
    ]
    .into_iter()
    .map(|(op, y)| FeboKeyRequest {
        cmt: *febo::encrypt(&mpk, 30, &mut rng).commitment(),
        op,
        y,
    })
    .collect()
}

/// The tentpole identity, exhaustively: for every `1 ≤ t ≤ n ≤ 5` and
/// every one of the C(n, t) live-node subsets, the recombined FEIP and
/// FEBO keys are bit-identical to the single authority's.
#[test]
fn every_t_subset_recombines_to_the_single_authority_keys() {
    let group = group();
    let seed = 9001;
    let ys = vec![vec![3, -1, 2], vec![0, 5, -7]];
    for n in 1..=5u32 {
        for t in 1..=n {
            let single = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), seed);
            let expected_mpk = single.feip_public_key(3);
            let expected_ip = KeyService::derive_ip_keys(&single, 3, &ys).unwrap();
            let reqs = febo_requests(&single, seed ^ u64::from(n * 8 + t));
            let expected_bo = KeyService::derive_bo_keys(&single, &reqs).unwrap();

            let setup = ThresholdSetup::new(n, t).unwrap();
            for subset in index_subsets(n as usize, t as usize) {
                let service = service_over_subset(&group, seed, setup, &subset);
                assert_eq!(
                    KeyService::feip_public_key(&service, 3).unwrap(),
                    expected_mpk,
                    "n={n} t={t} subset {subset:?}"
                );
                assert_eq!(
                    service.derive_ip_keys(3, &ys).unwrap(),
                    expected_ip,
                    "n={n} t={t} subset {subset:?}"
                );
                assert_eq!(
                    service.derive_bo_keys(&reqs).unwrap(),
                    expected_bo,
                    "n={n} t={t} subset {subset:?}"
                );
                assert_eq!(service.stats(), ThresholdStats::default());
            }
        }
    }
}

/// Both embedded security levels, each with its authority seed:
/// recombination is exact under each modulus (different
/// carry/reduction paths must not perturb a single bit of the
/// aggregated key).
const ALL_LEVELS: [(SecurityLevel, u64); 2] = [
    (SecurityLevel::Bits64, 0xBEEE),
    (SecurityLevel::Bits256Fast, 0xBEE9),
];

#[test]
fn recombination_is_exact_at_every_security_level() {
    for (level, seed) in ALL_LEVELS {
        let group = SchnorrGroup::precomputed(level);
        let single = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), seed);
        let service = local_threshold_service(
            group.clone(),
            PermittedFunctions::all(),
            seed,
            ThresholdSetup::new(3, 2).unwrap(),
        );
        let ys = vec![vec![4, -3]];
        assert_eq!(
            service.derive_ip_keys(2, &ys).unwrap(),
            KeyService::derive_ip_keys(&single, 2, &ys).unwrap(),
            "level {level:?}"
        );
        let reqs = febo_requests(&single, seed);
        assert_eq!(
            service.derive_bo_keys(&reqs).unwrap(),
            KeyService::derive_bo_keys(&single, &reqs).unwrap(),
            "level {level:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random `(n, t)` deployments and weight vectors: the combiner
    /// over a full in-process fleet always reproduces the single
    /// authority bit-for-bit.
    #[test]
    fn random_grid_matches_single_authority(
        n in 1u32..=5,
        t_sel in 0u32..5,
        y in proptest::collection::vec(-200i64..=200, 1..6),
        seed in any::<u64>(),
    ) {
        let t = 1 + t_sel % n;
        let group = group();
        let single = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), seed);
        let service = local_threshold_service(
            group.clone(),
            PermittedFunctions::all(),
            seed,
            ThresholdSetup::new(n, t).unwrap(),
        );
        let dim = y.len();
        prop_assert_eq!(
            service.derive_ip_key(dim, &y).unwrap(),
            single.derive_ip_key(dim, &y).unwrap()
        );
        let reqs = febo_requests(&single, seed);
        prop_assert_eq!(
            service.derive_bo_keys(&reqs).unwrap(),
            KeyService::derive_bo_keys(&single, &reqs).unwrap()
        );
    }

    /// `t − 1` shares reveal nothing that recombines to the secret:
    /// interpolating any deficient subset yields a scalar different
    /// from the full-quorum key.
    #[test]
    fn deficient_subsets_do_not_recombine(seed in any::<u64>()) {
        let group = group();
        let setup = ThresholdSetup::new(4, 3).unwrap();
        let authorities =
            deal_authorities(group.clone(), PermittedFunctions::all(), seed, setup);
        let y = vec![2i64, -5, 1];
        let quorum: Vec<Scalar> = (0..3)
            .map(|i| authorities[i].feip_partials(3, std::slice::from_ref(&y)).unwrap()[0])
            .collect();
        let xs = [1u32, 2, 3];
        let truth = recombine_scalars(&group, &xs, &quorum);
        // Every 2-subset (t − 1) misses the polynomial's constant term.
        for pair in [[0usize, 1], [0, 2], [1, 2]] {
            let xs: Vec<u32> = pair.iter().map(|&i| i as u32 + 1).collect();
            let partials: Vec<Scalar> = pair.iter().map(|&i| quorum[i]).collect();
            let lam = lagrange_at_zero(&group, &xs);
            prop_assert_eq!(lam.len(), 2);
            prop_assert_ne!(recombine_scalars(&group, &xs, &partials), truth);
        }
    }
}

/// Below quorum the combiner fails closed with the typed
/// [`FeError::InsufficientShares`] — never a silently wrong key.
#[test]
fn below_quorum_fails_with_typed_error() {
    let group = group();
    let setup = ThresholdSetup::new(3, 2).unwrap();
    let service = service_over_subset(&group, 31337, setup, &[2]);
    match service.derive_ip_keys(3, &[vec![1, 2, 3]]) {
        Err(FeError::InsufficientShares { have, need }) => {
            assert_eq!((have, need), (1, 2));
        }
        other => panic!("expected InsufficientShares, got {other:?}"),
    }
    assert_eq!(service.stats().quorum_failures, 1);

    // The FEBO path fails closed the same way.
    let single = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), 31337);
    let service = service_over_subset(&group, 31337, setup, &[3]);
    match service.derive_bo_keys(&febo_requests(&single, 1)) {
        Err(FeError::InsufficientShares { have, need }) => {
            assert_eq!((have, need), (1, 2));
        }
        other => panic!("expected InsufficientShares, got {other:?}"),
    }
}

/// A [`ShareClient`] that tampers with its partials — the adversarial
/// node of the conformance suite.
struct CorruptClient {
    inner: LocalShareClient,
    group: SchnorrGroup,
    corrupt_feip: bool,
    corrupt_febo: bool,
}

impl ShareClient for CorruptClient {
    fn index(&self) -> u32 {
        self.inner.index()
    }

    fn feip_public_key(&mut self, dim: usize) -> Result<FeipPublicKey, ShareClientError> {
        self.inner.feip_public_key(dim)
    }

    fn feip_partials(
        &mut self,
        dim: usize,
        ys: &[Vec<i64>],
    ) -> Result<Vec<Scalar>, ShareClientError> {
        let mut partials = self.inner.feip_partials(dim, ys)?;
        if self.corrupt_feip {
            for p in &mut partials {
                *p = self.group.scalar_add(p, &Scalar::ONE);
            }
        }
        Ok(partials)
    }

    fn febo_partials(
        &mut self,
        reqs: &[FeboKeyRequest],
    ) -> Result<Vec<FeboPartial>, ShareClientError> {
        let mut partials = self.inner.febo_partials(reqs)?;
        if self.corrupt_febo {
            for p in &mut partials {
                p.d = self.group.mul(&p.d, &self.group.generator());
            }
        }
        Ok(partials)
    }
}

fn service_with_corrupt_node(
    group: &SchnorrGroup,
    seed: u64,
    bad_index: u32,
    corrupt_feip: bool,
    corrupt_febo: bool,
) -> ThresholdKeyService {
    let setup = ThresholdSetup::new(3, 2).unwrap();
    let authorities = deal_authorities(group.clone(), PermittedFunctions::all(), seed, setup);
    let febo_mpk = authorities[0].febo_public_key();
    let commitments = authorities[0].febo_commitments().to_vec();
    let nodes = authorities
        .into_iter()
        .map(|a| {
            let inner = LocalShareClient::new(a);
            if inner.index() == bad_index {
                Box::new(CorruptClient {
                    inner,
                    group: group.clone(),
                    corrupt_feip,
                    corrupt_febo,
                }) as Box<dyn ShareClient>
            } else {
                Box::new(inner) as Box<dyn ShareClient>
            }
        })
        .collect();
    ThresholdKeyService::new(group.clone(), setup, febo_mpk, commitments, nodes).unwrap()
}

/// A corrupted FEIP partial: the tampered subsets fail the public
/// commitment check, the honest quorum validates on retry, the cheater
/// is identified off the quorum polynomial and evicted — and the final
/// key is still bit-identical to the single authority's. The counters
/// are pinned: with the cheater at index 1, the two subsets containing
/// it fail (`validation_retries = 2`) before `{2, 3}` validates.
#[test]
fn corrupt_feip_partial_is_detected_retried_and_evicted() {
    let group = group();
    let seed = 777;
    let single = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), seed);
    let service = service_with_corrupt_node(&group, seed, 1, true, false);
    let ys = vec![vec![6, -2, 9], vec![1, 1, -1]];
    assert_eq!(
        service.derive_ip_keys(3, &ys).unwrap(),
        KeyService::derive_ip_keys(&single, 3, &ys).unwrap()
    );
    assert_eq!(
        service.stats(),
        ThresholdStats {
            nodes_evicted: 1,
            invalid_partials: 1,
            validation_retries: 2,
            quorum_failures: 0,
        }
    );
    assert_eq!(service.live_nodes(), 2);
    // Eviction is permanent; the surviving exact-quorum still derives
    // correct keys with no further retries.
    let more = vec![vec![-3, 0, 4]];
    assert_eq!(
        service.derive_ip_keys(3, &more).unwrap(),
        KeyService::derive_ip_keys(&single, 3, &more).unwrap()
    );
    assert_eq!(service.stats().validation_retries, 2);
}

/// A corrupted FEBO partial fails its DLEQ proof against the published
/// share commitment, the node is evicted up front, and the key
/// recombined from the honest pair matches the single authority's.
#[test]
fn corrupt_febo_partial_fails_dleq_and_is_evicted() {
    let group = group();
    let seed = 778;
    let single = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), seed);
    let service = service_with_corrupt_node(&group, seed, 2, false, true);
    let reqs = febo_requests(&single, seed);
    assert_eq!(
        service.derive_bo_keys(&reqs).unwrap(),
        KeyService::derive_bo_keys(&single, &reqs).unwrap()
    );
    assert_eq!(
        service.stats(),
        ThresholdStats {
            nodes_evicted: 1,
            invalid_partials: 1,
            validation_retries: 1,
            quorum_failures: 0,
        }
    );
    assert_eq!(service.live_nodes(), 2);
}

/// With more cheaters than the deployment can absorb, no subset
/// validates and the FEIP combiner reports the typed
/// [`FeError::SharesTampered`] rather than returning a wrong key.
#[test]
fn too_many_corrupt_shares_fail_closed() {
    let group = group();
    let setup = ThresholdSetup::new(2, 2).unwrap();
    let authorities = deal_authorities(group.clone(), PermittedFunctions::all(), 779, setup);
    let febo_mpk = authorities[0].febo_public_key();
    let commitments = authorities[0].febo_commitments().to_vec();
    let nodes = authorities
        .into_iter()
        .map(|a| {
            Box::new(CorruptClient {
                inner: LocalShareClient::new(a),
                group: group.clone(),
                corrupt_feip: true,
                corrupt_febo: false,
            }) as Box<dyn ShareClient>
        })
        .collect();
    let service =
        ThresholdKeyService::new(group.clone(), setup, febo_mpk, commitments, nodes).unwrap();
    match service.derive_ip_keys(2, &[vec![1, -1]]) {
        Err(FeError::SharesTampered { subsets_tried }) => assert_eq!(subsets_tried, 1),
        other => panic!("expected SharesTampered, got {other:?}"),
    }
}
