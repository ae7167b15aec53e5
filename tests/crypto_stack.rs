//! Integration tests across the crypto stack:
//! bigint → group → FE → authority.

use cryptonn_fe::{febo, feip, BasicOp, KeyAuthority, PermittedFunctions};
use cryptonn_group::{DlogTable, SchnorrGroup, SecurityLevel};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[test]
fn fe_works_at_every_precomputed_security_level() {
    // The same FE code must run unchanged at both embedded group sizes
    // (the paper's evaluation uses 256-bit; tests default lower).
    for level in [SecurityLevel::Bits64, SecurityLevel::Bits256Fast] {
        let group = SchnorrGroup::precomputed(level);
        let mut rng = StdRng::seed_from_u64(1);
        let table = DlogTable::new(&group, 10_000);

        let (mpk, msk) = feip::setup(group.clone(), 3, &mut rng);
        let ct = feip::encrypt(&mpk, &[7, -8, 9], &mut rng).unwrap();
        let sk = feip::key_derive(&group, &msk, &[1, 2, 3]).unwrap();
        assert_eq!(
            feip::decrypt(&mpk, &ct, &sk, &[1, 2, 3], &table).unwrap(),
            7 - 16 + 27,
            "FEIP at {level:?}"
        );

        let (bmpk, bmsk) = febo::setup(group.clone(), &mut rng);
        let ct = febo::encrypt(&bmpk, -55, &mut rng);
        let sk = febo::key_derive(&group, &bmsk, ct.commitment(), BasicOp::Mul, -3).unwrap();
        assert_eq!(
            febo::decrypt(&bmpk, &sk, &ct, BasicOp::Mul, -3, &table).unwrap(),
            165,
            "FEBO at {level:?}"
        );
    }
}

#[test]
fn fe_works_over_a_freshly_generated_group() {
    // GroupGen(1^λ) end-to-end: generate a small safe-prime group and
    // run both schemes over it.
    let mut rng = StdRng::seed_from_u64(2);
    let group = SchnorrGroup::generate(40, &mut rng);
    let table = DlogTable::new(&group, 1_000);

    let (mpk, msk) = feip::setup(group.clone(), 2, &mut rng);
    let ct = feip::encrypt(&mpk, &[11, 13], &mut rng).unwrap();
    let sk = feip::key_derive(&group, &msk, &[2, 5]).unwrap();
    assert_eq!(feip::decrypt(&mpk, &ct, &sk, &[2, 5], &table).unwrap(), 87);
}

#[test]
fn multiple_clients_share_one_public_key() {
    // The paper's "distributed data source" property: ciphertexts from
    // different clients under the same mpk decrypt with the same keys.
    let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
    let authority = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), 3);
    let mpk = authority.feip_public_key(2);
    let table = DlogTable::new(&group, 1_000);

    let mut client_a = StdRng::seed_from_u64(100);
    let mut client_b = StdRng::seed_from_u64(200);
    let ct_a = feip::encrypt(&mpk, &[1, 2], &mut client_a).unwrap();
    let ct_b = feip::encrypt(&mpk, &[30, 40], &mut client_b).unwrap();

    let w = [5i64, 6];
    let sk = authority.derive_ip_key(2, &w).unwrap();
    assert_eq!(feip::decrypt(&mpk, &ct_a, &sk, &w, &table).unwrap(), 17);
    assert_eq!(feip::decrypt(&mpk, &ct_b, &sk, &w, &table).unwrap(), 390);
}

#[test]
fn serde_roundtrips_ciphertexts_and_keys() {
    // Ciphertexts, public keys and function keys travel between roles;
    // they must serialize losslessly.
    let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
    let mut rng = StdRng::seed_from_u64(4);
    let (mpk, msk) = feip::setup(group.clone(), 3, &mut rng);
    let ct = feip::encrypt(&mpk, &[1, 2, 3], &mut rng).unwrap();
    let sk = feip::key_derive(&group, &msk, &[4, 5, 6]).unwrap();

    let mpk2: cryptonn_fe::FeipPublicKey =
        serde_json::from_str(&serde_json::to_string(&mpk).unwrap()).unwrap();
    let ct2: cryptonn_fe::FeipCiphertext =
        serde_json::from_str(&serde_json::to_string(&ct).unwrap()).unwrap();
    let sk2: cryptonn_fe::FeipFunctionKey =
        serde_json::from_str(&serde_json::to_string(&sk).unwrap()).unwrap();

    let table = DlogTable::new(&group, 1_000);
    assert_eq!(
        feip::decrypt(&mpk2, &ct2, &sk2, &[4, 5, 6], &table).unwrap(),
        32
    );
}

#[test]
fn dlog_bounds_are_respected_through_the_stack() {
    let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
    let mut rng = StdRng::seed_from_u64(5);
    let (mpk, msk) = feip::setup(group.clone(), 2, &mut rng);
    let small_table = DlogTable::new(&group, 10);
    let ct = feip::encrypt(&mpk, &[100, 100], &mut rng).unwrap();
    let sk = feip::key_derive(&group, &msk, &[3, 4]).unwrap();
    // 700 exceeds the bound of 10 → typed error, not a wrong answer.
    assert!(matches!(
        feip::decrypt(&mpk, &ct, &sk, &[3, 4], &small_table),
        Err(cryptonn_fe::FeError::Group(
            cryptonn_group::GroupError::DlogOutOfRange { bound: 10 }
        ))
    ));
}

#[test]
fn fuzz_feip_many_random_instances() {
    let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
    let table = DlogTable::new(&group, 3_000_000);
    let mut rng = StdRng::seed_from_u64(6);
    for round in 0..16 {
        let dim = rng.random_range(1..=12);
        let (mpk, msk) = feip::setup(group.clone(), dim, &mut rng);
        let x: Vec<i64> = (0..dim).map(|_| rng.random_range(-500..=500)).collect();
        let y: Vec<i64> = (0..dim).map(|_| rng.random_range(-500..=500)).collect();
        let ct = feip::encrypt(&mpk, &x, &mut rng).unwrap();
        let sk = feip::key_derive(&group, &msk, &y).unwrap();
        let expect: i64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert_eq!(
            feip::decrypt(&mpk, &ct, &sk, &y, &table).unwrap(),
            expect,
            "round {round}, dim {dim}"
        );
    }
}
