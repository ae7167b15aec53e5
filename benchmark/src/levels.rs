//! The nesting levels under a secure dot-product, each callable on its
//! own with operands of one shape: `secure_dot` (smc) →
//! `feip::decrypt_cells` (fe) → multi-scalar exponentiation and bounded
//! discrete logs (group). Traces and layer probes both push operands
//! through these.

use cryptonn_fe::{
    febo, feip, BasicOp, FeboFunctionKey, FeboPublicKey, FeipCiphertext, FeipFunctionKey,
    FeipPublicKey, KeyAuthority,
};
use cryptonn_group::{
    DlogTable, Element, ElementRatio, FixedBaseTable, OddPowerTables, SchnorrGroup, WnafScalars,
    LANES,
};
use cryptonn_matrix::Matrix;
use cryptonn_nn::{softmax, Activation, ActivationLayer, Dense, Layer, Sequential};
use cryptonn_parallel::Parallelism;
use cryptonn_smc::{
    derive_dot_keys, derive_elementwise_keys, secure_dot, secure_elementwise, EncryptedMatrix,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `FIXED_BASE_THRESHOLD` of `cryptonn_fe::feip`: from this many key
/// rows on, `decrypt_cells` builds a comb table per `ct0`.
const COMB_FROM_ROWS: usize = 4;

/// Operands of one secure dot-product `wq · xq`: `rows` key rows of
/// dimension `dim` against `cts` encrypted columns.
pub struct DotOperands {
    pub group: SchnorrGroup,
    pub mpk: FeipPublicKey,
    pub enc: EncryptedMatrix,
    pub keys: Vec<FeipFunctionKey>,
    pub wq: Matrix<i64>,
    pub table: DlogTable,
    /// Synthetic ciphertext elements for the group level (the real ones
    /// are private to `cryptonn-fe`): per ciphertext, `dim` bases and `ct0`.
    bases: Vec<(Vec<Element>, Element)>,
    recoded: Vec<WnafScalars>,
    /// `g^v` for every cell value `v`, ciphertext-major: what the dlog
    /// phase of `decrypt_cells` is handed.
    targets: Vec<Element>,
}

fn max_abs(m: &Matrix<i64>) -> u64 {
    m.as_slice()
        .iter()
        .map(|v| v.unsigned_abs())
        .max()
        .unwrap_or(0)
        .max(1)
}

impl DotOperands {
    /// Encrypts `xq` (`dim × cts`) and derives keys for `wq` (`rows × dim`).
    pub fn new(
        authority: &KeyAuthority,
        xq: &Matrix<i64>,
        wq: &Matrix<i64>,
        rng: &mut StdRng,
    ) -> Self {
        let group = authority.group().clone();
        let dim = xq.rows();
        assert_eq!(wq.cols(), dim, "operand shapes disagree");
        let mpk = authority.feip_public_key(dim);
        let enc = EncryptedMatrix::encrypt_columns(xq, &mpk, rng).expect("encrypt probe columns");
        let keys = derive_dot_keys(authority, wq).expect("derive probe keys");
        let bound = (dim as u64 * max_abs(xq) * max_abs(wq)).next_power_of_two();
        let table = DlogTable::new(&group, bound);
        let random = |rng: &mut StdRng| group.exp(&group.random_scalar(rng));
        let bases = (0..xq.cols())
            .map(|_| ((0..dim).map(|_| random(rng)).collect(), random(rng)))
            .collect();
        let recoded = (0..wq.rows())
            .map(|r| WnafScalars::recode(wq.row(r)))
            .collect();
        let product = wq.matmul(xq);
        let mut targets = Vec::with_capacity(product.len());
        for c in 0..xq.cols() {
            for r in 0..wq.rows() {
                targets.push(group.exp(&group.scalar_from_i64(product[(r, c)])));
            }
        }
        Self {
            group,
            mpk,
            enc,
            keys,
            wq: wq.clone(),
            table,
            bases,
            recoded,
            targets,
        }
    }

    pub fn cells(&self) -> usize {
        self.targets.len()
    }

    fn columns(&self) -> &[FeipCiphertext] {
        self.enc
            .feip_columns()
            .expect("probe matrix has FEIP columns")
    }

    /// smc level: `secure_dot`.
    pub fn smc_secure_dot(&self, par: Parallelism) -> Matrix<i64> {
        secure_dot(&self.mpk, &self.enc, &self.keys, &self.wq, &self.table, par)
            .expect("secure_dot on probe operands")
    }

    /// fe level: `feip::decrypt_cells`.
    pub fn fe_decrypt_cells(&self, par: Parallelism) -> Vec<i64> {
        let rows: Vec<&[i64]> = (0..self.wq.rows()).map(|r| self.wq.row(r)).collect();
        feip::decrypt_cells(
            &self.mpk,
            self.columns(),
            &self.keys,
            &rows,
            &self.table,
            par,
        )
        .expect("decrypt_cells on probe operands")
    }

    /// group level, first half: the exponentiation work of
    /// `decrypt_cells` through the group's public entry points — odd-power
    /// tables per ciphertext, one (lane-batched) multi-scalar ratio and
    /// one `ct0^sk` per cell, one batched inversion.
    pub fn group_multi_scalar(&self) -> Vec<Element> {
        let g = &self.group;
        let comb = self.keys.len() >= COMB_FROM_ROWS;
        let pre: Vec<(OddPowerTables, Option<FixedBaseTable>)> = self
            .bases
            .iter()
            .map(|(b, ct0)| (g.odd_power_tables(b), comb.then(|| g.fixed_base_table(ct0))))
            .collect();
        let mut ratios: Vec<ElementRatio> = Vec::with_capacity(self.cells());
        for (scalars, key) in self.recoded.iter().zip(&self.keys) {
            let sk = key.scalar();
            for (stride, lanes) in pre.chunks(LANES).enumerate() {
                if let [a, b, c, d] = lanes {
                    let nums = g.multi_scalar_ratio_lanes([&a.0, &b.0, &c.0, &d.0], scalars);
                    let dens: [Element; LANES] = match (&a.1, &b.1, &c.1, &d.1) {
                        (Some(ta), Some(tb), Some(tc), Some(td)) => {
                            g.exp_tables_lanes([ta, tb, tc, td], sk)
                        }
                        _ => core::array::from_fn(|i| g.pow(&self.bases[stride * LANES + i].1, sk)),
                    };
                    ratios.extend((0..LANES).map(|i| nums[i].div_by(g, &dens[i])));
                } else {
                    for (i, (tables, ct0_table)) in lanes.iter().enumerate() {
                        let den = match ct0_table {
                            Some(t) => g.exp_table(t, sk),
                            None => g.pow(&self.bases[stride * LANES + i].1, sk),
                        };
                        ratios.push(g.multi_scalar_ratio(tables, scalars).div_by(g, &den));
                    }
                }
            }
        }
        g.resolve_ratios(&ratios)
    }

    /// group level, second half: `DlogTable::solve_batch` over every cell.
    pub fn group_dlog_solve(&self) -> usize {
        self.table
            .solve_batch(&self.group, &self.targets)
            .into_iter()
            .filter(|r| r.is_ok())
            .count()
    }
}

/// Operands of one secure first-layer gradient `dq · xqᵀ`: `k` delta
/// rows combined over `m` encrypted columns of dimension `n`, each
/// combination read out coordinate by coordinate.
pub struct GradOperands {
    pub group: SchnorrGroup,
    pub mpk: FeipPublicKey,
    columns: Vec<FeipCiphertext>,
    dq: Matrix<i64>,
    unit_keys: Vec<FeipFunctionKey>,
    pub table: DlogTable,
    /// `g^v` for every gradient coordinate `v`.
    targets: Vec<Element>,
}

impl GradOperands {
    /// Encrypts `xq` (`n × m`) and prepares the `k × m` weights `dq`.
    pub fn new(
        authority: &KeyAuthority,
        xq: &Matrix<i64>,
        dq: &Matrix<i64>,
        rng: &mut StdRng,
    ) -> Self {
        let group = authority.group().clone();
        let n = xq.rows();
        assert_eq!(dq.cols(), xq.cols(), "operand shapes disagree");
        let mpk = authority.feip_public_key(n);
        let enc = EncryptedMatrix::encrypt_columns(xq, &mpk, rng).expect("encrypt probe columns");
        let columns = enc.feip_columns().expect("FEIP columns").to_vec();
        let unit_keys =
            cryptonn_core::secure_steps::derive_unit_keys(authority, n).expect("unit keys");
        let bound = (xq.cols() as u64 * max_abs(dq) * max_abs(xq)).next_power_of_two();
        let table = DlogTable::new(&group, bound);
        let grad = dq.matmul(&xq.transpose());
        let targets = grad
            .as_slice()
            .iter()
            .map(|&v| group.exp(&group.scalar_from_i64(v)))
            .collect();
        Self {
            group,
            mpk,
            columns,
            dq: dq.clone(),
            unit_keys,
            table,
            targets,
        }
    }

    pub fn coordinates(&self) -> usize {
        self.targets.len()
    }

    /// fe level: one `feip::combine` per delta row.
    pub fn fe_combine(&self) -> Vec<FeipCiphertext> {
        let refs: Vec<&FeipCiphertext> = self.columns.iter().collect();
        (0..self.dq.rows())
            .map(|i| {
                feip::combine(&self.mpk, &refs, self.dq.row(i)).expect("combine probe columns")
            })
            .collect()
    }

    /// fe level: `feip::decrypt_coordinates` of every combination.
    pub fn fe_decrypt_coordinates(&self, combined: &[FeipCiphertext]) -> usize {
        combined
            .iter()
            .map(|ct| {
                feip::decrypt_coordinates(&self.mpk, ct, &self.unit_keys, &self.table)
                    .expect("decrypt_coordinates on probe operands")
                    .len()
            })
            .sum()
    }

    /// group level: `DlogTable::solve_batch` over every coordinate.
    pub fn group_dlog_solve(&self) -> usize {
        self.table
            .solve_batch(&self.group, &self.targets)
            .into_iter()
            .filter(|r| r.is_ok())
            .count()
    }
}

/// Operands of one secure element-wise `Y − P` over FEBO ciphertexts.
pub struct ElemOperands {
    mpk: FeboPublicKey,
    enc: EncryptedMatrix,
    keys: Matrix<FeboFunctionKey>,
    pq: Matrix<i64>,
    table: DlogTable,
}

impl ElemOperands {
    pub fn new(
        authority: &KeyAuthority,
        yq: &Matrix<i64>,
        pq: &Matrix<i64>,
        rng: &mut StdRng,
    ) -> Self {
        let mpk = authority.febo_public_key();
        let enc = EncryptedMatrix::encrypt_elements(yq, &mpk, rng).expect("encrypt probe elements");
        let keys =
            derive_elementwise_keys(authority, &enc, BasicOp::Sub, pq).expect("element keys");
        let bound = ((max_abs(yq) + max_abs(pq)) * 2).next_power_of_two();
        let table = DlogTable::new(authority.group(), bound);
        Self {
            mpk,
            enc,
            keys,
            pq: pq.clone(),
            table,
        }
    }

    pub fn elements(&self) -> usize {
        self.pq.len()
    }

    /// smc level: `secure_elementwise`.
    pub fn smc_secure_elementwise(&self, par: Parallelism) -> Matrix<i64> {
        secure_elementwise(
            &self.mpk,
            &self.enc,
            &self.keys,
            BasicOp::Sub,
            &self.pq,
            &self.table,
            par,
        )
        .expect("secure_elementwise on probe operands")
    }

    /// fe level: one `febo::decrypt` per element.
    pub fn fe_febo_decrypt(&self) -> usize {
        let cts = self.enc.febo_elements().expect("FEBO elements");
        let mut n = 0;
        for i in 0..self.pq.rows() {
            for j in 0..self.pq.cols() {
                febo::decrypt(
                    &self.mpk,
                    &self.keys[(i, j)],
                    &cts[(i, j)],
                    BasicOp::Sub,
                    self.pq[(i, j)],
                    &self.table,
                )
                .expect("febo decrypt on probe operands");
                n += 1;
            }
        }
        n
    }
}

/// The first-layer delta (`hidden × batch`) a softmax cross-entropy
/// step back-propagates for `(x, y)` through a one-hidden-layer MLP of
/// `CryptoMlp::new`'s making — the plaintext operand of the secure
/// weight gradient, which the model itself does not hand out. The twin
/// draws its layers from `model_seed` in the order `CryptoMlp::new`
/// does; `first_weights` (the real model's) guards that order.
pub fn first_layer_delta(
    model_seed: u64,
    (dim, hidden, classes): (usize, usize, usize),
    first_weights: &Matrix<f64>,
    x: &Matrix<f64>,
    y: &Matrix<f64>,
) -> Matrix<f64> {
    let mut rng = StdRng::seed_from_u64(model_seed);
    let mut first = Dense::new(dim, hidden, &mut rng);
    let mut rest = Sequential::new();
    rest.push(ActivationLayer::new(Activation::Sigmoid));
    rest.push(Dense::new(hidden, classes, &mut rng));
    assert_eq!(
        first.weights(),
        first_weights,
        "the plaintext twin no longer mirrors CryptoMlp::new"
    );
    let z1 = first.forward(x, true);
    let out = rest.forward(&z1, true);
    let grad_out = softmax(&out).sub(y).scale(1.0 / x.rows() as f64);
    rest.backward(&grad_out).transpose()
}
