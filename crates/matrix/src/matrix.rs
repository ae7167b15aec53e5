//! Dense row-major matrices.
//!
//! The paper's prototype uses NumPy 2-D arrays for all neural-network
//! math; [`Matrix`] is the equivalent here. It is generic over the
//! element type so the same structure serves floating-point model math
//! (`Matrix<f64>`) and fixed-point/encrypted-domain integers
//! (`Matrix<i64>`).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

/// A dense, row-major `rows × cols` matrix.
///
/// ```
/// use cryptonn_matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// assert_eq!(a[(1, 0)], 3.0);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix({}x{}) [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            f.debug_list()
                .entries(self.data[r * self.cols..(r + 1) * self.cols].iter())
                .finish()?;
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl<T: Copy + Default> Matrix<T> {
    /// Creates a matrix filled with `T::default()` (zero for numbers).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }
}

impl<T: Copy> Matrix<T> {
    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(
            data.len(),
            rows * cols,
            "data length must equal rows * cols"
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty or have unequal lengths.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false (construction forbids empty matrices); provided for
    /// API completeness alongside [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major data slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consumes the matrix, returning the row-major data vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element at `(row, col)`, or `None` if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<&T> {
        if row < self.rows && col < self.cols {
            Some(&self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// A row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// A column, copied into a vector.
    ///
    /// # Panics
    ///
    /// Panics if `col >= cols`.
    pub fn col(&self, col: usize) -> Vec<T> {
        assert!(col < self.cols, "column index out of bounds");
        (0..self.rows)
            .map(|r| self.data[r * self.cols + col])
            .collect()
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.cols)
    }

    /// The transpose.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self.data[c * self.cols + r])
    }

    /// Applies `f` to every element, producing a new matrix.
    pub fn map<U: Copy>(&self, f: impl Fn(T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Combines two equal-shape matrices element-wise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map<U: Copy, V: Copy>(&self, other: &Matrix<U>, f: impl Fn(T, U) -> V) -> Matrix<V> {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Stacks `self` above `other`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn vstack(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.cols, "column count mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Self {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }
}

impl<T> Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        &self.data[row * self.cols + col]
    }
}

impl<T> IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        &mut self.data[row * self.cols + col]
    }
}

impl<T> Matrix<T>
where
    T: Copy + Default + Add<Output = T> + Mul<Output = T> + AddAssign,
{
    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = vec![T::default(); self.rows * other.cols];
        // ikj loop order keeps the inner loop contiguous in both `other`
        // and `out`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                let row_out = &mut out[i * other.cols..(i + 1) * other.cols];
                let row_b = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in row_out.iter_mut().zip(row_b) {
                    *o += a * b;
                }
            }
        }
        Self {
            rows: self.rows,
            cols: other.cols,
            data: out,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> T {
        let mut acc = T::default();
        for &v in &self.data {
            acc += v;
        }
        acc
    }

    /// Per-column sums as a `1 × cols` matrix (NumPy `sum(axis=0)`).
    pub fn sum_rows(&self) -> Self {
        let mut out = vec![T::default(); self.cols];
        for row in self.iter_rows() {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Self {
            rows: 1,
            cols: self.cols,
            data: out,
        }
    }

    /// Per-row sums as a `rows × 1` matrix (NumPy `sum(axis=1)`).
    pub fn sum_cols(&self) -> Self {
        let data = self
            .iter_rows()
            .map(|row| {
                let mut acc = T::default();
                for &v in row {
                    acc += v;
                }
                acc
            })
            .collect();
        Self {
            rows: self.rows,
            cols: 1,
            data,
        }
    }

    /// Identity matrix of size `n`, using `T::default()` as zero and
    /// requiring a unit produced by `one`.
    pub fn identity_with(n: usize, one: T) -> Self {
        let mut m = Self {
            rows: n,
            cols: n,
            data: vec![T::default(); n * n],
        };
        for i in 0..n {
            m.data[i * n + i] = one;
        }
        m
    }

    /// Adds `row` (a `1 × cols` matrix) to every row — NumPy-style bias
    /// broadcast.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `1 × self.cols`.
    pub fn add_row_broadcast(&self, row: &Self) -> Self {
        assert_eq!(row.rows, 1, "broadcast operand must be a single row");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        let mut out = self.clone();
        for r in out.data.chunks_exact_mut(self.cols) {
            for (o, &b) in r.iter_mut().zip(&row.data) {
                *o += b;
            }
        }
        out
    }

    /// Adds `col` (a `rows × 1` matrix) to every column.
    ///
    /// # Panics
    ///
    /// Panics if `col` is not `self.rows × 1`.
    pub fn add_col_broadcast(&self, col: &Self) -> Self {
        assert_eq!(col.cols, 1, "broadcast operand must be a single column");
        assert_eq!(col.rows, self.rows, "broadcast height mismatch");
        let mut out = self.clone();
        for (r, row) in out.data.chunks_exact_mut(self.cols).enumerate() {
            for o in row.iter_mut() {
                *o += col.data[r];
            }
        }
        out
    }
}

impl<T> Matrix<T>
where
    T: Copy + Add<Output = T>,
{
    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a + b)
    }
}

impl<T> Matrix<T>
where
    T: Copy + Sub<Output = T>,
{
    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a - b)
    }
}

impl<T> Matrix<T>
where
    T: Copy + Mul<Output = T>,
{
    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `scalar`.
    pub fn scale(&self, scalar: T) -> Self {
        self.map(|v| v * scalar)
    }
}

impl<T> Matrix<T>
where
    T: Copy + Neg<Output = T>,
{
    /// Element-wise negation.
    pub fn neg(&self) -> Self {
        self.map(|v| -v)
    }
}

impl Matrix<f64> {
    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self::identity_with(n, 1.0)
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Index of the maximum element in each row (NumPy
    /// `argmax(axis=1)`); ties resolve to the first maximum.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.iter_rows()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0, f64::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Frobenius-norm distance to another matrix, for approximate
    /// comparisons in tests.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn distance(&self, other: &Self) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Element-wise quotient.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn div_elem(&self, other: &Self) -> Self {
        self.zip_map(other, Div::div)
    }

    /// True when every element differs from `other` by at most `tol`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix<f64> {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn construction_and_shape() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(0, 3), None);
        assert_eq!(m.get(1, 2), Some(&6.0));
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_rows_checks_raggedness() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn rows_cols_access() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let m = sample();
        assert_eq!(m.matmul(&Matrix::identity(3)), m);
        assert_eq!(Matrix::identity(2).matmul(&m), m);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let m = sample();
        let _ = m.matmul(&sample());
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]);
        assert_eq!(
            a.add(&b),
            Matrix::from_rows(&[&[11.0, 22.0], &[33.0, 44.0]])
        );
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[9.0, 18.0], &[27.0, 36.0]]));
        assert_eq!(
            a.hadamard(&b),
            Matrix::from_rows(&[&[10.0, 40.0], &[90.0, 160.0]])
        );
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0], &[6.0, 8.0]]));
        assert_eq!(a.neg()[(0, 0)], -1.0);
        assert_eq!(
            b.div_elem(&a),
            Matrix::from_rows(&[&[10.0, 10.0], &[10.0, 10.0]])
        );
    }

    #[test]
    fn sums_and_means() {
        let m = sample();
        assert_eq!(m.sum(), 21.0);
        assert_eq!(m.mean(), 3.5);
        assert_eq!(m.sum_rows(), Matrix::from_rows(&[&[5.0, 7.0, 9.0]]));
        assert_eq!(m.sum_cols(), Matrix::from_rows(&[&[6.0], &[15.0]]));
    }

    #[test]
    fn broadcasts() {
        let m = sample();
        let bias = Matrix::from_rows(&[&[10.0, 20.0, 30.0]]);
        let out = m.add_row_broadcast(&bias);
        assert_eq!(
            out,
            Matrix::from_rows(&[&[11.0, 22.0, 33.0], &[14.0, 25.0, 36.0]])
        );
        let col = Matrix::from_rows(&[&[100.0], &[200.0]]);
        let out = m.add_col_broadcast(&col);
        assert_eq!(
            out,
            Matrix::from_rows(&[&[101.0, 102.0, 103.0], &[204.0, 205.0, 206.0]])
        );
    }

    #[test]
    fn argmax_rows_with_ties() {
        let m = Matrix::from_rows(&[&[0.1, 0.9, 0.5], &[2.0, 2.0, 1.0], &[-3.0, -1.0, -2.0]]);
        assert_eq!(m.argmax_rows(), vec![1, 0, 1]);
    }

    #[test]
    fn vstack_and_map() {
        let m = sample();
        let stacked = m.vstack(&m);
        assert_eq!(stacked.shape(), (4, 3));
        assert_eq!(stacked.row(2), m.row(0));
        let ints: Matrix<i64> = m.map(|v| v as i64);
        assert_eq!(ints[(1, 2)], 6);
    }

    #[test]
    fn integer_matrices_work() {
        let a: Matrix<i64> = Matrix::from_rows(&[&[1, -2], &[3, 4]]);
        let b: Matrix<i64> = Matrix::from_rows(&[&[5, 6], &[-7, 8]]);
        assert_eq!(a.matmul(&b)[(0, 0)], 19);
        assert_eq!(a.add(&b)[(1, 0)], -4);
        assert_eq!(a.sum(), 6);
    }

    #[test]
    fn distance_and_approx_eq() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0, 2.5]]);
        assert!((a.distance(&b) - 0.5).abs() < 1e-12);
        assert!(a.approx_eq(&b, 0.5));
        assert!(!a.approx_eq(&b, 0.4));
    }
}
