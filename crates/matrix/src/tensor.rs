//! 4-D tensors in NCHW layout for convolutional layers.

use core::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// A dense 4-D tensor with `(batch, channels, height, width)` layout —
/// the standard NCHW arrangement for convolutional networks.
///
/// ```
/// use cryptonn_matrix::Tensor4;
///
/// let mut t = Tensor4::zeros(1, 1, 2, 2);
/// t[(0, 0, 1, 1)] = 5.0;
/// assert_eq!(t[(0, 0, 1, 1)], 5.0);
/// assert_eq!(t.shape(), (1, 1, 2, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor4 {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    data: Vec<f64>,
}

impl Tensor4 {
    /// Creates a zero tensor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        assert!(
            n > 0 && c > 0 && h > 0 && w > 0,
            "tensor dimensions must be positive"
        );
        Self {
            n,
            c,
            h,
            w,
            data: vec![0.0; n * c * h * w],
        }
    }

    /// Creates a tensor from an NCHW-ordered data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n*c*h*w` or any dimension is zero.
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, data: Vec<f64>) -> Self {
        assert!(
            n > 0 && c > 0 && h > 0 && w > 0,
            "tensor dimensions must be positive"
        );
        assert_eq!(data.len(), n * c * h * w, "data length must equal n*c*h*w");
        Self { n, c, h, w, data }
    }

    /// `(batch, channels, height, width)`.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Batch size.
    pub fn batch(&self) -> usize {
        self.n
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.c
    }

    /// Spatial height.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Spatial width.
    pub fn width(&self) -> usize {
        self.w
    }

    /// The underlying NCHW data slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    fn offset(&self, n: usize, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(n < self.n && c < self.c && y < self.h && x < self.w);
        ((n * self.c + c) * self.h + y) * self.w + x
    }

    /// One image plane `(n, c)` as an `h × w` matrix copy.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `c` is out of range.
    pub fn plane(&self, n: usize, c: usize) -> Matrix<f64> {
        assert!(n < self.n && c < self.c, "plane index out of bounds");
        let start = self.offset(n, c, 0, 0);
        Matrix::from_vec(
            self.h,
            self.w,
            self.data[start..start + self.h * self.w].to_vec(),
        )
    }

    /// Zero-pads every spatial plane by `pad` on each side.
    pub fn pad(&self, pad: usize) -> Self {
        if pad == 0 {
            return self.clone();
        }
        let mut out = Self::zeros(self.n, self.c, self.h + 2 * pad, self.w + 2 * pad);
        for n in 0..self.n {
            for c in 0..self.c {
                for y in 0..self.h {
                    let src = self.offset(n, c, y, 0);
                    let dst = out.offset(n, c, y + pad, pad);
                    out.data[dst..dst + self.w].copy_from_slice(&self.data[src..src + self.w]);
                }
            }
        }
        out
    }

    /// Flattens to `(batch, c*h*w)` — the Flatten layer's forward shape.
    pub fn flatten(&self) -> Matrix<f64> {
        Matrix::from_vec(self.n, self.c * self.h * self.w, self.data.clone())
    }

    /// Rebuilds a tensor from a `(batch, c*h*w)` matrix — the Flatten
    /// layer's backward shape.
    ///
    /// # Panics
    ///
    /// Panics if `m.cols() != c*h*w`.
    pub fn from_flat(m: &Matrix<f64>, c: usize, h: usize, w: usize) -> Self {
        assert_eq!(m.cols(), c * h * w, "flat width must equal c*h*w");
        Self::from_vec(m.rows(), c, h, w, m.as_slice().to_vec())
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self {
            data: self.data.iter().map(|&v| f(v)).collect(),
            ..*self
        }
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
            ..*self
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Self {
        self.map(|v| v * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
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

impl Index<(usize, usize, usize, usize)> for Tensor4 {
    type Output = f64;

    fn index(&self, (n, c, y, x): (usize, usize, usize, usize)) -> &f64 {
        assert!(
            n < self.n && c < self.c && y < self.h && x < self.w,
            "tensor index out of bounds"
        );
        &self.data[self.offset(n, c, y, x)]
    }
}

impl IndexMut<(usize, usize, usize, usize)> for Tensor4 {
    fn index_mut(&mut self, (n, c, y, x): (usize, usize, usize, usize)) -> &mut f64 {
        assert!(
            n < self.n && c < self.c && y < self.h && x < self.w,
            "tensor index out of bounds"
        );
        let off = self.offset(n, c, y, x);
        &mut self.data[off]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_layout() {
        let mut t = Tensor4::zeros(2, 3, 4, 5);
        t[(1, 2, 3, 4)] = 9.0;
        assert_eq!(t.as_slice()[((3 + 2) * 4 + 3) * 5 + 4], 9.0);
        assert_eq!(t[(1, 2, 3, 4)], 9.0);
        assert_eq!(t[(0, 0, 0, 0)], 0.0);
    }

    #[test]
    fn pad_surrounds_with_zeros() {
        let t = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let p = t.pad(1);
        assert_eq!(p.shape(), (1, 1, 4, 4));
        assert_eq!(p[(0, 0, 0, 0)], 0.0);
        assert_eq!(p[(0, 0, 1, 1)], 1.0);
        assert_eq!(p[(0, 0, 2, 2)], 4.0);
        assert_eq!(p[(0, 0, 3, 3)], 0.0);
        // pad(0) is identity.
        assert_eq!(t.pad(0), t);
    }

    #[test]
    fn flatten_roundtrip() {
        let t = Tensor4::from_vec(2, 2, 2, 2, (0..16).map(f64::from).collect());
        let flat = t.flatten();
        assert_eq!(flat.shape(), (2, 8));
        assert_eq!(Tensor4::from_flat(&flat, 2, 2, 2), t);
    }

    #[test]
    fn plane_extracts_matrix() {
        let t = Tensor4::from_vec(1, 2, 2, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let p = t.plane(0, 1);
        assert_eq!(p, Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
    }

    #[test]
    fn arithmetic() {
        let t = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.scale(2.0).sum(), 20.0);
        assert_eq!(t.add(&t), t.scale(2.0));
        assert!(t.map(|v| v + 1.0).approx_eq(
            &Tensor4::from_vec(1, 1, 2, 2, vec![2.0, 3.0, 4.0, 5.0]),
            1e-12
        ));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_bounds_checked() {
        let t = Tensor4::zeros(1, 1, 2, 2);
        let _ = t[(0, 0, 2, 0)];
    }
}
