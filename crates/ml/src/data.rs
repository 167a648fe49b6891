//! Dense and sparse numeric containers used by the workloads.

/// A row-major dense matrix of `f64`.
///
/// # Examples
///
/// ```
/// use harmony_ml::DenseMatrix;
///
/// let mut m = DenseMatrix::zeros(2, 3);
/// m.set(1, 2, 5.0);
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every cell.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match dimensions");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
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

    /// Cell read.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Cell write.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of one row.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix into its flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }
}

/// A sparse vector with sorted unique indices.
///
/// # Examples
///
/// ```
/// use harmony_ml::SparseVector;
///
/// let v = SparseVector::new(8, vec![(1, 2.0), (5, -1.0)]);
/// assert_eq!(v.dot_dense(&[0.0, 3.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0]), 2.0);
/// assert_eq!(v.nnz(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVector {
    dim: usize,
    entries: Vec<(u32, f64)>,
}

impl SparseVector {
    /// Creates a sparse vector from `(index, value)` pairs; the pairs
    /// are sorted and indices must be unique and within `dim`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or duplicate indices.
    pub fn new(dim: usize, mut entries: Vec<(u32, f64)>) -> Self {
        entries.sort_by_key(|&(i, _)| i);
        for w in entries.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate index {}", w[0].0);
        }
        if let Some(&(last, _)) = entries.last() {
            assert!((last as usize) < dim, "index {last} out of dimension {dim}");
        }
        Self { dim, entries }
    }

    /// Creates a sparse vector from possibly-unsorted `(index, value)`
    /// pairs, merging duplicate indices by summing their values. Delta
    /// accumulation produces the same coordinate many times (e.g. one
    /// LDA token resampled back and forth), so unlike
    /// [`SparseVector::new`] this constructor welcomes duplicates.
    ///
    /// Merged values sum in the pairs' post-sort order, which for
    /// duplicates preserves their original relative order (stable
    /// sort) — deterministic bits for a deterministic input order.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    ///
    /// # Examples
    ///
    /// ```
    /// use harmony_ml::SparseVector;
    ///
    /// let v = SparseVector::from_unsorted_pairs(8, vec![(5, 1.0), (1, 2.0), (5, -3.0)]);
    /// let entries: Vec<(u32, f64)> = v.iter().collect();
    /// assert_eq!(entries, vec![(1, 2.0), (5, -2.0)]);
    /// ```
    pub fn from_unsorted_pairs(dim: usize, mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_by_key(|&(i, _)| i);
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            assert!((i as usize) < dim, "index {i} out of dimension {dim}");
            match entries.last_mut() {
                Some((last, acc)) if *last == i => *acc += v,
                _ => entries.push((i, v)),
            }
        }
        Self { dim, entries }
    }

    /// Dimension of the (conceptual) dense vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Iterates `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Dot product with a dense slice of length `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dense.len() != self.dim()`.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        assert_eq!(dense.len(), self.dim, "dimension mismatch");
        self.entries
            .iter()
            .map(|&(i, v)| v * dense[i as usize])
            .sum()
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| v * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip() {
        let mut m = DenseMatrix::zeros(3, 2);
        m.set(2, 1, 7.5);
        assert_eq!(m.get(2, 1), 7.5);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.as_slice().len(), 6);
    }

    #[test]
    fn dense_from_fn() {
        let m = DenseMatrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.row(1), &[10.0, 11.0]);
        assert_eq!(m.into_vec(), vec![0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn dense_row_mut() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.row_mut(0)[1] = 3.0;
        assert_eq!(m.get(0, 1), 3.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn dense_bounds_checked() {
        let m = DenseMatrix::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn dense_from_vec_checks_len() {
        let _ = DenseMatrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn sparse_sorts_entries() {
        let v = SparseVector::new(10, vec![(5, 1.0), (2, 2.0)]);
        let idx: Vec<u32> = v.iter().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![2, 5]);
    }

    #[test]
    fn sparse_dot_and_norm() {
        let v = SparseVector::new(4, vec![(0, 3.0), (3, 4.0)]);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(v.dot_dense(&[1.0, 9.0, 9.0, 1.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn sparse_rejects_duplicates() {
        let _ = SparseVector::new(4, vec![(1, 1.0), (1, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "out of dimension")]
    fn sparse_rejects_out_of_range() {
        let _ = SparseVector::new(2, vec![(5, 1.0)]);
    }

    #[test]
    fn from_unsorted_pairs_merges_duplicates() {
        let v = SparseVector::from_unsorted_pairs(6, vec![(4, 1.0), (0, 2.0), (4, 0.5), (0, -2.0)]);
        let entries: Vec<(u32, f64)> = v.iter().collect();
        assert_eq!(entries, vec![(0, 0.0), (4, 1.5)]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn from_unsorted_pairs_empty_and_single() {
        assert_eq!(SparseVector::from_unsorted_pairs(3, vec![]).nnz(), 0);
        let v = SparseVector::from_unsorted_pairs(3, vec![(2, 9.0)]);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![(2, 9.0)]);
    }

    #[test]
    #[should_panic(expected = "out of dimension")]
    fn from_unsorted_pairs_rejects_out_of_range() {
        let _ = SparseVector::from_unsorted_pairs(2, vec![(0, 1.0), (2, 1.0)]);
    }

    #[test]
    fn sparse_empty_is_fine() {
        let v = SparseVector::new(3, vec![]);
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.dot_dense(&[1.0, 2.0, 3.0]), 0.0);
    }
}
