//! Datasets of dense feature vectors with real-valued or class targets, and
//! the libsvm text format the paper's tooling (`LIBSVM 3.17` + `easygrid`)
//! consumes.
//!
//! The paper stores one record per experiment in the Eq. (2) schema
//! `{input = (θ_cpu, θ_memory, θ_fan, ξ_VM, δ_env), output = ψ_stable}`;
//! a [`Dataset`] is exactly a bag of such records after feature encoding.
//! Features live in a flat row-major [`DenseMatrix`], one row per sample.

use crate::error::SvmError;
use crate::matrix::DenseMatrix;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A labelled dataset: `n` samples of dimension `d` plus one target each.
///
/// Invariant: the feature matrix is `n × d`, so every sample has exactly
/// [`Dataset::dim`] features.
///
/// ```
/// use vmtherm_svm::data::Dataset;
///
/// let mut ds = Dataset::new(2);
/// ds.push(vec![1.0, 2.0], 0.5);
/// ds.push(vec![3.0, 4.0], 1.5);
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.dim(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    features: DenseMatrix,
    targets: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset whose samples will have `dim` features.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Dataset {
            features: DenseMatrix::with_cols(dim),
            targets: Vec::new(),
        }
    }

    /// Builds a dataset from a feature matrix and a parallel target vector.
    ///
    /// Nested-vec data enters through [`DenseMatrix::from_nested`] first.
    ///
    /// # Errors
    ///
    /// Returns [`SvmError::DimensionMismatch`] if the matrix row count and
    /// target count disagree, and [`SvmError::EmptyDataset`] for zero
    /// samples.
    pub fn from_parts(features: DenseMatrix, targets: Vec<f64>) -> Result<Self, SvmError> {
        if features.is_empty() {
            return Err(SvmError::EmptyDataset);
        }
        if features.rows() != targets.len() {
            return Err(SvmError::DimensionMismatch {
                expected: features.rows(),
                actual: targets.len(),
            });
        }
        Ok(Dataset { features, targets })
    }

    /// Appends one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn push(&mut self, x: Vec<f64>, y: f64) {
        assert_eq!(
            x.len(),
            self.dim(),
            "sample dimension {} != dataset dimension {}",
            x.len(),
            self.dim()
        );
        self.features.push_row(&x);
        self.targets.push(y);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.features.rows()
    }

    /// `true` when the dataset holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// The feature matrix, one row per sample.
    #[must_use]
    pub fn features(&self) -> &DenseMatrix {
        &self.features
    }

    /// The target vector.
    #[must_use]
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Feature vector of sample `i`.
    #[must_use]
    pub fn feature(&self, i: usize) -> &[f64] {
        self.features.row(i)
    }

    /// Target of sample `i`.
    #[must_use]
    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// Iterates over `(features, target)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> + '_ {
        self.features.iter().zip(self.targets.iter().copied())
    }

    /// Returns a new dataset containing the samples at `indices` (in order).
    /// Rows are copied flat into the new matrix, no per-sample allocation.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut features = DenseMatrix::with_cols(self.dim());
        let mut targets = Vec::with_capacity(indices.len());
        for &i in indices {
            features.push_row(self.features.row(i));
            targets.push(self.targets[i]);
        }
        Dataset { features, targets }
    }

    /// Splits into `(head, tail)` where `head` has `n` samples.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    #[must_use]
    pub fn split_at(&self, n: usize) -> (Dataset, Dataset) {
        assert!(
            n <= self.len(),
            "split point {n} beyond dataset of {}",
            self.len()
        );
        let head: Vec<usize> = (0..n).collect();
        let tail: Vec<usize> = (n..self.len()).collect();
        (self.subset(&head), self.subset(&tail))
    }

    /// Serialises to the libsvm text format (`target idx:value ...`, indices
    /// 1-based, zero-valued features omitted — the sparse convention LIBSVM
    /// uses).
    #[must_use]
    pub fn to_libsvm(&self) -> String {
        let mut out = String::new();
        for (x, y) in self.iter() {
            let _ = write!(out, "{y}");
            for (j, v) in x.iter().enumerate() {
                if *v != 0.0 {
                    let _ = write!(out, " {}:{}", j + 1, v);
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parses the libsvm text format.
    ///
    /// `dim` fixes the feature dimensionality; indices greater than `dim`
    /// are an error, omitted indices are zero (the sparse convention).
    ///
    /// # Errors
    ///
    /// Returns [`SvmError::Parse`] on malformed lines, including
    /// non-finite targets or feature values (`nan`, `inf`), and
    /// [`SvmError::EmptyDataset`] if no samples are present.
    pub fn from_libsvm(text: &str, dim: usize) -> Result<Self, SvmError> {
        let mut ds = Dataset::new(dim);
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let y: f64 = parts
                .next()
                .ok_or_else(|| SvmError::parse(lineno + 1, "missing target"))?
                .parse()
                .map_err(|_| SvmError::parse(lineno + 1, "bad target"))?;
            if !y.is_finite() {
                return Err(SvmError::parse(
                    lineno + 1,
                    format!("non-finite target {y}"),
                ));
            }
            let mut x = vec![0.0; dim];
            for tok in parts {
                let (idx, val) = tok
                    .split_once(':')
                    .ok_or_else(|| SvmError::parse(lineno + 1, "feature missing ':'"))?;
                let idx: usize = idx
                    .parse()
                    .map_err(|_| SvmError::parse(lineno + 1, "bad feature index"))?;
                let val: f64 = val
                    .parse()
                    .map_err(|_| SvmError::parse(lineno + 1, "bad feature value"))?;
                if !val.is_finite() {
                    return Err(SvmError::parse(
                        lineno + 1,
                        format!("non-finite value {val} for feature {idx}"),
                    ));
                }
                if idx == 0 || idx > dim {
                    return Err(SvmError::parse(
                        lineno + 1,
                        format!("feature index {idx} out of range 1..={dim}"),
                    ));
                }
                x[idx - 1] = val;
            }
            ds.push(x, y);
        }
        if ds.is_empty() {
            return Err(SvmError::EmptyDataset);
        }
        Ok(ds)
    }

    /// Shuffles the samples in place with the given RNG (used before k-fold
    /// splitting so folds are unbiased).
    pub fn shuffle<R: rand::Rng>(&mut self, rng: &mut R) {
        // Fisher–Yates over the matrix rows and the parallel target vector.
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.features.swap_rows(i, j);
            self.targets.swap(i, j);
        }
    }
}

impl FromIterator<(Vec<f64>, f64)> for Dataset {
    /// Collects `(features, target)` pairs. All feature vectors must share a
    /// dimension; the first sample fixes it.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent dimensions.
    fn from_iter<I: IntoIterator<Item = (Vec<f64>, f64)>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        match it.next() {
            None => Dataset::new(0),
            Some((x, y)) => {
                let mut ds = Dataset::new(x.len());
                ds.push(x, y);
                for (x, y) in it {
                    ds.push(x, y);
                }
                ds
            }
        }
    }
}

impl Extend<(Vec<f64>, f64)> for Dataset {
    fn extend<I: IntoIterator<Item = (Vec<f64>, f64)>>(&mut self, iter: I) {
        for (x, y) in iter {
            self.push(x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_ds() -> Dataset {
        Dataset::from_parts(
            DenseMatrix::from_nested(vec![vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 4.0]]).unwrap(),
            vec![10.0, 20.0, 30.0],
        )
        .unwrap()
    }

    #[test]
    fn from_parts_validates_lengths() {
        let m = DenseMatrix::from_nested(vec![vec![1.0]]).unwrap();
        let err = Dataset::from_parts(m, vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SvmError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_nested_validates_dims() {
        let err = DenseMatrix::from_nested(vec![vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, SvmError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_parts_rejects_empty() {
        let m = DenseMatrix::from_nested(vec![]).unwrap();
        assert!(matches!(
            Dataset::from_parts(m, vec![]),
            Err(SvmError::EmptyDataset)
        ));
    }

    #[test]
    #[should_panic(expected = "sample dimension")]
    fn push_wrong_dim_panics() {
        let mut ds = Dataset::new(2);
        ds.push(vec![1.0], 0.0);
    }

    #[test]
    fn subset_preserves_order() {
        let ds = sample_ds();
        let sub = ds.subset(&[2, 0]);
        assert_eq!(sub.targets(), &[30.0, 10.0]);
        assert_eq!(sub.feature(0), &[3.0, 4.0]);
    }

    #[test]
    fn split_at_partitions() {
        let ds = sample_ds();
        let (a, b) = ds.split_at(1);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.target(0), 20.0);
    }

    #[test]
    fn libsvm_round_trip() {
        let ds = sample_ds();
        let text = ds.to_libsvm();
        let back = Dataset::from_libsvm(&text, 2).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn libsvm_format_omits_zeros() {
        let ds = Dataset::from_parts(
            DenseMatrix::from_nested(vec![vec![0.0, 5.0]]).unwrap(),
            vec![1.0],
        )
        .unwrap();
        assert_eq!(ds.to_libsvm(), "1 2:5\n");
    }

    #[test]
    fn libsvm_parse_skips_comments_and_blanks() {
        let text = "# comment\n\n1.5 1:2 2:3\n";
        let ds = Dataset::from_libsvm(text, 2).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.target(0), 1.5);
    }

    #[test]
    fn libsvm_parse_rejects_out_of_range_index() {
        let err = Dataset::from_libsvm("1 3:1\n", 2).unwrap_err();
        assert!(matches!(err, SvmError::Parse { line: 1, .. }));
    }

    #[test]
    fn libsvm_parse_rejects_bad_target() {
        let err = Dataset::from_libsvm("abc 1:1\n", 2).unwrap_err();
        assert!(matches!(err, SvmError::Parse { .. }));
    }

    #[test]
    fn libsvm_parse_rejects_non_finite_values() {
        for (text, line) in [
            ("1 1:1\nnan 1:1\n", 2),
            ("inf 1:1\n", 1),
            ("1 1:1\n1 1:2\n1 1:nan 2:inf\n", 3),
            ("1 2:-inf\n", 1),
        ] {
            let err = Dataset::from_libsvm(text, 2).unwrap_err();
            assert!(
                matches!(err, SvmError::Parse { line: l, .. } if l == line),
                "{text:?}: {err:?}"
            );
        }
    }

    #[test]
    fn libsvm_parse_rejects_missing_colon() {
        let err = Dataset::from_libsvm("1 11\n", 2).unwrap_err();
        assert!(matches!(err, SvmError::Parse { .. }));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut ds = sample_ds();
        let mut rng = StdRng::seed_from_u64(7);
        ds.shuffle(&mut rng);
        let mut targets = ds.targets().to_vec();
        targets.sort_by(f64::total_cmp);
        assert_eq!(targets, vec![10.0, 20.0, 30.0]);
        // Pairing preserved: target 30 still belongs to [3,4].
        let idx = ds.targets().iter().position(|t| *t == 30.0).unwrap();
        assert_eq!(ds.feature(idx), &[3.0, 4.0]);
    }

    #[test]
    fn from_iterator_collects() {
        let ds: Dataset = vec![(vec![1.0], 2.0), (vec![3.0], 4.0)]
            .into_iter()
            .collect();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dim(), 1);
    }

    #[test]
    fn extend_appends() {
        let mut ds = Dataset::new(1);
        ds.extend(vec![(vec![1.0], 1.0)]);
        assert_eq!(ds.len(), 1);
    }
}
