//! Reference results recorded for `paper-grid`, one row per CV fold
//! split: the grid-selected (C, γ, ε), the selected cell's CV MSE and the
//! Fig. 1(a) MSE of the deployed model. The selection must match
//! exactly; the two MSEs within [`MSE_TOLERANCE`], so that a solver
//! change whose solutions agree within the SMO stopping tolerance (a
//! reordered kernel sum, a seeded start) still passes, while one that
//! picks other parameters or worsens the model does not. Regenerate with
//! `--reference-rows` only in a change that is meant to alter the model.

use crate::harness::Check;

/// Relative tolerance on the recorded CV and held-out MSEs. Training the
/// same grid with and without the SMO's `prenorm_rows` kernel path (two
/// solver paths to one solution) moved them by 1.5e-4 to 2.8e-4 on fold
/// splits 0, 5 and 11; the runner-up cell's CV MSE lies 4% above the
/// winner's.
pub const MSE_TOLERANCE: f64 = 5e-3;

/// One fold split's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Fold split (`seed % FOLD_SPLITS`).
    pub split: u64,
    /// Selected C.
    pub c: f64,
    /// Selected RBF γ.
    pub gamma: f64,
    /// Selected ε.
    pub epsilon: f64,
    /// 10-fold CV MSE of the selected cell.
    pub cv_mse: f64,
    /// Held-out Fig. 1(a) MSE of the deployed model.
    pub stable_mse: f64,
}

impl Row {
    fn from_bits(r: &(u64, u64, u64, u64, u64, u64)) -> Row {
        Row {
            split: r.0,
            c: f64::from_bits(r.1),
            gamma: f64::from_bits(r.2),
            epsilon: f64::from_bits(r.3),
            cv_mse: f64::from_bits(r.4),
            stable_mse: f64::from_bits(r.5),
        }
    }

    /// The row as a line of `PAPER_GRID`.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "    ({}, {:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}),",
            self.split,
            self.c.to_bits(),
            self.gamma.to_bits(),
            self.epsilon.to_bits(),
            self.cv_mse.to_bits(),
            self.stable_mse.to_bits()
        )
    }
}

/// `(split, C, γ, ε, cv_mse, stable_mse)` with floats as `f64::to_bits`.
#[rustfmt::skip]
const PAPER_GRID: &[(u64, u64, u64, u64, u64, u64)] = &[
    (0, 0x40a0000000000000, 0x3f80000000000000, 0x3fa999999999999a, 0x3fca578de8ae67e2, 0x3fd8ecc1f1a31648),
    (1, 0x40a0000000000000, 0x3f80000000000000, 0x3fa999999999999a, 0x3fcdf12ccb70a690, 0x3fd8ecc1f1a31648),
    (2, 0x40a0000000000000, 0x3f80000000000000, 0x3fa999999999999a, 0x3fc812778f36b8e0, 0x3fd8ecc1f1a31648),
    (3, 0x40a0000000000000, 0x3f80000000000000, 0x3fa999999999999a, 0x3fc9c782d6046faa, 0x3fd8ecc1f1a31648),
    (4, 0x40a0000000000000, 0x3f80000000000000, 0x3fa999999999999a, 0x3fc91e386d5d4823, 0x3fd8ecc1f1a31648),
    (5, 0x40a0000000000000, 0x3fa0000000000000, 0x3fa999999999999a, 0x3fcaad2df8bacdc5, 0x3fde46b78315ec25),
    (6, 0x40a0000000000000, 0x3f80000000000000, 0x3fa999999999999a, 0x3fc6f8c57fef9f26, 0x3fd8ecc1f1a31648),
    (7, 0x40a0000000000000, 0x3f80000000000000, 0x3fa999999999999a, 0x3fc8de6196123f6d, 0x3fd8ecc1f1a31648),
    (8, 0x40a0000000000000, 0x3f80000000000000, 0x3fa999999999999a, 0x3fcaa9a0bb8d130a, 0x3fd8ecc1f1a31648),
    (9, 0x40a0000000000000, 0x3f80000000000000, 0x3fa999999999999a, 0x3fca87394e1380ed, 0x3fd8ecc1f1a31648),
    (10, 0x40a0000000000000, 0x3f80000000000000, 0x3fa999999999999a, 0x3fca26e08e1c0c1d, 0x3fd8ecc1f1a31648),
    (11, 0x40a0000000000000, 0x3f80000000000000, 0x3fb999999999999a, 0x3fc8a740e746ab4e, 0x3fda3265f941b1aa),
    (12, 0x40a0000000000000, 0x3f80000000000000, 0x3fb999999999999a, 0x3fc53c4b10b9f919, 0x3fda3265f941b1aa),
    (13, 0x40a0000000000000, 0x3f80000000000000, 0x3fa999999999999a, 0x3fc80e226a9173b1, 0x3fd8ecc1f1a31648),
    (14, 0x40a0000000000000, 0x3f80000000000000, 0x3fa999999999999a, 0x3fc5c0accf76d012, 0x3fd8ecc1f1a31648),
    (15, 0x40a0000000000000, 0x3f80000000000000, 0x3fa999999999999a, 0x3fcbc30444cff45b, 0x3fd8ecc1f1a31648),
];

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= MSE_TOLERANCE * b.abs()
}

/// Compares one run's outcome with the recorded row of its fold split.
#[must_use]
pub fn check(row: &Row) -> Check {
    let recorded = PAPER_GRID
        .iter()
        .find(|r| r.0 == row.split)
        .map(Row::from_bits);
    let ok = recorded.is_some_and(|r| {
        r.c.to_bits() == row.c.to_bits()
            && r.gamma.to_bits() == row.gamma.to_bits()
            && r.epsilon.to_bits() == row.epsilon.to_bits()
            && close(row.cv_mse, r.cv_mse)
            && close(row.stable_mse, r.stable_mse)
    });
    Check::new(
        format!(
            "split {}: selected (C={}, gamma={}, eps={}) matches the reference, cv_mse={} and stable_mse={} within {MSE_TOLERANCE} of it",
            row.split, row.c, row.gamma, row.epsilon, row.cv_mse, row.stable_mse
        ),
        ok,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fold_split_has_one_row() {
        let splits: Vec<u64> = PAPER_GRID.iter().map(|r| r.0).collect();
        let expected: Vec<u64> = (0..crate::paper_grid::FOLD_SPLITS).collect();
        assert_eq!(splits, expected);
    }

    #[test]
    fn check_is_exact_on_the_selection_and_tolerant_on_the_mses() {
        let recorded = Row::from_bits(&PAPER_GRID[0]);
        assert!(check(&recorded).ok);
        let nudged = Row {
            cv_mse: recorded.cv_mse * (1.0 + MSE_TOLERANCE / 2.0),
            stable_mse: recorded.stable_mse * (1.0 - MSE_TOLERANCE / 2.0),
            ..recorded
        };
        assert!(check(&nudged).ok);
        let worse = Row {
            stable_mse: recorded.stable_mse * (1.0 + 2.0 * MSE_TOLERANCE),
            ..recorded
        };
        assert!(!check(&worse).ok);
        let other_c = Row {
            c: recorded.c * 2.0,
            ..recorded
        };
        assert!(!check(&other_c).ok);
    }
}
