//! Model persistence.
//!
//! Trained models and fitted scalers are plain serde data structures; this
//! module provides a tiny self-describing text container so a model trained
//! offline (as the paper does: "a SVM model was trained from the collected
//! data and deployed in real environment") can be shipped to the online
//! predictor without any extra dependency.
//!
//! Format: a header line `vmtherm-model <kind> v1`, then one `key=value`
//! line per scalar field, then length-prefixed vector blocks. Everything is
//! ASCII and line-oriented, in the spirit of LIBSVM's `.model` files.

use crate::error::SvmError;
use crate::kernel::Kernel;
use crate::matrix::DenseMatrix;
use crate::scale::{ScaleMethod, Scaler};
use crate::svr::SvrModel;
use std::fmt::Write as _;

/// Serialises an [`SvrModel`] into the text container.
#[must_use]
pub fn svr_to_string(model: &SvrModel) -> String {
    let mut out = String::new();
    out.push_str("vmtherm-model svr v1\n");
    let _ = writeln!(out, "kernel={}", kernel_tag(model.kernel()));
    let _ = writeln!(out, "bias={}", model.bias());
    let _ = writeln!(out, "dim={}", model.dim());
    let _ = writeln!(out, "nsv={}", model.num_support_vectors());
    let (_, _, _, coefficients, support_vectors) = model.parts();
    for (coef, sv) in coefficients.iter().zip(support_vectors) {
        let _ = write!(out, "{coef}");
        for v in sv {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    }
    out
}

/// Parses the text container back into an [`SvrModel`].
///
/// # Errors
///
/// [`SvmError::Parse`] on any malformed content.
pub fn svr_from_string(text: &str) -> Result<SvrModel, SvmError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| SvmError::parse(1, "empty model file"))?;
    if header.trim() != "vmtherm-model svr v1" {
        return Err(SvmError::parse(1, format!("bad header `{header}`")));
    }
    let mut kernel: Option<Kernel> = None;
    let mut bias: Option<f64> = None;
    let mut dim: Option<usize> = None;
    let mut nsv: Option<usize> = None;
    for _ in 0..4 {
        let (lineno, line) = lines
            .next()
            .ok_or_else(|| SvmError::parse(0, "truncated header"))?;
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| SvmError::parse(lineno + 1, "expected key=value"))?;
        match key {
            "kernel" => kernel = Some(parse_kernel_tag(value, lineno + 1)?),
            "bias" => bias = Some(parse_finite(value, lineno + 1, "bias")?),
            "dim" => {
                dim = Some(
                    value
                        .parse()
                        .map_err(|_| SvmError::parse(lineno + 1, "bad dim"))?,
                );
            }
            "nsv" => {
                nsv = Some(
                    value
                        .parse()
                        .map_err(|_| SvmError::parse(lineno + 1, "bad nsv"))?,
                );
            }
            other => {
                return Err(SvmError::parse(
                    lineno + 1,
                    format!("unknown key `{other}`"),
                ))
            }
        }
    }
    let kernel = kernel.ok_or_else(|| SvmError::parse(0, "missing kernel"))?;
    let bias = bias.ok_or_else(|| SvmError::parse(0, "missing bias"))?;
    let dim = dim.ok_or_else(|| SvmError::parse(0, "missing dim"))?;
    let nsv = nsv.ok_or_else(|| SvmError::parse(0, "missing nsv"))?;

    let mut coefficients = Vec::with_capacity(nsv);
    let mut support_vectors = DenseMatrix::with_cols(dim);
    for _ in 0..nsv {
        let (lineno, line) = lines
            .next()
            .ok_or_else(|| SvmError::parse(0, "truncated support vectors"))?;
        let mut parts = line.split_whitespace();
        let coef = parts
            .next()
            .ok_or_else(|| SvmError::parse(lineno + 1, "missing coefficient"))?;
        let coef = parse_finite(coef, lineno + 1, "coefficient")?;
        let sv: Result<Vec<f64>, SvmError> = parts
            .map(|t| parse_finite(t, lineno + 1, "sv value"))
            .collect();
        let sv = sv?;
        if sv.len() != dim {
            return Err(SvmError::parse(
                lineno + 1,
                format!("support vector has {} values, expected {dim}", sv.len()),
            ));
        }
        coefficients.push(coef);
        support_vectors.push_row(&sv);
    }

    SvrModel::from_parts(kernel, support_vectors, coefficients, bias, dim)
}

/// Parses a finite `f64`. Rust's parser also accepts `nan`, `inf` and
/// `infinity`, which would load a model that predicts NaN.
fn parse_finite(token: &str, line: usize, what: &str) -> Result<f64, SvmError> {
    let v: f64 = token
        .parse()
        .map_err(|_| SvmError::parse(line, format!("bad {what}")))?;
    if !v.is_finite() {
        return Err(SvmError::parse(line, format!("non-finite {what} {v}")));
    }
    Ok(v)
}

fn kernel_tag(k: Kernel) -> String {
    match k {
        Kernel::Linear => "linear".to_string(),
        Kernel::Rbf { gamma } => format!("rbf {gamma}"),
        Kernel::Polynomial {
            gamma,
            coef0,
            degree,
        } => format!("poly {gamma} {coef0} {degree}"),
        Kernel::Sigmoid { gamma, coef0 } => format!("sigmoid {gamma} {coef0}"),
    }
}

fn parse_kernel_tag(tag: &str, line: usize) -> Result<Kernel, SvmError> {
    let mut parts = tag.split_whitespace();
    let name = parts
        .next()
        .ok_or_else(|| SvmError::parse(line, "empty kernel tag"))?;
    let mut num = || -> Result<f64, SvmError> {
        let token = parts
            .next()
            .ok_or_else(|| SvmError::parse(line, "kernel tag missing parameter"))?;
        parse_finite(token, line, "kernel parameter")
    };
    match name {
        "linear" => Ok(Kernel::Linear),
        "rbf" => Ok(Kernel::Rbf { gamma: num()? }),
        "poly" => {
            let gamma = num()?;
            let coef0 = num()?;
            let degree = num()? as u32;
            Ok(Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            })
        }
        "sigmoid" => {
            let gamma = num()?;
            let coef0 = num()?;
            Ok(Kernel::Sigmoid { gamma, coef0 })
        }
        other => Err(SvmError::parse(line, format!("unknown kernel `{other}`"))),
    }
}

/// Serialises a fitted [`Scaler`] into the text container.
#[must_use]
pub fn scaler_to_string(scaler: &Scaler) -> String {
    let (method, base, offsets, scales) = scaler.parts();
    let mut out = String::new();
    out.push_str("vmtherm-model scaler v1\n");
    let method_tag = match method {
        ScaleMethod::MinMax => "minmax",
        ScaleMethod::ZScore => "zscore",
    };
    let _ = writeln!(out, "method={method_tag}");
    let _ = writeln!(out, "base={base}");
    let _ = writeln!(out, "dim={}", offsets.len());
    for (o, s) in offsets.iter().zip(scales) {
        let _ = writeln!(out, "{o} {s}");
    }
    out
}

/// Parses a [`Scaler`] from the text container.
///
/// # Errors
///
/// [`SvmError::Parse`] on malformed content.
pub fn scaler_from_string(text: &str) -> Result<Scaler, SvmError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| SvmError::parse(1, "empty scaler file"))?;
    if header.trim() != "vmtherm-model scaler v1" {
        return Err(SvmError::parse(1, format!("bad header `{header}`")));
    }
    let mut method: Option<ScaleMethod> = None;
    let mut base: Option<f64> = None;
    let mut dim: Option<usize> = None;
    for _ in 0..3 {
        let (lineno, line) = lines
            .next()
            .ok_or_else(|| SvmError::parse(0, "truncated scaler header"))?;
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| SvmError::parse(lineno + 1, "expected key=value"))?;
        match key {
            "method" => {
                method = Some(match value {
                    "minmax" => ScaleMethod::MinMax,
                    "zscore" => ScaleMethod::ZScore,
                    other => {
                        return Err(SvmError::parse(
                            lineno + 1,
                            format!("unknown method `{other}`"),
                        ))
                    }
                });
            }
            "base" => base = Some(parse_finite(value, lineno + 1, "base")?),
            "dim" => {
                dim = Some(
                    value
                        .parse()
                        .map_err(|_| SvmError::parse(lineno + 1, "bad dim"))?,
                );
            }
            other => {
                return Err(SvmError::parse(
                    lineno + 1,
                    format!("unknown key `{other}`"),
                ))
            }
        }
    }
    let method = method.ok_or_else(|| SvmError::parse(0, "missing method"))?;
    let base = base.ok_or_else(|| SvmError::parse(0, "missing base"))?;
    let dim = dim.ok_or_else(|| SvmError::parse(0, "missing dim"))?;
    let mut offsets = Vec::with_capacity(dim);
    let mut scales = Vec::with_capacity(dim);
    for _ in 0..dim {
        let (lineno, line) = lines
            .next()
            .ok_or_else(|| SvmError::parse(0, "truncated scaler body"))?;
        let mut parts = line.split_whitespace();
        let o = parts
            .next()
            .ok_or_else(|| SvmError::parse(lineno + 1, "missing offset"))?;
        let o = parse_finite(o, lineno + 1, "offset")?;
        let s = parts
            .next()
            .ok_or_else(|| SvmError::parse(lineno + 1, "missing scale"))?;
        let s = parse_finite(s, lineno + 1, "scale")?;
        offsets.push(o);
        scales.push(s);
    }
    Scaler::from_parts(method, base, offsets, scales)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::svr::SvrParams;

    fn trained_model() -> SvrModel {
        let xs: Vec<Vec<f64>> = (0..15)
            .map(|i| vec![i as f64 * 0.4, (i as f64).cos()])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 + x[1]).collect();
        let ds = Dataset::from_parts(DenseMatrix::from_nested(xs).unwrap(), ys).unwrap();
        SvrModel::train(&ds, SvrParams::new().with_c(50.0)).unwrap()
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let model = trained_model();
        let text = svr_to_string(&model);
        let back = svr_from_string(&text).unwrap();
        for i in 0..10 {
            let x = [i as f64 * 0.37, (i as f64 * 0.9).sin()];
            assert!(
                (model.predict(&x).unwrap() - back.predict(&x).unwrap()).abs() < 1e-9,
                "prediction drift at {x:?}"
            );
        }
    }

    #[test]
    fn round_trip_preserves_structure() {
        let model = trained_model();
        let back = svr_from_string(&svr_to_string(&model)).unwrap();
        assert_eq!(model.num_support_vectors(), back.num_support_vectors());
        assert_eq!(model.kernel(), back.kernel());
        assert!((model.bias() - back.bias()).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            svr_from_string("not a model\n"),
            Err(SvmError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_truncated_body() {
        let model = trained_model();
        let text = svr_to_string(&model);
        let truncated: String = text.lines().take(5).map(|l| format!("{l}\n")).collect();
        assert!(svr_from_string(&truncated).is_err());
    }

    #[test]
    fn rejects_unknown_kernel() {
        let text = "vmtherm-model svr v1\nkernel=quantum 1\nbias=0\ndim=1\nnsv=0\n";
        assert!(svr_from_string(text).is_err());
    }

    #[test]
    fn all_kernel_tags_round_trip() {
        for k in [
            Kernel::Linear,
            Kernel::rbf(0.5),
            Kernel::Polynomial {
                gamma: 0.1,
                coef0: 1.0,
                degree: 3,
            },
            Kernel::Sigmoid {
                gamma: 0.2,
                coef0: -1.0,
            },
        ] {
            let parsed = parse_kernel_tag(&kernel_tag(k), 1).unwrap();
            assert_eq!(parsed, k);
        }
    }

    #[test]
    fn scaler_round_trip() {
        use crate::data::Dataset;
        use crate::scale::ScaleMethod;
        let ds = Dataset::from_parts(
            DenseMatrix::from_nested(vec![vec![0.0, 5.0], vec![10.0, 15.0], vec![4.0, 9.0]])
                .unwrap(),
            vec![0.0; 3],
        )
        .unwrap();
        for method in [ScaleMethod::MinMax, ScaleMethod::ZScore] {
            let scaler = Scaler::fit(&ds, method);
            let back = scaler_from_string(&scaler_to_string(&scaler)).unwrap();
            let x = [3.3, 12.2];
            let a = scaler.transform(&x);
            let b = back.transform(&x);
            for (u, v) in a.iter().zip(&b) {
                assert!((u - v).abs() < 1e-12, "{method:?}");
            }
        }
    }

    #[test]
    fn scaler_rejects_bad_header_and_method() {
        assert!(scaler_from_string("nope\n").is_err());
        let text = "vmtherm-model scaler v1\nmethod=quantum\nbase=0\ndim=0\n";
        assert!(scaler_from_string(text).is_err());
    }

    /// Every float of an SVR model file must be finite; the error names
    /// the offending line.
    #[test]
    fn svr_rejects_non_finite_values() {
        let good = "vmtherm-model svr v1\nkernel=rbf 0.5\nbias=0.25\ndim=2\nnsv=1\n1.5 3.0 -2.0\n";
        assert!(svr_from_string(good).is_ok());
        for (bad, line) in [
            (good.replace("bias=0.25", "bias=nan"), 3),
            (good.replace("rbf 0.5", "rbf inf"), 2),
            (good.replace("1.5 3.0", "-infinity 3.0"), 6),
            (good.replace("-2.0", "NaN"), 6),
        ] {
            match svr_from_string(&bad) {
                Err(SvmError::Parse { line: got, .. }) => assert_eq!(got, line, "{bad}"),
                other => panic!("accepted or misreported {bad:?}: {other:?}"),
            }
        }
    }

    /// Likewise for a scaler file's base, offsets and scales.
    #[test]
    fn scaler_rejects_non_finite_values() {
        let good = "vmtherm-model scaler v1\nmethod=minmax\nbase=0\ndim=2\n1 2\n3 4\n";
        assert!(scaler_from_string(good).is_ok());
        for (bad, line) in [
            (good.replace("base=0", "base=inf"), 3),
            (good.replace("1 2", "nan 2"), 5),
            (good.replace("3 4", "3 -inf"), 6),
        ] {
            match scaler_from_string(&bad) {
                Err(SvmError::Parse { line: got, .. }) => assert_eq!(got, line, "{bad}"),
                other => panic!("accepted or misreported {bad:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn dimension_mismatch_in_sv_rejected() {
        let text = "vmtherm-model svr v1\nkernel=linear\nbias=0\ndim=2\nnsv=1\n1.0 3.0\n";
        assert!(matches!(svr_from_string(text), Err(SvmError::Parse { .. })));
    }

    /// Round-trip oracle over seeded random ε-SVR models (every kernel
    /// family, feature scales from 1e-3 to 1e3) and scalers (both methods,
    /// random ranges, a constant column): save → load → predict and
    /// transform are bit-equal, and saving the loaded object reproduces
    /// the text byte for byte.
    #[test]
    fn round_trip_is_bit_exact_on_random_models_and_scalers() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (l, d) = (rng.gen_range(3..=30usize), rng.gen_range(1..=6usize));
            let scale = 10f64.powi(rng.gen_range(-3..=3));
            let mut rows: Vec<Vec<f64>> = (0..l)
                .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0) * scale).collect())
                .collect();
            if d > 1 {
                for row in &mut rows {
                    row[d - 1] = 0.5;
                }
            }
            let ys: Vec<f64> = rows
                .iter()
                .map(|x| x[0] / scale + rng.gen_range(-0.1..0.1))
                .collect();
            let probes: Vec<Vec<f64>> = (0..8)
                .map(|_| (0..d).map(|_| rng.gen_range(-1.5..1.5) * scale).collect())
                .chain(rows.iter().cloned())
                .collect();
            let ds = Dataset::from_parts(DenseMatrix::from_nested(rows).unwrap(), ys).unwrap();
            // Kernel parameters sized to the feature scale so every family
            // trains to a non-trivial model.
            let gamma = rng.gen_range(0.05..2.0) / (scale * scale * d as f64);
            let kernel = match seed % 4 {
                0 => Kernel::Linear,
                1 => Kernel::rbf(gamma),
                2 => Kernel::Polynomial {
                    gamma,
                    coef0: rng.gen_range(0.0..1.0),
                    degree: rng.gen_range(1..=3u32),
                },
                _ => Kernel::Sigmoid {
                    gamma,
                    coef0: rng.gen_range(-1.0..0.0),
                },
            };
            // The property holds for any trained model, converged or not;
            // the cap keeps the unscaled linear cases quick.
            let params = SvrParams::new()
                .with_c(rng.gen_range(0.1..100.0))
                .with_epsilon(rng.gen_range(0.0..0.2))
                .with_kernel(kernel)
                .with_max_iterations(20_000);
            let model = SvrModel::train(&ds, params).unwrap();
            let text = svr_to_string(&model);
            let back = svr_from_string(&text).unwrap();
            assert_eq!(svr_to_string(&back), text, "seed {seed}: model re-save");
            let queries = DenseMatrix::from_nested(probes.clone()).unwrap();
            let batch = back.predict_batch(&queries).unwrap();
            for (x, b) in probes.iter().zip(&batch) {
                let want = model.predict(x).unwrap().to_bits();
                assert_eq!(
                    back.predict(x).unwrap().to_bits(),
                    want,
                    "seed {seed} at {x:?}"
                );
                assert_eq!(b.to_bits(), want, "seed {seed} batch at {x:?}");
            }

            let method = [ScaleMethod::MinMax, ScaleMethod::ZScore][seed as usize % 2];
            let lower = rng.gen_range(-5.0..0.0);
            let scaler =
                Scaler::fit_with_range(&ds, method, lower, lower + rng.gen_range(0.5..5.0));
            let text = scaler_to_string(&scaler);
            let back = scaler_from_string(&text).unwrap();
            assert_eq!(scaler_to_string(&back), text, "seed {seed}: scaler re-save");
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            for x in &probes {
                assert_eq!(
                    bits(back.transform(x)),
                    bits(scaler.transform(x)),
                    "seed {seed}"
                );
                assert_eq!(
                    bits(back.inverse_transform(x)),
                    bits(scaler.inverse_transform(x)),
                    "seed {seed}"
                );
            }
        }
    }
}
