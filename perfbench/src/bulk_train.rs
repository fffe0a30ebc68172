//! `bulk-train`: one large solve instead of many small ones.
//!
//! A 2,000-experiment campaign, the records out through the libsvm text
//! format and back, one `StablePredictor` fit at the tuned parameters,
//! a `model_io` round trip, and batch prediction on held-out experiments.

use crate::harness::{mix, timed, Check, Counts, Fnv, Run, Values, Workload};
use crate::paper_grid::{campaign_configs, record_campaign, run_campaign, HELD_OUT_SET};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vmtherm_core::dynamic::{DynamicConfig, DynamicPredictor};
use vmtherm_core::eval::{evaluate_dynamic, AnchorPoint};
use vmtherm_core::features::FeatureEncoding;
use vmtherm_core::stable::{dataset_from_outcomes, StablePredictor, TrainingOptions};
use vmtherm_sim::{ExperimentConfig, ExperimentOutcome};
use vmtherm_svm::data::Dataset;
use vmtherm_svm::kernel::Kernel;
use vmtherm_svm::matrix::DenseMatrix;
use vmtherm_svm::metrics;
use vmtherm_svm::svr::SvrParams;
use vmtherm_units::Seconds;

/// Training campaign size.
pub const TRAIN_CASES: usize = 2000;
/// Generator and case seeds of the bulk campaign. The campaign is fixed;
/// `--seed` only permutes the order its experiments run and its records
/// reach the solver, which moves the solver's path but not the problem.
const BULK_CAMPAIGN: (u64, u64) = (2_000, 2_000 * 31 + 1_000);
/// Held-out experiments predicted after the round trip.
pub const HELD_OUT: usize = 200;
/// Forecast horizon of the held-out warm-up replay (s).
const GAP_SECS: f64 = 60.0;

/// Fixed hyper-parameters inside the grid's winning region (the values
/// the figure binaries use when they skip grid search).
#[must_use]
pub fn tuned_params() -> SvrParams {
    SvrParams::new()
        .with_c(128.0)
        .with_epsilon(0.05)
        .with_kernel(Kernel::rbf(0.02))
}

/// Inputs of one `bulk-train` invocation.
pub struct Input {
    train: Vec<ExperimentConfig>,
    held_out: Vec<ExperimentOutcome>,
    held_features: DenseMatrix,
}

/// The `bulk-train` workload.
pub struct BulkTrain;

impl Workload for BulkTrain {
    type Input = Input;
    type Output = ();

    fn setup(seed: u64) -> (Input, Values) {
        let mut train = campaign_configs(TRAIN_CASES, BULK_CAMPAIGN);
        train.shuffle(&mut StdRng::seed_from_u64(mix(seed, 20)));
        let (held_out, _) = run_campaign(
            &campaign_configs(HELD_OUT, HELD_OUT_SET),
            &mut Tracer::new(false),
        );
        let encoding = FeatureEncoding::Full;
        let mut held_features = DenseMatrix::with_cols(encoding.dim());
        for o in &held_out {
            held_features.push_row(&encoding.encode(&o.snapshot));
        }
        (
            Input {
                train,
                held_out,
                held_features,
            },
            Values::new(),
        )
    }

    fn run(input: &Input, tracer: &mut Tracer) -> (Run, ()) {
        let mut run = Run::default();
        let encoding = FeatureEncoding::Full;
        let ((before, after, forecast_mse, sizes, support_vectors), run_s) = timed(|| {
            let (outcomes, secs) = run_campaign(&input.train, tracer);
            record_campaign(&outcomes, &secs, tracer, &mut run);
            let raw = tracer.span("core.stable.dataset", |_| {
                dataset_from_outcomes(&outcomes, encoding)
            });
            drop(outcomes);
            let text = tracer.span("svm.data", |_| raw.to_libsvm());
            let parsed = tracer
                .span("svm.data", |_| Dataset::from_libsvm(&text, encoding.dim()))
                .expect("libsvm records parse");
            let (predictor, train_s) = timed(|| {
                tracer
                    .span("core.stable.fit", |_| {
                        StablePredictor::fit_dataset(
                            parsed,
                            &TrainingOptions::new().with_params(tuned_params()),
                        )
                    })
                    .expect("fit at tuned parameters")
            });
            run.end_to_end.insert("train_s", train_s);
            let saved = tracer.span("core.stable.model_io", |_| predictor.save_to_string());
            let loaded = tracer
                .span("core.stable.model_io", |_| {
                    StablePredictor::load_from_string(&saved)
                })
                .expect("saved model loads");
            let before = tracer
                .span("svm.predict", |_| {
                    predictor.predict_features_batch(&input.held_features)
                })
                .expect("held-out features match the encoding");
            let after = tracer
                .span("svm.predict", |_| {
                    loaded.predict_features_batch(&input.held_features)
                })
                .expect("held-out features match the encoding");
            let forecast_mse =
                tracer.span("core.dynamic", |_| warm_up_mse(&input.held_out, &before));
            let sizes = (text.len() as u64, saved.len() as u64);
            (
                before,
                after,
                forecast_mse,
                sizes,
                predictor.num_support_vectors(),
            )
        });
        run.end_to_end.insert("run_s", run_s);
        let measured: Vec<f64> = input.held_out.iter().map(|o| o.psi_stable).collect();
        let stable_mse = metrics::mse(&measured, &before);
        run.end_to_end.insert("stable_mse", stable_mse);
        run.end_to_end.insert("forecast_mse", forecast_mse);

        let bit_equal = before.len() == after.len()
            && before
                .iter()
                .zip(&after)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        run.checks.push(Check::new(
            format!(
                "{} predictions bit-equal across the model_io round trip",
                before.len()
            ),
            bit_equal,
        ));

        let mut fp = Fnv::new();
        for p in &before {
            fp.float(*p);
        }
        fp.float(forecast_mse);
        run.fingerprint = fp.0;
        run.counts = Counts::from([
            ("sim.experiment.count", input.train.len() as u64),
            ("svm.data.libsvm_bytes", sizes.0),
            ("core.stable.model_bytes", sizes.1),
            ("core.stable.support_vectors", support_vectors as u64),
        ]);
        if tracer.enabled() {
            let r = tracer.run();
            let data = tracer.durations_ms(r, "svm.data");
            run.layer.insert("svm.data.parse_ms", data[1]);
            run.layer.insert(
                "svm.smo.solve_s",
                tracer.durations_ms(r, "core.stable.fit")[0] / 1e3,
            );
            run.layer.insert(
                "core.stable.model_io_ms",
                tracer.durations_ms(r, "core.stable.model_io").iter().sum(),
            );
            let predict_ms = tracer.durations_ms(r, "svm.predict")[0];
            run.layer.insert(
                "svm.predict.us_per_row",
                predict_ms * 1e3 / input.held_out.len() as f64,
            );
        }
        (run, ())
    }

    fn finish(_: &Input, (): &(), _: bool, _: &mut Tracer) -> (Vec<Check>, Values) {
        (Vec::new(), Values::new())
    }
}

/// Calibrated dynamic MSE over the held-out warm-up curves: each series
/// is anchored at t = 0 on the model's ψ_stable and forecast `GAP_SECS`
/// ahead with the default `DynamicConfig`.
fn warm_up_mse(held_out: &[ExperimentOutcome], psi: &[f64]) -> f64 {
    held_out
        .iter()
        .zip(psi)
        .map(|(o, &psi_stable)| {
            let mut predictor =
                DynamicPredictor::new(DynamicConfig::new()).expect("default config");
            let anchor = [AnchorPoint {
                t_secs: 0.0,
                psi_stable,
            }];
            evaluate_dynamic(
                &mut predictor,
                &o.sensor_series,
                Seconds::new(GAP_SECS),
                &anchor,
            )
            .mse
        })
        .sum::<f64>()
        / held_out.len() as f64
}
