//! `paper-grid`: the paper's offline pipeline end to end.
//!
//! A training campaign, `StablePredictor::fit` with its default easygrid
//! search (10-fold CV) and final fit, Fig. 1(a) on held-out experiments
//! and the Fig. 1(c) gap × update grid over dynamic scenarios. The SVM
//! layer does almost all the work.

use crate::harness::{timed, Check, Counts, Fnv, Run, Values, Workload, EXPERIMENT_TICK_US};
use crate::reference;
use crate::scenario::{anchors, build_scenarios, score_cell, Scenario};
use crate::stats::quantile;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vmtherm_core::stable::{dataset_from_outcomes, StablePredictor, TrainingOptions};
use vmtherm_sim::{CaseGenerator, ExperimentConfig, ExperimentOutcome, SimDuration};
use vmtherm_svm::cv::cross_validate_svr;
use vmtherm_svm::grid::{GridSearch, Log2Range};
use vmtherm_svm::kernel::Kernel;
use vmtherm_svm::metrics;
use vmtherm_svm::scale::{ScaleMethod, Scaler};
use vmtherm_svm::svr::{SvrModel, SvrParams};

/// Training campaign size: the first half of the figure binaries'
/// 200-experiment campaign, so one run of the grid takes seconds, not
/// tens of seconds, and an invocation holds several runs.
pub const TRAIN_CASES: usize = 100;
/// Held-out experiments scored for Fig. 1(a).
pub const HELD_OUT: usize = 20;
/// Experiment length (s); longer than `t_break = 600 s`.
pub const EXPERIMENT_SECS: u64 = 1200;
/// Fig. 1(c) axes.
pub const GAPS: [f64; 5] = [15.0, 30.0, 60.0, 90.0, 120.0];
/// Fig. 1(c) calibration update intervals.
pub const UPDATES: [f64; 4] = [5.0, 15.0, 30.0, 60.0];

/// The grid `StablePredictor::fit` searches when no parameters are
/// fixed: 7 C × 6 γ × 3 ε, RBF kernel, folds and seed from `options`.
/// Run only outside the timed part, to get the cells for the serial
/// replay; `finish` requires it to select what the fit selected.
#[must_use]
pub fn paper_grid(options: &TrainingOptions) -> GridSearch {
    GridSearch::new()
        .with_c_values(Log2Range::new(-1, 11, 2).values())
        .with_gamma_values(Log2Range::new(-9, 1, 2).values())
        .with_epsilon_values(vec![0.05, 0.1, 0.2])
        .with_base_params(SvrParams::new().with_kernel(Kernel::rbf(1.0)))
        .with_folds(options.folds)
        .with_seed(options.seed)
}

/// Generator and case seeds of the paper campaign (the figure
/// binaries' `training_campaign(_, 42)`).
pub const PAPER_CAMPAIGN: (u64, u64) = (42, 42 * 31 + 1_000);
/// Generator and case seeds of the fixed held-out set (Fig. 1(a)'s).
pub const HELD_OUT_SET: (u64, u64) = (20_160_701, 77_000);
/// Distinct CV fold splits; `--seed` picks one, `seed % FOLD_SPLITS`,
/// whose fold seed is the product default plus the split (split 0 is
/// exactly `TrainingOptions::new()`).
pub const FOLD_SPLITS: u64 = 16;

/// Randomised experiment configs in the paper's ranges, from a
/// `(generator, case)` seed pair.
#[must_use]
pub fn campaign_configs(count: usize, (generator, cases): (u64, u64)) -> Vec<ExperimentConfig> {
    CaseGenerator::new(generator)
        .random_cases(count, cases)
        .into_iter()
        .map(|c| c.with_duration(SimDuration::from_secs(EXPERIMENT_SECS)))
        .collect()
}

/// Runs each config through `ExperimentConfig::run` (the body of
/// `run_experiments`), one `sim.experiment` span each. Returns the
/// outcomes and each experiment's host seconds.
pub fn run_campaign(
    configs: &[ExperimentConfig],
    tracer: &mut Tracer,
) -> (Vec<ExperimentOutcome>, Vec<f64>) {
    let mut secs = Vec::with_capacity(configs.len());
    let outcomes = configs
        .iter()
        .map(|config| {
            let (outcome, s) = timed(|| tracer.span("sim.experiment", |_| config.run()));
            secs.push(s);
            outcome
        })
        .collect();
    (outcomes, secs)
}

/// What every campaign reports: throughput in experiments and in
/// server-steps (one sensor sample per 1 Hz step), and each experiment's
/// host microseconds per simulated tick, in campaign order, for the
/// tick percentiles. Traced runs also keep each experiment's span
/// duration.
pub fn record_campaign(
    outcomes: &[ExperimentOutcome],
    secs: &[f64],
    tracer: &Tracer,
    run: &mut Run,
) {
    let total: f64 = secs.iter().sum();
    let steps: usize = outcomes.iter().map(|o| o.sensor_series.len()).sum();
    let tick_us = outcomes
        .iter()
        .zip(secs)
        .map(|(o, s)| s * 1e6 / o.sensor_series.len() as f64)
        .collect();
    run.end_to_end
        .insert("experiments_per_s", outcomes.len() as f64 / total);
    run.end_to_end
        .insert("server_steps_per_s", steps as f64 / total);
    run.samples.insert(EXPERIMENT_TICK_US, tick_us);
    if tracer.enabled() {
        let ms = tracer.durations_ms(tracer.run(), "sim.experiment");
        run.samples.insert("sim.experiment.run_ms", ms);
    }
}

/// Inputs of one `paper-grid` invocation.
pub struct Input {
    split: u64,
    options: TrainingOptions,
    train: Vec<ExperimentConfig>,
    held_out: Vec<ExperimentOutcome>,
    scenarios: Vec<Scenario>,
}

/// What the post-run checks need.
pub struct Output {
    outcomes: Vec<ExperimentOutcome>,
    params: SvrParams,
    cv_mse: f64,
    support_vectors: usize,
    /// This run's reference row.
    pub row: reference::Row,
}

/// The `paper-grid` workload.
pub struct PaperGrid;

impl Workload for PaperGrid {
    type Input = Input;
    type Output = Output;

    fn setup(seed: u64) -> (Input, Values) {
        let mut off = Tracer::new(false);
        let train = campaign_configs(TRAIN_CASES, PAPER_CAMPAIGN);
        let (held_out, _) = run_campaign(&campaign_configs(HELD_OUT, HELD_OUT_SET), &mut off);
        let scenarios = build_scenarios();
        let split = seed % FOLD_SPLITS;
        let defaults = TrainingOptions::new();
        let fold_seed = defaults.seed.wrapping_add(split);
        (
            Input {
                split,
                options: defaults.with_seed(fold_seed),
                train,
                held_out,
                scenarios,
            },
            Values::new(),
        )
    }

    fn run(input: &Input, tracer: &mut Tracer) -> (Run, Output) {
        let mut run = Run::default();
        let ((outcomes, predictor, stable_mse, forecast_mse, cell_ms), run_s) = timed(|| {
            let (outcomes, secs) = run_campaign(&input.train, tracer);
            record_campaign(&outcomes, &secs, tracer, &mut run);
            // The product's training path: encode, scale, grid search
            // with 10-fold CV, final solve.
            let (predictor, train_s) = timed(|| {
                tracer
                    .span("core.stable.fit", |_| {
                        StablePredictor::fit(&outcomes, &input.options)
                    })
                    .expect("grid-searched fit")
            });
            run.end_to_end.insert("train_s", train_s);

            // Fig. 1(a): held-out stable-temperature MSE.
            let snapshots: Vec<_> = input.held_out.iter().map(|o| o.snapshot.clone()).collect();
            let predicted = tracer.span("core.stable.predict", |_| {
                predictor.predict_batch(&snapshots)
            });
            let measured: Vec<f64> = input.held_out.iter().map(|o| o.psi_stable).collect();
            let stable_mse = metrics::mse(&measured, &predicted);

            // Fig. 1(c): calibrated dynamic MSE over gap × update.
            let anchors = tracer.span("core.stable.predict", |_| {
                anchors(&predictor, &input.scenarios)
            });
            let mut cell_ms = Vec::new();
            let mut cells = Vec::new();
            for gap in GAPS {
                for update in UPDATES {
                    let (mse, s) = timed(|| {
                        tracer.span("core.dynamic", |_| {
                            score_cell(&input.scenarios, &anchors, gap, update)
                        })
                    });
                    cell_ms.push(s * 1e3);
                    cells.push(mse);
                }
            }
            let forecast_mse = cells.iter().sum::<f64>() / cells.len() as f64;
            (outcomes, predictor, stable_mse, forecast_mse, cell_ms)
        });
        run.end_to_end.insert("run_s", run_s);
        run.end_to_end.insert("stable_mse", stable_mse);
        run.end_to_end.insert("forecast_mse", forecast_mse);

        let params = predictor.params();
        let cv_mse = predictor.cv_mse().unwrap_or(f64::NAN);
        let row = reference::Row {
            split: input.split,
            c: params.c(),
            gamma: params.kernel().gamma().unwrap_or(f64::NAN),
            epsilon: params.epsilon(),
            cv_mse,
            stable_mse,
        };
        run.checks.push(reference::check(&row));

        let mut fp = Fnv::new();
        for x in [
            row.c,
            row.gamma,
            row.epsilon,
            cv_mse,
            stable_mse,
            forecast_mse,
        ] {
            fp.float(x);
        }
        run.fingerprint = fp.0;
        let support_vectors = predictor.num_support_vectors();
        run.counts = Counts::from([
            ("sim.experiment.count", input.train.len() as u64),
            ("core.stable.support_vectors", support_vectors as u64),
        ]);
        if tracer.enabled() {
            run.samples.insert("core.dynamic.eval_ms", cell_ms);
        }
        let output = Output {
            outcomes,
            params,
            cv_mse,
            support_vectors,
            row,
        };
        (run, output)
    }

    /// Traced invocations only, after the timed runs: the grid search
    /// again through `GridSearch::run` (timed as `svm.grid.run_s`), which
    /// must select the fit's parameters and CV score; the final
    /// `SvrModel::train` at those parameters (`svm.smo.solve_s`); and a
    /// serial replay of every grid cell through `cross_validate_svr`,
    /// which must reproduce `GridSearchResult.cells` exactly and gives
    /// the per-cell times.
    fn finish(
        input: &Input,
        output: &Output,
        traced: bool,
        tracer: &mut Tracer,
    ) -> (Vec<Check>, Values) {
        if !traced {
            return (Vec::new(), Values::new());
        }
        let options = &input.options;
        let raw = dataset_from_outcomes(&output.outcomes, options.encoding);
        let scaled = Scaler::fit(&raw, ScaleMethod::MinMax).transform_dataset(&raw);
        let (grid, grid_s) =
            timed(|| tracer.span("svm.grid", |_| paper_grid(options).run(&scaled)));
        let grid = grid.expect("grid search");
        let best = grid.best_params();
        let (model, solve_s) = timed(|| SvrModel::train(&scaled, best));
        let support_vectors = model.map_or(0, |m| m.num_support_vectors());

        let mut cell_ms = Vec::with_capacity(grid.cells.len());
        let mut mismatches = 0usize;
        for cell in &grid.cells {
            let (cv, s) = timed(|| {
                tracer.span("svm.cv.cell", |_| {
                    let mut rng = StdRng::seed_from_u64(options.seed);
                    cross_validate_svr(&scaled, cell.params, options.folds, &mut rng)
                })
            });
            cell_ms.push(s * 1e3);
            let same = cv.map(|r| r.mean_mse.to_bits() == cell.cv_mse.to_bits());
            if !matches!(same, Ok(true)) {
                mismatches += 1;
            }
        }
        let checks = vec![
            Check::new(
                "GridSearch::run selects the fit's (C, gamma, eps) and CV MSE",
                best == output.params && grid.best_mse().to_bits() == output.cv_mse.to_bits(),
            ),
            Check::new(
                format!(
                    "SvrModel::train at the selected parameters keeps the fit's {} support vectors",
                    output.support_vectors
                ),
                support_vectors == output.support_vectors,
            ),
            Check::new(
                format!(
                    "serial replay reproduces all {} grid cells ({mismatches} differ)",
                    grid.cells.len()
                ),
                mismatches == 0,
            ),
        ];
        let layer = Values::from([
            ("svm.grid.run_s", grid_s),
            ("svm.smo.solve_s", solve_s),
            ("svm.cv.cell_ms.p50", quantile(&cell_ms, 0.50)),
            ("svm.cv.cell_ms.p90", quantile(&cell_ms, 0.90)),
        ]);
        (checks, layer)
    }
}

/// Prints the reference row of every fold split, for `reference.rs`.
pub fn print_reference_rows() {
    let mut off = Tracer::new(false);
    for split in 0..FOLD_SPLITS {
        let (input, _) = PaperGrid::setup(split);
        let (_, output) = PaperGrid::run(&input, &mut off);
        println!("{}", output.row.render());
    }
}
