//! The pipeline's latency and error families export as P² summaries.
//!
//! Training an SVR, stepping the engine and running the fleet monitor with
//! calibration records into `vmtherm_smo_solve_ns`, `vmtherm_engine_step_ns`,
//! `vmtherm_calibration_update_ns` and `vmtherm_forecast_abs_err_celsius`.
//! Each must render as a Prometheus `summary` (p50/p95/p99 `quantile` lines
//! plus `_sum`/`_count`) and as a JSON `"summary"` entry.

use vmtherm_core::stable::run_experiments;
use vmtherm_core::{DynamicConfig, FleetMonitor, StablePredictor, TrainingOptions};
use vmtherm_obs::{names, Json};
use vmtherm_sim::{
    AmbientModel, CaseGenerator, Datacenter, ServerId, ServerSpec, SimDuration, SimTime,
    Simulation, TaskProfile, VmSpec,
};
use vmtherm_svm::kernel::Kernel;
use vmtherm_svm::svr::SvrParams;
use vmtherm_units::{Celsius, Seconds};

#[test]
fn pipeline_latency_and_error_families_export_as_summaries() {
    vmtherm_obs::set_enabled(true);

    let configs: Vec<_> = CaseGenerator::new(42)
        .random_cases(24, 1_000)
        .into_iter()
        .map(|c| c.with_duration(SimDuration::from_secs(700)))
        .collect();
    let model = StablePredictor::fit(
        &run_experiments(&configs),
        &TrainingOptions::new().with_params(
            SvrParams::new()
                .with_c(128.0)
                .with_epsilon(0.05)
                .with_kernel(Kernel::rbf(0.02)),
        ),
    )
    .expect("stable fit");

    let mut dc = Datacenter::new();
    for i in 0..3 {
        dc.add_server(
            ServerSpec::standard(format!("n{i}")),
            Celsius::new(24.0),
            i as u64,
        );
    }
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 7);
    sim.boot_vm_now(
        ServerId::new(0),
        VmSpec::new("busy", 2, 4.0, TaskProfile::CpuBound),
    )
    .expect("boot");
    let mut monitor =
        FleetMonitor::new(model, DynamicConfig::new(), 3, Seconds::new(5.0)).expect("monitor");
    while sim.now() < SimTime::from_secs(200) {
        sim.step();
        monitor.observe(&sim, Celsius::new(24.0));
    }
    vmtherm_obs::set_enabled(false);

    let registry = vmtherm_obs::global();
    let text = registry.to_prometheus();
    let json = registry.to_json();
    for name in [
        names::METRIC_SMO_SOLVE_NS,
        names::METRIC_ENGINE_STEP_NS,
        names::METRIC_CALIBRATION_UPDATE_NS,
        names::METRIC_FORECAST_ABS_ERR_C,
    ] {
        assert!(
            registry.summary(name).count() > 0,
            "{name} recorded nothing"
        );
        assert!(
            text.contains(&format!("# TYPE {name} summary\n")),
            "{name}:\n{text}"
        );
        for q in ["0.5", "0.95", "0.99"] {
            assert!(
                text.contains(&format!("\n{name}{{quantile=\"{q}\"}} ")),
                "{name} q={q}:\n{text}"
            );
        }
        assert!(text.contains(&format!("\n{name}_count ")), "{name}");
        let entry = json.get(name).expect("family in JSON");
        assert_eq!(entry.get("type").and_then(Json::as_str), Some("summary"));
    }
}
