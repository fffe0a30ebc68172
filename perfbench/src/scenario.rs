//! Fig. 1(c) dynamic scenarios: a 4-fan server boots a VM mix at t = 0
//! and takes a one-VM burst mid-run; the calibrated dynamic predictor is
//! scored on the measured sensor series.

use vmtherm_core::dynamic::{DynamicConfig, DynamicPredictor};
use vmtherm_core::eval::{evaluate_dynamic, AnchorPoint};
use vmtherm_core::stable::StablePredictor;
use vmtherm_sim::{
    AmbientModel, ConfigSnapshot, Datacenter, Event, ServerSpec, SimTime, Simulation, TaskProfile,
    TimeSeries, VmSpec,
};
use vmtherm_units::{Celsius, Seconds};

/// Scenarios per Fig. 1(c) cell.
pub const SCENARIOS: usize = 6;
const RECONFIG_AT_SECS: u64 = 900;
const TOTAL_SECS: u64 = 1800;
const TASKS: [TaskProfile; 5] = [
    TaskProfile::CpuBound,
    TaskProfile::Mixed,
    TaskProfile::WebServer,
    TaskProfile::MemoryBound,
    TaskProfile::Bursty,
];

/// One measured scenario, before any model is involved.
pub struct Scenario {
    series: TimeSeries,
    before: ConfigSnapshot,
    after: ConfigSnapshot,
}

/// Simulates the Fig. 1(c) scenarios: 3..=8 initial VMs, ambient
/// 20–27.5 °C, one cpu-bound VM booted at 900 s of 1800 s, seeds
/// 100..=105 (the `fig1c` binary's scenarios).
#[must_use]
pub fn build_scenarios() -> Vec<Scenario> {
    (0..SCENARIOS)
        .map(|i| {
            let ambient = 20.0 + i as f64 * 1.5;
            let sim_seed = 100 + i as u64;
            let mut dc = Datacenter::new();
            let sid = dc.add_server(
                ServerSpec::commodity("dyn", 16, 2.4, 64.0, 4),
                Celsius::new(ambient),
                sim_seed,
            );
            let mut sim = Simulation::new(dc, AmbientModel::Fixed(ambient), sim_seed);
            for v in 0..3 + i {
                let spec = VmSpec::new(format!("vm-{v}"), 2, 4.0, TASKS[v % TASKS.len()]);
                sim.boot_vm_now(sid, spec).expect("scenario VM fits");
            }
            let before = ConfigSnapshot::capture(&sim, sid, Celsius::new(ambient));
            sim.schedule(
                SimTime::from_secs(RECONFIG_AT_SECS),
                Event::BootVm {
                    server: sid,
                    spec: VmSpec::new("burst", 2, 4.0, TaskProfile::CpuBound),
                },
            );
            sim.run_until(SimTime::from_secs(TOTAL_SECS));
            let after = ConfigSnapshot::capture(&sim, sid, Celsius::new(ambient));
            let series = sim.trace(sid).expect("scenario trace").sensor_c.clone();
            Scenario {
                series,
                before,
                after,
            }
        })
        .collect()
}

/// ψ_stable anchors for every scenario from the deployed model.
#[must_use]
pub fn anchors(model: &StablePredictor, scenarios: &[Scenario]) -> Vec<[AnchorPoint; 2]> {
    let snapshots: Vec<ConfigSnapshot> = scenarios
        .iter()
        .flat_map(|s| [s.before.clone(), s.after.clone()])
        .collect();
    model
        .predict_batch(&snapshots)
        .chunks_exact(2)
        .map(|psi| {
            [
                AnchorPoint {
                    t_secs: 0.0,
                    psi_stable: psi[0],
                },
                AnchorPoint {
                    t_secs: RECONFIG_AT_SECS as f64,
                    psi_stable: psi[1],
                },
            ]
        })
        .collect()
}

/// Mean calibrated dynamic MSE of one (Δ_gap, Δ_update) cell over the
/// scenarios.
#[must_use]
pub fn score_cell(
    scenarios: &[Scenario],
    anchors: &[[AnchorPoint; 2]],
    gap_secs: f64,
    update_secs: f64,
) -> f64 {
    let config = DynamicConfig::new().with_update_interval(Seconds::new(update_secs));
    scenarios
        .iter()
        .zip(anchors)
        .map(|(s, a)| {
            let mut predictor = DynamicPredictor::new(config).expect("valid dynamic config");
            evaluate_dynamic(&mut predictor, &s.series, Seconds::new(gap_secs), a).mse
        })
        .sum::<f64>()
        / scenarios.len() as f64
}
