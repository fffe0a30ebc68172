//! `fleet-monitor`: the online path operators run.
//!
//! A fleet of standard servers with mixed-task VMs and a telemetry fault
//! plan ticks on the fixed 1 Hz clock; each tick is one
//! `Simulation::step` plus one `FleetMonitor::observe`. A VM burst, a
//! migration wave and an ambient step arrive at 1/3, 1/2 and 2/3 of the
//! run. The deployed model is trained during set-up.

use crate::bulk_train::tuned_params;
use crate::harness::{mix, timed, Check, Counts, Fnv, Run, Values, Workload, TICK_US};
use crate::paper_grid::{campaign_configs, run_campaign, HELD_OUT_SET, PAPER_CAMPAIGN};
use crate::trace::Tracer;
use vmtherm_core::dynamic::DynamicConfig;
use vmtherm_core::monitor::FleetMonitor;
use vmtherm_core::stable::{StablePredictor, TrainingOptions};
use vmtherm_sim::{
    AmbientModel, Datacenter, DropoutFault, Event, FaultPlan, JitterFault, ServerId, ServerSpec,
    SimTime, Simulation, SpikeFault, TaskProfile, VmSpec,
};
use vmtherm_svm::metrics;
use vmtherm_units::{Celsius, Seconds};

/// Fleet size.
pub const SERVERS: usize = 1024;
/// Simulated seconds (one tick each).
pub const TICKS: u64 = 3600;
/// Experiments behind the deployed model, from the paper campaign's
/// generator, so the model does not change with `--seed`. Large enough
/// that the set-up campaign and fit are timed over tenths of a second.
const TRAIN_CASES: usize = 400;
/// Held-out experiments scoring the deployed model.
const HELD_OUT: usize = 100;
/// Forecast horizon (s).
const GAP_SECS: f64 = 60.0;
const AMBIENT_C: f64 = 24.0;
const AMBIENT_STEP_C: f64 = 26.0;
const TASKS: [TaskProfile; 5] = [
    TaskProfile::CpuBound,
    TaskProfile::Mixed,
    TaskProfile::WebServer,
    TaskProfile::MemoryBound,
    TaskProfile::Bursty,
];

/// Inputs of one `fleet-monitor` invocation.
pub struct Input {
    seed: u64,
    model: StablePredictor,
}

/// The `fleet-monitor` workload.
pub struct FleetMonitorWorkload;

/// Builds the fleet: one mixed-task VM per server, a second on every
/// other server, the `fleet_bench` fault plan (2% dropout, 5% spike,
/// 10% jitter), and the scheduled burst, migration wave and ambient step.
fn build_fleet(seed: u64) -> Simulation {
    let dc = Datacenter::homogeneous(
        &ServerSpec::standard("srv"),
        SERVERS,
        8,
        Celsius::new(AMBIENT_C),
        mix(seed, 30),
    );
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(AMBIENT_C), mix(seed, 31));
    sim.set_fault_plan(
        FaultPlan::new(mix(seed, 32))
            .with_dropout(
                DropoutFault::random(0.02, Seconds::new(2.0), Seconds::new(6.0))
                    .expect("dropout channel"),
            )
            .with_spike(
                SpikeFault::random(0.05, Celsius::new(4.0), Celsius::new(9.0))
                    .expect("spike channel"),
            )
            .with_jitter(JitterFault::random(0.1, Seconds::new(1.5)).expect("jitter channel")),
    )
    .expect("valid fault plan");
    let mut movers = Vec::new();
    for s in 0..SERVERS {
        let server = ServerId::new(s);
        let spec = VmSpec::new(
            format!("vm-{s}"),
            2 + (s % 3) as u32,
            4.0,
            TASKS[s % TASKS.len()],
        );
        let vm = sim.boot_vm_now(server, spec).expect("VM fits");
        if s % 2 == 0 {
            let task = TASKS[(s / 2 + 2) % TASKS.len()];
            sim.boot_vm_now(server, VmSpec::new(format!("vm2-{s}"), 2, 4.0, task))
                .expect("second VM fits");
        }
        if s % 16 == 3 {
            movers.push((vm, ServerId::new((s + 5) % SERVERS)));
        }
    }
    for s in (0..SERVERS).step_by(7) {
        sim.schedule(
            SimTime::from_secs(TICKS / 3),
            Event::BootVm {
                server: ServerId::new(s),
                spec: VmSpec::new(format!("burst-{s}"), 4, 8.0, TaskProfile::CpuBound),
            },
        );
    }
    for (vm, dest) in movers {
        sim.schedule(SimTime::from_secs(TICKS / 2), Event::MigrateVm { vm, dest });
    }
    sim.schedule(
        SimTime::from_secs(2 * TICKS / 3),
        Event::SetAmbient(AmbientModel::Fixed(AMBIENT_STEP_C)),
    );
    sim
}

impl Workload for FleetMonitorWorkload {
    type Input = Input;
    type Output = ();

    fn setup(seed: u64) -> (Input, Values) {
        let mut off = Tracer::new(false);
        let (outcomes, secs) =
            run_campaign(&campaign_configs(TRAIN_CASES, PAPER_CAMPAIGN), &mut off);
        let (model, train_s) = timed(|| {
            StablePredictor::fit(
                &outcomes,
                &TrainingOptions::new().with_params(tuned_params()),
            )
            .expect("deployed model trains")
        });
        let (held_out, _) = run_campaign(&campaign_configs(HELD_OUT, HELD_OUT_SET), &mut off);
        let snapshots: Vec<_> = held_out.iter().map(|o| o.snapshot.clone()).collect();
        let measured: Vec<f64> = held_out.iter().map(|o| o.psi_stable).collect();
        let stable_mse = metrics::mse(&measured, &model.predict_batch(&snapshots));
        let values = Values::from([
            ("train_s", train_s),
            (
                "experiments_per_s",
                outcomes.len() as f64 / secs.iter().sum::<f64>(),
            ),
            ("stable_mse", stable_mse),
        ]);
        (Input { seed, model }, values)
    }

    fn run(input: &Input, tracer: &mut Tracer) -> (Run, ()) {
        let mut run = Run::default();
        let mut sim = build_fleet(input.seed);
        let mut monitor = FleetMonitor::new(
            input.model.clone(),
            DynamicConfig::new(),
            SERVERS,
            Seconds::new(GAP_SECS),
        )
        .expect("monitor config");

        let mut tick_us = Vec::with_capacity(TICKS as usize);
        let ((), run_s) = timed(|| {
            for tick in 0..TICKS {
                let ambient = if tick + 1 >= 2 * TICKS / 3 {
                    AMBIENT_STEP_C
                } else {
                    AMBIENT_C
                };
                let ((), s) = timed(|| {
                    tracer.span("sim.engine", |_| sim.step());
                    tracer.span("core.monitor", |_| {
                        monitor.observe(&sim, Celsius::new(ambient))
                    });
                });
                tick_us.push(s * 1e6);
            }
        });
        let server_steps = sim.step_stats().server_steps;
        run.end_to_end.insert("run_s", run_s);
        run.end_to_end
            .insert("server_steps_per_s", server_steps as f64 / run_s);
        run.samples.insert(TICK_US, tick_us);
        let fleet_mse = monitor.fleet_mse();
        run.end_to_end.insert("forecast_mse", fleet_mse);

        let violations = monitor.invariant_report(&sim);
        run.checks.push(Check::new(
            format!(
                "monitor invariant report is empty ({} violations)",
                violations.len()
            ),
            violations.is_empty(),
        ));

        let faults = sim.fault_stats();
        let mut fp = Fnv::new();
        let mut scored = 0u64;
        let mut reanchors = 0u64;
        for s in 0..SERVERS {
            let id = ServerId::new(s);
            let server = sim.datacenter().server(id).expect("server exists");
            fp.float(server.die_temperature());
            let trace = sim.trace(id).expect("trace exists");
            fp.word(trace.sensor_c.len() as u64);
            if let Some(&last) = trace.sensor_c.values().last() {
                fp.float(last);
            }
            fp.word(sim.delivered(id).map_or(0, <[(f64, f64)]>::len) as u64);
            let stats = monitor.stats(id);
            fp.word(stats.scored as u64);
            fp.float(stats.sum_sq_err);
            fp.float(monitor.last_anchor_secs(id));
            scored += stats.scored as u64;
            reanchors += monitor.reanchor_count(id);
        }
        fp.float(fleet_mse);
        run.counts = Counts::from([
            ("sim.engine.server_steps", server_steps),
            ("sim.fault.dropped", faults.dropped),
            ("sim.fault.spiked", faults.spiked),
            ("sim.fault.jittered", faults.jittered),
            ("sim.fault.stuck", faults.stuck),
            ("sim.fault.events_lost", faults.events_lost),
            ("core.monitor.forecasts_scored", scored),
            ("core.monitor.reanchors", reanchors),
        ]);
        for &n in run.counts.values() {
            fp.word(n);
        }
        run.fingerprint = fp.0;
        if tracer.enabled() {
            let r = tracer.run();
            let step: Vec<f64> = tracer
                .durations_ms(r, "sim.engine")
                .iter()
                .map(|ms| ms * 1e3)
                .collect();
            let observe: Vec<f64> = tracer
                .durations_ms(r, "core.monitor")
                .iter()
                .map(|ms| ms * 1e3)
                .collect();
            run.samples.insert("sim.engine.step_us", step);
            run.samples.insert("core.monitor.observe_us", observe);
        }
        (run, ())
    }

    fn finish(_: &Input, (): &(), _: bool, _: &mut Tracer) -> (Vec<Check>, Values) {
        (Vec::new(), Values::new())
    }
}
