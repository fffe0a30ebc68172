//! Engine clock properties on small fleets: event-mode sleep engages on a
//! quiet fleet, and time-varying ambient models are evaluated on the
//! global simulation clock.

use vmtherm_sim::{AmbientModel, ClockMode, Datacenter, ServerId, ServerSpec, SimTime, Simulation};
use vmtherm_units::Celsius;

/// A long quiet horizon where event-mode sleep actually engages: the
/// event run must do clearly less work than dense stepping.
#[test]
fn event_mode_sleep_engages_on_a_quiet_fleet() {
    let dc = Datacenter::homogeneous(&ServerSpec::standard("p"), 6, 4, Celsius::new(24.0), 9);
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 9);
    sim.set_clock_mode(ClockMode::Event);
    for _ in 0..1800 {
        sim.step();
    }
    let stats = sim.step_stats();
    assert!(
        stats.skip_factor() > 1.5,
        "sleep never engaged: skip factor {}",
        stats.skip_factor()
    );
}

/// Pins the current global-clock ambient semantics: a scheduled room
/// step lands in every server's ambient trace at the scheduled instant.
#[test]
fn scheduled_ambient_step_is_globally_clocked() {
    let dc = Datacenter::homogeneous(&ServerSpec::standard("p"), 5, 4, Celsius::new(22.0), 3);
    let mut sim = Simulation::new(
        dc,
        AmbientModel::Schedule(vec![(SimTime::ZERO, 22.0), (SimTime::from_secs(15), 27.0)]),
        3,
    );
    for _ in 0..30 {
        sim.step();
    }
    // Each server sees the schedule through its own inlet offset, so
    // pin the shape: constant before the step, constant after, and the
    // step itself is exactly the scheduled +5 °C at t = 15 s.
    for s in 0..5 {
        let trace = sim.trace(ServerId::new(s)).unwrap();
        let before: Vec<f64> = trace
            .times()
            .iter()
            .zip(&trace.ambient_c)
            .filter(|(t, _)| **t < 15.0)
            .map(|(_, v)| *v)
            .collect();
        let after: Vec<f64> = trace
            .times()
            .iter()
            .zip(&trace.ambient_c)
            .filter(|(t, _)| **t >= 15.0)
            .map(|(_, v)| *v)
            .collect();
        assert!(
            !before.is_empty() && !after.is_empty(),
            "server {s} trace empty"
        );
        assert!(
            before.iter().all(|v| (v - before[0]).abs() == 0.0),
            "server {s} ambient drifts before the step"
        );
        assert!(
            after.iter().all(|v| (v - after[0]).abs() == 0.0),
            "server {s} ambient drifts after the step"
        );
        assert!(
            (after[0] - before[0] - 5.0).abs() < 1e-9,
            "server {s} step is {} not +5",
            after[0] - before[0]
        );
    }
}
