//! The `sim.thermal.substeps` obs counter is exact: it counts every RK4
//! substep the integrator runs while the obs layer is enabled, and a
//! registry reset clears everything counted before it.
//!
//! Kept in a test binary of its own: the counter lives in the
//! process-global registry, and no other test may integrate while this one
//! reads it.

use vmtherm_obs::names::METRIC_THERMAL_SUBSTEPS;
use vmtherm_sim::thermal::ThermalNetwork;
use vmtherm_sim::ServerSpec;
use vmtherm_units::{Celsius, Seconds, Watts};

#[test]
fn substep_counter_is_exact_across_a_registry_reset() {
    let mut network = ThermalNetwork::new(ServerSpec::standard("p").thermal(), Celsius::new(24.0));
    let mut step =
        |dt: f64| network.step(Watts::new(120.0), Celsius::new(24.0), 0.3, Seconds::new(dt));
    vmtherm_obs::set_enabled(true);
    let counter = vmtherm_obs::global().counter(METRIC_THERMAL_SUBSTEPS);

    // Some substeps on this thread before the reset (a per-thread batch
    // would still hold them).
    for _ in 0..7 {
        step(2.5); // 3 substeps each
    }
    assert_eq!(counter.get(), 21);
    vmtherm_obs::global().reset();
    assert_eq!(counter.get(), 0);

    // N substeps after the reset read exactly N.
    let mut expected = 0;
    for k in 1..=50u64 {
        step(k as f64); // k substeps
        expected += k;
    }
    assert_eq!(counter.get(), expected);

    // Disabled, the integrator counts nothing.
    vmtherm_obs::set_enabled(false);
    step(4.0);
    assert_eq!(counter.get(), expected);
}
