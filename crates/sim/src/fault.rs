//! Deterministic fault injection for the telemetry path.
//!
//! Real IPMI / `coretemp` telemetry is not the unbroken stream the paper's
//! deployment mode assumes: samples drop out for whole windows, sensors
//! stick at a reading, single readings spike, timestamps jitter and arrive
//! out of order, and reconfiguration notifications get lost. A
//! [`FaultPlan`] describes which of those channels are active and with
//! what intensity; a [`FaultInjector`] applies them between the
//! [`crate::sensor::TemperatureSensor`] and the consumers, with one seeded
//! RNG stream per server so every run is bit-for-bit reproducible.
//!
//! Channels that are not configured draw **no** randomness and touch
//! nothing, so a plan with no channels ([`FaultPlan::is_noop`]) is
//! indistinguishable from having no injector at all — the property the
//! figure harnesses rely on.
//!
//! The physics traces recorded by the engine stay clean (they are ground
//! truth); faults corrupt only the *delivered* stream that monitoring
//! consumers read (see [`crate::engine::Simulation::delivered`]).

use crate::error::SimError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vmtherm_obs::{self as obs, names};
use vmtherm_units::{Celsius, Seconds};

static OBS_DROPPED: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_FAULT_DROPPED_SAMPLES);
static OBS_STUCK: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_FAULT_STUCK_SAMPLES);
static OBS_SPIKES: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_FAULT_SPIKES_INJECTED);
static OBS_JITTERED: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_FAULT_JITTERED_SAMPLES);
static OBS_LOST: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_FAULT_EVENTS_LOST);

fn check_prob(field: &'static str, p: f64) -> Result<(), SimError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(SimError::invalid(field, format!("not a probability: {p}")));
    }
    Ok(())
}

fn check_windows(field: &'static str, windows: &[(f64, f64)]) -> Result<(), SimError> {
    for (start, end) in windows {
        if !(*start >= 0.0) || !(*end > *start) {
            return Err(SimError::invalid(
                field,
                format!("window [{start}, {end}) is not a forward time range"),
            ));
        }
    }
    Ok(())
}

fn in_window(windows: &[(f64, f64)], t: f64) -> Option<f64> {
    windows
        .iter()
        .find(|(start, end)| t >= *start && t < *end)
        .map(|(_, end)| *end)
}

/// Sample dropout: whole windows during which nothing is delivered.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DropoutFault {
    /// Per-sample probability that a new dropout window opens.
    pub window_prob: f64,
    /// Shortest random window (s).
    pub min_secs: f64,
    /// Longest random window (s).
    pub max_secs: f64,
    /// Explicit `[start, end)` windows (s) applied deterministically, in
    /// addition to any random ones — for tests and scripted scenarios.
    pub windows: Vec<(f64, f64)>,
}

impl DropoutFault {
    /// Randomly opening windows of `min`–`max` seconds.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] unless `window_prob` is a probability
    /// and `0 < min ≤ max`.
    pub fn random(window_prob: f64, min: Seconds, max: Seconds) -> Result<Self, SimError> {
        check_prob("dropout.window_prob", window_prob)?;
        if !(min.get() > 0.0) || !(max.get() >= min.get()) {
            return Err(SimError::invalid(
                "dropout.window",
                format!("need 0 < min <= max, got [{}, {}]", min.get(), max.get()),
            ));
        }
        Ok(DropoutFault {
            window_prob,
            min_secs: min.get(),
            max_secs: max.get(),
            windows: Vec::new(),
        })
    }

    /// Only the given explicit `[start, end)` windows (s), no randomness.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an empty or backwards window.
    pub fn scheduled(windows: Vec<(f64, f64)>) -> Result<Self, SimError> {
        check_windows("dropout.windows", &windows)?;
        Ok(DropoutFault {
            window_prob: 0.0,
            min_secs: 0.0,
            max_secs: 0.0,
            windows,
        })
    }
}

/// Stuck-at sensor: windows during which the delivered value freezes at
/// whatever the sensor read when the window opened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StuckFault {
    /// Per-sample probability that a new stuck window opens.
    pub window_prob: f64,
    /// Shortest random window (s).
    pub min_secs: f64,
    /// Longest random window (s).
    pub max_secs: f64,
    /// Explicit `[start, end)` windows (s), deterministic.
    pub windows: Vec<(f64, f64)>,
}

impl StuckFault {
    /// Randomly opening stuck windows of `min`–`max` seconds.
    ///
    /// # Errors
    ///
    /// Same domain as [`DropoutFault::random`].
    pub fn random(window_prob: f64, min: Seconds, max: Seconds) -> Result<Self, SimError> {
        check_prob("stuck.window_prob", window_prob)?;
        if !(min.get() > 0.0) || !(max.get() >= min.get()) {
            return Err(SimError::invalid(
                "stuck.window",
                format!("need 0 < min <= max, got [{}, {}]", min.get(), max.get()),
            ));
        }
        Ok(StuckFault {
            window_prob,
            min_secs: min.get(),
            max_secs: max.get(),
            windows: Vec::new(),
        })
    }

    /// Only the given explicit `[start, end)` windows (s), no randomness.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an empty or backwards window.
    pub fn scheduled(windows: Vec<(f64, f64)>) -> Result<Self, SimError> {
        check_windows("stuck.windows", &windows)?;
        Ok(StuckFault {
            window_prob: 0.0,
            min_secs: 0.0,
            max_secs: 0.0,
            windows,
        })
    }
}

/// Spike outliers: single readings shifted by a large offset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpikeFault {
    /// Per-sample probability of a random spike.
    pub prob: f64,
    /// Smallest random spike magnitude (°C); sign is drawn per spike.
    pub min_magnitude_c: f64,
    /// Largest random spike magnitude (°C).
    pub max_magnitude_c: f64,
    /// Explicit spikes as `(time_secs, signed offset °C)`, deterministic;
    /// a spike fires on the first sample at or after its time.
    pub at: Vec<(f64, f64)>,
}

impl SpikeFault {
    /// Random spikes with magnitudes in `min`–`max` °C (random sign).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] unless `prob` is a probability and
    /// `0 < min ≤ max`.
    pub fn random(prob: f64, min: Celsius, max: Celsius) -> Result<Self, SimError> {
        check_prob("spike.prob", prob)?;
        if !(min.get() > 0.0) || !(max.get() >= min.get()) {
            return Err(SimError::invalid(
                "spike.magnitude",
                format!("need 0 < min <= max, got [{}, {}]", min.get(), max.get()),
            ));
        }
        Ok(SpikeFault {
            prob,
            min_magnitude_c: min.get(),
            max_magnitude_c: max.get(),
            at: Vec::new(),
        })
    }

    /// Only the given explicit `(time_secs, offset °C)` spikes.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for a negative time or zero offset.
    pub fn scheduled(at: Vec<(f64, f64)>) -> Result<Self, SimError> {
        for (t, offset) in &at {
            if !(*t >= 0.0) || *offset == 0.0 || !offset.is_finite() {
                return Err(SimError::invalid(
                    "spike.at",
                    format!("spike ({t}, {offset}) needs t >= 0 and a finite nonzero offset"),
                ));
            }
        }
        Ok(SpikeFault {
            prob: 0.0,
            min_magnitude_c: 0.0,
            max_magnitude_c: 0.0,
            at,
        })
    }
}

/// Clock jitter / out-of-order delivery: some samples arrive with a
/// timestamp skewed backwards, behind already-delivered samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitterFault {
    /// Per-sample probability of a skewed timestamp.
    pub prob: f64,
    /// Largest backwards skew (s).
    pub max_skew_secs: f64,
}

impl JitterFault {
    /// Random backwards skews up to `max_skew`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] unless `prob` is a probability and the
    /// skew is positive.
    pub fn random(prob: f64, max_skew: Seconds) -> Result<Self, SimError> {
        check_prob("jitter.prob", prob)?;
        if !(max_skew.get() > 0.0) {
            return Err(SimError::invalid(
                "jitter.max_skew",
                format!("must be > 0 s, got {}", max_skew.get()),
            ));
        }
        Ok(JitterFault {
            prob,
            max_skew_secs: max_skew.get(),
        })
    }
}

/// Lost reconfiguration events: some engine log entries are flagged as
/// never having reached the monitoring plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LostEventFault {
    /// Per-event probability of being lost.
    pub prob: f64,
}

impl LostEventFault {
    /// Loses each reconfiguration notification with probability `prob`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] unless `prob` is a probability.
    pub fn random(prob: f64) -> Result<Self, SimError> {
        check_prob("lost_event.prob", prob)?;
        Ok(LostEventFault { prob })
    }
}

/// A composed, seeded description of which fault channels are active.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every channel's RNG stream (per-server streams are derived
    /// from it, so fleet runs replay exactly).
    pub seed: u64,
    /// Sample dropout windows, if enabled.
    pub dropout: Option<DropoutFault>,
    /// Stuck-at windows, if enabled.
    pub stuck: Option<StuckFault>,
    /// Spike outliers, if enabled.
    pub spike: Option<SpikeFault>,
    /// Clock jitter / out-of-order delivery, if enabled.
    pub jitter: Option<JitterFault>,
    /// Lost reconfiguration events, if enabled.
    pub lost_events: Option<LostEventFault>,
}

impl FaultPlan {
    /// An empty plan (no channels) with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            dropout: None,
            stuck: None,
            spike: None,
            jitter: None,
            lost_events: None,
        }
    }

    /// The canonical disabled plan.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::new(0)
    }

    /// Enables sample dropout.
    #[must_use]
    pub fn with_dropout(mut self, dropout: DropoutFault) -> Self {
        self.dropout = Some(dropout);
        self
    }

    /// Enables stuck-at windows.
    #[must_use]
    pub fn with_stuck(mut self, stuck: StuckFault) -> Self {
        self.stuck = Some(stuck);
        self
    }

    /// Enables spike outliers.
    #[must_use]
    pub fn with_spike(mut self, spike: SpikeFault) -> Self {
        self.spike = Some(spike);
        self
    }

    /// Enables clock jitter.
    #[must_use]
    pub fn with_jitter(mut self, jitter: JitterFault) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// Enables lost reconfiguration events.
    #[must_use]
    pub fn with_lost_events(mut self, lost: LostEventFault) -> Self {
        self.lost_events = Some(lost);
        self
    }

    /// Every *scheduled* fault boundary instant (seconds): dropout and
    /// stuck window opens/closes plus scheduled spike times, sorted
    /// ascending and deduplicated. The event-driven engine wakes the
    /// fleet at these instants so sparse sampling still resolves window
    /// edges — a delivered stream must show the last good sample before
    /// a window and the first one after it. Random channels draw per
    /// delivered sample and need no boundary wake-ups.
    #[must_use]
    pub fn scheduled_boundaries(&self) -> Vec<f64> {
        let mut bounds = Vec::new();
        let windows = [
            self.dropout.as_ref().map(|d| &d.windows),
            self.stuck.as_ref().map(|s| &s.windows),
        ];
        for wins in windows.into_iter().flatten() {
            for (start, end) in wins {
                bounds.push(*start);
                bounds.push(*end);
            }
        }
        if let Some(spike) = &self.spike {
            for (t, _) in &spike.at {
                bounds.push(*t);
            }
        }
        bounds.sort_by(f64::total_cmp);
        bounds.dedup_by(|a, b| a.to_bits() == b.to_bits());
        bounds
    }

    /// `true` when no channel is configured: injecting this plan is
    /// bit-identical to not injecting at all.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.dropout.is_none()
            && self.stuck.is_none()
            && self.spike.is_none()
            && self.jitter.is_none()
            && self.lost_events.is_none()
    }
}

/// What one channel did so far (counts of corrupted deliveries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Samples dropped (never delivered).
    pub dropped: u64,
    /// Samples replaced by a stuck value.
    pub stuck: u64,
    /// Samples shifted by a spike.
    pub spiked: u64,
    /// Samples delivered with a skewed timestamp.
    pub jittered: u64,
    /// Reconfiguration events lost.
    pub events_lost: u64,
}

impl FaultStats {
    fn add(&mut self, other: &FaultStats) {
        self.dropped += other.dropped;
        self.stuck += other.stuck;
        self.spiked += other.spiked;
        self.jittered += other.jittered;
        self.events_lost += other.events_lost;
    }
}

/// Per-server channel state: one RNG stream plus open-window bookkeeping.
///
/// The RNG stream is derived from `plan.seed ⊕ f(stable server index)`,
/// so a server consumes the same draws however many other servers share
/// the plan.
#[derive(Debug, Clone)]
struct ServerFaultState {
    rng: StdRng,
    drop_until_secs: f64,
    stuck_until_secs: f64,
    stuck_value_c: f64,
    /// Index into the explicit spike list of the next unfired spike.
    spike_cursor: usize,
    stats: FaultStats,
}

impl ServerFaultState {
    fn new(seed: u64, server: usize) -> Self {
        ServerFaultState {
            rng: StdRng::seed_from_u64(
                seed ^ (server as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            drop_until_secs: f64::NEG_INFINITY,
            stuck_until_secs: f64::NEG_INFINITY,
            stuck_value_c: 0.0,
            spike_cursor: 0,
            stats: FaultStats::default(),
        }
    }

    /// Routes one sensor reading through the active channels of `plan`.
    /// All randomness comes from this state's own stream.
    ///
    /// Channel order: stuck → spike → dropout → jitter. A stuck sensor
    /// freezes the raw reading; a spike rides on top of whatever the
    /// sensor path produced; dropout then decides whether anything
    /// leaves the box at all; jitter perturbs only the timestamp.
    fn deliver(
        &mut self,
        plan: &FaultPlan,
        server: usize,
        t: Seconds,
        reading: Celsius,
    ) -> Option<(Seconds, Celsius)> {
        let state = self;
        let t_secs = t.get();
        let mut value_c = reading.get();

        if let Some(stuck) = &plan.stuck {
            let held = if t_secs < state.stuck_until_secs {
                true
            } else if let Some(end) = in_window(&stuck.windows, t_secs) {
                state.stuck_until_secs = end;
                state.stuck_value_c = value_c;
                false // the first sample in a window is its own value
            } else if stuck.window_prob > 0.0 && state.rng.gen_range(0.0..1.0) < stuck.window_prob {
                let len = state.rng.gen_range(stuck.min_secs..=stuck.max_secs);
                state.stuck_until_secs = t_secs + len;
                state.stuck_value_c = value_c;
                false
            } else {
                false
            };
            if held {
                value_c = state.stuck_value_c;
                state.stats.stuck += 1;
                OBS_STUCK.inc();
                obs::emit_with(|| obs::ObsEvent::Fault {
                    t_secs,
                    server,
                    channel: "stuck".to_string(),
                });
            }
        }

        if let Some(spike) = &plan.spike {
            let mut offset = 0.0;
            if let Some((at, o)) = spike.at.get(state.spike_cursor) {
                if t_secs >= *at {
                    state.spike_cursor += 1;
                    offset = *o;
                }
            }
            if offset == 0.0 && spike.prob > 0.0 && state.rng.gen_range(0.0..1.0) < spike.prob {
                let magnitude = state
                    .rng
                    .gen_range(spike.min_magnitude_c..=spike.max_magnitude_c);
                offset = if state.rng.gen_range(0u32..2) == 0 {
                    magnitude
                } else {
                    -magnitude
                };
            }
            if offset != 0.0 {
                value_c += offset;
                state.stats.spiked += 1;
                OBS_SPIKES.inc();
                obs::emit_with(|| obs::ObsEvent::Fault {
                    t_secs,
                    server,
                    channel: "spike".to_string(),
                });
            }
        }

        if let Some(dropout) = &plan.dropout {
            let mut dropped =
                t_secs < state.drop_until_secs || in_window(&dropout.windows, t_secs).is_some();
            if !dropped
                && dropout.window_prob > 0.0
                && state.rng.gen_range(0.0..1.0) < dropout.window_prob
            {
                let len = state.rng.gen_range(dropout.min_secs..=dropout.max_secs);
                state.drop_until_secs = t_secs + len;
                dropped = true;
            }
            if dropped {
                state.stats.dropped += 1;
                OBS_DROPPED.inc();
                obs::emit_with(|| obs::ObsEvent::Fault {
                    t_secs,
                    server,
                    channel: "dropout".to_string(),
                });
                return None;
            }
        }

        let mut out_t = t_secs;
        if let Some(jitter) = &plan.jitter {
            if jitter.prob > 0.0 && state.rng.gen_range(0.0..1.0) < jitter.prob {
                let skew = state.rng.gen_range(0.0..jitter.max_skew_secs);
                out_t = (t_secs - skew).max(0.0);
                state.stats.jittered += 1;
                OBS_JITTERED.inc();
                obs::emit_with(|| obs::ObsEvent::Fault {
                    t_secs,
                    server,
                    channel: "jitter".to_string(),
                });
            }
        }

        Some((Seconds::new(out_t), Celsius::new(value_c)))
    }
}

/// Applies a [`FaultPlan`] to per-server sensor deliveries.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    servers: Vec<ServerFaultState>,
    event_rng: StdRng,
    events_lost: u64,
}

impl FaultInjector {
    /// Builds an injector for the plan. Per-server state is created
    /// lazily as servers are seen, so fleets may grow mid-run.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] — channel constructors validate their
    /// own domains, but a hand-assembled plan is re-checked here.
    pub fn new(plan: FaultPlan) -> Result<Self, SimError> {
        if let Some(d) = &plan.dropout {
            check_prob("dropout.window_prob", d.window_prob)?;
            check_windows("dropout.windows", &d.windows)?;
        }
        if let Some(s) = &plan.stuck {
            check_prob("stuck.window_prob", s.window_prob)?;
            check_windows("stuck.windows", &s.windows)?;
        }
        if let Some(s) = &plan.spike {
            check_prob("spike.prob", s.prob)?;
        }
        if let Some(j) = &plan.jitter {
            check_prob("jitter.prob", j.prob)?;
        }
        if let Some(l) = &plan.lost_events {
            check_prob("lost_event.prob", l.prob)?;
        }
        let event_rng = StdRng::seed_from_u64(plan.seed ^ 0x00C0_FFEE);
        Ok(FaultInjector {
            plan,
            servers: Vec::new(),
            event_rng,
            events_lost: 0,
        })
    }

    /// The plan this injector applies.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Routes one sensor reading through the active channels. Returns the
    /// (possibly re-timestamped, possibly corrupted) sample to deliver, or
    /// `None` when it was dropped.
    ///
    /// Channel order: stuck → spike → dropout → jitter (see
    /// `ServerFaultState::deliver`).
    pub fn deliver(
        &mut self,
        server: usize,
        t: Seconds,
        reading: Celsius,
    ) -> Option<(Seconds, Celsius)> {
        while self.servers.len() <= server {
            let idx = self.servers.len();
            self.servers
                .push(ServerFaultState::new(self.plan.seed, idx));
        }
        self.servers[server].deliver(&self.plan, server, t, reading)
    }

    /// Decides whether the next reconfiguration notification is lost.
    /// Draws randomness only when the channel is enabled.
    pub fn event_lost(&mut self) -> bool {
        let Some(lost) = &self.plan.lost_events else {
            return false;
        };
        if lost.prob > 0.0 && self.event_rng.gen_range(0.0..1.0) < lost.prob {
            self.events_lost += 1;
            OBS_LOST.inc();
            true
        } else {
            false
        }
    }

    /// Per-server injection counts (zeros for a server never seen).
    #[must_use]
    pub fn stats(&self, server: usize) -> FaultStats {
        self.servers
            .get(server)
            .map(|s| s.stats)
            .unwrap_or_default()
    }

    /// Injection counts summed over servers, plus lost events.
    #[must_use]
    pub fn total_stats(&self) -> FaultStats {
        let mut total = FaultStats {
            events_lost: self.events_lost,
            ..FaultStats::default()
        };
        for s in &self.servers {
            total.add(&s.stats);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: f64) -> Seconds {
        Seconds::new(v)
    }

    fn c(v: f64) -> Celsius {
        Celsius::new(v)
    }

    #[test]
    fn scheduled_boundaries_collect_sorted_dedup() {
        let plan = FaultPlan::new(1)
            .with_dropout(DropoutFault::scheduled(vec![(10.0, 20.0), (40.0, 45.0)]).unwrap())
            .with_stuck(StuckFault::scheduled(vec![(20.0, 30.0)]).unwrap())
            .with_spike(SpikeFault::scheduled(vec![(15.0, 5.0)]).unwrap());
        assert_eq!(
            plan.scheduled_boundaries(),
            vec![10.0, 15.0, 20.0, 30.0, 40.0, 45.0]
        );
        // Random-only channels contribute no boundaries.
        let random = FaultPlan::new(2)
            .with_jitter(JitterFault::random(0.1, s(1.0)).unwrap())
            .with_spike(SpikeFault::random(0.1, c(2.0), c(4.0)).unwrap());
        assert!(random.scheduled_boundaries().is_empty());
    }

    /// Feeds a fixed ramp through an injector, returning the deliveries.
    fn run_plan(plan: FaultPlan, samples: usize) -> Vec<Option<(f64, f64)>> {
        let mut injector = FaultInjector::new(plan).expect("valid plan");
        (0..samples)
            .map(|i| {
                injector
                    .deliver(0, s(i as f64), c(40.0 + i as f64 * 0.01))
                    .map(|(t, v)| (t.get(), v.get()))
            })
            .collect()
    }

    #[test]
    fn noop_plan_is_identity() {
        let out = run_plan(FaultPlan::none(), 50);
        for (i, d) in out.iter().enumerate() {
            let (t, v) = d.expect("nothing dropped");
            assert_eq!(t, i as f64);
            assert_eq!(v, 40.0 + i as f64 * 0.01);
        }
    }

    /// Table-driven determinism: every channel, same seed → same stream,
    /// different seed → different stream.
    #[test]
    fn every_channel_is_deterministic_per_seed() {
        let plans: Vec<(&str, Box<dyn Fn(u64) -> FaultPlan>)> = vec![
            (
                "dropout",
                Box::new(|seed| {
                    FaultPlan::new(seed)
                        .with_dropout(DropoutFault::random(0.05, s(5.0), s(20.0)).expect("dropout"))
                }),
            ),
            (
                "stuck",
                Box::new(|seed| {
                    FaultPlan::new(seed)
                        .with_stuck(StuckFault::random(0.05, s(5.0), s(20.0)).expect("stuck"))
                }),
            ),
            (
                "spike",
                Box::new(|seed| {
                    FaultPlan::new(seed)
                        .with_spike(SpikeFault::random(0.1, c(5.0), c(15.0)).expect("spike"))
                }),
            ),
            (
                "jitter",
                Box::new(|seed| {
                    FaultPlan::new(seed)
                        .with_jitter(JitterFault::random(0.2, s(10.0)).expect("jitter"))
                }),
            ),
        ];
        for (name, make) in &plans {
            let a = run_plan(make(7), 400);
            let b = run_plan(make(7), 400);
            let other = run_plan(make(8), 400);
            assert_eq!(a, b, "{name} not reproducible");
            assert_ne!(a, other, "{name} ignores the seed");
            // The channel actually did something at these intensities.
            let clean = run_plan(FaultPlan::none(), 400);
            assert_ne!(a, clean, "{name} injected nothing");
        }
    }

    #[test]
    fn lost_events_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let plan =
                FaultPlan::new(seed).with_lost_events(LostEventFault::random(0.3).expect("lost"));
            let mut injector = FaultInjector::new(plan).expect("valid");
            (0..100).map(|_| injector.event_lost()).collect()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        assert!(draw(3).iter().any(|l| *l));
        assert!(draw(3).iter().any(|l| !*l));
    }

    #[test]
    fn scheduled_dropout_drops_exactly_the_window() {
        let plan = FaultPlan::new(1)
            .with_dropout(DropoutFault::scheduled(vec![(10.0, 20.0)]).expect("windows"));
        let out = run_plan(plan, 30);
        for (i, d) in out.iter().enumerate() {
            let t = i as f64;
            if (10.0..20.0).contains(&t) {
                assert!(d.is_none(), "sample at {t} should be dropped");
            } else {
                assert!(d.is_some(), "sample at {t} should be delivered");
            }
        }
    }

    #[test]
    fn scheduled_stuck_freezes_the_window_start_value() {
        let plan = FaultPlan::new(1)
            .with_stuck(StuckFault::scheduled(vec![(10.0, 20.0)]).expect("windows"));
        let out = run_plan(plan, 30);
        let frozen = out[10].expect("window start delivered").1;
        assert_eq!(frozen, 40.0 + 10.0 * 0.01);
        for i in 11..20 {
            assert_eq!(out[i].expect("held sample").1, frozen, "sample {i}");
        }
        assert_ne!(out[20].expect("window over").1, frozen);
    }

    #[test]
    fn scheduled_spike_shifts_one_sample() {
        let plan =
            FaultPlan::new(1).with_spike(SpikeFault::scheduled(vec![(5.0, 9.5)]).expect("at"));
        let out = run_plan(plan, 10);
        assert_eq!(out[5].expect("delivered").1, 40.0 + 5.0 * 0.01 + 9.5);
        assert_eq!(out[6].expect("delivered").1, 40.0 + 6.0 * 0.01);
    }

    #[test]
    fn jitter_produces_out_of_order_timestamps() {
        let plan =
            FaultPlan::new(5).with_jitter(JitterFault::random(0.3, s(30.0)).expect("jitter"));
        let out: Vec<(f64, f64)> = run_plan(plan, 300).into_iter().flatten().collect();
        let backwards = out.windows(2).filter(|w| w[1].0 < w[0].0).count();
        assert!(backwards > 0, "no out-of-order delivery at 30% skew");
        // Values are untouched — jitter perturbs only the clock.
        for (i, (_, v)) in out.iter().enumerate() {
            assert_eq!(*v, 40.0 + i as f64 * 0.01);
        }
    }

    #[test]
    fn stats_count_each_channel() {
        let plan = FaultPlan::new(9)
            .with_dropout(DropoutFault::scheduled(vec![(0.0, 5.0)]).expect("d"))
            .with_stuck(StuckFault::scheduled(vec![(10.0, 15.0)]).expect("s"))
            .with_spike(SpikeFault::scheduled(vec![(20.0, 8.0)]).expect("sp"));
        let mut injector = FaultInjector::new(plan).expect("valid");
        for i in 0..30 {
            let _ = injector.deliver(0, s(i as f64), c(50.0));
        }
        let stats = injector.stats(0);
        assert_eq!(stats.dropped, 5);
        assert_eq!(stats.stuck, 4); // samples 11..15 held (10 is its own value)
        assert_eq!(stats.spiked, 1);
        let total = injector.total_stats();
        assert_eq!(total.dropped, 5);
        // Server streams are independent: server 1 saw nothing.
        assert_eq!(injector.stats(1), FaultStats::default());
    }

    #[test]
    fn per_server_streams_are_decorrelated() {
        let plan =
            FaultPlan::new(11).with_spike(SpikeFault::random(0.2, c(5.0), c(10.0)).expect("spike"));
        let mut injector = FaultInjector::new(plan).expect("valid");
        let mut streams: Vec<Vec<Option<f64>>> = vec![Vec::new(), Vec::new()];
        for i in 0..200 {
            for server in 0..2 {
                streams[server].push(
                    injector
                        .deliver(server, s(i as f64), c(50.0))
                        .map(|(_, v)| v.get()),
                );
            }
        }
        assert_ne!(streams[0], streams[1], "servers share a fault stream");
    }

    #[test]
    fn invalid_channels_rejected() {
        assert!(matches!(
            DropoutFault::random(1.5, s(5.0), s(10.0)),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(DropoutFault::random(0.1, s(10.0), s(5.0)).is_err());
        assert!(DropoutFault::scheduled(vec![(5.0, 5.0)]).is_err());
        assert!(StuckFault::random(-0.1, s(5.0), s(10.0)).is_err());
        assert!(SpikeFault::random(0.1, c(-1.0), c(5.0)).is_err());
        assert!(SpikeFault::scheduled(vec![(1.0, 0.0)]).is_err());
        assert!(JitterFault::random(0.1, s(0.0)).is_err());
        assert!(LostEventFault::random(2.0).is_err());
    }

    #[test]
    fn noop_detection() {
        assert!(FaultPlan::none().is_noop());
        assert!(FaultPlan::new(42).is_noop());
        let plan = FaultPlan::new(42).with_lost_events(LostEventFault::random(0.0).expect("lost"));
        assert!(!plan.is_noop());
    }
}
