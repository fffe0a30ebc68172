//! Event-driven stepping benchmark: sparse steady-state wake-ups vs.
//! dense fixed-step integration, with a bit-identity proof.
//!
//! Runs one fleet scenario twice — a 48-server mostly-idle datacenter
//! (46 servers host a single constant-demand idle VM, 2 host CPU-bound
//! random-walk VMs that can never sleep) with mid-run transients of
//! every kind: a late boot, a fan-speed change, a fan failure, a VM
//! stop and a live migration. The first run uses `ClockMode::Fixed`
//! (every server integrates every tick), the second `ClockMode::Event`
//! (steady servers sleep up to 16 s and integrate the accumulated
//! interval in one step-size-exact call at wake-up). Two things come
//! out:
//!
//! - **A bit-identity proof**: an FNV-1a fingerprint folded over every
//!   physical end-state bit — die temperatures, last power and
//!   utilization, room heat — which must be *equal bits* across the two
//!   modes. Sleeping is only permitted where skipping is provably
//!   exact, so this holds through every transient, not just at idle.
//! - **The work ratio**: dense server-steps over actually performed
//!   server-steps ([`StepStats::skip_factor`]), the quantity event mode
//!   exists to improve.
//!
//! Writes the machine-readable `BENCH_events.json`. Pass `--check` for
//! CI smoke mode, which asserts instead of merely recording:
//!
//! - fixed- and event-mode physical end states are bit-identical
//!   (unconditional — exactness is by construction, not tolerance),
//! - event mode performs ≥5× fewer server-steps than dense stepping on
//!   this mostly-idle fleet.
//!
//! Run with: `cargo run --release -p vmtherm-bench --bin event_bench`
//! (optionally `--out PATH`, default `BENCH_events.json`).

use std::time::Instant;
use vmtherm_obs::{json, Json};
use vmtherm_sim::fan::FanSpeed;
use vmtherm_sim::{
    AmbientModel, ClockMode, Datacenter, Event, ServerId, ServerSpec, SimTime, Simulation,
    StepStats, TaskProfile, VmId, VmSpec,
};
use vmtherm_units::Celsius;

/// Fleet size.
const SERVERS: usize = 48;
/// Scenario length in 1 Hz ticks: two hours, long enough that the
/// steady-state tail dominates the dense warm-up transient.
const STEPS: u64 = 7200;
/// The ISSUE acceptance bar: event mode must do at least 5x fewer
/// server-steps than dense stepping on this mostly-idle fleet.
const SKIP_BAR: f64 = 5.0;

struct Opts {
    check: bool,
    out: String,
}

fn parse_opts() -> Opts {
    let check = std::env::args().any(|a| a == "--check");
    let mut out = "BENCH_events.json".to_string();
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--out" {
            if let Some(path) = args.next() {
                out = path;
            }
        }
    }
    Opts { check, out }
}

/// FNV-1a over `u64` words — a stable, dependency-free fold for the
/// bit-identity fingerprint.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn bits(&mut self, x: f64) {
        self.fold(x.to_bits());
    }
}

/// The mostly-idle fleet with mid-run transients. VM ids are the boot
/// order: VM `s` lands on server `s`.
fn scenario(mode: ClockMode) -> Simulation {
    let dc = Datacenter::homogeneous(
        &ServerSpec::standard("srv"),
        SERVERS,
        8,
        Celsius::new(24.0),
        5,
    );
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 9).with_clock(mode);
    for s in 0..SERVERS {
        let (name, vcpus, task) = if s < 2 {
            ("hot", 4, TaskProfile::CpuBound)
        } else {
            ("idle", 1, TaskProfile::Idle)
        };
        sim.boot_vm_now(
            ServerId::new(s),
            VmSpec::new(format!("{name}-{s}"), vcpus, 2.0, task),
        )
        .expect("scenario VM placement");
    }
    // Mid-run transients: each one must settle the affected sleepers to
    // exact dense-mode state before mutating them.
    sim.schedule(
        SimTime::from_secs(1800),
        Event::BootVm {
            server: ServerId::new(5),
            spec: VmSpec::new("late", 1, 2.0, TaskProfile::Idle),
        },
    );
    sim.schedule(
        SimTime::from_secs(2400),
        Event::SetFanSpeed {
            server: ServerId::new(6),
            speed: FanSpeed::High,
        },
    );
    sim.schedule(
        SimTime::from_secs(3000),
        Event::FailFans {
            server: ServerId::new(7),
            count: 1,
        },
    );
    sim.schedule(SimTime::from_secs(3600), Event::StopVm(VmId::new(10)));
    sim.schedule(
        SimTime::from_secs(4200),
        Event::MigrateVm {
            vm: VmId::new(11),
            dest: ServerId::new(12),
        },
    );
    sim
}

/// Fingerprint of the physical end state — the quantities that must be
/// bit-identical across clock modes. (Telemetry density and therefore
/// sensor-RNG consumption legitimately differ; physics may not.)
fn physical_fingerprint(sim: &Simulation) -> u64 {
    let mut fnv = Fnv::new();
    fnv.bits(sim.datacenter().room_heat_kw());
    for s in 0..SERVERS {
        let server = sim.datacenter().server(ServerId::new(s)).expect("server");
        fnv.bits(server.die_temperature());
        fnv.bits(server.last_power());
        fnv.bits(server.last_utilization());
    }
    fnv.0
}

struct Run {
    fingerprint: u64,
    stats: StepStats,
    wall_secs: f64,
    trace_samples: u64,
}

fn run(mode: ClockMode) -> Run {
    let mut sim = scenario(mode);
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs(STEPS));
    let wall_secs = t0.elapsed().as_secs_f64();
    let trace_samples = (0..SERVERS)
        .map(|s| sim.trace(ServerId::new(s)).expect("trace").sensor_c.len() as u64)
        .sum();
    Run {
        fingerprint: physical_fingerprint(&sim),
        stats: sim.step_stats(),
        wall_secs,
        trace_samples,
    }
}

fn main() {
    let opts = parse_opts();

    eprintln!("events: {SERVERS} servers x {STEPS} ticks, fixed vs event clock");
    let fixed = run(ClockMode::Fixed);
    let event = run(ClockMode::Event);
    let identical = fixed.fingerprint == event.fingerprint;
    let skip = event.stats.skip_factor();
    eprintln!(
        "fixed  {:>9} server-steps  {:>8} samples  fp {:016x}",
        fixed.stats.server_steps, fixed.trace_samples, fixed.fingerprint
    );
    eprintln!(
        "event  {:>9} server-steps  {:>8} samples  fp {:016x}  skip {skip:.2}x",
        event.stats.server_steps, event.trace_samples, event.fingerprint
    );

    let mode_json = |r: &Run| {
        Json::obj(vec![
            ("server_steps", Json::Num(r.stats.server_steps as f64)),
            (
                "dense_server_steps",
                Json::Num(r.stats.dense_server_steps as f64),
            ),
            ("trace_samples", Json::Num(r.trace_samples as f64)),
            ("wall_secs", Json::Num(r.wall_secs)),
            ("fingerprint", Json::Str(format!("{:016x}", r.fingerprint))),
        ])
    };
    let doc = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        (
            "protocol",
            Json::obj(vec![
                ("servers", Json::Num(SERVERS as f64)),
                ("steps", Json::Num(STEPS as f64)),
                ("idle_servers", Json::Num((SERVERS - 2) as f64)),
                ("skip_bar", Json::Num(SKIP_BAR)),
            ]),
        ),
        ("fixed", mode_json(&fixed)),
        ("event", mode_json(&event)),
        ("skip_factor", Json::Num(skip)),
        ("bit_identical", Json::Bool(identical)),
    ]);
    let mut text = doc.render_pretty();
    text.push('\n');
    json::parse(&text).expect("rendered BENCH_events.json must parse");
    if let Err(e) = std::fs::write(&opts.out, text) {
        eprintln!("failed to write {}: {e}", opts.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", opts.out);

    let mut failures = Vec::new();
    if !identical {
        failures.push(format!(
            "physical end states differ: fixed {:016x} vs event {:016x}",
            fixed.fingerprint, event.fingerprint
        ));
    }
    if skip < SKIP_BAR {
        failures.push(format!(
            "skip factor {skip:.2}x below the {SKIP_BAR}x bar ({} of {} dense server-steps)",
            event.stats.server_steps, event.stats.dense_server_steps
        ));
    }
    if (fixed.stats.skip_factor() - 1.0).abs() > f64::EPSILON {
        failures.push(format!(
            "fixed mode skipped work: factor {:.4}",
            fixed.stats.skip_factor()
        ));
    }
    if failures.is_empty() {
        if opts.check {
            eprintln!("event_bench --check OK (bit-identical, {skip:.2}x fewer server-steps)");
        }
        return;
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    std::process::exit(1);
}
