//! Live-scrape-under-load test: HTTP scrapes of the obs registry while
//! the engine is stepping must neither fail nor perturb the simulation.
//!
//! This is the integration-level counterpart of the obs crate's own
//! serve tests: there the registry is poked by hand; here a real
//! [`Simulation`] (in event-driven clock mode, so wake bookkeeping runs
//! too) feeds the registry while concurrent clients scrape `/metrics`.
//! The end state must be bit-identical to an unserved, unscraped run —
//! serving is read-only by construction, and this pins it.
//!
//! The run advances in slices, and after each slice the engine waits
//! until at least one more scrape has completed, so scrapes interleave
//! with stepping however the host schedules the threads.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use vmtherm_obs::{self as obs, ScrapeServer};
use vmtherm_sim::{
    AmbientModel, ClockMode, Datacenter, ServerId, ServerSpec, SimTime, Simulation, TaskProfile,
    VmSpec,
};
use vmtherm_units::Celsius;

fn scrape(addr: SocketAddr, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("write");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    let status = out
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = out
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn build_sim() -> Simulation {
    let dc = Datacenter::homogeneous(&ServerSpec::standard("srv"), 6, 8, Celsius::new(24.0), 3);
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 21).with_clock(ClockMode::Event);
    for s in 0..6 {
        sim.boot_vm_now(
            ServerId::new(s),
            VmSpec::new(format!("vm-{s}"), 1, 2.0, TaskProfile::Idle),
        )
        .expect("placement");
    }
    sim
}

/// Simulated horizon (s) and the slice length (s) the run advances by.
const HORIZON_SECS: u64 = 1800;
const SLICE_SECS: u64 = 100;

/// Runs `sim` to the horizon in slices, calling `between` after each.
fn run_in_slices(sim: &mut Simulation, mut between: impl FnMut()) {
    for end in (SLICE_SECS..=HORIZON_SECS).step_by(SLICE_SECS as usize) {
        sim.run_until(SimTime::from_secs(end));
        between();
    }
}

fn fingerprint(sim: &Simulation) -> Vec<u64> {
    let mut bits = vec![sim.datacenter().room_heat_kw().to_bits()];
    for s in 0..sim.datacenter().len() {
        let server = sim.datacenter().server(ServerId::new(s)).expect("server");
        bits.push(server.die_temperature().to_bits());
        bits.push(server.last_power().to_bits());
        bits.push(server.last_utilization().to_bits());
    }
    bits
}

#[test]
fn concurrent_scrapes_during_engine_stepping_do_not_perturb_the_run() {
    // Baseline: no server, obs disabled, same slicing.
    let mut baseline = build_sim();
    run_in_slices(&mut baseline, || {});
    let expected = fingerprint(&baseline);

    obs::set_enabled(true);
    let server = ScrapeServer::start("127.0.0.1:0").expect("bind ephemeral");
    let addr = server.local_addr();

    // Scrapers hammer /metrics for as long as the engine is stepping:
    // every response must be a complete 200, torn or failed scrapes fail
    // the worker thread and therefore the test.
    let done = Arc::new(AtomicBool::new(false));
    let (completed_tx, completed) = mpsc::channel::<()>();
    let scrapers: Vec<_> = (0..3)
        .map(|_| {
            let done = Arc::clone(&done);
            let completed = completed_tx.clone();
            std::thread::spawn(move || {
                let mut scrapes = 0u32;
                while !done.load(Ordering::Relaxed) {
                    let (status, body) = scrape(addr, "/metrics");
                    assert_eq!(status, 200);
                    assert!(!body.is_empty());
                    scrapes += 1;
                    let _ = completed.send(());
                }
                scrapes
            })
        })
        .collect();
    drop(completed_tx);

    let mut sim = build_sim();
    run_in_slices(&mut sim, || {
        // Hold the engine until a scrape has completed since the last
        // slice. If every scraper died the channel closes, and their
        // panics surface at join below.
        if completed.try_iter().count() == 0 {
            let _ = completed.recv();
        }
    });
    done.store(true, Ordering::Relaxed);

    let mut total_scrapes = 0;
    for s in scrapers {
        total_scrapes += s.join().expect("scraper thread");
    }

    // After stepping, the engine's counters are visible over HTTP.
    let (status, body) = scrape(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        body.contains("vmtherm_engine_steps_total"),
        "engine metrics missing from scrape: {body}"
    );

    drop(server);
    obs::set_enabled(false);

    assert!(total_scrapes > 0, "scrapers never ran");
    assert_eq!(
        fingerprint(&sim),
        expected,
        "serving + scraping changed the physical end state"
    );
    assert!(sim.step_stats().skip_factor() > 1.0);
}
