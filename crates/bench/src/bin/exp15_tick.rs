//! **E15: tick-loop hot path** — the machine-readable datapoints behind
//! `BENCH_tick.json`.
//!
//! Measures the steady-state worksite tick after the zero-alloc
//! perception + spatial-culling overhaul (`Worksite::tick`) against the
//! frozen pre-optimization tick body (`Worksite::tick_reference`), and
//! on every run proves the subsystem's contracts before timing is
//! reported:
//!
//! * **Optimized == reference** — full-episode fingerprints (metrics +
//!   security trace + flight trace) from the optimized tick are
//!   bit-identical to the frozen reference across postures and attack
//!   scenarios (quiet, jamming, replay);
//! * **Zero steady-state allocation** — after a warmup that sizes every
//!   ring, table and scratch buffer, a window of quiet secure ticks
//!   performs **no** heap allocation, asserted by the shared tracking
//!   allocator rather than by code review;
//! * **Speedup floor** — the optimized full run must simulate at least
//!   2.5× as many worksite-seconds per wall-second as the reference
//!   (interleaved median-of-rounds, full mode only).
//!
//! Run keys come from the environment, never from a wall clock inside
//! the simulation:
//!
//! * `SILVASEC_GIT_SHA` — revision identifier (falls back to
//!   `git rev-parse HEAD`, then `unknown`);
//! * `SILVASEC_RUN_TS` — timestamp string (default `unspecified`);
//!
//! Run with: `cargo run --release -p silvasec-bench --bin exp15_tick`
//! (pass `--smoke` for a CI-sized run: short rounds, contracts
//! asserted, no speedup floor, no trajectory append).

use serde::Serialize;
use silvasec::experiments::standard_config;
use silvasec::prelude::*;
use silvasec_bench::alloc::{acquisitions, TrackingAllocator};
use silvasec_bench::{append_trajectory_run, median, run_keys};
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

/// Seed shared by every scenario in the run.
const SEED: u64 = 7;

/// Speedup floor for the optimized tick over the frozen reference
/// (full mode, largest point).
const SPEEDUP_FLOOR: f64 = 2.5;

fn jam_campaign() -> AttackCampaign {
    AttackCampaign {
        kind: AttackKind::RfJamming,
        target: AttackTarget::Area {
            center: Vec2::new(150.0, 150.0),
            radius_m: 300.0,
        },
        start: SimTime::from_secs(30),
        duration: SimDuration::from_secs(60),
        intensity: 1.0,
    }
}

fn replay_campaign() -> AttackCampaign {
    AttackCampaign {
        kind: AttackKind::Replay,
        target: AttackTarget::Network,
        start: SimTime::from_secs(30),
        duration: SimDuration::from_secs(60),
        intensity: 1.0,
    }
}

/// Scalar + trace fingerprint of a finished episode; byte-equal
/// fingerprints mean observably identical runs.
fn fingerprint(site: &Worksite) -> (u64, u64, u64, u64, String, String) {
    let m = site.metrics();
    (
        m.ticks,
        m.messages_delivered,
        m.distance_m.to_bits(),
        m.danger_zone_ticks,
        site.export_security_jsonl(),
        site.export_flight_jsonl(),
    )
}

/// Proves optimized == reference on every parity scenario; returns the
/// scenario labels for the trajectory entry.
fn prove_parity(parity_secs: u64) -> Vec<String> {
    let scenarios: [(&str, SecurityPosture, Option<AttackCampaign>); 4] = [
        ("secure/quiet", SecurityPosture::secure(), None),
        (
            "secure/jamming",
            SecurityPosture::secure(),
            Some(jam_campaign()),
        ),
        ("insecure/quiet", SecurityPosture::insecure(), None),
        (
            "insecure/replay",
            SecurityPosture::insecure(),
            Some(replay_campaign()),
        ),
    ];
    let mut labels = Vec::new();
    for (label, posture, campaign) in scenarios {
        let config = standard_config(posture);
        let mut optimized = Worksite::new(&config, SEED);
        let mut reference = Worksite::new(&config, SEED);
        if let Some(c) = campaign {
            optimized.attack_engine_mut().add_campaign(c.clone());
            reference.attack_engine_mut().add_campaign(c);
        }
        optimized.run(SimDuration::from_secs(parity_secs));
        reference.run_reference(SimDuration::from_secs(parity_secs));
        assert_eq!(
            fingerprint(&optimized),
            fingerprint(&reference),
            "optimized tick diverged from the frozen reference ({label})"
        );
        labels.push(label.to_string());
    }
    labels
}

/// Counts heap allocations across a window of quiet secure ticks after
/// a warmup run long enough for every long-lived buffer to reach
/// steady capacity. Returns `(window_ticks, total_allocations)`.
fn measure_steady_allocs(warm_secs: u64, window_ticks: u64) -> (u64, u64) {
    let config = standard_config(SecurityPosture::secure());
    let mut site = Worksite::new(&config, SEED);
    site.run(SimDuration::from_secs(warm_secs));
    let before = acquisitions();
    for _ in 0..window_ticks {
        site.tick();
    }
    (window_ticks, acquisitions() - before)
}

#[derive(Debug, Serialize)]
struct Entry {
    git_sha: String,
    run_ts: String,
    smoke: bool,
    seed: u64,
    /// Parity scenarios proved bit-identical before timing.
    parity_scenarios: Vec<String>,
    /// Simulated seconds per timing round.
    sim_secs: u64,
    /// Interleaved timing rounds per arm (medians reported).
    rounds: u32,
    /// Median wall-clock of the frozen reference loop, seconds.
    reference_wall_s: f64,
    /// Median wall-clock of the optimized loop, seconds.
    optimized_wall_s: f64,
    /// reference / optimized wall-clock.
    speedup: f64,
    /// Simulated seconds per wall-second, frozen reference loop.
    reference_sim_rate: f64,
    /// Simulated seconds per wall-second, optimized loop.
    worksite_sim_rate: f64,
    /// Quiet secure ticks in the allocation-counting window.
    alloc_window_ticks: u64,
    /// Total heap allocations observed in that window (must be 0).
    steady_tick_allocs: u64,
    /// The asserted speedup floor (full mode).
    speedup_floor: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    eprintln!("E15: tick-loop hot path (smoke={smoke})");

    // Contracts first — a fast wrong tick is worthless.
    let parity_secs = if smoke { 60 } else { 150 };
    let parity_scenarios = prove_parity(parity_secs);
    eprintln!(
        "  parity: optimized == reference on {parity_scenarios:?} ({parity_secs} sim-s each)"
    );

    // Zero-allocation contract: holds in every mode (it is a property
    // of the code, not of the machine's speed).
    let (warm_secs, window) = if smoke { (60, 128) } else { (120, 512) };
    let (alloc_window_ticks, steady_tick_allocs) = measure_steady_allocs(warm_secs, window);
    eprintln!(
        "  allocations: {steady_tick_allocs} across {alloc_window_ticks} warm quiet ticks \
         ({warm_secs} sim-s warmup)"
    );
    assert_eq!(
        steady_tick_allocs, 0,
        "steady-state tick must not allocate \
         ({steady_tick_allocs} allocations in {alloc_window_ticks} ticks)"
    );

    // Throughput: interleaved median-of-rounds, reference vs optimized,
    // fresh site per round so neither arm inherits the other's warmth.
    let (sim_secs, rounds) = if smoke { (20u64, 3u32) } else { (120, 5) };
    let config = standard_config(SecurityPosture::secure());
    let time = |reference: bool| {
        let mut site = Worksite::new(&config, SEED);
        let t0 = Instant::now();
        if reference {
            site.run_reference(SimDuration::from_secs(sim_secs));
        } else {
            site.run(SimDuration::from_secs(sim_secs));
        }
        t0.elapsed().as_secs_f64()
    };
    let _ = (time(true), time(false)); // untimed warm-up pair
    let mut reference_times = Vec::with_capacity(rounds as usize);
    let mut optimized_times = Vec::with_capacity(rounds as usize);
    for _ in 0..rounds {
        reference_times.push(time(true));
        optimized_times.push(time(false));
    }
    let reference_wall_s = median(&reference_times);
    let optimized_wall_s = median(&optimized_times);
    let speedup = reference_wall_s / optimized_wall_s.max(1e-9);
    let reference_sim_rate = sim_secs as f64 / reference_wall_s.max(1e-9);
    let worksite_sim_rate = sim_secs as f64 / optimized_wall_s.max(1e-9);
    eprintln!(
        "  throughput: reference {reference_sim_rate:.0} sim-s/s, optimized \
         {worksite_sim_rate:.0} sim-s/s, speedup {speedup:.2}x \
         (median of {rounds} interleaved rounds x {sim_secs} sim-s)"
    );

    if smoke {
        eprintln!("smoke mode: skipping speedup floor and trajectory append");
        return;
    }

    assert!(
        speedup >= SPEEDUP_FLOOR,
        "tick speedup floor violated: {speedup:.2}x < {SPEEDUP_FLOOR}x"
    );

    let (git_sha, run_ts) = run_keys();
    let entry = Entry {
        git_sha,
        run_ts,
        smoke,
        seed: SEED,
        parity_scenarios,
        sim_secs,
        rounds,
        reference_wall_s,
        optimized_wall_s,
        speedup,
        reference_sim_rate,
        worksite_sim_rate,
        alloc_window_ticks,
        steady_tick_allocs,
        speedup_floor: SPEEDUP_FLOOR,
    };
    append_trajectory_run("BENCH_tick.json", "silvasec-tick-trajectory/1", &entry);
}
