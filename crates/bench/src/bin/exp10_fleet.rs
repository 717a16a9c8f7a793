//! **E10: fleet OTA rollout and fleet security operations.**
//!
//! Sweeps fleet size 1 → 64 through the staged OTA rollout of
//! `silvasec-fleet` and exercises every fleet-layer attack scenario at
//! the largest size:
//!
//! * **clean** — per-size rollout latency, bytes on air and frame count
//!   (the bandwidth/latency scaling axes);
//! * **tampered** — chunks corrupted in transit: every site must reject
//!   the reassembled bundle;
//! * **downgrade** — the old signed bundle substituted on the wire:
//!   every site must reject the rollback;
//! * **poisoned** — a correctly signed malicious bundle: the canary's
//!   IDS spike must halt the rollout, and detection-to-halt time is
//!   reported;
//! * **jammed** — broadband jamming on every uplink (reported, not
//!   asserted: the interesting number is the retransmission cost).
//!
//! The determinism contract is asserted on every run by rolling the
//! largest fleet twice from the same seed and comparing the security
//! traces byte for byte. One run entry is **appended** to
//! `BENCH_exp10_fleet.json` so successive revisions accumulate into a
//! trajectory.
//!
//! Run with: `cargo run --release -p silvasec-bench --bin exp10_fleet`
//! (pass `--smoke` for a CI-sized run: fleets of up to 4 sites, every
//! scenario asserted, no trajectory append).

use serde::Serialize;
use silvasec::experiments::{run_fleet_rollout, FleetScenario};
use silvasec::fleet::RolloutReport;
use silvasec::sweep::{par_sweep_with_stats, worker_count};
use silvasec_bench::append_trajectory_run;

const FLEET_SIZES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
const SMOKE_SIZES: [usize; 3] = [1, 2, 4];
const SEED: u64 = 11;

#[derive(Debug, Serialize)]
struct SizeRow {
    sites: usize,
    completed: bool,
    latency_ms: u64,
    bytes_on_air: u64,
    frames_sent: u64,
    /// Mean per-site bundle-verification wall time, microseconds.
    verify_mean_us: f64,
    /// Slowest single bundle verification in this rollout, microseconds.
    verify_max_us: u64,
}

fn verify_mean_us(report: &RolloutReport) -> f64 {
    if report.verify_calls == 0 {
        return 0.0;
    }
    report.verify_wall_us as f64 / f64::from(report.verify_calls)
}

#[derive(Debug, Serialize)]
struct RunEntry {
    /// Fleet seed the whole run used.
    seed: u64,
    /// Worker threads the sweep engine used.
    workers: usize,
    /// Fleet sizes swept under the clean scenario.
    fleet_sizes: Vec<usize>,
    /// Largest fleet size (attack scenarios ran at this size).
    max_sites: usize,
    /// Wall-clock for the whole sweep, seconds.
    sweep_wall_s: f64,
    /// Site-updates applied per wall-clock second across the clean
    /// sweep — the fleet-layer throughput axis of the trajectory.
    rollout_sites_per_s: f64,
    /// Clean rollout latency at the largest size, fleet milliseconds.
    clean_latency_ms: u64,
    /// Clean rollout bytes on air at the largest size.
    clean_bytes_on_air: u64,
    /// Same-seed traces at the largest size were byte-identical.
    deterministic: bool,
    /// Sites rejecting the tampered bundle (must equal `max_sites`).
    tampered_rejected: u32,
    /// Sites rejecting the downgrade (must equal `max_sites`).
    downgrade_rejected: u32,
    /// Wave at which the poisoned rollout halted.
    poisoned_halted_at_wave: u32,
    /// Canary-spike detection to rollout halt, fleet milliseconds.
    detect_to_halt_ms: u64,
    /// Jammed-uplink rollout frames vs clean, at the jam size.
    jammed_frames_sent: u64,
    /// Mean per-site bundle-verification wall time at the largest clean
    /// size, microseconds — the crypto fast-path axis of the trajectory.
    bundle_verify_mean_us: f64,
    /// Slowest single bundle verification at the largest clean size,
    /// microseconds.
    bundle_verify_max_us: u64,
    /// Per-size clean rows (latency/bandwidth scaling).
    clean_rows: Vec<SizeRow>,
}

fn reason_total(report: &RolloutReport, reason: &str) -> u32 {
    report.reject_reasons.get(reason).copied().unwrap_or(0)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &FLEET_SIZES };
    let max_sites = *sizes.last().expect("non-empty");
    let jam_sites = max_sites.min(8);

    // One grid for everything: the clean size sweep, a same-seed twin of
    // the largest size (determinism witness), and the attack scenarios.
    let mut points: Vec<(usize, FleetScenario)> =
        sizes.iter().map(|&s| (s, FleetScenario::Clean)).collect();
    let twin = points.len();
    points.push((max_sites, FleetScenario::Clean));
    points.push((max_sites, FleetScenario::Tampered));
    points.push((max_sites, FleetScenario::Downgrade));
    points.push((max_sites, FleetScenario::Poisoned));
    points.push((jam_sites, FleetScenario::Jammed));

    eprintln!(
        "exp10_fleet: {} points (sizes {:?}, seed {SEED}) on {} workers",
        points.len(),
        sizes,
        worker_count(points.len())
    );
    let (results, stats) = par_sweep_with_stats(&points, |&(sites, scenario)| {
        run_fleet_rollout(sites, SEED, scenario)
    });

    // Clean scaling rows.
    let mut clean_rows = Vec::new();
    for (i, &sites) in sizes.iter().enumerate() {
        let (report, _) = &results[i];
        assert!(
            report.completed,
            "clean rollout must complete at {sites} sites: {report:?}"
        );
        assert_eq!(
            report.applied_sites, sites as u32,
            "clean rollout must update every one of {sites} sites"
        );
        assert_eq!(
            report.rejected_sites, 0,
            "clean rollout must reject nothing at {sites} sites"
        );
        clean_rows.push(SizeRow {
            sites,
            completed: report.completed,
            latency_ms: report.latency_ms,
            bytes_on_air: report.bytes_on_air,
            frames_sent: report.frames_sent,
            verify_mean_us: verify_mean_us(report),
            verify_max_us: report.verify_wall_us_max,
        });
    }

    // Determinism: the twin ran the identical point — traces must match
    // byte for byte.
    let (_, base_trace) = &results[sizes.len() - 1];
    let (_, twin_trace) = &results[twin];
    let deterministic = base_trace == twin_trace;
    assert!(
        deterministic,
        "same-seed fleet traces diverged at {max_sites} sites — determinism contract broken"
    );

    // Tampered: every site rejects the corrupted bundle.
    let (tampered, _) = &results[twin + 1];
    assert_eq!(
        tampered.applied_sites, 0,
        "tampered bundle must never apply: {tampered:?}"
    );
    assert_eq!(
        tampered.rejected_sites, max_sites as u32,
        "tampered bundle must be rejected on every site: {tampered:?}"
    );

    // Downgrade: every site rejects the rollback, for the right reason.
    let (downgrade, _) = &results[twin + 2];
    assert_eq!(
        downgrade.applied_sites, 0,
        "downgrade must never apply: {downgrade:?}"
    );
    assert_eq!(
        reason_total(downgrade, "downgrade"),
        max_sites as u32,
        "every site must reject the rollback as a downgrade: {downgrade:?}"
    );

    // Poisoned: the canary's IDS spike halts the rollout before the
    // fleet is lost.
    let (poisoned, _) = &results[twin + 3];
    let halted_at = poisoned
        .halted_at_wave
        .expect("poisoned rollout must halt on the canary IDS spike");
    let detect_to_halt_ms = poisoned
        .detect_to_halt_ms
        .expect("halt must carry detection-to-halt time");
    assert!(
        !poisoned.completed,
        "poisoned rollout must not complete: {poisoned:?}"
    );
    assert!(
        (poisoned.applied_sites as usize) < max_sites.max(2),
        "halt must spare most of the fleet: {poisoned:?}"
    );

    // Jammed: reported, not asserted (the outcome depends on jamming
    // margin; the retransmission cost is the datapoint).
    let (jammed, _) = &results[twin + 4];

    let applied_total: u32 = sizes
        .iter()
        .enumerate()
        .map(|(i, _)| results[i].0.applied_sites)
        .sum();
    let last_clean = clean_rows.last().expect("non-empty");
    let entry = RunEntry {
        seed: SEED,
        workers: stats.workers,
        fleet_sizes: sizes.to_vec(),
        max_sites,
        sweep_wall_s: stats.wall_s,
        rollout_sites_per_s: f64::from(applied_total) / stats.wall_s.max(1e-9),
        clean_latency_ms: last_clean.latency_ms,
        clean_bytes_on_air: last_clean.bytes_on_air,
        deterministic,
        tampered_rejected: tampered.rejected_sites,
        downgrade_rejected: downgrade.rejected_sites,
        poisoned_halted_at_wave: halted_at,
        detect_to_halt_ms,
        jammed_frames_sent: jammed.frames_sent,
        bundle_verify_mean_us: last_clean.verify_mean_us,
        bundle_verify_max_us: last_clean.verify_max_us,
        clean_rows,
    };

    println!("--- E10: clean rollout scaling (seed {SEED}) ---");
    println!(
        "{:>6} {:>12} {:>14} {:>12}",
        "sites", "latency (s)", "bytes on air", "frames"
    );
    for row in &entry.clean_rows {
        println!(
            "{:>6} {:>12.1} {:>14} {:>12}",
            row.sites,
            row.latency_ms as f64 / 1e3,
            row.bytes_on_air,
            row.frames_sent
        );
    }
    println!(
        "bundle verify at {max_sites} sites: mean {:.1} us, max {} us per site",
        entry.bundle_verify_mean_us, entry.bundle_verify_max_us
    );
    println!("--- E10: attack scenarios at {max_sites} sites ---");
    println!(
        "tampered : applied {} rejected {} ({:?})",
        tampered.applied_sites, tampered.rejected_sites, tampered.reject_reasons
    );
    println!(
        "downgrade: applied {} rejected {} ({:?})",
        downgrade.applied_sites, downgrade.rejected_sites, downgrade.reject_reasons
    );
    println!(
        "poisoned : halted at wave {halted_at}, detect-to-halt {:.1} s, {} site(s) exposed",
        detect_to_halt_ms as f64 / 1e3,
        poisoned.applied_sites
    );
    println!(
        "jammed   : {jam_sites} sites, completed {}, frames {} (clean at that size would be fewer)",
        jammed.completed, jammed.frames_sent
    );
    println!("deterministic: same-seed traces at {max_sites} sites byte-identical");

    if smoke {
        eprintln!("smoke mode: skipping trajectory append");
        return;
    }

    append_trajectory_run("BENCH_exp10_fleet.json", "exp10_fleet", &entry);
}
