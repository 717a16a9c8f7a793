//! **E14: episode throughput** — the machine-readable datapoints behind
//! `BENCH_episodes.json`.
//!
//! Sweeps 10 → 10k worksite episodes through the pooled episode engine
//! (`EpisodeRunner` over `Worksite::reset_for_episode` + the amortized
//! `SitePkiTemplate`) against the frozen naive oracle
//! (`run_episode_naive`, full rebuild per episode), and on every point
//! proves the subsystem's contracts before timing is reported:
//!
//! * **Pooled == naive** — outcome rows (metrics + security-trace
//!   digest) from the pooled path are bit-identical to the naive
//!   oracle's;
//! * **Parallel == sequential** — `EpisodeRunner` outcomes agree across
//!   worker counts with the single-worksite sequential loop;
//! * **Zero steady-state allocation** — after a one-episode warmup, the
//!   per-episode reset window (`reset_for_episode` + campaign arming)
//!   performs **no** heap allocation, asserted by the shared tracking
//!   allocator rather than by code review.
//!
//! Episodes use a deliberately small worksite and a short horizon so
//! that *setup* (worldgen + PKI commissioning + handshakes) dominates
//! the naive path — that is the overhead the overhaul amortizes, and
//! the speedup floor (≥ 5×) is asserted on exactly that regime.
//!
//! Run keys come from the environment, never from a wall clock inside
//! the simulation:
//!
//! * `SILVASEC_GIT_SHA` — revision identifier (default `unknown`);
//! * `SILVASEC_RUN_TS` — timestamp string (default `unspecified`);
//!
//! Run with: `cargo run --release -p silvasec-bench --bin
//! exp14_episodes` (pass `--smoke` for a CI-sized run: 10/100-episode
//! points, contracts asserted, no speedup floor, no trajectory append).

use serde::Serialize;
use silvasec::experiments::{
    run_episode_naive, run_episode_pooled, EpisodeOutcome, EpisodeRunner, EpisodeSpec,
};
use silvasec::prelude::*;
use silvasec_attacks::AttackKind;
use silvasec_bench::alloc::{acquisitions, TrackingAllocator};
use silvasec_bench::{append_trajectory_run, run_keys};
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

/// Episode batch sizes (log sweep, 10^1 → 10^4).
const SIZES: [usize; 4] = [10, 100, 1_000, 10_000];
const SMOKE_SIZES: [usize; 2] = [10, 100];

/// One scenario seed shared by the whole sweep: the PKI template is
/// commissioned once and every reset replays it.
const SEED: u64 = 11;

/// Naive-oracle episode cap per point: the naive path exists to be
/// measured against, not to burn minutes rebuilding PKI 10k times.
const NAIVE_CAP: usize = 64;

/// Episode length: short enough that setup dominates the naive path —
/// the regime the amortization targets (generative scenario sweeps run
/// huge numbers of short probing episodes).
const EPISODE_SECS: u64 = 2;

/// The attack classes rotated across the sweep. All three use
/// allocation-free campaign targets (area / link / network — no label
/// strings), so arming stays inside the zero-alloc reset window.
const ATTACKS: [Option<AttackKind>; 4] = [
    None,
    Some(AttackKind::RfJamming),
    Some(AttackKind::DeauthFlood),
    Some(AttackKind::Replay),
];

fn specs(n: usize) -> Vec<EpisodeSpec> {
    (0..n)
        .map(|i| {
            EpisodeSpec::compact(
                SecurityPosture::secure(),
                ATTACKS[i % ATTACKS.len()],
                SEED,
                SimDuration::from_secs(EPISODE_SECS),
            )
        })
        .collect()
}

#[derive(Debug, Serialize)]
struct EpisodeRow {
    /// Episodes in this batch.
    episodes: usize,
    /// Wall-clock of the pooled sequential run, seconds.
    pooled_wall_s: f64,
    /// Pooled episodes per wall-clock second.
    pooled_eps_per_s: f64,
    /// Naive-oracle episodes measured (capped).
    naive_episodes: usize,
    /// Wall-clock of the naive run, seconds.
    naive_wall_s: f64,
    /// Naive episodes per wall-clock second.
    naive_eps_per_s: f64,
    /// Pooled-over-naive episode throughput ratio.
    speedup: f64,
    /// Mean reset-window time per episode, microseconds.
    setup_us_per_episode: f64,
    /// Heap allocations per episode in the steady-state reset window
    /// (after a one-episode warmup).
    steady_reset_allocs: u64,
}

#[derive(Debug, Serialize)]
struct Entry {
    git_sha: String,
    run_ts: String,
    smoke: bool,
    seed: u64,
    episode_secs: u64,
    rows: Vec<EpisodeRow>,
}

/// Proves pooled == naive and parallel == sequential on one batch,
/// then returns the sequential reference outcomes.
fn prove_contracts(batch: &[EpisodeSpec]) -> Vec<EpisodeOutcome> {
    let reference = EpisodeRunner::with_workers(1).run(batch);

    let naive_n = batch.len().min(NAIVE_CAP);
    let naive: Vec<EpisodeOutcome> = batch[..naive_n].iter().map(run_episode_naive).collect();
    assert_eq!(
        naive,
        reference[..naive_n],
        "pooled episodes diverged from the naive oracle"
    );

    for workers in [2usize, 4] {
        let par = EpisodeRunner::with_workers(workers).run(batch);
        assert_eq!(
            par, reference,
            "parallel ({workers} workers) diverged from sequential"
        );
    }
    reference
}

/// Measures the steady-state reset window: total heap allocations
/// inside `reset_for_episode` + campaign arming across the batch,
/// after warmup episodes that size every long-lived buffer.
fn measure_reset_window(batch: &[EpisodeSpec]) -> u64 {
    let mut slot: Option<Worksite> = None;
    // Warmup covers every attack class in the rotation so campaign
    // storage reaches steady capacity before counting starts.
    let warmup = ATTACKS.len().min(batch.len());
    for spec in batch.iter().take(warmup) {
        let _ = run_episode_pooled(&mut slot, spec);
    }
    let site = slot.as_mut().expect("warmup populated the pool slot");

    let mut allocs_total = 0u64;
    for spec in batch.iter().skip(warmup) {
        let before = acquisitions();
        site.reset_for_episode(&spec.config, spec.seed);
        spec.arm(site);
        allocs_total += acquisitions() - before;
        site.run(spec.duration);
    }
    allocs_total
}

/// Times the reset window alone (no run phase), microseconds/episode.
fn time_reset_window(spec: &EpisodeSpec, iters: usize) -> f64 {
    let mut slot: Option<Worksite> = None;
    let _ = run_episode_pooled(&mut slot, spec);
    let site = slot.as_mut().expect("pool slot");
    let t0 = Instant::now();
    for _ in 0..iters {
        site.reset_for_episode(&spec.config, spec.seed);
    }
    t0.elapsed().as_secs_f64() / iters.max(1) as f64 * 1e6
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &SIZES };

    eprintln!("E14: episode throughput (smoke={smoke})");
    let mut rows = Vec::new();
    for &n in sizes {
        let batch = specs(n);

        // Contracts first — a fast wrong sweep is worthless.
        let _reference = prove_contracts(&batch[..n.min(200)]);

        // Steady-state allocation accounting on a contract-proved batch.
        let steady_reset_allocs = measure_reset_window(&batch[..n.min(50)]);

        // Throughput: pooled sequential over the full batch...
        let t0 = Instant::now();
        let pooled = EpisodeRunner::with_workers(1).run(&batch);
        let pooled_wall_s = t0.elapsed().as_secs_f64();
        assert_eq!(pooled.len(), n);

        // ...versus the frozen naive oracle (capped).
        let naive_n = n.min(NAIVE_CAP);
        let t0 = Instant::now();
        let naive: Vec<EpisodeOutcome> = batch[..naive_n].iter().map(run_episode_naive).collect();
        let naive_wall_s = t0.elapsed().as_secs_f64();
        assert_eq!(naive, pooled[..naive_n]);

        let pooled_eps_per_s = n as f64 / pooled_wall_s.max(1e-9);
        let naive_eps_per_s = naive_n as f64 / naive_wall_s.max(1e-9);
        let speedup = pooled_eps_per_s / naive_eps_per_s.max(1e-9);
        let setup_us = time_reset_window(&batch[0], if smoke { 32 } else { 256 });

        eprintln!(
            "  {n:>6} episodes: pooled {pooled_eps_per_s:>8.1}/s, naive {naive_eps_per_s:>7.1}/s \
             ({naive_n} measured), speedup {speedup:>5.2}x, reset {setup_us:>7.1} us, \
             steady allocs/reset {steady_reset_allocs}"
        );

        rows.push(EpisodeRow {
            episodes: n,
            pooled_wall_s,
            pooled_eps_per_s,
            naive_episodes: naive_n,
            naive_wall_s,
            naive_eps_per_s,
            speedup,
            setup_us_per_episode: setup_us,
            steady_reset_allocs,
        });
    }

    // Zero-allocation contract: holds in every mode (it is a property
    // of the code, not of the machine's speed).
    for row in &rows {
        assert_eq!(
            row.steady_reset_allocs, 0,
            "steady-state episode reset must not allocate ({} allocs at n={})",
            row.steady_reset_allocs, row.episodes
        );
    }

    if smoke {
        eprintln!("smoke mode: skipping speedup floor and trajectory append");
        return;
    }

    // Speedup floor on the largest batch: the amortized path must beat
    // the rebuild path by at least 5x in the setup-dominated regime.
    let last = rows.last().expect("at least one row");
    assert!(
        last.speedup >= 5.0,
        "episode speedup floor violated: {:.2}x < 5x",
        last.speedup
    );

    let (git_sha, run_ts) = run_keys();
    let entry = Entry {
        git_sha,
        run_ts,
        smoke,
        seed: SEED,
        episode_secs: EPISODE_SECS,
        rows,
    };
    append_trajectory_run(
        "BENCH_episodes.json",
        "silvasec-episode-trajectory/1",
        &entry,
    );
}
