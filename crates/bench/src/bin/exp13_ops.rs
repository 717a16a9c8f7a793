//! **E13: incident-response operations** — the machine-readable
//! datapoints behind `BENCH_ops.json`.
//!
//! Sweeps 10 → 10k concurrent incidents through the deterministic ops
//! engine (`silvasec-ops`) against the scripted executor of
//! `experiments::run_ops_load`, and on **every** point proves the
//! subsystem's three contracts before timing is even reported:
//!
//! * **Determinism** — the same `(incidents, seed)` twice yields a
//!   byte-identical run-store digest *and* byte-identical `Ops*`
//!   telemetry JSONL;
//! * **Replayability** — a run store rebuilt from nothing but the
//!   recorded trace is digest-identical to the live store
//!   (`first_divergence` must be `None`);
//! * **Lease accounting** — no incident is lost or duplicated: every
//!   accepted incident either settled (closed / escalated / rejected /
//!   dead-lettered) or folded into an open run as a duplicate, and the
//!   durable queue's conservation invariant holds at idle.
//!
//! Run keys come from the environment, never from a wall clock inside
//! the simulation:
//!
//! * `SILVASEC_GIT_SHA` — revision identifier (default `unknown`);
//! * `SILVASEC_RUN_TS` — timestamp string (default `unspecified`);
//!
//! Run with: `cargo run --release -p silvasec-bench --bin exp13_ops`
//! (pass `--smoke` for a CI-sized run: 10/100-incident points,
//! contracts asserted, no trajectory append).

use serde::Serialize;
use silvasec::experiments::run_ops_load;
use silvasec::ops::RunStore;
use silvasec_bench::{append_trajectory_run, run_keys};
use std::time::Instant;

const SIZES: [usize; 4] = [10, 100, 1_000, 10_000];
const SMOKE_SIZES: [usize; 2] = [10, 100];
const SEED: u64 = 13;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[derive(Debug, Serialize)]
struct OpsRow {
    /// Incidents submitted at this point.
    incidents: usize,
    /// Wall-clock of the first (timed) run, seconds.
    wall_s: f64,
    /// Incidents driven to settlement per wall-clock second.
    incidents_per_s: f64,
    /// Runs that closed verified.
    closed: u64,
    /// Runs that escalated to a human.
    escalated: u64,
    /// Runs rejected at triage (informational severity).
    rejected: u64,
    /// Runs dead-lettered after exhausting the delivery budget.
    dead_lettered: u64,
    /// Reports folded into an already-open run (dedup).
    duplicates_folded: u64,
    /// Queue leases granted (including redeliveries).
    leases: u64,
    /// Redeliveries after lease expiry or nack backoff.
    redelivered: u64,
    /// Hex SHA-256 of the canonical run-store text.
    store_digest: String,
    /// Lines in the `Ops*` telemetry trace the store replays from.
    trace_lines: usize,
}

#[derive(Debug, Serialize)]
struct RunEntry {
    /// Revision identifier (`SILVASEC_GIT_SHA`, `unknown` if unset).
    git_sha: String,
    /// Run timestamp (`SILVASEC_RUN_TS`, `unspecified` if unset).
    run_ts: String,
    /// Seed keying arrivals, backoff jitter and review verdicts.
    seed: u64,
    /// Whether this was a reduced CI run.
    smoke: bool,
    /// Same-seed twin produced byte-identical store + trace at every point.
    deterministic_same_seed: bool,
    /// Store replayed from the trace was digest-identical at every point.
    replay_identical: bool,
    /// Queue conservation held at idle at every point.
    queue_conserves: bool,
    /// Incidents per second at the largest point.
    incidents_per_s_max_scale: f64,
    /// One row per sweep point.
    rows: Vec<OpsRow>,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &SIZES };

    let mut rows = Vec::new();
    eprintln!("exp13_ops: sweeping {sizes:?} incidents (seed {SEED})");
    for &incidents in sizes {
        let t0 = Instant::now();
        let (engine, trace) = run_ops_load(incidents, SEED);
        let wall_s = t0.elapsed().as_secs_f64();

        // Determinism: the same-seed twin must be byte-identical.
        let (twin, twin_trace) = run_ops_load(incidents, SEED);
        assert_eq!(
            twin.store().digest(),
            engine.store().digest(),
            "same-seed run-store digests diverged at {incidents} incidents"
        );
        assert_eq!(
            twin_trace, trace,
            "same-seed telemetry traces diverged at {incidents} incidents"
        );

        // Replayability: the store rebuilt from the trace alone matches.
        let replayed = RunStore::replay_from_jsonl(&trace).expect("trace replays");
        assert_eq!(
            replayed.digest(),
            engine.store().digest(),
            "replayed store diverged at {incidents} incidents: {:?}",
            engine.store().first_divergence(&replayed)
        );

        // Lease accounting: nothing lost, nothing duplicated.
        let store = engine.store().counters();
        let queue = engine.queue_counters();
        assert_eq!(
            store.settled() + store.duplicates_folded,
            incidents as u64,
            "incident accounting must balance at {incidents}: {store:?}"
        );
        assert_eq!(
            store.opened, queue.enqueued,
            "every opened run queued exactly once"
        );
        assert_eq!(
            queue.enqueued,
            queue.acked + queue.dead_lettered,
            "every queued run settled exactly once: {queue:?}"
        );
        assert!(engine.queue_conserves(), "queue conservation at idle");

        let row = OpsRow {
            incidents,
            wall_s,
            incidents_per_s: incidents as f64 / wall_s.max(1e-9),
            closed: store.closed,
            escalated: store.escalated,
            rejected: store.rejected,
            dead_lettered: store.dead_lettered,
            duplicates_folded: store.duplicates_folded,
            leases: queue.leased,
            redelivered: queue.redelivered,
            store_digest: hex(&engine.store().digest()),
            trace_lines: trace.lines().count(),
        };
        eprintln!(
            "  {incidents:>6} incidents: {wall_s:>6.3} s wall, {:>9.0}/s, \
             {} closed / {} escalated / {} rejected / {} dead-lettered, \
             {} folded, {} leases",
            row.incidents_per_s,
            row.closed,
            row.escalated,
            row.rejected,
            row.dead_lettered,
            row.duplicates_folded,
            row.leases
        );
        rows.push(row);
    }

    let last = rows.last().expect("non-empty sweep");
    let (git_sha, run_ts) = run_keys();
    let entry = RunEntry {
        git_sha,
        run_ts,
        seed: SEED,
        smoke,
        deterministic_same_seed: true,
        replay_identical: true,
        queue_conserves: true,
        incidents_per_s_max_scale: last.incidents_per_s,
        rows,
    };

    println!("--- E13: incident-response operations (seed {SEED}) ---");
    println!(
        "{:>9} {:>9} {:>12} {:>8} {:>10} {:>9} {:>13} {:>8}",
        "incidents",
        "wall (s)",
        "incidents/s",
        "closed",
        "escalated",
        "rejected",
        "dead-lettered",
        "folded"
    );
    for row in &entry.rows {
        println!(
            "{:>9} {:>9.3} {:>12.0} {:>8} {:>10} {:>9} {:>13} {:>8}",
            row.incidents,
            row.wall_s,
            row.incidents_per_s,
            row.closed,
            row.escalated,
            row.rejected,
            row.dead_lettered,
            row.duplicates_folded
        );
    }
    println!("determinism: same-seed twin byte-identical, replay digest-identical");
    println!("accounting: 0 lost, 0 duplicated, queue conserves at idle");

    if smoke {
        eprintln!("smoke mode: skipping trajectory append");
        return;
    }

    append_trajectory_run("BENCH_ops.json", "silvasec-ops-trajectory/1", &entry);
}
