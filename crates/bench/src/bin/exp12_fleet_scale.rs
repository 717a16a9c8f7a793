//! **E12: million-site fleet control plane.**
//!
//! Sweeps the two-fidelity fleet (full [`Worksite`] subset + compact
//! shadow population, sharded across the deterministic sweep pool) from
//! 64 sites to one million, through a full security-operations cycle:
//! vulnerability disclosure, a fleet-wide deauth-flood campaign
//! correlated by the streaming SIEM, and a staged OTA rollout with one
//! Fiat–Shamir batched bundle verification per shard.
//!
//! Before any scale point runs, the binary proves the model honest:
//!
//! * **Decision equivalence** — at 64 sites the shadow-fidelity run
//!   yields the same correlated-campaign classes and the same risk
//!   trajectory as the all-full-fidelity reference;
//! * **Tamper/downgrade parity** — through the batched verify, a
//!   tampered or downgraded bundle is still rejected by every site;
//! * **Shard determinism** — parallel-sharded and sequential runs of
//!   the same seed produce byte-identical fleet traces, as do same-seed
//!   twins;
//! * **Legacy pinning** — the shadowless 64-site seed-11 trace still
//!   hashes to the SHA-256 recorded before the two-fidelity refactor.
//!
//! Each scale point is measured for throughput (sites/s wall) and peak
//! heap per site (the shared tracking allocator), and the largest
//! point must stay under a bytes/site ceiling — the memory claim is
//! asserted in-binary, not eyeballed. One entry is **appended** to
//! `BENCH_fleet_scale.json`.
//!
//! Run with:
//! `cargo run --release -p silvasec-bench --bin exp12_fleet_scale`
//! (pass `--smoke` for the CI-sized run: capped at 16 384 sites, every
//! contract asserted, no bytes/site ceiling, no trajectory append).
//!
//! [`Worksite`]: silvasec::sos::Worksite

use serde::Serialize;
use silvasec::crypto::sha256;
use silvasec::experiments::{
    fleet_config, fleet_decisions, fleet_scale_config, run_fleet_rollout, run_fleet_scale_point,
    run_fleet_scale_scenario, FleetScenario,
};
use silvasec::fleet::ShadowConfig;
use silvasec_bench::alloc::{peak_baseline, peak_since, TrackingAllocator};
use silvasec_bench::{append_trajectory_run, hex};

/// SHA-256 of the 64-site seed-11 clean fleet trace captured on the
/// shadowless code path before the two-fidelity refactor. The refactor
/// must not move a byte of it.
const LEGACY_TRACE_SHA256: &str =
    "44c52268bb2ce420363da9753b9d8c4c7514d2303770eaf19de7affc1557e450";

/// Peak heap per site the largest scale point must stay under. The
/// shadow struct-of-arrays costs ~50 B/site and the rollout wave index
/// ~8 B/site; the ceiling leaves headroom for allocator slack and the
/// transient alert burst while still falling four orders of magnitude
/// short of what a full `Worksite` per site would need.
const BYTES_PER_SITE_CEILING: f64 = 256.0;

/// Fleet sizes where the ceiling is asserted — below this the fixed
/// cost of the full-fidelity subset (four real worksites) dominates
/// the per-site arithmetic.
const CEILING_FLOOR_SITES: usize = 65_536;

const SCALE_SIZES: [usize; 5] = [64, 1_024, 16_384, 131_072, 1_048_576];
const SMOKE_SIZES: [usize; 3] = [64, 1_024, 16_384];
const SEED: u64 = 11;

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

#[derive(Debug, Serialize)]
struct ScaleRow {
    sites: usize,
    /// Wall-clock for the whole scenario (campaign + rollout), seconds.
    wall_s: f64,
    /// Site-updates applied per wall-clock second.
    sites_per_s: f64,
    /// Peak heap above the pre-run baseline, bytes.
    peak_bytes: u64,
    /// Peak heap per site.
    bytes_per_site: f64,
    /// Fleet-time rollout latency, milliseconds.
    latency_ms: u64,
    /// Fiat–Shamir batch verifications across all shards and waves.
    batch_verify_calls: u64,
    /// Shadow sites resolved from a shared per-shard batch verdict.
    batch_verified_sites: u64,
    /// Shadow sites verified individually (tampered bytes).
    individually_verified_sites: u64,
    /// Sites per batch verification — the amortization factor.
    amortization: f64,
    /// Coordinated campaigns the streaming SIEM correlated.
    siem_campaigns: usize,
    /// Alert observations dropped by the bounded SIEM windows
    /// (observable loss under the million-site alert burst).
    siem_window_drops: u64,
    /// Alert observations held across all SIEM windows at the end.
    siem_observations_held: usize,
}

#[derive(Debug, Serialize)]
struct RunEntry {
    seed: u64,
    smoke: bool,
    sizes: Vec<usize>,
    max_sites: usize,
    /// Shadow-vs-full decision equivalence held at 64 sites.
    equivalent_at_64: bool,
    /// Tampered and downgraded bundles rejected fleet-wide through the
    /// batched verify.
    tamper_parity: bool,
    /// Parallel-sharded trace byte-identical to the sequential run.
    deterministic_shards: bool,
    /// Same-seed twin traces byte-identical.
    deterministic_same_seed: bool,
    /// Shadowless 64-site seed-11 trace still matches the pinned hash.
    legacy_trace_pinned: bool,
    /// sites/s at the largest swept size — the throughput headline.
    sites_per_s_max_scale: f64,
    /// Peak bytes/site at the largest swept size — the memory headline.
    bytes_per_site_max_scale: f64,
    /// Batch-verify amortization factor at the largest swept size.
    amortization_max_scale: f64,
    rows: Vec<ScaleRow>,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &SCALE_SIZES };
    let max_sites = *sizes.last().expect("non-empty");
    let small_shadow = ShadowConfig {
        full_sites: 4,
        shard_sites: 16,
        sequential: false,
    };

    // --- Phase 1: decision equivalence at the overlap scale ----------
    eprintln!("exp12: [1/4] shadow-vs-full decision equivalence at 64 sites (seed {SEED})");
    let (full_report, full_fleet) = run_fleet_scale_scenario(fleet_config(64), SEED);
    let shadow_cfg = {
        let mut c = fleet_config(64);
        c.shadow = Some(small_shadow);
        c
    };
    let (shadow_report, shadow_fleet) = run_fleet_scale_scenario(shadow_cfg, SEED);
    assert_eq!(
        full_report.applied_sites, shadow_report.applied_sites,
        "both fidelities must apply the rollout fleet-wide"
    );
    let (full_campaigns, full_risk) = fleet_decisions(&full_fleet);
    let (shadow_campaigns, shadow_risk) = fleet_decisions(&shadow_fleet);
    assert_eq!(
        full_campaigns, shadow_campaigns,
        "shadow fidelity must correlate the same campaign classes in the same order"
    );
    assert_eq!(
        full_risk, shadow_risk,
        "shadow fidelity must walk the same risk trajectory"
    );
    assert!(
        !full_campaigns.is_empty(),
        "the equivalence scenario must actually correlate a campaign"
    );
    let equivalent_at_64 = true;

    // --- Phase 2: tamper/downgrade parity through the batched verify -
    eprintln!("exp12: [2/4] tamper/downgrade parity through the batched verify (4096 sites)");
    let (tampered, _) = run_fleet_scale_point(4_096, SEED, FleetScenario::Tampered, false);
    assert_eq!(
        tampered.applied_sites, 0,
        "tampered bundle must never apply: {tampered:?}"
    );
    assert_eq!(
        tampered.rejected_sites, 4_096,
        "tampered bundle must be rejected on every site: {tampered:?}"
    );
    assert!(
        tampered.individually_verified_sites > 0,
        "tampered shadow sites must fall off the shared-verdict fast path: {tampered:?}"
    );
    let (downgrade, _) = run_fleet_scale_point(4_096, SEED, FleetScenario::Downgrade, false);
    assert_eq!(
        downgrade.applied_sites, 0,
        "downgrade must never apply: {downgrade:?}"
    );
    assert_eq!(
        downgrade
            .reject_reasons
            .get("downgrade")
            .copied()
            .unwrap_or(0),
        4_096,
        "every site must reject the rollback as a downgrade: {downgrade:?}"
    );
    let tamper_parity = true;

    // --- Phase 3: shard determinism + legacy trace pinning -----------
    eprintln!("exp12: [3/4] shard determinism and legacy trace pinning");
    let (_, par_fleet) = run_fleet_scale_point(4_096, SEED, FleetScenario::Clean, false);
    let (_, seq_fleet) = run_fleet_scale_point(4_096, SEED, FleetScenario::Clean, true);
    let (_, twin_fleet) = run_fleet_scale_point(4_096, SEED, FleetScenario::Clean, false);
    let par_trace = par_fleet.export_trace_jsonl();
    let deterministic_shards = par_trace == seq_fleet.export_trace_jsonl();
    assert!(
        deterministic_shards,
        "parallel-sharded trace must be byte-identical to the sequential reference"
    );
    let deterministic_same_seed = par_trace == twin_fleet.export_trace_jsonl();
    assert!(
        deterministic_same_seed,
        "same-seed twin traces diverged — determinism contract broken"
    );
    let (_, legacy_trace) = run_fleet_rollout(64, 11, FleetScenario::Clean);
    let legacy_sha = hex(&sha256::digest(legacy_trace.as_bytes()));
    let legacy_trace_pinned = legacy_sha == LEGACY_TRACE_SHA256;
    assert!(
        legacy_trace_pinned,
        "shadowless 64-site seed-11 trace moved: {legacy_sha} != {LEGACY_TRACE_SHA256}"
    );

    // --- Phase 4: the scale sweep ------------------------------------
    eprintln!(
        "exp12: [4/4] scale sweep {sizes:?} (campaign + rollout per point{})",
        if smoke { ", smoke" } else { "" }
    );
    let mut rows = Vec::new();
    for &sites in sizes {
        let baseline = peak_baseline();
        let start = std::time::Instant::now();
        let (report, fleet) = run_fleet_scale_scenario(fleet_scale_config(sites, false), SEED);
        let wall_s = start.elapsed().as_secs_f64();
        let peak = peak_since(baseline);
        assert!(
            report.completed,
            "clean scale rollout must complete at {sites} sites: {report:?}"
        );
        assert_eq!(
            report.applied_sites, sites as u32,
            "clean scale rollout must update every one of {sites} sites"
        );
        let snapshot = fleet.security_snapshot();
        assert!(
            !fleet.siem().campaigns().is_empty(),
            "the deauth campaign must correlate at {sites} sites"
        );
        let bytes_per_site = peak as f64 / sites as f64;
        if sites >= CEILING_FLOOR_SITES {
            assert!(
                bytes_per_site <= BYTES_PER_SITE_CEILING,
                "peak heap {bytes_per_site:.1} B/site at {sites} sites exceeds the \
                 {BYTES_PER_SITE_CEILING} B/site ceiling"
            );
        }
        let amortization =
            report.batch_verified_sites as f64 / report.batch_verify_calls.max(1) as f64;
        eprintln!(
            "  {sites:>9} sites: {wall_s:>7.2} s wall, {:>10.0} sites/s, \
             {bytes_per_site:>7.1} B/site peak, batch x{amortization:.0}, \
             {} SIEM drops",
            sites as f64 / wall_s.max(1e-9),
            snapshot.siem_window_drops
        );
        rows.push(ScaleRow {
            sites,
            wall_s,
            sites_per_s: sites as f64 / wall_s.max(1e-9),
            peak_bytes: peak as u64,
            bytes_per_site,
            latency_ms: report.latency_ms,
            batch_verify_calls: report.batch_verify_calls,
            batch_verified_sites: report.batch_verified_sites,
            individually_verified_sites: report.individually_verified_sites,
            amortization,
            siem_campaigns: snapshot.siem_campaigns,
            siem_window_drops: snapshot.siem_window_drops,
            siem_observations_held: snapshot.siem_observations_held,
        });
    }

    let last = rows.last().expect("non-empty");
    let entry = RunEntry {
        seed: SEED,
        smoke,
        sizes: sizes.to_vec(),
        max_sites,
        equivalent_at_64,
        tamper_parity,
        deterministic_shards,
        deterministic_same_seed,
        legacy_trace_pinned,
        sites_per_s_max_scale: last.sites_per_s,
        bytes_per_site_max_scale: last.bytes_per_site,
        amortization_max_scale: last.amortization,
        rows,
    };

    println!("--- E12: fleet-scale control plane (seed {SEED}) ---");
    println!(
        "{:>9} {:>9} {:>12} {:>10} {:>8} {:>12}",
        "sites", "wall (s)", "sites/s", "B/site", "batch x", "SIEM drops"
    );
    for row in &entry.rows {
        println!(
            "{:>9} {:>9.2} {:>12.0} {:>10.1} {:>8.0} {:>12}",
            row.sites,
            row.wall_s,
            row.sites_per_s,
            row.bytes_per_site,
            row.amortization,
            row.siem_window_drops
        );
    }
    println!(
        "equivalence: decisions identical at 64 sites ({} campaigns, {} risk transitions)",
        full_campaigns.len(),
        full_risk.len()
    );
    println!("tamper parity: 4096/4096 rejected through the batched verify");
    println!("determinism: parallel == sequential == same-seed twin, legacy trace pinned");

    if smoke {
        eprintln!("smoke mode: skipping trajectory append");
        return;
    }

    append_trajectory_run("BENCH_fleet_scale.json", "exp12_fleet_scale", &entry);
}
