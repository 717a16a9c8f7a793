//! **E11: generative TARA at scale** — the machine-readable datapoints
//! behind `BENCH_tara.json`.
//!
//! Sweeps the enumerated scenario count 10² → 10⁶ through the
//! generative TARA engine (`silvasec-tara`): each point derives the
//! variant count covering the target, enumerates the asset × attack ×
//! entry × ODD cross product on the parallel sweep pool, scores every
//! distinct scenario with the ISO/SAE 21434 matrices and keeps the
//! deterministic top-k. On **every** point the subsystem's contracts
//! are proved before timing is reported:
//!
//! * **Determinism** — the `par_sweep` enumeration is byte-identical to
//!   the sequential walk, and a same-seed twin reproduces the ranking
//!   digest exactly;
//! * **Dedup accounting** — `enumerated == distinct +
//!   duplicates_folded`, with the closed-form catalog counts matched;
//! * **Oracle cross-check** — every grounded baseline cell (native
//!   entry, clear ODD, variant 0) scores identically to the hand-built
//!   `exp3_tara` assessment (`Tara::assess`) on impact, feasibility,
//!   risk and treatment;
//! * **Live hypotheses** — the E11 fleet scenario confirms hypotheses
//!   from SIEM campaign evidence, retires them on rollout mitigation,
//!   and the hypothesis state replays from the fleet trace alone.
//!
//! Run with: `cargo run --release -p silvasec-bench --bin exp11_tara`
//! (pass `--smoke` for a CI-sized run: 10²/10³-scenario points,
//! contracts asserted, no trajectory append).

use serde::Serialize;
use silvasec::experiments::{run_tara_hypotheses, tara_ranking};
use silvasec::risk::catalog::worksite_model;
use silvasec::risk::tara::Tara;
use silvasec::tara::{HypothesisSet, ScenarioSpace, TaraCatalog};
use silvasec_bench::{append_trajectory_run, hex};
use std::time::Instant;

const TARGETS: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];
const SMOKE_TARGETS: [u64; 2] = [100, 1_000];
const SEED: u64 = 11;
const TOP_K: usize = 64;

/// The acceptance floor: at the 10⁵-scenario point and above, the
/// engine must enumerate, dedup and score at least this many scenarios
/// per wall-clock second.
const MIN_SCENARIOS_PER_S: f64 = 50_000.0;

#[derive(Debug, Serialize)]
struct TaraRow {
    /// Requested scenario count for this point.
    target: u64,
    /// Attack-path variants enumerated to cover the target.
    variants: u32,
    /// Cells actually walked (≥ target).
    enumerated: u64,
    /// Distinct canonical scenarios scored after dedup.
    distinct: u64,
    /// Cells folded into an already-seen scenario.
    duplicates_folded: u64,
    /// Distinct scenarios grounded by a hand-built threat.
    grounded_scored: u64,
    /// Wall-clock of the timed parallel enumeration, seconds.
    wall_s: f64,
    /// Enumerated scenarios per wall-clock second.
    scenarios_per_s: f64,
    /// Risk value (1..=5) of the top-ranked scenario.
    top_risk: u8,
    /// Attack class of the top-ranked scenario.
    top_class: String,
    /// Hex SHA-256 over the dedup counters and the canonical top-k
    /// ranking (the byte string the determinism assertions compare).
    ranking_digest: String,
}

#[derive(Debug, Serialize)]
struct RunEntry {
    /// Seed keying the variant attack-path perturbations.
    seed: u64,
    /// Ranking capacity at every sweep point.
    top_k: usize,
    /// Whether this was a reduced CI run.
    smoke: bool,
    /// Parallel enumeration was byte-identical to sequential at every point.
    parallel_identical: bool,
    /// Same-seed twin reproduced the ranking digest at every point.
    deterministic_same_seed: bool,
    /// Grounded baseline cells matched the hand-built `exp3_tara` scores.
    oracle_match: bool,
    /// Live hypotheses: SIEM evidence confirmed and mitigation retired
    /// hypotheses in the E11 fleet scenario, and the state replayed
    /// from the trace alone.
    hypotheses_replay_identical: bool,
    /// Hypotheses confirmed by campaign evidence in the fleet scenario.
    hypotheses_confirmed: usize,
    /// Hypotheses retired by the rollout mitigation.
    hypotheses_retired: usize,
    /// Enumerated scenarios per second at the largest point.
    scenarios_per_s_max_scale: f64,
    /// One row per sweep point.
    rows: Vec<TaraRow>,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let targets: &[u64] = if smoke { &SMOKE_TARGETS } else { &TARGETS };

    let model = worksite_model();
    let catalog = TaraCatalog::from_model(&model);
    let oracle = Tara::assess(&model);

    let mut rows = Vec::new();
    eprintln!("exp11_tara: sweeping {targets:?} scenarios (seed {SEED}, top-{TOP_K})");
    for &target in targets {
        let variants = ScenarioSpace::variants_for(&catalog, target);
        let space = ScenarioSpace::new(&catalog, SEED, variants, TOP_K);

        let t0 = Instant::now();
        let report = space.enumerate_parallel();
        let wall_s = t0.elapsed().as_secs_f64();

        // Determinism: parallel == sequential, bit for bit, and a
        // same-seed twin reproduces the digest.
        let sequential = space.enumerate();
        assert_eq!(
            report, sequential,
            "parallel enumeration diverged from sequential at target {target}"
        );
        let twin = space.enumerate_parallel();
        assert_eq!(
            twin.digest(),
            report.digest(),
            "same-seed ranking digests diverged at target {target}"
        );

        // Dedup accounting balances and matches the closed form.
        assert!(report.enumerated >= target, "target covered");
        assert_eq!(
            report.enumerated,
            catalog.cells_per_variant() * u64::from(variants)
        );
        assert_eq!(
            report.distinct,
            catalog.distinct_per_variant() * u64::from(variants)
        );
        assert_eq!(
            report.enumerated,
            report.distinct + report.duplicates_folded,
            "dedup accounting must balance at target {target}"
        );

        // Oracle cross-check: grounded baseline cells reproduce the
        // hand-built exp3_tara assessment exactly.
        let baselines = space.baseline_cells();
        assert!(!baselines.is_empty(), "catalog must be grounded");
        for (threat_id, cell) in &baselines {
            let expected = oracle
                .risks
                .iter()
                .find(|r| &r.threat_id == threat_id)
                .unwrap_or_else(|| panic!("oracle assesses {threat_id}"));
            assert_eq!(cell.impact, expected.impact, "impact for {threat_id}");
            assert_eq!(
                cell.feasibility, expected.feasibility,
                "feasibility for {threat_id}"
            );
            assert_eq!(cell.risk, expected.risk, "risk for {threat_id}");
            assert_eq!(
                cell.treatment, expected.treatment,
                "treatment for {threat_id}"
            );
        }

        let scenarios_per_s = report.enumerated as f64 / wall_s.max(1e-9);
        if !smoke && report.enumerated >= 100_000 {
            assert!(
                scenarios_per_s >= MIN_SCENARIOS_PER_S,
                "throughput floor missed at target {target}: {scenarios_per_s:.0}/s"
            );
        }

        let top = report.top.first().expect("non-empty ranking");
        let row = TaraRow {
            target,
            variants,
            enumerated: report.enumerated,
            distinct: report.distinct,
            duplicates_folded: report.duplicates_folded,
            grounded_scored: report.grounded_scored,
            wall_s,
            scenarios_per_s,
            top_risk: top.risk.0,
            top_class: top.attack_class.clone(),
            ranking_digest: hex(&report.digest()),
        };
        eprintln!(
            "  {target:>8} target: {variants:>4} variants, {:>8} enumerated \
             ({} folded), {wall_s:>7.3} s wall, {scenarios_per_s:>10.0}/s, \
             top risk {} ({})",
            row.enumerated, row.duplicates_folded, row.top_risk, row.top_class
        );
        rows.push(row);
    }

    // Live hypotheses: the E11 fleet scenario confirms from SIEM
    // campaign evidence, retires on rollout mitigation, and the state
    // is a pure function of the fleet trace.
    eprintln!("exp11_tara: running the live-hypothesis fleet scenario");
    let fleet = run_tara_hypotheses(4, SEED);
    let live = fleet.tara().expect("tara knob on");
    let (_, confirmed, retired) = live.counts();
    assert!(confirmed > 0, "campaign evidence must confirm hypotheses");
    assert!(retired > 0, "rollout mitigation must retire hypotheses");
    let replayed =
        HypothesisSet::replay_from_jsonl(tara_ranking(SEED), &fleet.export_trace_jsonl())
            .expect("fleet trace replays");
    assert_eq!(
        replayed.first_divergence(live),
        None,
        "replayed hypothesis state diverged"
    );

    let last = rows.last().expect("non-empty sweep");
    let entry = RunEntry {
        seed: SEED,
        top_k: TOP_K,
        smoke,
        parallel_identical: true,
        deterministic_same_seed: true,
        oracle_match: true,
        hypotheses_replay_identical: true,
        hypotheses_confirmed: confirmed,
        hypotheses_retired: retired,
        scenarios_per_s_max_scale: last.scenarios_per_s,
        rows,
    };

    println!("--- E11: generative TARA at scale (seed {SEED}, top-{TOP_K}) ---");
    println!(
        "{:>9} {:>8} {:>10} {:>9} {:>8} {:>9} {:>12} {:>8}",
        "target", "variants", "enumerated", "distinct", "folded", "wall (s)", "scenarios/s", "top"
    );
    for row in &entry.rows {
        println!(
            "{:>9} {:>8} {:>10} {:>9} {:>8} {:>9.3} {:>12.0} {:>5} r{}",
            row.target,
            row.variants,
            row.enumerated,
            row.distinct,
            row.duplicates_folded,
            row.wall_s,
            row.scenarios_per_s,
            row.top_class,
            row.top_risk
        );
    }
    println!("determinism: parallel == sequential, same-seed digest identical");
    println!("oracle: grounded baselines match exp3_tara on impact/feasibility/risk/treatment");
    println!(
        "hypotheses: {confirmed} confirmed by SIEM evidence, {retired} retired by mitigation, \
         replay identical"
    );

    if smoke {
        eprintln!("smoke mode: skipping trajectory append");
        return;
    }

    append_trajectory_run("BENCH_tara.json", "exp11_tara", &entry);
}
