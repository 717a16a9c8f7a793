//! **Trace comparison** — diff two flight-recorder JSONL traces and
//! report the first divergence.
//!
//! Modes:
//!
//! * `trace_compare <left.jsonl> <right.jsonl>` — compare two exported
//!   trace files event by event, streaming line by line so fleet-sized
//!   traces never have to fit in memory;
//! * `trace_compare --figure1 <seed-a> <seed-b> [sim-secs]` — run the
//!   shortened Figure 1 campaign twice under the secure posture and
//!   compare the resulting security traces directly, no files needed
//!   (default 240 simulated seconds);
//! * `trace_compare --fleet <seed-a> <seed-b> [sites]` — run the E10
//!   fleet OTA rollout twice and compare the fleet security traces
//!   (default 4 sites);
//! * `trace_compare --fleet-scale <seed-a> <seed-b> [sites]` — run the
//!   E12 two-fidelity fleet rollout with parallel shadow shards for the
//!   left trace and sequentially for the right (default 4096 sites):
//!   with equal seeds this is the shard-merge determinism witness, with
//!   different seeds a divergence probe;
//! * `trace_compare --ops <seed-a> <seed-b> [incidents]` — run the E13
//!   synthetic incident-response load twice (default 500 incidents) and
//!   compare the `Ops*` security traces. Before comparing, the left
//!   run's store is rebuilt from nothing but its own recorded trace and
//!   diffed against the live store (`RunStore::first_divergence`) — a
//!   live-vs-replay divergence fails the run even when the seeds
//!   differ, making this the self-driving replay witness for CI;
//! * `trace_compare --episodes <seed-a> <seed-b> [sim-secs]` — run one
//!   standard jamming episode per seed (default 240 simulated seconds),
//!   the left on a **pooled** worksite (dirtied by a preceding episode
//!   on an unrelated seed, then `reset_for_episode` onto the probed
//!   one), the right on a **fresh** build, and compare the security
//!   traces: with equal seeds this is the reset-equals-fresh
//!   byte-identity witness for CI, with different seeds a divergence
//!   probe;
//! * `trace_compare --tara <seed-a> <seed-b> [sites]` — run the E11
//!   live-hypothesis fleet scenario twice (default 4 sites) and compare
//!   the security traces. Before comparing, the left run's TARA
//!   hypothesis set is rebuilt from nothing but the recorded
//!   `TaraHypothesis` events (`HypothesisSet::replay_from_jsonl`) and
//!   diffed against the live set — a live-vs-replay divergence fails
//!   the run even when the seeds differ.
//!
//! `--max-events N` (any mode) stops after the first `N` events: a
//! bounded spot-check that keeps CI diffs of fleet-scale traces cheap.
//!
//! `--dump <path>` (self-driving modes) additionally writes the left
//! trace to a file, so a "before" snapshot can be captured, the code
//! changed, and the "after" trace compared byte for byte with the
//! file-diff mode — the same pre/post workflow `fleet_trace_dump`
//! supports for the fleet trace, here for the Figure 1 worksite trace.
//!
//! Identical traces exit 0 and print `identical`; diverging traces exit
//! 1 and print the event index, the field path, and both values at the
//! first mismatch. Same seed must always compare identical — that is
//! the recorder's determinism contract.
//!
//! Run with: `cargo run --release -p silvasec-bench --bin trace_compare -- --figure1 11 12`

use silvasec::experiments::{
    figure1_trace, run_fleet_rollout, run_fleet_scale_point, run_ops_load, run_tara_hypotheses,
    tara_ranking, FleetScenario,
};
use silvasec::ops::RunStore;
use silvasec::prelude::*;
use silvasec::tara::HypothesisSet;
use silvasec::telemetry::first_divergence_jsonl;
use silvasec_sim::time::SimDuration;
use std::io::BufRead;
use std::process::ExitCode;

const USAGE: &str = "usage: trace_compare [--max-events N] <left.jsonl> <right.jsonl>\n       trace_compare [--max-events N] --figure1 <seed-a> <seed-b> [sim-secs]\n       trace_compare [--max-events N] --fleet <seed-a> <seed-b> [sites]\n       trace_compare [--max-events N] --fleet-scale <seed-a> <seed-b> [sites]\n       trace_compare [--max-events N] --ops <seed-a> <seed-b> [incidents]\n       trace_compare [--max-events N] --tara <seed-a> <seed-b> [sites]\n       trace_compare [--max-events N] --episodes <seed-a> <seed-b> [sim-secs]";

fn compare(left_name: &str, left: &str, right_name: &str, right: &str) -> ExitCode {
    match first_divergence_jsonl(left, right) {
        Ok(None) => {
            let events = left.lines().count();
            println!("identical: {left_name} and {right_name} agree on all {events} events");
            ExitCode::SUCCESS
        }
        Ok(Some(div)) => {
            println!("traces diverge at event {}:", div.index);
            println!("  field: {}", div.field);
            println!("  {left_name}: {}", div.left);
            println!("  {right_name}: {}", div.right);
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: malformed trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Keeps only the first `max_events` lines of an in-memory trace.
fn truncated(trace: &str, max_events: Option<usize>) -> String {
    match max_events {
        None => trace.to_string(),
        Some(n) => trace
            .lines()
            .take(n)
            .map(|l| format!("{l}\n"))
            .collect::<String>(),
    }
}

/// Streams two trace files line by line — memory is bounded by one
/// event per side regardless of file size — and reports the first
/// divergence, stopping after `max_events` events when set.
fn compare_files(
    left_path: &str,
    right_path: &str,
    max_events: Option<usize>,
) -> std::io::Result<ExitCode> {
    let open = |p: &str| std::fs::File::open(p).map(std::io::BufReader::new);
    let mut left_lines = open(left_path)?.lines();
    let mut right_lines = open(right_path)?.lines();
    let mut index = 0usize;
    loop {
        if max_events.is_some_and(|n| index >= n) {
            println!(
                "identical: {left_path} and {right_path} agree on the first {index} events \
                 (--max-events reached)"
            );
            return Ok(ExitCode::SUCCESS);
        }
        match (
            left_lines.next().transpose()?,
            right_lines.next().transpose()?,
        ) {
            (None, None) => {
                println!("identical: {left_path} and {right_path} agree on all {index} events");
                return Ok(ExitCode::SUCCESS);
            }
            (Some(_), None) | (None, Some(_)) => {
                println!("traces diverge at event {index}:");
                println!("  one trace ends here while the other continues");
                return Ok(ExitCode::FAILURE);
            }
            (Some(left), Some(right)) => match first_divergence_jsonl(&left, &right) {
                Ok(None) => {}
                Ok(Some(div)) => {
                    println!("traces diverge at event {index}:");
                    println!("  field: {}", div.field);
                    println!("  {left_path}: {}", div.left);
                    println!("  {right_path}: {}", div.right);
                    return Ok(ExitCode::FAILURE);
                }
                Err(e) => {
                    eprintln!("error: malformed trace at event {index}: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            },
        }
        index += 1;
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // `--max-events N` may appear anywhere; extract it first.
    let mut max_events: Option<usize> = None;
    if let Some(pos) = args.iter().position(|a| a == "--max-events") {
        let Some(Ok(n)) = args.get(pos + 1).map(|s| s.parse::<usize>()) else {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        };
        max_events = Some(n);
        args.drain(pos..=pos + 1);
    }

    // `--dump <path>` writes the left trace of a self-driving mode to a
    // file for later pre/post file-diff comparison.
    let mut dump_path: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--dump") {
        let Some(path) = args.get(pos + 1).cloned() else {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        };
        dump_path = Some(path);
        args.drain(pos..=pos + 1);
    }
    let dump = |trace: &str| {
        if let Some(path) = &dump_path {
            if let Err(e) = std::fs::write(path, trace) {
                eprintln!("error: cannot write {path}: {e}");
            } else {
                eprintln!("dumped left trace to {path}");
            }
        }
    };

    // Every self-driving mode takes `<seed-a> <seed-b> [n]`.
    let mode_args = |default: usize| -> Option<(u64, u64, usize)> {
        let num = |i: usize| args.get(i).map(|s| s.parse::<u64>());
        match (num(1), num(2), args.get(3).map(|s| s.parse::<usize>())) {
            (Some(Ok(a)), Some(Ok(b)), None) => Some((a, b, default)),
            (Some(Ok(a)), Some(Ok(b)), Some(Ok(n))) => Some((a, b, n)),
            _ => None,
        }
    };
    let usage = || {
        eprintln!("{USAGE}");
        ExitCode::FAILURE
    };
    // Truncates both traces, dumps the left one and compares them.
    let finish = |left_name: String, left: &str, right_name: String, right: &str| {
        let left = truncated(left, max_events);
        dump(&left);
        compare(
            &left_name,
            &left,
            &right_name,
            &truncated(right, max_events),
        )
    };

    match args.first().map(String::as_str) {
        Some("--figure1") => {
            let Some((seed_a, seed_b, secs)) = mode_args(240) else {
                return usage();
            };
            let total = SimDuration::from_secs(secs as u64);
            finish(
                format!("seed {seed_a}"),
                &figure1_trace(SecurityPosture::secure(), seed_a, total),
                format!("seed {seed_b}"),
                &figure1_trace(SecurityPosture::secure(), seed_b, total),
            )
        }
        Some("--fleet") => {
            let Some((seed_a, seed_b, sites)) = mode_args(4) else {
                return usage();
            };
            let (_, left) = run_fleet_rollout(sites, seed_a, FleetScenario::Clean);
            let (_, right) = run_fleet_rollout(sites, seed_b, FleetScenario::Clean);
            finish(
                format!("fleet seed {seed_a}"),
                &left,
                format!("fleet seed {seed_b}"),
                &right,
            )
        }
        Some("--fleet-scale") => {
            let Some((seed_a, seed_b, sites)) = mode_args(4_096) else {
                return usage();
            };
            // Left runs the shadow shards on the parallel sweep pool,
            // right runs them sequentially: equal seeds assert the
            // order-preserving merge, different seeds probe divergence.
            let (_, left_fleet) = run_fleet_scale_point(sites, seed_a, FleetScenario::Clean, false);
            let (_, right_fleet) = run_fleet_scale_point(sites, seed_b, FleetScenario::Clean, true);
            finish(
                format!("parallel shards seed {seed_a}"),
                &left_fleet.export_trace_jsonl(),
                format!("sequential shards seed {seed_b}"),
                &right_fleet.export_trace_jsonl(),
            )
        }
        Some("--ops") => {
            let Some((seed_a, seed_b, incidents)) = mode_args(500) else {
                return usage();
            };
            let (left_engine, left) = run_ops_load(incidents, seed_a);
            let (_, right) = run_ops_load(incidents, seed_b);
            // Replay witness on the full (untruncated) left trace: the
            // store rebuilt from nothing but the recorded events must be
            // identical to the live one, whatever the seeds.
            let replayed = match RunStore::replay_from_jsonl(&left) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("error: left ops trace does not replay: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some((line, live, replay)) = left_engine.store().first_divergence(&replayed) {
                println!("live and replayed run stores diverge at canonical line {line}:");
                println!("  live:   {live}");
                println!("  replay: {replay}");
                return ExitCode::FAILURE;
            }
            println!(
                "replay: store rebuilt from the recorded trace is identical to the live store \
                 ({} runs)",
                left_engine.store().len()
            );
            finish(
                format!("ops seed {seed_a}"),
                &left,
                format!("ops seed {seed_b}"),
                &right,
            )
        }
        Some("--episodes") => {
            let Some((seed_a, seed_b, secs)) = mode_args(240) else {
                return usage();
            };
            use silvasec::experiments::EpisodeSpec;
            let spec_for = |seed: u64| {
                EpisodeSpec::standard(
                    SecurityPosture::secure(),
                    Some(AttackKind::RfJamming),
                    seed,
                    SimDuration::from_secs(secs as u64),
                )
            };

            // Left: the pooled reset path. Dirty the worksite with a
            // full episode on an unrelated seed first, so the reset has
            // real state to erase.
            let left_spec = spec_for(seed_a);
            let dirty_spec = spec_for(seed_a.wrapping_add(0x9e37));
            let mut pooled = Worksite::new(&dirty_spec.config, dirty_spec.seed);
            dirty_spec.arm(&mut pooled);
            pooled.run(dirty_spec.duration);
            pooled.reset_for_episode(&left_spec.config, left_spec.seed);
            left_spec.arm(&mut pooled);
            pooled.run(left_spec.duration);

            // Right: the same spec on a fresh build.
            let right_spec = spec_for(seed_b);
            let mut fresh = Worksite::new(&right_spec.config, right_spec.seed);
            right_spec.arm(&mut fresh);
            fresh.run(right_spec.duration);

            finish(
                format!("pooled-reset seed {seed_a}"),
                &pooled.export_security_jsonl(),
                format!("fresh-build seed {seed_b}"),
                &fresh.export_security_jsonl(),
            )
        }
        Some("--tara") => {
            let Some((seed_a, seed_b, sites)) = mode_args(4) else {
                return usage();
            };
            let left_fleet = run_tara_hypotheses(sites, seed_a);
            let right_fleet = run_tara_hypotheses(sites, seed_b);
            let left = left_fleet.export_trace_jsonl();
            // Replay witness on the full (untruncated) left trace: the
            // hypothesis set rebuilt from nothing but the recorded
            // `TaraHypothesis` events must be identical to the live one,
            // whatever the seeds.
            let live = left_fleet.tara().expect("tara knob is on in E11");
            let replayed = match HypothesisSet::replay_from_jsonl(tara_ranking(seed_a), &left) {
                Ok(set) => set,
                Err(e) => {
                    eprintln!("error: left tara trace does not replay: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(div) = replayed.first_divergence(live) {
                println!("live and replayed hypothesis sets diverge:");
                println!("  {div}");
                return ExitCode::FAILURE;
            }
            let (open, confirmed, retired) = live.counts();
            println!(
                "replay: hypothesis set rebuilt from the recorded trace is identical to the \
                 live set ({open} open, {confirmed} confirmed, {retired} retired)"
            );
            finish(
                format!("tara seed {seed_a}"),
                &left,
                format!("tara seed {seed_b}"),
                &right_fleet.export_trace_jsonl(),
            )
        }
        Some(left_path) if args.len() == 2 => {
            let right_path = &args[1];
            match compare_files(left_path, right_path, max_events) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
