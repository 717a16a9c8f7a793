//! Shared helpers for the table/figure regeneration binaries in
//! `src/bin/`. Each binary prints the rows of one table or the series of
//! one figure from `EXPERIMENTS.md`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod alloc;

use serde::{Serialize, Value};
use silvasec::experiments::standard_config;
use silvasec::prelude::*;
use silvasec_channel::{HandshakePolicy, Identity, Initiator, Responder, Session};
use silvasec_crypto::schnorr::SigningKey;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Run-identity keys for a `BENCH_*.json` trajectory entry, read from
/// the environment so no wall clock ever leaks into the simulation:
/// `SILVASEC_GIT_SHA` (falling back to `git rev-parse HEAD`, then
/// `unknown`) and `SILVASEC_RUN_TS` (default `unspecified`).
#[must_use]
pub fn run_keys() -> (String, String) {
    let sha = std::env::var("SILVASEC_GIT_SHA")
        .ok()
        .or_else(git_head_sha)
        .unwrap_or_else(|| "unknown".into());
    (
        sha,
        std::env::var("SILVASEC_RUN_TS").unwrap_or_else(|_| "unspecified".into()),
    )
}

/// Best-effort `git rev-parse HEAD` of the workspace checkout; `None`
/// when git is unavailable or the output is not a commit hash.
fn git_head_sha() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(workspace_root())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let sha = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (sha.len() == 40 && sha.bytes().all(|b| b.is_ascii_hexdigit())).then_some(sha)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Loads the `runs` array of an existing trajectory file. Missing files
/// start a fresh trajectory; unparseable ones are reported and start
/// fresh too.
fn existing_trajectory_runs(path: &Path) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(value) = serde_json::parse(&text) else {
        eprintln!(
            "warning: {} is not valid JSON; starting a fresh trajectory",
            path.display()
        );
        return Vec::new();
    };
    value
        .get_field("runs")
        .as_array()
        .map_or_else(Vec::new, <[Value]>::to_vec)
}

/// Appends one run entry to the trajectory `file` (a `BENCH_*.json` at
/// the workspace root) under the given trajectory `schema` and returns
/// the resulting run count. Every `BENCH_*.json` writer goes through
/// here so the trajectory format stays uniform across binaries.
pub fn append_trajectory_run<T: Serialize>(file: &str, schema: &str, entry: &T) -> usize {
    let path = workspace_root().join(file);
    let mut runs = existing_trajectory_runs(&path);
    runs.push(entry.serialize());
    let run_count = runs.len();
    let trajectory = Value::Object(vec![
        ("schema".to_string(), Value::String(schema.to_string())),
        ("runs".to_string(), Value::Array(runs)),
    ]);
    let text = serde_json::to_string_pretty(&trajectory).expect("trajectory serializes");
    std::fs::write(&path, text).expect("write trajectory file");
    eprintln!("appended run ({run_count} total) to {}", path.display());
    run_count
}

/// Builds a two-party PKI and an established session pair, for channel
/// benchmarks and binaries.
#[must_use]
pub fn session_pair(seed: u8) -> (Session, Session) {
    let mut root = CertificateAuthority::new_root("root", &[seed; 32], Validity::new(0, 1_000_000));
    let store = TrustStore::with_roots([root.certificate().clone()]);
    let make = |id: &str, role, s: u8, root: &mut CertificateAuthority| {
        let key = SigningKey::from_seed(&[s; 32]);
        let cert = root.issue_mut(
            &Subject::new(id, role),
            &key.verifying_key(),
            KeyUsage::AUTHENTICATION,
            Validity::new(0, 500_000),
        );
        Identity::new(vec![cert], key)
    };
    let a = make(
        "a",
        ComponentRole::Forwarder,
        seed.wrapping_add(1),
        &mut root,
    );
    let b = make(
        "b",
        ComponentRole::BaseStation,
        seed.wrapping_add(2),
        &mut root,
    );
    let policy = HandshakePolicy::new(store, 100);
    let (init, hello) = Initiator::start(a, [seed.wrapping_add(3); 32], [seed.wrapping_add(4); 32]);
    let (resp, reply) = Responder::respond(
        b,
        &policy,
        &hello,
        [seed.wrapping_add(5); 32],
        [seed.wrapping_add(6); 32],
    )
    .expect("handshake");
    let (sa, finished) = init.finish(&policy, &reply).expect("finish");
    let sb = resp.complete(&finished).expect("complete");
    (sa, sb)
}

/// Returns the median of a sample (mean of the middle two for even
/// sizes). Panics on an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Flight-recorder overhead measured on the standard worksite episode
/// with interleaved enabled/disabled rounds (median of each arm), so a
/// frequency ramp or background load during the measurement biases
/// both arms equally instead of making the overhead look negative.
#[derive(Debug, Clone, Serialize)]
pub struct RecorderOverhead {
    /// Simulated episode length, seconds.
    pub sim_secs: u64,
    /// Interleaved measurement rounds per arm.
    pub rounds: u32,
    /// Median wall-clock with the recorder enabled, seconds.
    pub enabled_wall_s: f64,
    /// Median wall-clock with the recorder disabled, seconds.
    pub disabled_wall_s: f64,
    /// Fractional wall-time overhead of recording, clamped at zero
    /// (`max(0, enabled / disabled - 1)`).
    pub overhead_frac: f64,
    /// Unclamped overhead; may dip below zero within the noise floor.
    pub raw_overhead_frac: f64,
    /// Measurement noise floor: relative half-spread of the disabled
    /// arm's round times. `raw_overhead_frac` within ±this of zero is
    /// indistinguishable from noise.
    pub noise_floor_frac: f64,
    /// Events recorded during the instrumented run.
    pub events: u64,
    /// Events recorded per wall-clock second.
    pub events_per_s: f64,
    /// Mean JSONL export size per flight-ring record, bytes.
    pub bytes_per_event: f64,
    /// Fraction of pushed records dropped by ring overflow.
    pub drop_rate: f64,
}

/// Measures recorder overhead on the standard secure worksite with
/// `rounds` interleaved enabled/disabled pairs.
#[must_use]
pub fn measure_recorder_overhead(seed: u64, sim_secs: u64, rounds: u32) -> RecorderOverhead {
    let rounds = rounds.max(1);
    let run = |enabled: bool| {
        let mut config = standard_config(SecurityPosture::secure());
        config.telemetry.enabled = enabled;
        let mut site = Worksite::new(&config, seed);
        let t = Instant::now();
        site.run(SimDuration::from_secs(sim_secs));
        (t.elapsed().as_secs_f64(), site)
    };
    // Warm-up pair (untimed): page in code and allocator state.
    let _ = run(true);
    let _ = run(false);
    let mut enabled_times = Vec::with_capacity(rounds as usize);
    let mut disabled_times = Vec::with_capacity(rounds as usize);
    let mut last_site = None;
    for _ in 0..rounds {
        let (t_on, site) = run(true);
        enabled_times.push(t_on);
        last_site = Some(site);
        let (t_off, _) = run(false);
        disabled_times.push(t_off);
    }
    let enabled_wall_s = median(&enabled_times);
    let disabled_wall_s = median(&disabled_times);
    let raw_overhead_frac = enabled_wall_s / disabled_wall_s.max(1e-9) - 1.0;
    let spread = disabled_times
        .iter()
        .fold(f64::NEG_INFINITY, |a, &b| a.max(b))
        - disabled_times.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let noise_floor_frac = spread / 2.0 / disabled_wall_s.max(1e-9);

    let site = last_site.expect("at least one round");
    let events = site.recorder().events_recorded();
    let jsonl = site.export_flight_jsonl();
    let lines = jsonl.lines().count();
    let snapshot = site.telemetry_snapshot();
    let pushed = snapshot.total_pushed();
    RecorderOverhead {
        sim_secs,
        rounds,
        enabled_wall_s,
        disabled_wall_s,
        overhead_frac: raw_overhead_frac.max(0.0),
        raw_overhead_frac,
        noise_floor_frac,
        events,
        events_per_s: events as f64 / enabled_wall_s.max(1e-9),
        bytes_per_event: jsonl.len() as f64 / lines.max(1) as f64,
        drop_rate: if pushed == 0 {
            0.0
        } else {
            snapshot.total_dropped() as f64 / pushed as f64
        },
    }
}

#[cfg(test)]
#[global_allocator]
static ALLOCATOR: alloc::TrackingAllocator = alloc::TrackingAllocator;

#[cfg(test)]
mod tests {
    use super::alloc::{acquisitions, peak_baseline, peak_since};
    use super::*;
    use std::hint::black_box;

    /// Retries `window` until one run is free of other test threads'
    /// heap traffic: concurrent allocations can only add acquisitions
    /// and concurrent frees only lower the peak, so a quiet window is
    /// the exact measurement.
    fn quiet_window(window: impl Fn() -> bool) -> bool {
        (0..64).any(|_| window())
    }

    #[test]
    fn one_vec_is_one_acquisition_and_raises_the_peak() {
        const N: usize = 1 << 20;
        assert!(quiet_window(|| {
            let before = acquisitions();
            let baseline = peak_baseline();
            let v = black_box(Vec::<u8>::with_capacity(N));
            let grew = peak_since(baseline);
            let acquired = acquisitions() - before;
            drop(v);
            assert!(acquired >= 1, "Vec::with_capacity acquired nothing");
            acquired == 1 && grew >= N
        }));
    }

    #[test]
    fn peak_baseline_and_since_measure_one_region() {
        const N: usize = 64 * 1024;
        assert!(quiet_window(|| {
            let baseline = peak_baseline();
            drop(black_box(Vec::<u8>::with_capacity(N)));
            let region = peak_since(baseline);
            // The buffer is freed: a new region starts below it.
            let next = peak_since(peak_baseline());
            region >= N && next < N
        }));
    }

    #[test]
    fn session_pair_works() {
        let (mut a, mut b) = session_pair(1);
        let rec = a.seal(b"x").unwrap();
        assert_eq!(b.open(&rec).unwrap(), b"x");
    }
}
