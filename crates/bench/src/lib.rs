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
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag of every `BENCH_*.json` trajectory file.
pub const TRAJECTORY_SCHEMA: &str = "silvasec-bench-trajectory/2";

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

/// The identity keys that open every trajectory run.
#[derive(Serialize)]
struct RunHeader {
    bin: String,
    git_sha: String,
    run_ts: String,
    host: Host,
}

/// The host a run was measured on, with the keys and string values of
/// the `silvabench` report's host block; the compiler and `target-cpu`
/// are captured by `build.rs`.
#[derive(Serialize)]
struct Host {
    cpu_model: String,
    nproc: String,
    rustc: String,
    target_cpu: String,
}

/// Appends one run of binary `bin` to the trajectory `file` (a
/// `BENCH_*.json` at the workspace root) and returns the resulting run
/// count. Every `BENCH_*.json` writer goes through here, so every file
/// has one schema, [`TRAJECTORY_SCHEMA`], and every run starts with the
/// same four keys ahead of the binary's own fields:
///
/// * `bin` — the binary that measured the run;
/// * `git_sha` — `SILVASEC_GIT_SHA`, else `git rev-parse HEAD`, else
///   `unknown`;
/// * `run_ts` — `SILVASEC_RUN_TS`, else `unspecified` (no wall clock is
///   read);
/// * `host` — `cpu_model`, `nproc`, `rustc` and `target_cpu`, so
///   absolute rates are compared only between runs of one host.
pub fn append_trajectory_run<T: Serialize>(file: &str, bin: &str, entry: &T) -> usize {
    append_trajectory_run_at(&workspace_root().join(file), bin, entry)
}

/// [`append_trajectory_run`] on an explicit path. A missing file starts
/// a fresh trajectory; an unparseable one is reported and started fresh.
fn append_trajectory_run_at<T: Serialize>(path: &Path, bin: &str, entry: &T) -> usize {
    let mut runs = match std::fs::read_to_string(path).map(|text| serde_json::parse(&text)) {
        Ok(Ok(doc)) => doc
            .get_field("runs")
            .as_array()
            .map_or_else(Vec::new, <[Value]>::to_vec),
        Ok(Err(_)) => {
            eprintln!(
                "warning: {} is not valid JSON; starting a fresh trajectory",
                path.display()
            );
            Vec::new()
        }
        Err(_) => Vec::new(),
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
    });
    let header = RunHeader {
        bin: bin.into(),
        git_sha: std::env::var("SILVASEC_GIT_SHA")
            .ok()
            .or_else(git_head_sha)
            .unwrap_or_else(|| "unknown".into()),
        run_ts: std::env::var("SILVASEC_RUN_TS").unwrap_or_else(|_| "unspecified".into()),
        host: Host {
            cpu_model: cpu_model.unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism()
                .map_or(0, std::num::NonZero::get)
                .to_string(),
            rustc: env!("SILVASEC_BENCH_RUSTC").into(),
            target_cpu: env!("SILVASEC_BENCH_TARGET_CPU").into(),
        },
    };
    let (Value::Object(mut run), Value::Object(fields)) = (header.serialize(), entry.serialize())
    else {
        panic!("a trajectory entry must serialize to a JSON object");
    };
    run.extend(fields);
    runs.push(Value::Object(run));
    let run_count = runs.len();
    let trajectory = Value::Object(vec![
        ("schema".into(), Value::String(TRAJECTORY_SCHEMA.into())),
        ("runs".into(), Value::Array(runs)),
    ]);
    let text = serde_json::to_string_pretty(&trajectory).expect("trajectory serializes");
    std::fs::write(path, text).expect("write trajectory file");
    eprintln!("appended run ({run_count} total) to {}", path.display());
    run_count
}

/// `len` deterministic pseudo-random bytes (xorshift64*, little-endian
/// words), so every run times and cross-checks the same inputs.
#[must_use]
pub fn xorshift_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let word = state.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes();
        out.extend_from_slice(&word[..word.len().min(len - out.len())]);
    }
    out
}

/// Lower-case hex of `bytes` (digests in trajectory entries).
#[must_use]
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Per-round wall-clock totals of the two arms of [`paired_rounds`], in
/// seconds, in round order.
#[derive(Debug, Clone)]
pub struct PairedRounds {
    /// Fast-arm total of each round.
    pub fast: Vec<f64>,
    /// Reference-arm total of each round.
    pub reference: Vec<f64>,
}

impl PairedRounds {
    /// Median of the per-round `reference / fast` ratios.
    #[must_use]
    pub fn median_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .fast
            .iter()
            .zip(&self.reference)
            .map(|(f, r)| r / f.max(1e-12))
            .collect();
        median(&ratios)
    }

    /// Reference-arm median over fast-arm median.
    #[must_use]
    pub fn ratio_of_medians(&self) -> f64 {
        median(&self.reference) / median(&self.fast).max(1e-12)
    }

    /// Best-of-rounds throughput of each arm, calls per second, for
    /// `units` calls per round: `(fast, reference)`.
    #[must_use]
    pub fn best_rates(&self, units: usize) -> (f64, f64) {
        let best = |arm: &[f64]| arm.iter().copied().fold(f64::INFINITY, f64::min).max(1e-12);
        (
            units as f64 / best(&self.fast),
            units as f64 / best(&self.reference),
        )
    }
}

/// Seconds per call of `f`, best of `rounds` rounds of `units` calls:
/// the single-arm form of [`paired_rounds`].
pub fn best_per_call_s<T>(rounds: usize, units: usize, f: impl FnMut(usize) -> T) -> f64 {
    1.0 / paired_rounds(rounds, units, f, |_| ()).best_rates(units).0
}

/// The one timing harness of the bench binaries: times a fast arm
/// against a reference arm, interleaved unit by unit.
///
/// One untimed warm-up pair (`fast(0)`, `reference(0)`) runs first, to
/// page in code and allocator state. Then each of `rounds` rounds calls
/// `fast(i)` and `reference(i)` alternately for `i` in `0..units`,
/// timing every call on its own, so each fast call runs within
/// microseconds of the reference call it is compared against: on a
/// shared host the absolute speed can swing by tens of percent over
/// tens of milliseconds, and timing the arms in separate blocks would
/// compare a throttled window against an unthrottled one. Values the
/// arms return are dropped outside the timed window.
pub fn paired_rounds<T, U>(
    rounds: usize,
    units: usize,
    mut fast: impl FnMut(usize) -> T,
    mut reference: impl FnMut(usize) -> U,
) -> PairedRounds {
    black_box(fast(0));
    black_box(reference(0));
    let mut out = PairedRounds {
        fast: Vec::with_capacity(rounds),
        reference: Vec::with_capacity(rounds),
    };
    for _ in 0..rounds {
        let (mut fast_s, mut reference_s) = (0.0, 0.0);
        for i in 0..units {
            let t0 = Instant::now();
            let kept = black_box(fast(i));
            fast_s += t0.elapsed().as_secs_f64();
            drop(kept);
            let t0 = Instant::now();
            let kept = black_box(reference(i));
            reference_s += t0.elapsed().as_secs_f64();
            drop(kept);
        }
        out.fast.push(fast_s);
        out.reference.push(reference_s);
    }
    out
}

/// [`paired_rounds`] over whole worksite runs, one unit per round: each
/// call gets a fresh `Worksite::new(config, seed)` of its arm, and every
/// site (warm-up pair included) is built before the clock starts, so
/// the rounds time the runs alone.
pub fn paired_site_rounds(
    rounds: usize,
    fast: (&WorksiteConfig, impl Fn(&mut Worksite)),
    reference: (&WorksiteConfig, impl Fn(&mut Worksite)),
    seed: u64,
) -> PairedRounds {
    // Built alternately, so neither arm's sites sit in a region of the
    // heap the other arm's do not share.
    let (mut fast_sites, mut reference_sites): (Vec<_>, Vec<_>) = (0..=rounds)
        .map(|_| {
            (
                Worksite::new(fast.0, seed),
                Worksite::new(reference.0, seed),
            )
        })
        .unzip();
    let run = |sites: &mut Vec<Worksite>, body: &dyn Fn(&mut Worksite)| {
        let mut site = sites.pop().expect("one site per call");
        body(&mut site);
        site
    };
    paired_rounds(
        rounds,
        1,
        |_| run(&mut fast_sites, &fast.1),
        |_| run(&mut reference_sites, &reference.1),
    )
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
    let duration = SimDuration::from_secs(sim_secs);
    let config = |enabled: bool| {
        let mut config = standard_config(SecurityPosture::secure());
        config.telemetry.enabled = enabled;
        config
    };
    // The recorder-free arm is the "fast" one: the ratio of medians is
    // then enabled / disabled.
    let times = paired_site_rounds(
        rounds as usize,
        (&config(false), |site| site.run(duration)),
        (&config(true), |site| site.run(duration)),
        seed,
    );
    let disabled_wall_s = median(&times.fast);
    let enabled_wall_s = median(&times.reference);
    let raw_overhead_frac = times.ratio_of_medians() - 1.0;
    let spread = times.fast.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - times.fast.iter().copied().fold(f64::INFINITY, f64::min);
    let noise_floor_frac = spread / 2.0 / disabled_wall_s.max(1e-9);

    // Episodes are deterministic: one more untimed enabled run records
    // exactly what every timed one did.
    let mut site = Worksite::new(&config(true), seed);
    site.run(duration);
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
    fn paired_rounds_alternate_the_arms_after_one_warm_up_pair() {
        let calls = std::cell::RefCell::new(Vec::new());
        let times = paired_rounds(
            3,
            4,
            |i| calls.borrow_mut().push(('f', i)),
            |i| calls.borrow_mut().push(('r', i)),
        );
        // 1 warm-up pair, then 3 rounds x 4 units, strictly alternating.
        let expected: Vec<_> = std::iter::once(0)
            .chain((0..3).flat_map(|_| 0..4))
            .flat_map(|i| [('f', i), ('r', i)])
            .collect();
        assert_eq!(calls.into_inner(), expected);
        // The warm-up pair is not a round.
        assert_eq!((times.fast.len(), times.reference.len()), (3, 3));
    }

    #[test]
    fn trajectory_appends_keep_earlier_runs_under_one_schema() {
        #[derive(Serialize)]
        struct Entry {
            value: usize,
        }
        let path = std::env::temp_dir().join(format!(
            "silvasec-trajectory-test-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        for (bin, value) in [("first", 1), ("second", 2)] {
            assert_eq!(
                append_trajectory_run_at(&path, bin, &Entry { value }),
                value
            );
        }
        let doc = serde_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            doc.get_field("schema"),
            &Value::String(TRAJECTORY_SCHEMA.into())
        );
        let runs = doc.get_field("runs").as_array().unwrap();
        assert_eq!(runs.len(), 2);
        for (run, (bin, value)) in runs.iter().zip([("first", 1), ("second", 2)]) {
            assert_eq!(run.get_field("bin"), &Value::String(bin.into()));
            assert!(
                matches!(run.get_field("value"), Value::Number(n) if n.as_u64() == Some(value))
            );
            for key in ["git_sha", "run_ts"] {
                assert!(
                    matches!(run.get_field(key), Value::String(_)),
                    "{key} missing"
                );
            }
            for key in ["cpu_model", "nproc", "rustc", "target_cpu"] {
                assert_ne!(
                    run.get_field("host").get_field(key),
                    &Value::Null,
                    "host.{key} missing"
                );
            }
        }
    }

    #[test]
    fn session_pair_works() {
        let (mut a, mut b) = session_pair(1);
        let rec = a.seal(b"x").unwrap();
        assert_eq!(b.open(&rec).unwrap(), b"x");
    }
}
