//! Metric catalogue, host descriptor, statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The benchmark's workloads. Later changes refer to them by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One secure worksite over an 8-sim-hour shift under attack.
    Shift,
    /// A pooled, seed-major Ag-ODD-style episode sweep.
    OddSweep,
    /// A full-fidelity fleet incident drill with ops and TARA on.
    FleetDrill,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Shift, Workload::OddSweep, Workload::FleetDrill];

    /// The workload's CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Shift => "shift",
            Workload::OddSweep => "odd-sweep",
            Workload::FleetDrill => "fleet-drill",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when `--seed` is not given.
    #[must_use]
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Shift => 7,
            Workload::OddSweep => 3,
            Workload::FleetDrill => 11,
        }
    }

    /// The seed kept out of tuning, for checking a claim on fresh inputs.
    #[must_use]
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::Shift => 1009,
            Workload::OddSweep => 2027,
            Workload::FleetDrill => 29,
        }
    }
}

/// One metric definition: name, unit and the workloads that exercise it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Workloads whose traced run measures it. Every other workload
    /// reports it as 0: the layer is not exercised there.
    pub workloads: &'static [Workload],
}

use Workload::{FleetDrill as D, OddSweep as O, Shift as S};

const fn m(name: &'static str, unit: &'static str, workloads: &'static [Workload]) -> MetricDef {
    MetricDef {
        name,
        unit,
        workloads,
    }
}

/// End-to-end metrics, measured with tracing off. Every workload
/// reports all of them.
pub const END_TO_END: [MetricDef; 5] = [
    m("sim_s_per_s", "sim_s/s", &[S, O, D]),
    m("episodes_per_s", "1/s", &[S, O, D]),
    m("drill_sites_per_s", "1/s", &[S, O, D]),
    m("setup_s", "s", &[S, O, D]),
    m("peak_rss_mib", "MiB", &[S, O, D]),
];

/// Per-layer metrics, from the traced run. Times are a mean per call
/// in microseconds unless the unit says otherwise.
pub const PER_LAYER: [MetricDef; 59] = [
    m("sos.tick_us", "us", &[S]),
    m("sos.tick_us.p50", "us", &[S]),
    m("sos.tick_us.p99", "us", &[S]),
    m("sos.tick_unattributed_us", "us", &[S]),
    m("sos.build_us", "us", &[S, O]),
    m("sos.reset_us", "us", &[O]),
    m("sos.episode_run_us", "us", &[O]),
    m("sim.world_step_us", "us", &[S]),
    m("sim.trees_near_count_us", "us", &[S]),
    m("sim.trees_counted", "count", &[S]),
    m("sim.trees_count_useful_frac", "ratio", &[S]),
    m("sim.worldgen_us", "us", &[S, O]),
    m("machines.detect_us", "us", &[S]),
    m("machines.detections", "count", &[S]),
    m("machines.feed_codec_us", "us", &[S]),
    m("machines.feed_bytes", "count", &[S]),
    m("machines.fuse_us", "us", &[S]),
    m("machines.supervisor_us", "us", &[S]),
    m("machines.forwarder_step_us", "us", &[S]),
    m("comms.deliver_us", "us", &[S]),
    m("comms.deliveries", "count", &[S]),
    m("comms.delivered_frac", "ratio", &[S]),
    m("channel.seal_us", "us", &[S]),
    m("channel.open_us", "us", &[S]),
    m("channel.records", "count", &[S]),
    m("channel.handshake_us", "us", &[S, O]),
    m("ids.observe_us", "us", &[S]),
    m("ids.alerts", "count", &[S]),
    m("attacks.step_us", "us", &[S]),
    m("pki.template_build_us", "us", &[S, O]),
    m("pki.templates_built", "count", &[S, O]),
    m("pki.validate_chain_us", "us", &[S, O]),
    m("crypto.sign_us", "us", &[S, O]),
    m("crypto.verify_us", "us", &[S, O]),
    m("secure-boot.verify_us", "us", &[S, O]),
    m("telemetry.export_us", "us", &[S, O, D]),
    m("telemetry.events", "count", &[S, O, D]),
    m("telemetry.drop_frac", "ratio", &[S, O, D]),
    m("fleet.build_us", "us", &[D]),
    m("fleet.tick_us.p50", "us", &[D]),
    m("fleet.tick_us.p99", "us", &[D]),
    m("fleet.rollout_us", "us", &[D]),
    m("fleet.remediation_us", "us", &[D]),
    m("fleet.remediation_rollouts", "count", &[D]),
    m("fleet.bundle_verify_us", "us", &[D]),
    m("fleet.siem_campaigns", "count", &[D]),
    m("fleet.siem_window_drops", "count", &[D]),
    m("ops.runs_opened", "count", &[D]),
    m("ops.leases", "count", &[D]),
    m("ops.redelivered", "count", &[D]),
    m("ops.lease_expired", "count", &[D]),
    m("ops.dead_lettered", "count", &[D]),
    m("ops.acked_per_lease", "ratio", &[D]),
    m("ops.review_us", "us", &[D]),
    m("tara.enumerate_us", "us", &[D]),
    m("tara.scenarios", "count", &[D]),
    m("tara.confirmed", "count", &[D]),
    m("tara.retired", "count", &[D]),
    m("trace_overhead_frac", "ratio", &[S, O, D]),
];

/// The measured outcome of one run, before it is printed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted (ticks, episodes or ops runs).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Measured metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form evidence for the report line: digests, check results,
    /// per-repetition figures, span self times.
    pub report: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// An outcome with no checks failed yet.
    #[must_use]
    pub fn passing() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records a check; a failed check clears `correct`.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.report.insert(name, ok.to_string());
        if !ok {
            self.correct = false;
        }
    }

    /// Applies the rule that a failed check fails every operation.
    pub fn settle(&mut self) {
        if !self.correct {
            self.failed = self.attempted;
        }
    }
}

/// Host seconds of each of `n` calls of `build`; what it builds is
/// dropped outside the timing.
pub fn time_builds<T>(n: usize, mut build: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = std::time::Instant::now();
            let built = build();
            let s = t.elapsed().as_secs_f64();
            drop(built);
            s
        })
        .collect()
}

/// Median of `values` (panics on an empty slice).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (panics on an empty slice).
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a (64-bit), the digest every workload folds its output into.
#[must_use]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite, got {v}");
    format!("{v}")
}

/// The host the numbers were measured on.
#[must_use]
pub fn host_descriptor() -> BTreeMap<&'static str, String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    // `GIT_DIR` keeps git from searching parent directories when the
    // checkout is not a repository.
    let git_sha = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    BTreeMap::from([
        ("cpu_model", cpu),
        ("nproc", nproc.to_string()),
        ("rustc", env!("SILVABENCH_RUSTC").to_string()),
        ("target_cpu", env!("SILVABENCH_TARGET_CPU").to_string()),
        ("git_sha", git_sha),
    ])
}

/// The report line: workload, seed, host descriptor and evidence.
#[must_use]
pub fn report_line(workload: Workload, seed: u64, trace: bool, outcome: &Outcome) -> String {
    let mut out = String::from("{\"report\": {");
    let _ = write!(
        out,
        "\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"host\": {{",
        json_str(workload.name())
    );
    let host: Vec<String> = host_descriptor()
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    out.push_str(&host.join(", "));
    out.push('}');
    let _ = write!(
        out,
        ", \"default_seed\": {}, \"held_out_seed\": {}",
        workload.default_seed(),
        workload.held_out_seed()
    );
    if trace {
        let idle: Vec<&str> = PER_LAYER
            .iter()
            .filter(|d| !d.workloads.contains(&workload))
            .map(|d| d.name)
            .collect();
        let _ = write!(
            out,
            ", \"not_exercised_read_0\": {}",
            json_str(&idle.join(","))
        );
    }
    for (k, v) in &outcome.report {
        let _ = write!(out, ", {}: {}", json_str(k), json_str(v));
    }
    out.push_str("}}");
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with every metric of `defs` (a metric the run did not
/// measure reads 0).
#[must_use]
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = outcome.metrics.get(d.name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(d.name),
                json_num(v),
                json_str(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entries of one top-level array of `BENCHMARK.json`, each as
    /// the `(name, unit)` it lists (`unit` empty when it has none).
    fn entries(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section} missing"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |entry: &str, key: &str| {
            entry
                .find(&format!("\"{key}\""))
                .map_or_else(String::new, |at| {
                    let rest = &entry[at + key.len() + 2..];
                    let rest = &rest[rest.find('"').expect("value opens") + 1..];
                    rest[..rest.find('"').expect("value closes")].to_string()
                })
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_metric_is_valid_and_listed_in_benchmark_json() {
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = entries(section);
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{section} differs from BENCHMARK.json");
            for d in defs {
                assert!(valid_name(d.name), "bad metric name {}", d.name);
                assert!(valid_unit(d.unit), "bad unit {}", d.unit);
            }
        }
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names used once"
        );
        let workloads: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
