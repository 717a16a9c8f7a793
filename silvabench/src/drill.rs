//! `fleet-drill`: a full-fidelity fleet incident drill.
//!
//! `fleet_config(N)` with ops and TARA on, seeded with the
//! update-tampering disclosure and a fleet deauth flood (t = 5 s for
//! 60 s). The fleet free-runs 90 s, then the operator loop of the ops
//! incident test (approve reviews, run remediations, advance 10 s) runs
//! until the ops engine is idle. This is the workload of the fleet, ops,
//! TARA and OTA layers, which the shift and the sweep never touch.

use crate::report::{fnv1a, median, Outcome, FNV_BASIS};
use crate::trace::Tracer;
use silvasec::attacks::AttackKind;
use silvasec::experiments::{campaign_for, fleet_config, ops_config, tara_config};
use silvasec::fleet::{Fleet, FleetConfig, FLEET_COMPONENT};
use silvasec::ops::{GateDecision, RunStore};
use silvasec::risk::catalog::worksite_model;
use silvasec::sim::time::{SimDuration, SimTime};
use silvasec::tara::{ScenarioSpace, TaraCatalog};
use std::time::Instant;

/// Full-fidelity sites.
const SITES: usize = 8;

/// Fleet builds timed on their own, so that `setup_s` is a median of
/// several samples.
const EXTRA_BUILDS: usize = 8;

/// Operator rounds after which a drill that is not idle fails.
const MAX_ROUNDS: usize = 200;

fn config() -> FleetConfig {
    let mut c = fleet_config(SITES);
    c.ops = Some(ops_config());
    c.tara = Some(tara_config());
    c
}

/// What one drill produced.
struct DrillRun {
    /// Host seconds from the first fleet tick until the engine is idle.
    drill_s: f64,
    /// Simulated seconds the fleet advanced.
    sim_s: f64,
    /// Ops runs opened.
    opened: u64,
    /// Ops runs dead-lettered.
    dead_lettered: u64,
    /// Ops runs closed.
    closed: u64,
    /// Digest of the run store and the fleet trace.
    digest: u64,
    /// Whether the drill went idle, the queue conserves and the trace
    /// replays to the store.
    ok: bool,
}

fn advance(fleet: &mut Fleet, tracer: &mut Tracer, duration: SimDuration) {
    let end = fleet.now() + duration;
    while fleet.now() < end {
        tracer.span("fleet.tick", || fleet.tick());
    }
}

/// Runs the drill on a commissioned fleet; every public `Fleet` call is
/// a span when `tracer` is enabled.
fn drill(fleet: &mut Fleet, tracer: &mut Tracer) -> DrillRun {
    fleet.disclose_vulnerability("update-tampering");
    fleet.schedule_fleet_attack(campaign_for(
        AttackKind::DeauthFlood,
        SimTime::from_secs(5),
        SimDuration::from_secs(60),
    ));
    let t = Instant::now();
    advance(fleet, tracer, SimDuration::from_secs(90));
    let mut idle = false;
    for _ in 0..MAX_ROUNDS {
        for run in fleet.ops_pending_reviews() {
            tracer.span("ops.review", || {
                fleet.ops_review(run, GateDecision::Approve)
            });
        }
        if fleet.ops_pending_remediations() > 0 {
            let reports = tracer.span("fleet.remediation", || fleet.run_ops_remediations());
            tracer.add("fleet.remediation_rollouts", reports.len() as f64);
        }
        if fleet.ops().expect("ops enabled").idle() {
            idle = true;
            break;
        }
        advance(fleet, tracer, SimDuration::from_secs(10));
    }
    let drill_s = t.elapsed().as_secs_f64();

    let trace = tracer.span("telemetry.export", || fleet.export_trace_jsonl());
    let engine = fleet.ops().expect("ops enabled");
    let store = engine.store();
    let replays = RunStore::replay_from_jsonl(&trace).is_ok_and(|r| r.digest() == store.digest());
    let counters = store.counters();
    let digest = fnv1a(fnv1a(FNV_BASIS, &store.digest()), trace.as_bytes());
    DrillRun {
        drill_s,
        sim_s: fleet.now().as_secs_f64(),
        opened: counters.opened,
        dead_lettered: counters.dead_lettered,
        closed: counters.closed,
        digest,
        ok: idle && engine.queue_conserves() && replays,
    }
}

fn build(seed: u64) -> (Fleet, f64) {
    let cfg = config();
    let t = Instant::now();
    let fleet = Fleet::new(cfg, seed);
    (fleet, t.elapsed().as_secs_f64())
}

/// Records a drill's operations and checks into `out`. Dead-lettered
/// ops runs count as failed operations.
fn account(out: &mut Outcome, run: &DrillRun) {
    out.attempted += run.opened;
    out.failed += run.dead_lettered;
    out.check("drill_idle_conserved_replayed", run.ok);
}

/// The untraced run: whole drills until `seconds` have passed.
#[must_use]
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::passing();
    let mut setups: Vec<f64> = (0..EXTRA_BUILDS).map(|_| build(seed).1).collect();
    let mut tracer = Tracer::disabled();
    let start = Instant::now();
    let (mut drill_s, mut episode_s, mut site_sim_rate, mut digests) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while digests.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (mut fleet, setup) = build(seed);
        let r = drill(&mut fleet, &mut tracer);
        account(&mut out, &r);
        setups.push(setup);
        drill_s.push(r.drill_s);
        episode_s.push(setup + r.drill_s);
        site_sim_rate.push(SITES as f64 * r.sim_s / r.drill_s);
        digests.push(r.digest);
        out.report.insert("runs_opened", r.opened.to_string());
        out.report
            .insert("runs_dead_lettered", r.dead_lettered.to_string());
        out.report.insert("runs_closed", r.closed.to_string());
    }
    out.check("drills_agree", digests.iter().all(|d| *d == digests[0]));
    out.report.insert("digest", format!("{:016x}", digests[0]));
    out.report.insert("drills", digests.len().to_string());
    out.report.insert("drill_s", format!("{drill_s:?}"));
    let sites = SITES as f64;
    out.metrics.insert("sim_s_per_s", median(&site_sim_rate));
    out.metrics
        .insert("episodes_per_s", sites / median(&episode_s));
    out.metrics
        .insert("drill_sites_per_s", sites / median(&drill_s));
    out.metrics.insert("setup_s", median(&setups));
    out.settle();
    out
}

/// The traced run: untraced and traced drills in pairs until `seconds`
/// have passed.
#[must_use]
pub fn run_traced(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::passing();
    tracer.keep_durations("fleet.tick");
    let start = Instant::now();
    let (mut plain, mut traced, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bundles_ok, mut rollouts_ok) = (true, true);
    while plain.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (mut fleet, _) = build(seed);
        let r = drill(&mut fleet, &mut Tracer::disabled());
        account(&mut out, &r);
        plain.push(r.drill_s);
        digests.push(r.digest);

        let cfg = config();
        let mut fleet = tracer.span("fleet.build", || Fleet::new(cfg, seed));
        let r = drill(&mut fleet, tracer);
        tracer.end_repetition();
        account(&mut out, &r);
        traced.push(r.drill_s);
        digests.push(r.digest);

        // Counts read from the fleet once the drill is over.
        let q = fleet.ops().expect("ops enabled").queue_counters();
        let opened = fleet.ops().expect("ops enabled").store().counters().opened;
        let snap = fleet.security_snapshot();
        // Hypotheses confirmed or retired at any point of the drill; a
        // confirmed one that the remediation retires counts in both.
        let hypotheses = fleet.tara().expect("tara enabled").hypotheses();
        let confirmed = hypotheses
            .iter()
            .filter(|h| h.confirmed_at_ms.is_some())
            .count();
        let retired = hypotheses
            .iter()
            .filter(|h| h.retired_at_ms.is_some())
            .count();
        for (name, v) in [
            ("ops.runs_opened", opened),
            ("ops.leases", q.leased),
            ("ops.redelivered", q.redelivered),
            ("ops.lease_expired", q.lease_expired),
            ("ops.dead_lettered", q.dead_lettered),
            ("ops.acked", q.acked),
            ("fleet.siem_campaigns", snap.siem_campaigns as u64),
            ("fleet.siem_window_drops", snap.siem_window_drops),
            ("telemetry.events", snap.trace_pushed),
            ("telemetry.dropped", snap.trace_ring_dropped),
            ("tara.confirmed", confirmed as u64),
            ("tara.retired", retired as u64),
        ] {
            tracer.add(name, v as f64);
        }

        // Every published bundle verifies against the fleet trust store,
        // as the version it succeeds.
        let now_ms = fleet.now().as_millis();
        let backend = fleet.backend();
        for bundle in backend.published() {
            let installed = bundle.manifest.version.saturating_sub(1);
            bundles_ok &= tracer.span("fleet.bundle_verify", || {
                bundle
                    .verify(backend.trust_store(), now_ms, FLEET_COMPONENT, installed)
                    .is_ok()
            });
        }

        // The fleet's TARA enumeration, timed on its own.
        let tc = tara_config();
        let catalog = TaraCatalog::from_model(&worksite_model());
        let space = ScenarioSpace::new(&catalog, seed, tc.variants, tc.top_k);
        let report = tracer.span("tara.enumerate", || space.enumerate());
        tracer.add("tara.scenarios", report.distinct as f64);

        // One fleet rollout of the next version, timed on its own on the
        // finished fleet: in the drill, `run_rollout` runs only inside
        // `run_ops_remediations`, whose span also covers the ops run's
        // completion and verification.
        let version = fleet
            .backend()
            .published()
            .iter()
            .map(|b| b.manifest.version)
            .max()
            .unwrap_or(0)
            + 1;
        let rollout = tracer.span("fleet.rollout", || fleet.run_rollout(version));
        rollouts_ok &= rollout.completed;
    }
    out.check("bundles_verify", bundles_ok);
    out.check("rollout_completes", rollouts_ok);
    out.check(
        "traced_equals_untraced",
        digests.iter().all(|d| *d == digests[0]),
    );
    out.report.insert("digest", format!("{:016x}", digests[0]));

    let reps = traced.len() as f64;
    let stats = tracer.stats();
    let mean = |name: &str| {
        stats
            .get(name)
            .map_or(0.0, crate::trace::SpanStats::mean_us)
    };
    let count = |name: &str| tracer.count(name) / reps;
    let ticks = stats
        .get("fleet.tick")
        .map_or(&[][..], |s| &s.durations_us[..]);
    let m = &mut out.metrics;
    m.insert("fleet.build_us", mean("fleet.build"));
    m.insert("fleet.tick_us.p50", median(ticks));
    m.insert("fleet.tick_us.p99", crate::report::percentile(ticks, 99.0));
    m.insert("fleet.rollout_us", mean("fleet.rollout"));
    m.insert("fleet.remediation_us", mean("fleet.remediation"));
    m.insert("fleet.bundle_verify_us", mean("fleet.bundle_verify"));
    m.insert("ops.review_us", mean("ops.review"));
    m.insert("tara.enumerate_us", mean("tara.enumerate"));
    m.insert("telemetry.export_us", mean("telemetry.export"));
    for name in [
        "fleet.remediation_rollouts",
        "fleet.siem_campaigns",
        "fleet.siem_window_drops",
        "ops.runs_opened",
        "ops.leases",
        "ops.redelivered",
        "ops.lease_expired",
        "ops.dead_lettered",
        "tara.scenarios",
        "tara.confirmed",
        "tara.retired",
        "telemetry.events",
    ] {
        m.insert(name, count(name));
    }
    m.insert(
        "ops.acked_per_lease",
        count("ops.acked") / count("ops.leases").max(1.0),
    );
    m.insert(
        "telemetry.drop_frac",
        count("telemetry.dropped") / count("telemetry.events").max(1.0),
    );
    m.insert(
        "trace_overhead_frac",
        median(&traced) / median(&plain) - 1.0,
    );
    out.settle();
    out
}
