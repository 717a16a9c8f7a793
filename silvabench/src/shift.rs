//! `shift`: one `standard_config` secure worksite over an 8-sim-hour
//! shift (57 600 ticks) under an hourly schedule of 120 s campaigns.
//!
//! The tick-heavy workload: set-up is under 1% of the run, so the IDS,
//! radio medium, drone feed, perception and AEAD carry the time.

use crate::probe::Probe;
use crate::report::{fnv1a, median, time_builds, Outcome, FNV_BASIS};
use crate::trace::Tracer;
use silvasec::attacks::{AttackCampaign, AttackKind};
use silvasec::experiments::{campaign_for, standard_config};
use silvasec::sim::time::{SimDuration, SimTime};
use silvasec::sos::{SecurityPosture, Worksite, WorksiteConfig};
use std::time::{Duration, Instant};

/// Campaigns of each sim-hour, in schedule order.
const HOURLY: [AttackKind; 6] = [
    AttackKind::RfJamming,
    AttackKind::DeauthFlood,
    AttackKind::Replay,
    AttackKind::GnssSpoofing,
    AttackKind::CameraBlinding,
    AttackKind::RogueNode,
];

/// Sim-hours per shift.
const HOURS: u64 = 8;

/// Worksite builds timed on their own before the shifts, so that
/// `setup_s` is a median of several samples.
const EXTRA_BUILDS: usize = 32;

fn config() -> WorksiteConfig {
    standard_config(SecurityPosture::secure())
}

/// The shift's campaign schedule: in every sim-hour, each [`HOURLY`]
/// kind runs for 120 s, starting 300 s into the hour and 540 s apart.
#[must_use]
pub fn campaigns() -> Vec<AttackCampaign> {
    (0..HOURS)
        .flat_map(|h| {
            HOURLY.iter().zip(0u64..).map(move |(&kind, k)| {
                campaign_for(
                    kind,
                    SimTime::from_secs(h * 3600 + 300 + k * 540),
                    SimDuration::from_secs(120),
                )
            })
        })
        .collect()
}

/// Digest of a worksite's simulated output: its security trace and the
/// scalar metrics.
#[must_use]
pub fn digest(site: &Worksite) -> u64 {
    let m = site.metrics();
    let mut h = fnv1a(FNV_BASIS, site.export_security_jsonl().as_bytes());
    for v in [
        m.ticks,
        m.messages_sent,
        m.messages_delivered,
        m.drone_feed_sent,
        m.drone_feed_delivered,
        m.forged_accepted,
        m.auth_failures,
        m.loads_delivered,
        m.stopped_ticks,
        m.stop_events,
        m.security_stops,
        m.danger_zone_ticks,
        m.moving_danger_ticks,
        m.alerts.values().sum(),
        m.distance_m.to_bits(),
    ] {
        h = fnv1a(h, &v.to_le_bytes());
    }
    h
}

/// Adds the site's security-ring accounting to the telemetry counts.
pub fn count_security_ring(tracer: &mut Tracer, site: &Worksite) {
    if let Some(s) = site
        .recorder()
        .stats()
        .iter()
        .find(|s| s.name == "security")
    {
        tracer.add("telemetry.events", s.pushed as f64);
        tracer.add("telemetry.dropped", s.dropped as f64);
    }
}

fn build(seed: u64, campaigns: &[AttackCampaign]) -> (Worksite, Duration) {
    let cfg = config();
    let t = Instant::now();
    let mut site = Worksite::new(&cfg, seed);
    let setup = t.elapsed();
    for c in campaigns {
        site.attack_engine_mut().add_campaign(c.clone());
    }
    (site, setup)
}

/// One untraced shift: returns the site, its build time and the host
/// time of each sim-hour.
pub fn run_untraced(seed: u64, campaigns: &[AttackCampaign]) -> (Worksite, f64, Vec<f64>) {
    let (mut site, setup) = build(seed, campaigns);
    let hours = (0..HOURS)
        .map(|_| {
            let t = Instant::now();
            site.run(SimDuration::from_secs(3600));
            t.elapsed().as_secs_f64()
        })
        .collect();
    (site, setup.as_secs_f64(), hours)
}

fn ticks_per_shift() -> u64 {
    let tick_ms = config().tick.as_millis();
    HOURS * 3_600_000 / tick_ms
}

/// The untraced run: whole shifts until `seconds` have passed.
#[must_use]
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::passing();
    let campaigns = campaigns();
    let cfg = config();
    let mut setups = time_builds(EXTRA_BUILDS, || Worksite::new(&cfg, seed));
    let start = Instant::now();
    let (mut hour_s, mut shift_s, mut episode_s, mut digests) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while digests.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (site, setup, hours) = run_untraced(seed, &campaigns);
        let run: f64 = hours.iter().sum();
        out.attempted += site.metrics().ticks;
        out.check("ticks_per_shift", site.metrics().ticks == ticks_per_shift());
        setups.push(setup);
        shift_s.push(run);
        episode_s.push(setup + run);
        hour_s.extend(hours);
        digests.push(digest(&site));
    }
    out.check("shifts_agree", digests.iter().all(|d| *d == digests[0]));
    out.report.insert("digest", format!("{:016x}", digests[0]));
    out.report.insert("shifts", digests.len().to_string());
    out.report.insert("shift_s", format!("{shift_s:?}"));
    out.metrics.insert("sim_s_per_s", 3600.0 / median(&hour_s));
    out.metrics
        .insert("episodes_per_s", 1.0 / median(&episode_s));
    out.metrics
        .insert("drill_sites_per_s", 1.0 / median(&shift_s));
    out.metrics.insert("setup_s", median(&setups));
    out.settle();
    out
}

/// What one traced shift produced.
pub struct TracedShift {
    /// Digest of the live worksite's output.
    pub digest: u64,
    /// Whether the probe held lockstep, commissioned and delivered like
    /// the live worksite.
    pub probe_ok: bool,
    /// The probe's and the live delivered shares of the uplink and the
    /// drone feed.
    pub delivered: [(f64, f64); 2],
    /// Summed host time of the live ticks, seconds.
    pub live_s: f64,
}

/// One traced shift, with the layer probe in lockstep.
pub fn run_traced_once(
    tracer: &mut Tracer,
    seed: u64,
    campaigns: &[AttackCampaign],
) -> TracedShift {
    let cfg = config();
    let mut site = tracer.span("sos.build", || Worksite::new(&cfg, seed));
    for c in campaigns {
        site.attack_engine_mut().add_campaign(c.clone());
    }
    let mut probe = Probe::new(tracer, &cfg, seed, campaigns);
    let mut live_s = 0.0;
    for _ in 0..ticks_per_shift() {
        let t = Instant::now();
        tracer.span("sos.tick", || site.tick());
        live_s += t.elapsed().as_secs_f64();
        probe.step(tracer, &site);
    }
    let digest = tracer.span("telemetry.export", || digest(&site));
    count_security_ring(tracer, &site);
    TracedShift {
        digest,
        probe_ok: probe.lockstep && probe.commissioned && probe.delivery_matches(&site),
        delivered: probe.delivered_shares(&site),
        live_s,
    }
}

/// The traced run: untraced and traced shifts in pairs until `seconds`
/// have passed; counts are per shift, times a mean over every traced
/// shift.
#[must_use]
pub fn run_traced(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::passing();
    tracer.keep_durations("sos.tick");
    let campaigns = campaigns();
    let start = Instant::now();
    let (mut plain, mut traced, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    while plain.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (site, _, hours) = run_untraced(seed, &campaigns);
        plain.push(hours.iter().sum::<f64>());
        digests.push(digest(&site));
        out.attempted += site.metrics().ticks;
        let t = run_traced_once(tracer, seed, &campaigns);
        tracer.end_repetition();
        out.check("probe_lockstep", t.probe_ok);
        let [(probe_up, live_up), (probe_feed, live_feed)] = t.delivered;
        out.report.insert(
            "delivered_probe_vs_live",
            format!("uplink {probe_up:.4}/{live_up:.4}, feed {probe_feed:.4}/{live_feed:.4}"),
        );
        traced.push(t.live_s);
        digests.push(t.digest);
        out.attempted += ticks_per_shift();
    }
    out.check(
        "traced_equals_untraced",
        digests.iter().all(|d| *d == digests[0]),
    );
    out.report.insert("digest", format!("{:016x}", digests[0]));

    let stats = tracer.stats();
    let mean = |name: &str| {
        stats
            .get(name)
            .map_or(0.0, crate::trace::SpanStats::mean_us)
    };
    let tick = &stats["sos.tick"];
    let probe = &stats["probe.tick"];
    let attributed = (probe.total_us - probe.self_us) / probe.calls as f64;
    let reps = traced.len() as f64;
    let count = |name: &str| tracer.count(name);
    let per_shift = |name: &str| count(name) / reps;
    let per_tick = |name: &str| count(name) / tick.calls as f64;
    let m = &mut out.metrics;
    m.insert("sos.tick_us", tick.mean_us());
    m.insert("sos.tick_us.p50", median(&tick.durations_us));
    m.insert(
        "sos.tick_us.p99",
        crate::report::percentile(&tick.durations_us, 99.0),
    );
    m.insert("sos.tick_unattributed_us", tick.mean_us() - attributed);
    m.insert("sos.build_us", mean("sos.build"));
    m.insert("sim.world_step_us", mean("sim.world_step"));
    m.insert("sim.trees_near_count_us", mean("sim.trees_near_count"));
    m.insert("sim.trees_counted", per_tick("sim.trees_counted"));
    m.insert(
        "sim.trees_count_useful_frac",
        count("sim.trees_used") / count("sim.trees_counted").max(1.0),
    );
    m.insert("sim.worldgen_us", mean("sim.worldgen"));
    m.insert("machines.detect_us", mean("machines.detect"));
    m.insert("machines.detections", per_tick("machines.detections"));
    m.insert(
        "machines.feed_codec_us",
        mean("machines.feed_encode") + mean("machines.feed_decode"),
    );
    m.insert("machines.feed_bytes", per_tick("machines.feed_bytes"));
    m.insert("machines.fuse_us", mean("machines.fuse"));
    m.insert("machines.supervisor_us", mean("machines.supervisor"));
    m.insert(
        "machines.forwarder_step_us",
        mean("machines.forwarder_step"),
    );
    m.insert("comms.deliver_us", mean("comms.deliver"));
    m.insert("comms.deliveries", per_tick("comms.deliveries"));
    m.insert(
        "comms.delivered_frac",
        count("comms.delivered") / count("comms.deliveries").max(1.0),
    );
    m.insert("channel.seal_us", mean("channel.seal"));
    m.insert("channel.open_us", mean("channel.open"));
    m.insert("channel.records", per_tick("channel.records"));
    m.insert("channel.handshake_us", mean("channel.handshake"));
    m.insert("ids.observe_us", mean("ids.observe"));
    m.insert("ids.alerts", per_shift("ids.alerts"));
    m.insert("attacks.step_us", mean("attacks.step"));
    m.insert("pki.template_build_us", mean("pki.template_build"));
    m.insert("pki.templates_built", per_shift("pki.templates_built"));
    m.insert("pki.validate_chain_us", mean("pki.validate_chain"));
    m.insert("crypto.sign_us", mean("crypto.sign"));
    m.insert("crypto.verify_us", mean("crypto.verify"));
    m.insert("secure-boot.verify_us", mean("secure-boot.verify"));
    m.insert("telemetry.export_us", mean("telemetry.export"));
    m.insert("telemetry.events", per_shift("telemetry.events"));
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
