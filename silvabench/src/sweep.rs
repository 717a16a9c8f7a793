//! `odd-sweep`: a pooled, seed-major Ag-ODD-style episode sweep.
//!
//! N world seeds × {secure, insecure} × 8 campaign choices (none plus
//! seven attack kinds) × 10 sim-s of `compact_config` episodes, on one
//! single-threaded `EpisodeRunner`. The set-up-heavy workload: each new
//! seed builds a PKI template, every episode resets the pooled worksite.
//! Half the episodes are insecure, so channel, crypto and IDS are
//! bypassed there while reset and world generation are not.

use crate::probe::commissioning_probe;
use crate::report::{fnv1a, median, time_builds, Outcome, FNV_BASIS};
use crate::trace::Tracer;
use silvasec::attacks::AttackKind;
use silvasec::experiments::{
    run_episode_naive, trace_digest, EpisodeOutcome, EpisodeRunner, EpisodeSpec,
};
use silvasec::sim::rng::SimRng;
use silvasec::sim::time::SimDuration;
use silvasec::sim::world::World;
use silvasec::sos::{SecurityPosture, SitePkiTemplate, Worksite};
use std::rc::Rc;
use std::time::Instant;

/// The campaign choices of every (seed, posture) cell.
const CAMPAIGNS: [Option<AttackKind>; 8] = [
    None,
    Some(AttackKind::RfJamming),
    Some(AttackKind::DeauthFlood),
    Some(AttackKind::GnssSpoofing),
    Some(AttackKind::GnssJamming),
    Some(AttackKind::CameraBlinding),
    Some(AttackKind::Replay),
    Some(AttackKind::RogueNode),
];

/// Episode length.
const EPISODE_S: u64 = 10;

/// World seeds per sweep: 768 episodes.
const SEEDS: usize = 48;

/// Specs re-run through the fresh-build oracle after timing.
const WITNESSES: usize = 8;

/// Cold builds timed on their own, so that `setup_s` is a median of
/// several samples.
const EXTRA_BUILDS: usize = 32;

/// The sweep's episodes in seed-major order; world seeds derive from
/// `seed`.
#[must_use]
pub fn specs(seed: u64) -> Vec<EpisodeSpec> {
    let mut rng = SimRng::from_seed(seed).fork("odd-sweep");
    let mut out = Vec::with_capacity(SEEDS * 2 * CAMPAIGNS.len());
    for _ in 0..SEEDS {
        let world_seed = rng.next_u64();
        for posture in [SecurityPosture::secure(), SecurityPosture::insecure()] {
            for attack in CAMPAIGNS {
                out.push(EpisodeSpec::compact(
                    posture,
                    attack,
                    world_seed,
                    SimDuration::from_secs(EPISODE_S),
                ));
            }
        }
    }
    out
}

/// Digest of a sweep's outcomes.
#[must_use]
pub fn digest(outcomes: &[EpisodeOutcome]) -> u64 {
    outcomes.iter().fold(FNV_BASIS, |h, o| {
        [
            o.seed,
            o.ticks,
            o.messages_delivered,
            o.distance_m.to_bits(),
            o.danger_zone_ticks,
            o.forged_accepted,
            o.alerts,
            o.trace_digest,
        ]
        .iter()
        .fold(h, |h, v| fnv1a(h, &v.to_le_bytes()))
    })
}

fn outcome(site: &Worksite, seed: u64) -> EpisodeOutcome {
    let m = site.metrics();
    EpisodeOutcome {
        seed,
        ticks: m.ticks,
        messages_delivered: m.messages_delivered,
        distance_m: m.distance_m,
        danger_zone_ticks: m.danger_zone_ticks,
        forged_accepted: m.forged_accepted,
        alerts: m.alerts.values().sum(),
        trace_digest: trace_digest(&site.export_security_jsonl()),
    }
}

fn ticks_per_episode(spec: &EpisodeSpec) -> u64 {
    EPISODE_S * 1000 / spec.config.tick.as_millis()
}

/// Times whole sweeps until `seconds` have passed, calling `between`
/// after each (the traced run puts its traced sweep there), and checks
/// that every sweep agrees. Returns the outcomes of the last sweep.
fn sweeps_until(
    specs: &[EpisodeSpec],
    seconds: f64,
    out: &mut Outcome,
    sweep_s: &mut Vec<f64>,
    mut between: impl FnMut(&mut Outcome),
) -> Vec<EpisodeOutcome> {
    let start = Instant::now();
    let mut digests = Vec::new();
    let mut last = Vec::new();
    while digests.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        last = EpisodeRunner::with_workers(1).run(specs);
        sweep_s.push(t.elapsed().as_secs_f64());
        out.attempted += last.len() as u64;
        digests.push(digest(&last));
        between(out);
    }
    let ticks_ok = specs
        .iter()
        .zip(&last)
        .all(|(s, o)| o.ticks == ticks_per_episode(s));
    out.check("episode_ticks", ticks_ok);
    out.check("sweeps_agree", digests.iter().all(|d| *d == digests[0]));
    out.report.insert("digest", format!("{:016x}", digests[0]));
    out.report.insert("sweeps", digests.len().to_string());
    last
}

/// The untimed pooled==fresh witness: [`WITNESSES`] specs spread over
/// the sweep are re-run from nothing through the frozen oracle.
fn witness(specs: &[EpisodeSpec], outcomes: &[EpisodeOutcome], out: &mut Outcome) {
    let n = WITNESSES;
    // Evenly spread picks, each shifted by its index so that they land
    // on different campaign choices.
    let ok = (0..n)
        .map(|i| (i * specs.len() / n + i) % specs.len())
        .all(|i| run_episode_naive(&specs[i]) == outcomes[i]);
    out.check("pooled_equals_fresh", ok);
}

/// The untraced run: whole sweeps until `seconds` have passed.
#[must_use]
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::passing();
    let specs = specs(seed);
    let setups = time_builds(EXTRA_BUILDS, || {
        Worksite::new(&specs[0].config, specs[0].seed)
    });
    let mut sweep_s = Vec::new();
    let last = sweeps_until(&specs, seconds, &mut out, &mut sweep_s, |_| {});
    witness(&specs, &last, &mut out);
    let episodes = specs.len() as f64;
    let sweep_median = median(&sweep_s);
    out.report.insert("episodes", specs.len().to_string());
    out.metrics
        .insert("sim_s_per_s", episodes * EPISODE_S as f64 / sweep_median);
    out.metrics
        .insert("episodes_per_s", episodes / sweep_median);
    out.metrics
        .insert("drill_sites_per_s", episodes / sweep_median);
    out.metrics.insert("setup_s", median(&setups));
    out.settle();
    out
}

/// One traced sweep: every pooled episode split into template build
/// (installed with `set_pki_template`), reset, run and export. Between
/// reset and run, outside the timed parts, a world-generation probe
/// regenerates its own world for the episode and checks the workers
/// against the reset worksite; each new template also gets the
/// commissioning probe. Returns the outcomes and the summed host time
/// of the timed parts.
fn traced_sweep(
    tracer: &mut Tracer,
    specs: &[EpisodeSpec],
    ok: &mut bool,
) -> (Vec<EpisodeOutcome>, f64) {
    let mut slot: Option<Worksite> = None;
    let mut probe_world: Option<World> = None;
    let mut outcomes = Vec::with_capacity(specs.len());
    let mut episode_s = 0.0;
    for spec in specs {
        let secure = spec.config.security.secure_channel;
        let drone = spec.config.drone_enabled;
        let t = Instant::now();
        let mut new_template = None;
        let site = match &mut slot {
            Some(site) => {
                if secure
                    && !site
                        .pki_template()
                        .is_some_and(|t| t.matches(spec.seed, drone))
                {
                    let template = tracer.span("pki.template_build", || {
                        Rc::new(SitePkiTemplate::build(spec.seed, drone))
                    });
                    tracer.add("pki.templates_built", 1.0);
                    site.set_pki_template(Rc::clone(&template));
                    new_template = Some(template);
                }
                tracer.span("sos.reset", || {
                    site.reset_for_episode(&spec.config, spec.seed)
                });
                site
            }
            None => {
                slot.insert(tracer.span("sos.build", || Worksite::new(&spec.config, spec.seed)))
            }
        };
        episode_s += t.elapsed().as_secs_f64();

        if let Some(template) = new_template {
            let mut rng = SimRng::from_seed(spec.seed).fork("commissioning-probe");
            *ok &= commissioning_probe(tracer, &template, &mut rng);
        }
        let world_rng = SimRng::from_seed(spec.seed).fork("world");
        let world = match &mut probe_world {
            Some(w) => {
                tracer.span("sim.worldgen", || {
                    w.regenerate(&spec.config.world, &world_rng)
                });
                w
            }
            None => probe_world.insert(World::generate(&spec.config.world, world_rng)),
        };
        *ok &= world.humans().len() == site.world().humans().len()
            && world
                .humans()
                .iter()
                .zip(site.world().humans())
                .all(|(a, b)| a.position == b.position);

        let t = Instant::now();
        spec.arm(site);
        tracer.span("sos.episode_run", || site.run(spec.duration));
        let o = tracer.span("telemetry.export", || outcome(site, spec.seed));
        episode_s += t.elapsed().as_secs_f64();
        crate::shift::count_security_ring(tracer, site);
        outcomes.push(o);
    }
    (outcomes, episode_s)
}

/// The traced run: untraced and traced sweeps in pairs until `seconds`
/// have passed.
#[must_use]
pub fn run_traced(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::passing();
    let specs = specs(seed);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let reference = sweeps_until(&specs, seconds, &mut out, &mut plain, |out| {
        let mut ok = true;
        let (outcomes, s) = traced_sweep(tracer, &specs, &mut ok);
        tracer.end_repetition();
        traced.push((digest(&outcomes), s));
        out.attempted += outcomes.len() as u64;
        out.check("layer_probes", ok);
    });
    let want = digest(&reference);
    out.check(
        "traced_equals_untraced",
        traced.iter().all(|(d, _)| *d == want),
    );
    witness(&specs, &reference, &mut out);

    let reps = traced.len() as f64;
    let traced_s: Vec<f64> = traced.iter().map(|(_, s)| *s).collect();
    let stats = tracer.stats();
    let mean = |name: &str| {
        stats
            .get(name)
            .map_or(0.0, crate::trace::SpanStats::mean_us)
    };
    let count = |name: &str| tracer.count(name);
    let m = &mut out.metrics;
    for (metric, span) in [
        ("sos.build_us", "sos.build"),
        ("sos.reset_us", "sos.reset"),
        ("sos.episode_run_us", "sos.episode_run"),
        ("sim.worldgen_us", "sim.worldgen"),
        ("channel.handshake_us", "channel.handshake"),
        ("pki.template_build_us", "pki.template_build"),
        ("pki.validate_chain_us", "pki.validate_chain"),
        ("crypto.sign_us", "crypto.sign"),
        ("crypto.verify_us", "crypto.verify"),
        ("secure-boot.verify_us", "secure-boot.verify"),
        ("telemetry.export_us", "telemetry.export"),
    ] {
        m.insert(metric, mean(span));
    }
    m.insert("pki.templates_built", count("pki.templates_built") / reps);
    m.insert("telemetry.events", count("telemetry.events") / reps);
    m.insert(
        "telemetry.drop_frac",
        count("telemetry.dropped") / count("telemetry.events").max(1.0),
    );
    m.insert(
        "trace_overhead_frac",
        median(&traced_s) / median(&plain) - 1.0,
    );
    out.settle();
    out
}
