//! Benchmark self-tests: one repetition of each workload. Run with
//! `cargo test --release --manifest-path silvabench/Cargo.toml`.

use crate::report::{Outcome, Workload, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::{drill, shift, sweep};
use std::collections::BTreeSet;

/// A run length short enough for exactly one repetition.
const ONE_REP: f64 = 1e-3;

fn measured(out: &Outcome) -> BTreeSet<&'static str> {
    out.metrics.keys().copied().collect()
}

#[test]
fn untraced_runs_measure_every_end_to_end_metric() {
    for (w, out) in [
        (Workload::Shift, shift::run(7, ONE_REP)),
        (Workload::OddSweep, sweep::run(3, ONE_REP)),
        (Workload::FleetDrill, drill::run(11, ONE_REP)),
    ] {
        assert!(out.correct, "{w:?} checks failed: {:?}", out.report);
        let want: BTreeSet<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .filter(|n| *n != "peak_rss_mib")
            .collect();
        assert_eq!(measured(&out), want, "{w:?}");
        assert!(
            out.metrics.values().all(|v| v.is_finite() && *v > 0.0),
            "{w:?}"
        );
    }
}

#[test]
fn traced_runs_emit_every_layer_metric_named_for_their_workload() {
    let mut tracers = [Tracer::new(), Tracer::new(), Tracer::new()];
    let [a, b, c] = &mut tracers;
    for (w, out) in [
        (Workload::Shift, shift::run_traced(7, ONE_REP, a)),
        (Workload::OddSweep, sweep::run_traced(3, ONE_REP, b)),
        (Workload::FleetDrill, drill::run_traced(11, ONE_REP, c)),
    ] {
        assert!(out.correct, "{w:?} checks failed: {:?}", out.report);
        let want: BTreeSet<&str> = PER_LAYER
            .iter()
            .filter(|d| d.workloads.contains(&w))
            .map(|d| d.name)
            .collect();
        assert_eq!(measured(&out), want, "{w:?}");
        assert!(out.metrics.values().all(|v| v.is_finite()), "{w:?}");
    }
}

#[test]
fn layer_probe_leaves_the_live_digest_unchanged() {
    let campaigns = shift::campaigns();
    let (alone, _, _) = shift::run_untraced(7, &campaigns);
    let mut tracer = Tracer::new();
    let probed = shift::run_traced_once(&mut tracer, 7, &campaigns);
    assert!(
        probed.probe_ok,
        "probe left lockstep with the live worksite: {:?}",
        probed.delivered
    );
    assert_eq!(
        shift::digest(&alone),
        probed.digest,
        "the probe changed the live run"
    );
    assert!(tracer.stats()["probe.tick"].calls > 0);
}
