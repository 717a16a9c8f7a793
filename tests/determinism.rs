//! The architectural invariant of the whole simulator: identical seeds
//! give identical traces, across every subsystem and their composition.

use silvasec::experiments::{
    occlusion_point, occlusion_sweep, run_worksite, standard_config, OcclusionRow,
};
use silvasec::prelude::*;

#[test]
fn worksite_runs_are_bit_identical() {
    let run = |seed: u64| {
        let m = run_worksite(
            SecurityPosture::secure(),
            Some(AttackKind::RfJamming),
            seed,
            SimDuration::from_secs(180),
        );
        (
            m.ticks,
            m.loads_delivered,
            m.distance_m.to_bits(),
            m.messages_delivered,
            m.danger_zone_ticks,
            m.alerts.clone(),
        )
    };
    assert_eq!(run(101), run(101));
}

#[test]
fn different_seeds_differ() {
    let a = run_worksite(
        SecurityPosture::secure(),
        None,
        1,
        SimDuration::from_secs(120),
    );
    let b = run_worksite(
        SecurityPosture::secure(),
        None,
        2,
        SimDuration::from_secs(120),
    );
    // At least one observable differs (positions, channel noise, walks).
    assert!(
        a.distance_m.to_bits() != b.distance_m.to_bits()
            || a.messages_delivered != b.messages_delivered
            || a.danger_zone_ticks != b.danger_zone_ticks
    );
}

#[test]
fn experiment_rows_are_reproducible() {
    let a = occlusion_point(400.0, 15.0, 7, SimDuration::from_secs(120));
    let b = occlusion_point(400.0, 15.0, 7, SimDuration::from_secs(120));
    assert_eq!(
        a.forwarder_coverage.to_bits(),
        b.forwarder_coverage.to_bits()
    );
    assert_eq!(a.combined_coverage.to_bits(), b.combined_coverage.to_bits());
}

#[test]
fn parallel_occlusion_sweep_matches_sequential_rows() {
    let densities = [0.0, 300.0, 900.0];
    let seeds = [5u64, 17];
    let duration = SimDuration::from_secs(60);
    // The nested map `occlusion_sweep` replaced, fold order included.
    let sequential: Vec<OcclusionRow> = densities
        .iter()
        .map(|&density| {
            let rows: Vec<OcclusionRow> = seeds
                .iter()
                .map(|&s| occlusion_point(density, 15.0, s, duration))
                .collect();
            let n = rows.len() as f64;
            let mean = |f: fn(&OcclusionRow) -> f64| rows.iter().map(f).sum::<f64>() / n;
            OcclusionRow {
                density,
                relief_m: 15.0,
                forwarder_coverage: mean(|r| r.forwarder_coverage),
                combined_coverage: mean(|r| r.combined_coverage),
                forwarder_ttd_s: mean(|r| r.forwarder_ttd_s),
                combined_ttd_s: mean(|r| r.combined_ttd_s),
            }
        })
        .collect();
    let bits = |rows: &[OcclusionRow]| -> Vec<[u64; 6]> {
        rows.iter()
            .map(|r| {
                [
                    r.density,
                    r.relief_m,
                    r.forwarder_coverage,
                    r.combined_coverage,
                    r.forwarder_ttd_s,
                    r.combined_ttd_s,
                ]
                .map(f64::to_bits)
            })
            .collect()
    };
    let parallel = occlusion_sweep(&densities, 15.0, &seeds, duration);
    assert_eq!(bits(&parallel), bits(&sequential));
}

#[test]
fn rng_stream_isolation() {
    // Consuming one subsystem's stream must not perturb another's.
    let root = SimRng::from_seed(5);
    let mut comms_a = root.fork("comms");
    let mut attacks = root.fork("attacks");
    let attack_vals: Vec<u64> = (0..10).map(|_| attacks.next_u64()).collect();

    // Re-derive, but this time drain the comms stream heavily first.
    let root2 = SimRng::from_seed(5);
    let mut comms_b = root2.fork("comms");
    for _ in 0..1000 {
        let _ = comms_b.next_u64();
    }
    let mut attacks2 = root2.fork("attacks");
    let attack_vals2: Vec<u64> = (0..10).map(|_| attacks2.next_u64()).collect();
    assert_eq!(attack_vals, attack_vals2);
    let _ = comms_a.next_u64();
}

#[test]
fn sites_with_same_config_and_seed_share_attack_ground_truth() {
    let config = standard_config(SecurityPosture::secure());
    let build = || {
        let mut site = Worksite::new(&config, 77);
        site.attack_engine_mut()
            .add_campaign(silvasec::experiments::campaign_for(
                AttackKind::CameraBlinding,
                SimTime::from_secs(30),
                SimDuration::from_secs(60),
            ));
        site.run(SimDuration::from_secs(120));
        site.metrics().first_alert_at.clone()
    };
    assert_eq!(build(), build());
}
