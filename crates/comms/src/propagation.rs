//! Radio propagation: path loss, foliage, weather, SINR and packet error.
//!
//! The model is the standard log-distance path-loss model with log-normal
//! shadowing, plus a per-tree foliage loss term (forest canopies are a
//! first-order effect at worksite ranges) and the weather attenuation from
//! [`silvasec_sim::weather`].

use silvasec_sim::geom::Vec3;
use silvasec_sim::rng::SimRng;
use silvasec_sim::vegetation::TreeStand;
use silvasec_sim::weather::Weather;

/// Propagation model parameters.
#[derive(Debug, Clone, Copy)]
pub struct PropagationConfig {
    /// Path loss at the 1 m reference distance, dB.
    pub pl0_db: f64,
    /// Path-loss exponent (2.0 free space; 2.7–3.5 forest).
    pub exponent: f64,
    /// Standard deviation of log-normal shadowing, dB.
    pub shadowing_std_db: f64,
    /// Foliage loss per tree crossing near the path, dB.
    pub per_tree_db: f64,
    /// Cap on total foliage loss, dB.
    pub max_foliage_db: f64,
    /// Thermal noise floor, dBm.
    pub noise_floor_dbm: f64,
    /// SINR at which the packet error rate is 50%, dB.
    pub per_midpoint_db: f64,
    /// Steepness of the PER curve, dB.
    pub per_slope_db: f64,
}

impl Default for PropagationConfig {
    fn default() -> Self {
        PropagationConfig {
            pl0_db: 40.0,
            exponent: 2.8,
            shadowing_std_db: 3.0,
            per_tree_db: 0.8,
            max_foliage_db: 25.0,
            noise_floor_dbm: -94.0,
            per_midpoint_db: 6.0,
            per_slope_db: 1.5,
        }
    }
}

/// Deterministic path loss between two points (no shadowing), dB.
#[must_use]
pub fn path_loss_db(config: &PropagationConfig, from: Vec3, to: Vec3) -> f64 {
    let d = from.distance(to).max(1.0);
    config.pl0_db + 10.0 * config.exponent * d.log10()
}

/// Foliage loss along the path, dB (counts trees whose trunk is within
/// 1.5 m of the 2-D path and whose height reaches the ray).
#[must_use]
pub fn foliage_loss_db(config: &PropagationConfig, stand: &TreeStand, from: Vec3, to: Vec3) -> f64 {
    let a2 = from.xy();
    let b2 = to.xy();
    // Only trees tall enough to reach the link height matter.
    let link_z = from.z.min(to.z);
    let mut crossing_count = 0usize;
    // Visitor form: same trees in the same order as the collecting
    // `trees_near_segment`, without the per-call `Vec` — this runs once
    // per delivery attempt on the radio hot path. The visitor reuses
    // the distance the grid filter already computed, and stops as soon
    // as the crossing count saturates `max_foliage_db` — further
    // crossings cannot change the capped loss.
    stand.for_trees_near_segment_dist(a2, b2, 1.5, |tree, dist| {
        if dist <= 1.5 && tree.height_m >= link_z {
            crossing_count += 1;
            if config.per_tree_db > 0.0
                && crossing_count as f64 * config.per_tree_db >= config.max_foliage_db
            {
                return false;
            }
        }
        true
    });
    (crossing_count as f64 * config.per_tree_db).min(config.max_foliage_db)
}

/// FROZEN pre-optimization foliage loss: same value as
/// [`foliage_loss_db`], computed the way the pre-optimization code did —
/// collecting the candidate trees into a per-call `Vec` via the
/// full-rectangle grid scan. Used only by the benchmark's reference arm
/// (see [`crate::Medium::transmit_env_reference`]) so that arm pays the
/// pre-optimization per-delivery cost. Do not optimize.
#[must_use]
pub fn foliage_loss_db_reference(
    config: &PropagationConfig,
    stand: &TreeStand,
    from: Vec3,
    to: Vec3,
) -> f64 {
    let a2 = from.xy();
    let b2 = to.xy();
    let link_z = from.z.min(to.z);
    let crossing_count = stand
        .trees_near_segment_reference(a2, b2, 1.5)
        .iter()
        .filter(|tree| tree.position.distance_to_segment(a2, b2) <= 1.5 && tree.height_m >= link_z)
        .count();
    (crossing_count as f64 * config.per_tree_db).min(config.max_foliage_db)
}

/// Received power for a transmission, dBm (with stochastic shadowing).
#[must_use]
pub fn received_power_dbm(
    config: &PropagationConfig,
    tx_power_dbm: f64,
    stand: &TreeStand,
    weather: Weather,
    from: Vec3,
    to: Vec3,
    rng: &mut SimRng,
) -> f64 {
    let shadowing = rng.normal(0.0, config.shadowing_std_db);
    tx_power_dbm
        - path_loss_db(config, from, to)
        - foliage_loss_db(config, stand, from, to)
        - weather.radio_attenuation_db()
        - shadowing
}

/// FROZEN pre-optimization received power: identical value and RNG
/// draws to [`received_power_dbm`], but through
/// [`foliage_loss_db_reference`] so the benchmark's reference arm pays
/// the pre-optimization foliage cost. Do not optimize.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn received_power_dbm_reference(
    config: &PropagationConfig,
    tx_power_dbm: f64,
    stand: &TreeStand,
    weather: Weather,
    from: Vec3,
    to: Vec3,
    rng: &mut SimRng,
) -> f64 {
    let shadowing = rng.normal(0.0, config.shadowing_std_db);
    tx_power_dbm
        - path_loss_db(config, from, to)
        - foliage_loss_db_reference(config, stand, from, to)
        - weather.radio_attenuation_db()
        - shadowing
}

/// Converts dBm to milliwatts.
#[must_use]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts milliwatts to dBm.
///
/// # Panics
///
/// Panics if `mw` is not positive.
#[must_use]
pub fn mw_to_dbm(mw: f64) -> f64 {
    assert!(mw > 0.0, "power must be positive");
    10.0 * mw.log10()
}

/// SINR in dB given signal power and total interference power.
#[must_use]
pub fn sinr_db(config: &PropagationConfig, signal_dbm: f64, interference_dbm: Option<f64>) -> f64 {
    let noise_mw = dbm_to_mw(config.noise_floor_dbm);
    let interference_mw = interference_dbm.map_or(0.0, dbm_to_mw);
    signal_dbm - mw_to_dbm(noise_mw + interference_mw)
}

/// Packet error rate for a given SINR (logistic curve).
#[must_use]
pub fn packet_error_rate(config: &PropagationConfig, sinr_db: f64) -> f64 {
    1.0 / (1.0 + ((sinr_db - config.per_midpoint_db) / config.per_slope_db).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use silvasec_sim::geom::Vec2;
    use silvasec_sim::vegetation::{Tree, TreeStand};

    fn cfg() -> PropagationConfig {
        PropagationConfig::default()
    }

    fn empty_stand() -> TreeStand {
        TreeStand::from_trees(Vec::new(), 1000.0)
    }

    #[test]
    fn path_loss_grows_with_distance() {
        let c = cfg();
        let a = Vec3::new(0.0, 0.0, 2.0);
        let pl10 = path_loss_db(&c, a, Vec3::new(10.0, 0.0, 2.0));
        let pl100 = path_loss_db(&c, a, Vec3::new(100.0, 0.0, 2.0));
        // One decade of distance adds 10·n dB.
        assert!((pl100 - pl10 - 28.0).abs() < 0.1);
    }

    #[test]
    fn path_loss_clamps_below_reference() {
        let c = cfg();
        let a = Vec3::new(0.0, 0.0, 2.0);
        assert_eq!(
            path_loss_db(&c, a, Vec3::new(0.5, 0.0, 2.0)),
            path_loss_db(&c, a, Vec3::new(1.0, 0.0, 2.0))
        );
    }

    #[test]
    fn foliage_counts_blocking_trees() {
        let c = cfg();
        let trees = vec![
            Tree {
                position: Vec2::new(50.0, 0.5),
                height_m: 20.0,
                trunk_radius_m: 0.2,
                canopy_radius_m: 2.0,
            },
            Tree {
                position: Vec2::new(60.0, 30.0), // far off the path
                height_m: 20.0,
                trunk_radius_m: 0.2,
                canopy_radius_m: 2.0,
            },
        ];
        let stand = TreeStand::from_trees(trees, 200.0);
        let loss = foliage_loss_db(
            &c,
            &stand,
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::new(100.0, 0.0, 2.0),
        );
        assert!((loss - c.per_tree_db).abs() < 1e-9, "loss {loss}");
    }

    #[test]
    fn foliage_ignores_short_trees_under_high_link() {
        let c = cfg();
        let trees = vec![Tree {
            position: Vec2::new(50.0, 0.0),
            height_m: 5.0,
            trunk_radius_m: 0.2,
            canopy_radius_m: 1.0,
        }];
        let stand = TreeStand::from_trees(trees, 200.0);
        // Drone-to-drone link at 50 m altitude.
        let loss = foliage_loss_db(
            &c,
            &stand,
            Vec3::new(0.0, 0.0, 50.0),
            Vec3::new(100.0, 0.0, 50.0),
        );
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn foliage_loss_caps() {
        let c = cfg();
        let trees: Vec<Tree> = (0..100)
            .map(|i| Tree {
                position: Vec2::new(i as f64, 0.0),
                height_m: 20.0,
                trunk_radius_m: 0.2,
                canopy_radius_m: 2.0,
            })
            .collect();
        let stand = TreeStand::from_trees(trees, 200.0);
        let loss = foliage_loss_db(
            &c,
            &stand,
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::new(100.0, 0.0, 2.0),
        );
        assert_eq!(loss, c.max_foliage_db);
    }

    #[test]
    fn dbm_mw_roundtrip() {
        for dbm in [-90.0, -30.0, 0.0, 20.0] {
            assert!((mw_to_dbm(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
        }
    }

    #[test]
    fn sinr_without_interference_is_snr() {
        let c = cfg();
        let s = sinr_db(&c, -70.0, None);
        assert!((s - 24.0).abs() < 1e-9);
    }

    #[test]
    fn interference_reduces_sinr() {
        let c = cfg();
        let clean = sinr_db(&c, -70.0, None);
        let jammed = sinr_db(&c, -70.0, Some(-75.0));
        assert!(jammed < clean);
        // Strong jammer dominates noise: SINR ≈ S - I.
        let strong = sinr_db(&c, -70.0, Some(-60.0));
        assert!((strong - (-10.0)).abs() < 0.2, "strong {strong}");
    }

    #[test]
    fn per_curve_shape() {
        let c = cfg();
        assert!((packet_error_rate(&c, c.per_midpoint_db) - 0.5).abs() < 1e-9);
        assert!(packet_error_rate(&c, 30.0) < 1e-4);
        assert!(packet_error_rate(&c, -10.0) > 0.999);
        // Monotone decreasing.
        let mut last = 1.0;
        for i in -20..40 {
            let per = packet_error_rate(&c, i as f64);
            assert!(per <= last);
            last = per;
        }
    }

    #[test]
    fn received_power_reasonable_at_100m() {
        let c = cfg();
        let mut rng = SimRng::from_seed(1);
        let p = received_power_dbm(
            &c,
            20.0,
            &empty_stand(),
            Weather::Clear,
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::new(100.0, 0.0, 2.0),
            &mut rng,
        );
        // 20 − 40 − 56 = −76 dBm ± shadowing.
        assert!((-95.0..=-60.0).contains(&p), "p = {p}");
    }

    #[test]
    fn weather_attenuates() {
        let c = PropagationConfig {
            shadowing_std_db: 0.0,
            ..cfg()
        };
        let mut rng = SimRng::from_seed(2);
        let a = Vec3::new(0.0, 0.0, 2.0);
        let b = Vec3::new(100.0, 0.0, 2.0);
        let clear = received_power_dbm(&c, 20.0, &empty_stand(), Weather::Clear, a, b, &mut rng);
        let rain = received_power_dbm(&c, 20.0, &empty_stand(), Weather::HeavyRain, a, b, &mut rng);
        assert!((clear - rain - 3.0).abs() < 1e-9);
    }
}
