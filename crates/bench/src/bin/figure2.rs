//! Regenerates **Figure 2**: people-detection coverage and time-to-detect
//! with and without the collaborative drone, swept over terrain relief
//! (the paper's occlusion driver) and stand density.
//!
//! The 2b grid is also evaluated point by point on one thread: on a host
//! with two or more cores the parallel sweep must not be slower. The
//! timing goes to stderr, so stdout stays byte-identical across runs.
//!
//! Run with: `cargo run --release -p silvasec-bench --bin figure2`

use silvasec::experiments::{occlusion_point, occlusion_sweep};
use silvasec::sweep::par_sweep;
use silvasec_sim::time::SimDuration;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let seeds = [5u64, 17, 29];
    let duration = SimDuration::from_secs(400);

    println!("FIGURE 2a — coverage vs terrain relief (300 trees/ha)\n");
    println!(
        "{:>10} {:>10} {:>10} {:>8} {:>11} {:>11}",
        "relief(m)", "fw", "fw+drone", "gain", "fw ttd(s)", "comb ttd(s)"
    );
    // The relief axis is itself a sweep: evaluate all relief levels on
    // the engine, then print in order.
    let reliefs = [0.5, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0];
    let relief_rows = par_sweep(&reliefs, |&relief| {
        occlusion_sweep(&[300.0], relief, &seeds, duration).swap_remove(0)
    });
    for (relief, r) in reliefs.iter().zip(&relief_rows) {
        println!(
            "{:>10.1} {:>9.1}% {:>9.1}% {:>7.1}% {:>11.2} {:>11.2}",
            relief,
            r.forwarder_coverage * 100.0,
            r.combined_coverage * 100.0,
            (r.combined_coverage - r.forwarder_coverage) * 100.0,
            r.forwarder_ttd_s,
            r.combined_ttd_s
        );
    }

    println!("\nFIGURE 2b — coverage vs stand density (relief 15 m)\n");
    // 2b is a single densities × seeds grid; `occlusion_sweep`
    // parallelizes it internally.
    println!(
        "{:>12} {:>10} {:>10} {:>8} {:>11} {:>11}",
        "trees/ha", "fw", "fw+drone", "gain", "fw ttd(s)", "comb ttd(s)"
    );
    let densities = [0.0, 100.0, 300.0, 600.0, 900.0, 1200.0, 1500.0];
    let t0 = Instant::now();
    let density_rows = occlusion_sweep(&densities, 15.0, &seeds, duration);
    let parallel_s = t0.elapsed().as_secs_f64();
    for r in density_rows {
        println!(
            "{:>12.0} {:>9.1}% {:>9.1}% {:>7.1}% {:>11.2} {:>11.2}",
            r.density,
            r.forwarder_coverage * 100.0,
            r.combined_coverage * 100.0,
            (r.combined_coverage - r.forwarder_coverage) * 100.0,
            r.forwarder_ttd_s,
            r.combined_ttd_s
        );
    }

    println!("\nshape to verify: the forwarder-only curve falls with relief while the");
    println!("combined curve stays high (the drone eliminates terrain occlusion); at");
    println!("extreme canopy density both degrade (canopy also attenuates the aerial");
    println!("view), which bounds where the collaborative function helps.");

    let t0 = Instant::now();
    for &density in &densities {
        for &seed in &seeds {
            black_box(occlusion_point(density, 15.0, seed, duration));
        }
    }
    let speedup = t0.elapsed().as_secs_f64() / parallel_s.max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!("2b grid: parallel sweep {speedup:.2}x sequential on {cores} core(s)");
    if cores >= 2 {
        assert!(
            speedup >= 1.0,
            "parallel sweep slower than sequential on a {cores}-core host ({speedup:.2}x)"
        );
    }
}
