//! **E6** — secure-channel overhead on safety traffic, in wall-clock and
//! in on-air bytes (`crypto_bench` and `data_plane_bench` time the
//! primitives; this binary reports the end-to-end numbers a safety
//! engineer asks about).
//!
//! Run with: `cargo run --release -p silvasec-bench --bin exp6_overhead`

use silvasec_bench::session_pair;
use silvasec_channel::session::RECORD_OVERHEAD;
use std::time::Instant;

fn main() {
    println!("E6 — secure-channel overhead\n");

    // Handshake latency.
    let n = 20;
    let start = Instant::now();
    for i in 0..n {
        let _ = session_pair(i as u8);
    }
    let hs_ms = start.elapsed().as_secs_f64() * 1000.0 / f64::from(n);
    println!("mutual handshake (X25519 + 2 cert verifications + 2 signatures):");
    println!("  {hs_ms:.2} ms per handshake (amortized over {n})\n");

    println!(
        "{:>12} {:>14} {:>14} {:>12} {:>14}",
        "payload (B)", "seal+open (µs)", "plain copy(µs)", "bytes added", "airtime @6Mbps"
    );
    for size in [32usize, 128, 512, 2048] {
        let (mut a, mut b) = session_pair(9);
        let msg = vec![0u8; size];
        let iterations = 2000;
        let start = Instant::now();
        for _ in 0..iterations {
            let rec = a.seal(&msg).unwrap();
            let _ = b.open(&rec).unwrap();
        }
        let crypt_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(iterations);

        let start = Instant::now();
        for _ in 0..iterations {
            let _ = std::hint::black_box(msg.clone());
        }
        let copy_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(iterations);

        let added = RECORD_OVERHEAD;
        let airtime_us = (added * 8) as f64 / 6.0; // µs on a 6 Mbps link
        println!(
            "{:>12} {:>14.2} {:>14.2} {:>12} {:>11.1} µs",
            size, crypt_us, copy_us, added, airtime_us
        );
    }
    println!("\nshape to verify: per-record overhead is tens of microseconds of CPU and");
    println!("{RECORD_OVERHEAD} bytes on the air — negligible against the ~0.5 s safety tick and");
    println!("frame airtimes, so securing the safety traffic costs essentially nothing.");
}
