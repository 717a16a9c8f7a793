//! **Data-plane fast-path benchmark** — the machine-readable datapoints
//! behind `BENCH_data_plane.json`.
//!
//! Times the bulk data-plane fast paths of `silvasec-crypto` against the
//! frozen naive references in the **same run**, on the same inputs:
//!
//! * multi-block ChaCha20 keystream (`apply_keystream_inplace`, the
//!   eight-block wide path) vs the frozen per-block
//!   `apply_keystream_naive`;
//! * one-pass AEAD `seal_in_place` (encrypt-and-MAC in a single sweep
//!   over a reused buffer) vs the frozen two-pass allocating
//!   `seal_naive`;
//! * one-pass AEAD `open_in_place` vs the frozen `open_naive`;
//! * streaming SHA-256 bulk throughput for context;
//! * established-session record throughput (`Session::seal_into` /
//!   `open_into` over reused buffers), the end-to-end headline.
//!
//! Every timed pair is preceded by a cross-check that the fast and
//! naive paths produce byte-identical output across an edge-heavy
//! length schedule (empty, single byte, around the Poly1305 block
//! boundary, around the ChaCha20 block boundary, and multi-wide-chunk);
//! a digest over every checked ciphertext is stored in the entry
//! (`check_digest`), so two entries from the same code are identical
//! modulo the timing fields.
//!
//! The binary also asserts the allocation contract directly: once the
//! reused record buffer has reached steady-state capacity,
//! `Session::seal_into` must perform **zero** heap allocations per
//! record, counted by a wrapping global allocator.
//!
//! Timing hygiene: the nonce and initial counter change on every timed
//! iteration. With a loop-invariant nonce/counter the whole keystream
//! becomes hoistable and LLVM will happily lift it out of the timing
//! loop, producing speedups that measure the optimizer rather than the
//! cipher.
//!
//! Run with: `cargo run --release -p silvasec-bench --bin
//! data_plane_bench` (pass `--smoke` for a CI-sized run: reduced
//! iterations, cross-checks and the zero-allocation assertion only, no
//! speedup floors, no trajectory append).

use serde::Serialize;
use silvasec_bench::alloc::{acquisitions, TrackingAllocator};
use silvasec_bench::{
    append_trajectory_run, best_per_call_s, hex, paired_rounds, session_pair, xorshift_bytes,
};
use silvasec_crypto::aead::ChaCha20Poly1305;
use silvasec_crypto::chacha20::ChaCha20;
use silvasec_crypto::sha256;

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

/// Bulk buffer size for the keystream / AEAD / hash measurements. Large
/// enough that the 512-byte wide chunks dominate and per-call setup is
/// noise, small enough to stay in cache (this measures the cipher, not
/// the memory bus).
const BULK_LEN: usize = 16 * 1024;

/// Record payload for the session throughput headline — the order of a
/// telemetry batch or a detection report, the records the data plane
/// actually carries.
const RECORD_PAYLOAD_LEN: usize = 1024;

const AAD: &[u8] = b"data-plane-bench-aad";

/// Edge-heavy plaintext length schedule for the cross-check: empty,
/// single byte, around the Poly1305 16-byte boundary, around the
/// ChaCha20 64-byte boundary, around the 512-byte wide-chunk boundary,
/// and genuinely multi-chunk.
const CHECK_LENS: [usize; 15] = [
    0, 1, 15, 16, 17, 63, 64, 65, 255, 511, 512, 513, 1024, 4096, 9001,
];

/// Per-iteration nonce: every timed call keys a different stream so
/// nothing about the keystream is loop-invariant.
fn nonce_for(i: usize) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&(i as u64).to_le_bytes());
    nonce[8] = 0xD7;
    nonce
}

/// Paired rounds per fast/reference timing; the speedup is the median
/// of the per-round ratios and the throughputs are best-of-rounds.
const ROUNDS: usize = 5;

#[derive(Debug, Serialize)]
struct RunEntry {
    /// Iterations per timed pair.
    iters: usize,
    /// SHA-256 over every cross-checked ciphertext — identical for two
    /// runs of the same code, so entries are comparable modulo the
    /// timing fields.
    check_digest: String,
    /// Multi-block keystream throughput, MiB/s.
    chacha20_wide_mib_per_s: f64,
    /// Frozen per-block keystream, MiB/s (same inputs, same run).
    chacha20_naive_mib_per_s: f64,
    /// Wide keystream speedup over naive.
    chacha20_keystream_speedup: f64,
    /// One-pass in-place AEAD seal throughput, MiB/s.
    aead_seal_mib_per_s: f64,
    /// Frozen two-pass allocating seal, MiB/s.
    aead_seal_naive_mib_per_s: f64,
    /// One-pass seal speedup over naive.
    aead_seal_speedup: f64,
    /// One-pass in-place AEAD open throughput, MiB/s.
    aead_open_mib_per_s: f64,
    /// Frozen tag-then-decrypt allocating open, MiB/s.
    aead_open_naive_mib_per_s: f64,
    /// One-pass open speedup over naive.
    aead_open_speedup: f64,
    /// Streaming SHA-256 bulk throughput, MiB/s.
    sha256_mib_per_s: f64,
    /// Established-session records sealed **and** opened per second
    /// (1 KiB payloads, reused buffers).
    session_records_per_s: f64,
    /// Session plaintext throughput implied by the record rate, MB/s.
    session_mb_per_s: f64,
    /// Heap allocations per `Session::seal_into` at steady state —
    /// asserted to be exactly zero.
    session_seal_allocs_per_record: f64,
}

/// Cross-checks every fast path against its frozen reference across the
/// edge-heavy length schedule and feeds every ciphertext into the
/// digest; panics on the first divergence (the proptests cover this too
/// — the bench refuses to time wrong code).
fn cross_check(cipher: &ChaCha20, aead: &ChaCha20Poly1305) -> String {
    let mut h = sha256::Sha256::new();
    for (i, &len) in CHECK_LENS.iter().enumerate() {
        let nonce = nonce_for(i);
        let pt = xorshift_bytes(0xDA7A ^ len as u64, len);

        // Keystream: wide path vs frozen per-block reference, at an
        // offset counter so partial leading chunks are exercised too.
        let mut fast = pt.clone();
        let mut naive = pt.clone();
        cipher.apply_keystream_inplace(&nonce, i as u32, &mut fast);
        cipher.apply_keystream_naive(&nonce, i as u32, &mut naive);
        assert_eq!(
            fast, naive,
            "wide keystream diverged from naive at len {len}"
        );

        // Seal: one-pass in-place vs frozen two-pass, byte-identical
        // records.
        let mut sealed = pt.clone();
        aead.seal_in_place(&nonce, AAD, &mut sealed);
        let sealed_naive = aead.seal_naive(&nonce, AAD, &pt);
        assert_eq!(
            sealed, sealed_naive,
            "seal_in_place diverged from seal_naive at len {len}"
        );

        // Open: both paths recover the plaintext from either record.
        let mut opened = sealed.clone();
        aead.open_in_place(&nonce, AAD, &mut opened)
            .expect("in-place open of a valid record");
        assert_eq!(opened, pt, "open_in_place wrong plaintext at len {len}");
        let opened_naive = aead
            .open_naive(&nonce, AAD, &sealed)
            .expect("naive open of a valid record");
        assert_eq!(opened_naive, pt, "open_naive wrong plaintext at len {len}");

        // Tamper-rejection parity: flip one ciphertext byte (or the tag
        // for empty plaintexts) and both paths must reject.
        let mut forged = sealed.clone();
        forged[len / 2] ^= 0x80;
        assert!(
            aead.open_naive(&nonce, AAD, &forged).is_err(),
            "open_naive accepted a forged record at len {len}"
        );
        let mut forged_in_place = forged.clone();
        assert!(
            aead.open_in_place(&nonce, AAD, &mut forged_in_place)
                .is_err(),
            "open_in_place accepted a forged record at len {len}"
        );
        assert!(
            forged_in_place.is_empty(),
            "open_in_place must clear the buffer on rejection"
        );

        h.update(&sealed);
    }
    hex(&h.finalize())
}

/// Counts heap allocations per `Session::seal_into` once the reused
/// buffer has reached steady-state capacity.
fn measure_seal_allocs() -> f64 {
    const RECORDS: u64 = 512;
    let (mut tx, mut rx) = session_pair(23);
    let pt = xorshift_bytes(0x5EA1, RECORD_PAYLOAD_LEN);
    let mut record = Vec::new();
    let mut opened = Vec::new();
    // Warm-up: the first seal grows `record` to its steady-state
    // capacity (and proves the pair actually works).
    tx.seal_into(&pt, &mut record).expect("warm-up seal");
    rx.open_into(&record, &mut opened).expect("warm-up open");
    assert_eq!(opened, pt);

    let before = acquisitions();
    for _ in 0..RECORDS {
        tx.seal_into(&pt, &mut record).expect("steady-state seal");
    }
    let delta = acquisitions() - before;
    delta as f64 / RECORDS as f64
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 8 } else { 64 };

    let cipher = ChaCha20::new(&[0x42u8; 32]);
    let aead = ChaCha20Poly1305::new(&[0x42u8; 32]);

    eprintln!("data_plane_bench: cross-checking fast paths against the frozen references");
    let check_digest = cross_check(&cipher, &aead);
    let check_digest_again = cross_check(&cipher, &aead);
    assert_eq!(
        check_digest, check_digest_again,
        "cross-check digest must be deterministic within a run"
    );

    eprintln!("data_plane_bench: asserting the steady-state allocation contract");
    let session_seal_allocs_per_record = measure_seal_allocs();
    assert!(
        session_seal_allocs_per_record == 0.0,
        "Session::seal_into must not allocate at steady state \
         (measured {session_seal_allocs_per_record} allocations per record)"
    );

    let bulk = xorshift_bytes(0xB01D, BULK_LEN);
    let mib = BULK_LEN as f64 / (1024.0 * 1024.0);

    eprintln!("data_plane_bench: timing ChaCha20 keystream ({iters} iters, paired rounds)");
    let mut ks_fast = bulk.clone();
    let mut ks_naive = bulk.clone();
    let ks = paired_rounds(
        ROUNDS,
        iters,
        |i| cipher.apply_keystream_inplace(&nonce_for(i), i as u32, &mut ks_fast),
        |i| cipher.apply_keystream_naive(&nonce_for(i), i as u32, &mut ks_naive),
    );

    eprintln!("data_plane_bench: timing AEAD seal (one-pass in-place vs two-pass)");
    let mut seal_buf: Vec<u8> = Vec::with_capacity(BULK_LEN + ChaCha20Poly1305::overhead());
    let seal = paired_rounds(
        ROUNDS,
        iters,
        |i| {
            seal_buf.clear();
            seal_buf.extend_from_slice(&bulk);
            aead.seal_in_place(&nonce_for(i), AAD, &mut seal_buf);
            seal_buf.len()
        },
        |i| aead.seal_naive(&nonce_for(i), AAD, &bulk).len(),
    );

    eprintln!("data_plane_bench: timing AEAD open (one-pass in-place vs tag-then-decrypt)");
    let records: Vec<Vec<u8>> = (0..iters)
        .map(|i| aead.seal(&nonce_for(i), AAD, &bulk))
        .collect();
    let mut open_buf: Vec<u8> = Vec::with_capacity(records[0].len());
    let open = paired_rounds(
        ROUNDS,
        iters,
        |i| {
            open_buf.clear();
            open_buf.extend_from_slice(&records[i]);
            aead.open_in_place(&nonce_for(i), AAD, &mut open_buf)
                .expect("open a valid record");
            open_buf.len()
        },
        |i| {
            aead.open_naive(&nonce_for(i), AAD, &records[i])
                .expect("naively open a valid record")
                .len()
        },
    );

    eprintln!("data_plane_bench: timing streaming SHA-256");
    let hash_iters = if smoke { 4 } else { 16 };
    let sha_per_call = best_per_call_s(3, hash_iters, |_| sha256::digest(&bulk));

    eprintln!("data_plane_bench: timing established-session record throughput");
    let (mut tx, mut rx) = session_pair(31);
    let record_pt = xorshift_bytes(0x7E1E, RECORD_PAYLOAD_LEN);
    let mut record = Vec::new();
    let mut opened = Vec::new();
    let session_iters = if smoke { 64 } else { 4096 };
    let session_records_per_s = 1.0
        / best_per_call_s(3, session_iters, |_| {
            tx.seal_into(&record_pt, &mut record).expect("seal record");
            rx.open_into(&record, &mut opened).expect("open record");
            opened.len()
        });

    let (ks_fast_per_s, ks_naive_per_s) = ks.best_rates(iters);
    let (seal_fast_per_s, seal_naive_per_s) = seal.best_rates(iters);
    let (open_fast_per_s, open_naive_per_s) = open.best_rates(iters);
    let entry = RunEntry {
        iters,
        check_digest,
        chacha20_wide_mib_per_s: ks_fast_per_s * mib,
        chacha20_naive_mib_per_s: ks_naive_per_s * mib,
        chacha20_keystream_speedup: ks.median_ratio(),
        aead_seal_mib_per_s: seal_fast_per_s * mib,
        aead_seal_naive_mib_per_s: seal_naive_per_s * mib,
        aead_seal_speedup: seal.median_ratio(),
        aead_open_mib_per_s: open_fast_per_s * mib,
        aead_open_naive_mib_per_s: open_naive_per_s * mib,
        aead_open_speedup: open.median_ratio(),
        sha256_mib_per_s: mib / sha_per_call.max(1e-12),
        session_records_per_s,
        session_mb_per_s: session_records_per_s * RECORD_PAYLOAD_LEN as f64 / 1e6,
        session_seal_allocs_per_record,
    };

    println!(
        "{}",
        serde_json::to_string_pretty(&entry).expect("entry serializes")
    );

    if smoke {
        eprintln!("smoke mode: skipping speedup floors and trajectory append");
        return;
    }

    // Full-run acceptance floors: the fast paths must beat the frozen
    // references decisively, measured on the same inputs in this run.
    assert!(
        entry.chacha20_keystream_speedup >= 3.0,
        "wide keystream must be at least 3x naive (got {:.2}x)",
        entry.chacha20_keystream_speedup
    );
    assert!(
        entry.aead_seal_speedup >= 2.0,
        "one-pass seal must be at least 2x naive (got {:.2}x)",
        entry.aead_seal_speedup
    );

    append_trajectory_run("BENCH_data_plane.json", "data_plane_bench", &entry);
}
