//! **Crypto fast-path benchmark** — the machine-readable datapoints
//! behind `BENCH_crypto.json`.
//!
//! Times the scalar-multiplication fast paths of `silvasec-crypto`
//! against the frozen naive reference in the **same run**, on the same
//! inputs:
//!
//! * `scalar_mul` on the basepoint (the shared-table path that keygen
//!   and signing use) vs `scalar_mul_naive` on the basepoint;
//! * `scalar_mul` on an arbitrary point (the constant-time 4-bit window)
//!   vs `scalar_mul_naive` on the same point;
//! * `double_scalar_mul` in the verification shape (basepoint + dynamic
//!   key, one shared Straus doubling chain) vs `double_scalar_mul_naive`;
//! * Schnorr `sign`, `verify` and `verify_batch` (batch of 16, per-sig);
//! * SHA-256 and ChaCha20 bulk throughput for context.
//!
//! Every timed pair also cross-checks that fast and naive paths produce
//! byte-identical encodings; a digest over every cross-checked point is
//! stored in the entry (`check_digest`), so two entries from the same
//! code are identical modulo the timing fields. One run entry is
//! **appended** to the trajectory file so successive revisions
//! accumulate.
//!
//! Run with: `cargo run --release -p silvasec-bench --bin crypto_bench`
//! (pass `--smoke` for a CI-sized run: reduced iterations, correctness
//! and batch-beats-sequential assertions only, no speedup floors, no
//! trajectory append).

use serde::Serialize;
use silvasec::crypto::edwards::EdwardsPoint;
use silvasec::crypto::scalar::Scalar;
use silvasec::crypto::schnorr::{self, BatchItem, Signature, SigningKey, VerifyingKey};
use silvasec::crypto::{chacha20, sha256};
use silvasec_bench::{append_trajectory_run, best_per_call_s, hex, paired_rounds, xorshift_bytes};

const BATCH_SIZE: usize = 16;

/// Deterministic scalar stream (xorshift64*), so every run times the
/// same inputs and the cross-check digest is reproducible.
fn scalar_stream(seed: u64, n: usize) -> Vec<Scalar> {
    xorshift_bytes(seed, 64 * n)
        .chunks_exact(64)
        .map(|wide| Scalar::from_bytes_mod_order_wide(wide.try_into().expect("64 bytes")))
        .collect()
}

/// Paired rounds per fast/reference timing; the speedup is the median
/// of the per-round ratios and the throughputs are best-of-rounds.
const ROUNDS: usize = 5;

#[derive(Debug, Serialize)]
struct RunEntry {
    /// Iterations per timed scalar-mul pair.
    iters: usize,
    /// Width of the static basepoint NAF window the verification-side
    /// Straus path ran with — tags each entry so sign/verify deltas
    /// across revisions are attributable to table-width changes.
    basepoint_naf_window: u32,
    /// SHA-256 over every cross-checked point encoding — identical for
    /// two runs of the same code, so entries are comparable modulo the
    /// timing fields.
    check_digest: String,
    /// Basepoint `scalar_mul` (shared-table path), ops/s.
    scalar_mul_basepoint_per_s: f64,
    /// Naive basepoint scalar mul, ops/s (same inputs, same run).
    scalar_mul_basepoint_naive_per_s: f64,
    /// Basepoint fast-path speedup over naive.
    scalar_mul_basepoint_speedup: f64,
    /// Arbitrary-point `scalar_mul` (CT 4-bit window), ops/s.
    scalar_mul_window_per_s: f64,
    /// Naive arbitrary-point scalar mul, ops/s.
    scalar_mul_window_naive_per_s: f64,
    /// Arbitrary-point windowed speedup over naive.
    scalar_mul_window_speedup: f64,
    /// `double_scalar_mul` in the verification shape, ops/s.
    double_scalar_mul_per_s: f64,
    /// Naive double scalar mul, ops/s.
    double_scalar_mul_naive_per_s: f64,
    /// Straus speedup over naive.
    double_scalar_mul_speedup: f64,
    /// Schnorr signs per second.
    sign_per_s: f64,
    /// Schnorr individual verifies per second.
    verify_per_s: f64,
    /// Per-signature throughput inside a 16-signature batch, sigs/s.
    verify_batch16_per_sig_per_s: f64,
    /// Batch per-sig speedup over individual verification.
    verify_batch16_speedup: f64,
    /// SHA-256 bulk throughput, MiB/s.
    sha256_mib_per_s: f64,
    /// ChaCha20 keystream throughput, MiB/s.
    chacha20_mib_per_s: f64,
}

fn batch_fixture(n: usize) -> (Vec<Vec<u8>>, Vec<Signature>, Vec<VerifyingKey>) {
    let mut messages = Vec::with_capacity(n);
    let mut signatures = Vec::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    for i in 0..n {
        let mut seed = [0u8; 32];
        seed[0] = i as u8;
        seed[1] = 0xC3;
        let sk = SigningKey::from_seed(&seed);
        let msg = format!("crypto-bench message {i}").into_bytes();
        signatures.push(sk.sign(&msg));
        keys.push(sk.verifying_key());
        messages.push(msg);
    }
    (messages, signatures, keys)
}

/// Cross-checks fast vs naive on every input pair and feeds every
/// encoding into the digest; panics on the first mismatch (the
/// proptests cover this too — the bench refuses to time wrong code).
fn cross_check(scalars: &[Scalar], points: &[EdwardsPoint]) -> String {
    let base = EdwardsPoint::basepoint();
    let mut h = sha256::Sha256::new();
    for (i, s) in scalars.iter().enumerate() {
        let p = &points[i % points.len()];
        let fast_base = base.scalar_mul(s);
        assert_eq!(
            fast_base.encode(),
            base.scalar_mul_naive(s).encode(),
            "basepoint scalar_mul diverged from naive at input {i}"
        );
        let fast_win = p.scalar_mul(s);
        assert_eq!(
            fast_win.encode(),
            p.scalar_mul_naive(s).encode(),
            "windowed scalar_mul diverged from naive at input {i}"
        );
        let b = &scalars[(i + 1) % scalars.len()];
        let fast_dsm = base.double_scalar_mul(s, p, b);
        assert_eq!(
            fast_dsm.encode(),
            base.double_scalar_mul_naive(s, p, b).encode(),
            "double_scalar_mul diverged from naive at input {i}"
        );
        h.update(&fast_base.encode());
        h.update(&fast_win.encode());
        h.update(&fast_dsm.encode());
    }
    hex(&h.finalize())
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 8 } else { 64 };
    let check_n = if smoke { 8 } else { 24 };

    let scalars = scalar_stream(0xC0FF_EE00, iters.max(check_n) + 1);
    let base = EdwardsPoint::basepoint();
    // A handful of arbitrary points with no relation to the basepoint
    // table (scalar multiples of B, but unknown to `scalar_mul`, which
    // dispatches on pointer-free equality with B only).
    let points: Vec<EdwardsPoint> = scalar_stream(0xD15E_A5E5, 4)
        .iter()
        .map(|s| base.scalar_mul_naive(s))
        .collect();

    eprintln!("crypto_bench: cross-checking fast paths against the naive reference");
    let check_digest = cross_check(&scalars[..check_n], &points);
    let check_digest_again = cross_check(&scalars[..check_n], &points);
    assert_eq!(
        check_digest, check_digest_again,
        "cross-check digest must be deterministic within a run"
    );

    eprintln!("crypto_bench: timing scalar multiplication ({iters} iters, paired rounds)");
    let bp = paired_rounds(
        ROUNDS,
        iters,
        |i| base.scalar_mul(&scalars[i]),
        |i| base.scalar_mul_naive(&scalars[i]),
    );
    let win = paired_rounds(
        ROUNDS,
        iters,
        |i| points[i % 4].scalar_mul(&scalars[i]),
        |i| points[i % 4].scalar_mul_naive(&scalars[i]),
    );
    let dsm = paired_rounds(
        ROUNDS,
        iters,
        |i| base.double_scalar_mul(&scalars[i], &points[i % 4], &scalars[i + 1]),
        |i| base.double_scalar_mul_naive(&scalars[i], &points[i % 4], &scalars[i + 1]),
    );

    eprintln!("crypto_bench: timing Schnorr sign/verify/batch");
    let sk = SigningKey::from_seed(&[0x5Eu8; 32]);
    let vk = sk.verifying_key();
    let msg = b"crypto-bench sign/verify message";
    let sig = sk.sign(msg);
    let sign_per_s = 1.0 / best_per_call_s(3, iters, |_| sk.sign(msg));
    let verify_per_s = 1.0 / best_per_call_s(3, iters, |_| vk.verify(msg, &sig).unwrap());

    let (messages, signatures, keys) = batch_fixture(BATCH_SIZE);
    let items: Vec<BatchItem<'_>> = (0..BATCH_SIZE)
        .map(|i| BatchItem {
            message: &messages[i],
            signature: &signatures[i],
            key: &keys[i],
        })
        .collect();
    let batch_iters = (iters / 4).max(2);
    // The same 16 signatures verified one by one form the reference
    // for the batch speedup.
    let batch = paired_rounds(
        ROUNDS,
        batch_iters,
        |_| assert!(schnorr::verify_batch(&items)),
        |_| {
            for i in 0..BATCH_SIZE {
                keys[i].verify(&messages[i], &signatures[i]).unwrap();
            }
        },
    );
    let verify_batch16_per_sig_per_s = BATCH_SIZE as f64 * batch.best_rates(batch_iters).0;

    eprintln!("crypto_bench: timing bulk primitives");
    let bulk = vec![0xA5u8; 1 << 20];
    let bulk_iters = if smoke { 2 } else { 8 };
    let sha_s = best_per_call_s(3, bulk_iters, |_| sha256::digest(&bulk));
    let cipher = chacha20::ChaCha20::new(&[7u8; 32]);
    let mut stream_buf = bulk.clone();
    let chacha_s = best_per_call_s(3, bulk_iters, |_| {
        cipher.apply_keystream(&[9u8; 12], 0, &mut stream_buf);
    });
    let mib = bulk.len() as f64 / (1024.0 * 1024.0);

    let (bp_fast, bp_naive) = bp.best_rates(iters);
    let (win_fast, win_naive) = win.best_rates(iters);
    let (dsm_fast, dsm_naive) = dsm.best_rates(iters);
    let entry = RunEntry {
        iters,
        basepoint_naf_window: silvasec::crypto::edwards::BASEPOINT_NAF_WINDOW,
        check_digest,
        scalar_mul_basepoint_per_s: bp_fast,
        scalar_mul_basepoint_naive_per_s: bp_naive,
        scalar_mul_basepoint_speedup: bp.median_ratio(),
        scalar_mul_window_per_s: win_fast,
        scalar_mul_window_naive_per_s: win_naive,
        scalar_mul_window_speedup: win.median_ratio(),
        double_scalar_mul_per_s: dsm_fast,
        double_scalar_mul_naive_per_s: dsm_naive,
        double_scalar_mul_speedup: dsm.median_ratio(),
        sign_per_s,
        verify_per_s,
        verify_batch16_per_sig_per_s,
        verify_batch16_speedup: batch.median_ratio(),
        sha256_mib_per_s: mib / sha_s.max(1e-12),
        chacha20_mib_per_s: mib / chacha_s.max(1e-12),
    };

    println!(
        "{}",
        serde_json::to_string_pretty(&entry).expect("entry serializes")
    );

    // The batch must beat sequential verification of the same set in
    // every mode — that is the whole point of sharing the doubling
    // chain, and it holds with a wide margin even on a noisy host.
    assert!(
        entry.verify_batch16_speedup > 1.0,
        "batch verification no faster than sequential (speedup {:.2})",
        entry.verify_batch16_speedup
    );

    if smoke {
        eprintln!("smoke mode: skipping speedup floors and trajectory append");
        return;
    }

    // Full-run acceptance floors: the fast paths must beat the naive
    // reference decisively, measured on the same inputs in this run.
    assert!(
        entry.double_scalar_mul_speedup >= 3.0,
        "double_scalar_mul must be at least 3x naive (got {:.2}x)",
        entry.double_scalar_mul_speedup
    );
    assert!(
        entry.scalar_mul_basepoint_speedup >= 2.0,
        "basepoint scalar_mul must be at least 2x naive (got {:.2}x)",
        entry.scalar_mul_basepoint_speedup
    );

    append_trajectory_run("BENCH_crypto.json", "crypto_bench", &entry);
}
