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
//! Run keys come from the environment, never from a wall clock inside
//! the measurement:
//!
//! * `SILVASEC_GIT_SHA` — revision identifier (default `unknown`);
//! * `SILVASEC_RUN_TS` — timestamp string (default `unspecified`);
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
use silvasec_bench::{append_trajectory_run, run_keys};
use std::time::Instant;

const BATCH_SIZE: usize = 16;

/// Deterministic scalar stream (xorshift64*), so every run times the
/// same inputs and the cross-check digest is reproducible.
fn scalar_stream(seed: u64, n: usize) -> Vec<Scalar> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..n)
        .map(|_| {
            let mut wide = [0u8; 64];
            for chunk in wide.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            Scalar::from_bytes_mod_order_wide(&wide)
        })
        .collect()
}

/// Times `f` over `iters` calls, best of three passes, returning
/// (seconds per call, ops per second).
fn time_best_of_3<T>(iters: usize, mut f: impl FnMut(usize) -> T) -> (f64, f64) {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for i in 0..iters {
            std::hint::black_box(f(i));
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let per_call = best / iters as f64;
    (per_call, 1.0 / per_call.max(1e-12))
}

/// Times a fast/reference pair with per-iteration interleaving and
/// returns (fast ops/s, reference ops/s, speedup). The two closures
/// alternate call by call, so each fast call runs within microseconds
/// of the reference call it is compared against — on a shared 1-core
/// host the absolute timings can swing by tens of percent over tens
/// of milliseconds, and timing the two sides in separate blocks would
/// compare a throttled window against an unthrottled one. The speedup
/// is the median of per-round total-time ratios; throughputs are
/// best-of-rounds. Per-call `Instant` overhead is negligible against
/// the multi-microsecond calls this is used for.
fn time_pair<T, U>(
    iters: usize,
    mut fast: impl FnMut(usize) -> T,
    mut reference: impl FnMut(usize) -> U,
) -> (f64, f64, f64) {
    const ROUNDS: usize = 5;
    let mut best_fast = f64::INFINITY;
    let mut best_ref = f64::INFINITY;
    let mut ratios = [0.0f64; ROUNDS];
    for ratio in &mut ratios {
        let mut tf = 0.0f64;
        let mut tr = 0.0f64;
        for i in 0..iters {
            let t0 = Instant::now();
            std::hint::black_box(fast(i));
            tf += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            std::hint::black_box(reference(i));
            tr += t0.elapsed().as_secs_f64();
        }
        let tf = tf.max(1e-12);
        best_fast = best_fast.min(tf);
        best_ref = best_ref.min(tr);
        *ratio = tr / tf;
    }
    ratios.sort_by(f64::total_cmp);
    (
        iters as f64 / best_fast,
        iters as f64 / best_ref,
        ratios[ROUNDS / 2],
    )
}

#[derive(Debug, Serialize)]
struct RunEntry {
    /// Revision identifier (`SILVASEC_GIT_SHA`, `unknown` if unset).
    git_sha: String,
    /// Run timestamp (`SILVASEC_RUN_TS`, `unspecified` if unset).
    run_ts: String,
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

/// Loads the existing trajectory file and returns its `runs` array.
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
    let digest = h.finalize();
    digest.iter().map(|b| format!("{b:02x}")).collect()
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
    let (bp_fast, bp_naive, bp_speedup) = time_pair(
        iters,
        |i| base.scalar_mul(&scalars[i]),
        |i| base.scalar_mul_naive(&scalars[i]),
    );
    let (win_fast, win_naive, win_speedup) = time_pair(
        iters,
        |i| points[i % 4].scalar_mul(&scalars[i]),
        |i| points[i % 4].scalar_mul_naive(&scalars[i]),
    );
    let (dsm_fast, dsm_naive, dsm_speedup) = time_pair(
        iters,
        |i| base.double_scalar_mul(&scalars[i], &points[i % 4], &scalars[i + 1]),
        |i| base.double_scalar_mul_naive(&scalars[i], &points[i % 4], &scalars[i + 1]),
    );

    eprintln!("crypto_bench: timing Schnorr sign/verify/batch");
    let sk = SigningKey::from_seed(&[0x5Eu8; 32]);
    let vk = sk.verifying_key();
    let msg = b"crypto-bench sign/verify message";
    let sig = sk.sign(msg);
    let (_, sign_per_s) = time_best_of_3(iters, |_| sk.sign(msg));
    let (_, verify_per_s) = time_best_of_3(iters, |_| vk.verify(msg, &sig).unwrap());

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
    let (batch_per_s, _, batch_speedup) = time_pair(
        batch_iters,
        |_| assert!(schnorr::verify_batch(&items)),
        |_| {
            for i in 0..BATCH_SIZE {
                keys[i].verify(&messages[i], &signatures[i]).unwrap();
            }
        },
    );
    let verify_batch16_per_sig_per_s = BATCH_SIZE as f64 * batch_per_s;

    eprintln!("crypto_bench: timing bulk primitives");
    let bulk = vec![0xA5u8; 1 << 20];
    let bulk_iters = if smoke { 2 } else { 8 };
    let (sha_s, _) = time_best_of_3(bulk_iters, |_| sha256::digest(&bulk));
    let cipher = chacha20::ChaCha20::new(&[7u8; 32]);
    let mut stream_buf = bulk.clone();
    let (chacha_s, _) = time_best_of_3(bulk_iters, |_| {
        cipher.apply_keystream(&[9u8; 12], 0, &mut stream_buf);
    });
    let mib = bulk.len() as f64 / (1024.0 * 1024.0);

    let (git_sha, run_ts) = run_keys();
    let entry = RunEntry {
        git_sha,
        run_ts,
        iters,
        basepoint_naf_window: silvasec::crypto::edwards::BASEPOINT_NAF_WINDOW,
        check_digest,
        scalar_mul_basepoint_per_s: bp_fast,
        scalar_mul_basepoint_naive_per_s: bp_naive,
        scalar_mul_basepoint_speedup: bp_speedup,
        scalar_mul_window_per_s: win_fast,
        scalar_mul_window_naive_per_s: win_naive,
        scalar_mul_window_speedup: win_speedup,
        double_scalar_mul_per_s: dsm_fast,
        double_scalar_mul_naive_per_s: dsm_naive,
        double_scalar_mul_speedup: dsm_speedup,
        sign_per_s,
        verify_per_s,
        verify_batch16_per_sig_per_s,
        verify_batch16_speedup: batch_speedup,
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

    append_trajectory_run("BENCH_crypto.json", "silvasec-crypto-trajectory/1", &entry);
}
