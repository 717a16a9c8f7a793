//! Robustness fuzzing: every network-facing decoder must reject arbitrary
//! bytes gracefully — no panics, no unbounded allocation — because the
//! radio medium delivers whatever an attacker transmits.

use proptest::prelude::*;
use silvasec::channel::messages::{Finished, Hello, Reply};
use silvasec::crypto::edwards::EdwardsPoint;
use silvasec::crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use silvasec::fleet::{chunk_payloads, ChunkHeader, Reassembly, UpdateBundle, UpdateManifest};
use silvasec::machines::sensors::{detections_from_json, detections_to_json, Detection};
use silvasec::prelude::*;
use std::sync::OnceLock;

/// Bytes a mutation writes: the JSON grammar's own alphabet, so flips
/// land on near-canonical encodings instead of only on garbage.
const JSON_ALPHABET: &[u8] = b"0123456789-+.eE,:{}[]\"nulxy_ ";

/// Mutates non-empty canonical `bytes` in one of four ways: byte flips
/// (a grammar byte or xor `noise`), truncation, a splice of the input
/// itself at another offset, or a splice of grammar bytes.
fn mutate(bytes: &mut Vec<u8>, kind: u8, at: usize, noise: &[u8]) {
    let len = bytes.len();
    match kind {
        0 => {
            for (k, &n) in noise.iter().enumerate() {
                let i = at.wrapping_add(k.wrapping_mul(7_919)) % len;
                bytes[i] = if n % 2 == 0 {
                    JSON_ALPHABET[usize::from(n / 2) % JSON_ALPHABET.len()]
                } else {
                    bytes[i] ^ n
                };
            }
        }
        1 => bytes.truncate(at % (len + 1)),
        2 => {
            let from = at % len;
            let chunk = bytes[from..(from + usize::from(noise[0])).min(len)].to_vec();
            let to = at.rotate_left(17) % (len + 1);
            bytes.splice(to..to, chunk);
        }
        _ => {
            let to = at % (len + 1);
            let chunk = noise
                .iter()
                .map(|&n| JSON_ALPHABET[usize::from(n) % JSON_ALPHABET.len()]);
            bytes.splice(to..to, chunk);
        }
    }
}

/// Version of the fuzzed bundle; sites run the version below it.
const BUNDLE_VERSION: u32 = 7;

/// One canonical signed update bundle and the trust store anchoring it,
/// built once: every fuzz case mutates its encoding.
fn signed_bundle() -> &'static (UpdateBundle, TrustStore) {
    static BUNDLE: OnceLock<(UpdateBundle, TrustStore)> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let mut ca =
            CertificateAuthority::new_root("fleet-root", &[1u8; 32], Validity::new(0, 1 << 40));
        let signer = SigningKey::from_seed(&[2u8; 32]);
        let leaf = ca.issue_mut(
            &Subject::new("fleet-fw-signer", ComponentRole::FirmwareSigner),
            &signer.verifying_key(),
            KeyUsage::FIRMWARE_SIGNING,
            Validity::new(0, 1 << 40),
        );
        let images = [FirmwareStage::Bootloader, FirmwareStage::Application]
            .into_iter()
            .map(|stage| {
                FirmwareImage::new("forwarder-fw", stage, BUNDLE_VERSION, vec![0xA5; 48])
                    .sign(&signer)
            })
            .collect();
        let manifest = UpdateManifest {
            component_id: "forwarder-fw".into(),
            version: BUNDLE_VERSION,
            channel: "stable".into(),
            released_at_ms: 1_000,
        };
        (
            UpdateBundle::build(manifest, images, vec![leaf], &signer),
            TrustStore::with_roots([ca.certificate().clone()]),
        )
    })
}

/// Decodes `bytes` as a bundle; a bundle that decodes *and* verifies
/// must be the original (a mutation may only land in redundant
/// encoding, never forge content).
fn decode_fails_closed(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (original, store) = signed_bundle();
    if let Ok(decoded) = UpdateBundle::decode(bytes) {
        if decoded
            .verify(store, 1_000, "forwarder-fw", BUNDLE_VERSION - 1)
            .is_ok()
        {
            prop_assert_eq!(&decoded, original, "a mutated bundle verified");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn handshake_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Hello::decode(&bytes);
        let _ = Reply::decode(&bytes);
        let _ = Finished::decode(&bytes);
    }

    #[test]
    fn record_layer_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let keys = silvasec::channel::session::SessionKeys {
            send_key: [1u8; 32],
            recv_key: [2u8; 32],
        };
        let mut session = Session::new(keys, "peer".into());
        prop_assert!(session.open(&bytes).is_err(), "random bytes must never authenticate");
    }

    #[test]
    fn point_decoding_never_panics(bytes in any::<[u8; 64]>()) {
        let _ = EdwardsPoint::decode(&bytes);
        let _ = VerifyingKey::from_bytes(&bytes);
    }

    #[test]
    fn drone_feed_decoder_fails_closed_on_mutated_feeds(
        ids in proptest::collection::vec(any::<u32>(), 0..4),
        coords in proptest::collection::vec(any::<f64>(), 8..9),
        units in proptest::collection::vec(any::<u64>(), 8..9),
        kind in 0u8..4,
        at in any::<usize>(),
        noise in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        let unit = |i: usize| units[i] as f64 / u64::MAX as f64;
        let feed: Vec<Detection> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| Detection {
                human_id: HumanId(id),
                position: Vec2::new(coords[2 * i], coords[2 * i + 1]),
                confidence: unit(2 * i),
                distance_m: unit(2 * i + 1) * 80.0,
            })
            .collect();
        let mut bytes = Vec::new();
        detections_to_json(&feed, &mut bytes);
        mutate(&mut bytes, kind, at, &noise);
        let mut decoded = Vec::new();
        if detections_from_json(&bytes, &mut decoded) {
            for d in &decoded {
                prop_assert!(
                    d.position.x.is_finite()
                        && d.position.y.is_finite()
                        && (0.0..=1.0).contains(&d.confidence)
                        && d.distance_m >= 0.0
                        && d.distance_m.is_finite(),
                    "accepted out-of-domain detection {:?} from {:?}",
                    d,
                    String::from_utf8_lossy(&bytes)
                );
            }
        } else {
            prop_assert!(decoded.is_empty());
        }
    }

    #[test]
    fn signature_parsing_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Signature::from_bytes(&bytes);
    }

    #[test]
    fn random_signatures_never_verify(
        seed in any::<[u8; 32]>(),
        sig_bytes in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Construct a structurally valid signature from a random point and
        // scalar; it must still fail verification.
        let sk = silvasec::crypto::schnorr::SigningKey::from_seed(&seed);
        let vk = sk.verifying_key();
        let r_point = EdwardsPoint::basepoint()
            .scalar_mul(&silvasec::crypto::scalar::Scalar::from_bytes_mod_order(&sig_bytes));
        let forged = Signature {
            r_bytes: r_point.encode(),
            s_bytes: silvasec::crypto::scalar::Scalar::from_bytes_mod_order(&sig_bytes).to_bytes(),
        };
        prop_assert!(vk.verify(&msg, &forged).is_err());
    }

}

proptest! {
    // A decoded mutant is verified (debug-mode signature checks): keep
    // the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn update_bundle_decoder_fails_closed_on_mutated_bundles(
        kind in 0u8..4,
        at in any::<usize>(),
        noise in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        let mut bytes = signed_bundle().0.encode();
        mutate(&mut bytes, kind, at, &noise);
        decode_fails_closed(&bytes)?;
    }

    #[test]
    fn chunk_reassembly_fails_closed_on_mutated_chunks(
        victim in any::<usize>(),
        kind in 0u8..4,
        at in any::<usize>(),
        noise in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        const UPDATE_ID: u32 = 42;
        let mut chunks = chunk_payloads(UPDATE_ID, &signed_bundle().0.encode(), 256);
        let count = chunks.len() as u16;
        let victim = victim % chunks.len();
        mutate(&mut chunks[victim], kind, at, &noise);
        let mut reassembly = Reassembly::new(UPDATE_ID, count);
        for payload in &chunks {
            if let Some((header, data)) = ChunkHeader::decode(payload) {
                if reassembly.accept(header, data) {
                    prop_assert!(
                        header.update_id == UPDATE_ID && header.count == count && header.index < count,
                        "accepted foreign or out-of-range chunk {:?}",
                        header
                    );
                }
            }
        }
        if let Some(bytes) = reassembly.assemble() {
            decode_fails_closed(&bytes)?;
        }
    }
}

proptest! {
    // A full PKI + handshake per case: keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn corrupted_handshake_replies_rejected(
        flip in any::<usize>(),
        bit in 0u8..8,
    ) {
        // A bit-flipped (but structurally plausible) reply must never
        // complete a handshake.
        let mut root = CertificateAuthority::new_root("root", &[1u8; 32], Validity::new(0, 1_000));
        let store = TrustStore::with_roots([root.certificate().clone()]);
        let make = |id: &str, role, s: u8, root: &mut CertificateAuthority| {
            let key = silvasec::crypto::schnorr::SigningKey::from_seed(&[s; 32]);
            let cert = root.issue_mut(
                &Subject::new(id, role),
                &key.verifying_key(),
                KeyUsage::AUTHENTICATION,
                Validity::new(0, 500),
            );
            Identity::new(vec![cert], key)
        };
        let a = make("a", ComponentRole::Forwarder, 2, &mut root);
        let b = make("b", ComponentRole::BaseStation, 3, &mut root);
        let policy = HandshakePolicy::new(store, 100);
        let (init, hello) = Initiator::start(a, [4u8; 32], [5u8; 32]);
        let (_, reply) = Responder::respond(b, &policy, &hello, [6u8; 32], [7u8; 32]).unwrap();
        let mut bad = reply.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 1 << bit;
        prop_assert!(bad == reply || init.finish(&policy, &bad).is_err());
    }
}
