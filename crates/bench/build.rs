//! Captures the toolchain half of the trajectory host descriptor at
//! build time: the compiler that built the bench binaries and the
//! `target-cpu` they were built for.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    println!("cargo:rustc-env=SILVASEC_BENCH_RUSTC={version}");

    // `CARGO_ENCODED_RUSTFLAGS` separates flags with 0x1f; the last
    // `target-cpu=` value wins, as it does for rustc.
    let target_cpu = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .split('\x1f')
        .filter_map(|f| f.split_once("target-cpu=").map(|(_, cpu)| cpu.to_string()))
        .next_back()
        .unwrap_or_else(|| "default".into());
    println!("cargo:rustc-env=SILVASEC_BENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
