//! Captures the toolchain half of the host descriptor at build time:
//! the compiler that built the benchmark and the `target-cpu` it was
//! built for.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    println!("cargo:rustc-env=SILVABENCH_RUSTC={version}");

    // `CARGO_ENCODED_RUSTFLAGS` separates flags with 0x1f; the value
    // after `target-cpu=` is what the code was tuned for.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .filter_map(|f| f.split_once("target-cpu="))
        .map(|(_, cpu)| cpu.to_string())
        .next_back()
        .unwrap_or_else(|| "default".to_string());
    println!("cargo:rustc-env=SILVABENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
