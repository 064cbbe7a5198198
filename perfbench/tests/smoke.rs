//! Runs every workload, untraced and traced, at smoke size with all its
//! correctness checks: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The target directory this test was built into
/// (`<target>/<profile>/deps/<test binary>`).
fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    exe.ancestors()
        .nth(3)
        .expect("test binary sits three levels below the target directory")
        .to_path_buf()
}

/// Builds the release `explain3d-serve` binary the serve workloads spawn.
fn build_server(target: &Path) -> PathBuf {
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repository");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "explain3d-service",
            "--bin",
            "explain3d-serve",
        ])
        .arg("--target-dir")
        .arg(target)
        .current_dir(root)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building explain3d-serve failed");
    target.join("release").join("explain3d-serve")
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    let target = target_dir();
    let server = build_server(&target);
    for workload in ["explain_batch", "serve_deltas", "serve_reads"] {
        for trace in ["0", "1"] {
            let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .arg("--server")
                .arg(&server)
                .arg("--work-dir")
                .arg(target.join("perfbench-smoke"))
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                output.status.success(),
                "{workload} trace={trace} failed:\n{stdout}\n{stderr}"
            );
            let last = stdout.lines().last().unwrap_or_default();
            assert!(last.starts_with("{\"correct\": true"), "{workload} trace={trace}: {last}");
        }
    }
}
