//! Records the compiler version and the source commit for the host
//! fingerprint every result carries.

use std::path::Path;
use std::process::Command;

fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().replace('"', "'"))
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // Ask git only when the repository root itself is a git checkout, so
    // a copy nested inside some other repository never borrows its commit.
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_default();
    let root = Path::new(&manifest_dir).join("..");
    let commit = root
        .join(".git")
        .exists()
        .then(|| {
            output_of(
                "git",
                &[
                    "-C",
                    &root.to_string_lossy(),
                    "rev-parse",
                    "--short=12",
                    "HEAD",
                ],
            )
        })
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    for moved_on_commit in ["HEAD", "logs/HEAD"] {
        let path = root.join(".git").join(moved_on_commit);
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
}
