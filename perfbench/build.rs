//! Stamps the binary with the toolchain, build profile and source
//! revision it was built from, so every result names them.

use std::process::Command;

fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output_of(&rustc, &["-V"]).unwrap_or_else(|| "unknown".to_string());
    // Benchmark checkouts are often plain file trees; say so rather than
    // fail, and never report the revision of some enclosing repository.
    let revision = std::path::Path::new("../.git")
        .exists()
        .then(|| output_of("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REVISION={revision}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-stamp after a commit, but only watch files that exist: a watched
    // path that is missing would re-run this script on every build.
    let head = std::path::Path::new("../.git/HEAD");
    if head.exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        let target = std::fs::read_to_string(head).unwrap_or_default();
        if let Some(reference) = target.trim().strip_prefix("ref: ") {
            let path = format!("../.git/{reference}");
            if std::path::Path::new(&path).exists() {
                println!("cargo:rerun-if-changed={path}");
            }
        }
    }
}
