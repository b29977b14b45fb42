//! Captures the toolchain and source revision for the run header.

use std::process::Command;

fn capture(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // A source tree exported without its git metadata has no commit.
    let commit = capture("git", &["rev-parse", "--short=12", "HEAD"])
        .map(|c| {
            let dirty = capture("git", &["status", "--porcelain", "--untracked-files=no"]);
            if dirty.is_some() {
                format!("{c}-dirty")
            } else {
                c
            }
        })
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
}
