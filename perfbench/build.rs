//! Bakes the provenance a run reports into the binary: the compiler's
//! version and, when the source tree is a git checkout, its commit.
//! `.git` is read as plain files so the build spawns no `git` process.

use std::fs;
use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit(Path::new("../.git"))
    );
}

/// The commit `HEAD` names, or a note that there is none.
fn commit(git: &Path) -> String {
    let head_path = git.join("HEAD");
    let Ok(head) = fs::read_to_string(&head_path) else {
        return "unknown (not a git checkout)".to_string();
    };
    println!("cargo:rerun-if-changed={}", head_path.display());
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let loose = git.join(reference);
    if loose.exists() {
        println!("cargo:rerun-if-changed={}", loose.display());
        if let Ok(id) = fs::read_to_string(&loose) {
            return id.trim().to_string();
        }
    }
    let packed = git.join("packed-refs");
    println!("cargo:rerun-if-changed={}", packed.display());
    fs::read_to_string(&packed)
        .ok()
        .and_then(|text| {
            text.lines()
                .filter_map(|line| line.split_once(' '))
                .find(|(_, name)| *name == reference)
                .map(|(id, _)| id.to_string())
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}
