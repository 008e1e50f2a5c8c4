//! `mbb-lint` — the workspace's self-contained static-analysis pass.
//!
//! Run from anywhere in the workspace:
//!
//! ```text
//! cargo run -p mbb-lint -- --workspace
//! ```
//!
//! No external parser, no network, no extra dependencies: a line-level
//! lexer ([`lexer`]) feeds six textual rules ([`rules`]) tuned to this
//! codebase's concurrency conventions. Diagnostics print one per line as
//! `file:line: [rule-id] message`; the exit code is non-zero when any
//! finding survives its suppressions, so CI can gate on it.
//!
//! Suppress a single site with `// mbb-lint: allow(<rule-id>) <reason>`
//! on the same line or the line directly above — the reason is
//! mandatory. See `docs/CONCURRENCY.md` for the rule catalogue and how
//! to add a rule.

mod lexer;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rules::{Finding, LockClass};

/// Wire-facing serve sources, plus the request and routing code every
/// admitted request runs: a panic here kills a worker serving a
/// socket/stdin session instead of producing an error line.
const WIRE_FILES: [&str; 6] = [
    "crates/serve/src/jsonl.rs",
    "crates/serve/src/stream.rs",
    "crates/serve/src/socket.rs",
    "crates/serve/src/mux.rs",
    "crates/serve/src/request.rs",
    "crates/serve/src/fleet.rs",
];

/// Solver hot-loop files: per-node work lives here, so raw wall-clock
/// reads belong behind the sampled `SearchBudget`.
const HOT_LOOP_FILES: [&str; 2] = ["crates/core/src/enumerate.rs", "crates/core/src/solver.rs"];

/// Solver inner-loop files: span/timer construction here would run per
/// search node — instrumentation stays at the stage boundaries one
/// level up (`solver.rs`, `engine.rs`).
const OBS_HOT_FILES: [&str; 2] = ["crates/core/src/dense.rs", "crates/core/src/enumerate.rs"];

/// Kernel-hot solver files: bitset intersect+len pairs here must go
/// through the fused kernel layer (`crates/bigraph/src/kernels.rs`), not
/// two passes over the words. Bridging's per-centre greedy runs bitset
/// kernels in its step loop, so its files are listed too.
const KERNEL_FILES: [&str; 4] = [
    "crates/core/src/dense.rs",
    "crates/core/src/verify.rs",
    "crates/core/src/bridge.rs",
    "crates/core/src/heuristic.rs",
];

/// The file lists of the per-file rules above.
const LISTS: [&[&str]; 4] = [&WIRE_FILES, &HOT_LOOP_FILES, &OBS_HOT_FILES, &KERNEL_FILES];

fn usage() -> &'static str {
    "usage: mbb-lint [--workspace] [--root <dir>]\n\n\
     Scans the workspace's crates/ tree (skipping vendor/ and target/)\n\
     and reports rule findings as `file:line: [rule-id] message`.\n\
     Exits 1 when any finding is reported, 2 when docs/lock_order.txt\n\
     or a file a rule lists is missing.\n\n\
     options:\n\
       --workspace    scan the whole workspace (the default; accepted\n\
                      for symmetry with cargo's own flags)\n\
       --root <dir>   workspace root to scan (default: the root this\n\
                      binary was built in)"
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("mbb-lint: --root needs a directory\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("mbb-lint: unknown argument `{other}`\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    // Default root: the workspace this binary was compiled from —
    // CARGO_MANIFEST_DIR is crates/lint, two levels below the root.
    let root = root.unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });

    match run(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("mbb-lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for finding in &findings {
                println!("{finding}");
            }
            println!("mbb-lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("mbb-lint: {message}");
            ExitCode::from(2)
        }
    }
}

/// Scans `root` and returns all findings, sorted by file then line.
fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let lock_order_path = root.join("docs/lock_order.txt");
    let lock_classes: Vec<LockClass> = match std::fs::read_to_string(&lock_order_path) {
        Ok(text) => rules::parse_lock_order(&text)?,
        Err(e) => {
            return Err(format!(
                "cannot read {} ({e}) — the lock-order contract is part of the \
                 workspace and must exist",
                lock_order_path.display()
            ))
        }
    };

    // A listed file that moved or was renamed would lose its rules
    // silently, so every listed path must exist.
    let mut missing = LISTS.concat();
    missing.retain(|rel| !root.join(rel).is_file());
    missing.sort_unstable();
    missing.dedup();
    if !missing.is_empty() {
        return Err(format!(
            "listed file(s) not found: {} — update the file lists in \
             crates/lint/src/main.rs when a file moves",
            missing.join(", ")
        ));
    }

    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    collect_rust_files(&crates_dir, &mut files)
        .map_err(|e| format!("walking {}: {e}", crates_dir.display()))?;
    files.sort();

    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(path).map_err(|e| format!("reading {rel}: {e}"))?;
        // Integration tests are test code wholesale.
        let whole_file_is_test = rel.split('/').any(|c| c == "tests");
        let lines = lexer::analyze(&source, whole_file_is_test);

        rules::check_relaxed_justify(&rel, &lines, &mut findings);
        if WIRE_FILES.contains(&rel.as_str()) {
            rules::check_wire_panic(&rel, &lines, &mut findings);
        }
        if HOT_LOOP_FILES.contains(&rel.as_str()) {
            rules::check_hot_clock(&rel, &lines, &mut findings);
        }
        if OBS_HOT_FILES.contains(&rel.as_str()) {
            rules::check_obs_hot_clock(&rel, &lines, &mut findings);
        }
        if KERNEL_FILES.contains(&rel.as_str()) {
            rules::check_kernel_scalar(&rel, &lines, &mut findings);
        }
        rules::check_lock_order(&rel, &lines, &lock_classes, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// Recursively collects `.rs` files, skipping build output, vendored
/// dependencies, and VCS metadata.
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | ".git") {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: the shipped workspace must lint clean — this is the
    /// same invariant CI enforces via `cargo run -p mbb-lint`.
    #[test]
    fn shipped_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = run(&root).expect("lint run succeeds");
        assert!(
            findings.is_empty(),
            "workspace has lint findings:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn missing_lock_order_contract_is_an_error() {
        let err = run(Path::new("/nonexistent-root")).unwrap_err();
        assert!(err.contains("lock_order"), "{err}");
    }

    #[test]
    fn missing_listed_file_is_an_error() {
        // A temporary root with the lock-order contract and an empty file
        // at every listed path lints clean; deleting one listed file makes
        // the run fail and name exactly that file.
        let root = std::env::temp_dir().join(format!("mbb-lint-listed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("docs")).unwrap();
        std::fs::write(root.join("docs/lock_order.txt"), "").unwrap();
        for rel in LISTS.concat() {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, "").unwrap();
        }
        let complete = run(&root);
        let absent = "crates/core/src/verify.rs";
        std::fs::remove_file(root.join(absent)).unwrap();
        let incomplete = run(&root);
        std::fs::remove_dir_all(&root).unwrap();

        assert!(complete.expect("all listed files exist").is_empty());
        let err = incomplete.unwrap_err();
        assert!(err.contains(absent), "{err}");
        for rel in LISTS.concat().into_iter().filter(|&rel| rel != absent) {
            assert!(!err.contains(rel), "{rel} exists: {err}");
        }
    }
}
