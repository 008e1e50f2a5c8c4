//! Regenerates the entire `results/` directory: every table and figure
//! binary, each teed to its Markdown file.
//!
//! ```text
//! cargo run -p mbb-bench --release --bin all -- [--out results]
//!     [--quick] [--budget-secs N] [--caps small|default|large] [--seed N]
//! ```
//!
//! `--caps` and `--seed` go to every binary, `--budget-secs` to every one
//! but `fig7_scaling`, which takes no budget.
//!
//! `--quick` trades fidelity for wall time (small caps, 10 s budgets,
//! table4 capped at 128²) — useful as a smoke pass; drop it for the
//! numbers quoted in EXPERIMENTS.md.

use std::path::Path;
use std::process::Command;

use mbb_bench::{exit_usage, Args};

/// The harness binaries, in regeneration order.
const TARGETS: &[&str] = &[
    "table4",
    "table5",
    "table6",
    "fig4",
    "fig5",
    "fig6",
    "fig7_scaling",
    "profiles",
];

fn main() {
    let args = Args::from_env(&["budget-secs", "out"], &["quick"]);
    let out_dir = args.get("out").unwrap_or("results").to_string();
    let quick = args.flag("quick");
    // A malformed flag fails here, once, instead of in every child.
    args.budget(0).unwrap_or_else(exit_usage);
    args.caps().unwrap_or_else(exit_usage);
    std::fs::create_dir_all(&out_dir).expect("results directory is creatable");

    // Arguments forwarded to every child; `--budget-secs` is added per child.
    let budget = args.get("budget-secs").or(quick.then_some("10"));
    let mut forwarded: Vec<String> = Vec::new();
    if let Some(caps) = args.get("caps") {
        forwarded.extend(["--caps".into(), caps.into()]);
    } else if quick {
        forwarded.extend(["--caps".into(), "small".into()]);
    }
    forwarded.extend([
        "--seed".into(),
        args.seed().unwrap_or_else(exit_usage).to_string(),
    ]);

    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin directory");

    let mut failures = Vec::new();
    for &target in TARGETS {
        let binary = bin_dir.join(target);
        if !binary.exists() {
            eprintln!(
                "skipping {target}: {} not built (run with --release --bins)",
                binary.display()
            );
            failures.push(target);
            continue;
        }
        let mut child_args = forwarded.clone();
        if let Some(budget) = budget.filter(|_| target != "fig7_scaling") {
            child_args.extend(["--budget-secs".into(), budget.into()]);
        }
        if quick && target == "table4" {
            child_args.extend(["--sizes".into(), "64".into(), "--reps".into(), "1".into()]);
        }
        print!("running {target} ... ");
        let output = Command::new(&binary)
            .args(&child_args)
            .output()
            .expect("child spawns");
        let out_path = Path::new(&out_dir).join(format!("{target}.md"));
        std::fs::write(&out_path, &output.stdout).expect("result file writes");
        if output.status.success() {
            println!("ok → {}", out_path.display());
        } else {
            println!("FAILED (exit {:?})", output.status.code());
            eprintln!("{}", String::from_utf8_lossy(&output.stderr));
            failures.push(target);
        }
    }

    if failures.is_empty() {
        println!(
            "\nall {} artefacts regenerated into {out_dir}/",
            TARGETS.len()
        );
    } else {
        println!("\n{} artefact(s) failed: {failures:?}", failures.len());
        std::process::exit(1);
    }
}
