//! End-to-end tests driving the `mbb` binary: every subcommand, both
//! output formats, and the error paths.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn mbb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mbb"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A graph file in the temp dir. Dropping it removes the file and the
/// `.mbbg` cache the binary writes next to it, also when a test fails.
struct TempGraph(PathBuf);

impl Deref for TempGraph {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempGraph {
    fn drop(&mut self) {
        let mut cache = self.0.clone().into_os_string();
        cache.push(".mbbg");
        std::fs::remove_file(cache).ok();
        std::fs::remove_file(&self.0).ok();
    }
}

/// A fresh temp path (the test process id + a tag keeps parallel test
/// binaries apart).
fn temp_path(tag: &str) -> TempGraph {
    let mut path = std::env::temp_dir();
    path.push(format!("mbb-cli-e2e-{}-{tag}.txt", std::process::id()));
    TempGraph(path)
}

/// Writes the paper's Figure 1(b) graph (1-based ids) and returns the path.
fn figure_1b(tag: &str) -> TempGraph {
    let path = temp_path(tag);
    std::fs::write(
        &*path,
        "% bipartite 6 6\n1 1\n2 1\n2 2\n3 2\n3 3\n3 4\n4 3\n4 4\n5 3\n5 4\n6 5\n6 6\n",
    )
    .expect("temp file writes");
    path
}

#[test]
fn solve_default_command() {
    let path = figure_1b("solve");
    let out = mbb(&[path.to_str().unwrap(), "--stats"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2x2"), "{text}");
    assert!(text.contains("stage:"), "{text}");
}

#[test]
fn solve_subcommand_form_matches_legacy() {
    let path = figure_1b("solve-sub");
    let legacy = mbb(&[path.to_str().unwrap(), "--json"]);
    let sub = mbb(&["solve", path.to_str().unwrap(), "--json"]);
    assert!(legacy.status.success() && sub.status.success());
    let mut a: serde_json::Value = serde_json::from_str(&stdout(&legacy)).unwrap();
    let mut b: serde_json::Value = serde_json::from_str(&stdout(&sub)).unwrap();
    // Wall-clock differs between runs; everything else must match.
    a["seconds"] = serde_json::json!(0);
    b["seconds"] = serde_json::json!(0);
    assert_eq!(a, b);
}

#[test]
fn solve_json_has_one_based_ids() {
    let path = figure_1b("json");
    let out = mbb(&[path.to_str().unwrap(), "--json"]);
    let value: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(value["half_size"], 2);
    // The optimum is any 2 of {3,4,5} on the left; the right side is {3,4}.
    for u in value["left"].as_array().unwrap() {
        assert!([3, 4, 5].contains(&u.as_u64().unwrap()), "{value}");
    }
    assert_eq!(value["right"], serde_json::json!([3, 4]));
}

#[test]
fn stats_reports_profile() {
    let path = figure_1b("stats");
    let out = mbb(&["stats", path.to_str().unwrap(), "--full"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("|E| = 12"), "{text}");
    assert!(text.contains("butterflies"), "{text}");
}

#[test]
fn stats_json_is_parseable() {
    let path = figure_1b("stats-json");
    let out = mbb(&["stats", path.to_str().unwrap(), "--json"]);
    let value: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(value["num_edges"], 12);
    assert!(value.get("butterflies").is_none(), "--full not given");
}

#[test]
fn generate_then_solve_round_trip() {
    let path = temp_path("generated");
    let gen = mbb(&[
        "generate",
        path.to_str().unwrap(),
        "--kind",
        "sparse",
        "--left",
        "100",
        "--right",
        "100",
        "--edges",
        "400",
        "--plant",
        "5",
        "--seed",
        "9",
    ]);
    assert!(gen.status.success(), "{}", stderr(&gen));
    let solve = mbb(&[path.to_str().unwrap(), "--json"]);
    assert!(solve.status.success());
    let value: serde_json::Value = serde_json::from_str(&stdout(&solve)).unwrap();
    assert!(value["half_size"].as_u64().unwrap() >= 5);
}

#[test]
fn enumerate_lists_maximal_bicliques() {
    let path = figure_1b("enum");
    let out = mbb(&["enumerate", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    // The block {3,4,5}×{3,4} (1-based) is one of the maximal bicliques.
    assert!(text.contains("[3, 4, 5] x [3, 4]"), "{text}");
}

#[test]
fn topk_ranks_best_first() {
    let path = figure_1b("topk");
    let out = mbb(&["topk", path.to_str().unwrap(), "--k", "2", "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let value: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    let rows = value["bicliques"].as_array().unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0]["balanced_size"], 2);
    assert!(rows[0]["balanced_size"].as_u64() >= rows[1]["balanced_size"].as_u64());
}

/// A `k` far above the number of maximal bicliques returns every one of
/// them, best first, without reserving room for `k` results.
#[test]
fn topk_with_huge_k_returns_the_full_ranking() {
    let path = temp_path("topk-huge-k");
    let file = path.to_str().unwrap();
    let gen = mbb(&[
        "generate", file, "--kind", "uniform", "--left", "20", "--right", "20", "--edges", "80",
        "--seed", "5",
    ]);
    assert!(gen.status.success(), "{}", stderr(&gen));
    let out = mbb(&["topk", file, "--k", "100000000000", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let value: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(value["complete"], true);
    let ranked = value["bicliques"].as_array().unwrap();
    let sizes: Vec<u64> = ranked
        .iter()
        .map(|row| row["balanced_size"].as_u64().unwrap())
        .collect();
    assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{sizes:?}");
    let all = mbb(&["enumerate", file, "--json"]);
    assert!(all.status.success(), "{}", stderr(&all));
    let sides = |row: &serde_json::Value| (row["left"].to_string(), row["right"].to_string());
    let mut got: Vec<_> = ranked.iter().map(sides).collect();
    let mut want: Vec<_> = stdout(&all)
        .lines()
        .map(|line| sides(&serde_json::from_str(line).unwrap()))
        .collect();
    got.sort();
    want.sort();
    assert!(want.len() > 1);
    assert_eq!(got, want);
}

#[test]
fn anchored_requires_valid_vertex() {
    let path = figure_1b("anchored");
    let good = mbb(&["anchored", path.to_str().unwrap(), "--vertex", "L4"]);
    assert!(good.status.success(), "{}", stderr(&good));
    assert!(stdout(&good).contains("2x2"), "{}", stdout(&good));
    let out_of_range = mbb(&["anchored", path.to_str().unwrap(), "--vertex", "L99"]);
    assert!(!out_of_range.status.success());
    assert!(stderr(&out_of_range).contains("out of range"));
}

#[test]
fn frontier_reports_corners() {
    let path = figure_1b("frontier");
    let out = mbb(&["frontier", path.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let value: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(value["mbb_half"], 2);
    assert_eq!(value["complete"], true);
    // The 3×2 block {3,4,5}×{3,4} gives the MEB corner 6 edges.
    assert_eq!(value["meb_edges"], 6);
}

#[test]
fn missing_file_fails_with_message() {
    let out = mbb(&["/nonexistent/graph.txt"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("error"));
    let out = mbb(&["stats", "/nonexistent/graph.txt"]);
    assert!(!out.status.success());
}

#[test]
fn malformed_edge_list_fails() {
    let path = temp_path("malformed");
    std::fs::write(&*path, "1 2\nnot numbers\n").unwrap();
    let out = mbb(&[path.to_str().unwrap()]);
    assert!(!out.status.success());
}

/// A first word that is no command, no flag and no file, followed by a
/// second positional or `--help`, is an unknown command; a lone missing
/// file is still `solve`'s input, which fails with exit code 1.
#[test]
fn unknown_command_exits_2() {
    for (args, word) in [
        (&["frobnicate", "x.txt"][..], "frobnicate"),
        (&["stat", "--help"][..], "stat"),
        (&["stat", "-h"][..], "stat"),
    ] {
        let out = mbb(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains(&format!("unknown command \"{word}\"")),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    let missing = "/nonexistent/mbb-cli-e2e-graph.txt";
    for args in [&[missing][..], &["--json", missing][..]] {
        let out = mbb(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(stderr(&out).contains(missing), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn top_level_help() {
    let out = mbb(&["--help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in [
        "solve",
        "stats",
        "generate",
        "enumerate",
        "topk",
        "anchored",
    ] {
        assert!(text.contains(cmd), "missing {cmd} in help");
    }
}

#[test]
fn no_arguments_prints_usage() {
    let out = mbb(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage"));
}

/// Every row of the command table, read back from the top-level usage:
/// each command prints its usage on `--help` and rejects an unknown flag
/// with exit code 2. The removed knobs (`--threads` on `topk`,
/// `anchored` and `enumerate`; `--deadline-secs`) are unknown options,
/// and `--budget-secs` sets the `hbv` deadline.
#[test]
fn command_table_surface() {
    let help = stdout(&mbb(&["--help"]));
    let names: Vec<&str> = help
        .lines()
        .skip_while(|line| *line != "commands:")
        .skip(1)
        .take_while(|line| !line.is_empty())
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(names.len(), 11, "{help}");
    for name in &names {
        let out = mbb(&[name, "--help"]);
        assert!(out.status.success(), "{name}: {}", stderr(&out));
        assert!(stdout(&out).contains("usage:"), "{name}");
        let out = mbb(&[name, "--frobnicate"]);
        assert_eq!(out.status.code(), Some(2), "{name}");
        assert!(
            stderr(&out).contains("unknown option \"--frobnicate\""),
            "{name}: {}",
            stderr(&out)
        );
    }

    let path = figure_1b("table");
    let file = path.to_str().unwrap();
    for args in [
        vec!["topk", file, "--k", "2", "--threads", "1"],
        vec!["anchored", file, "--vertex", "L1", "--threads", "1"],
        vec!["enumerate", file, "--threads", "1"],
        vec![file, "--deadline-secs", "5"],
    ] {
        let out = mbb(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("unknown option"), "{args:?}");
    }
    let out = mbb(&[file, "--budget-secs", "5", "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let value: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(value["timed_out"], false);
    assert_eq!(value["half_size"], 2);
}

/// `--budget-secs` bounds every algorithm, `dense` and `basic` included: a
/// zero budget marks their answers as lower bounds, and each answer is
/// still a balanced biclique of the input.
#[test]
fn zero_budget_times_out_dense_and_basic() {
    let path = figure_1b("zero-budget");
    let file = path.to_str().unwrap();
    let text = std::fs::read_to_string(&*path).unwrap();
    let edges: Vec<(u64, u64)> = text
        .lines()
        .filter(|line| !line.starts_with('%'))
        .map(|line| {
            let mut ids = line.split_whitespace().map(|id| id.parse().unwrap());
            (ids.next().unwrap(), ids.next().unwrap())
        })
        .collect();
    for algorithm in ["dense", "basic"] {
        let out = mbb(&[
            file,
            "--algorithm",
            algorithm,
            "--budget-secs",
            "0",
            "--json",
        ]);
        assert!(out.status.success(), "{algorithm}: {}", stderr(&out));
        let value: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
        assert_eq!(value["timed_out"], true, "{algorithm}");
        let ids = |side: &str| -> Vec<u64> {
            let ids = value[side].as_array().unwrap();
            ids.iter().map(|id| id.as_u64().unwrap()).collect()
        };
        let (left, right) = (ids("left"), ids("right"));
        assert_eq!(left.len(), right.len(), "{algorithm}");
        for &u in &left {
            for &v in &right {
                assert!(
                    edges.contains(&(u, v)),
                    "{algorithm}: ({u}, {v}) is no edge"
                );
            }
        }
    }
}
