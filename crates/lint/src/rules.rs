//! The six workspace rules, each with a stable id used in diagnostics
//! and in `// mbb-lint: allow(<id>) <reason>` suppressions:
//!
//! * `relaxed-justify` — every `Ordering::Relaxed` in production code
//!   carries a `// relaxed:` justification comment (same line, or within
//!   [`JUSTIFY_WINDOW`] lines above the site's contiguous run).
//! * `wire-panic` — no panicking constructs in the code that handles
//!   outside input (the wire-facing serve sources, the `mbb` argv
//!   parser) outside `#[cfg(test)]`.
//! * `hot-clock` — no raw `Instant::now()` / `thread::sleep` in solver
//!   hot-loop files; deadlines go through the sampled `SearchBudget`.
//! * `obs-hot-clock` — no span/timer construction (`obs::span*`,
//!   `obs::record*`, `Histogram::record_duration`, any `mbb_obs::` use)
//!   in the solver's inner-loop files; spans belong at stage
//!   boundaries (`solver.rs`, `engine.rs`), where one record covers
//!   millions of nodes.
//! * `lock-order` — lock classes from `docs/lock_order.txt` must be
//!   acquired in listed order within a function.
//! * `kernel-scalar` — in kernel-hot solver files, an `.intersect_with(`
//!   followed within [`KERNEL_WINDOW`] lines by `.len()` on the same
//!   receiver must be fused into one kernel pass
//!   (`BitSet::and_assign_count` / `intersection_len`).
//!
//! Plus `suppression-reason`, emitted when a suppression comment omits
//! its mandatory reason text.

use crate::lexer::SourceLine;

/// How many code (or blank) lines above a `Ordering::Relaxed` run a
/// `// relaxed:` comment may sit and still justify it. Comment-only
/// lines are free — a long justification block never pushes its own
/// first line out of the window. Four code lines accommodate the
/// builder-style `self.counters.x.fetch_add(...)` expressions that wrap
/// across lines.
pub const JUSTIFY_WINDOW: usize = 4;

/// One diagnostic. Rendered as `file:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable rule id.
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One class in the lock-order contract (see `docs/lock_order.txt`).
#[derive(Debug, Clone)]
pub struct LockClass {
    pub name: String,
    pub patterns: Vec<String>,
}

/// Parses `docs/lock_order.txt`: one `name: pat | pat` line per class,
/// `#` comments and blank lines ignored. Order of appearance IS the
/// acquisition order.
pub fn parse_lock_order(text: &str) -> Result<Vec<LockClass>, String> {
    let mut classes = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, rest)) = line.split_once(':') else {
            return Err(format!(
                "lock_order.txt:{}: expected `name: patterns`",
                i + 1
            ));
        };
        let patterns: Vec<String> = rest
            .split('|')
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
            .collect();
        if patterns.is_empty() {
            return Err(format!("lock_order.txt:{}: class with no patterns", i + 1));
        }
        classes.push(LockClass {
            name: name.trim().to_string(),
            patterns,
        });
    }
    Ok(classes)
}

/// The result of checking a candidate finding against the suppression
/// comments around it.
enum Suppression {
    /// No suppression — report the finding.
    None,
    /// Valid `allow` with a reason — drop the finding.
    Allowed,
    /// `allow` present but reason missing — report *that* instead.
    MissingReason(usize),
}

/// Looks for `mbb-lint: allow(<rule>)` in the comments of `line` and the
/// line directly above it. The text after the closing paren is the
/// mandatory reason.
fn suppression(lines: &[SourceLine], idx: usize, rule: &str) -> Suppression {
    let needle = format!("mbb-lint: allow({rule})");
    for look in [Some(idx), idx.checked_sub(1)].into_iter().flatten() {
        let comment = &lines[look].comment;
        if let Some(at) = comment.find(&needle) {
            let reason = comment[at + needle.len()..].trim();
            return if reason.is_empty() {
                Suppression::MissingReason(lines[look].number)
            } else {
                Suppression::Allowed
            };
        }
    }
    Suppression::None
}

/// Pushes `candidate` unless suppressed; a reason-less suppression is
/// itself a finding.
fn emit(lines: &[SourceLine], idx: usize, candidate: Finding, out: &mut Vec<Finding>) {
    match suppression(lines, idx, candidate.rule) {
        Suppression::None => out.push(candidate),
        Suppression::Allowed => {}
        Suppression::MissingReason(line) => out.push(Finding {
            file: candidate.file,
            line,
            rule: "suppression-reason",
            message: format!(
                "suppression for `{}` must state a reason after the closing paren",
                candidate.rule
            ),
        }),
    }
}

/// `relaxed-justify`: every production `Ordering::Relaxed` needs a
/// `relaxed:` comment on the same line, or within [`JUSTIFY_WINDOW`]
/// lines above the start of its contiguous run of Relaxed lines (so one
/// comment covers a block of consecutive sites, e.g. a stats snapshot).
pub fn check_relaxed_justify(file: &str, lines: &[SourceLine], out: &mut Vec<Finding>) {
    for idx in 0..lines.len() {
        let line = &lines[idx];
        if line.in_test || !line.code.contains("Ordering::Relaxed") {
            continue;
        }
        if line.comment.contains("relaxed:") {
            continue;
        }
        // Walk to the start of the contiguous run of Relaxed lines.
        let mut start = idx;
        while start > 0 && lines[start - 1].code.contains("Ordering::Relaxed") {
            start -= 1;
        }
        // Scan upward: comment-only lines are free, code/blank lines
        // consume the window.
        let mut justified = false;
        let mut budget = JUSTIFY_WINDOW;
        let mut j = start;
        while j > 0 && budget > 0 {
            j -= 1;
            if lines[j].comment.contains("relaxed:") {
                justified = true;
                break;
            }
            let comment_only = lines[j].code.trim().is_empty() && !lines[j].comment.is_empty();
            if !comment_only {
                budget -= 1;
            }
        }
        if justified {
            continue;
        }
        emit(
            lines,
            idx,
            Finding {
                file: file.to_string(),
                line: line.number,
                rule: "relaxed-justify",
                message: "Ordering::Relaxed without a `// relaxed:` justification \
                          (same line or in a comment just above the site)"
                    .to_string(),
            },
            out,
        );
    }
}

const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// `wire-panic`: code that handles outside input must report a typed
/// error, not panic (a panic aborts a serve worker, or the `mbb`
/// process). Applies to non-test lines of the configured files.
pub fn check_wire_panic(file: &str, lines: &[SourceLine], out: &mut Vec<Finding>) {
    for idx in 0..lines.len() {
        let line = &lines[idx];
        if line.in_test {
            continue;
        }
        for token in PANIC_TOKENS {
            if line.code.contains(token) {
                emit(
                    lines,
                    idx,
                    Finding {
                        file: file.to_string(),
                        line: line.number,
                        rule: "wire-panic",
                        message: format!(
                            "`{token}` in code that handles outside input — return a \
                             typed error instead of panicking"
                        ),
                    },
                    out,
                );
                break; // one diagnostic per line is enough
            }
        }
    }
}

const CLOCK_TOKENS: [&str; 2] = ["Instant::now(", "thread::sleep("];

/// `hot-clock`: solver hot loops must consult the sampled `SearchBudget`
/// rather than the raw wall clock (one `Instant::now()` per node is a
/// measurable tax; `thread::sleep` has no business in a search at all).
pub fn check_hot_clock(file: &str, lines: &[SourceLine], out: &mut Vec<Finding>) {
    for idx in 0..lines.len() {
        let line = &lines[idx];
        if line.in_test {
            continue;
        }
        for token in CLOCK_TOKENS {
            if line.code.contains(token) {
                emit(
                    lines,
                    idx,
                    Finding {
                        file: file.to_string(),
                        line: line.number,
                        rule: "hot-clock",
                        message: format!(
                            "raw `{token})` in a solver hot-loop file — route deadlines \
                             through the sampled SearchBudget (crates/core/src/budget.rs)"
                        ),
                    },
                    out,
                );
                break;
            }
        }
    }
}

/// Span/timer constructions that have no business inside the per-node
/// loops: each one is a clock read (or two) plus a ring push.
const OBS_TOKENS: [&str; 6] = [
    "obs::span(",
    "obs::span_for(",
    "obs::record(",
    "obs::record_for(",
    ".record_duration(",
    "mbb_obs",
];

/// `obs-hot-clock`: the observability facade is cheap, but not
/// per-search-node cheap — a span is two `Instant::now()` calls and a
/// ring push. In the solver's inner-loop files every line runs millions
/// of times, so instrumentation must stay at the stage boundaries one
/// level up. Same suppression mechanics as `hot-clock`.
pub fn check_obs_hot_clock(file: &str, lines: &[SourceLine], out: &mut Vec<Finding>) {
    for idx in 0..lines.len() {
        let line = &lines[idx];
        if line.in_test {
            continue;
        }
        for token in OBS_TOKENS {
            if line.code.contains(token) {
                emit(
                    lines,
                    idx,
                    Finding {
                        file: file.to_string(),
                        line: line.number,
                        rule: "obs-hot-clock",
                        message: format!(
                            "`{token}..` in a solver inner-loop file — record the span \
                             at the stage boundary (solver.rs/engine.rs) instead; a \
                             per-node span is a clock read plus a ring push"
                        ),
                    },
                    out,
                );
                break;
            }
        }
    }
}

/// `lock-order`: within one function, after a **held** (`let`-bound)
/// acquisition of a later class, any acquisition of an earlier class is
/// a violation. Transient acquisitions (guard dropped within its own
/// statement, e.g. `x.state.lock().n += 1;`) never count as held but do
/// count as acquisitions.
pub fn check_lock_order(
    file: &str,
    lines: &[SourceLine],
    classes: &[LockClass],
    out: &mut Vec<Finding>,
) {
    // (class index, line number) of held acquisitions in the current fn.
    let mut held: Vec<(usize, usize)> = Vec::new();
    for idx in 0..lines.len() {
        let line = &lines[idx];
        if line.in_test {
            continue;
        }
        let code = line.code.trim_start();
        // Function boundary heuristic: a new `fn` resets the held set.
        if code.contains("fn ") && code.contains('(') {
            held.clear();
        }
        for (ci, class) in classes.iter().enumerate() {
            if !class.patterns.iter().any(|p| line.code.contains(p)) {
                continue;
            }
            if let Some(&(hi, hline)) = held.iter().find(|&&(hi, _)| hi > ci) {
                emit(
                    lines,
                    idx,
                    Finding {
                        file: file.to_string(),
                        line: line.number,
                        rule: "lock-order",
                        message: format!(
                            "`{}` acquired while `{}` (line {}) is held — \
                             docs/lock_order.txt requires the reverse order",
                            class.name, classes[hi].name, hline
                        ),
                    },
                    out,
                );
            }
            // `let`-bound guards are held for the rest of the function.
            if code.starts_with("let ") && !held.iter().any(|&(hi, _)| hi == ci) {
                held.push((ci, line.number));
            }
        }
    }
}

/// How many lines after an `.intersect_with(` call a `.len()` on the same
/// receiver still reads as the unfused two-pass idiom. Four lines cover
/// the `let mut x = y.clone(); x.intersect_with(&z); ... x.len()` shape
/// without reaching into unrelated code further down.
pub const KERNEL_WINDOW: usize = 4;

/// The identifier (or field) the method-call text in `s` ends with.
fn trailing_ident(s: &str) -> &str {
    let trimmed = s.trim_end();
    let start = trimmed
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map_or(0, |p| p + 1);
    &trimmed[start..]
}

/// `kernel-scalar`: in kernel-hot solver files, `x.intersect_with(y)`
/// followed shortly by `x.len()` walks the words twice where the fused
/// kernels (`BitSet::and_assign_count`, `intersection_len`) do one pass —
/// exactly the split the kernel layer exists to remove.
pub fn check_kernel_scalar(file: &str, lines: &[SourceLine], out: &mut Vec<Finding>) {
    for idx in 0..lines.len() {
        let line = &lines[idx];
        if line.in_test {
            continue;
        }
        let Some(at) = line.code.find(".intersect_with(") else {
            continue;
        };
        let recv = trailing_ident(&line.code[..at]);
        if recv.is_empty() {
            continue;
        }
        let needle = format!("{recv}.len()");
        let end = (idx + 1 + KERNEL_WINDOW).min(lines.len());
        for later in idx..end {
            // On the intersect line itself only the text after the call
            // counts (a preceding `x.len()` is not the unfused pair).
            let code: &str = if later == idx {
                &line.code[at..]
            } else {
                &lines[later].code
            };
            if lines[later].in_test || !code.contains(&needle) {
                continue;
            }
            emit(
                lines,
                idx,
                Finding {
                    file: file.to_string(),
                    line: line.number,
                    rule: "kernel-scalar",
                    message: format!(
                        "`{recv}.intersect_with(..)` followed by `{needle}` (line {}) — \
                         fuse into one kernel pass via `BitSet::and_assign_count` or \
                         `intersection_len` (crates/bigraph/src/kernels.rs)",
                        lines[later].number
                    ),
                },
                out,
            );
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::analyze;

    fn run(src: &str, rule: fn(&str, &[SourceLine], &mut Vec<Finding>)) -> Vec<Finding> {
        let lines = analyze(src, false);
        let mut out = Vec::new();
        rule("t.rs", &lines, &mut out);
        out
    }

    #[test]
    fn relaxed_needs_justification() {
        let bad = run("x.load(Ordering::Relaxed);\n", check_relaxed_justify);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "relaxed-justify");
        let good = run(
            "x.load(Ordering::Relaxed); // relaxed: monotonic counter\n",
            check_relaxed_justify,
        );
        assert!(good.is_empty());
    }

    #[test]
    fn relaxed_comment_above_covers_a_run() {
        let src = "// relaxed: stats snapshot, advisory only\nS {\n  a: x.load(Ordering::Relaxed),\n  b: y.load(Ordering::Relaxed),\n  c: z.load(Ordering::Relaxed),\n}\n";
        assert!(run(src, check_relaxed_justify).is_empty());
    }

    #[test]
    fn relaxed_comment_too_far_above_does_not_count() {
        let src = "// relaxed: too far\nlet a = 1;\nlet b = 2;\nlet c = 3;\nlet d = 4;\nx.load(Ordering::Relaxed);\n";
        assert_eq!(run(src, check_relaxed_justify).len(), 1);
    }

    #[test]
    fn long_comment_blocks_do_not_exhaust_the_window() {
        let src = "// relaxed: first line of a long\n// justification block that\n// spans five\n// comment\n// lines\nx.load(Ordering::Relaxed);\n";
        assert!(run(src, check_relaxed_justify).is_empty());
    }

    #[test]
    fn relaxed_in_tests_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { x.load(Ordering::Relaxed); }\n}\n";
        assert!(run(src, check_relaxed_justify).is_empty());
    }

    #[test]
    fn wire_panic_flags_each_construct() {
        for token in [
            "x.unwrap();",
            "x.expect(\"m\");",
            "panic!(\"m\");",
            "todo!();",
        ] {
            let got = run(&format!("fn f() {{ {token} }}\n"), check_wire_panic);
            assert_eq!(got.len(), 1, "{token}");
            assert_eq!(got[0].rule, "wire-panic");
        }
        assert!(run("fn f() { x.unwrap_or(0); }\n", check_wire_panic).is_empty());
    }

    #[test]
    fn panic_inside_string_is_ignored() {
        let src = "fn f() { log(\"do not panic!(now)\"); }\n";
        assert!(run(src, check_wire_panic).is_empty());
    }

    #[test]
    fn hot_clock_flags_instant_and_sleep() {
        let got = run("let t = Instant::now();\n", check_hot_clock);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "hot-clock");
        let got = run("std::thread::sleep(d);\n", check_hot_clock);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src =
            "// mbb-lint: allow(hot-clock) stage timing, not a hot loop\nlet t = Instant::now();\n";
        assert!(run(src, check_hot_clock).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_its_own_finding() {
        let src = "let t = Instant::now(); // mbb-lint: allow(hot-clock)\n";
        let got = run(src, check_hot_clock);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "suppression-reason");
    }

    #[test]
    fn suppression_for_other_rule_does_not_silence() {
        let src = "// mbb-lint: allow(wire-panic) unrelated\nlet t = Instant::now();\n";
        let got = run(src, check_hot_clock);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "hot-clock");
    }

    #[test]
    fn obs_hot_clock_flags_span_and_record_constructions() {
        for src in [
            "let _s = obs::span(obs::Stage::Dense);\n",
            "let _s = obs::span_for(obs::Stage::Dense, id, conn);\n",
            "obs::record(obs::Stage::Dense, start, end);\n",
            "obs::record_for(obs::Stage::Dense, start, end, id, conn);\n",
            "self.hist.record_duration(elapsed);\n",
            "use mbb_obs as obs;\n",
        ] {
            let got = run(src, check_obs_hot_clock);
            assert_eq!(got.len(), 1, "{src}");
            assert_eq!(got[0].rule, "obs-hot-clock");
        }
    }

    #[test]
    fn obs_hot_clock_ignores_unrelated_code_and_tests() {
        assert!(run("let n = self.records.len();\n", check_obs_hot_clock).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n  fn t() { obs::record(s, a, b); }\n}\n";
        assert!(run(in_test, check_obs_hot_clock).is_empty());
    }

    #[test]
    fn obs_hot_clock_suppression_with_reason() {
        let src = "// mbb-lint: allow(obs-hot-clock) outer per-centre loop, bounded fan-out\n\
                   obs::record(obs::Stage::BridgeCentre, start, end);\n";
        assert!(run(src, check_obs_hot_clock).is_empty());
        let bare = "obs::record(s, a, b); // mbb-lint: allow(obs-hot-clock)\n";
        let got = run(bare, check_obs_hot_clock);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "suppression-reason");
    }

    fn classes() -> Vec<LockClass> {
        parse_lock_order(
            "engine-rwlock: .engine.read( | .engine.write(\nqueue-mutex: .state.lock(\n",
        )
        .unwrap()
    }

    #[test]
    fn lock_order_contract_parses() {
        let c = classes();
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].name, "engine-rwlock");
        assert_eq!(c[1].patterns, vec![".state.lock("]);
        assert!(parse_lock_order("garbage without colon\n").is_err());
    }

    #[test]
    fn lock_inversion_is_flagged() {
        let src = "fn f(&self) {\n  let q = self.state.lock();\n  let e = self.engine.read();\n}\n";
        let lines = analyze(src, false);
        let mut out = Vec::new();
        check_lock_order("t.rs", &lines, &classes(), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "lock-order");
        assert!(out[0].message.contains("engine-rwlock"));
    }

    #[test]
    fn correct_order_and_transient_guards_pass() {
        let ok = "fn f(&self) {\n  let e = self.engine.read();\n  let q = self.state.lock();\n}\n";
        let transient =
            "fn f(&self) {\n  self.state.lock().n += 1;\n  let e = self.engine.read();\n}\n";
        for src in [ok, transient] {
            let lines = analyze(src, false);
            let mut out = Vec::new();
            check_lock_order("t.rs", &lines, &classes(), &mut out);
            assert!(out.is_empty(), "{src}");
        }
    }

    #[test]
    fn kernel_scalar_flags_unfused_pair() {
        let src =
            "let mut row = base.clone();\nrow.intersect_with(&cand);\nif row.len() > best {\n";
        let got = run(src, check_kernel_scalar);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "kernel-scalar");
        assert_eq!(got[0].line, 2);
        assert!(
            got[0].message.contains("and_assign_count"),
            "{}",
            got[0].message
        );
    }

    #[test]
    fn kernel_scalar_flags_same_line_pair() {
        let src = "row.intersect_with(&cand); let n = row.len();\n";
        assert_eq!(run(src, check_kernel_scalar).len(), 1);
    }

    #[test]
    fn kernel_scalar_requires_matching_receiver() {
        let src = "row.intersect_with(&cand);\nif other.len() > best {\n";
        assert!(run(src, check_kernel_scalar).is_empty());
    }

    #[test]
    fn kernel_scalar_window_is_bounded() {
        let src = "row.intersect_with(&cand);\nlet a = 1;\nlet b = 2;\nlet c = 3;\nlet d = 4;\nif row.len() > best {\n";
        assert!(run(src, check_kernel_scalar).is_empty());
    }

    #[test]
    fn kernel_scalar_ignores_fused_calls_and_tests() {
        let fused = "let n = row.and_assign_count(&cand);\n";
        assert!(run(fused, check_kernel_scalar).is_empty());
        let in_test =
            "#[cfg(test)]\nmod tests {\n  fn t() { row.intersect_with(&c);\n  row.len(); }\n}\n";
        assert!(run(in_test, check_kernel_scalar).is_empty());
    }

    #[test]
    fn kernel_scalar_suppression_with_reason() {
        let src = "// mbb-lint: allow(kernel-scalar) cold path, clarity wins\nrow.intersect_with(&cand);\nlet n = row.len();\n";
        assert!(run(src, check_kernel_scalar).is_empty());
    }

    #[test]
    fn fn_boundary_resets_held_locks() {
        let src = "fn a(&self) {\n  let q = self.state.lock();\n}\nfn b(&self) {\n  let e = self.engine.read();\n}\n";
        let lines = analyze(src, false);
        let mut out = Vec::new();
        check_lock_order("t.rs", &lines, &classes(), &mut out);
        assert!(out.is_empty());
    }
}
