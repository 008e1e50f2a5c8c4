//! Model-check suite for the incumbent publication path that the
//! bridging and verification workers share — the real `SharedIncumbent`
//! type.
//!
//! Compiled (and run) only under the model facade:
//!
//! ```text
//! RUSTFLAGS="--cfg mbb_conc" cargo test -p mbb-core --test conc_models
//! ```
//!
//! In a normal build this file compiles to an empty test binary, so
//! tier-1 `cargo test` is unaffected.
#![cfg(mbb_conc)]

use std::sync::Arc;

use mbb_conc::model::{explore, ExploreConfig};
use mbb_conc::thread;
use mbb_core::dense::SharedIncumbent;

/// Two workers race `publish`; every interleaving must leave the cell at
/// the maximum, and each worker's own reads of `bound()` must be
/// monotonically non-decreasing (the property pruning correctness rests
/// on: a stale bound may under-prune but never over-prune).
#[test]
fn incumbent_converges_to_max_and_bounds_are_monotone() {
    let report = explore(ExploreConfig::auto(2), || {
        let incumbent = Arc::new(SharedIncumbent::new(1));
        let workers: Vec<_> = [[3usize, 5], [4, 2]]
            .into_iter()
            .map(|finds| {
                let incumbent = Arc::clone(&incumbent);
                thread::spawn(move || {
                    // Each model op is an interleaving choice point, so
                    // the loop body is kept to the minimal publish+read
                    // pair — enough to observe a regression if fetch_max
                    // were broken, small enough to enumerate fully.
                    let mut last = 0;
                    for half in finds {
                        incumbent.publish(half);
                        let now = incumbent.bound();
                        assert!(now >= last, "bound regressed: {last} -> {now}");
                        assert!(now >= half, "own publish not visible");
                        last = now;
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(incumbent.bound(), 5, "final bound is the global max");
    });
    assert!(
        report.exhausted,
        "2-thread incumbent model must enumerate fully ({} schedules)",
        report.schedules
    );
}

/// `publish` never lowers the bound, even against a concurrent larger
/// publication — the `fetch_max` protocol the `// relaxed:` audit
/// justifications in `dense.rs` appeal to.
#[test]
fn late_small_publish_cannot_regress_the_bound() {
    let report = explore(ExploreConfig::auto(2), || {
        let incumbent = Arc::new(SharedIncumbent::new(0));
        let big = {
            let incumbent = Arc::clone(&incumbent);
            thread::spawn(move || incumbent.publish(9))
        };
        let small = {
            let incumbent = Arc::clone(&incumbent);
            thread::spawn(move || {
                incumbent.publish(2);
                incumbent.publish(3);
            })
        };
        big.join().unwrap();
        small.join().unwrap();
        assert_eq!(incumbent.bound(), 9);
    });
    assert!(report.exhausted, "({} schedules)", report.schedules);
}
