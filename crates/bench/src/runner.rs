//! Timing helpers for the harness binaries.

use std::time::Instant;

/// Runs behind each timed cell or row that reports a median.
pub const RUNS: usize = 5;

/// Runs `f` and reports wall-clock seconds.
pub fn run_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Median seconds of [`RUNS`] calls of `run`, or `None` as soon as one
/// returns `None` (a run past its budget).
pub fn median_secs(mut run: impl FnMut() -> Option<f64>) -> Option<f64> {
    let mut secs = (0..RUNS).map(|_| run()).collect::<Option<Vec<f64>>>()?;
    secs.sort_by(f64::total_cmp);
    Some(secs[RUNS / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_timed_returns_value_and_time() {
        let (v, s) = run_timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    fn median_secs_takes_the_middle_run_and_stops_at_a_failed_one() {
        let mut times = [0.3, 0.1, 0.5, 0.2, 0.4].into_iter();
        assert_eq!(median_secs(|| times.next()), Some(0.3));
        let mut calls = 0;
        assert_eq!(
            median_secs(|| {
                calls += 1;
                (calls != 2).then_some(1.0)
            }),
            None
        );
        assert_eq!(calls, 2);
    }
}
