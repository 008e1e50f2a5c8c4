//! Timing helper for the harness binaries.

use std::time::Instant;

/// Runs `f` and reports wall-clock seconds.
pub fn run_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
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
}
