//! Wall-clock timing for the experiment binaries: they report each
//! run's duration to stderr and `BENCH_experiments.json`.

use std::time::{Duration, Instant};

/// Times one run of `f` and returns its result alongside the wall clock.
pub fn timed<R, F: FnOnce() -> R>(f: F) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_value() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
    }
}
