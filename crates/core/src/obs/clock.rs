//! Deterministic simulated clock for observability timestamps.

/// A monotone nanosecond clock advanced **only** by exact simulated time
/// (transfer + retry + compute seconds from the ledger), never by measured
/// wall time.
///
/// Sampling and pruning run on the CPU and are *measured* (see
/// `fgnn_memsim::stage`), so charging them here would make every trace
/// differ between runs. By restricting the clock to the exact components,
/// two runs of the same seeded workload produce byte-identical traces —
/// the property pinned by the golden-trace test.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimClock {
    now_ns: u64,
}

impl SimClock {
    /// Current simulated time in nanoseconds since the clock's origin.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advance by `seconds` of exact simulated time (negative or NaN input
    /// is clamped to zero; the clock stops at `u64::MAX` ns rather than
    /// wrapping) and return the whole-nanosecond increment actually applied.
    pub(crate) fn advance_secs(&mut self, seconds: f64) -> u64 {
        let secs = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        let ns = ((secs * 1e9).round() as u64).min(u64::MAX - self.now_ns);
        self.now_ns += ns;
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_by_rounded_nanoseconds() {
        let mut c = SimClock::default();
        assert_eq!(c.advance_secs(1.5e-9), 2); // rounds, not truncates
        assert_eq!(c.advance_secs(0.001), 1_000_000);
        assert_eq!(c.now_ns(), 1_000_002);
    }

    #[test]
    fn clamps_garbage_input() {
        let mut c = SimClock::default();
        assert_eq!(c.advance_secs(-1.0), 0);
        assert_eq!(c.advance_secs(f64::NAN), 0);
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut c = SimClock::default();
        assert_eq!(c.advance_secs(1e10), 10_000_000_000_000_000_000);
        // 1e19 ns more would pass u64::MAX (≈1.8e19): only the rest applies.
        assert_eq!(c.advance_secs(1e10), u64::MAX - 10_000_000_000_000_000_000);
        assert_eq!(c.now_ns(), u64::MAX);
        assert_eq!(c.advance_secs(1.0), 0);
        assert_eq!(c.now_ns(), u64::MAX);
    }
}
