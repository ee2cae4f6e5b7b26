//! Shared helpers for the integration test suites.

#![allow(dead_code)] // each test binary uses a subset

use freshgnn_repro::tensor::Rng;

/// Number of seeded cases per property. `FGNN_PROP_CASES` overrides the
/// default of 64 (`scripts/ci.sh` runs the suites at 256).
pub fn cases() -> u64 {
    std::env::var("FGNN_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Run `body` for [`cases`] independently-seeded cases, reporting the
/// failing case's seed (which fully reproduces its input).
pub fn for_cases(test_name: &str, body: impl Fn(&mut Rng)) {
    for case in 0..cases() {
        // Stable per-test stream: derive from the test name + case index.
        let seed = test_name
            .bytes()
            .fold(case.wrapping_mul(0x9E37_79B9_7F4A_7C15), |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut Rng::new(seed))));
        if let Err(e) = result {
            eprintln!("property {test_name} failed at case {case} (seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}
