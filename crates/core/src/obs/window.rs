//! Sim-time sliding windows and the multi-window SLO burn-rate monitor
//! (DESIGN.md §12).
//!
//! Everything here runs on the simulated clock and is therefore exactly
//! reproducible: the serving engine feeds request completions and shed
//! decisions in nondecreasing sim-time order, the windows evict by
//! integer-nanosecond arithmetic, and the alert stream is a pure function
//! of the seed.
//!
//! Three layers:
//!
//! * [`EventWindow`] — a sliding count of good/bad events over the last
//!   `window_ns` nanoseconds (the windowed shed/violation *rate*);
//! * [`WindowedSketch`] — a sliding latency quantile sketch: time is cut
//!   into fixed slices, each slice is an ordinary fixed-bucket
//!   [`Histogram`], and the window quantile merges the live slices
//!   ([`Histogram::merge`]) — mergeable by construction, O(slices) space;
//! * [`SloMonitor`] — the Google-SRE-style multi-window, multi-burn-rate
//!   alerter: *burn* is the windowed bad-event rate divided by the error
//!   budget, and a rule fires only when **both** its long and its short
//!   window burn past the threshold (the long window filters noise, the
//!   short window makes the alert resolve quickly once the incident
//!   ends). Fire/resolve are rising-edge events recorded as
//!   [`AlertEvent`]s; consumers (the serving export, the resilience
//!   [`Supervisor`](crate::resilience::Supervisor)) observe them as state
//!   and change no behavior by default.

use super::metrics::Histogram;
use std::collections::VecDeque;

/// A sliding window over a good/bad event stream on the sim clock.
///
/// Events must arrive in nondecreasing time order (the serving engine's
/// event loop guarantees this); each is either good or bad, and the
/// window reports totals over the trailing `window_ns`.
#[derive(Clone, Debug)]
pub struct EventWindow {
    window_ns: u64,
    events: VecDeque<(u64, bool)>,
    bad: u64,
}

impl EventWindow {
    /// An empty window spanning `window_ns` nanoseconds.
    pub fn new(window_ns: u64) -> Self {
        EventWindow {
            window_ns: window_ns.max(1),
            events: VecDeque::new(),
            bad: 0,
        }
    }

    /// Record one event at `now_ns` and evict everything that fell out of
    /// the window.
    pub fn record(&mut self, now_ns: u64, is_bad: bool) {
        debug_assert!(
            self.events.back().is_none_or(|&(t, _)| t <= now_ns),
            "events must arrive in time order"
        );
        self.events.push_back((now_ns, is_bad));
        if is_bad {
            self.bad += 1;
        }
        self.advance(now_ns);
    }

    /// Evict events older than `now_ns - window_ns` without recording.
    pub fn advance(&mut self, now_ns: u64) {
        let cutoff = now_ns.saturating_sub(self.window_ns);
        while let Some(&(t, b)) = self.events.front() {
            if t >= cutoff {
                break;
            }
            self.events.pop_front();
            if b {
                self.bad -= 1;
            }
        }
    }

    /// Events currently inside the window.
    pub fn total(&self) -> u64 {
        self.events.len() as u64
    }

    /// Bad events currently inside the window.
    pub fn bad(&self) -> u64 {
        self.bad
    }

    /// Bad fraction over the window (0 when empty).
    pub fn bad_fraction(&self) -> f64 {
        if self.events.is_empty() {
            0.0
        } else {
            self.bad as f64 / self.events.len() as f64
        }
    }
}

/// A sliding quantile sketch: fixed time slices, one fixed-bucket
/// [`Histogram`] per slice, window quantiles by merging live slices.
#[derive(Clone, Debug)]
pub struct WindowedSketch {
    bounds: Vec<f64>,
    slice_ns: u64,
    num_slices: usize,
    /// `(slice index, histogram)` pairs, oldest first.
    slices: VecDeque<(u64, Histogram)>,
}

impl WindowedSketch {
    /// A sketch whose window is `num_slices` slices of `slice_ns` each,
    /// over histogram `bounds`.
    pub fn new(bounds: &[f64], slice_ns: u64, num_slices: usize) -> Self {
        WindowedSketch {
            bounds: bounds.to_vec(),
            slice_ns: slice_ns.max(1),
            num_slices: num_slices.max(1),
            slices: VecDeque::new(),
        }
    }

    /// Record one observation at `now_ns`.
    pub fn observe(&mut self, now_ns: u64, v: f64) {
        let idx = now_ns / self.slice_ns;
        match self.slices.back_mut() {
            Some((last, h)) if *last == idx => h.observe(v),
            _ => {
                let mut h = Histogram::new(&self.bounds);
                h.observe(v);
                self.slices.push_back((idx, h));
            }
        }
        self.evict(idx);
    }

    fn evict(&mut self, newest_idx: u64) {
        while let Some(&(i, _)) = self.slices.front() {
            if i + self.num_slices as u64 > newest_idx {
                break;
            }
            self.slices.pop_front();
        }
    }

    /// Merge the live slices into one histogram over the window.
    pub fn merged(&self) -> Histogram {
        let mut out = Histogram::new(&self.bounds);
        for (_, h) in &self.slices {
            out.merge(h);
        }
        out
    }

    /// The `q`-quantile over the window ([`Histogram::percentile`]
    /// semantics: conservative upper bucket edge), or `None` when the
    /// window holds no observations.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        self.merged().percentile(q)
    }

    /// Observations currently inside the window.
    pub fn count(&self) -> u64 {
        self.slices.iter().map(|(_, h)| h.count()).sum()
    }
}

/// One multi-window burn-rate rule: fire when *both* the long and the
/// short window burn exceed `burn`.
#[derive(Clone, Copy, Debug)]
pub struct BurnRule {
    /// Stable rule label (exported in alert events).
    pub label: &'static str,
    /// Long window span (nanoseconds) — filters noise.
    pub long_ns: u64,
    /// Short window span (nanoseconds) — fast resolve.
    pub short_ns: u64,
    /// Burn-rate threshold (1.0 = burning the budget exactly).
    pub burn: f64,
}

/// SLO monitor configuration.
#[derive(Clone, Debug)]
pub struct SloConfig {
    /// Error budget: the tolerated bad-event fraction (e.g. `0.05` means
    /// up to 5% of requests may be shed/violating before burn = 1).
    pub error_budget: f64,
    /// Burn-rate rules, evaluated independently.
    pub rules: Vec<BurnRule>,
    /// Minimum events in a rule's long window before it may fire (keeps
    /// the first bad request of a run from paging).
    pub min_events: u64,
    /// Latency-sketch slice width (nanoseconds).
    pub sketch_slice_ns: u64,
    /// Latency-sketch slices (window = slices × slice width).
    pub sketch_slices: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            error_budget: 0.05,
            rules: vec![
                // Page-grade: a hard burn sustained across a 50 ms long
                // window with a 12.5 ms short window confirming it.
                BurnRule {
                    label: "fast-burn",
                    long_ns: 50_000_000,
                    short_ns: 12_500_000,
                    burn: 6.0,
                },
                // Ticket-grade: a slower burn over 200 ms.
                BurnRule {
                    label: "slow-burn",
                    long_ns: 200_000_000,
                    short_ns: 50_000_000,
                    burn: 3.0,
                },
            ],
            min_events: 16,
            sketch_slice_ns: 12_500_000,
            sketch_slices: 8,
        }
    }
}

/// A fired or resolved alert, on the sim clock.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertEvent {
    /// Sim time of the edge.
    pub at_ns: u64,
    /// The [`BurnRule`] label.
    pub rule: &'static str,
    /// `true` on the fire edge, `false` on the resolve edge.
    pub fired: bool,
    /// Long-window burn at the edge.
    pub burn_long: f64,
    /// Short-window burn at the edge.
    pub burn_short: f64,
    /// Windowed p99 latency at the edge (ns; 0 when the sketch is empty).
    pub windowed_p99_ns: u64,
}

/// The multi-window SLO burn-rate monitor over the serving event stream.
///
/// Feed every request outcome ([`SloMonitor::record_served`]) and every
/// shed decision ([`SloMonitor::record_shed`]) in sim-time order; alerts
/// accumulate in [`SloMonitor::alerts`] and the current windowed latency
/// quantiles are always available from the sketch.
#[derive(Clone, Debug)]
pub struct SloMonitor {
    cfg: SloConfig,
    /// `(long, short)` windows per rule, index-aligned with `cfg.rules`.
    windows: Vec<(EventWindow, EventWindow)>,
    active: Vec<bool>,
    sketch: WindowedSketch,
    /// Fire/resolve edges, in sim-time order.
    pub alerts: Vec<AlertEvent>,
}

impl SloMonitor {
    /// A monitor under `cfg`, with the latency sketch over
    /// `latency_bounds_ns`.
    pub fn new(cfg: SloConfig, latency_bounds_ns: &[f64]) -> Self {
        let windows = cfg
            .rules
            .iter()
            .map(|r| (EventWindow::new(r.long_ns), EventWindow::new(r.short_ns)))
            .collect();
        let active = vec![false; cfg.rules.len()];
        let sketch = WindowedSketch::new(latency_bounds_ns, cfg.sketch_slice_ns, cfg.sketch_slices);
        SloMonitor {
            cfg,
            windows,
            active,
            sketch,
            alerts: Vec::new(),
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// A served request completing at `now_ns` with `latency_ns`; `bad`
    /// marks an SLO-violating serve (deadline miss or staleness
    /// violation).
    pub fn record_served(&mut self, now_ns: u64, latency_ns: u64, bad: bool) {
        self.sketch.observe(now_ns, latency_ns as f64);
        self.record(now_ns, bad);
    }

    /// A shed decision at `now_ns` — always a bad event against the SLO.
    pub fn record_shed(&mut self, now_ns: u64) {
        self.record(now_ns, true);
    }

    fn record(&mut self, now_ns: u64, bad: bool) {
        for (long, short) in &mut self.windows {
            long.record(now_ns, bad);
            short.record(now_ns, bad);
        }
        self.evaluate(now_ns);
    }

    fn evaluate(&mut self, now_ns: u64) {
        for (i, rule) in self.cfg.rules.iter().enumerate() {
            let (long, short) = &self.windows[i];
            let burn_long = long.bad_fraction() / self.cfg.error_budget;
            let burn_short = short.bad_fraction() / self.cfg.error_budget;
            let firing = long.total() >= self.cfg.min_events
                && burn_long > rule.burn
                && burn_short > rule.burn;
            if firing != self.active[i] {
                self.active[i] = firing;
                // The window quantile merges every live slice, and only an
                // edge reads it: formed here, not once per event.
                let p99 = self.sketch.percentile(0.99).map_or(0, |v| {
                    if v.is_finite() {
                        v as u64
                    } else {
                        u64::MAX
                    }
                });
                self.alerts.push(AlertEvent {
                    at_ns: now_ns,
                    rule: rule.label,
                    fired: firing,
                    burn_long,
                    burn_short,
                    windowed_p99_ns: p99,
                });
            }
        }
    }

    /// Rules currently in the fired state.
    pub fn active_count(&self) -> u64 {
        self.active.iter().filter(|&&a| a).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn event_window_slides_and_counts() {
        let mut w = EventWindow::new(10 * MS);
        w.record(0, true);
        w.record(5 * MS, false);
        assert_eq!((w.total(), w.bad()), (2, 1));
        assert!((w.bad_fraction() - 0.5).abs() < 1e-12);
        // 0 falls out at t = 11ms (cutoff 1ms).
        w.record(11 * MS, false);
        assert_eq!((w.total(), w.bad()), (2, 0));
        assert_eq!(w.bad_fraction(), 0.0);
    }

    #[test]
    fn sketch_merges_live_slices_only() {
        let mut s = WindowedSketch::new(&[1.0, 10.0, 100.0], MS, 4);
        s.observe(0, 5.0);
        s.observe(MS, 5.0);
        assert_eq!(s.percentile(0.99), Some(10.0));
        assert_eq!(s.count(), 2);
        // Jump 10 slices forward: both old slices evict.
        s.observe(10 * MS, 50.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.percentile(0.5), Some(100.0));
        let empty = WindowedSketch::new(&[1.0], MS, 2);
        assert_eq!(empty.percentile(0.5), None);
    }

    fn monitor(budget: f64, burn: f64) -> SloMonitor {
        SloMonitor::new(
            SloConfig {
                error_budget: budget,
                rules: vec![BurnRule {
                    label: "test",
                    long_ns: 20 * MS,
                    short_ns: 5 * MS,
                    burn,
                }],
                min_events: 4,
                sketch_slice_ns: 5 * MS,
                sketch_slices: 4,
            },
            &[MS as f64, (10 * MS) as f64],
        )
    }

    #[test]
    fn monitor_fires_on_sustained_burn_and_resolves() {
        let mut m = monitor(0.1, 2.0);
        // Healthy traffic: no alert.
        for i in 0..8u64 {
            m.record_served(i * MS, MS, false);
        }
        assert!(m.alerts.is_empty());
        // Sustained shedding: both windows burn past 2× the 10% budget.
        for i in 8..14u64 {
            m.record_shed(i * MS);
        }
        let fire = m.alerts.first().expect("fired");
        assert!(fire.fired && fire.rule == "test");
        assert!(fire.burn_long > 2.0 && fire.burn_short > 2.0);
        assert_eq!(m.active_count(), 1);
        // Recovery: good traffic drains the short window first.
        for i in 14..40u64 {
            m.record_served(i * MS, MS, false);
        }
        let resolve = m.alerts.last().expect("resolved");
        assert!(!resolve.fired);
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.alerts.len(), 2, "one fire edge, one resolve edge");
    }

    #[test]
    fn monitor_needs_min_events_before_firing() {
        let mut m = monitor(0.1, 2.0);
        m.record_shed(0);
        m.record_shed(MS);
        assert!(
            m.alerts.is_empty(),
            "100% bad but below min_events: no page"
        );
    }

    /// `(now_ns, Some((latency_ns, bad)))` when served, `None` when shed.
    type Event = (u64, Option<(u64, bool)>);

    /// The monitor as it stood before the windowed p99 became lazy, kept as
    /// the reference: the quantile is formed on every event, edge or not.
    fn eager_alerts(cfg: &SloConfig, bounds: &[f64], events: &[Event]) -> Vec<AlertEvent> {
        let mut windows: Vec<(EventWindow, EventWindow)> = cfg
            .rules
            .iter()
            .map(|r| (EventWindow::new(r.long_ns), EventWindow::new(r.short_ns)))
            .collect();
        let mut active = vec![false; cfg.rules.len()];
        let mut sketch = WindowedSketch::new(bounds, cfg.sketch_slice_ns, cfg.sketch_slices);
        let mut alerts = Vec::new();
        for &(now_ns, served) in events {
            if let Some((latency_ns, _)) = served {
                sketch.observe(now_ns, latency_ns as f64);
            }
            let bad = served.is_none_or(|(_, bad)| bad);
            let p99 = match sketch.percentile(0.99) {
                None => 0,
                Some(v) if v.is_finite() => v as u64,
                Some(_) => u64::MAX,
            };
            for (i, rule) in cfg.rules.iter().enumerate() {
                let (long, short) = &mut windows[i];
                long.record(now_ns, bad);
                short.record(now_ns, bad);
                let burn_long = long.bad_fraction() / cfg.error_budget;
                let burn_short = short.bad_fraction() / cfg.error_budget;
                let fired = long.total() >= cfg.min_events
                    && burn_long > rule.burn
                    && burn_short > rule.burn;
                if fired != active[i] {
                    active[i] = fired;
                    alerts.push(AlertEvent {
                        at_ns: now_ns,
                        rule: rule.label,
                        fired,
                        burn_long,
                        burn_short,
                        windowed_p99_ns: p99,
                    });
                }
            }
        }
        alerts
    }

    /// Property: over random rule sets and event streams that swing between
    /// healthy and burning phases, the monitor's alert stream equals the
    /// eager reference's field for field, `windowed_p99_ns` included.
    /// `FGNN_PROP_CASES` scales the case count (`scripts/ci.sh` runs 256).
    #[test]
    fn lazy_p99_alerts_equal_the_eager_reference() {
        let cases = std::env::var("FGNN_PROP_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64u64);
        let mut edges = 0usize;
        for case in 0..cases {
            let mut rng = fgnn_tensor::Rng::new(0x0A1E_27ED ^ case.wrapping_mul(0x9E37_79B9));
            let rules = ["a", "b", "c"][..1 + rng.below(3)]
                .iter()
                .map(|&label| {
                    let short_ns = (1 + rng.below(20) as u64) * MS;
                    BurnRule {
                        label,
                        long_ns: short_ns * (1 + rng.below(6) as u64),
                        short_ns,
                        burn: 1.0 + rng.below(5) as f64,
                    }
                })
                .collect();
            let cfg = SloConfig {
                error_budget: [0.02, 0.05, 0.1][rng.below(3)],
                rules,
                min_events: rng.below(24) as u64,
                sketch_slice_ns: (1 + rng.below(10) as u64) * MS,
                sketch_slices: 1 + rng.below(8),
            };
            // No finite edge at all makes the quantile infinite: the
            // `u64::MAX` arm of the conversion is part of the contract.
            let bounds: &[f64] = if rng.below(8) == 0 {
                &[]
            } else {
                &[1e5, 1e6, 1e7, 1e8]
            };
            let mut now_ns = 0u64;
            let (mut p_bad, mut latency_scale) = (0.0f32, 1u64);
            let events: Vec<Event> = (0..200 + rng.below(600))
                .map(|n| {
                    if n % 50 == 0 {
                        p_bad = [0.0, 0.1, 0.6, 1.0][rng.below(4)];
                        latency_scale = 1 << rng.below(30);
                    }
                    // Mostly sub-millisecond gaps, now and then one that
                    // empties every window and the whole sketch.
                    now_ns += match rng.below(40) {
                        0 => rng.next_u64() % (400 * MS),
                        _ => rng.next_u64() % MS,
                    };
                    let bad = rng.bernoulli(p_bad);
                    let served = (latency_scale + rng.next_u64() % latency_scale, bad);
                    (now_ns, (!bad || rng.below(2) == 0).then_some(served))
                })
                .collect();

            let mut m = SloMonitor::new(cfg.clone(), bounds);
            for &(t, served) in &events {
                match served {
                    Some((latency_ns, bad)) => m.record_served(t, latency_ns, bad),
                    None => m.record_shed(t),
                }
            }
            assert_eq!(m.alerts, eager_alerts(&cfg, bounds, &events), "case {case}");
            edges += m.alerts.len();
        }
        assert!(edges as u64 >= cases, "the streams cross alert edges");
    }

    #[test]
    fn monitor_is_deterministic() {
        let run = || {
            let mut m = monitor(0.05, 3.0);
            for i in 0..50u64 {
                if i % 3 == 0 {
                    m.record_shed(i * MS / 2);
                } else {
                    m.record_served(i * MS / 2, (i % 7) * MS, i % 11 == 0);
                }
            }
            m.alerts
        };
        assert_eq!(run(), run());
    }
}
