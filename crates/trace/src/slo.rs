//! Multi-window burn-rate SLO rules and alerts.
//!
//! A [`BurnRateRule`] states an objective as an allowed bad-event
//! fraction (the error budget). [`LiveSloEngine`](crate::LiveSloEngine)
//! evaluates each rule over two trailing windows and fires when
//! **both** windows burn budget faster than `factor` (the Google SRE
//! multi-window discipline: the long window proves the problem is
//! real, the short window proves it is still happening). Alerts are
//! emitted into the [`Journal`](crate::Journal) with a deterministic
//! [`TraceContext`] and returned to the caller, which can publish them
//! onto the SOC bus to close observability back into reaction.
//!
//! A latency SLO ("p95 detection latency under N ticks") is a burn
//! rate too: [`SloSignal::HistogramAbove`] treats every observation
//! above the threshold as a bad event, so `objective = 0.05` *is* the
//! p95 target.

use vdo_obs::HistogramSnapshot;

use crate::context::TraceContext;

/// What a rule counts as bad events within a window.
#[derive(Debug, Clone, PartialEq)]
pub enum SloSignal {
    /// Bad fraction = `bad / total` over two counters (e.g. rejected
    /// vs processed commits, dead letters vs remediations).
    CounterRatio {
        /// Counter of bad events.
        bad: String,
        /// Counter of all events.
        total: String,
    },
    /// Bad fraction = share of histogram observations above
    /// `threshold` (bucket-interpolated) — the latency-SLO shape.
    HistogramAbove {
        /// Histogram name.
        histogram: String,
        /// Inclusive good/bad boundary.
        threshold: u64,
    },
}

/// One multi-window burn-rate rule.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRateRule {
    /// Stable rule name (alert identity).
    pub name: String,
    /// The bad-event signal.
    pub signal: SloSignal,
    /// Allowed bad fraction (the error budget), clamped to a positive
    /// floor at evaluation.
    pub objective: f64,
    /// Long trailing window, in the caller's logical time units.
    pub long_window: u64,
    /// Short trailing window (recency check).
    pub short_window: u64,
    /// Burn-rate threshold: fire when both windows consume budget at
    /// `>= factor ×` the sustainable rate.
    pub factor: f64,
}

/// One fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// The rule that fired.
    pub rule: String,
    /// Logical time of the firing observation.
    pub at: u64,
    /// Burn rate over the long window.
    pub long_burn: f64,
    /// Burn rate over the short window.
    pub short_burn: f64,
    /// Causal context of the alert (root derived from the engine seed
    /// and rule name).
    pub trace: TraceContext,
}

/// Bad-event fraction in `h` above `threshold`, with linear
/// interpolation inside the boundary bucket (the CDF complement of
/// [`HistogramSnapshot::quantile`]).
pub(crate) fn fraction_above(h: &HistogramSnapshot, threshold: u64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let mut good = 0.0_f64;
    let mut lower = 0u64;
    for (i, &bound) in h.bounds.iter().enumerate() {
        let n = h.counts[i] as f64;
        if threshold >= bound {
            good += n;
        } else {
            if threshold > lower {
                let width = (bound - lower) as f64;
                good += n * (threshold - lower) as f64 / width;
            }
            return (1.0 - good / h.count as f64).clamp(0.0, 1.0);
        }
        lower = bound;
    }
    // Overflow bucket: everything above the last bound counts bad
    // unless the threshold clears the observed maximum.
    if threshold >= h.max {
        good = h.count as f64;
    }
    (1.0 - good / h.count as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_slo_is_a_histogram_above_rule() {
        let h = HistogramSnapshot {
            bounds: vec![1, 2, 4, 8],
            counts: vec![50, 30, 10, 8, 2],
            count: 100,
            sum: 300,
            max: 20,
            exemplars: Vec::new(),
        };
        // 10% of observations are above 4 ticks.
        assert!((fraction_above(&h, 4) - 0.10).abs() < 1e-9);
        // Threshold above the max: nothing is bad.
        assert_eq!(fraction_above(&h, 20), 0.0);
        // Threshold 0: only bucket-0 interpolation, everything bad.
        assert!(fraction_above(&h, 0) > 0.9);
        // Interpolation inside the (2, 4] bucket: half the bucket.
        let f3 = fraction_above(&h, 3);
        assert!(f3 > 0.10 && f3 < 0.25, "{f3}");
    }
}
