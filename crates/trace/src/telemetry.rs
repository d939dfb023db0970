//! One value for everything a run reports into.
//!
//! Every runtime of the closed loop (the pipeline scenario, the
//! operations phase, the SOC engine, the remediation planner) takes a
//! [`Telemetry`] once and has a single `run`: which recorders are live
//! is data, not a choice between entry points.

use vdo_obs::Registry;

use crate::journal::Journal;

/// The recorders of one run: the [`Registry`] for spans, counters and
/// histograms, the causal [`Journal`], and the seed under which
/// requirement-root [`TraceContext`](crate::TraceContext)s are minted.
///
/// The [`Default`] (also [`Telemetry::off`]) is off: both handles are
/// the disabled no-op recorders, so an instrumented call site costs one
/// branch and no trace context is minted. High-volume emitters still
/// consult [`Journal::accepts`] before building an event the journal's
/// severity floor would reject. Clones share the recorders.
///
/// ```
/// use vdo_trace::{Journal, Telemetry};
///
/// let off = Telemetry::off();
/// assert!(!off.journal.is_enabled() && !off.obs.is_enabled());
///
/// let on = Telemetry::off()
///     .with_obs(vdo_obs::Registry::new())
///     .with_journal(Journal::new(), 7);
/// assert!(on.journal.is_enabled() && on.obs.is_enabled());
/// assert_eq!(on.trace_seed, 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Spans, counters and histograms; [`Registry::disabled`] records
    /// nothing.
    pub obs: Registry,
    /// Causal event journal; [`Journal::disabled`] records nothing.
    pub journal: Journal,
    /// Namespace of the requirement-root trace contexts. Runs that
    /// must resolve to each other's roots share it.
    pub trace_seed: u64,
}

impl Telemetry {
    /// Both recorders disabled.
    #[must_use]
    pub fn off() -> Self {
        Telemetry::default()
    }

    /// Records spans and counters into `obs`.
    #[must_use]
    pub fn with_obs(mut self, obs: Registry) -> Self {
        self.obs = obs;
        self
    }

    /// Journals the causal chain into `journal`, minting requirement
    /// roots under `trace_seed`.
    #[must_use]
    pub fn with_journal(mut self, journal: Journal, trace_seed: u64) -> Self {
        self.journal = journal;
        self.trace_seed = trace_seed;
        self
    }
}
