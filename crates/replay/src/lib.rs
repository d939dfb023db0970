//! Deterministic replay over the columnar journal.
//!
//! `vdo-replay` turns a recorded journal directory into a time
//! machine for SOC runs:
//!
//! * [`record`] runs a [`RunSpec`] live with a columnar
//!   [`vdo_trace::colfmt::DirWriter`] sink, embeds the spec in every
//!   segment header, and stores a checkpoint schedule
//!   (`checkpoints.txt`) of digest-summarized causal cuts;
//! * [`Replayer`] reopens that directory — or a compacted copy of it —
//!   and reconstructs fleet + SOC state at any tick, checkpoint, or
//!   journal sequence number by re-executing the seed-deterministic
//!   simulation ([`Replayer::replay_to_tick`],
//!   [`Replayer::replay_to_checkpoint`], [`Replayer::replay_to_seq`]);
//! * [`Replayer::what_if`] re-runs the recorded scenario under a
//!   modified spec (different drift, fault injection, fleet size) for
//!   counterfactual analysis.
//!
//! Replays are *byte-exact*: the replayed verdict log (every
//! `Warn`-and-above event) and incident log are identical to the live
//! run's at every checkpoint and at any worker count — a property
//! test in this crate exercises exactly that claim.

pub mod engine;
pub mod spec;

pub use engine::{
    checkpoints_of, incidents_in_window, journal_digest_of, record, record_sampled,
    verdict_digest_of, verdict_log_of, Checkpoint, CheckpointReplay, Recording, ReplayOutcome,
    Replayer, WhatIf, CHECKPOINTS_VERSION,
};
pub use spec::{RunSpec, SPEC_VERSION};
