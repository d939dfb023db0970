//! Checkpoint digests are derived from one canonicalisation and one
//! sort of the whole event stream. This property test holds that
//! derivation to the definition: at every tick of a recorded run, the
//! event count and both digests equal a naive oracle that filters the
//! cut, sorts it on its own and hashes it.
//!
//! Each case records one seeded SOC run twice — unsampled through
//! [`record`] and tail-sampled through [`record_sampled`] — and checks
//! every cut `0..=duration + 1` of both decoded directories, including
//! the empty cut at tick 0 and a non-empty cut with no `Warn`-and-above
//! event, whose verdict digest is the FNV offset basis.

use std::path::PathBuf;

use proptest::prelude::*;

use vdo_replay::{
    checkpoints_of, journal_digest_of, record, record_sampled, verdict_digest_of, verdict_log_of,
    Checkpoint, RunSpec,
};
use vdo_trace::colfmt::JournalDir;
use vdo_trace::{Event, SamplingPolicy, Severity};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The definition of the journal digest: the cut's canonical lines,
/// sorted, each followed by `\n`.
fn oracle_journal_digest(events: &[(u64, Event)], upto_tick: u64) -> u64 {
    let mut lines: Vec<String> = events
        .iter()
        .filter(|(_, e)| e.at < upto_tick)
        .map(|(_, e)| e.canonical_line())
        .collect();
    lines.sort_unstable();
    lines.iter().fold(FNV_OFFSET, |h, line| {
        fnv_fold(fnv_fold(h, line.as_bytes()), b"\n")
    })
}

/// The definition of the verdict log: the cut's `Warn`-and-above
/// canonical lines, sorted, joined by `\n`.
fn oracle_verdict_log(events: &[(u64, Event)], upto_tick: u64) -> String {
    let mut lines: Vec<String> = events
        .iter()
        .filter(|(_, e)| e.at < upto_tick && e.severity >= Severity::Warn)
        .map(|(_, e)| e.canonical_line())
        .collect();
    lines.sort_unstable();
    lines.join("\n")
}

fn oracle(events: &[(u64, Event)], tick: u64) -> Checkpoint {
    Checkpoint {
        tick,
        events: events.iter().filter(|(_, e)| e.at < tick).count() as u64,
        journal_digest: oracle_journal_digest(events, tick),
        verdict_digest: fnv_fold(FNV_OFFSET, oracle_verdict_log(events, tick).as_bytes()),
    }
}

/// Every cut of `events`, from the empty one to past the last tick,
/// against the oracle — both through the one-pass fold and through
/// the per-cut entry points.
fn assert_every_cut(events: &[(u64, Event)], duration: u64) -> Result<(), TestCaseError> {
    let ticks: Vec<u64> = (0..=duration + 1).collect();
    let folded = checkpoints_of(events, &ticks);
    prop_assert_eq!(folded.len(), ticks.len());
    for (got, &tick) in folded.iter().zip(&ticks) {
        let want = oracle(events, tick);
        prop_assert_eq!(got, &want, "one-pass fold diverged at tick {}", tick);
        prop_assert_eq!(journal_digest_of(events, tick), want.journal_digest);
        prop_assert_eq!(verdict_digest_of(events, tick), want.verdict_digest);
        prop_assert_eq!(
            verdict_log_of(events, tick),
            oracle_verdict_log(events, tick)
        );
    }
    prop_assert_eq!(folded[0].events, 0, "tick 0 is the empty cut");
    prop_assert_eq!(folded[0].journal_digest, FNV_OFFSET);
    prop_assert_eq!(folded[0].verdict_digest, FNV_OFFSET);
    prop_assert_eq!(
        folded.last().map(|cp| cp.events),
        Some(events.len() as u64),
        "the cut past the last tick holds every event"
    );
    Ok(())
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vdo-digest-prop-{}-{tag}", std::process::id()))
}

proptest! {
    /// One sort per stream digests every cut exactly as a sort per
    /// cut does, for sampled and unsampled recordings alike.
    #[test]
    fn one_sort_digests_equal_the_per_cut_oracle_at_every_tick(
        seed in 0u64..10_000,
        hosts in 2usize..6,
        duration in 10u64..40,
        checkpoint_period in 5u64..20,
        keep_1_in in 2u64..16,
    ) {
        let spec = RunSpec {
            seed,
            trace_seed: seed ^ 0x5eed,
            hosts,
            duration,
            drift_rate: 0.08,
            workers: 2,
            shards: 4,
            fault_rate: 0.4,
            checkpoint_period,
        };
        let policy = SamplingPolicy {
            keep_1_in,
            seed: seed ^ 0xacce,
            ..SamplingPolicy::default()
        };
        let full_dir = tmp(&format!("full-{seed}-{duration}"));
        let samp_dir = tmp(&format!("samp-{seed}-{duration}"));
        let _ = std::fs::remove_dir_all(&full_dir);
        let _ = std::fs::remove_dir_all(&samp_dir);
        let full = record(&spec, &full_dir).expect("unsampled recording succeeds");
        let (sampled, _) =
            record_sampled(&spec, &samp_dir, policy).expect("sampled recording succeeds");

        for (rec, dir) in [(&full, &full_dir), (&sampled, &samp_dir)] {
            let events = JournalDir::open(dir).expect("dir reopens").events().expect("decodes");
            prop_assert!(!events.is_empty(), "the run journals events");
            assert_every_cut(&events, duration)?;
            for cp in &rec.checkpoints {
                prop_assert_eq!(cp, &oracle(&events, cp.tick),
                    "stored checkpoint diverged from the oracle");
            }

            // A non-empty cut without a single verdict line.
            let quiet: Vec<(u64, Event)> = events
                .iter()
                .filter(|(_, e)| e.severity < Severity::Warn)
                .cloned()
                .collect();
            prop_assert!(!quiet.is_empty(), "the run journals sub-Warn events");
            let all = checkpoints_of(&quiet, &[duration + 1])[0];
            prop_assert_eq!(all, oracle(&quiet, duration + 1));
            prop_assert_eq!(all.events, quiet.len() as u64);
            prop_assert_eq!(all.verdict_digest, FNV_OFFSET);
        }

        let _ = std::fs::remove_dir_all(&full_dir);
        let _ = std::fs::remove_dir_all(&samp_dir);
    }
}
