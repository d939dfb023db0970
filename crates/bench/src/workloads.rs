//! Workload constructors for the `exp_report` binary. Every experiment
//! in EXPERIMENTS.md names the function here that builds its input, so
//! the published numbers are regenerable from one place.

use vdo_corpus::requirements::{generate, Corpus, CorpusConfig};
use vdo_corpus::traces::throttle_log;
use vdo_gwt::GraphModel;
use vdo_specpat::Kripke;
use vdo_tears::SignalTrace;

/// E1/E2/A1 — requirement corpus of `size` documents with 25 % planted
/// smells.
#[must_use]
pub fn corpus(size: usize) -> Corpus {
    generate(&CorpusConfig {
        size,
        smell_rate: 0.25,
        seed: 7,
    })
}

/// E6 — propositional response trace of `len` ticks: a trigger every 50
/// ticks answered after 3 (satisfies `bounded_response(p, s, 10)`).
#[must_use]
pub fn response_observations(len: usize) -> Vec<std::collections::BTreeSet<String>> {
    (0..len)
        .map(|t| {
            let mut set = std::collections::BTreeSet::new();
            if t % 50 == 0 {
                set.insert("p".to_string());
            }
            if t % 50 == 3 {
                set.insert("s".to_string());
            }
            set
        })
        .collect()
}

/// E7 — a ring-of-`n` Kripke structure with `p` everywhere and `q` on
/// one state (worst-case-ish EU/EG fixpoints still terminate quickly;
/// the sweep measures scaling, not pathology).
#[must_use]
pub fn ring_kripke(n: usize) -> Kripke {
    let mut k = Kripke::new();
    for i in 0..n {
        if i == n / 2 {
            k.add_state(["p", "q"]);
        } else {
            k.add_state(["p"]);
        }
    }
    for i in 0..n {
        k.add_transition(i, (i + 1) % n);
        // A chord per eight states makes the structure non-trivially
        // branching.
        if i % 8 == 0 {
            k.add_transition(i, (i + n / 2) % n);
        }
    }
    k.set_initial(0);
    k
}

/// E8 — a ring-with-branches model of roughly `n` vertices.
#[must_use]
pub fn branched_model(n: usize) -> GraphModel {
    let mut m = GraphModel::new(format!("branched_{n}"));
    for i in 0..n {
        m.add_vertex(format!("s{i}"));
    }
    for i in 0..n {
        m.add_edge(i, (i + 1) % n, format!("step{i}"));
    }
    for i in (0..n).step_by(5) {
        let leaf = m.add_vertex(format!("leaf{i}"));
        m.add_edge(i, leaf, format!("enter{i}"));
        m.add_edge(leaf, i, format!("exit{i}"));
    }
    m.set_start(0);
    m
}

/// E9 — TEARS signal trace of `len` ticks with 5 planted faults.
#[must_use]
pub fn tears_trace(len: u64) -> SignalTrace {
    let (rows, _) = throttle_log(len, 1, 5, 13);
    let mut trace = SignalTrace::new();
    for (load, throttled) in rows {
        trace.push_sample([("load", load), ("throttled", throttled)]);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_shapes() {
        assert_eq!(corpus(10).documents.len(), 10);
        assert_eq!(response_observations(100).len(), 100);
        let k = ring_kripke(32);
        assert!(k.is_total());
        let m = branched_model(20);
        assert!(m.edge_count() > 20);
        assert_eq!(tears_trace(500).len(), 500);
    }
}
