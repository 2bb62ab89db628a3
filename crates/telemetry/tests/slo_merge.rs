//! Property tests of the [`SloSnapshot::merge`] algebra: shards fold node
//! snapshots in whatever grouping the fleet's shard map produces, so the
//! fold must be associative and order-independent, with the default
//! (empty) snapshot as identity — otherwise two reports over the same
//! fleet could disagree depending on node enumeration order.

use pcount_telemetry::slo::slo_counter_names;
use pcount_telemetry::{ErrorBudget, HistogramCounts, JsonValue, SloSnapshot};
use proptest::prelude::*;

/// A random snapshot with counters in canonical [`slo_counter_names`]
/// order (every producer in the workspace emits them in this order, so
/// merged counter vectors are directly comparable).
fn snapshot_strategy() -> impl Strategy<Value = SloSnapshot> {
    (
        collection::vec(0u64..50, slo_counter_names().len()),
        // burn_milli is never negative (see ErrorBudget::burn_milli), and
        // the identity law below relies on that: max(0, burn) == burn.
        0i64..5000,
        collection::vec(0u64..50_000_000, 0..12),
    )
        .prop_map(|(counts, burn, latencies)| {
            let mut recovery_counts = HistogramCounts::empty();
            for v in latencies {
                recovery_counts.record(v);
            }
            SloSnapshot {
                counters: slo_counter_names().into_iter().zip(counts).collect(),
                error_budget_burn_milli: burn,
                recovery_latency: recovery_counts.summarize(),
                recovery_counts,
            }
        })
}

/// Structural equality of everything `merge` is specified over.
fn assert_snapshots_equal(a: &SloSnapshot, b: &SloSnapshot, what: &str) {
    assert_eq!(a.counters, b.counters, "{what}: counters");
    assert_eq!(
        a.error_budget_burn_milli, b.error_budget_burn_milli,
        "{what}: burn"
    );
    assert_eq!(a.recovery_counts, b.recovery_counts, "{what}: counts");
    assert_eq!(a.recovery_latency, b.recovery_latency, "{what}: summary");
    assert_eq!(JsonValue::from(a), JsonValue::from(b), "{what}: json");
}

proptest! {
    #[test]
    fn merge_is_associative(
        abc in (snapshot_strategy(), snapshot_strategy(), snapshot_strategy()),
    ) {
        let (a, b, c) = abc;
        assert_snapshots_equal(&a.merge(&b).merge(&c), &a.merge(&b.merge(&c)), "associativity");
    }

    #[test]
    fn merge_is_order_independent(
        ab in (snapshot_strategy(), snapshot_strategy()),
    ) {
        let (a, b) = ab;
        assert_snapshots_equal(&a.merge(&b), &b.merge(&a), "commutativity");
    }

    #[test]
    fn default_is_the_merge_identity(a in snapshot_strategy()) {
        // Default has no counters, so merging it on the left must still
        // reproduce `a` exactly (union keeps `a`'s names and values).
        assert_snapshots_equal(&SloSnapshot::default().merge(&a), &a, "left identity");
        assert_snapshots_equal(&a.merge(&SloSnapshot::default()), &a, "right identity");
    }

    #[test]
    fn merged_summary_matches_a_single_capture_of_the_union(
        xs_ys in (
            collection::vec(1u64..10_000_000, 1..10),
            collection::vec(1u64..10_000_000, 1..10),
        ),
    ) {
        let (xs, ys) = xs_ys;
        // Percentiles of the merged snapshot equal percentiles of one
        // distribution holding every value — merge loses nothing.
        let record_all = |values: &[u64]| {
            let mut counts = HistogramCounts::empty();
            for &v in values {
                counts.record(v);
            }
            counts
        };
        let merged = record_all(&xs).merge(&record_all(&ys));
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        prop_assert_eq!(merged, record_all(&all));
    }

    #[test]
    fn pooled_burn_weighs_every_frame_equally(
        window_pair in (0u64..40, 0u64..200, 0u64..40, 0u64..200),
    ) {
        let (bad_a, extra_a, bad_b, extra_b) = window_pair;
        let budget = ErrorBudget::default();
        let windows = [(bad_a, bad_a + extra_a), (bad_b, bad_b + extra_b)];
        let pooled = budget.burn_milli_total(windows);
        let direct = budget.burn_milli(bad_a + bad_b, bad_a + extra_a + bad_b + extra_b);
        prop_assert_eq!(pooled, direct);
    }
}

#[test]
fn merge_sums_counters_by_name() {
    let names = slo_counter_names();
    let snap = |v: u64| SloSnapshot {
        counters: names.iter().map(|&n| (n, v)).collect(),
        error_budget_burn_milli: v as i64,
        ..Default::default()
    };
    let merged = snap(2).merge(&snap(3));
    assert!(merged.counters.iter().all(|&(_, v)| v == 5));
    assert_eq!(merged.error_budget_burn_milli, 3, "burn is worst-of");
    assert_eq!(merged.counters.len(), names.len(), "no duplicate names");
}
