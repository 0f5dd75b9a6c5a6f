//! Count determinism: the work counters of a run depend only on its
//! seed. Timings vary from run to run; keys and documents examined,
//! covering ranges, shards targeted, documents returned, chunk splits
//! and chunk migrations must not.

use perfbench::{work_counts, Shape, Workload};

/// A small shape so the test runs in seconds in a debug build.
fn shape() -> Shape {
    Shape {
        scale: 0.0002,
        dispatch_queries: 48,
        batch_docs: 64,
        queries_per_commit: 4,
        probe_docs: 256,
        probe_queries_per_commit: 2,
    }
}

#[test]
fn same_seed_repeats_counters_and_another_seed_changes_them() {
    for workload in [Workload::Dispatch, Workload::LiveIngest] {
        let (first, (attempted, failed)) = work_counts(workload, 7, &shape());
        assert!(attempted > 0);
        assert_eq!(failed, 0, "{workload:?}: an answer or batch failed");
        assert!(
            first
                .iter()
                .all(|c| c.queries > 0 && c.returned > 0 && c.docs_ingested > 0),
            "{workload:?}: vacuous run {first:?}"
        );
        assert!(
            first.iter().any(|c| c.splits > 0),
            "{workload:?}: ingest split no chunk {first:?}"
        );
        let (again, _) = work_counts(workload, 7, &shape());
        assert_eq!(first, again, "{workload:?}: same seed, different counters");
        let (other, _) = work_counts(workload, 8, &shape());
        assert_ne!(
            first, other,
            "{workload:?}: another seed left the counters unchanged"
        );
    }
}
