//! Caller-wall benchmark of `StStore` over the paper's four approaches.
//!
//! One run deploys `bslST`, `bslTS`, `hil` and `hil*` with their default
//! `StoreConfig` (12 shards) over the fleet data set R at scale 0.002,
//! drives one named workload through the public `StStore` API, checks
//! every answer against a brute-force scan of the generated records,
//! and reports what the caller waits for. A traced run replays each
//! query layer by layer (see [`trace`]). `README.md` in this directory
//! describes the workloads and metrics.

pub mod stats;
pub mod trace;

use stats::{best, median, quantile, ratio};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sts_bench::{
    curve_training_sample, dataset_mbr, dataset_records, small_query_batch, Dataset, HarnessConfig,
};
use sts_core::{Approach, QueryReport, StQuery, StStore, StoreConfig};
use sts_document::{Document, ObjectId};
use sts_obs::Registry;
use sts_workload::fleet::{self, FleetConfig};
use sts_workload::Record;
use trace::Tracer;

/// The approaches, in the paper's order.
pub const APPROACHES: [Approach; 4] = Approach::ALL;

/// Metric-name label of an approach (`hil*` is spelled `hilstar`).
pub fn label(approach: Approach) -> &'static str {
    match approach {
        Approach::HilStar => "hilstar",
        other => other.name(),
    }
}

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Distinct city-sized, week-long rectangles around the R hotspots;
    /// more plan keys than the plan cache holds.
    Dispatch,
    /// The paper's eight §5.1 queries, round-robin; plan-cache warm.
    PaperLadder,
    /// Half of R bulk-loaded, the other half through `insert_batch`
    /// with dispatch-style queries after every commit.
    LiveIngest,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Dispatch,
        Workload::PaperLadder,
        Workload::LiveIngest,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dispatch => "dispatch",
            Workload::PaperLadder => "paper_ladder",
            Workload::LiveIngest => "live_ingest",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups of an untraced run; `setup_s` is their median. The read
    /// workloads measure for `--seconds`, spread over their set-ups.
    /// `live_ingest` is a fixed schedule that `--seconds` does not
    /// lengthen, so it repeats it on more set-ups instead.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::LiveIngest => 5,
            Workload::Dispatch | Workload::PaperLadder => 3,
        }
    }
}

/// Sizes of the fixed-work parts of a run.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Fraction of the paper's R record count.
    pub scale: f64,
    /// Distinct dispatch-style queries (more than the 1,024-entry plan
    /// cache holds).
    pub dispatch_queries: usize,
    /// Documents per `insert_batch` call.
    pub batch_docs: usize,
    /// Queries after each commit in `live_ingest`.
    pub queries_per_commit: usize,
    /// Extra documents the read workloads ingest after their read
    /// phases, so that every workload reports ingest throughput.
    pub probe_docs: usize,
    /// Queries after each commit of that write probe.
    pub probe_queries_per_commit: usize,
}

impl Default for Shape {
    fn default() -> Self {
        Shape {
            scale: 0.002,
            dispatch_queries: 1536,
            batch_docs: 256,
            queries_per_commit: 24,
            probe_docs: 4096,
            probe_queries_per_commit: 4,
        }
    }
}

/// The expected answer of one query: the matching record indices in
/// ascending order, plus prefix sums of their `_id` hashes so the answer
/// over any loaded prefix of the records is known in O(log n).
struct Expected {
    rows: Vec<u32>,
    hash_prefix: Vec<u64>,
}

impl Expected {
    /// `(count, id-hash sum)` over the first `visible` records.
    fn at(&self, visible: usize) -> (usize, u64) {
        let k = self.rows.partition_point(|&r| (r as usize) < visible);
        (k, self.hash_prefix[k])
    }
}

/// Everything a run derives from its seed.
pub struct Inputs {
    /// Harness knobs (scale, shards, curve family, the seed of R)
    /// shared with the repository's other bench binaries.
    pub harness: HarnessConfig,
    /// Size of the R data set at this scale.
    pub r_records: usize,
    /// Every record: R, plus the write probe for the read workloads.
    pub records: Vec<Record>,
    /// One document per record, created once so all four stores hold
    /// identical `_id`s.
    pub docs: Vec<Document>,
    /// Records `..base` are bulk-loaded at set-up.
    pub base: usize,
    /// The `insert_batch` calls, as record ranges after `base`.
    pub batches: Vec<Range<usize>>,
    /// The workload's queries: `..reads` for the 1-client loop and the
    /// queries after each commit, the rest for the 2-client loop. The
    /// two lists share no plan-cache key on `dispatch` and
    /// `live_ingest`, so the 2-client loop cannot warm the plan cache
    /// for the 1-client one.
    pub queries: Vec<StQuery>,
    /// Length of the 1-client list.
    pub reads: usize,
    /// Queries after each commit.
    pub queries_per_commit: usize,
    expected: Vec<Expected>,
}

/// SplitMix64 finaliser: the hash folded over returned `_id`s.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn id_hash(id: ObjectId) -> u64 {
    let b = id.bytes();
    let hi = u64::from_be_bytes(b[..8].try_into().expect("8 bytes"));
    let lo = u32::from_be_bytes(b[8..].try_into().expect("4 bytes"));
    mix(hi ^ mix(u64::from(lo)))
}

fn doc_id(doc: &Document) -> ObjectId {
    doc.object_id()
        .expect("every generated document carries an _id")
}

impl Inputs {
    /// Generate the records, documents, queries and expected answers of
    /// `workload` at `seed`.
    pub fn generate(workload: Workload, seed: u64, shape: &Shape) -> Inputs {
        // R is one fixed data set, as in the paper: it comes from the
        // harness's standard seed. `seed` draws everything else.
        let harness = HarnessConfig {
            scale: shape.scale,
            num_shards: 12,
            ..HarnessConfig::default()
        };
        let mut records = dataset_records(Dataset::R, &harness, 1);
        let r_records = records.len();
        let (base, mut queries, per_commit) = match workload {
            Workload::Dispatch | Workload::PaperLadder => {
                records.extend(fleet::generate(&FleetConfig {
                    records: shape.probe_docs as u64,
                    seed: seed ^ 0x9E0B_E5EE_D000_0001,
                    ..FleetConfig::default()
                }));
                let queries = if workload == Workload::Dispatch {
                    small_query_batch(shape.dispatch_queries, seed)
                } else {
                    sts_workload::queries::full_workload(sts_bench::dataset_start())
                        .into_iter()
                        .map(|(_, _, q)| q)
                        .collect()
                };
                (r_records, queries, shape.probe_queries_per_commit)
            }
            Workload::LiveIngest => (
                r_records / 2,
                small_query_batch(shape.dispatch_queries, seed),
                shape.queries_per_commit,
            ),
        };
        let reads = queries.len();
        if workload == Workload::PaperLadder {
            queries.extend_from_within(..);
        } else {
            queries.extend(small_query_batch(shape.dispatch_queries, mix(seed)));
        }
        let batches = (base..records.len())
            .step_by(shape.batch_docs)
            .map(|lo| lo..(lo + shape.batch_docs).min(records.len()))
            .collect();
        let docs: Vec<Document> = records.iter().map(Record::to_document).collect();
        let id_hash: Vec<u64> = docs.iter().map(|d| id_hash(doc_id(d))).collect();
        // Brute force over the records in each query's time window.
        let mut by_date: Vec<u32> = (0..records.len() as u32).collect();
        by_date.sort_by_key(|&i| records[i as usize].date);
        let expected = queries
            .iter()
            .map(|q| {
                let from = by_date.partition_point(|&i| records[i as usize].date < q.t0);
                let to = by_date.partition_point(|&i| records[i as usize].date <= q.t1);
                let mut rows: Vec<u32> = by_date[from..to]
                    .iter()
                    .copied()
                    .filter(|&i| {
                        let r = &records[i as usize];
                        q.matches(r.lon, r.lat, r.date)
                    })
                    .collect();
                rows.sort_unstable();
                let mut hash_prefix = Vec::with_capacity(rows.len() + 1);
                hash_prefix.push(0u64);
                for &r in &rows {
                    let last = *hash_prefix.last().expect("non-empty");
                    hash_prefix.push(last.wrapping_add(id_hash[r as usize]));
                }
                Expected { rows, hash_prefix }
            })
            .collect();
        Inputs {
            harness,
            r_records,
            records,
            docs,
            base,
            batches,
            queries,
            reads,
            queries_per_commit: per_commit,
            expected,
        }
    }

    /// Fast answer check: the page is complete and has the expected
    /// count and `_id`-hash sum over the first `visible` records.
    fn check_fast(
        &self,
        qi: usize,
        visible: usize,
        docs: &[Document],
        report: &QueryReport,
    ) -> bool {
        let sum = docs.iter().fold(0u64, |acc, d| match d.object_id() {
            Some(id) => acc.wrapping_add(id_hash(id)),
            None => acc,
        });
        !report.cluster.partial && self.expected[qi].at(visible) == (docs.len(), sum)
    }

    /// The sorted `_id`s a brute-force scan of the first `visible`
    /// records returns for query `qi`.
    fn expected_ids(&self, qi: usize, visible: usize) -> Vec<ObjectId> {
        let e = &self.expected[qi];
        let k = e.at(visible).0;
        let mut ids: Vec<ObjectId> = e.rows[..k]
            .iter()
            .map(|&r| doc_id(&self.docs[r as usize]))
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// Sorted `_id`s of an answer.
fn sorted_ids(docs: &[Document]) -> Vec<ObjectId> {
    let mut ids: Vec<ObjectId> = docs.iter().map(doc_id).collect();
    ids.sort_unstable();
    ids
}

/// Attempted and failed operations: queries and batches; partial
/// pages, wrong answers and failed batches.
#[derive(Default, Debug)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    fn record(&self, ok: bool) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(attempted, failed)` so far.
    pub fn get(&self) -> (u64, u64) {
        (
            self.attempted.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }
}

/// Deterministic work counters of one approach: the same seed must
/// reproduce them exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Queries counted.
    pub queries: u64,
    /// Index keys examined, over all shards.
    pub keys_examined: u64,
    /// Documents fetched, over all shards.
    pub docs_examined: u64,
    /// Documents returned.
    pub returned: u64,
    /// Covering ranges.
    pub ranges: u64,
    /// Shards targeted.
    pub nodes: u64,
    /// Chunk splits during ingest.
    pub splits: u64,
    /// Chunks migrated during ingest.
    pub chunks_moved: u64,
    /// Documents migrated during ingest.
    pub docs_moved: u64,
    /// Documents committed through `insert_batch`.
    pub docs_ingested: u64,
}

impl WorkCounts {
    fn add_query(&mut self, report: &QueryReport) {
        self.queries += 1;
        self.keys_examined += report.cluster.total_keys_examined();
        self.docs_examined += report
            .cluster
            .per_shard
            .iter()
            .map(|s| s.stats.docs_examined)
            .sum::<u64>();
        self.returned += report.cluster.n_returned();
        self.ranges += report.hilbert_ranges as u64;
        self.nodes += report.cluster.nodes() as u64;
    }
}

/// Deploy `approach` as the repository's `build_store` does (same
/// `StoreConfig`), with a private metrics registry, and bulk-load the
/// shared base documents.
pub fn deploy(approach: Approach, inputs: &Inputs) -> StStore {
    let h = &inputs.harness;
    let mut store = StStore::new(StoreConfig {
        approach,
        num_shards: h.num_shards,
        max_chunk_bytes: h.max_chunk_bytes(),
        data_mbr: dataset_mbr(Dataset::R),
        curve: h.curve,
        curve_sample: curve_training_sample(&inputs.records[..inputs.base]),
        ..StoreConfig::default()
    });
    store.set_metrics_registry(Arc::new(Registry::new()));
    store
        .bulk_load(inputs.docs[..inputs.base].iter().cloned())
        .expect("generated records are always loadable");
    store
}

/// Run one query as the caller does and check its answer; with a
/// tracer and `traced`, the query is also replayed layer by layer.
/// Returns the caller's wall time in µs and the report.
#[allow(clippy::too_many_arguments)]
fn one_query(
    store: &StStore,
    approach: usize,
    inputs: &Inputs,
    qi: usize,
    visible: usize,
    full_check: bool,
    tally: &Tally,
    tracer: Option<&mut Tracer>,
    traced: bool,
) -> (f64, QueryReport) {
    let query = &inputs.queries[qi];
    let (docs, report, us, consistent) = match tracer {
        Some(t) if traced => t.traced_query(store, approach, query),
        other => {
            let t0 = Instant::now();
            let (docs, report) = store.st_query(query);
            let us = t0.elapsed().as_nanos() as f64 / 1_000.0;
            if let Some(t) = other {
                t.note_untraced(approach, us);
            }
            (docs, report, us, true)
        }
    };
    let ok = if full_check {
        !report.cluster.partial && sorted_ids(&docs) == inputs.expected_ids(qi, visible)
    } else {
        inputs.check_fast(qi, visible, &docs, &report)
    };
    tally.record(ok && consistent);
    (us, report)
}

/// Correctness gate: every query once on every store, query-major,
/// each answer's sorted `_id` set compared with the brute-force scan —
/// and so with every other approach's answer. The check runs outside
/// the timed call. Also the source of the read workloads'
/// deterministic work counters. Each store's caller wall time (µs) of
/// query `qi` is appended to `wall[store][qi]`. With `throughput`, a
/// 2-client round runs whenever one is due.
pub fn gate_pass(
    stores: &[StStore],
    inputs: &Inputs,
    tally: &Tally,
    counts: &mut [WorkCounts],
    mut throughput: Option<&mut Throughput>,
    wall: &mut [Vec<Vec<f64>>],
) {
    for (qi, query) in inputs.queries[..inputs.reads].iter().enumerate() {
        if let Some(t) = throughput.as_deref_mut().filter(|t| t.due()) {
            t.round(stores, inputs, inputs.base, tally);
        }
        let want = inputs.expected_ids(qi, inputs.base);
        for (i, store) in stores.iter().enumerate() {
            let t = Instant::now();
            let (docs, report) = store.st_query(query);
            wall[i][qi].push(t.elapsed().as_nanos() as f64 / 1_000.0);
            counts[i].add_query(&report);
            tally.record(!report.cluster.partial && sorted_ids(&docs) == want);
        }
    }
}

/// 1-client closed loop: further passes over the whole query list,
/// query-major so the four stores share the machine's slow and fast
/// moments, until `budget` is used. Each store's wall time (µs) of query
/// `qi` is appended to `wall[store][qi]`. With `throughput`, a 2-client
/// round runs whenever one is due. With a tracer, at least one whole
/// pass runs, and every other query is traced, alternating from pass to
/// pass, so traced and untraced calls share the machine's conditions.
pub fn latency_passes(
    stores: &[StStore],
    inputs: &Inputs,
    budget: Duration,
    tally: &Tally,
    mut tracer: Option<&mut Tracer>,
    mut throughput: Option<&mut Throughput>,
    wall: &mut [Vec<Vec<f64>>],
) {
    let start = Instant::now();
    for step in 1usize.. {
        let (pass, qi) = ((step - 1) / inputs.reads, (step - 1) % inputs.reads);
        if (pass > 0 || tracer.is_none()) && start.elapsed() >= budget {
            break;
        }
        if let Some(t) = throughput.as_deref_mut().filter(|t| t.due()) {
            t.round(stores, inputs, inputs.base, tally);
        }
        for (i, (store, samples)) in stores.iter().zip(wall.iter_mut()).enumerate() {
            let (us, _) = one_query(
                store,
                i,
                inputs,
                qi,
                inputs.base,
                false,
                tally,
                tracer.as_deref_mut(),
                (pass + qi) % 2 == 0,
            );
            samples[qi].push(us);
        }
    }
}

/// Client threads of the 2-client loop: two, or one on a 1-core
/// machine.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Length of one 2-client slice.
const SLICE: Duration = Duration::from_millis(30);

/// 1-client time between two rounds of the 2-client loop in the read
/// workloads.
const ROUND_EVERY: Duration = Duration::from_millis(250);

/// The 2-client closed loop. It runs as rounds of short slices, one per
/// store in turn, spread over the run's 1-client work: the machine's
/// speed drifts by ±20 % from second to second, so a median over slices
/// taken at many moments is steadier than one window of the same total
/// length.
pub struct Throughput {
    /// Completed queries per second of each slice, per store.
    slices: Vec<Vec<f64>>,
    /// Next query of each store's loop.
    next: Vec<usize>,
    /// When the 1-client time toward the next round started.
    since: Instant,
}

impl Throughput {
    /// No slices yet, for `stores` stores.
    pub fn new(stores: usize) -> Self {
        Throughput {
            slices: vec![Vec::new(); stores],
            next: vec![0; stores],
            since: Instant::now(),
        }
    }

    /// Whether [`ROUND_EVERY`] of 1-client time has passed since the
    /// last round.
    fn due(&self) -> bool {
        self.since.elapsed() >= ROUND_EVERY
    }

    /// One slice on every store, each answer checked against the first
    /// `visible` records.
    pub fn round(&mut self, stores: &[StStore], inputs: &Inputs, visible: usize, tally: &Tally) {
        let n = inputs.queries.len() - inputs.reads;
        let clients = client_threads();
        for (i, store) in stores.iter().enumerate() {
            let start = Instant::now();
            let deadline = start + SLICE;
            let completed = AtomicU64::new(0);
            std::thread::scope(|s| {
                for c in 0..clients {
                    let completed = &completed;
                    let first = self.next[i] + c * n / clients;
                    s.spawn(move || {
                        let mut k = first % n;
                        while Instant::now() < deadline {
                            let qi = inputs.reads + k;
                            let (docs, report) = store.st_query(&inputs.queries[qi]);
                            tally.record(inputs.check_fast(qi, visible, &docs, &report));
                            completed.fetch_add(1, Ordering::Relaxed);
                            k = (k + 1) % n;
                        }
                    });
                }
            });
            let done = completed.into_inner();
            self.slices[i].push(done as f64 / start.elapsed().as_secs_f64());
            self.next[i] += (done as usize).div_ceil(clients);
        }
        self.since = Instant::now();
    }

    /// Slices taken per store.
    pub fn rounds(&self) -> usize {
        self.slices[0].len()
    }

    /// Per store, the median over its slices of completed queries per
    /// second.
    pub fn qps(&self) -> Vec<f64> {
        self.slices.iter().map(|q| median(q)).collect()
    }
}

/// What an ingest phase measured on one store.
#[derive(Clone, Debug, Default)]
pub struct IngestStats {
    /// Wall time of each `insert_batch` call, in ms.
    pub batch_ms: Vec<f64>,
    /// Caller wall times (µs) of the queries after each commit.
    pub query_us: Vec<f64>,
    /// Plan-cache route refreshes during the phase.
    pub route_refresh: u64,
}

/// Commits between two rounds of the 2-client loop in `live_ingest`.
const COMMITS_PER_ROUND: usize = 4;

/// Feed `inputs.batches` through `insert_batch`, on one thread. Each
/// batch is committed on every store, and then `queries_per_commit`
/// queries (none for a set-up repetition that only times the batches)
/// run query-major across the stores, each checked against the records
/// committed so far. With `count_queries`, those queries feed the work
/// counters. With `throughput`, a 2-client round runs every
/// [`COMMITS_PER_ROUND`] commits.
#[allow(clippy::too_many_arguments)]
pub fn ingest_phase(
    stores: &mut [StStore],
    inputs: &Inputs,
    queries_per_commit: usize,
    tally: &Tally,
    counts: &mut [WorkCounts],
    count_queries: bool,
    mut tracer: Option<&mut Tracer>,
    mut throughput: Option<&mut Throughput>,
) -> Vec<IngestStats> {
    let n = inputs.reads;
    let refresh = |s: &StStore| {
        s.metrics_registry()
            .counter("router.plancache.route_refresh")
            .get()
    };
    let before: Vec<_> = stores
        .iter()
        .map(|s| {
            (
                s.cluster().chunk_map().len(),
                s.cluster().migration_stats(),
                refresh(s),
            )
        })
        .collect();
    let mut out = vec![IngestStats::default(); stores.len()];
    let mut cursor = 0usize;
    for (b, range) in inputs.batches.iter().enumerate() {
        for (i, store) in stores.iter_mut().enumerate() {
            let batch: Vec<Document> = inputs.docs[range.clone()].to_vec();
            let t = Instant::now();
            let res = store.insert_batch(batch);
            out[i].batch_ms.push(t.elapsed().as_nanos() as f64 / 1e6);
            tally.record(res == Ok(range.len() as u64));
            counts[i].docs_ingested += range.len() as u64;
        }
        // Query-major across the stores, like the latency passes.
        for k in 0..queries_per_commit {
            let qi = (cursor + k) % n;
            for (i, store) in stores.iter().enumerate() {
                let (us, report) = one_query(
                    store,
                    i,
                    inputs,
                    qi,
                    range.end,
                    true,
                    tally,
                    tracer.as_deref_mut(),
                    k % 2 == 1,
                );
                out[i].query_us.push(us);
                if count_queries {
                    counts[i].add_query(&report);
                }
            }
        }
        cursor += queries_per_commit;
        if let Some(t) = throughput
            .as_deref_mut()
            .filter(|_| (b + 1) % COMMITS_PER_ROUND == 0)
        {
            t.round(stores, inputs, range.end, tally);
        }
    }
    for (i, store) in stores.iter().enumerate() {
        let (chunks0, moves0, refresh0) = before[i];
        let moves = store.cluster().migration_stats();
        counts[i].splits += (store.cluster().chunk_map().len() - chunks0) as u64;
        counts[i].chunks_moved += moves.chunks_moved - moves0.chunks_moved;
        counts[i].docs_moved += moves.docs_moved - moves0.docs_moved;
        out[i].route_refresh = refresh(store) - refresh0;
    }
    out
}

/// The fixed-work part of a run, untimed: set-up, the gate pass (read
/// workloads) and the ingest schedule. The benchmark's determinism test
/// compares these counters across runs.
pub fn work_counts(workload: Workload, seed: u64, shape: &Shape) -> (Vec<WorkCounts>, (u64, u64)) {
    let inputs = Inputs::generate(workload, seed, shape);
    let mut stores: Vec<StStore> = APPROACHES.iter().map(|&a| deploy(a, &inputs)).collect();
    let tally = Tally::default();
    let mut counts = vec![WorkCounts::default(); stores.len()];
    let read = workload != Workload::LiveIngest;
    if read {
        let mut wall = vec![vec![Vec::new(); inputs.reads]; stores.len()];
        gate_pass(&stores, &inputs, &tally, &mut counts, None, &mut wall);
    }
    ingest_phase(
        &mut stores,
        &inputs,
        inputs.queries_per_commit,
        &tally,
        &mut counts,
        !read,
        None,
        None,
    );
    (counts, tally.get())
}

/// The executor's worker threads per fan-out as configured: `0` means
/// one per available core (each fan-out is further capped by its task
/// count).
fn executor_workers(store: &StStore) -> usize {
    match store.config().router.executor.workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        w => w,
    }
}

/// The process's peak resident set size, where `/proc` provides it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The machine's CPU time stolen by its hypervisor and its total CPU
/// time so far, in ticks, where `/proc` provides them. Stolen time slows
/// every timed call, so a run that reads slow can be told apart.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
pub struct RunOutput {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Run metadata, as `(key, JSON value)`.
    pub meta: Vec<(String, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The traced run's spans, written when the run ends.
    pub tracer: Option<Tracer>,
}

/// Run options.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Fixed-work sizes.
    pub shape: Shape,
}

/// Per store, the element-wise best over the set-ups of their equally
/// long lists; `per_rep[r][i]` is set-up `r`'s list for store `i`.
fn best_over_reps(per_rep: &[Vec<&[f64]>]) -> Vec<Vec<f64>> {
    (0..per_rep[0].len())
        .map(|i| {
            (0..per_rep[0][i].len())
                .map(|k| best(&per_rep.iter().map(|r| r[i][k]).collect::<Vec<_>>()))
                .collect()
        })
        .collect()
}

/// Bytes of stored documents and of index per document, per store.
fn bytes_per_doc(stores: &[StStore]) -> Vec<(f64, f64)> {
    stores
        .iter()
        .map(|s| {
            let stats = s.collection_stats();
            let index: u64 = s
                .index_sizes()
                .iter()
                .map(|(_, r)| r.prefix_compressed_bytes + r.internal_bytes)
                .sum();
            (
                ratio(stats.storage_bytes, stats.documents),
                ratio(index, stats.documents),
            )
        })
        .collect()
}

/// Run a workload and collect its metrics.
///
/// An untraced run sets the stores up [`Workload::setup_reps`] times and
/// measures on every set-up:
/// - A read workload runs its read phases, for an equal share of
///   `seconds` (the gate pass always runs whole), and then the write
///   probe with its post-commit queries. A query's wall time on a
///   set-up is the median of its samples there.
/// - `live_ingest` runs the whole ingest schedule, with its post-commit
///   queries and 2-client rounds.
///
/// Every set-up sees the same data and plan-cache state at the same
/// point of its schedule, so each query's wall time, each batch time
/// and each store's qps (the median of a set-up's slices) is reported
/// as its best over the set-ups. The machine's speed drifts by ±15 %
/// over seconds for all four stores at once; a set-up about ten seconds
/// from the others is likely to have missed a slow spell, so the best
/// over the set-ups is steadier from run to run than a pooled median.
pub fn run(opts: &RunOptions) -> RunOutput {
    let ticks_from = cpu_ticks();
    let t = Instant::now();
    let inputs = Inputs::generate(opts.workload, opts.seed, &opts.shape);
    let inputs_s = t.elapsed().as_secs_f64();
    let read = opts.workload != Workload::LiveIngest;
    let reps = if opts.trace {
        1
    } else {
        opts.workload.setup_reps()
    };
    let budget = Duration::from_secs_f64(opts.seconds);
    let tally = Tally::default();
    let mut tracer = opts.trace.then(|| Tracer::new(APPROACHES.len()));
    let plan_counters = |stores: &[StStore]| {
        stores
            .iter()
            .map(StStore::plan_cache_counters)
            .collect::<Vec<_>>()
    };
    let mut phases: Vec<(&str, f64)> = Vec::new();
    let mut setup_s = Vec::with_capacity(reps);
    let mut ingests: Vec<Vec<IngestStats>> = Vec::with_capacity(reps);
    // Per set-up and store: each query's wall time (µs), and the qps.
    let mut rep_latency: Vec<Vec<Vec<f64>>> = Vec::with_capacity(reps);
    let mut rep_qps: Vec<Vec<f64>> = Vec::with_capacity(reps);
    let mut stores: Vec<StStore> = Vec::new();
    let mut counts = Vec::new();
    let mut storage = Vec::new();
    let (mut plan_from, mut plan_to) = (Vec::new(), Vec::new());
    let (mut drop_s, mut measured_s, mut gate_s, mut passes, mut slices) = (0.0, 0.0, 0.0, 0.0, 0);
    for rep in 0..reps {
        let t = Instant::now();
        drop(std::mem::take(&mut stores));
        drop_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        stores = APPROACHES.iter().map(|&a| deploy(a, &inputs)).collect();
        setup_s.push(t.elapsed().as_secs_f64());
        // Only the last repetition's counters are reported.
        counts = vec![WorkCounts::default(); stores.len()];
        if rep + 1 == reps {
            storage = bytes_per_doc(&stores);
        }
        let clock = Instant::now();
        let mut throughput = (!opts.trace).then(|| Throughput::new(stores.len()));
        plan_from = plan_counters(&stores);
        if read {
            let mut wall = vec![vec![Vec::new(); inputs.reads]; stores.len()];
            gate_pass(
                &stores,
                &inputs,
                &tally,
                &mut counts,
                throughput.as_mut(),
                &mut wall,
            );
            gate_s += clock.elapsed().as_secs_f64();
            plan_from = plan_counters(&stores);
            latency_passes(
                &stores,
                &inputs,
                (budget / reps as u32).saturating_sub(clock.elapsed()),
                &tally,
                tracer.as_mut(),
                throughput.as_mut(),
                &mut wall,
            );
            plan_to = plan_counters(&stores);
            let timed: usize = wall[0].iter().map(Vec::len).sum();
            passes += timed as f64 / inputs.reads as f64;
            rep_latency.push(
                wall.iter()
                    .map(|w| w.iter().map(|q| median(q)).collect())
                    .collect(),
            );
        }
        let ingest = ingest_phase(
            &mut stores,
            &inputs,
            inputs.queries_per_commit,
            &tally,
            &mut counts,
            !read,
            tracer.as_mut().filter(|_| !read),
            throughput.as_mut().filter(|_| !read),
        );
        if !read {
            plan_to = plan_counters(&stores);
            rep_latency.push(ingest.iter().map(|s| s.query_us.clone()).collect());
        }
        if let Some(t) = &throughput {
            slices += t.rounds();
            rep_qps.push(t.qps());
        }
        ingests.push(ingest);
        measured_s += clock.elapsed().as_secs_f64();
    }
    if read {
        phases.push(("gate_s", gate_s));
        phases.push(("latency_passes", passes));
    }
    phases.push(("measured_s", measured_s));
    let batch_ms = best_over_reps(
        &ingests
            .iter()
            .map(|r| r.iter().map(|s| s.batch_ms.as_slice()).collect())
            .collect::<Vec<_>>(),
    );
    let latency = best_over_reps(
        &rep_latency
            .iter()
            .map(|r| r.iter().map(Vec::as_slice).collect())
            .collect::<Vec<_>>(),
    );
    let qps: Vec<f64> = (0..stores.len())
        .map(|i| rep_qps.iter().map(|r| r[i]).fold(f64::NAN, f64::max))
        .collect();
    let route_refresh: Vec<u64> = ingests[reps - 1].iter().map(|s| s.route_refresh).collect();
    let (attempted, failed) = tally.get();
    phases.push(("inputs_s", inputs_s));
    phases.push(("drop_s", drop_s));
    if !opts.trace {
        phases.push(("throughput_slices", slices as f64));
    }

    let mut meta: Vec<(String, String)> = vec![
        ("workload".into(), format!("\"{}\"", opts.workload.name())),
        ("seed".into(), opts.seed.to_string()),
        ("trace".into(), opts.trace.to_string()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("client_threads".into(), client_threads().to_string()),
        ("scale".into(), inputs.harness.scale.to_string()),
        ("shards".into(), inputs.harness.num_shards.to_string()),
        ("r_records".into(), inputs.r_records.to_string()),
        ("records".into(), inputs.records.len().to_string()),
        ("bulk_loaded".into(), inputs.base.to_string()),
        ("ingest_batches".into(), inputs.batches.len().to_string()),
        ("queries".into(), inputs.reads.to_string()),
        ("latency_samples".into(), latency[0].len().to_string()),
        (
            "executor_workers".into(),
            executor_workers(&stores[0]).to_string(),
        ),
        ("error_ratio".into(), ratio(failed, attempted).to_string()),
    ];
    meta.extend(phases.iter().map(|(k, v)| (k.to_string(), v.to_string())));
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_from, cpu_ticks()) {
        meta.push(("steal_ratio".into(), ratio(s1 - s0, t1 - t0).to_string()));
    }
    if let Some(kb) = peak_rss_kb() {
        meta.push(("peak_rss_kb".into(), kb.to_string()));
    }
    let mut metrics = Vec::new();
    let mut push =
        |name: String, value: f64, unit: &'static str| metrics.push(Metric { name, value, unit });
    if !opts.trace {
        push("setup_s".into(), median(&setup_s), "s");
    }
    let (mut docs_in, mut ingest_s) = (0u64, 0f64);
    for (i, &approach) in APPROACHES.iter().enumerate() {
        let ap = label(approach);
        let store = &stores[i];
        let (c0, c1) = (plan_from[i], plan_to[i]);
        let lookups = (c1.hits + c1.misses + c1.stale) - (c0.hits + c0.misses + c0.stale);
        if !opts.trace {
            let p50: Vec<String> = rep_latency
                .iter()
                .map(|r| median(&r[i]).to_string())
                .collect();
            meta.push((format!("{ap}.setup_p50_us"), format!("[{}]", p50.join(","))));
        }
        meta.push((
            format!("{ap}.plancache_hit_ratio"),
            ratio(c1.hits - c0.hits, lookups).to_string(),
        ));
        docs_in += counts[i].docs_ingested;
        ingest_s += batch_ms[i].iter().sum::<f64>() / 1e3;
        if let Some(t) = tracer.as_ref() {
            meta.push((
                format!("{ap}.traced_queries"),
                t.traced_count(i).to_string(),
            ));
            for (name, value, unit) in t.layer_metrics(i, store.curve().is_some()) {
                push(format!("{ap}.{name}"), value, unit);
            }
            let c = &counts[i];
            let q = c.queries as f64;
            if store.curve().is_some() {
                push(
                    format!("{ap}.curve.ranges_per_query"),
                    c.ranges as f64 / q,
                    "count",
                );
            }
            push(
                format!("{ap}.cluster.nodes_per_query"),
                c.nodes as f64 / q,
                "count",
            );
            push(
                format!("{ap}.query.keys_examined"),
                c.keys_examined as f64 / q,
                "count",
            );
            push(
                format!("{ap}.query.docs_examined"),
                c.docs_examined as f64 / q,
                "count",
            );
            push(
                format!("{ap}.query.returned"),
                c.returned as f64 / q,
                "count",
            );
            push(
                format!("{ap}.query.returned_per_docs_examined"),
                ratio(c.returned, c.docs_examined),
                "ratio",
            );
            push(
                format!("{ap}.core.insert_batch_p50_ms"),
                median(&batch_ms[i]),
                "ms",
            );
            push(
                format!("{ap}.core.insert_batch_p99_ms"),
                quantile(&batch_ms[i], 0.99),
                "ms",
            );
            push(
                format!("{ap}.core.plancache.route_refresh"),
                route_refresh[i] as f64,
                "count",
            );
            push(format!("{ap}.cluster.splits"), c.splits as f64, "count");
            push(
                format!("{ap}.cluster.chunks_moved"),
                c.chunks_moved as f64,
                "count",
            );
            push(
                format!("{ap}.cluster.docs_moved_per_ingested"),
                ratio(c.docs_moved, c.docs_ingested),
                "ratio",
            );
            push(format!("{ap}.storage.bytes_per_doc"), storage[i].0, "B/doc");
            push(format!("{ap}.index.bytes_per_doc"), storage[i].1, "B/doc");
        } else {
            push(format!("{ap}.p50_us"), median(&latency[i]), "us");
            push(format!("{ap}.p99_us"), quantile(&latency[i], 0.99), "us");
            push(format!("{ap}.qps"), qps[i], "1/s");
        }
    }
    if !opts.trace {
        push("ingest_docs_per_s".into(), docs_in as f64 / ingest_s, "1/s");
    }
    RunOutput {
        metrics,
        meta,
        attempted,
        failed,
        tracer,
    }
}
