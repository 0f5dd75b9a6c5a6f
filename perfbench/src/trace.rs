//! Outside-in layer tracing.
//!
//! The root span of a traced query is the caller's `StStore::st_query`.
//! The same query is then replayed piece by piece through the public
//! functions of each crate — `compute_covering`, `assemble_filter`,
//! `Cluster::route_plan`, `Cluster::query_exec` and, per target shard,
//! `LocalCollection::plan` and `LocalCollection::find` — with one span
//! per call. Replay spans run after the root has returned, so they carry
//! the root as their parent without nesting inside its interval. Counts
//! come from counter deltas the program exposes (`plan_cache_counters`,
//! `executor_stats`) around the root call. Spans stay in memory and are
//! written once, when the run ends.

use crate::stats::{median, ratio};
use std::io::Write;
use std::time::Instant;
use sts_cluster::QueryExecOptions;
use sts_core::{assemble_filter, compute_covering, CoverBuffers, QueryReport, StQuery, StStore};
use sts_document::Document;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The public function called.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the parent span (`None` for a root).
    pub parent: Option<u32>,
    /// Query id shared by every span of one traced query.
    pub query: u32,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1_000.0
    }
}

/// Per-query facts read from counter deltas around the root call.
#[derive(Clone, Copy, Debug)]
struct QueryFacts {
    approach: usize,
    /// Index of the root span; the query's spans run from here to the
    /// next query's root.
    root: u32,
    plan_hits: u64,
    plan_lookups: u64,
    steals: u64,
    inline_runs: u64,
}

/// Span and counter recorder for one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    facts: Vec<QueryFacts>,
    cover: CoverBuffers,
    /// Untraced `st_query` wall times (µs) per approach, interleaved
    /// with the traced ones so the two share conditions.
    untraced: Vec<Vec<f64>>,
}

impl Tracer {
    /// A tracer for `approaches` stores.
    pub fn new(approaches: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            facts: Vec::new(),
            cover: CoverBuffers::new(),
            untraced: vec![Vec::new(); approaches],
        }
    }

    /// Record an untraced `st_query` wall time for `approach`.
    pub fn note_untraced(&mut self, approach: usize, us: f64) {
        self.untraced[approach].push(us);
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
    ) -> u32 {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            query: self.facts.len() as u32,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Run `query` on `store` as the caller would, then replay it layer
    /// by layer. Returns the caller's answer, its report, the root
    /// span's wall time in µs, and whether the replayed
    /// `Cluster::query_exec` returned as many documents as the caller.
    pub fn traced_query(
        &mut self,
        store: &StStore,
        approach: usize,
        query: &StQuery,
    ) -> (Vec<Document>, QueryReport, f64, bool) {
        let pc0 = store.plan_cache_counters();
        let ex0 = store.executor_stats();
        let t0 = Instant::now();
        let (docs, report) = store.st_query(query);
        let t1 = Instant::now();
        let pc1 = store.plan_cache_counters();
        let ex1 = store.executor_stats();
        let root = self.push("StStore::st_query", t0, t1, None);

        let curve = store.curve();
        if let Some(curve) = curve {
            let s = Instant::now();
            compute_covering(
                &query.rect,
                curve,
                store.config().range_budget,
                &mut self.cover,
            );
            self.push("compute_covering", s, Instant::now(), Some(root));
        }
        let s = Instant::now();
        let filter = assemble_filter(query, curve.map(|_| self.cover.ranges()));
        self.push("assemble_filter", s, Instant::now(), Some(root));
        let cluster = store.cluster();
        let s = Instant::now();
        let route = cluster.route_plan(&filter);
        self.push("Cluster::route_plan", s, Instant::now(), Some(root));
        let s = Instant::now();
        let (replayed, _) = cluster.query_exec(
            &filter,
            QueryExecOptions {
                route: Some(&route),
                recovery: None,
            },
        );
        self.push("Cluster::query_exec", s, Instant::now(), Some(root));
        for &sid in &route.targets {
            let collection = cluster.shards()[sid].collection();
            let s = Instant::now();
            std::hint::black_box(collection.plan(&filter));
            self.push("LocalCollection::plan", s, Instant::now(), Some(root));
            let s = Instant::now();
            std::hint::black_box(collection.find(&filter));
            self.push("LocalCollection::find", s, Instant::now(), Some(root));
        }

        let lookups = |c: sts_core::CacheCounters| c.hits + c.misses + c.stale;
        self.facts.push(QueryFacts {
            approach,
            root,
            plan_hits: pc1.hits - pc0.hits,
            plan_lookups: lookups(pc1) - lookups(pc0),
            steals: ex1.steals - ex0.steals,
            inline_runs: ex1.inline_runs - ex0.inline_runs,
        });
        let root_us = self.spans[root as usize].us();
        let consistent = replayed.len() == docs.len();
        (docs, report, root_us, consistent)
    }

    /// Number of traced queries for `approach`.
    pub fn traced_count(&self, approach: usize) -> usize {
        self.facts.iter().filter(|f| f.approach == approach).count()
    }

    /// The query-path layer metrics of `approach`, as
    /// `(name, value, unit)`. `curve` says whether the approach has a
    /// covering to time.
    pub fn layer_metrics(
        &self,
        approach: usize,
        curve: bool,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let mut root = Vec::new();
        let mut cover = Vec::new();
        let mut route = Vec::new();
        let mut exec = Vec::new();
        let mut fanout = Vec::new();
        let mut find_sum = Vec::new();
        let mut find_max = Vec::new();
        let mut plan_sum = Vec::new();
        let mut residual = Vec::new();
        let (mut hits, mut lookups, mut steals, mut inline, mut n) = (0, 0, 0, 0, 0);
        for (i, f) in self.facts.iter().enumerate() {
            if f.approach != approach {
                continue;
            }
            let end = self
                .facts
                .get(i + 1)
                .map_or(self.spans.len(), |next| next.root as usize);
            let (mut c, mut r, mut e, mut fs, mut fm, mut ps) = (0.0, 0.0, 0.0, 0.0, 0.0f64, 0.0);
            for span in &self.spans[f.root as usize + 1..end] {
                let us = span.us();
                match span.name {
                    "compute_covering" => c = us,
                    "Cluster::route_plan" => r = us,
                    "Cluster::query_exec" => e = us,
                    "LocalCollection::plan" => ps += us,
                    "LocalCollection::find" => {
                        fs += us;
                        fm = fm.max(us);
                    }
                    _ => {}
                }
            }
            let root_us = self.spans[f.root as usize].us();
            let missed = f.plan_lookups > f.plan_hits;
            root.push(root_us);
            cover.push(c);
            route.push(r);
            exec.push(e);
            fanout.push(e - fm);
            find_sum.push(fs);
            find_max.push(fm);
            plan_sum.push(ps);
            residual.push(root_us - if missed { c } else { 0.0 } - r - e);
            hits += f.plan_hits;
            lookups += f.plan_lookups;
            steals += f.steals;
            inline += f.inline_runs;
            n += 1;
        }
        let mut out = vec![
            ("core.st_query_us", median(&root), "us"),
            (
                "core.st_query_untraced_us",
                median(&self.untraced[approach]),
                "us",
            ),
            ("core.plancache.hit_ratio", ratio(hits, lookups), "ratio"),
        ];
        if curve {
            out.push(("curve.cover_us", median(&cover), "us"));
        }
        out.extend([
            ("cluster.route_us", median(&route), "us"),
            ("cluster.exec_us", median(&exec), "us"),
            ("cluster.fanout_us", median(&fanout), "us"),
            ("cluster.executor.inline_ratio", ratio(inline, n), "ratio"),
            (
                "cluster.executor.steals_per_query",
                ratio(steals, n),
                "count",
            ),
            ("query.find_us", median(&find_sum), "us"),
            ("query.find_max_us", median(&find_max), "us"),
            ("query.plan_us", median(&plan_sum), "us"),
            ("core.residual_us", median(&residual), "us"),
        ]);
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_spans(&self, path: &std::path::Path, labels: &[&str]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let approach = labels[self.facts[s.query as usize].approach];
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"query\":{},\"approach\":\"{approach}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.query, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
