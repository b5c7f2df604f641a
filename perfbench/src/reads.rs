//! `rush-hour` and `all-day`: one closed-loop client querying a snapshot
//! reopened on the file backend.
//!
//! Every answer of the measured phases is compared bit for bit with the
//! answer the same query got serially during set-up, and a seeded sample of
//! those is compared with the naive reference pipeline. The traced phase
//! splits each query into its public calls (locate, one Con-Index table
//! fetch per hop, bounding, verifier-core setup, trace back search) and
//! records a span around each.

use std::path::Path;
use std::time::{Duration, Instant};

use streach_core::con_index::ConIndex;
use streach_core::prelude::*;
use streach_core::query::mqmb::{mqmb, mqmb_trace_back};
use streach_core::query::sqmb::{num_hops, sqmb};
use streach_core::query::tbs::trace_back_search;
use streach_core::query::verifier::VerifierCore;
use streach_core::query::MQueryAlgorithm;
use streach_core::time::slot_of;
use streach_core::EngineBuilder;
use streach_storage::IoStatsSnapshot;

use crate::common::{
    answer_of, index_config, ms, nproc, peak_rss_mb, reference_agrees, set_up, setup_median_s,
    Answer, QueryGen, Report, World,
};
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};
use crate::Args;

/// Shares of traced wall time the split pipeline may leave unattributed to
/// its parts before the traced run counts as invalid.
pub const PARTS_TOLERANCE: f64 = 0.05;

/// Queries checked against the naive reference pipeline per run.
const REFERENCE_SAMPLE: usize = 4;

/// Warm-up chunk size while waiting for a steady eviction rate.
const WARM_CHUNK: usize = 16;

/// One read workload.
pub struct Spec {
    /// City generator configuration.
    pub city: GeneratorConfig,
    /// Taxis in the fleet.
    pub taxis: usize,
    /// Days of history.
    pub days: u16,
    /// Query start times are drawn from `[from_s, to_s)`.
    pub from_s: u32,
    /// See `from_s`.
    pub to_s: u32,
    /// Every n-th query is an m-query; 0 for none.
    pub mquery_every: u64,
    /// Distinct queries in the pool the client cycles through.
    pub pool: usize,
    /// Pre-build the Con-Index tables of the whole query window in set-up.
    pub warm_con_index: bool,
}

enum Query {
    S(SQuery),
    M(MQuery),
}

/// Cycles through the query pool in generation order, in which successive
/// queries start in far-apart strata of the window.
struct Order {
    len: usize,
    next: usize,
}

impl Order {
    fn new(len: usize) -> Self {
        Self { len, next: 0 }
    }

    fn next(&mut self) -> usize {
        let i = self.next;
        self.next = (i + 1) % self.len;
        i
    }
}

#[derive(Default)]
struct Phase {
    s_ms: Vec<f64>,
    m_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
}

fn engine_answer(engine: &ReachabilityEngine, q: &Query) -> Result<Answer, QueryError> {
    let outcome = match q {
        Query::S(s) => engine.try_s_query(s, Algorithm::SqmbTbs)?,
        Query::M(m) => engine.try_m_query(m, MQueryAlgorithm::MqmbTbs)?,
    };
    Ok(answer_of(&outcome.region))
}

/// Untraced closed loop: whole engine calls, timed by the client.
fn untraced(
    engine: &ReachabilityEngine,
    pool: &[Query],
    expected: &[Answer],
    order: &mut Order,
    length: Duration,
) -> Phase {
    let mut phase = Phase::default();
    let t0 = Instant::now();
    while t0.elapsed() < length {
        let i = order.next();
        let t = Instant::now();
        let got = engine_answer(engine, &pool[i]);
        let took = ms(t.elapsed());
        phase.attempted += 1;
        if got.as_ref().ok() != Some(&expected[i]) {
            phase.failed += 1;
        }
        match pool[i] {
            Query::S(_) => phase.s_ms.push(took),
            Query::M(_) => phase.m_ms.push(took),
        }
    }
    phase.elapsed_s = t0.elapsed().as_secs_f64();
    phase
}

/// Per-query counters the traced split pipeline gathers.
#[derive(Default)]
struct SplitCounters {
    s_queries: u64,
    m_queries: u64,
    locate_calls: u64,
    fetches: u64,
    max_region: u64,
    annulus: u64,
    tbs_verifications: u64,
    tbs_useful: u64,
    mqmb_verifications: u64,
}

/// Fetches the Con-Index table of every hop slot, recording each fetch as
/// `con_index.fetch`, or `con_index.build` when it built the table.
fn fetch_hops(
    con: &ConIndex,
    tracer: &mut Tracer,
    op: u64,
    root: SpanId,
    start_time_s: u32,
    duration_s: u32,
    counters: &mut SplitCounters,
) {
    let slot_s = con.slot_s();
    for step in 0..num_hops(duration_s, slot_s) {
        let slot = slot_of(start_time_s.saturating_add(step * slot_s), slot_s);
        let built_before = con.stats().slots_built;
        let id = tracer.open("con_index.fetch", op, Some(root));
        std::hint::black_box(con.slot_table(slot));
        tracer.close(id);
        if con.stats().slots_built > built_before {
            tracer.rename(id, "con_index.build");
        }
        counters.fetches += 1;
    }
}

/// The s-query pipeline of `try_s_query`, split into its public calls.
fn split_s(
    engine: &ReachabilityEngine,
    tracer: &mut Tracer,
    op: u64,
    q: &SQuery,
    c: &mut SplitCounters,
) -> Result<Answer, QueryError> {
    let root = tracer.open("query", op, None);
    let result = (|| {
        q.validate()?;
        c.locate_calls += 1;
        let start = tracer.time("roadnet.locate", op, Some(root), || {
            engine.try_locate(&q.location)
        })?;
        let con = engine.con_index();
        fetch_hops(con, tracer, op, root, q.start_time_s, q.duration_s, c);
        let bounds = tracer.time("query.sqmb", op, Some(root), || {
            sqmb(
                con,
                engine.network().num_segments(),
                start,
                q.start_time_s,
                q.duration_s,
            )
        });
        let core = tracer.time("query.verifier.core", op, Some(root), || {
            VerifierCore::new(engine.st_index(), start, q.start_time_s, q.duration_s)
        })?;
        let out = tracer.time("query.tbs", op, Some(root), || {
            trace_back_search(engine.network(), &core, &bounds, q.prob)
        })?;
        let min = bounds.min_region.len() as u64;
        c.max_region += bounds.max_region.len() as u64;
        c.annulus += (bounds.max_region.len() as u64).saturating_sub(min);
        c.tbs_verifications += out.verifications as u64;
        c.tbs_useful += (out.region.len() as u64).saturating_sub(min);
        Ok(answer_of(&out.region))
    })();
    tracer.close(root);
    c.s_queries += 1;
    result
}

/// The MQMB+TBS pipeline of `try_m_query`, split into its public calls.
fn split_m(
    engine: &ReachabilityEngine,
    tracer: &mut Tracer,
    op: u64,
    q: &MQuery,
    c: &mut SplitCounters,
) -> Result<Answer, QueryError> {
    let root = tracer.open("mquery", op, None);
    let result = (|| {
        q.validate()?;
        let mut starts = Vec::with_capacity(q.locations.len());
        for p in &q.locations {
            c.locate_calls += 1;
            starts.push(tracer.time("roadnet.locate", op, Some(root), || engine.try_locate(p))?);
        }
        let con = engine.con_index();
        fetch_hops(con, tracer, op, root, q.start_time_s, q.duration_s, c);
        let bounds = tracer.time("query.mqmb", op, Some(root), || {
            mqmb(
                con,
                engine.network(),
                &starts,
                &q.locations,
                q.start_time_s,
                q.duration_s,
            )
        });
        let out = tracer.time("query.mqmb_trace_back", op, Some(root), || {
            mqmb_trace_back(
                engine.network(),
                engine.st_index(),
                &bounds,
                &starts,
                q.start_time_s,
                q.duration_s,
                q.prob,
            )
        })?;
        c.mqmb_verifications += out.verifications as u64;
        Ok(answer_of(&out.region))
    })();
    tracer.close(root);
    c.m_queries += 1;
    result
}

/// What the traced phase measured.
struct Traced {
    tracer: Tracer,
    counters: SplitCounters,
    attempted: u64,
    failed: u64,
    builds: u64,
    evictions: u64,
    cached_slots: usize,
    io: IoStatsSnapshot,
}

fn traced(
    engine: &ReachabilityEngine,
    pool: &[Query],
    expected: &[Answer],
    order: &mut Order,
    length: Duration,
) -> Traced {
    let mut tracer = Tracer::new(Instant::now());
    let mut counters = SplitCounters::default();
    let (mut attempted, mut failed) = (0, 0);
    let con_before = engine.con_index().stats();
    let io_before = engine.st_index().io_stats().snapshot();
    let t0 = Instant::now();
    while t0.elapsed() < length {
        let i = order.next();
        let got = match &pool[i] {
            Query::S(s) => split_s(engine, &mut tracer, attempted, s, &mut counters),
            Query::M(m) => split_m(engine, &mut tracer, attempted, m, &mut counters),
        };
        attempted += 1;
        if got.as_ref().ok() != Some(&expected[i]) {
            failed += 1;
        }
    }
    let con_after = engine.con_index().stats();
    Traced {
        tracer,
        counters,
        attempted,
        failed,
        builds: con_after.slots_built - con_before.slots_built,
        evictions: con_after.slots_evicted - con_before.slots_evicted,
        cached_slots: con_after.cached_slots,
        io: engine
            .st_index()
            .io_stats()
            .snapshot()
            .delta_since(&io_before),
    }
}

/// Runs one read workload.
pub fn run(spec: &Spec, args: &Args, work: &Path) -> Report {
    let mut report = Report::default();
    let world = World::generate(spec.city.clone(), spec.taxis, spec.days, 0);
    let config = index_config();
    let mut setup = |dir: &Path| {
        EngineBuilder::new(world.network.clone(), &world.base)
            .index_config(config.clone())
            .save_snapshot(dir)
            .expect("build and save the snapshot");
        let engine = ReachabilityEngine::open_snapshot(dir, world.network.clone())
            .expect("reopen the snapshot");
        if spec.warm_con_index {
            engine.warm_con_index(spec.from_s, spec.to_s - spec.from_s + 1500);
        }
        engine
    };
    let (engine, dir, first_setup_s) = set_up(work, 0, &mut setup);

    // The query pool and its serial answers; computing them also warms the
    // buffer pool and the Con-Index.
    let mut gen = QueryGen::new(args.seed, 2, spec.from_s, spec.to_s, spec.pool as u64);
    let pool: Vec<Query> = (0..spec.pool as u64)
        .map(|i| {
            if spec.mquery_every > 0 && i % spec.mquery_every == spec.mquery_every - 1 {
                Query::M(gen.mquery(&world))
            } else {
                Query::S(gen.squery(&world))
            }
        })
        .collect();
    let expected: Vec<Answer> = pool
        .iter()
        .map(|q| engine_answer(&engine, q).expect("set-up queries do not fail"))
        .collect();
    let mut reference_failed = 0;
    let mut checked = 0;
    for (q, want) in pool.iter().zip(&expected) {
        if let Query::S(s) = q {
            if checked < REFERENCE_SAMPLE {
                checked += 1;
                reference_failed += u64::from(!reference_agrees(&engine, s, want));
            }
        }
    }
    report.attempted += checked as u64;
    report.failed += reference_failed;

    // Untimed warm-up until the Con-Index eviction rate is steady.
    let mut order = Order::new(pool.len());
    let mut last = u64::MAX;
    let mut chunks = 0;
    loop {
        let before = engine.con_index().stats().slots_evicted;
        for _ in 0..WARM_CHUNK {
            let i = order.next();
            let _ = engine_answer(&engine, &pool[i]);
        }
        chunks += 1;
        let evicted = engine.con_index().stats().slots_evicted - before;
        let steady = last != u64::MAX && evicted.abs_diff(last) * 2 <= last.max(evicted).max(1);
        if steady || chunks == 8 {
            break;
        }
        last = evicted;
    }

    let heap = dir.join("postings.pages");
    let heap_bytes = std::fs::metadata(&heap).map_or(0, |m| m.len());
    report.note(format!(
        "host: nproc {}, streach_par workers {}; city {} segments, {} taxis x {} days, {} points",
        nproc(),
        streach_par::num_workers(usize::MAX),
        world.network.num_segments(),
        spec.taxis,
        spec.days,
        world.base_points()
    ));
    report.note(format!(
        "posting heap {:.1} MB vs buffer pool {:.1} MB; Con-Index holds {} of max_cached_con_slots {}; warm-up {} chunks of {WARM_CHUNK}",
        heap_bytes as f64 / 1e6,
        (config.pool_pages * streach_storage::PAGE_SIZE) as f64 / 1e6,
        engine.con_index().stats().cached_slots,
        config.max_cached_con_slots,
        chunks
    ));

    let store_bytes_per_point = crate::common::dir_bytes(&dir) as f64 / world.base_points() as f64;
    if !args.trace {
        let phase = untraced(&engine, &pool, &expected, &mut order, args.seconds);
        report.attempted += phase.attempted;
        report.failed += phase.failed;
        let peak_rss = peak_rss_mb();
        let s = Samples::new(phase.s_ms);
        let m = Samples::new(phase.m_ms);
        report.metric("query_p50_ms", s.p50().unwrap_or(0.0));
        match s.quantile(0.95) {
            Some(v) => report.metric("query_p95_ms", v),
            None => report
                .invalid
                .push(format!("{} s-queries cannot support a p95", s.len())),
        }
        report.metric("queries_per_s", phase.attempted as f64 / phase.elapsed_s);
        report.metric("peak_rss_mb", peak_rss);
        report.metric("store_bytes_per_point", store_bytes_per_point);
        report.note(format!(
            "s-queries {} (tail {:?} ms), m-queries {} (p50 {:?} ms)",
            s.len(),
            s.tail(),
            m.len(),
            m.p50()
        ));
        drop(engine);
        report.metric("setup_s", setup_median_s(work, first_setup_s, &mut setup));
    } else {
        // Both halves run the same query sequence, so that their difference
        // is the tracing overhead rather than a different mix.
        let half = args.seconds / 2;
        let start = order.next;
        let base = untraced(&engine, &pool, &expected, &mut order, half);
        order.next = start;
        let t = traced(&engine, &pool, &expected, &mut order, half);
        report.attempted += base.attempted + t.attempted;
        report.failed += base.failed + t.failed;
        layer_metrics(&mut report, &base, &t);
        t.tracer
            .write_jsonl(&args.spans_path())
            .expect("write the span file");
    }
    report
}

/// Per-layer metrics of the traced phase of a read workload.
fn layer_metrics(report: &mut Report, base: &Phase, t: &Traced) {
    let totals = t.tracer.totals();
    let c = &t.counters;
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |n| n.self_ns as f64 / 1e6);
    let per = |v: f64, n: u64| if n == 0 { 0.0 } else { v / n as f64 };
    let ops = c.s_queries + c.m_queries;

    let traced_mean = totals
        .get("query")
        .map_or(0.0, |n| n.total_ns as f64 / 1e6 / n.count as f64);
    let untraced_mean = Samples::new(base.s_ms.clone()).mean();
    let root_total: u64 = ["query", "mquery"]
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|n| n.total_ns)
        .sum();
    let root_self: u64 = ["query", "mquery"]
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|n| n.self_ns)
        .sum();
    let unattributed = per(root_self as f64, root_total.max(1));
    if unattributed > PARTS_TOLERANCE {
        report.invalid.push(format!(
            "split pipeline parts cover only {:.1}% of traced wall time",
            100.0 * (1.0 - unattributed)
        ));
    }

    let fetches = c.fetches;
    report.metric("trace.overhead_ms", traced_mean - untraced_mean);
    report.metric("trace.unattributed_share", unattributed);
    report.metric("locate.calls", per(c.locate_calls as f64, ops));
    report.metric("locate.busy_ms", per(self_ms("roadnet.locate"), ops));
    report.metric("con_index.fetches", per(fetches as f64, ops));
    report.metric("con_index.builds", per(t.builds as f64, ops));
    report.metric(
        "con_index.hit_ratio",
        per(fetches.saturating_sub(t.builds) as f64, fetches),
    );
    report.metric("con_index.evictions", per(t.evictions as f64, ops));
    report.metric(
        "con_index.build_busy_ms",
        per(self_ms("con_index.build"), ops),
    );
    report.metric("con_index.cached_slots", t.cached_slots as f64);
    report.metric("sqmb.busy_ms", per(self_ms("query.sqmb"), c.s_queries));
    report.metric(
        "sqmb.max_region_segments",
        per(c.max_region as f64, c.s_queries),
    );
    report.metric("sqmb.annulus_segments", per(c.annulus as f64, c.s_queries));
    report.metric(
        "verifier.core_busy_ms",
        per(self_ms("query.verifier.core"), c.s_queries),
    );
    report.metric("tbs.busy_ms", per(self_ms("query.tbs"), c.s_queries));
    report.metric(
        "tbs.verifications",
        per(c.tbs_verifications as f64, c.s_queries),
    );
    report.metric(
        "tbs.useful_ratio",
        per(c.tbs_useful as f64, c.tbs_verifications),
    );
    report.metric(
        "mqmb.bounding_busy_ms",
        per(self_ms("query.mqmb"), c.m_queries),
    );
    report.metric(
        "mqmb.verify_busy_ms",
        per(self_ms("query.mqmb_trace_back"), c.m_queries),
    );
    report.metric(
        "mqmb.verifications",
        per(c.mqmb_verifications as f64, c.m_queries),
    );
    report.metric(
        "mquery.p50_ms",
        Samples::new(base.m_ms.clone()).p50_or_zero(),
    );
    crate::pool_metrics(report, &t.io, ops);
}
