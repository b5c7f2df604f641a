//! `live-feed`: writes beside reads, open loop.
//!
//! A base snapshot of the `small()` city is reopened with a WAL attached and
//! a `MaintenanceController` on defaults. One writer replays the next day as
//! one-minute batches on a fixed accelerated schedule; one generator submits
//! s-queries to a `QueryServer` (default configuration) on a fixed arrival
//! schedule. Three queries in four are "now" queries starting at the feed
//! clock, so their slots are the ones each batch invalidates; the rest come
//! from a skewed pool of repeat queries. Every request is timed from its due
//! time. The untraced run offers the nominal rate throughout; the traced
//! run first climbs a ladder of rates untraced, for the highest rate that
//! meets the latency limit, then offers the nominal rate traced. After the
//! run, a query sweep over the live engine is compared with a from-scratch
//! build over the base days plus everything ingested.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use streach_core::prelude::*;
use streach_core::{EngineBuilder, ServerStats, Ticket};
use streach_storage::IoStatsSnapshot;

use crate::common::{
    answer_of, build_from_scratch, dir_bytes, index_config, ms, nproc, peak_rss_mb, set_up,
    setup_median_s, QueryGen, Report, World,
};
use crate::feed::{paced_writes, Feed, WriteLog, Written};
use crate::schedule::{arrivals, backlog_grows, generator_lateness, max_sustained_rate, Rung};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::Args;

/// Feed time the measured phases start at.
const FEED_START_S: u32 = 7 * 3600;
/// Wall time between two one-minute batches.
const BATCH_INTERVAL: Duration = Duration::from_millis(100);
/// Offered query rates of the traced run's ladder, requests per second,
/// climbed in order.
const LADDER: [f64; 4] = [25.0, 50.0, 100.0, 200.0];
/// The offered rate the latency metrics are read at, requests per second.
const NOMINAL: f64 = 100.0;
/// Tail latency limit of the rate-ladder verdict, ms.
const LIMIT_MS: f64 = 50.0;
/// A run whose generator ran later than this share of the latency limit at
/// its tail is invalid.
const LATE_SHARE: f64 = 0.5;
/// Repeat queries in the skewed pool.
const REPEAT_POOL: usize = 32;
/// Queries in the post-run comparison sweep.
const SWEEP: usize = 24;

/// One submitted request.
struct Sent {
    rung: usize,
    due: Instant,
    call: Instant,
    returned: Instant,
    ticket: Ticket,
}

/// What one pass over a plan of rungs measured.
struct Phase {
    /// Offered rate of each rung, requests per second.
    rates: Vec<f64>,
    /// Due-to-answer latencies per rung, ms.
    rungs: Vec<Vec<f64>>,
    backlog_grew: Vec<bool>,
    backlog_max: usize,
    submit_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    answered_per_s: f64,
    writes: WriteLog,
    server: (ServerStats, ServerStats),
    io: IoStatsSnapshot,
    con: (u64, u64),
}

impl Phase {
    /// Latencies of the rungs offered at the nominal rate.
    fn nominal(&self) -> Samples {
        let at_nominal = self
            .rates
            .iter()
            .zip(&self.rungs)
            .filter(|(&r, _)| r == NOMINAL);
        Samples::new(
            at_nominal
                .flat_map(|(_, lat)| lat.iter().copied())
                .collect(),
        )
    }

    fn ladder(&self) -> Vec<Rung> {
        self.rates
            .iter()
            .zip(&self.rungs)
            .zip(&self.backlog_grew)
            .map(|((&rate_per_s, lat), &backlog_grew)| Rung {
                rate_per_s,
                tail_ms: Samples::new(lat.clone()).tail().map(|(_, v)| v),
                backlog_grew,
            })
            .collect()
    }

    fn late_tail_ms(&self) -> f64 {
        Samples::new(self.late_ms.clone()).tail_or_zero()
    }
}

struct Live<'w> {
    world: &'w World,
    engine: Arc<ReachabilityEngine>,
    server: QueryServer<ReachabilityEngine>,
    repeats: Vec<SQuery>,
}

/// Offers each `(rate, length)` rung of `plan` in turn while the writer
/// replays the feed beside it.
fn phase(
    live: &Live,
    feed: &mut Feed,
    gen: &mut QueryGen,
    plan: &[(f64, Duration)],
    tracer: Option<&mut Tracer>,
) -> Phase {
    let engine = &live.engine;
    let server = &live.server;
    let length: Duration = plan.iter().map(|&(_, len)| len).sum();
    let clock = feed.clock(BATCH_INTERVAL);
    let server_before = server.stats();
    let io_before = engine.st_index().io_stats().snapshot();
    let con_before = engine.con_index().stats();
    let writer_tracer = tracer.as_ref().map(|t| t.sibling());
    let t0 = Instant::now();

    let (sent, submit_ms, late_ms, backlog_grew, backlog_max, (writes, writer_spans)) =
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut spans = writer_tracer;
                let log = paced_writes(
                    live.world,
                    feed,
                    t0,
                    BATCH_INTERVAL,
                    length,
                    spans.as_mut(),
                    ("ingest", None),
                    |batch| {
                        let o = engine.ingest(batch).map_err(|e| e.to_string())?;
                        Ok(Written {
                            lists_touched: o.lists_touched as u64,
                            speed_observations: o.speed_observations as u64,
                        })
                    },
                    || {},
                );
                (log, spans)
            });

            let mut sent: Vec<Sent> = Vec::new();
            let mut submit_ms = Vec::new();
            let mut late_ms = Vec::new();
            let mut backlog_grew = Vec::new();
            let mut backlog_max = 0;
            let mut prev_return = Duration::ZERO;
            let mut rung_start = Duration::ZERO;
            for (rung, &(rate, rung_len)) in plan.iter().enumerate() {
                let mut backlog = Vec::new();
                for offset in arrivals(rate, rung_len) {
                    let due_offset = rung_start + offset;
                    let due = t0 + due_offset;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let u = gen.unit();
                    let query = if u < 0.75 {
                        gen.squery_at(live.world, clock(due_offset))
                    } else {
                        // Skewed towards the front of the pool.
                        let v = (u - 0.75) / 0.25;
                        live.repeats[(v * v * v * REPEAT_POOL as f64) as usize]
                    };
                    let call = Instant::now();
                    let ticket = server.submit(query, Algorithm::SqmbTbs);
                    let returned = Instant::now();
                    submit_ms.push(ms(returned - call));
                    late_ms.push(ms(generator_lateness(due_offset, prev_return, call - t0)));
                    prev_return = returned - t0;
                    let stats = server.stats();
                    let outstanding = (stats.submitted - stats.completed) as usize;
                    backlog_max = backlog_max.max(outstanding);
                    backlog.push(outstanding);
                    sent.push(Sent {
                        rung,
                        due,
                        call,
                        returned,
                        ticket,
                    });
                }
                backlog_grew.push(backlog_grows(&backlog));
                rung_start += rung_len;
            }
            let writes = writer.join().expect("the writer thread does not panic");
            (sent, submit_ms, late_ms, backlog_grew, backlog_max, writes)
        });

    let mut rungs = vec![Vec::new(); plan.len()];
    let mut failed = 0;
    let attempted = sent.len() as u64;
    let mut last_answer = t0;
    let mut tracer = tracer;
    for (op, s) in sent.into_iter().enumerate() {
        let (result, answered) = s.ticket.wait_timed();
        if result.is_err() {
            failed += 1;
        }
        last_answer = last_answer.max(answered);
        rungs[s.rung].push(ms(answered.saturating_duration_since(s.due)));
        if let Some(t) = tracer.as_deref_mut() {
            let root = t.record("serve.request", op as u64, None, s.due, answered);
            t.record("serve.submit", op as u64, Some(root), s.call, s.returned);
        }
    }
    if let (Some(t), Some(spans)) = (tracer, writer_spans) {
        t.absorb(spans);
    }
    let con_after = engine.con_index().stats();
    Phase {
        rates: plan.iter().map(|&(rate, _)| rate).collect(),
        rungs,
        backlog_grew,
        backlog_max,
        submit_ms,
        late_ms,
        attempted,
        failed: failed + writes.failed,
        answered_per_s: attempted as f64 / (last_answer - t0).as_secs_f64(),
        writes,
        server: (server_before, server.stats()),
        io: engine
            .st_index()
            .io_stats()
            .snapshot()
            .delta_since(&io_before),
        con: (
            con_after.slots_built - con_before.slots_built,
            con_after.slots_evicted - con_before.slots_evicted,
        ),
    }
}

/// Runs the `live-feed` workload.
pub fn run(args: &Args, work: &Path) -> Report {
    let mut report = Report::default();
    let world = World::generate(GeneratorConfig::small(), 60, 10, 1);
    let mut feed = Feed::new(&world, FEED_START_S);
    let pre_feed = &world.feed[..feed.pre];
    let mut setup = |dir: &Path| {
        EngineBuilder::new(world.network.clone(), &world.base)
            .index_config(index_config())
            .save_snapshot(dir)
            .expect("build and save the snapshot");
        let engine = Arc::new(
            ReachabilityEngine::open_snapshot(dir, world.network.clone())
                .expect("reopen the snapshot"),
        );
        engine
            .attach_wal(dir.join("ingest.wal"))
            .expect("attach the WAL");
        let controller =
            MaintenanceController::spawn(engine.clone(), dir, MaintenanceConfig::default());
        engine.ingest(pre_feed).expect("catch up to the feed start");
        engine.warm_con_index(FEED_START_S, 2 * 3600);
        (engine, controller)
    };
    let ((engine, controller), dir, first_setup_s) = set_up(work, 0, &mut setup);
    let mut pool_gen = QueryGen::new(
        args.seed,
        5,
        FEED_START_S,
        FEED_START_S + 2 * 3600,
        REPEAT_POOL as u64,
    );
    let repeats: Vec<SQuery> = (0..REPEAT_POOL).map(|_| pool_gen.squery(&world)).collect();
    let mut gen = QueryGen::new(args.seed, 2, 0, 1, 256);
    let server = QueryServer::start(engine.clone(), ServeConfig::default());
    let live = Live {
        world: &world,
        engine,
        server,
        repeats,
    };
    let wal = dir.join("ingest.wal");
    let wal_before = std::fs::metadata(&wal).map_or(0, |m| m.len());

    let (main, base) = if args.trace {
        let rung_len = args.seconds / (2 * LADDER.len() as u32);
        let ladder: Vec<(f64, Duration)> = LADDER.iter().map(|&r| (r, rung_len)).collect();
        let base = phase(&live, &mut feed, &mut gen, &ladder, None);
        let mut tracer = Tracer::new(Instant::now());
        let nominal = [(NOMINAL, args.seconds / 2)];
        let main = phase(&live, &mut feed, &mut gen, &nominal, Some(&mut tracer));
        tracer
            .write_jsonl(&args.spans_path())
            .expect("write the span file");
        layer_metrics(&mut report, &main, &base, &tracer);
        (main, Some(base))
    } else {
        let nominal = [(NOMINAL, args.seconds)];
        (phase(&live, &mut feed, &mut gen, &nominal, None), None)
    };
    for p in std::iter::once(&main).chain(base.as_ref()) {
        report.attempted += p.attempted + p.writes.ack_ms.len() as u64;
        report.failed += p.failed;
        if p.late_tail_ms() > LATE_SHARE * LIMIT_MS {
            report.invalid.push(format!(
                "generator ran {:.2} ms late at its tail, over {LATE_SHARE} of the {LIMIT_MS} ms limit",
                p.late_tail_ms()
            ));
        }
    }

    let peak_rss = peak_rss_mb();
    controller.run_now();
    let maintenance = controller.stats();
    let maintenance_errors = controller.shutdown();
    report.failed += maintenance_errors.len() as u64;
    let ingested = feed.ingested();
    let held = live.world.base_points() + ingested as u64;
    let wal_growth = std::fs::metadata(&wal)
        .map_or(0, |m| m.len())
        .saturating_sub(wal_before);
    let written: u64 = main.writes.points + base.as_ref().map_or(0, |b| b.writes.points);
    let store_bytes_per_point = dir_bytes(&dir) as f64 / held as f64;

    // The answer gate: the live engine against a from-scratch build.
    let scratch = build_from_scratch(&live.world.network, &live.world.dataset_through(ingested));
    let end_s = feed.clock(BATCH_INTERVAL)(Duration::ZERO);
    let mut sweep = QueryGen::new(args.seed, 4, FEED_START_S, end_s, SWEEP as u64);
    for _ in 0..SWEEP {
        let q = sweep.squery(live.world);
        let got = live.engine.try_s_query(&q, Algorithm::SqmbTbs);
        let want = scratch.try_s_query(&q, Algorithm::SqmbTbs);
        report.attempted += 1;
        match (got, want) {
            (Ok(g), Ok(w)) if answer_of(&g.region) == answer_of(&w.region) => {}
            _ => report.failed += 1,
        }
    }

    report.note(format!(
        "host: nproc {}, streach_par workers {}; city {} segments, {} taxis, {} base days + day {} fed from {:02}:00 ({} points ingested in set-up, {} in the run)",
        nproc(),
        streach_par::num_workers(usize::MAX),
        live.world.network.num_segments(),
        live.world.taxis,
        live.world.base_days,
        live.world.base_days,
        FEED_START_S / 3600,
        feed.pre,
        written
    ));
    let verdict = base
        .as_ref()
        .and_then(|b| max_sustained_rate(&b.ladder(), LIMIT_MS));
    report.note(format!(
        "nominal {NOMINAL} q/s; ladder {LADDER:?} q/s in the traced run; max sustained rate at tail <= {LIMIT_MS} ms: {verdict:?}; generator late tail {:.3} ms",
        main.late_tail_ms()
    ));
    for p in base.iter().chain(std::iter::once(&main)) {
        for (rate, lat) in p.rates.iter().zip(&p.rungs) {
            let s = Samples::new(lat.clone());
            let q: Vec<Option<f64>> = [0.5, 0.75, 0.9, 0.95, 0.99]
                .iter()
                .map(|&q| s.quantile(q))
                .collect();
            report.note(format!(
                "  rung {rate} q/s: {} requests, p50/p75/p90/p95/p99 {q:.2?} ms",
                s.len()
            ));
        }
    }

    if args.trace {
        report.metric("serve.max_rate_qps", verdict.unwrap_or(0.0));
        report.metric("maintenance.checkpoints", maintenance.checkpoints as f64);
        report.metric("maintenance.compactions", maintenance.compactions as f64);
        report.metric("maintenance.errors", maintenance.errors as f64);
        let delta = live.engine.st_index().delta_stats();
        report.metric("delta.bytes", delta.delta_bytes as f64);
        report.metric("delta.lists", delta.delta_lists as f64);
        report.metric(
            "wal.bytes_per_point",
            wal_growth as f64 / written.max(1) as f64,
        );
    } else {
        let nominal = main.nominal();
        report.metric("query_p50_ms", nominal.p50().unwrap_or(0.0));
        match nominal.quantile(0.95) {
            Some(v) => report.metric("query_p95_ms", v),
            None => report.invalid.push(format!(
                "{} nominal requests cannot support a p95",
                nominal.len()
            )),
        }
        report.metric("queries_per_s", main.answered_per_s);
        report.metric("peak_rss_mb", peak_rss);
        report.metric("store_bytes_per_point", store_bytes_per_point);
        drop((live, scratch));
        report.metric("setup_s", setup_median_s(work, first_setup_s, &mut setup));
    }
    report
}

/// Per-layer metrics of the traced ladder pass.
fn layer_metrics(report: &mut Report, main: &Phase, base: &Phase, tracer: &Tracer) {
    let totals = tracer.totals();
    let (before, after) = &main.server;
    let requests = main.attempted;
    let per = |v: f64, n: u64| if n == 0 { 0.0 } else { v / n as f64 };
    let nominal = main.nominal();
    let writes = &main.writes;
    let ingest_self = totals.get("ingest").map_or(0, |n| n.self_ns) as f64 / 1e6;
    let calls = writes.busy_ms.len() as u64;
    let lookups =
        (after.cache_hits - before.cache_hits) + (after.cache_misses - before.cache_misses);
    let acks = Samples::new(writes.ack_ms.clone());

    report.metric("trace.overhead_ms", nominal.mean() - base.nominal().mean());
    report.metric("con_index.builds", per(main.con.0 as f64, requests));
    report.metric("con_index.evictions", per(main.con.1 as f64, requests));
    report.metric("serve.p50_ms", nominal.p50_or_zero());
    report.metric("serve.tail_ms", nominal.tail_or_zero());
    report.metric(
        "serve.submit_block_ms",
        Samples::new(main.submit_ms.clone()).mean(),
    );
    report.metric(
        "serve.cache_hit_ratio",
        per((after.cache_hits - before.cache_hits) as f64, lookups),
    );
    report.metric(
        "serve.coalesced_share",
        per(
            (after.coalesced - before.coalesced) as f64,
            after.completed - before.completed,
        ),
    );
    report.metric(
        "serve.cache_invalidated",
        (after.cache_invalidated - before.cache_invalidated) as f64,
    );
    report.metric(
        "serve.cache_flushes",
        (after.cache_flushes - before.cache_flushes) as f64,
    );
    report.metric("serve.backlog_max", main.backlog_max as f64);
    report.metric("gen.late_tail_ms", main.late_tail_ms());
    report.metric("ingest.calls", calls as f64);
    report.metric("ingest.busy_ms", per(ingest_self, calls));
    report.metric(
        "ingest.lists_touched",
        per(writes.lists_touched as f64, calls),
    );
    report.metric(
        "ingest.speed_observations",
        per(writes.speed_observations as f64, calls),
    );
    report.metric("ingest.ack_p50_ms", acks.p50_or_zero());
    report.metric("ingest.ack_tail_ms", acks.tail_or_zero());
    crate::pool_metrics(report, &main.io, requests);
}
