//! `fleet`: the `small()` city split into two k-d shards, each shard leader
//! with one WAL-shipped replica under a `ReplicationController` on
//! defaults, behind a `ShardedEngine` that reads replicas first.
//!
//! One closed-loop client sends the `rush-hour` query mix (s-queries, one in
//! eight an MQMB m-query) through the router. One writer ingests the next
//! day as one-minute batches through the router on a fixed schedule and
//! waits after each acknowledgement until every replica has applied it.
//! After the run, a query sweep through the router is compared with a
//! from-scratch single-engine build over the base days plus everything
//! ingested.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use streach_core::prelude::*;
use streach_core::query::MQueryAlgorithm;
use streach_core::EngineBuilder;
use streach_storage::IoStatsSnapshot;

use crate::common::{
    add_io, answer_of, build_from_scratch, dir_bytes, index_config, ms, nproc, peak_rss_mb, set_up,
    setup_median_s, QueryGen, Report, World,
};
use crate::feed::{paced_writes, Feed, WriteLog, Written};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::Args;

/// Shards of the k-d partition.
const SHARDS: u16 = 2;
/// Feed time the measured phases start at.
const FEED_START_S: u32 = 7 * 3600;
/// Wall time between two one-minute batches.
const BATCH_INTERVAL: Duration = Duration::from_millis(150);
/// Query start times are drawn from `[QUERY_FROM_S, QUERY_TO_S)`.
const QUERY_FROM_S: u32 = 8 * 3600;
/// See [`QUERY_FROM_S`].
const QUERY_TO_S: u32 = 10 * 3600;
/// Every n-th query is an m-query.
const MQUERY_EVERY: u64 = 8;
/// Queries in the post-run comparison sweep.
const SWEEP: usize = 24;

/// The serving fleet.
struct Fleet {
    router: ShardedEngine,
    sets: Vec<Arc<ReplicaSet>>,
    controllers: Vec<ReplicationController>,
    engines: Vec<Arc<ReachabilityEngine>>,
}

impl Fleet {
    /// Builds, saves and reopens every shard leader under `dir`, bootstraps
    /// one replica per shard from a copy of its leader's snapshot, and
    /// starts shipping.
    fn open(world: &World, dir: &Path) -> Self {
        let map = Arc::new(ShardMap::partition(&world.network, SHARDS));
        let mut leaders = Vec::new();
        let mut sets = Vec::new();
        let mut engines = Vec::new();
        for shard in 0..SHARDS {
            let home = dir.join(format!("shard{shard}"));
            EngineBuilder::new(world.network.clone(), &world.base)
                .index_config(index_config())
                .shard(map.clone(), shard)
                .save_snapshot(&home)
                .expect("build and save a shard snapshot");
            let replica_home = dir.join(format!("shard{shard}-replica"));
            copy_dir(&home, &replica_home);
            let leader = Arc::new(
                ReachabilityEngine::open_snapshot(&home, world.network.clone())
                    .expect("reopen a shard leader"),
            );
            leader
                .attach_wal(home.join("ingest.wal"))
                .expect("attach a leader WAL");
            let replica = Arc::new(
                ReachabilityEngine::open_snapshot(&replica_home, world.network.clone())
                    .expect("open a replica"),
            );
            let set = Arc::new(ReplicaSet::new(leader.clone(), home.join("ingest.wal")));
            set.add_replica(replica.clone(), replica_home.join("follower.wal"))
                .expect("register a replica");
            engines.push(leader.clone());
            engines.push(replica);
            leaders.push(leader);
            sets.push(set);
        }
        let mut router = ShardedEngine::new(map, leaders);
        for (shard, set) in sets.iter().enumerate() {
            router.add_replica(shard as u16, set.replica(0));
        }
        router.set_read_preference(ReadPreference::ReplicaFirst);
        let controllers = sets
            .iter()
            .map(|set| ReplicationController::spawn(set.clone(), ReplicationConfig::default()))
            .collect();
        Self {
            router,
            sets,
            controllers,
            engines,
        }
    }

    fn converged(&self) -> bool {
        self.sets.iter().all(|s| s.converged())
    }

    /// Blocks until every replica has applied everything its leader acked.
    fn wait_converged(&self) {
        while !self.converged() {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn lag_max(&self) -> u64 {
        self.sets
            .iter()
            .flat_map(|s| s.leader_lag())
            .max()
            .unwrap_or(0)
    }
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create a replica directory");
    for entry in std::fs::read_dir(src).expect("list a snapshot").flatten() {
        if entry.file_type().is_ok_and(|t| t.is_file()) {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy a snapshot file");
        }
    }
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    s_ms: Vec<f64>,
    m_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
    writes: WriteLog,
    lag_max: u64,
    io: IoStatsSnapshot,
}

/// One closed-loop client beside the paced writer for `length`.
fn phase(
    world: &World,
    fleet: &Fleet,
    feed: &mut Feed,
    gen: &mut QueryGen,
    length: Duration,
    tracer: Option<&mut Tracer>,
) -> Phase {
    let writer_tracer = tracer.as_ref().map(|t| t.sibling());
    let lag_max = std::sync::atomic::AtomicU64::new(0);
    let t0 = Instant::now();
    let mut phase = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut spans = writer_tracer;
            let log = paced_writes(
                world,
                feed,
                t0,
                BATCH_INTERVAL,
                length,
                spans.as_mut(),
                ("sharded.ingest", Some("replicate.catchup")),
                |batch| {
                    let outcomes = fleet.router.ingest(batch).map_err(|e| e.to_string())?;
                    lag_max.fetch_max(fleet.lag_max(), std::sync::atomic::Ordering::Relaxed);
                    Ok(Written {
                        lists_touched: outcomes.iter().map(|o| o.lists_touched as u64).sum(),
                        speed_observations: outcomes
                            .iter()
                            .map(|o| o.speed_observations as u64)
                            .sum(),
                    })
                },
                || fleet.wait_converged(),
            );
            (log, spans)
        });

        let mut phase = Phase::default();
        let mut spans = tracer;
        let mut op = 0u64;
        while t0.elapsed() < length {
            op += 1;
            let is_m = op.is_multiple_of(MQUERY_EVERY);
            let start = Instant::now();
            let (name, outcome) = if is_m {
                let q = gen.mquery(world);
                let r = fleet.router.try_m_query(&q, MQueryAlgorithm::MqmbTbs);
                ("sharded.m_query", r)
            } else {
                let q = gen.squery(world);
                let r = fleet.router.try_s_query(&q, Algorithm::SqmbTbs);
                ("sharded.s_query", r)
            };
            let end = Instant::now();
            if let Some(t) = spans.as_deref_mut() {
                t.record(name, op, None, start, end);
            }
            phase.attempted += 1;
            match outcome {
                Ok(o) => add_io(&mut phase.io, &o.stats.io),
                Err(_) => phase.failed += 1,
            }
            if is_m {
                phase.m_ms.push(ms(end - start));
            } else {
                phase.s_ms.push(ms(end - start));
            }
        }
        phase.elapsed_s = t0.elapsed().as_secs_f64();
        let (log, writer_spans) = writer.join().expect("the writer thread does not panic");
        phase.writes = log;
        if let (Some(t), Some(w)) = (spans, writer_spans) {
            t.absorb(w);
        }
        phase
    });
    phase.failed += phase.writes.failed;
    phase.lag_max = lag_max.into_inner();
    phase
}

/// Runs the `fleet` workload.
pub fn run(args: &Args, work: &Path) -> Report {
    let mut report = Report::default();
    let world = World::generate(GeneratorConfig::small(), 60, 10, 1);
    let mut feed = Feed::new(&world, FEED_START_S);
    let pre_feed = &world.feed[..feed.pre];
    let mut setup = |dir: &Path| {
        let fleet = Fleet::open(&world, dir);
        fleet
            .router
            .ingest(pre_feed)
            .expect("catch up to the feed start");
        for c in &fleet.controllers {
            c.run_now();
        }
        fleet.wait_converged();
        for e in &fleet.engines {
            e.warm_con_index(QUERY_FROM_S, QUERY_TO_S - QUERY_FROM_S + 1500);
        }
        fleet
    };
    let (fleet, dir, first_setup_s) = set_up(work, 0, &mut setup);
    let mut gen = QueryGen::new(args.seed, 2, QUERY_FROM_S, QUERY_TO_S, 240);
    let stats_before: Vec<ReplicationStats> = fleet.controllers.iter().map(|c| c.stats()).collect();

    let (main, base) = if args.trace {
        let half = args.seconds / 2;
        let base = phase(&world, &fleet, &mut feed, &mut gen, half, None);
        let mut tracer = Tracer::new(Instant::now());
        let main = phase(&world, &fleet, &mut feed, &mut gen, half, Some(&mut tracer));
        tracer
            .write_jsonl(&args.spans_path())
            .expect("write the span file");
        let totals = tracer.totals();
        let self_ms = |n: &str| totals.get(n).map_or(0.0, |t| t.self_ns as f64 / 1e6);
        let per = |v: f64, n: usize| if n == 0 { 0.0 } else { v / n as f64 };
        report.metric(
            "trace.overhead_ms",
            Samples::new(main.s_ms.clone()).mean() - Samples::new(base.s_ms.clone()).mean(),
        );
        report.metric(
            "router.busy_ms",
            per(
                self_ms("sharded.s_query") + self_ms("sharded.m_query"),
                main.s_ms.len() + main.m_ms.len(),
            ),
        );
        report.metric(
            "router.ingest_busy_ms",
            per(self_ms("sharded.ingest"), main.writes.busy_ms.len()),
        );
        report.metric(
            "mquery.p50_ms",
            Samples::new(base.m_ms.clone()).p50_or_zero(),
        );
        let calls = main.writes.busy_ms.len();
        let acks = Samples::new(main.writes.ack_ms.clone());
        let catchup = Samples::new(main.writes.settle_ms.clone());
        report.metric("ingest.calls", calls as f64);
        report.metric("ingest.busy_ms", per(self_ms("sharded.ingest"), calls));
        report.metric(
            "ingest.lists_touched",
            per(main.writes.lists_touched as f64, calls),
        );
        report.metric(
            "ingest.speed_observations",
            per(main.writes.speed_observations as f64, calls),
        );
        report.metric("ingest.ack_p50_ms", acks.p50_or_zero());
        report.metric("ingest.ack_tail_ms", acks.tail_or_zero());
        report.metric("replicate.catchup_p50_ms", catchup.p50_or_zero());
        report.metric("replicate.catchup_tail_ms", catchup.tail_or_zero());
        report.metric("replicate.lag_records_max", main.lag_max as f64);
        crate::pool_metrics(&mut report, &main.io, main.attempted);
        (main, Some(base))
    } else {
        (
            phase(&world, &fleet, &mut feed, &mut gen, args.seconds, None),
            None,
        )
    };
    for p in std::iter::once(&main).chain(base.as_ref()) {
        report.attempted += p.attempted + p.writes.ack_ms.len() as u64;
        report.failed += p.failed;
    }

    let peak_rss = peak_rss_mb();
    for c in &fleet.controllers {
        c.run_now();
    }
    fleet.wait_converged();
    let (mut passes, mut shipped, mut ship_errors) = (0, 0, 0);
    for (c, before) in fleet.controllers.iter().zip(&stats_before) {
        let after = c.stats();
        passes += after.passes - before.passes;
        shipped += after.records_shipped - before.records_shipped;
        ship_errors += after.ship_errors - before.ship_errors;
    }
    let ingested = feed.ingested();
    let held = world.base_points() + ingested as u64;
    let store_bytes_per_point = dir_bytes(&dir) as f64 / held as f64;

    // The answer gate: the fleet against a from-scratch single engine.
    let scratch = build_from_scratch(&world.network, &world.dataset_through(ingested));
    let mut sweep = QueryGen::new(args.seed, 4, QUERY_FROM_S, QUERY_TO_S, SWEEP as u64);
    for _ in 0..SWEEP {
        let q = sweep.squery(&world);
        let got = fleet.router.try_s_query(&q, Algorithm::SqmbTbs);
        let want = scratch.try_s_query(&q, Algorithm::SqmbTbs);
        report.attempted += 1;
        match (got, want) {
            (Ok(g), Ok(w)) if answer_of(&g.region) == answer_of(&w.region) => {}
            _ => report.failed += 1,
        }
    }

    let written = main.writes.points + base.as_ref().map_or(0, |b| b.writes.points);
    report.note(format!(
        "host: nproc {}, streach_par workers {}; city {} segments in {SHARDS} shards x (leader + 1 replica), {} taxis, {} base days + day {} fed from {:02}:00 ({} points in set-up, {} in the run)",
        nproc(),
        streach_par::num_workers(usize::MAX),
        world.network.num_segments(),
        world.taxis,
        world.base_days,
        world.base_days,
        FEED_START_S / 3600,
        feed.pre,
        written
    ));
    let catchup = Samples::new(main.writes.settle_ms.clone());
    report.note(format!(
        "{} batches: ack p50 {:?} ms, replica catch-up p50 {:?} tail {:?}; m-query p50 {:?} ms",
        main.writes.ack_ms.len(),
        Samples::new(main.writes.ack_ms.clone()).p50(),
        catchup.p50(),
        catchup.tail(),
        Samples::new(main.m_ms.clone()).p50()
    ));

    if args.trace {
        report.metric("replicate.passes", passes as f64);
        report.metric("replicate.records_shipped", shipped as f64);
        report.metric("replicate.ship_errors", ship_errors as f64);
    } else {
        let s = Samples::new(main.s_ms.clone());
        report.metric("query_p50_ms", s.p50().unwrap_or(0.0));
        match s.quantile(0.95) {
            Some(v) => report.metric("query_p95_ms", v),
            None => report
                .invalid
                .push(format!("{} s-queries cannot support a p95", s.len())),
        }
        report.metric("queries_per_s", main.attempted as f64 / main.elapsed_s);
        report.metric("peak_rss_mb", peak_rss);
        report.metric("store_bytes_per_point", store_bytes_per_point);
    }
    for c in fleet.controllers {
        c.shutdown();
    }
    if !args.trace {
        drop((fleet.router, fleet.sets, fleet.engines, scratch));
        report.metric("setup_s", setup_median_s(work, first_setup_s, &mut setup));
    }
    report
}
