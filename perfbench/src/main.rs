//! End-to-end benchmark of the streach engine with per-layer traces.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rush-hour|all-day|live-feed|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) measures half its time untraced and half with spans around
//! every layer call, and prints the per-layer metrics, including the
//! tracing overhead. Human-readable notes go to stderr; the last line of
//! stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Any wrong answer makes the command exit non-zero.

mod common;
mod feed;
mod fleet;
mod live;
mod reads;
mod schedule;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use streach_core::prelude::GeneratorConfig;
use streach_storage::IoStatsSnapshot;

use common::Report;

/// End-to-end metrics every untraced run prints, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("store_bytes_per_point", "B"),
];

/// Per-layer metrics every traced run prints, with their units; a layer a
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("error_rate", "ratio"),
    ("locate.calls", "1/query"),
    ("locate.busy_ms", "ms/query"),
    ("con_index.fetches", "1/query"),
    ("con_index.builds", "1/query"),
    ("con_index.hit_ratio", "ratio"),
    ("con_index.evictions", "1/query"),
    ("con_index.build_busy_ms", "ms/query"),
    ("con_index.cached_slots", "count"),
    ("sqmb.busy_ms", "ms/query"),
    ("sqmb.max_region_segments", "1/query"),
    ("sqmb.annulus_segments", "1/query"),
    ("verifier.core_busy_ms", "ms/query"),
    ("tbs.busy_ms", "ms/query"),
    ("tbs.verifications", "1/query"),
    ("tbs.useful_ratio", "ratio"),
    ("mqmb.bounding_busy_ms", "ms/query"),
    ("mqmb.verify_busy_ms", "ms/query"),
    ("mqmb.verifications", "1/query"),
    ("mquery.p50_ms", "ms"),
    ("pool.hits", "1/query"),
    ("pool.misses", "1/query"),
    ("pool.hit_ratio", "ratio"),
    ("pool.physical_reads_per_query", "1/query"),
    ("postings.bytes_resident", "B/query"),
    ("postings.bytes_decoded", "B/query"),
    ("serve.p50_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("serve.max_rate_qps", "1/s"),
    ("serve.submit_block_ms", "ms/request"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced_share", "ratio"),
    ("serve.cache_invalidated", "count"),
    ("serve.cache_flushes", "count"),
    ("serve.backlog_max", "count"),
    ("gen.late_tail_ms", "ms"),
    ("ingest.calls", "count"),
    ("ingest.busy_ms", "ms/call"),
    ("ingest.lists_touched", "1/call"),
    ("ingest.speed_observations", "1/call"),
    ("ingest.ack_p50_ms", "ms"),
    ("ingest.ack_tail_ms", "ms"),
    ("wal.bytes_per_point", "B"),
    ("maintenance.checkpoints", "count"),
    ("maintenance.compactions", "count"),
    ("maintenance.errors", "count"),
    ("delta.bytes", "B"),
    ("delta.lists", "count"),
    ("router.busy_ms", "ms/query"),
    ("router.ingest_busy_ms", "ms/call"),
    ("replicate.lag_records_max", "count"),
    ("replicate.passes", "count"),
    ("replicate.records_shipped", "count"),
    ("replicate.ship_errors", "count"),
    ("replicate.catchup_p50_ms", "ms"),
    ("replicate.catchup_tail_ms", "ms"),
];

/// The parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? == 1),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: Duration::from_secs(seconds.unwrap_or(10).max(1)),
            trace: trace.unwrap_or(false),
        })
    }

    /// Where the traced run writes its spans (JSON lines).
    pub fn spans_path(&self) -> PathBuf {
        out_dir().join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Buffer-pool and posting-decode metrics from an I/O counter delta over
/// `ops` operations.
pub fn pool_metrics(report: &mut Report, io: &IoStatsSnapshot, ops: u64) {
    let per = |v: u64| if ops == 0 { 0.0 } else { v as f64 / ops as f64 };
    report.metric("pool.hits", per(io.cache_hits));
    report.metric("pool.misses", per(io.cache_misses));
    report.metric("pool.hit_ratio", io.hit_ratio());
    report.metric("pool.physical_reads_per_query", per(io.page_reads));
    report.metric("postings.bytes_resident", per(io.bytes_resident));
    report.metric("postings.bytes_decoded", per(io.bytes_decoded));
}

fn run(args: &Args, work: &std::path::Path) -> Result<Report, String> {
    let read = |city, taxis, days, from_h: u32, to_h: u32, mquery_every, pool, warm| reads::Spec {
        city,
        taxis,
        days,
        from_s: from_h * 3600,
        to_s: to_h * 3600,
        mquery_every,
        pool,
        warm_con_index: warm,
    };
    Ok(match args.workload.as_str() {
        "rush-hour" => reads::run(
            &read(GeneratorConfig::medium(), 120, 15, 8, 10, 8, 512, true),
            args,
            work,
        ),
        "all-day" => reads::run(
            &read(GeneratorConfig::small(), 60, 10, 7, 20, 0, 160, false),
            args,
            work,
        ),
        "live-feed" => live::run(args, work),
        "fleet" => fleet::run(args, work),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).expect("create the work directory");
    std::fs::create_dir_all(out_dir()).expect("create the output directory");
    let result = run(&args, &work);
    std::fs::remove_dir_all(&work).ok();
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("error_rate", error_rate);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = Vec::new();
    eprintln!("[{}] seed {}", args.workload, args.seed);
    for note in &report.notes {
        eprintln!("  {note}");
    }
    for &(name, unit) in table {
        let value = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value);
        let value = match value {
            Some(v) if !v.is_finite() => {
                report
                    .invalid
                    .push(format!("{name} is not a finite number"));
                continue;
            }
            Some(v) => v,
            None if args.trace => 0.0,
            None => {
                report.invalid.push(format!("no value for {name}"));
                continue;
            }
        };
        eprintln!("  {name:32} {value:>14.4} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    eprintln!(
        "  error_rate {error_rate} ({} failed of {} attempted)",
        report.failed, report.attempted
    );
    for problem in &report.invalid {
        eprintln!("  INVALID: {problem}");
    }
    let correct = report.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        json.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
