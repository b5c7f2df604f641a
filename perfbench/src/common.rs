//! What every workload shares: the seeded generator, input generation,
//! set-up timing, answer comparison, host facts and the run report.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use streach_core::prelude::*;
use streach_core::query::reference::naive_trace_back_search;
use streach_core::query::sqmb::sqmb;
use streach_core::EngineBuilder;
use streach_traj::MatchedTrajectory;

/// Set-ups per untraced run: at least the first number, until their total
/// reaches [`SETUP_BUDGET_S`], and at most the second; `setup_s` is their
/// median.
const SETUP_REPS: (usize, usize) = (3, 7);
/// See [`SETUP_REPS`].
const SETUP_BUDGET_S: f64 = 2.0;

/// SplitMix64: the benchmark's only source of randomness.
struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a workload seed.
    fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Query durations the workloads draw from, seconds.
const DURATIONS_S: [u32; 4] = [300, 600, 900, 1500];
/// Probability thresholds the workloads draw from.
const PROBS: [f64; 3] = [0.2, 0.4, 0.6];

/// A city and the fleet history over it.
pub struct World {
    /// The road network.
    pub network: Arc<RoadNetwork>,
    /// Trajectories of the base days, indexed before the run.
    pub base: TrajectoryDataset,
    /// Points of the day after the base days in time order, for workloads
    /// that ingest.
    pub feed: Vec<TrajPoint>,
    /// Taxis in the fleet.
    pub taxis: usize,
    /// Base days.
    pub base_days: u16,
}

impl World {
    /// Generates `city` and an around-the-clock fleet of `taxis` over
    /// `base_days` (+ `feed_days`) days. The history is the same for every
    /// workload seed; the seed varies the queries and their order.
    pub fn generate(city: GeneratorConfig, taxis: usize, base_days: u16, feed_days: u16) -> Self {
        let network = Arc::new(SyntheticCity::generate(city).network);
        let full = TrajectoryDataset::simulate(
            &network,
            FleetConfig {
                num_taxis: taxis,
                num_days: base_days + feed_days,
                day_start_s: 0,
                day_end_s: 86_400,
                ..FleetConfig::default()
            },
        );
        let (base, later): (Vec<MatchedTrajectory>, Vec<MatchedTrajectory>) = full
            .trajectories()
            .iter()
            .cloned()
            .partition(|t| t.date < base_days);
        let mut feed: Vec<TrajPoint> = later.iter().flat_map(points_of).collect();
        feed.sort_by_key(|p| (p.date, p.enter_time_s, p.traj_id));
        Self {
            network,
            base: TrajectoryDataset::from_matched(base, taxis, base_days),
            feed,
            taxis,
            base_days,
        }
    }

    /// Trajectory points of the base days.
    pub fn base_points(&self) -> u64 {
        self.base.stats().num_segment_visits
    }

    /// The base days plus the first `ingested` feed points, as one batch
    /// dataset: what a from-scratch build over everything ingested sees.
    pub fn dataset_through(&self, ingested: usize) -> TrajectoryDataset {
        let mut trajectories = self.base.trajectories().to_vec();
        let mut extra: Vec<MatchedTrajectory> = Vec::new();
        let mut by_key: std::collections::HashMap<(u32, u16), usize> = Default::default();
        let mut days = self.base_days;
        for p in &self.feed[..ingested] {
            let i = *by_key.entry((p.traj_id, p.date)).or_insert_with(|| {
                extra.push(MatchedTrajectory::new(p.traj_id, p.date));
                extra.len() - 1
            });
            extra[i].visits.push(streach_traj::SegmentVisit {
                segment: p.segment,
                enter_time_s: p.enter_time_s,
            });
            days = days.max(p.date + 1);
        }
        trajectories.extend(extra);
        TrajectoryDataset::from_matched(trajectories, self.taxis, days)
    }
}

/// A seeded query stream. Durations and thresholds cycle through all twelve
/// combinations; start times are stratified over the window and origins over
/// a grid of cells covering the city, successive queries landing in
/// far-apart strata and cells. Short runs thus already see the full query
/// mix, and seeds differ only in where each query falls inside its stratum
/// and cell.
pub struct QueryGen {
    rng: Rng,
    next: u64,
    from_s: u32,
    to_s: u32,
    strata: u64,
    grid: u64,
}

/// Multipliers spreading successive queries over the time strata and the
/// origin cells; primes, so every stratum (cell) is visited once per round
/// unless the prime divides the stratum (cell) count.
const STRATUM_STRIDE: u64 = 7919;
/// See [`STRATUM_STRIDE`].
const CELL_STRIDE: u64 = 104_729;

impl QueryGen {
    /// A stream of queries starting in `[from_s, to_s)` over `strata`
    /// start-time strata and at least as many origin cells, from stream
    /// `stream` of the workload seed.
    pub fn new(seed: u64, stream: u64, from_s: u32, to_s: u32, strata: u64) -> Self {
        let strata = strata.max(1);
        Self {
            rng: Rng::new(seed, stream),
            next: 0,
            from_s,
            to_s,
            strata,
            grid: (strata as f64).sqrt().ceil() as u64,
        }
    }

    /// The origin of query `i`: uniform inside its cell of the city's
    /// bounds.
    fn origin(&mut self, world: &World, i: u64) -> GeoPoint {
        let cell = i.wrapping_mul(CELL_STRIDE) % (self.grid * self.grid);
        let (cx, cy) = ((cell % self.grid) as f64, (cell / self.grid) as f64);
        let g = self.grid as f64;
        let b = world.network.bounds();
        GeoPoint::new(
            b.min_lon + (b.max_lon - b.min_lon) * (cx + self.rng.unit()) / g,
            b.min_lat + (b.max_lat - b.min_lat) * (cy + self.rng.unit()) / g,
        )
    }

    /// The next s-query starting at `start_s`.
    pub fn squery_at(&mut self, world: &World, start_s: u32) -> SQuery {
        let i = self.next;
        self.next += 1;
        let combo = (i % 12) as usize;
        SQuery {
            location: self.origin(world, i),
            start_time_s: start_s,
            duration_s: DURATIONS_S[combo % 4],
            prob: PROBS[combo / 4],
        }
    }

    /// The next s-query, starting in its stratum of the window.
    pub fn squery(&mut self, world: &World) -> SQuery {
        let stratum = self.next.wrapping_mul(STRATUM_STRIDE) % self.strata;
        let span = f64::from(self.to_s - self.from_s);
        let start =
            self.from_s + (span * (stratum as f64 + self.rng.unit()) / self.strata as f64) as u32;
        self.squery_at(world, start.min(self.to_s - 1))
    }

    /// The next m-query: 3–5 locations within ~1.5 km of one origin.
    pub fn mquery(&mut self, world: &World) -> MQuery {
        let s = self.squery(world);
        let n = 3 + self.rng.below(3) as usize;
        let mut locations = vec![s.location];
        for _ in 1..n {
            let (dx, dy) = (self.rng.unit() - 0.5, self.rng.unit() - 0.5);
            locations.push(s.location.offset_m(dx * 3000.0, dy * 3000.0));
        }
        MQuery {
            locations,
            start_time_s: s.start_time_s,
            duration_s: s.duration_s,
            prob: s.prob,
        }
    }

    /// A uniform draw in `[0, 1)` from the stream's generator.
    pub fn unit(&mut self) -> f64 {
        self.rng.unit()
    }
}

/// The default engine configuration with simulated disk latency off.
pub fn index_config() -> IndexConfig {
    IndexConfig {
        read_latency_us: 0,
        ..IndexConfig::default()
    }
}

/// A query answer in comparable form: the segments and the bits of the
/// total length.
pub type Answer = (Vec<SegmentId>, u64);

/// The comparable form of an outcome.
pub fn answer_of(region: &ReachableRegion) -> Answer {
    (region.segments.clone(), region.total_length_km.to_bits())
}

/// Whether the naive reference pipeline (SQMB bounds verified by the
/// pre-optimization hash-map verifier) reproduces `expected`.
pub fn reference_agrees(engine: &ReachabilityEngine, q: &SQuery, expected: &Answer) -> bool {
    let Ok(start) = engine.try_locate(&q.location) else {
        return false;
    };
    let bounds = sqmb(
        engine.con_index(),
        engine.network().num_segments(),
        start,
        q.start_time_s,
        q.duration_s,
    );
    naive_trace_back_search(
        engine.network(),
        engine.st_index(),
        &bounds,
        start,
        q.start_time_s,
        q.duration_s,
        q.prob,
    )
    .is_ok_and(|region| answer_of(&region) == *expected)
}

/// Builds a fresh engine from `dataset` with the benchmark's configuration:
/// the from-scratch side of the ingest answer gates.
pub fn build_from_scratch(
    network: &Arc<RoadNetwork>,
    dataset: &TrajectoryDataset,
) -> ReachabilityEngine {
    EngineBuilder::new(network.clone(), dataset)
        .index_config(index_config())
        .build()
}

/// Runs `setup` once in `work/setup-<rep>` and times it.
pub fn set_up<T>(work: &Path, rep: usize, setup: &mut impl FnMut(&Path) -> T) -> (T, PathBuf, f64) {
    let dir = work.join(format!("setup-{rep}"));
    let t0 = Instant::now();
    let value = setup(&dir);
    (value, dir, t0.elapsed().as_secs_f64())
}

/// The median set-up time over `first_s` and as many further set-ups as
/// [`SETUP_REPS`] asks for, each in a fresh directory and dropped at once.
/// Workloads call this after their measured phase and after dropping the
/// set-up that served it, so that the repetitions stay out of
/// `peak_rss_mb`.
pub fn setup_median_s<T>(work: &Path, first_s: f64, setup: &mut impl FnMut(&Path) -> T) -> f64 {
    let (min_reps, max_reps) = SETUP_REPS;
    let mut times = vec![first_s];
    while times.len() < min_reps
        || (times.len() < max_reps && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let (value, dir, s) = set_up(work, times.len(), setup);
        drop(value);
        std::fs::remove_dir_all(dir).ok();
        times.push(s);
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.file_type() {
                    Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                    Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
                    _ => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct laid out as the 64-bit
    // Linux `struct rusage` (two timevals, then 14 longs); RUSAGE_SELF (0)
    // only writes into it.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss_kb as f64 / 1024.0
    } else {
        0.0
    }
}

/// Adds one query's I/O counters to a running total.
pub fn add_io(total: &mut streach_storage::IoStatsSnapshot, d: &streach_storage::IoStatsSnapshot) {
    total.page_reads += d.page_reads;
    total.page_writes += d.page_writes;
    total.cache_hits += d.cache_hits;
    total.cache_misses += d.cache_misses;
    total.bytes_decoded += d.bytes_decoded;
    total.bytes_resident += d.bytes_resident;
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Typed errors, wrong answers and refused requests among them.
    pub failed: u64,
    /// Integrity problems that make the run's figures invalid.
    pub invalid: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Facts about the host and the workload, printed on stderr.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric { name, value });
    }

    /// Adds a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Whether every answer was right and the run is valid.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty() && self.attempted > 0
    }
}
