//! The live side of `live-feed` and `fleet`: the day after the base days,
//! replayed as time-ordered one-minute batches on a fixed accelerated
//! schedule by a single writer thread.

use std::ops::Range;
use std::time::{Duration, Instant};

use streach_core::prelude::*;

use crate::common::{ms, World};
use crate::trace::Tracer;

/// Simulated seconds per batch.
pub const BATCH_S: u32 = 60;

/// The feed: points before `start_s` are ingested in set-up, the rest in
/// one-minute batches during the measured phases.
pub struct Feed {
    /// Feed time the first batch starts at, seconds after midnight.
    pub start_s: u32,
    /// Points ingested in set-up.
    pub pre: usize,
    batches: Vec<Range<usize>>,
    /// Batches ingested so far.
    pub taken: usize,
}

impl Feed {
    /// Splits the world's feed at `start_s`.
    pub fn new(world: &World, start_s: u32) -> Self {
        let pre = world.feed.partition_point(|p| p.enter_time_s < start_s);
        let mut batches: Vec<Range<usize>> = Vec::new();
        let mut i = pre;
        while i < world.feed.len() {
            let minute = (world.feed[i].enter_time_s - start_s) / BATCH_S;
            let end = i + world.feed[i..]
                .partition_point(|p| (p.enter_time_s - start_s) / BATCH_S == minute);
            batches.push(i..end);
            i = end;
        }
        Self {
            start_s,
            pre,
            batches,
            taken: 0,
        }
    }

    /// Feed points ingested so far, set-up included: they are a prefix of
    /// the world's feed.
    pub fn ingested(&self) -> usize {
        self.batches
            .get(self.taken.wrapping_sub(1))
            .map_or(self.pre, |r| r.end)
    }

    /// The feed clock `offset` into a phase that starts with the next
    /// batch, when batches are due every `interval`.
    pub fn clock(&self, interval: Duration) -> impl Fn(Duration) -> u32 {
        let (start_s, first) = (self.start_s, self.taken);
        move |offset| {
            let batch = first + (offset.as_secs_f64() / interval.as_secs_f64()) as usize;
            start_s + batch as u32 * BATCH_S
        }
    }
}

/// What the writer measured.
#[derive(Default)]
pub struct WriteLog {
    /// Due time to the return of the write, ms.
    pub ack_ms: Vec<f64>,
    /// Time inside the write call, ms.
    pub busy_ms: Vec<f64>,
    /// Time from the write's return to the end of `settle`, ms.
    pub settle_ms: Vec<f64>,
    /// Posting lists touched.
    pub lists_touched: u64,
    /// Speed observations folded in.
    pub speed_observations: u64,
    /// Points written.
    pub points: u64,
    /// Writes that failed.
    pub failed: u64,
}

/// Outcome of one write the writer reports back.
pub struct Written {
    /// Posting lists touched.
    pub lists_touched: u64,
    /// Speed observations folded in.
    pub speed_observations: u64,
}

/// Replays batches from `feed.taken` on, one every `interval` from `t0`,
/// until the next one would be due at `length` or later. After each
/// successful write, `settle` runs (e.g. waiting for replicas) and is timed
/// separately. With a tracer, every write is recorded as a `write_span`
/// span and every settle as a `settle_span` span.
#[allow(clippy::too_many_arguments)]
pub fn paced_writes(
    world: &World,
    feed: &mut Feed,
    t0: Instant,
    interval: Duration,
    length: Duration,
    mut tracer: Option<&mut Tracer>,
    (write_span, settle_span): (&'static str, Option<&'static str>),
    mut write: impl FnMut(&[TrajPoint]) -> Result<Written, String>,
    mut settle: impl FnMut(),
) -> WriteLog {
    let mut log = WriteLog::default();
    let mut k = 0u32;
    while let Some(range) = feed.batches.get(feed.taken).cloned() {
        let offset = interval * k;
        if offset >= length {
            break;
        }
        let due = t0 + offset;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let batch = &world.feed[range];
        let call = Instant::now();
        let result = write(batch);
        let ack = Instant::now();
        feed.taken += 1;
        k += 1;
        log.ack_ms.push(ms(ack - due));
        log.busy_ms.push(ms(ack - call));
        match result {
            Ok(w) => {
                log.lists_touched += w.lists_touched;
                log.speed_observations += w.speed_observations;
                log.points += batch.len() as u64;
                settle();
                let settled = Instant::now();
                log.settle_ms.push(ms(settled - ack));
                if let Some(t) = tracer.as_deref_mut() {
                    let op = u64::from(k);
                    t.record(write_span, op, None, call, ack);
                    if let Some(name) = settle_span {
                        t.record(name, op, None, ack, settled);
                    }
                }
            }
            Err(e) => {
                eprintln!("write failed: {e}");
                log.failed += 1;
            }
        }
    }
    log
}
