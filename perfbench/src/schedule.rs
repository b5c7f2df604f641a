//! Open-loop arrival schedules and the rate-ladder verdict.

use std::time::Duration;

/// Due times, from the start of a rung, of an open-loop stream at
/// `rate_per_s` over `length`: one in the middle of each `1 / rate_per_s`
/// interval, so that arrivals never coincide with events scheduled on
/// whole intervals, such as the writer's batches.
pub fn arrivals(rate_per_s: f64, length: Duration) -> Vec<Duration> {
    let count = (rate_per_s * length.as_secs_f64()).floor() as u64;
    (0..count)
        .map(|i| Duration::from_secs_f64((i as f64 + 0.5) / rate_per_s))
        .collect()
}

/// How late the generator itself ran for one arrival: the time between the
/// moment it could have sent (the request was due and the previous send had
/// returned) and the moment it sent. Waits caused by the server's
/// backpressure are not the generator's lateness.
pub fn generator_lateness(
    due: Duration,
    previous_send_returned: Duration,
    sent: Duration,
) -> Duration {
    sent.saturating_sub(due.max(previous_send_returned))
}

/// Whether a rung's backlog grew: the outstanding-request counts sampled at
/// each arrival average more than twice as high, plus two, in the second
/// half of the rung as in the first.
pub fn backlog_grows(outstanding: &[usize]) -> bool {
    if outstanding.len() < 2 {
        return false;
    }
    let half = outstanding.len() / 2;
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    mean(&outstanding[half..]) > 2.0 * mean(&outstanding[..half]) + 2.0
}

/// What one rung of the ladder measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate_per_s: f64,
    /// Tail latency from due time to answer, ms; `None` when the rung had
    /// too few samples to report one, or a request failed.
    pub tail_ms: Option<f64>,
    /// Whether the backlog grew during the rung.
    pub backlog_grew: bool,
}

/// The highest rate of the ladder, climbing from its lowest rung, up to
/// which every rung met `limit_ms` at its tail without a growing backlog;
/// `None` when even the lowest rung failed.
pub fn max_sustained_rate(rungs: &[Rung], limit_ms: f64) -> Option<f64> {
    let mut sorted: Vec<&Rung> = rungs.iter().collect();
    sorted.sort_by(|a, b| a.rate_per_s.total_cmp(&b.rate_per_s));
    sorted
        .into_iter()
        .take_while(|r| !r.backlog_grew && r.tail_ms.is_some_and(|t| t <= limit_ms))
        .last()
        .map(|r| r.rate_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_evenly_spaced_and_bounded() {
        let a = arrivals(4.0, Duration::from_secs(2));
        assert_eq!(a.len(), 8);
        assert_eq!(a[0], Duration::from_millis(125));
        assert_eq!(a[1], Duration::from_millis(375));
        assert_eq!(a[7], Duration::from_millis(1875));
        assert!(arrivals(0.5, Duration::from_secs(1)).is_empty());
    }

    #[test]
    fn lateness_excludes_backpressure() {
        let ms = Duration::from_millis;
        // Sent 3 ms after it was due, previous send long done.
        assert_eq!(generator_lateness(ms(10), ms(2), ms(13)), ms(3));
        // The previous submit blocked until 20 ms; sending at 21 is 1 ms late.
        assert_eq!(generator_lateness(ms(10), ms(20), ms(21)), ms(1));
        // Early sends are not late.
        assert_eq!(generator_lateness(ms(10), ms(0), ms(9)), ms(0));
    }

    #[test]
    fn backlog_verdict() {
        assert!(!backlog_grows(&[0, 1, 0, 1, 2, 1, 0, 1]));
        assert!(!backlog_grows(&[3, 4, 3, 5, 4, 6, 5, 7]));
        assert!(backlog_grows(&[0, 1, 2, 3, 5, 8, 12, 20]));
        assert!(!backlog_grows(&[9]));
    }

    #[test]
    fn ladder_stops_at_first_failing_rung() {
        let rung = |rate_per_s: f64, tail: f64, grew: bool| Rung {
            rate_per_s,
            tail_ms: Some(tail),
            backlog_grew: grew,
        };
        let ladder = [
            rung(400.0, 80.0, false),
            rung(100.0, 5.0, false),
            rung(200.0, 12.0, false),
            rung(800.0, 9.0, false),
        ];
        assert_eq!(max_sustained_rate(&ladder, 50.0), Some(200.0));
        assert_eq!(max_sustained_rate(&ladder, 100.0), Some(800.0));
        assert_eq!(max_sustained_rate(&ladder, 1.0), None);
        let grew = [rung(100.0, 5.0, false), rung(200.0, 6.0, true)];
        assert_eq!(max_sustained_rate(&grew, 50.0), Some(100.0));
        let unreported = [Rung {
            rate_per_s: 100.0,
            tail_ms: None,
            backlog_grew: false,
        }];
        assert_eq!(max_sustained_rate(&unreported, 50.0), None);
    }
}
