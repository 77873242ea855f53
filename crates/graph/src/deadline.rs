//! Work-bounded deadline sampling shared by the long loops of the pipeline.
//!
//! Several phases of the system run loops whose total work is proportional to the
//! data graph, not to the query: the candidate-space filter/refinement passes, the
//! candidate-edge materialization, and the brute-force oracle's enumeration. A
//! per-query time budget must be observable *inside* those loops — checking the
//! clock only at phase boundaries lets a tight budget be blown before the phase
//! ends (the "filter-pass deadline hole").
//!
//! Calling `Instant::now()` on every iteration would dominate the loops, so
//! [`DeadlineSampler`] samples the clock once every [`DEADLINE_CHECK_INTERVAL`]
//! units of work — the same cadence the brute-force oracle has used since its own
//! deadline hole was closed. The interval is counted in small, data-independent
//! work units (one candidate examined, one adjacency list scanned), so the
//! overshoot past the deadline is bounded by a constant amount of work rather
//! than by the input size.

use std::time::{Duration, Instant};

/// The deadline is sampled once every this many [`DeadlineSampler::tick`] calls.
/// 1024 keeps the `Instant::now()` overhead well under 1% for work units of a few
/// dozen nanoseconds while bounding deadline overshoot to microseconds.
pub const DEADLINE_CHECK_INTERVAL: u64 = 1024;

/// A typed "the time budget ran out" outcome, returned by deadline-aware
/// construction phases (e.g. the candidate-space filter pass) instead of a
/// silently truncated result. Callers map it to their own timeout reporting
/// (the session layer turns it into `SearchStats::hit_time_limit`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the time budget expired before the phase completed")
    }
}

impl std::error::Error for DeadlineExceeded {}

/// Samples an optional absolute deadline every [`DEADLINE_CHECK_INTERVAL`] work
/// units. With no deadline set, [`DeadlineSampler::tick`] is a single branch on a
/// `None` and never reads the clock.
#[derive(Clone, Debug)]
pub struct DeadlineSampler {
    deadline: Option<Instant>,
    steps: u64,
    expired: bool,
}

impl DeadlineSampler {
    /// A sampler for `deadline` (`None` = unlimited, every check is a no-op).
    /// An already-expired deadline is reported by the first [`tick`] / [`check`]
    /// rather than eagerly, so constructing a sampler never reads the clock.
    ///
    /// [`tick`]: DeadlineSampler::tick
    /// [`check`]: DeadlineSampler::check
    pub fn new(deadline: Option<Instant>) -> Self {
        DeadlineSampler {
            deadline,
            steps: 0,
            expired: false,
        }
    }

    /// Counts one unit of work and, every [`DEADLINE_CHECK_INTERVAL`] units,
    /// samples the clock. Returns `Err(DeadlineExceeded)` once the deadline has
    /// passed (and keeps returning it — expiry is sticky).
    #[inline]
    pub fn tick(&mut self) -> Result<(), DeadlineExceeded> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        if self.expired {
            return Err(DeadlineExceeded);
        }
        self.steps += 1;
        if self.steps % DEADLINE_CHECK_INTERVAL == 0 && Instant::now() >= deadline {
            self.expired = true;
            return Err(DeadlineExceeded);
        }
        Ok(())
    }

    /// Samples the clock immediately (used at phase boundaries, where one extra
    /// `Instant::now()` is negligible and catching an expired budget early avoids
    /// starting a whole phase).
    pub fn check(&mut self) -> Result<(), DeadlineExceeded> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        if self.expired || Instant::now() >= deadline {
            self.expired = true;
            return Err(DeadlineExceeded);
        }
        Ok(())
    }

    /// The deadline being sampled, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// `true` once a [`tick`] or [`check`] has observed the deadline pass
    /// (expiry is sticky). Never reads the clock.
    ///
    /// [`tick`]: DeadlineSampler::tick
    /// [`check`]: DeadlineSampler::check
    pub fn expired(&self) -> bool {
        self.expired
    }
}

/// The absolute deadline of a budget starting now: the only place the workspace
/// converts a relative budget to a wall-clock deadline. Each budget is converted
/// once, where its clock starts — serve admission, `QueryRequest::timeout`, and the
/// start of a batch all route through here (the `clock_discipline` lint keeps it
/// that way), and nothing converts a deadline back into a duration.
pub fn deadline_after(budget: Duration) -> Instant {
    Instant::now() + budget
}

/// `true` once `deadline` has passed. For one-shot boundary checks (fail-fast
/// before starting a phase); loops should use a [`DeadlineSampler`] so the
/// clock is read at a work-bounded cadence instead of per iteration.
pub fn deadline_passed(deadline: Instant) -> bool {
    Instant::now() >= deadline
}

/// A started wall-clock stopwatch for *measurement* (latency reporting, prep
/// timing, uptime) as opposed to *enforcement*. Owning the only raw
/// measurement reads keeps every other module free of direct clock calls, so
/// the clock-discipline lint can tell the two uses apart by construction.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn started() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Time elapsed since construction.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn no_deadline_never_expires() {
        let mut s = DeadlineSampler::new(None);
        for _ in 0..(3 * DEADLINE_CHECK_INTERVAL) {
            assert!(s.tick().is_ok());
        }
        assert!(s.check().is_ok());
    }

    #[test]
    fn expired_deadline_fires_within_one_interval() {
        let mut s = DeadlineSampler::new(Some(Instant::now() - Duration::from_millis(1)));
        let mut fired_at = None;
        for i in 0..=DEADLINE_CHECK_INTERVAL {
            if s.tick().is_err() {
                fired_at = Some(i);
                break;
            }
        }
        let fired_at = fired_at.expect("expired deadline must fire within one interval");
        assert!(fired_at < DEADLINE_CHECK_INTERVAL);
        // Expiry is sticky.
        assert_eq!(s.tick(), Err(DeadlineExceeded));
        assert_eq!(s.check(), Err(DeadlineExceeded));
    }

    #[test]
    fn check_fires_immediately_on_expired_deadline() {
        let mut s = DeadlineSampler::new(Some(Instant::now() - Duration::from_millis(1)));
        assert_eq!(s.check(), Err(DeadlineExceeded));
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let mut s = DeadlineSampler::new(Some(Instant::now() + Duration::from_secs(3600)));
        for _ in 0..(2 * DEADLINE_CHECK_INTERVAL) {
            assert!(s.tick().is_ok());
        }
        assert!(s.check().is_ok());
    }

    #[test]
    fn display_is_descriptive() {
        assert!(format!("{DeadlineExceeded}").contains("time budget"));
    }
}
