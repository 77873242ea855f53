//! Sample summaries, the process memory high-water mark, and the one-line
//! JSON result the benchmark prints last.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Samples of one quantity: latencies in µs, unless pushed raw with
/// [`Samples::push_value`] (e.g. rates).
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, elapsed: Duration) {
        self.0.push(elapsed.as_secs_f64() * 1e6);
    }

    pub fn push_value(&mut self, us: f64) {
        self.0.push(us);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile `p` in `[0, 100]` (0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Percentile `p` of each consecutive block of `block` samples (in
    /// recording order; a short last block joins the one before it), and the
    /// median of those. A host that stalls for a moment inflates the tail of
    /// one block, not of the run. With fewer than two blocks' worth of
    /// samples this is the plain percentile.
    pub fn block_percentile(&self, p: f64, block: usize) -> f64 {
        let blocks = self.0.len() / block.max(1);
        if blocks < 2 {
            return self.percentile(p);
        }
        let mut per_block = Samples::default();
        for b in 0..blocks {
            let end = if b + 1 == blocks {
                self.0.len()
            } else {
                (b + 1) * block
            };
            per_block.push_value(Samples(self.0[b * block..end].to_vec()).percentile(p));
        }
        per_block.median()
    }

    /// Samples strictly beyond the nearest-rank percentile `p`.
    pub fn beyond(&self, p: f64) -> usize {
        let rank = ((p / 100.0) * self.0.len() as f64).ceil() as usize;
        self.0.len() - rank.min(self.0.len())
    }
}

/// Timed set-up rounds: at least this many, and more until
/// [`SETUP_MIN_TIME`] has passed, up to [`SETUP_MAX_ROUNDS`].
const SETUP_MIN_ROUNDS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_secs(4);
const SETUP_MAX_ROUNDS: usize = 1000;

/// Runs the program's set-up `round` repeatedly and returns the last result
/// with the time of every timed round; `setup_s` is their median. A first,
/// untimed round warms the allocator and the page tables. Rounds then run
/// for a fixed span of time rather than a fixed count, so a moment of host
/// stall moves few of them. Each round's result is dropped before the next
/// round starts.
pub fn repeat_setup<T, E>(mut round: impl FnMut() -> Result<T, E>) -> Result<(T, Samples), E> {
    let mut last = round()?;
    let mut times = Samples::default();
    let start = Instant::now();
    while times.len() < SETUP_MIN_ROUNDS
        || (start.elapsed() < SETUP_MIN_TIME && times.len() < SETUP_MAX_ROUNDS)
    {
        drop(last);
        let t = Instant::now();
        last = round()?;
        times.push(t.elapsed());
    }
    Ok((last, times))
}

/// Pins the calling thread to the CPU it runs on. A single-threaded workload
/// migrated between the CPUs of a small host mid-run measured up to 40%
/// slower than the same inputs on a pinned run; pinning takes that out of the
/// run-to-run spread. Threads spawned afterwards inherit the pin. Best
/// effort: a failed call leaves the thread unpinned.
pub fn pin_to_current_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16]; // a 1024-CPU `cpu_set_t`
                               // SAFETY: `sched_getcpu` takes no arguments and only reads the calling
                               // thread's state.
    let cpu = unsafe { sched_getcpu() };
    let Ok(cpu) = usize::try_from(cpu) else {
        return;
    };
    if cpu >= 64 * mask.len() {
        return;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized buffer of exactly the size passed,
    // the call only reads it, and pid 0 names the calling thread.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Returns the heap memory input generation freed to the system, then resets
/// the process's resident-set high-water mark to its current resident set,
/// so that [`peak_rss_mb`] counts the program's memory (and the generated
/// inputs it holds), not the generator's. Best effort: where the kernel
/// refuses the reset, the high-water mark still includes the generator's
/// peak.
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers; it only hands free heap pages
    // back to the system.
    unsafe { malloc_trim(0) };
    // Writing "5" to `clear_refs` resets this process's `VmHWM` (Linux 4.0+).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run: the correctness verdict, operation counts and the
/// metrics, printed as the last line of standard output.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub mismatches: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` on f64 prints every significant digit and never an exponent.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in 1..=1000 {
            s.push_value(v as f64);
        }
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.percentile(99.0), 990.0);
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.percentile(90.0), 900.0);
        // Blocks [1..500] and [501..1000]: p90s 450 and 950, median 450
        // (nearest rank over two values).
        assert_eq!(s.block_percentile(90.0, 500), 450.0);
        assert_eq!(s.block_percentile(90.0, 1000), 900.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_ms", 1.25, "ms");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
