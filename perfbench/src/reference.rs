//! A fixed reference task timed between the steps of the workload, so
//! that host times can be scaled to one machine speed.
//!
//! On a shared host the same work runs up to about twice as slow while
//! other tenants load the machine, in windows that last from seconds to
//! minutes, longer than a run. Sorting a fixed array slows down with the
//! workload in those windows, so a step's time divided by the time of the
//! sorts around it stays put far better than the raw time does. The
//! reference is the benchmark's own code: a change to the crates does not
//! change it.

use std::time::Instant;

/// Values in the reference array: 128 KiB, which sits in the L2 cache.
const LEN: usize = 32_768;

/// The machine speed the scaled metrics are given at: one where one
/// reference sort takes exactly this long. It is about what a sort takes
/// on the 2.0 GHz Xeon the benchmark was written on while the host is
/// quiet, so scaled and raw times read alike there.
pub const REFERENCE_S: f64 = 5e-4;

/// Times the steps of a stretch of work and the reference sorts between
/// them.
#[derive(Debug)]
pub struct Reference {
    arrays: Vec<Vec<u32>>,
    step_start: Instant,
    /// Width and slowest sort of the sample that began the current step.
    before: Option<(usize, f64)>,
    tally: Tally,
}

/// What one stretch of work measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Host seconds of the steps, the reference left out.
    pub wall_s: f64,
    /// The same, each step scaled by the sorts around it.
    pub scaled_wall_s: f64,
    /// Reference samples taken.
    pub samples: usize,
    /// Mean seconds of a sample's slowest sort.
    pub sort_s: f64,
}

impl Reference {
    /// A reference with nothing timed yet.
    pub fn new() -> Reference {
        Reference {
            arrays: Vec::new(),
            step_start: Instant::now(),
            before: None,
            tally: Tally::default(),
        }
    }

    /// Starts a stretch: its first step begins now.
    pub fn start(&mut self) {
        self.tally = Tally::default();
        self.before = None;
        self.step_start = Instant::now();
    }

    /// Ends the current step, sorts the fixed array once on each of
    /// `threads` threads at the same time, and starts the next step.
    /// Returns the factor that scales host seconds of the step to the
    /// reference machine: [`REFERENCE_S`] over the slowest sort, since
    /// the slowest worker bounds a step run on `threads` threads. When
    /// the sample before the step had the same width, the step sits
    /// between the two and the mean of their slowest sorts counts.
    pub fn sample(&mut self, threads: usize) -> f64 {
        let step_s = self.step_start.elapsed().as_secs_f64();
        self.arrays.resize_with(threads.max(1), Vec::new);
        let (first, rest) = self.arrays.split_first_mut().expect("one array at least");
        let sort_s = std::thread::scope(|scope| {
            let helpers: Vec<_> = rest
                .iter_mut()
                .map(|values| scope.spawn(|| timed_sort(values)))
                .collect();
            helpers
                .into_iter()
                .map(|h| h.join().expect("reference sort panicked"))
                .fold(timed_sort(first), f64::max)
        });
        let around_s = match self.before {
            Some((width, before_s)) if width == threads => (before_s + sort_s) / 2.0,
            _ => sort_s,
        };
        self.before = Some((threads, sort_s));
        let factor = REFERENCE_S / around_s;
        let t = &mut self.tally;
        t.wall_s += step_s;
        t.scaled_wall_s += step_s * factor;
        t.sort_s += (sort_s - t.sort_s) / (t.samples + 1) as f64;
        t.samples += 1;
        self.step_start = Instant::now();
        factor
    }

    /// Ends the stretch at its last sample.
    pub fn finish(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

/// Refills `values` with the same xorshift sequence every time and
/// returns the seconds of one unstable sort of it.
fn timed_sort(values: &mut Vec<u32>) -> f64 {
    values.clear();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..LEN {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push(x as u32);
    }
    let start = Instant::now();
    values.sort_unstable();
    std::hint::black_box(&values);
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_timed_and_scaled() {
        let mut reference = Reference::new();
        reference.start();
        let one = reference.sample(1);
        let two = reference.sample(2);
        let tally = reference.finish();
        assert_eq!(tally.samples, 2);
        assert!(one > 0.0 && two > 0.0 && tally.sort_s > 0.0);
        assert!(tally.scaled_wall_s > 0.0 && tally.wall_s > 0.0);
        assert_eq!(reference.finish().samples, 0);
    }
}
