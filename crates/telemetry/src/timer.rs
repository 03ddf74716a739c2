//! A manual wall-clock stopwatch.

use std::time::Instant;

/// Manual stopwatch: start, read, restart.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self { start: Instant::now() }
    }

    /// Elapsed nanoseconds since start (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Restart and return the elapsed nanoseconds of the lap just ended.
    pub fn lap_ns(&mut self) -> u64 {
        let ns = self.elapsed_ns();
        self.start = Instant::now();
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_laps_advance() {
        let mut w = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let lap = w.lap_ns();
        assert!(lap >= 1_000_000);
        assert!(w.elapsed_ns() < lap);
    }
}
