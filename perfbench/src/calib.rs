//! The host's speed, measured between the timed operations.
//!
//! The benchmark runs on shared hosts whose speed drifts by up to 1.5x, from one
//! second to the next and from one minute to the next: on a 2-core x86-64 VM the
//! same sweep read 7.6 to 13.6 specs/s from one run to the next, and no hardware
//! counter is exposed there. So every timing is also taken at reference speed: a
//! fixed piece of work, the probe, is timed at the start and end of a stretch of
//! timed operations (and, where the caller wants, inside it), and the operations'
//! wall times are scaled by [`REFERENCE_MS`] over the mean of the stretch's probe
//! times. The probe is the benchmark's own code, so no change to the program under
//! test moves it, and a change that makes the program slower makes its
//! reference-speed time slower by the same share.
//!
//! The probe mimics the concretizer's mix: a hash map of string keys with small
//! vectors, sorted and looked up (like grounding), and four independent streams of
//! table lookups and data-dependent branches (like the solver). On that VM, over
//! ten sweep runs, it cut the spread of the per-solve mean from 0.15 to 0.07; a
//! pointer chase through a large table tracked the drift only half as well.

use std::collections::HashMap;
use std::hint::black_box;

/// Keys of the probe's hash map.
const KEYS: usize = 4000;
/// Elements of the probe's lookup table (64 KiB of `u32`).
const TABLE: usize = 1 << 14;
/// Steps of the probe's lookup streams.
const STEPS: usize = 300_000;
/// The probe's time on a quiet 2-core x86-64 VM (Intel Xeon): the speed every
/// timing is scaled to.
pub const REFERENCE_MS: f64 = 3.6;

/// The probe (see the module documentation).
struct Probe {
    table: Vec<u32>,
}

impl Probe {
    fn new() -> Self {
        Probe { table: (0..TABLE as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect() }
    }

    /// Run the probe once; returns its time in milliseconds.
    fn time_ms(&self) -> f64 {
        let t = thread_cpu_ms();
        let mut map = HashMap::new();
        for i in 0..KEYS {
            map.insert(format!("pkg-{i}-{}", i * 7919 % 1013), vec![i as u32; 8]);
        }
        let mut keys: Vec<&String> = map.keys().collect();
        keys.sort();
        let mut acc = keys.iter().step_by(3).map(|k| u64::from(map[*k][0])).sum::<u64>();
        let mut streams = [1u64, 2, 3, 4];
        for _ in 0..STEPS {
            for x in streams.iter_mut() {
                *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (*x ^ (*x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let v = self.table[z as usize % TABLE];
                if v & 1 == 1 {
                    acc = acc.wrapping_add(u64::from(v));
                } else {
                    acc ^= z;
                }
            }
        }
        black_box(acc);
        thread_cpu_ms() - t
    }
}

/// The calling thread's CPU time in milliseconds (`CLOCK_THREAD_CPUTIME_ID`). The
/// probe is timed by it, so a probe that waits for a core while the server's
/// workers hold both reads the host's speed, not the wait. (The C library that
/// `std` links provides `clock_gettime`; 64-bit Linux `timespec` layout.)
fn thread_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec`, the only memory the call writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// Probe readings along a run, in timed stretches: each reading is the median of
/// `loops` probe runs.
pub struct Clock {
    probe: Probe,
    loops: usize,
    /// Index of the reading that started the current stretch.
    start: usize,
    readings: Vec<f64>,
}

impl Clock {
    /// A clock whose first reading starts a stretch.
    pub fn new(loops: usize) -> Self {
        let mut clock = Clock { probe: Probe::new(), loops, start: 0, readings: Vec::new() };
        clock.mark();
        clock
    }

    fn read(&mut self) {
        let times = crate::stats::sorted((0..self.loops).map(|_| self.probe.time_ms()).collect());
        self.readings.push(crate::stats::median(&times).expect("at least one loop"));
    }

    /// Take a reading that starts a timed stretch.
    pub fn mark(&mut self) {
        self.read();
        self.start = self.readings.len() - 1;
    }

    /// Take a reading inside the current stretch.
    pub fn tick(&mut self) {
        self.read();
    }

    /// Take a reading that ends the current stretch (and starts the next): the
    /// factor that brings a time measured in that stretch to reference speed,
    /// [`REFERENCE_MS`] over the mean of the stretch's readings.
    pub fn factor(&mut self) -> f64 {
        self.read();
        let stretch = &self.readings[self.start..];
        let factor = REFERENCE_MS * stretch.len() as f64 / stretch.iter().sum::<f64>();
        self.start = self.readings.len() - 1;
        factor
    }

    /// Every reading so far, in milliseconds.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_scale_by_the_mean_of_the_stretch_readings() {
        let mut clock = Clock::new(3);
        let f = clock.factor();
        let r = clock.readings().to_vec();
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|&ms| ms > 0.0));
        assert!((f - 2.0 * REFERENCE_MS / (r[0] + r[1])).abs() < 1e-12);
        // The reading that ended a stretch starts the next one.
        clock.tick();
        let g = clock.factor();
        let r = clock.readings().to_vec();
        assert!((g - 3.0 * REFERENCE_MS / (r[1] + r[2] + r[3])).abs() < 1e-12);
        // A mark starts a stretch afresh.
        clock.mark();
        let h = clock.factor();
        let r = clock.readings();
        assert_eq!(r.len(), 6);
        assert!((h - 2.0 * REFERENCE_MS / (r[4] + r[5])).abs() < 1e-12);
    }

    #[test]
    fn thread_cpu_time_counts_work_and_not_sleep() {
        let t0 = thread_cpu_ms();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_cpu_ms() - t0;
        assert!((0.0..20.0).contains(&slept), "a sleep costs no CPU time: {slept} ms");
        let t1 = thread_cpu_ms();
        let wall = std::time::Instant::now();
        Probe::new().time_ms();
        let cpu = thread_cpu_ms() - t1;
        let wall = wall.elapsed().as_secs_f64() * 1e3;
        assert!(cpu > 0.0 && cpu <= wall + 1.0, "cpu {cpu} ms, wall {wall} ms");
    }
}
