//! Host time of a measured window, corrected for the machine's speed.
//!
//! On a shared machine the same simulated work takes up to 1.7 times as
//! long in one stretch of seconds as in the next: other guests on the
//! same physical cores and memory slow this one down, and CPU time does
//! not leave that out. The meter therefore runs the window in chunks of
//! about [`CHUNK`] of CPU time and, between chunks, times a fixed
//! reference task, the *yardstick*, which the repository's code never
//! touches. A chunk's CPU time divided by the yardstick's time around it
//! is the chunk's cost in yardstick passes, whatever the machine's speed
//! at that moment; [`REF_PASS_S`] turns passes back into seconds.

use crate::cputime::process_cpu;
use dynatune_simnet::{Host, SimTime, World};
use std::time::{Duration, Instant};

/// CPU time of one chunk of the window between two yardstick passes.
const CHUNK: Duration = Duration::from_millis(20);

/// Simulated time advanced between two looks at the CPU clock.
const SLICE: Duration = Duration::from_millis(20);

/// Seconds one yardstick pass takes at the reference speed: roughly a
/// pass's time on a quiet 2-core x86-64 guest.
pub const REF_PASS_S: f64 = 0.00025;

/// Chunks on each side of a chunk whose passes give its speed (the
/// median of `2 * SMOOTH + 1` passes, so one interrupted pass does not
/// count).
const SMOOTH: usize = 5;

/// Words in the yardstick's table: 64 MiB, far more than a core's
/// private caches, as the simulator's working set is. Of 8, 32, 64 and
/// 128 MiB tables, 64 and 128 MiB tracked the simulator's swings best.
const WORDS: usize = 1 << 23;

/// Bytes of the yardstick's table, all resident from [`Yardstick::new`]
/// on.
pub const TABLE_BYTES: usize = WORDS * 8;

/// Steps of one pass.
const STEPS: usize = 6_000;

/// The reference task: random reads and writes over a table larger than
/// the private caches, mixed with dependent arithmetic and branches.
pub struct Yardstick {
    table: Vec<u64>,
    state: u64,
}

impl Yardstick {
    /// A yardstick with its table touched once, so its pages exist.
    pub fn new() -> Yardstick {
        let mut y = Yardstick {
            table: (0..WORDS as u64).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
        };
        y.pass();
        y
    }

    /// Run one pass; its CPU seconds.
    pub fn pass(&mut self) -> f64 {
        let t0 = process_cpu();
        let mut s = self.state;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let far = (s as usize) & (WORDS - 1);
            let near = (s >> 40) as usize & 0x7FFF;
            let v = self.table[far] ^ self.table[near];
            acc = acc.wrapping_add(v).rotate_left(7) ^ s;
            if acc & 3 == 0 {
                acc = acc.wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
            self.table[far] = v.wrapping_add(acc);
        }
        self.state = s;
        std::hint::black_box(acc);
        process_cpu().saturating_sub(t0).as_secs_f64()
    }
}

/// What a [`Meter`] measured over its window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reading {
    /// Wall seconds of the window, yardstick passes left out.
    pub wall_s: f64,
    /// CPU seconds of the window, yardstick passes left out.
    pub cpu_s: f64,
    /// The window's cost in yardstick passes, times [`REF_PASS_S`].
    pub ref_s: f64,
}

/// Runs a window of simulation in chunks with a yardstick pass after
/// each.
pub struct Meter<'a> {
    yard: &'a mut Yardstick,
    started: Instant,
    chunk_from: Duration,
    /// `(CPU seconds, pass seconds)` per closed chunk.
    chunks: Vec<(f64, f64)>,
    pass_wall: Duration,
}

impl<'a> Meter<'a> {
    /// Start a window now.
    pub fn start(yard: &'a mut Yardstick) -> Meter<'a> {
        Meter {
            yard,
            started: Instant::now(),
            chunk_from: process_cpu(),
            chunks: Vec::new(),
            pass_wall: Duration::ZERO,
        }
    }

    /// `world.run_until(to)`, run in slices so the chunks stay short.
    /// The simulation is the same as one call: events run in time order
    /// either way.
    pub fn run_until<H: Host>(&mut self, world: &mut World<H>, to: SimTime) {
        let mut at = world.now();
        loop {
            at = (at + SLICE).min(to);
            world.run_until(at);
            let now = process_cpu();
            if now.saturating_sub(self.chunk_from) >= CHUNK {
                self.close(now);
            }
            if at >= to {
                break;
            }
        }
    }

    fn close(&mut self, now: Duration) {
        let cpu = now.saturating_sub(self.chunk_from).as_secs_f64();
        let t0 = Instant::now();
        let pass = self.yard.pass();
        self.pass_wall += t0.elapsed();
        self.chunks.push((cpu, pass));
        self.chunk_from = process_cpu();
    }

    /// End the window.
    pub fn finish(mut self) -> Reading {
        self.close(process_cpu());
        let wall_s = self
            .started
            .elapsed()
            .saturating_sub(self.pass_wall)
            .as_secs_f64();
        let passes: Vec<f64> = self.chunks.iter().map(|c| c.1).collect();
        let mut cpu_s = 0.0;
        let mut ref_s = 0.0;
        for (i, &(cpu, _)) in self.chunks.iter().enumerate() {
            let lo = i.saturating_sub(SMOOTH);
            let hi = (i + SMOOTH + 1).min(passes.len());
            let mut near = passes[lo..hi].to_vec();
            near.sort_by(f64::total_cmp);
            cpu_s += cpu;
            ref_s += cpu / near[near.len() / 2] * REF_PASS_S;
        }
        Reading {
            wall_s,
            cpu_s,
            ref_s,
        }
    }
}
