//! The yardstick: a fixed kernel timed between the cells, so that drift in
//! the host's speed can be divided out of the end-to-end times.
//!
//! On a shared host, neighbours contending for the caches slow a core by
//! up to 1.7× in spells that last from tens of seconds to minutes, while
//! pure arithmetic keeps its speed. A minimum or median within one run
//! cannot remove a spell that covers the whole run. A kernel timed just
//! before and just after a cell sees the same spell, so the cell's time
//! over the kernel's moves far less. On a 2-vCPU Xeon VM at 2.0 GHz, over
//! ten 25-second runs of a workload, each on its own seed, the spread
//! (IQR over median) of the summed run times fell from 0.14–0.25 in host
//! seconds to 0.09–0.13 in yardstick units on `paper-fig6`, `elastic` and
//! `imperfect`; it tracks a spell only in part, since a spell slows the
//! kernel and the simulator by different factors.
//!
//! The kernel has two phases, shaped like the program's two kinds of work:
//! an event phase (a binary heap of timed events, short FIFO queues and
//! random reads and writes of a 2 MB table, like the event core) and a
//! streaming phase (multiply-adds over two 16 MB `f64` arrays, like the
//! scheduler's matrix passes). Its cost is the geometric mean of the two
//! phases' times, so a spell that slows only one kind of work counts half.
//!
//! The kernel and [`NOMINAL_S`] are part of the benchmark's definition:
//! two measurements compare only if both are unchanged.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's cost on a quiet spell of a 2-vCPU Xeon VM at 2.0 GHz, in
/// seconds. A time in yardstick units times this reads as seconds on that
/// host.
pub const NOMINAL_S: f64 = 0.045;

/// Events the event phase processes.
const EVENTS: usize = 400_000;
/// Events pending in the heap throughout the event phase.
const PENDING: u64 = 20_000;
/// FIFO queues the event phase spreads its events over.
const QUEUES: usize = 512;
/// Words of the event phase's table (2 MB).
const TABLE_WORDS: usize = 1 << 18;
/// Words of each streaming array (16 MB).
const STREAM_WORDS: usize = 1 << 21;
/// Passes the streaming phase makes over its arrays.
const STREAM_PASSES: usize = 10;

/// The kernel and its buffers. The buffers are allocated once and kept
/// for the whole run: freeing them would change how the allocator serves
/// the program's own large allocations.
pub struct Yardstick {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    queues: Vec<VecDeque<u64>>,
    table: Vec<u64>,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Yardstick {
    /// Allocates the buffers and runs the kernel once, so that every page
    /// it uses is resident before the first timed run.
    pub fn new() -> Self {
        let mut yardstick = Yardstick {
            heap: BinaryHeap::with_capacity(PENDING as usize + 1),
            queues: vec![VecDeque::with_capacity(16); QUEUES],
            table: vec![0; TABLE_WORDS],
            a: vec![0.0; STREAM_WORDS],
            b: vec![0.0; STREAM_WORDS],
        };
        yardstick.cost();
        yardstick
    }

    /// Runs the kernel once and returns its cost in seconds. Each phase
    /// refills its buffers before its clock starts.
    pub fn cost(&mut self) -> f64 {
        (self.event_phase() * self.stream_phase()).sqrt()
    }

    fn event_phase(&mut self) -> f64 {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let Yardstick {
            heap,
            queues,
            table,
            ..
        } = self;
        heap.clear();
        for id in 0..PENDING {
            heap.push(Reverse((next() % 1_000_000, id)));
        }
        queues.iter_mut().for_each(VecDeque::clear);
        table.fill(0);
        let start = Instant::now();
        let mut sum = 0_u64;
        for _ in 0..EVENTS {
            let Reverse((at, id)) = heap.pop().expect("the heap never empties");
            let r = next();
            let queue = &mut queues[r as usize % QUEUES];
            queue.push_back(id);
            if queue.len() > 8 {
                sum = sum.wrapping_add(queue.pop_front().unwrap_or_default());
            }
            let slot = (r >> 20) as usize % TABLE_WORDS;
            table[slot] = table[slot].wrapping_add(at);
            sum ^= table[(slot * 7 + 1) % TABLE_WORDS];
            // An exponential gap, as a Poisson arrival process draws one.
            let uniform = (r >> 11) as f64 / (1_u64 << 53) as f64;
            let gap = -(uniform + 1e-12).ln() * 1000.0;
            heap.push(Reverse((at + gap as u64 + 1, id)));
        }
        let elapsed = start.elapsed().as_secs_f64();
        black_box(sum);
        elapsed
    }

    fn stream_phase(&mut self) -> f64 {
        for (i, (x, y)) in self.a.iter_mut().zip(&mut self.b).enumerate() {
            *x = (i % 1000) as f64;
            *y = (i % 997) as f64;
        }
        let start = Instant::now();
        for pass in 0..STREAM_PASSES {
            let scale = 1.0 + pass as f64 * 1e-9;
            for (x, y) in self.a.iter_mut().zip(&self.b) {
                *x = *x * 0.5 + y * scale;
            }
            black_box(&mut self.a);
        }
        start.elapsed().as_secs_f64()
    }
}

/// A xorshift generator: the same stream on every run.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}
