//! The discrete-event engine: a time-ordered event queue.
//!
//! Events at equal timestamps are delivered in insertion order (a
//! monotonically increasing sequence number breaks ties), which makes runs
//! bit-reproducible under a fixed seed — floating-point latency draws never
//! influence pop order of simultaneous events. The queue keeps its pending
//! events in four stores (per-component completion slots, two FIFO lanes
//! for delayed messages and a general heap) under that one total order.

use crate::faults::FaultKind;
use pcs_types::{ComponentId, JobId, NodeId, RequestId, SimTime};
use std::collections::VecDeque;
use std::hint::select_unpredictable;

/// Everything that can happen in the simulated world.
///
/// Not `Eq`: [`FaultKind::Degrade`] carries its `f64` slowdown factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A new user request enters the service (and the next arrival is
    /// scheduled).
    RequestArrival,
    /// A component finishes the sub-request it was serving.
    ServiceCompletion {
        /// The component that finished.
        component: ComponentId,
        /// The component's fault epoch when service began. A node kill
        /// bumps the epoch, so completions of vaporised executions arrive
        /// stale and are ignored.
        epoch: u32,
    },
    /// A cancellation message for a queued duplicate arrives at a replica.
    ///
    /// Stage and partition are deliberately narrow (`u8`/`u16`, capacity
    /// asserted by the config validation): these two variants bound the
    /// `Event` size, and with it every pending entry's, whether it sits
    /// in a delayed-message lane or is moved around the heap on each
    /// sift, so the width is hot-path real estate.
    CancelArrival {
        /// Replica holding the (possibly still queued) duplicate.
        component: ComponentId,
        /// The request whose duplicate should be cancelled.
        request: RequestId,
        /// The stage the duplicate was dispatched in.
        stage: u8,
        /// The partition within that stage.
        partition: u16,
    },
    /// A reissue timer fires: if the partition is still incomplete, send a
    /// duplicate to a backup replica.
    ReissueTimer {
        /// The request being watched.
        request: RequestId,
        /// The stage the timer was armed in (stale timers are ignored).
        stage: u8,
        /// The partition within that stage.
        partition: u16,
    },
    /// A batch job arrives on a node (and the node's next job is
    /// scheduled).
    BatchArrival {
        /// The node receiving churn.
        node: NodeId,
    },
    /// A batch job finishes and releases its demand.
    BatchDeparture {
        /// The node the job ran on.
        node: NodeId,
        /// Which job is leaving.
        job: JobId,
    },
    /// The monitors take their next sample on every node.
    MonitorTick,
    /// The scheduler hook runs one interval (matrix + greedy migrations).
    SchedulerTick,
    /// A previously-requested migration completes and the component's
    /// demand moves to the destination node.
    MigrationComplete {
        /// The migrating component.
        component: ComponentId,
        /// Destination node.
        to: NodeId,
    },
    /// End of the measurement warm-up: metrics are reset so summaries
    /// reflect steady state only.
    WarmupEnd,
    /// A scheduled membership change from the run's
    /// [`crate::faults::FaultPlan`] strikes a node.
    NodeFault {
        /// The affected node.
        node: NodeId,
        /// Kill or restore.
        kind: FaultKind,
    },
}

/// One pending event. The `(time, seq)` pair is compared as a single
/// assembled `u128` — `time` in the high 64 bits, `seq` in the low — so
/// the heap's sift pays one wide compare instead of a two-field
/// lexicographic branch, while the fields stay two `u64`s (8-byte
/// alignment: a stored `u128` would pad the entry from 40 to 48 bytes).
/// The packing is order-preserving, so the total order (and therefore
/// every pop sequence) is exactly the old tuple order.
#[derive(Debug, PartialEq)]
struct Entry {
    time_us: u64,
    seq: u64,
    event: Event,
}

impl Entry {
    #[inline]
    fn key(&self) -> u128 {
        ((self.time_us as u128) << 64) | self.seq as u128
    }

    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_micros(self.time_us)
    }
}

/// Children per node of the event heap. A 4-ary heap halves the depth of
/// the binary heap: pops move entries across half as many levels (the
/// dominant cost — each level is a 40-byte entry swap plus up-to-4 key
/// compares on one cache line of keys), and pushes get shallower too.
/// The pop *order* is heap-shape-independent: keys are unique (`seq`
/// breaks ties), so every correct min-heap yields the identical event
/// sequence.
const HEAP_ARITY: usize = 4;

/// Key marking an empty completion slot (no key can reach it: it would
/// need both the maximum timestamp and the maximum sequence number).
const SLOT_EMPTY: u128 = u128::MAX;

/// The delayed-message lane of an event kind, if it has one:
/// [`Event::CancelArrival`] is scheduled a fixed delay after the current
/// time and [`Event::ReissueTimer`] a per-class one, so each kind's
/// stream arrives sorted, or nearly so, and a FIFO holds it in order.
#[inline]
fn lane_of(event: &Event) -> Option<usize> {
    match event {
        Event::CancelArrival { .. } => Some(0),
        Event::ReissueTimer { .. } => Some(1),
        _ => None,
    }
}

/// A deterministic time-ordered event queue.
///
/// Four stores, one total order:
///
/// - **Completion slots.** [`Event::ServiceCompletion`] dominates the
///   event stream (every execution is one) and obeys a structural
///   invariant — each component has **at most one** outstanding
///   completion (single-server queues; the fault path cancels the stale
///   completion when a kill vaporises an execution). So completions live
///   in a dense per-component slot array, indexed by a winner
///   (tournament) tree.
/// - **Two delayed-message lanes.** Redundancy cancellations
///   ([`Event::CancelArrival`]) are always scheduled at `now +
///   cancel_delay`, and since `now` never decreases their stream arrives
///   in key order. Reissue timers ([`Event::ReissueTimer`]) are
///   scheduled at `now +` the policy's per-class delay, in order too
///   while the classes share a delay. Each kind gets a FIFO: an entry
///   whose key is above its lane's back key is appended, O(1), and never
///   sifted. On the Fig. 6 Nutch cell these two kinds are 58% of a RED-3
///   run's events and 65% of an RI-90 run's. An entry that would break
///   its lane's order (a reissue timer of a shorter-delay class) falls
///   back to the heap, so the delivery order stays exact for any
///   schedule sequence.
/// - **The heap.** Everything else (arrivals, ticks, batch churn,
///   migrations, faults, out-of-order lane entries) goes through a 4-ary
///   min-heap.
///
/// The tree has one leaf per slot, padded to a power of two `L`; node
/// `n`'s children are `2n` and `2n + 1`, leaf `i` is node `L + i`, and
/// `win[n]` is the slot holding the smallest key under `n`, so `win[1]`
/// is the slot store's minimum. Nodes store slot indices, not keys: a
/// replay then writes one `u32` per level. With `m` slots:
///
/// - `schedule` writes the slot and climbs from its leaf only while the
///   new key beats the node's current winner, at most `log2 L` levels;
/// - `pop` and [`EventQueue::cancel_completion`] empty the slot and
///   replay its leaf-to-root path, one compare against the sibling's
///   winner per level: `⌈log2 m⌉` levels (7 at the Nutch width of 102,
///   10 at 1000).
///
/// `pop` takes whichever of the four heads (the tree's winner, the two
/// lane fronts and the heap's root) holds the globally smallest `(time,
/// seq)` key. The delivery order is therefore *identical* to a single
/// heap's, whatever the stores' shapes: keys are unique (`seq` breaks
/// ties), every store honours the same total order, each lane is sorted
/// by construction, and the tree's winner is the exact minimum of its
/// slots, not an approximation.
#[derive(Debug)]
pub struct EventQueue {
    heap: Vec<Entry>,
    /// The delayed-message lanes ([`lane_of`]), each sorted by key.
    lanes: [VecDeque<Entry>; 2],
    /// Per-component pending-completion key ([`SLOT_EMPTY`] = none),
    /// padded with empty slots to the tree's leaf count `L`.
    slot_keys: Vec<u128>,
    /// The epoch carried by each pending completion.
    slot_epochs: Vec<u32>,
    /// The winner tree over `slot_keys`: `2L` nodes, `win[1]` the root,
    /// `win[L + i] = i` the leaves (`win[0]` is unused).
    win: Vec<u32>,
    /// Number of occupied completion slots.
    slots_pending: usize,
    seq: u64,
    now: SimTime,
}

impl Default for EventQueue {
    fn default() -> Self {
        // One empty slot (L = 1): the root is then always a valid slot
        // index, so `pop` reads the slot minimum without a branch.
        EventQueue {
            heap: Vec::new(),
            lanes: [VecDeque::new(), VecDeque::new()],
            slot_keys: vec![SLOT_EMPTY],
            slot_epochs: vec![0],
            win: vec![0, 0],
            slots_pending: 0,
            seq: 0,
            now: SimTime::ZERO,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue at t = 0.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Creates an empty queue with a pre-reserved heap, sized from the
    /// caller's expected number of concurrently pending events that are
    /// neither completions nor delayed messages, so the steady-state event
    /// churn never reallocates it. The lanes grow to their steady-state
    /// depth within a run's first few doublings.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            ..EventQueue::default()
        }
    }

    /// The current simulation time (time of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    /// Panics if `at` lies in the past — the simulated world never
    /// rewrites history.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        assert!(
            at >= self.now,
            "cannot schedule {event:?} at {at} before now ({})",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry {
            time_us: at.as_micros(),
            seq,
            event,
        };
        if let Event::ServiceCompletion { component, epoch } = event {
            self.schedule_slot(component.index(), entry.key(), epoch);
            return;
        }
        if let Some(lane) = lane_of(&event) {
            let lane = &mut self.lanes[lane];
            if lane.back().is_none_or(|back| back.key() < entry.key()) {
                lane.push_back(entry);
                return;
            }
            debug_assert!(
                !matches!(event, Event::CancelArrival { .. }),
                "a CancelArrival is always scheduled at now + cancel_delay, \
                 so it cannot arrive out of order"
            );
            // A reissue timer of a shorter-delay class than the lane's
            // back: the heap keeps it in order.
        }
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1);
    }

    /// Fills component `ci`'s empty slot and lifts it up the tree while it
    /// wins.
    fn schedule_slot(&mut self, ci: usize, key: u128, epoch: u32) {
        if ci >= self.slot_keys.len() {
            self.grow_slots(ci + 1);
        }
        debug_assert_eq!(
            self.slot_keys[ci], SLOT_EMPTY,
            "a single-server component cannot have two pending completions"
        );
        self.slot_keys[ci] = key;
        self.slot_epochs[ci] = epoch;
        self.slots_pending += 1;
        // `<=`, not `<`: a node whose subtree was all empty may name `ci`
        // itself as its winner, and the climb must pass through it. Other
        // occupied keys never tie (they are unique), so `<=` changes
        // nothing else.
        let mut n = (self.slot_keys.len() + ci) >> 1;
        while n > 0 && key <= self.slot_keys[self.win[n] as usize] {
            self.win[n] = ci as u32;
            n >>= 1;
        }
    }

    /// Widens the slot store to at least `slots` leaves (a power of two)
    /// and rebuilds the tree bottom-up. Runs once per doubling, as
    /// components first serve.
    #[cold]
    fn grow_slots(&mut self, slots: usize) {
        let leaves = slots.next_power_of_two();
        self.slot_keys.resize(leaves, SLOT_EMPTY);
        self.slot_epochs.resize(leaves, 0);
        self.win = vec![0; 2 * leaves];
        for (i, w) in self.win[leaves..].iter_mut().enumerate() {
            *w = i as u32;
        }
        for n in (1..leaves).rev() {
            let (l, r) = (self.win[2 * n], self.win[2 * n + 1]);
            self.win[n] = if self.slot_keys[r as usize] < self.slot_keys[l as usize] {
                r
            } else {
                l
            };
        }
    }

    /// Re-establishes the winners on slot `ci`'s leaf-to-root path after
    /// its key changed, one sibling compare per level. Which side wins is
    /// data-dependent, so a branch would mispredict on about half the
    /// levels. The select is therefore on the `u32` slot index (a
    /// conditional move) and the winner's key is re-read: selecting the
    /// `u128` key itself compiles back to a branch.
    #[inline]
    fn replay(&mut self, ci: usize) {
        let keys = &self.slot_keys;
        let win = &mut self.win;
        let mut node = keys.len() + ci;
        let mut best = ci as u32;
        let mut best_key = keys[ci];
        while node > 1 {
            let sibling = win[node ^ 1];
            let sibling_key = keys[sibling as usize];
            best = select_unpredictable(sibling_key < best_key, sibling, best);
            best_key = keys[best as usize];
            node >>= 1;
            win[node] = best;
        }
    }

    /// Drops the pending completion of a component, if any — the fault
    /// path calls this when a kill vaporises an in-flight execution (its
    /// completion would arrive epoch-stale and be ignored anyway), which
    /// also restores the one-pending-completion-per-component invariant
    /// before the component serves again.
    pub fn cancel_completion(&mut self, component: ComponentId) {
        let ci = component.index();
        if ci >= self.slot_keys.len() || self.slot_keys[ci] == SLOT_EMPTY {
            return;
        }
        self.slot_keys[ci] = SLOT_EMPTY;
        self.slots_pending -= 1;
        self.replay(ci);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let heap_key = self.heap.first().map_or(u128::MAX, Entry::key);
        let front = |lane: &VecDeque<Entry>| lane.front().map_or(u128::MAX, Entry::key);
        let lane_keys = [front(&self.lanes[0]), front(&self.lanes[1])];
        let lane = usize::from(lane_keys[1] < lane_keys[0]);
        let lane_key = lane_keys[lane];
        let ci = self.win[1] as usize;
        let key = self.slot_keys[ci];
        if key < heap_key && key < lane_key {
            // The globally next event is a completion slot.
            let epoch = self.slot_epochs[ci];
            self.slot_keys[ci] = SLOT_EMPTY;
            self.slots_pending -= 1;
            self.replay(ci);
            let time = SimTime::from_micros((key >> 64) as u64);
            debug_assert!(time >= self.now, "event queue went backwards");
            self.now = time;
            return Some((
                time,
                Event::ServiceCompletion {
                    component: ComponentId::from_index(ci),
                    epoch,
                },
            ));
        }
        let entry = if lane_key < heap_key {
            self.lanes[lane].pop_front()?
        } else {
            if self.heap.is_empty() {
                return None;
            }
            let entry = self.heap.swap_remove(0);
            if !self.heap.is_empty() {
                self.sift_down(0);
            }
            entry
        };
        let time = entry.time();
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        Some((time, entry.event))
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / HEAP_ARITY;
            if self.heap[i].key() < self.heap[parent].key() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first = i * HEAP_ARITY + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            let mut best_key = self.heap[first].key();
            let last = (first + HEAP_ARITY).min(len);
            for child in first + 1..last {
                let key = self.heap[child].key();
                if key < best_key {
                    best = child;
                    best_key = key;
                }
            }
            if best_key < self.heap[i].key() {
                self.heap.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.slots_pending + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_types::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), Event::MonitorTick);
        q.schedule(SimTime::from_millis(1), Event::RequestArrival);
        q.schedule(SimTime::from_millis(3), Event::SchedulerTick);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros() / 1000)
            .collect();
        assert_eq!(times, vec![1, 3, 5]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(2);
        q.schedule(t, Event::RequestArrival);
        q.schedule(t, Event::MonitorTick);
        q.schedule(t, Event::SchedulerTick);
        assert_eq!(q.pop().unwrap().1, Event::RequestArrival);
        assert_eq!(q.pop().unwrap().1, Event::MonitorTick);
        assert_eq!(q.pop().unwrap().1, Event::SchedulerTick);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), Event::MonitorTick);
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), Event::MonitorTick);
        q.pop();
        q.schedule(SimTime::from_secs(1), Event::MonitorTick);
    }

    #[test]
    fn len_tracks_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1), Event::MonitorTick);
        q.schedule(SimTime::from_secs(2), Event::MonitorTick);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    /// Bench-shape regression: a 1000-component deployment (the scale
    /// family's widest cell) must keep every completion on the slot fast
    /// path — none may spill onto the general heap.
    #[test]
    fn scale_width_completions_stay_on_the_slot_path() {
        const M: usize = 1000;
        let mut q = EventQueue::new();
        for ci in 0..M {
            q.schedule(
                SimTime::from_micros(1000 + (ci as u64 * 7919) % 5000),
                Event::ServiceCompletion {
                    component: ComponentId::from_index(ci),
                    epoch: 0,
                },
            );
        }
        assert_eq!(q.slots_pending, M, "all completions in slots");
        assert!(q.heap.is_empty(), "no completion spilled onto the heap");
        // Steady-state churn: pop each completion and immediately
        // reschedule the component, as the event loop does.
        let mut last = SimTime::ZERO;
        for i in 0..10 * M {
            let (t, ev) = q.pop().expect("queue stays loaded");
            assert!(t >= last, "pop order went backwards at step {i}");
            last = t;
            let Event::ServiceCompletion { component, .. } = ev else {
                panic!("only completions were scheduled");
            };
            if i < 9 * M {
                q.schedule(
                    t + SimDuration::from_millis(1 + (component.index() as u64 * 31) % 97),
                    Event::ServiceCompletion {
                        component,
                        epoch: 0,
                    },
                );
                assert!(q.heap.is_empty(), "slot path must absorb the churn");
            }
        }
        assert!(q.is_empty());
    }

    /// Bench-shape regression: the simulator's cancellation and reissue
    /// streams (each a fixed delay after `now`) must ride their lanes,
    /// never the heap, while the periodic tick keeps to the heap.
    #[test]
    fn delayed_message_streams_stay_off_the_heap() {
        let tick = SimDuration::from_millis(100);
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO + tick, Event::MonitorTick);
        for i in 0..10_000u16 {
            let now = q.now();
            let request = RequestId::from_index(i as usize);
            q.schedule(
                now + SimDuration::from_millis(3),
                Event::CancelArrival {
                    component: ComponentId::from_index(0),
                    request,
                    stage: 0,
                    partition: i % 3,
                },
            );
            q.schedule(
                now + SimDuration::from_millis(7),
                Event::ReissueTimer {
                    request,
                    stage: 0,
                    partition: i % 3,
                },
            );
            assert_eq!(
                q.heap.len(),
                1,
                "step {i}: only the tick may sit on the heap"
            );
            // Build a backlog of 100 messages per lane, then drain as
            // fast as the streams fill.
            for _ in 0..if i < 100 { 0 } else { 2 } {
                let (t, event) = q.pop().expect("queue stays loaded");
                if event == Event::MonitorTick {
                    q.schedule(t + tick, Event::MonitorTick);
                }
            }
        }
        assert!(q.lanes.iter().all(|lane| lane.len() >= 50));
    }

    /// The slot index must deliver exactly the order a single reference
    /// heap would, across widths straddling powers of two, with
    /// interleaved cancellations.
    #[test]
    fn wide_slot_order_matches_reference_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for &m in &[1usize, 63, 64, 65, 300, 1000] {
            let mut rng = SmallRng::seed_from_u64(m as u64);
            let mut q = EventQueue::new();
            // Reference: (time_us, seq) pairs popped via full scan.
            let mut reference: Vec<(u64, u64, usize)> = Vec::new();
            let mut seq = 0u64;
            let mut pending = vec![false; m];
            let mut now = 0u64;
            for _ in 0..4000 {
                let op = rng.gen::<f64>();
                let ci = (rng.gen::<f64>() * m as f64) as usize % m;
                if op < 0.55 {
                    if pending[ci] {
                        continue;
                    }
                    let at = now + 1 + (rng.gen::<f64>() * 10_000.0) as u64;
                    q.schedule(
                        SimTime::from_micros(at),
                        Event::ServiceCompletion {
                            component: ComponentId::from_index(ci),
                            epoch: 0,
                        },
                    );
                    reference.push((at, seq, ci));
                    seq += 1;
                    pending[ci] = true;
                } else if op < 0.7 {
                    q.cancel_completion(ComponentId::from_index(ci));
                    reference.retain(|&(_, _, c)| c != ci);
                    pending[ci] = false;
                } else if !reference.is_empty() {
                    let best = reference
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(t, s, _))| (t, s))
                        .map(|(i, _)| i)
                        .unwrap();
                    let (t, _, ci) = reference.remove(best);
                    pending[ci] = false;
                    let (qt, qe) = q.pop().expect("model says an event is pending");
                    assert_eq!(qt, SimTime::from_micros(t));
                    assert_eq!(
                        qe,
                        Event::ServiceCompletion {
                            component: ComponentId::from_index(ci),
                            epoch: 0,
                        }
                    );
                    now = t;
                }
            }
            // Drain and compare the tail.
            reference.sort_by_key(|&(t, s, _)| (t, s));
            for (t, _, ci) in reference {
                let (qt, qe) = q.pop().expect("tail event pending");
                assert_eq!(qt, SimTime::from_micros(t));
                assert_eq!(
                    qe,
                    Event::ServiceCompletion {
                        component: ComponentId::from_index(ci),
                        epoch: 0,
                    }
                );
            }
            assert!(q.pop().is_none(), "width {m}: queue fully drained");
        }
    }

    /// All four stores together against a one-list reference model: slot
    /// completions interleaved with heap events and both delayed-message
    /// streams at colliding timestamps (many at `now` itself),
    /// cancellations of the current slot minimum and of arbitrary slots,
    /// and `len`/`is_empty` checked after every operation.
    ///
    /// Cancellation messages arrive at `now + CANCEL_DELAY`, always in
    /// order, as the simulator schedules them. Reissue timers come in two
    /// classes: a steady `now + REISSUE_DELAY` stream that stays on its
    /// lane, and timers at arbitrary offsets that often land before the
    /// lane's back and must then fall back to the heap. Widths
    /// straddle the tree's powers of two, up to 4099 leaves.
    #[test]
    fn mixed_queue_order_matches_reference_model() {
        const CANCEL_DELAY: u64 = 3;
        const REISSUE_DELAY: u64 = 5;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        fn completion(ci: usize, epoch: u32) -> Event {
            Event::ServiceCompletion {
                component: ComponentId::from_index(ci),
                epoch,
            }
        }
        let widths = [1usize, 2, 3, 63, 64, 65, 127, 128, 129, 1000, 4099];
        for &m in &widths {
            let mut rng = SmallRng::seed_from_u64(0x5eed_0000 + m as u64);
            let mut q = EventQueue::new();
            // Reference: every pending event with its (time_us, seq) key;
            // the next event is the one with the smallest key.
            let mut reference: Vec<(u64, u64, Event)> = Vec::new();
            let mut pending = vec![false; m];
            let mut seq = 0u64;
            let mut now = 0u64;
            let next_index = |reference: &[(u64, u64, Event)], slots_only: bool| {
                reference
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, _, e))| {
                        !slots_only || matches!(e, Event::ServiceCompletion { .. })
                    })
                    .min_by_key(|(_, &(t, s, _))| (t, s))
                    .map(|(i, _)| i)
            };
            for step in 0..6000 {
                // A quarter of the picks hit the top indices: the last
                // leaves of the tree.
                let ci = if rng.gen::<f64>() < 0.25 {
                    m - 1 - (rng.gen::<f64>() * m.min(4) as f64) as usize % m.min(4)
                } else {
                    (rng.gen::<f64>() * m as f64) as usize % m
                };
                let at = now + (rng.gen::<f64>() * 8.0) as u64;
                let op = rng.gen::<f64>();
                if op < 0.35 {
                    if pending[ci] {
                        continue;
                    }
                    let event = completion(ci, (rng.gen::<f64>() * 4.0) as u32);
                    q.schedule(SimTime::from_micros(at), event);
                    reference.push((at, seq, event));
                    seq += 1;
                    pending[ci] = true;
                } else if op < 0.55 {
                    let request = RequestId::from_index(seq as usize);
                    let reissue = Event::ReissueTimer {
                        request,
                        stage: 1,
                        partition: 2,
                    };
                    let (at, event) = match (rng.gen::<f64>() * 5.0) as u32 {
                        0 => (at, Event::RequestArrival),
                        1 => (at, Event::MonitorTick),
                        2 => (
                            now + CANCEL_DELAY,
                            Event::CancelArrival {
                                component: ComponentId::from_index(ci),
                                request,
                                stage: 1,
                                partition: 2,
                            },
                        ),
                        3 => (now + REISSUE_DELAY, reissue),
                        _ => (at, reissue),
                    };
                    q.schedule(SimTime::from_micros(at), event);
                    reference.push((at, seq, event));
                    seq += 1;
                } else if op < 0.70 {
                    // Cancel the slot store's current minimum, if any.
                    if let Some(i) = next_index(&reference, true) {
                        let (_, _, Event::ServiceCompletion { component, .. }) =
                            reference.remove(i)
                        else {
                            unreachable!("slots hold completions only");
                        };
                        q.cancel_completion(component);
                        pending[component.index()] = false;
                    }
                } else if op < 0.78 {
                    // Cancel an arbitrary component, pending or not.
                    q.cancel_completion(ComponentId::from_index(ci));
                    reference.retain(|(_, _, e)| {
                        !matches!(e, Event::ServiceCompletion { component, .. }
                            if component.index() == ci)
                    });
                    pending[ci] = false;
                } else {
                    let expected = next_index(&reference, false).map(|i| reference.remove(i));
                    let got = q.pop();
                    match expected {
                        None => assert!(got.is_none(), "width {m}, step {step}: queue not empty"),
                        Some((t, _, event)) => {
                            assert_eq!(
                                got,
                                Some((SimTime::from_micros(t), event)),
                                "width {m}, step {step}"
                            );
                            if let Event::ServiceCompletion { component, .. } = event {
                                pending[component.index()] = false;
                            }
                            now = t;
                            assert_eq!(q.now(), SimTime::from_micros(t));
                        }
                    }
                }
                assert_eq!(q.len(), reference.len(), "width {m}, step {step}: len");
                assert_eq!(q.is_empty(), reference.is_empty(), "width {m}, step {step}");
            }
            // Drain and compare the tail.
            while let Some(i) = next_index(&reference, false) {
                let (t, _, event) = reference.remove(i);
                assert_eq!(
                    q.pop(),
                    Some((SimTime::from_micros(t), event)),
                    "width {m}: tail"
                );
                assert_eq!(q.len(), reference.len(), "width {m}: tail len");
            }
            assert!(q.is_empty(), "width {m}: queue fully drained");
            assert!(q.pop().is_none(), "width {m}: queue fully drained");
        }
    }
}
