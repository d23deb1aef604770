//! The wake table at the heart of the event-driven engine.
//!
//! Every timed component of the [`System`](crate::System) — cores, L1
//! controllers, the two NoC directions, L2 banks, bank inboxes, L2 delay
//! pipes, DRAM channels — owns one slot in this table holding the exact
//! next cycle at which that component must run. The engine takes the
//! earliest armed cycle, jumps straight to it, and executes only the
//! components that are due; everything else costs nothing, even in the
//! middle of a busy phase.
//!
//! # Determinism
//!
//! The queue decides *when* the next cycle is, never *in what order*
//! components run within it: the engine always executes a cycle in one
//! fixed phase order (and fixed component order within a phase). Two
//! runs that arm the same wakes therefore execute bit-identically. A
//! stepped run is the same loop with every component due every cycle,
//! and a skipping run is bit-identical to it because every skipped cycle
//! is proven action-free by the components' own exact `next_event`
//! contracts.
//!
//! # The armed array is the queue
//!
//! There is one slot per component (a few dozen on the largest machine)
//! and a re-arm simply overwrites it, so no index over the slots is
//! kept: [`EventQueue::next_wake`] is a linear minimum over the array.
//! A scan of a few dozen contiguous words costs less than the heap it
//! replaces, whose stale hints outnumbered live slots ten to one.

/// A component's slot value meaning "no spontaneous wake scheduled".
const DISARMED: u64 = u64::MAX;

/// Histogram resolution for queue-depth telemetry (depths clamp into
/// the last bucket).
const DEPTH_BUCKETS: usize = 256;

/// Deterministic table of per-component wake cycles.
#[derive(Debug)]
pub struct EventQueue {
    /// Exact next wake cycle per component (`u64::MAX` = disarmed).
    armed: Vec<u64>,
    /// Slots currently armed (the queue depth).
    depth: u64,
    /// Wake events posted (arm calls that changed a slot).
    posted: u64,
    /// Armed wakes replaced or disarmed before they fired.
    cancelled: u64,
    /// Peak queue depth observed.
    depth_max: u64,
    /// Queue depth sampled at every post, for the p50 estimate.
    depth_hist: [u64; DEPTH_BUCKETS],
}

impl EventQueue {
    /// Creates a queue for `components` slots, all disarmed.
    pub fn new(components: usize) -> Self {
        EventQueue {
            armed: vec![DISARMED; components],
            depth: 0,
            posted: 0,
            cancelled: 0,
            depth_max: 0,
            depth_hist: [0; DEPTH_BUCKETS],
        }
    }

    /// Disarms every slot (telemetry is kept, and nothing is counted as
    /// cancelled). Used when the engine re-derives all wakes from
    /// component state.
    pub fn reset(&mut self) {
        self.armed.fill(DISARMED);
        self.depth = 0;
    }

    /// Sets component `comp`'s wake to exactly `cycle`, replacing any
    /// previous wake. Use when `cycle` is derived from the component's
    /// full state (a `next_event` hint), which supersedes older arms.
    #[inline]
    pub fn arm_at(&mut self, comp: usize, cycle: u64) {
        if self.armed[comp] != cycle {
            self.set(comp, cycle);
        }
    }

    /// Moves component `comp`'s wake earlier to `cycle` if it is not
    /// already armed at or before it. Use for *touch* arms — an input
    /// arriving at a component — which add a wake cause without full
    /// knowledge of the component's other pending wakes.
    #[inline]
    pub fn arm_min(&mut self, comp: usize, cycle: u64) {
        if cycle < self.armed[comp] {
            self.set(comp, cycle);
        }
    }

    /// Clears component `comp`'s wake without firing it (a component
    /// gone idle, or paused by a rollover).
    #[inline]
    pub fn disarm(&mut self, comp: usize) {
        if self.armed[comp] != DISARMED {
            self.set(comp, DISARMED);
        }
    }

    /// Fires component `comp`'s wake if it is due at (or overdue by)
    /// `now`: clears the slot and returns true. The engine calls this
    /// when it consumes a wake, then re-arms from fresh state.
    #[inline]
    pub fn take_due(&mut self, comp: usize, now: u64) -> bool {
        let due = self.armed[comp] <= now;
        if due {
            self.armed[comp] = DISARMED;
            self.depth -= 1;
        }
        due
    }

    /// The earliest armed wake cycle across all components. `None`
    /// means every component is disarmed (the machine is quiescent).
    pub fn next_wake(&self) -> Option<u64> {
        // Four independent running minima: the scan runs once per
        // executed cycle, and one serial chain of compares would be its
        // critical path.
        let mut lanes = [DISARMED; 4];
        let chunks = self.armed.chunks_exact(4);
        for &c in chunks.remainder() {
            lanes[0] = lanes[0].min(c);
        }
        for chunk in chunks {
            for (lane, &c) in lanes.iter_mut().zip(chunk) {
                *lane = (*lane).min(c);
            }
        }
        let min = lanes[0].min(lanes[1]).min(lanes[2].min(lanes[3]));
        (min != DISARMED).then_some(min)
    }

    /// Overwrites slot `comp` (which differs from `cycle`), keeping the
    /// telemetry: replacing an armed wake cancels it, and arming posts.
    #[inline]
    fn set(&mut self, comp: usize, cycle: u64) {
        if self.armed[comp] == DISARMED {
            self.depth += 1;
        } else {
            self.cancelled += 1;
        }
        self.armed[comp] = cycle;
        if cycle == DISARMED {
            self.depth -= 1;
            return;
        }
        self.posted += 1;
        self.depth_max = self.depth_max.max(self.depth);
        self.depth_hist[(self.depth as usize).min(DEPTH_BUCKETS - 1)] += 1;
    }

    /// Wake events posted so far.
    pub fn posted(&self) -> u64 {
        self.posted
    }

    /// Armed wakes replaced or disarmed before they fired.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Peak queue depth (armed slots) observed.
    pub fn depth_max(&self) -> u64 {
        self.depth_max
    }

    /// Median queue depth over all posts (clamped to the histogram
    /// range; 0 if nothing was posted).
    pub fn depth_p50(&self) -> u64 {
        let total: u64 = self.depth_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let mut seen = 0;
        for (depth, count) in self.depth_hist.iter().enumerate() {
            seen += count;
            if seen * 2 >= total {
                return depth as u64;
            }
        }
        (DEPTH_BUCKETS - 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_and_pop_in_cycle_order() {
        let mut q = EventQueue::new(4);
        q.arm_at(2, 30);
        q.arm_at(0, 10);
        q.arm_at(1, 20);
        assert_eq!(q.next_wake(), Some(10));
        assert!(q.take_due(0, 10));
        assert!(!q.take_due(1, 10));
        assert_eq!(q.next_wake(), Some(20));
    }

    #[test]
    fn only_superseded_arms_count_as_cancelled() {
        let mut q = EventQueue::new(2);
        q.arm_at(0, 50);
        q.arm_at(0, 10); // earlier: the 50 arm is superseded
        assert_eq!(q.next_wake(), Some(10));
        q.arm_at(0, 70); // later: the 10 arm is superseded too
        assert_eq!(q.next_wake(), Some(70));
        assert_eq!(q.cancelled(), 2);
        assert!(q.take_due(0, 70)); // fired, not cancelled
        q.arm_at(1, 5);
        q.disarm(1); // disarmed before firing
        assert_eq!((q.posted(), q.cancelled()), (4, 3));
    }

    #[test]
    fn arm_min_only_moves_earlier() {
        let mut q = EventQueue::new(1);
        q.arm_at(0, 40);
        q.arm_min(0, 60); // ignored: already earlier
        assert_eq!(q.next_wake(), Some(40));
        q.arm_min(0, 15);
        assert_eq!(q.next_wake(), Some(15));
    }

    #[test]
    fn disarmed_queue_reports_quiescent() {
        let mut q = EventQueue::new(3);
        assert_eq!(q.next_wake(), None);
        q.arm_at(1, 5);
        q.disarm(1);
        assert_eq!(q.next_wake(), None);
        q.disarm(1); // already disarmed: nothing to cancel
        assert_eq!(q.cancelled(), 1);
    }

    #[test]
    fn duplicate_arm_is_free() {
        let mut q = EventQueue::new(1);
        q.arm_at(0, 9);
        let posted = q.posted();
        q.arm_at(0, 9);
        assert_eq!(q.posted(), posted);
    }

    #[test]
    fn depth_counts_armed_slots() {
        let mut q = EventQueue::new(8);
        for c in 0..8 {
            q.arm_at(c, 100 + c as u64);
        }
        assert_eq!(q.depth_max(), 8);
        assert!(q.depth_p50() >= 1);
        assert_eq!(q.posted(), 8);
        for c in 0..8 {
            q.arm_at(c, 200 + c as u64); // re-arms do not deepen
        }
        assert_eq!(q.depth_max(), 8);
        q.reset();
        q.arm_at(3, 1);
        assert!(q.take_due(3, 1));
        assert_eq!(q.next_wake(), None);
    }
}
