//! The SM core: warp contexts, loose round-robin issue, consistency
//! enforcement, and synchronization micro-sequences.

use crate::op::{MemOp, WarpProgram};
use crate::stats::{CoreStats, PrevOpKind};
use rcc_common::addr::WordAddr;
use rcc_common::ids::{CoreId, WarpId};
use rcc_common::time::Cycle;
use rcc_core::msg::{Access, AccessKind, AccessOutcome, AtomicOp, Completion, CompletionKind};
use std::collections::VecDeque;

/// How FENCE instructions retire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FencePolicy {
    /// SC configurations: the hardware already orders everything; fences
    /// are no-ops left in for the compiler's benefit (Section IV-B).
    Free,
    /// Drain the warp's outstanding accesses (RCC-WO; the simulator also
    /// joins the core's read/write views on retire).
    Drain,
    /// Drain and additionally wait until the warp's accumulated global
    /// write completion time has passed (TC-Weak).
    DrainGwct,
}

/// Warp scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Loose round-robin (Table III's configuration): rotate a pointer
    /// over the warps, issuing from the first ready one.
    #[default]
    LooseRoundRobin,
    /// Greedy-then-oldest: keep issuing from the same warp until it
    /// stalls, then fall back to the lowest-numbered ready warp. Favours
    /// intra-warp locality over fairness.
    GreedyThenOldest,
}

/// Core configuration.
#[derive(Debug, Clone)]
pub struct CoreParams {
    /// Warp scheduling policy.
    pub scheduler: SchedPolicy,
    /// Warp contexts (48 in Table III).
    pub warps_per_core: usize,
    /// Warps per workgroup (for intra-workgroup barriers).
    pub warps_per_workgroup: usize,
    /// Whether warps may overlap their global accesses.
    pub weak_ordering: bool,
    /// Fence retirement rule.
    pub fence_policy: FencePolicy,
    /// Outstanding-access limit per warp under weak ordering.
    pub max_outstanding: usize,
    /// Cycles between barrier poll attempts.
    pub poll_interval: u64,
    /// Base backoff after a failed lock attempt.
    pub lock_backoff: u64,
}

impl CoreParams {
    /// Sequentially consistent core: one outstanding global access per
    /// warp (the naïve-SC rule).
    pub fn sequential(warps_per_core: usize, warps_per_workgroup: usize) -> Self {
        CoreParams {
            scheduler: SchedPolicy::default(),
            warps_per_core,
            warps_per_workgroup,
            weak_ordering: false,
            fence_policy: FencePolicy::Free,
            max_outstanding: 1,
            poll_interval: 100,
            lock_backoff: 40,
        }
    }

    /// Weakly ordered core with the given fence policy.
    pub fn weakly_ordered(
        warps_per_core: usize,
        warps_per_workgroup: usize,
        fence_policy: FencePolicy,
    ) -> Self {
        CoreParams {
            weak_ordering: true,
            fence_policy,
            max_outstanding: 8,
            ..CoreParams::sequential(warps_per_core, warps_per_workgroup)
        }
    }
}

/// Classification of an outstanding access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Load,
    Store,
    Atomic,
}

impl OpClass {
    fn prev_kind(self) -> PrevOpKind {
        match self {
            OpClass::Load => PrevOpKind::Load,
            OpClass::Store => PrevOpKind::Store,
            OpClass::Atomic => PrevOpKind::Atomic,
        }
    }
}

/// Why an access was issued (what to do with its completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    Plain,
    LockAttempt,
    Unlock,
    BarrierArrive { members: u64 },
    BarrierPoll { members: u64 },
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    addr: WordAddr,
    class: OpClass,
    purpose: Purpose,
    issued: Cycle,
}

/// Synchronization micro-state within the current program op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Micro {
    /// Execute the op at `pc` from scratch.
    Fresh,
    /// Waiting for a lock CAS / unlock / barrier atomic to complete.
    SyncWait,
    /// Backing off before retrying a lock CAS.
    LockBackoff { until: u64 },
    /// Backing off before the next barrier poll.
    BarrierBackoff { until: u64 },
}

struct Warp {
    program: Vec<MemOp>,
    pc: usize,
    /// `program[pc]`, kept beside the hot per-warp fields so the
    /// per-cycle scans never touch the program itself. Derived state:
    /// updated by [`Warp::advance`], the only way `pc` moves.
    op: Option<MemOp>,
    wg_index: usize,
    micro: Micro,
    busy_until: u64,
    at_fence: bool,
    waiting_local: Option<u64>,
    outstanding: VecDeque<Outstanding>,
    /// SC-stall cycles accumulated by the op waiting at `pc`.
    wait_for_issue: u64,
    max_gwct: u64,
    barriers_passed: u64,
    done: bool,
}

impl Warp {
    fn current_op(&self) -> Option<MemOp> {
        self.op
    }

    /// Moves to the next program op.
    fn advance(&mut self) {
        self.pc += 1;
        self.op = self.program.get(self.pc).copied();
    }
}

/// Lists the fields a derived `Debug` would, minus the cached op, so
/// state digests cover exactly the architectural state.
impl std::fmt::Debug for Warp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warp")
            .field("program", &self.program)
            .field("pc", &self.pc)
            .field("wg_index", &self.wg_index)
            .field("micro", &self.micro)
            .field("busy_until", &self.busy_until)
            .field("at_fence", &self.at_fence)
            .field("waiting_local", &self.waiting_local)
            .field("outstanding", &self.outstanding)
            .field("wait_for_issue", &self.wait_for_issue)
            .field("max_gwct", &self.max_gwct)
            .field("barriers_passed", &self.barriers_passed)
            .field("done", &self.done)
            .finish()
    }
}

/// Forensic view of one non-retired warp (see [`Core::blocked_warps`]):
/// enough context for a hang-dump to say what the warp is stuck on.
#[derive(Debug, Clone)]
pub struct WarpState {
    /// Warp index within the core.
    pub warp: usize,
    /// Program counter — the index of the op the warp is stuck on.
    pub pc: usize,
    /// Synchronization micro-state (`Fresh`, `SyncWait`, ...).
    pub micro: String,
    /// Whether the warp is waiting at a fence.
    pub at_fence: bool,
    /// Pending `LocalWait` epoch, if any.
    pub waiting_local: Option<u64>,
    /// The op at `pc`, if the program has not run out.
    pub stalled_op: Option<String>,
    /// The warp's in-flight global accesses.
    pub outstanding: Vec<OutstandingAccess>,
}

/// One in-flight access of a blocked warp.
#[derive(Debug, Clone)]
pub struct OutstandingAccess {
    /// Word address of the access.
    pub addr: u64,
    /// Access class (`Load`/`Store`/`Atomic`).
    pub class: String,
    /// Cycle the access was issued.
    pub issued: u64,
}

/// What a core produced in one cycle.
#[derive(Debug, Default)]
pub struct CoreOutput {
    /// Warps whose FENCE retired this cycle (the simulator calls the
    /// L1's `fence()` hook for these).
    pub fences_retired: Vec<WarpId>,
    /// The program op this cycle issued *for the first time*, if any:
    /// `(warp index, pc)`. Non-memory ops report here the cycle they
    /// execute; memory ops the cycle their first access is accepted
    /// (lock-CAS retries and barrier re-polls of the same op do not
    /// report). Ephemeral per-tick data for the trace recorder — not
    /// architectural state, so passivity is preserved by construction.
    pub issued_op: Option<(usize, usize)>,
}

/// One streaming multiprocessor.
pub struct Core {
    id: CoreId,
    params: CoreParams,
    warps: Vec<Warp>,
    /// Barrier epochs passed per workgroup (for `LocalWait`).
    wg_epochs: Vec<u64>,
    sched_ptr: usize,
    stats: CoreStats,
    retired_warps: usize,
    /// Per-tick scratch: whether each warp has a memory access that
    /// ordering lets it issue, as [`Core::tick`]'s bookkeeping phase
    /// found. Not state — rewritten before every read.
    issuable: Vec<bool>,
}

/// Lists the fields a derived `Debug` would, minus the per-tick scratch,
/// so state digests cover exactly the architectural state.
impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("params", &self.params)
            .field("warps", &self.warps)
            .field("wg_epochs", &self.wg_epochs)
            .field("sched_ptr", &self.sched_ptr)
            .field("stats", &self.stats)
            .field("retired_warps", &self.retired_warps)
            .finish()
    }
}

impl Core {
    /// Creates a core running the given per-warp programs (padded with
    /// empty programs up to `params.warps_per_core`).
    ///
    /// # Panics
    ///
    /// Panics if more programs than warp contexts are supplied.
    pub fn new(id: CoreId, params: CoreParams, programs: Vec<WarpProgram>) -> Self {
        assert!(
            programs.len() <= params.warps_per_core,
            "{} programs for {} warp contexts",
            programs.len(),
            params.warps_per_core
        );
        let wpw = params.warps_per_workgroup.max(1);
        let num_wgs = params.warps_per_core.div_ceil(wpw);
        let warps: Vec<Warp> = (0..params.warps_per_core)
            .map(|i| {
                let program = programs.get(i).map(|p| p.ops.clone()).unwrap_or_default();
                let done = program.is_empty();
                Warp {
                    op: program.first().copied(),
                    program,
                    pc: 0,
                    wg_index: i / wpw,
                    micro: Micro::Fresh,
                    busy_until: 0,
                    at_fence: false,
                    waiting_local: None,
                    outstanding: VecDeque::new(),
                    wait_for_issue: 0,
                    max_gwct: 0,
                    barriers_passed: 0,
                    done,
                }
            })
            .collect();
        let retired = warps.iter().filter(|w| w.done).count();
        let num_warps = warps.len();
        Core {
            id,
            params,
            warps,
            wg_epochs: vec![0; num_wgs],
            sched_ptr: 0,
            stats: CoreStats::default(),
            retired_warps: retired,
            issuable: vec![false; num_warps],
        }
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Whether every warp has retired its program.
    pub fn done(&self) -> bool {
        self.retired_warps == self.warps.len()
    }

    /// Outstanding global accesses across all warps.
    pub fn outstanding(&self) -> usize {
        self.warps.iter().map(|w| w.outstanding.len()).sum()
    }

    /// Warps that have not yet retired their program — the occupancy
    /// figure the time-series sampler records per SM.
    pub fn active_warps(&self) -> usize {
        self.warps.len() - self.retired_warps
    }

    /// Statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Folds this core's full architectural state — every warp context
    /// (pc, micro-state, timers, in-flight accesses), the scheduler
    /// pointer, workgroup epochs, and statistics — into a
    /// cross-component state digest.
    pub fn digest_state(&self, d: &mut rcc_common::snap::StateDigest) {
        d.write_debug(self);
    }

    /// Forensic snapshot of every non-retired warp: what it is stuck on
    /// and which accesses it still has in flight. The watchdog's
    /// hang-dump names blocked warps through this.
    pub fn blocked_warps(&self) -> Vec<WarpState> {
        self.warps
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.done)
            .map(|(i, w)| WarpState {
                warp: i,
                pc: w.pc,
                micro: format!("{:?}", w.micro),
                at_fence: w.at_fence,
                waiting_local: w.waiting_local,
                stalled_op: w.current_op().map(|op| format!("{op:?}")),
                outstanding: w
                    .outstanding
                    .iter()
                    .map(|o| OutstandingAccess {
                        addr: o.addr.0,
                        class: format!("{:?}", o.class),
                        issued: o.issued.raw(),
                    })
                    .collect(),
            })
            .collect()
    }

    /// Whether ordering rules allow `warp` to issue a new access to
    /// `addr`.
    fn ordering_allows(&self, warp: &Warp, addr: WordAddr, op_is_sync: bool) -> bool {
        if self.params.weak_ordering {
            // Synchronization atomics need their value to make progress,
            // so they drain the warp first (acquire semantics); plain
            // accesses respect the outstanding limit and — as in any real
            // core — same-address program order within the thread.
            if op_is_sync {
                warp.outstanding.is_empty()
            } else {
                warp.outstanding.len() < self.params.max_outstanding
                    && warp.outstanding.iter().all(|o| o.addr != addr)
            }
        } else {
            // Naïve SC: one outstanding global access per warp.
            warp.outstanding.is_empty()
        }
    }

    /// What the warp would issue right now, if anything.
    fn issue_intent(&self, warp: &Warp, now: u64) -> Option<(AccessKind, WordAddr, Purpose, bool)> {
        if warp.done || warp.busy_until > now || warp.at_fence || warp.waiting_local.is_some() {
            return None;
        }
        match warp.micro {
            Micro::SyncWait => None,
            Micro::LockBackoff { until } if until > now => None,
            Micro::BarrierBackoff { until } if until > now => None,
            Micro::LockBackoff { .. } => {
                let MemOp::Lock(w) = warp.current_op().expect("in lock") else {
                    unreachable!("backoff outside Lock");
                };
                Some((
                    AccessKind::Atomic {
                        op: AtomicOp::Cas { expect: 0, new: 1 },
                    },
                    w,
                    Purpose::LockAttempt,
                    true,
                ))
            }
            Micro::BarrierBackoff { .. } => {
                let MemOp::Barrier { word, members } = warp.current_op().expect("in barrier")
                else {
                    unreachable!("backoff outside Barrier");
                };
                Some((
                    AccessKind::Atomic { op: AtomicOp::Read },
                    word,
                    Purpose::BarrierPoll { members },
                    true,
                ))
            }
            Micro::Fresh => match warp.current_op()? {
                MemOp::Load(w) => Some((AccessKind::Load, w, Purpose::Plain, false)),
                MemOp::Store(w, v) => {
                    Some((AccessKind::Store { value: v }, w, Purpose::Plain, false))
                }
                MemOp::Atomic(w, op) => Some((AccessKind::Atomic { op }, w, Purpose::Plain, true)),
                MemOp::Lock(w) => Some((
                    AccessKind::Atomic {
                        op: AtomicOp::Cas { expect: 0, new: 1 },
                    },
                    w,
                    Purpose::LockAttempt,
                    true,
                )),
                MemOp::Unlock(w) => Some((
                    AccessKind::Atomic {
                        op: AtomicOp::Exch(0),
                    },
                    w,
                    Purpose::Unlock,
                    true,
                )),
                MemOp::Barrier { word, members } => Some((
                    AccessKind::Atomic {
                        op: AtomicOp::Add(1),
                    },
                    word,
                    Purpose::BarrierArrive { members },
                    true,
                )),
                MemOp::Compute(_) | MemOp::Fence | MemOp::LocalWait { .. } => None,
                // The gate is not a memory access; `tick` advances past
                // it once its cycle has come, and `next_event` /
                // `stall_horizon` treat a pending gate as a timer.
                MemOp::WaitUntil(_) => None,
            },
        }
    }

    /// The earliest future cycle at which this core would do anything —
    /// issue, retire, or advance micro-state — assuming no completion
    /// arrives first. `None` means every live warp is blocked on memory
    /// (or on another core's barrier progress) and only an external
    /// event can wake it.
    ///
    /// Pure *counter* activity (SC/fence stall accounting) is not an
    /// event: it is replicated exactly by [`Core::fast_forward`], which
    /// the simulator must call over any cycles it skips.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.done() {
            return None;
        }
        let nowr = now.raw();
        let floor = nowr + 1;
        let mut best: u64 = u64::MAX;
        for warp in &self.warps {
            if best == floor {
                break; // already at the earliest possible answer
            }
            if warp.done {
                continue;
            }
            if let Some(need) = warp.waiting_local {
                // Released the cycle after the workgroup epoch advances;
                // epochs only advance on barrier completions (external).
                if self.wg_epochs[warp.wg_index] >= need {
                    best = floor;
                }
                continue;
            }
            if warp.at_fence {
                if warp.outstanding.is_empty() {
                    if self.params.fence_policy == FencePolicy::DrainGwct && nowr <= warp.max_gwct {
                        best = best.min(warp.max_gwct + 1);
                    } else {
                        best = floor;
                    }
                }
                // Not drained: a completion must arrive first.
                continue;
            }
            if warp.current_op().is_none() {
                // Retirement is checked every cycle regardless of timers.
                if warp.outstanding.is_empty() && warp.micro == Micro::Fresh {
                    best = floor;
                }
                continue;
            }
            // An op is waiting; find when its timers next allow a visit.
            let mut wake = floor;
            let mut timer_pending = false;
            if warp.busy_until > nowr {
                wake = wake.max(warp.busy_until);
                timer_pending = true;
            }
            match warp.micro {
                Micro::SyncWait => continue, // woken by its completion
                Micro::LockBackoff { until } | Micro::BarrierBackoff { until } if until > nowr => {
                    wake = wake.max(until);
                    timer_pending = true;
                }
                _ => {}
            }
            // A pending replay gate is a timer: the warp does nothing
            // until its cycle, then advances pc (an event).
            if let Some(MemOp::WaitUntil(t)) = warp.current_op() {
                if t > nowr {
                    wake = wake.max(t);
                    timer_pending = true;
                }
            }
            if wake > floor {
                // A timer expires mid-idle: stepping resumes there (the
                // warp either issues or starts accruing ordering stalls).
                best = best.min(wake);
                continue;
            }
            match warp.current_op() {
                Some(
                    MemOp::Compute(_)
                    | MemOp::Fence
                    | MemOp::LocalWait { .. }
                    | MemOp::WaitUntil(_),
                ) => best = floor,
                _ => {
                    if let Some((_, addr, _, is_sync)) = self.issue_intent(warp, wake) {
                        if timer_pending || self.ordering_allows(warp, addr, is_sync) {
                            // A timer expiring right at the window floor is
                            // an event even if ordering then stalls the
                            // warp: its stall accrual *starts* there, and
                            // `fast_forward` (which evaluates intent at
                            // `now`, where the timer is still live) would
                            // miss those cycles.
                            best = floor;
                        }
                        // Ordering-stalled with no timer: only counters
                        // advance, and `fast_forward` replicates those.
                    }
                }
            }
        }
        (best != u64::MAX).then_some(Cycle(best))
    }

    /// Accounts for `cycles` consecutive skipped cycles during which the
    /// simulator proved (via [`Core::next_event`]) that this core takes
    /// no action: replays the per-cycle stall counters [`Core::tick`]'s
    /// bookkeeping phase would have accumulated, so metrics are
    /// bit-identical with and without fast-forwarding.
    pub fn fast_forward(&mut self, now: Cycle, cycles: u64) {
        if cycles == 0 || self.done() {
            return;
        }
        let nowr = now.raw();
        for i in 0..self.warps.len() {
            let warp = &self.warps[i];
            if warp.done || warp.waiting_local.is_some() {
                continue;
            }
            if warp.at_fence {
                // The fence cannot retire inside the window (that would
                // have been an event), so every skipped cycle stalls.
                self.stats.fence_stall_cycles += cycles;
                continue;
            }
            // Timer comparisons are stable across the window: any timer
            // expiring inside it would have bounded the skip.
            if let Some((_, addr, _, is_sync)) = self.issue_intent(warp, nowr) {
                if !self.ordering_allows(warp, addr, is_sync) {
                    let prev = warp
                        .outstanding
                        .back()
                        .expect("ordering blocks only with outstanding ops")
                        .class
                        .prev_kind();
                    self.stats.record_sc_stall_cycles(prev, cycles);
                    self.warps[i].wait_for_issue += cycles;
                }
            }
        }
    }

    /// The earliest future cycle at which this core could act
    /// *differently* from the structural-reject retry it just executed,
    /// assuming no external input (completion, response, workgroup-epoch
    /// advance) arrives first. `None` means only external input can
    /// break the spin.
    ///
    /// Only meaningful immediately after a [`Core::tick`] whose issue
    /// attempt the L1 rejected. In that state the scheduler's choice is
    /// a fixed point: the rejected warp was the first eligible warp in
    /// the policy order and the pointer did not advance, so with the
    /// core and L1 state unchanged every subsequent cycle re-presents
    /// the same access and is rejected again. The fixed point holds
    /// until a timer reported here expires (another warp becomes
    /// eligible and can preempt, a GWCT fence retires) or external
    /// input changes core or L1 state — so, unlike [`Core::next_event`],
    /// warps that are merely *ready to issue* contribute no wake: ready
    /// warps sit behind the spinning warp in the visit order (an
    /// eligible warp ahead of it would have been chosen instead) and
    /// are never reached while the spin repeats.
    ///
    /// The skipped retries are not free: the simulator replays their
    /// bookkeeping via [`Core::fast_forward`] (other warps' stall
    /// counters), [`Core::replay_structural_stalls`], and the L1's
    /// matching reject-replay hook.
    pub fn stall_horizon(&self, now: Cycle) -> Option<Cycle> {
        if self.done() {
            return None;
        }
        let nowr = now.raw();
        let floor = nowr + 1;
        let mut best: u64 = u64::MAX;
        for warp in &self.warps {
            if best == floor {
                break; // already at the earliest possible answer
            }
            if warp.done {
                continue;
            }
            if let Some(need) = warp.waiting_local {
                if self.wg_epochs[warp.wg_index] >= need {
                    // Releases in the next bookkeeping phase (should not
                    // survive a tick, but stay conservative).
                    best = floor;
                }
                continue;
            }
            if warp.at_fence {
                if warp.outstanding.is_empty() {
                    if self.params.fence_policy == FencePolicy::DrainGwct && nowr <= warp.max_gwct {
                        // Retirement re-enables the warp: it can then
                        // preempt the spinning warp.
                        best = best.min(warp.max_gwct + 1);
                    } else {
                        best = floor;
                    }
                }
                continue;
            }
            if warp.current_op().is_none() {
                if warp.outstanding.is_empty() && warp.micro == Micro::Fresh {
                    best = floor; // retirement next bookkeeping phase
                }
                continue;
            }
            let mut wake = floor;
            let mut timer_pending = false;
            if warp.busy_until > nowr {
                wake = wake.max(warp.busy_until);
                timer_pending = true;
            }
            match warp.micro {
                Micro::SyncWait => continue, // woken by its completion
                Micro::LockBackoff { until } | Micro::BarrierBackoff { until } if until > nowr => {
                    wake = wake.max(until);
                    timer_pending = true;
                }
                _ => {}
            }
            // A pending replay gate is a timer: at its cycle the warp
            // becomes eligible and can preempt the spinning warp.
            if let Some(MemOp::WaitUntil(t)) = warp.current_op() {
                if t > nowr {
                    wake = wake.max(t);
                    timer_pending = true;
                }
            }
            if wake > floor {
                // A timer re-enables this warp mid-spin: the scheduler
                // could then pick it over the spinning warp.
                best = best.min(wake);
                continue;
            }
            if timer_pending {
                // Expires right at the window floor.
                best = floor;
            }
            // Ready or ordering-stalled warps with no live timer are
            // inert: the spin repeats ahead of them in the visit order,
            // and their stall counters are replayed by `fast_forward`.
        }
        (best != u64::MAX).then_some(Cycle(best))
    }

    /// Accounts for `cycles` skipped retry cycles during which the
    /// simulator proved (via [`Core::stall_horizon`]) that every tick
    /// would re-present the same access and be structurally rejected:
    /// replays the one counter each such [`Core::tick`] would have
    /// bumped. The L1's reject counter is replayed by its own hook.
    pub fn replay_structural_stalls(&mut self, cycles: u64) {
        self.stats.structural_stall_cycles += cycles;
    }

    /// Advances non-issuing warp state (fences, local waits, retirement)
    /// and counts ordering stalls, then issues at most one instruction
    /// via `try_access`.
    pub fn tick<F>(&mut self, cycle: Cycle, mut try_access: F) -> CoreOutput
    where
        F: FnMut(Access) -> AccessOutcome,
    {
        let now = cycle.raw();
        let mut out = CoreOutput::default();

        // Phase 1: bookkeeping for every warp.
        for i in 0..self.warps.len() {
            let fence_policy = self.params.fence_policy;
            let epoch = self.wg_epochs[self.warps[i].wg_index];
            let warp = &mut self.warps[i];
            self.issuable[i] = false;
            if warp.done {
                continue;
            }
            // Local (intra-workgroup) barrier release.
            if let Some(need) = warp.waiting_local {
                if epoch >= need {
                    warp.waiting_local = None;
                    warp.advance();
                }
            }
            // Fence retirement.
            if warp.at_fence {
                let drained = warp.outstanding.is_empty();
                let gwct_ok = fence_policy != FencePolicy::DrainGwct || now > warp.max_gwct;
                if drained && gwct_ok {
                    warp.at_fence = false;
                    warp.advance();
                    out.fences_retired.push(WarpId(i));
                } else {
                    self.stats.fence_stall_cycles += 1;
                }
            }
            // Program retirement.
            let warp = &mut self.warps[i];
            if !warp.done
                && warp.pc >= warp.program.len()
                && warp.outstanding.is_empty()
                && warp.micro == Micro::Fresh
            {
                warp.done = true;
                self.retired_warps += 1;
            }
            // SC stall accounting: the warp has an access it would issue
            // this cycle but ordering forbids it. The verdict stands for
            // phase 2: until an issue ends the tick, nothing changes a
            // warp's intent or ordering state.
            let warp = &self.warps[i];
            if let Some((_, addr, _, is_sync)) = self.issue_intent(warp, now) {
                let allowed = self.ordering_allows(warp, addr, is_sync);
                self.issuable[i] = allowed;
                if !allowed {
                    let prev = warp
                        .outstanding
                        .back()
                        .expect("ordering blocks only with outstanding ops")
                        .class
                        .prev_kind();
                    self.stats.record_sc_stall_cycle(prev);
                    self.warps[i].wait_for_issue += 1;
                }
            }
        }

        // Phase 2: scheduling — issue at most one instruction, visiting
        // warps in the policy's preference order.
        let n = self.warps.len();
        // Greedy-then-oldest visits the last issuer first, then the
        // others oldest (lowest id) first.
        let last = self.sched_ptr.checked_sub(1).map_or(n - 1, |x| x);
        for k in 0..n {
            let i = match self.params.scheduler {
                SchedPolicy::LooseRoundRobin => (self.sched_ptr + k) % n,
                SchedPolicy::GreedyThenOldest if k == 0 => last,
                SchedPolicy::GreedyThenOldest if k <= last => k - 1,
                SchedPolicy::GreedyThenOldest => k,
            };
            let now_op = {
                let warp = &self.warps[i];
                if warp.done || warp.busy_until > now || warp.at_fence {
                    continue;
                }
                warp.current_op()
            };
            // Compute / fence / local-wait / gate "issue" (no memory
            // access).
            match now_op {
                Some(MemOp::Compute(c)) if self.warps[i].micro == Micro::Fresh => {
                    let warp = &mut self.warps[i];
                    out.issued_op = Some((i, warp.pc));
                    warp.busy_until = now + c.max(1) as u64;
                    warp.advance();
                    self.stats.issued += 1;
                    self.sched_ptr = (i + 1) % n;
                    return out;
                }
                Some(MemOp::Fence) if self.warps[i].micro == Micro::Fresh => {
                    let warp = &mut self.warps[i];
                    out.issued_op = Some((i, warp.pc));
                    self.stats.issued += 1;
                    if self.params.fence_policy == FencePolicy::Free {
                        warp.advance();
                    } else {
                        warp.at_fence = true;
                    }
                    self.sched_ptr = (i + 1) % n;
                    return out;
                }
                Some(MemOp::LocalWait { epoch })
                    if self.warps[i].micro == Micro::Fresh
                        && self.warps[i].waiting_local.is_none() =>
                {
                    let wg = self.warps[i].wg_index;
                    let warp = &mut self.warps[i];
                    out.issued_op = Some((i, warp.pc));
                    self.stats.issued += 1;
                    if self.wg_epochs[wg] >= epoch {
                        warp.advance();
                    } else {
                        warp.waiting_local = Some(epoch);
                    }
                    self.sched_ptr = (i + 1) % n;
                    return out;
                }
                Some(MemOp::WaitUntil(t)) if self.warps[i].micro == Micro::Fresh && now >= t => {
                    // The gate has passed: retire it. (Before `t` the
                    // warp simply has no intent and accrues no stalls —
                    // it is idle, not stalled.)
                    let warp = &mut self.warps[i];
                    out.issued_op = Some((i, warp.pc));
                    warp.advance();
                    self.stats.issued += 1;
                    self.sched_ptr = (i + 1) % n;
                    return out;
                }
                _ => {}
            }
            // Memory issue (an ordering stall was already counted).
            if !self.issuable[i] {
                continue;
            }
            let Some((kind, addr, purpose, _)) = self.issue_intent(&self.warps[i], now) else {
                unreachable!("phase 1 found an issuable intent");
            };
            // First presentation of the program op at `pc` (as opposed
            // to a lock-CAS retry or barrier re-poll out of a backoff
            // state) — what the trace recorder pins the issue cycle of.
            let first_issue = self.warps[i].micro == Micro::Fresh;
            let pc = self.warps[i].pc;
            let access = Access {
                warp: WarpId(i),
                addr,
                kind,
            };
            match try_access(access) {
                AccessOutcome::Reject(_) => {
                    self.stats.structural_stall_cycles += 1;
                    // Retry next cycle; do not advance the pointer so the
                    // rejected warp gets another shot.
                    return out;
                }
                outcome => {
                    if first_issue {
                        out.issued_op = Some((i, pc));
                    }
                    self.note_issue(i, cycle, addr, kind, purpose);
                    if let AccessOutcome::Done(c) = outcome {
                        self.complete(cycle, &c);
                    }
                    self.sched_ptr = (i + 1) % n;
                    return out;
                }
            }
        }
        out
    }

    fn note_issue(
        &mut self,
        i: usize,
        cycle: Cycle,
        addr: WordAddr,
        kind: AccessKind,
        purpose: Purpose,
    ) {
        let class = match kind {
            AccessKind::Load => OpClass::Load,
            AccessKind::Store { .. } => OpClass::Store,
            AccessKind::Atomic { .. } => OpClass::Atomic,
        };
        self.stats.issued += 1;
        self.stats.mem_ops += 1;
        if matches!(purpose, Purpose::BarrierPoll { .. }) {
            self.stats.barrier_polls += 1;
        }
        let warp = &mut self.warps[i];
        if warp.wait_for_issue > 0 {
            self.stats.stalled_mem_ops += 1;
            self.stats.stall_resolve.record(warp.wait_for_issue);
            warp.wait_for_issue = 0;
        }
        warp.outstanding.push_back(Outstanding {
            addr,
            class,
            purpose,
            issued: cycle,
        });
        match purpose {
            Purpose::Plain => {
                // The program op is now in flight; advance past it. Under
                // SC the warp simply cannot issue the next one until the
                // completion arrives.
                warp.micro = Micro::Fresh;
                warp.advance();
            }
            _ => warp.micro = Micro::SyncWait,
        }
    }

    /// Delivers a memory completion to its warp.
    pub fn complete(&mut self, cycle: Cycle, completion: &Completion) {
        let i = completion.warp.index();
        let class = match completion.kind {
            CompletionKind::LoadDone { .. } => OpClass::Load,
            CompletionKind::StoreDone => OpClass::Store,
            CompletionKind::AtomicDone { .. } => OpClass::Atomic,
        };
        let warp = &mut self.warps[i];
        let pos = warp
            .outstanding
            .iter()
            .position(|o| o.addr == completion.addr && o.class == class)
            .unwrap_or_else(|| {
                panic!(
                    "{}/{} completion for {} with no outstanding access",
                    self.id, completion.warp, completion.addr
                )
            });
        let o = warp.outstanding.remove(pos).expect("position valid");
        let latency = cycle.raw() - o.issued.raw();
        match o.class {
            OpClass::Load => self.stats.load_latency.record(latency),
            OpClass::Store => self.stats.store_latency.record(latency),
            OpClass::Atomic => self.stats.atomic_latency.record(latency),
        }
        if matches!(
            completion.kind,
            CompletionKind::StoreDone | CompletionKind::AtomicDone { .. }
        ) {
            // Stores and atomics both write; under TC-Weak their ts is
            // the GWCT a subsequent fence must wait out.
            warp.max_gwct = warp.max_gwct.max(completion.ts.raw());
        }
        match o.purpose {
            Purpose::Plain => {}
            Purpose::Unlock => {
                warp.micro = Micro::Fresh;
                warp.advance();
            }
            Purpose::LockAttempt => {
                let CompletionKind::AtomicDone { old } = completion.kind else {
                    panic!("lock attempt must complete as an atomic");
                };
                if old == 0 {
                    warp.micro = Micro::Fresh;
                    warp.advance();
                } else {
                    self.stats.lock_retries += 1;
                    let backoff = self.params.lock_backoff + (i as u64 * 7) % 64;
                    warp.micro = Micro::LockBackoff {
                        until: cycle.raw() + backoff,
                    };
                }
            }
            Purpose::BarrierArrive { members } | Purpose::BarrierPoll { members } => {
                let CompletionKind::AtomicDone { old } = completion.kind else {
                    panic!("barrier ops must complete as atomics");
                };
                let seen = if matches!(o.purpose, Purpose::BarrierArrive { .. }) {
                    old + 1
                } else {
                    old
                };
                if seen >= members {
                    warp.micro = Micro::Fresh;
                    warp.advance();
                    warp.barriers_passed += 1;
                    let wg = warp.wg_index;
                    let passed = warp.barriers_passed;
                    self.wg_epochs[wg] = self.wg_epochs[wg].max(passed);
                } else {
                    warp.micro = Micro::BarrierBackoff {
                        until: cycle.raw() + self.params.poll_interval,
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
