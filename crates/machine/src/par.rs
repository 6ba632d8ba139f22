//! The epoch-parallel executor behind [`SchedulerKind::ParallelHeap`]:
//! conflict-checked worker-thread batches on the heap scheduler.
//!
//! The conservative deterministic interleaving serializes everything,
//! yet most picks touch only the picking processor's own node: batches
//! from different nodes whose coherence *footprints* are disjoint
//! commute — no cache, directory, network interface, or kernel state is
//! shared between them, so executing them concurrently and merging
//! their additive statistics reproduces the serial result byte for
//! byte. This module exploits that in *epochs*:
//!
//! 1. Drain the ready queue and scan each processor's upcoming window
//!    of operations (stopping at sync operations and at the next
//!    scheduled control event), deriving a per-batch **footprint**: the
//!    set of nodes any operation in the window could touch, from the
//!    accessing node through the page's homes to every directory-listed
//!    client ([`Machine::remote_txn_footprint`]).
//! 2. Group batches by node and admit a maximal prefix of
//!    pairwise-disjoint groups ([`admit_epoch`]). Rejected groups and
//!    sync-truncated windows cap the epoch bound `B`, so everything
//!    admitted runs strictly before anything deferred. An attempt that
//!    provably cannot form an epoch stops scanning early
//!    ([`attempt_doomed`]) with the verdict the full scan would reach.
//! 3. Execute each admitted group inside a *shell machine* — the
//!    group's nodes are moved in wholesale, every other slot holds a
//!    cheap placeholder — on a persistent worker thread (inline on the
//!    scheduler thread when `worker_threads <= 1`), then merge shells
//!    back in deterministic group order and requeue survivors. Shells
//!    are pooled across epochs, so steady-state per-epoch cost is node
//!    swaps and channel hops, not machine construction.
//!
//! Whenever an epoch cannot be formed (one runnable group, a control
//! event due, an ineligible configuration) the loop falls back to
//! [`Machine::heap_step`], the exact serial pick of the `Heap`
//! scheduler — which is what keeps `ParallelHeap` observationally
//! identical to `Heap` on every workload, parallel or not. Every such
//! fallback is recorded in [`ParallelFallback`] with a structured
//! [`ParallelFallbackReason`], so serial degradation is observable in
//! reports rather than silent.
//!
//! Eligibility is per-feature, not all-or-nothing. Only features that
//! *observe the global interleaving* force a fully serial run: shadow
//! checking (versions every access in pick order) and user mode
//! preferences (opaque per-page routing). Everything else —
//! migration, page-cache pressure, LA-NUMA and dynamic page policies,
//! fault plans, journaling, the watchdog — participates in epochs,
//! because the footprint helpers close over every node such a feature
//! could drag into a window: migration targets come from the page's
//! traffic ledger ([`Machine::remote_txn_footprint`]), LA-NUMA write-back
//! owners and page-cache eviction victims from the node's fill
//! closure ([`Machine::local_fill_closure`]). A migration that
//! re-masters a page inside an epoch is therefore a *group-local*
//! event: the page's old home, new home, and every client that could
//! observe the move all belong to the same admitted group, so the
//! group's serial projection is exactly the serial machine's.
//!
//! Footprints are computed incrementally through the
//! [`crate::fp_ledger::FootprintLedger`]: per-processor window cursors
//! persist across picks and epochs — and *slide* forward when a
//! watermark drifts within `rewatermark_tolerance` ops of the scanned
//! window, paying O(drift) instead of a full rescan — and a
//! generation-tagged `(node, vpage)` memo caches page contributions.
//! Both are invalidated precisely, by
//! [`CursorInval`](crate::obs::CursorInval) events the execution layer
//! emits at every transition that can change a page's destination set
//! (directory growth, migration, failover, PIT corruption, page-cache
//! eviction, LA-NUMA write-back); cursors re-validate their cached
//! dependencies lazily by generation, so one event never cold-starts
//! every processor's cursor. Features that must stay serial
//! degrade *locally*:
//!
//! * Scheduled fault injections and watchdog deadline sweeps are
//!   control events on the scheduler's control heap, so
//!   [`Sched::peek_control`](crate::sched) caps the epoch bound — an
//!   epoch can never run past a fault's injection clock or a transit
//!   deadline.
//! * While a link-fault window with nonzero drop/corrupt probability
//!   is open, delivery verdicts consume the serial fault RNG stream,
//!   so epochs are suppressed until the window closes (sends inside an
//!   epoch all happen at or after the epoch's start clock).
//! * Failed nodes and nodes with wedged Transit lines form a *hazard
//!   set*: groups whose footprint intersects it — which, because
//!   [`Machine::remote_txn_footprint`] includes stale dynamic-home
//!   hints and every former home, covers a faulted page's whole
//!   recovery set — serialize, while disjoint groups keep running in
//!   parallel.
//! * Shells carry the fault plan (for slow-node latency factors) and
//!   an empty journal mirror; per-shell `FaultReport` deltas and
//!   journal records merge back in admission order, keeping the merged
//!   `RunReport` byte-identical to the serial heap's under an active
//!   `FaultPlan`.

use std::collections::HashMap;
use std::sync::mpsc;

use prism_kernel::ipc::GlobalIpc;
use prism_kernel::kernel::{Kernel, KernelConfig};
use prism_kernel::policy::PagePolicy;
use prism_mem::addr::{NodeId, NodeSet};
use prism_mem::trace::{Op, Trace};
use prism_protocol::msg::TrafficLedger;
use prism_sim::sync::{BarrierSet, LockSet};
use prism_sim::{Cycle, Resource};

use crate::controller::Controller;
use crate::faults::Journal;
use crate::fp_ledger::{FootprintLedger, ScanStep};
use crate::machine::Machine;
use crate::node::{Node, ProcState};
use crate::obs::{EventBus, StageTimes};
use crate::sched::Sched;

/// Maximum operations one scanned window may hold. Caps the scan cost
/// per epoch and the amount of work a single straggler batch can hoard.
const MAX_WINDOW: usize = 4096;

/// One processor's share of an epoch: its identity, the clock it was
/// popped at (for requeueing untouched leftovers), and how many scanned
/// operations it may still execute.
struct Member {
    flat: usize,
    popped: Cycle,
    window: usize,
}

/// One unit of epoch work shipped to a worker thread: the group's index
/// in admission order (the merge key), the group itself, the shell
/// machine holding its nodes, and the epoch bound.
type Task = (usize, Group, Machine, Cycle);

/// A finished unit coming back: index, group, and the shell to merge.
type Done = (usize, Group, Machine);

/// All of one node's ready batches plus the union of their footprints.
pub(crate) struct Group {
    members: Vec<Member>,
    pub(crate) footprint: NodeSet,
    /// Earliest member clock — groups form in `(clock, proc)` pop
    /// order, so this is the clock of the first member.
    pub(crate) earliest: Cycle,
}

/// Why a `ParallelHeap` pick ran on the serial path instead of inside
/// an epoch. Recorded per fallback in [`ParallelFallback`] so benches
/// and tests can see *why* parallelism degraded, not just that it did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParallelFallbackReason {
    /// The configuration is structurally ineligible — it observes the
    /// global interleaving (shadow checking) or routes through opaque
    /// user mode preferences: the whole run is serial. Migration,
    /// page-cache pressure, and non-S-COMA policies are *not* on this
    /// list; the footprint ledger's closures admit them to epochs.
    IneligibleConfig,
    /// A scheduled control event — fault injection, watchdog deadline
    /// sweep, or audit sweep — was due at or before the pick's clock.
    ControlEventDue,
    /// A link-fault window with nonzero drop or corrupt probability was
    /// still open, so delivery verdicts must consume the serial fault
    /// RNG stream one send at a time.
    LinkFaultWindowActive,
    /// Admission rejected at least one group whose footprint touched
    /// the recovery hazard set (failed nodes, or nodes with wedged
    /// Transit lines awaiting the watchdog), and too few hazard-free
    /// groups remained to form an epoch.
    RecoveryHazard,
    /// Fewer than two conflict-free groups were runnable before the
    /// epoch bound — the ordinary serial pick, not a fault artifact.
    InsufficientParallelism,
    /// The pick skipped the epoch attempt entirely: the loop is in
    /// exponential backoff after scan-based rejections. A failed
    /// attempt costs at least one window scan, so a conflict-heavy
    /// phase that rejects every pick would spend far more wall-clock
    /// scanning than the serial pick it falls back to. Backoff is a
    /// deterministic wall-clock heuristic only — epoch formation never
    /// affects the simulated run.
    EpochBackoff,
}

impl ParallelFallbackReason {
    /// Number of variants. Kept honest by [`Self::variant_index`]'s
    /// exhaustive match and the `const` assertion below: adding a
    /// variant without growing [`Self::ALL`] (and therefore every
    /// report/bench emission that iterates it) fails to compile.
    pub const COUNT: usize = Self::ALL.len();

    /// All reasons, in counter order (the order [`ParallelFallback`]
    /// indexes and benches report them).
    pub const ALL: [ParallelFallbackReason; 6] = [
        ParallelFallbackReason::IneligibleConfig,
        ParallelFallbackReason::ControlEventDue,
        ParallelFallbackReason::LinkFaultWindowActive,
        ParallelFallbackReason::RecoveryHazard,
        ParallelFallbackReason::InsufficientParallelism,
        ParallelFallbackReason::EpochBackoff,
    ];

    /// The variant's counter slot. The exhaustive match is the
    /// compile-time guard: a new variant must pick an index, and the
    /// `const` assertion forces `ALL[i].variant_index() == i`, so no
    /// variant can vanish from reports by being left out of `ALL`.
    pub const fn variant_index(self) -> usize {
        match self {
            ParallelFallbackReason::IneligibleConfig => 0,
            ParallelFallbackReason::ControlEventDue => 1,
            ParallelFallbackReason::LinkFaultWindowActive => 2,
            ParallelFallbackReason::RecoveryHazard => 3,
            ParallelFallbackReason::InsufficientParallelism => 4,
            ParallelFallbackReason::EpochBackoff => 5,
        }
    }

    /// Stable snake_case name, used as the key in bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            ParallelFallbackReason::IneligibleConfig => "ineligible_config",
            ParallelFallbackReason::ControlEventDue => "control_event_due",
            ParallelFallbackReason::LinkFaultWindowActive => "link_fault_window_active",
            ParallelFallbackReason::RecoveryHazard => "recovery_hazard",
            ParallelFallbackReason::InsufficientParallelism => "insufficient_parallelism",
            ParallelFallbackReason::EpochBackoff => "epoch_backoff",
        }
    }
}

// Compile-time exhaustiveness: every variant appears in `ALL`, at the
// slot `variant_index` assigns it. A variant missing from `ALL` leaves
// some index unreachable, so one of these equalities fails.
const _: () = {
    let mut i = 0;
    while i < ParallelFallbackReason::COUNT {
        assert!(
            ParallelFallbackReason::ALL[i].variant_index() == i,
            "ParallelFallbackReason::ALL must list every variant in variant_index order"
        );
        i += 1;
    }
};

/// Epoch/serial-fallback accounting for one `ParallelHeap` run,
/// reported in [`RunReport::parallel_fallback`](crate::report::RunReport).
/// All zeros under the serial schedulers.
///
/// Deliberately *not* part of `RunReport::to_json()`: the JSON report
/// is the scheduler-invariant golden artifact (byte-identical across
/// `Heap`, `LinearScan`, and `ParallelHeap`), and these counters are
/// scheduler-dependent by construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParallelFallback {
    /// Page-mode policy label of the run (`"scoma"`, `"lanuma"`, …),
    /// so per-policy epoch counters survive into sweep artifacts that
    /// aggregate many configurations. Empty until a `ParallelHeap` run
    /// starts.
    pub policy: String,
    /// Epochs that formed and ran groups concurrently.
    pub epochs: u64,
    /// Picks that ran on the exact serial heap path.
    pub serial_picks: u64,
    /// Epoch-size histogram: `epoch_groups[k]` epochs admitted exactly
    /// `k` concurrent groups. Indices 0 and 1 stay zero (an epoch needs
    /// two groups to form); the vector grows to the largest size seen.
    pub epoch_groups: Vec<u64>,
    /// Window scans served whole from a cursor at an exact watermark.
    pub cursor_hits: u64,
    /// Window scans served incrementally by *sliding* a cursor whose
    /// watermark drifted forward inside its scanned window (retire the
    /// executed prefix, extend the suffix, rewatermark in place).
    pub cursor_slides: u64,
    /// Window scans that had to run (cursor cold, stale, or absent).
    pub cursor_misses: u64,
    /// Ledger entries (cursors, page memos, node closures) dropped by
    /// precise invalidation events.
    pub cursor_invalidations: u64,
    /// Wall-clock nanoseconds per executor stage. All zeros unless
    /// `MachineConfig::stage_timing` opted in (host clocks are
    /// nondeterministic, so golden runs keep them off).
    pub stage: StageTimes,
    counts: [u64; ParallelFallbackReason::COUNT],
}

impl ParallelFallback {
    /// Records one serial pick with its structured reason.
    pub(crate) fn note(&mut self, reason: ParallelFallbackReason) {
        self.serial_picks += 1;
        self.counts[reason.variant_index()] += 1;
    }

    /// Records one formed epoch that admitted `groups` concurrent
    /// groups.
    pub(crate) fn note_epoch(&mut self, groups: usize) {
        self.epochs += 1;
        if self.epoch_groups.len() <= groups {
            self.epoch_groups.resize(groups + 1, 0);
        }
        self.epoch_groups[groups] += 1;
    }

    /// How many serial picks fell back for `reason`.
    pub fn count(&self, reason: ParallelFallbackReason) -> u64 {
        self.counts[reason.variant_index()]
    }

    /// Cursor reuse rate over all window scans — exact hits and slides
    /// both count as reuse (a slide costs O(drift), not O(window)) —
    /// `None` before any scan.
    pub fn cursor_hit_rate(&self) -> Option<f64> {
        let total = self.cursor_hits + self.cursor_slides + self.cursor_misses;
        (total > 0).then(|| (self.cursor_hits + self.cursor_slides) as f64 / total as f64)
    }
}

/// The stable page-mode label used across sweep and chaos artifacts.
pub fn policy_label(p: PagePolicy) -> &'static str {
    match p {
        PagePolicy::Scoma => "scoma",
        PagePolicy::Lanuma => "lanuma",
        PagePolicy::DynFcfs => "dyn-fcfs",
        PagePolicy::DynUtil => "dyn-util",
        PagePolicy::DynLru => "dyn-lru",
        PagePolicy::DynBoth => "dyn-both",
    }
}

/// Greedy conflict-free admission: walk groups in formation order
/// (earliest clock first), admit each whose footprint is disjoint from
/// everything admitted so far *and* from the recovery `hazard` set,
/// and cap the epoch bound at the earliest clock of every rejected
/// group — a rejected batch's operations must run strictly after the
/// epoch, so nothing admitted may reach them.
///
/// The hazard set holds failed nodes and nodes with in-flight Transit
/// state: batches touching them (or, via the footprint's former-home
/// closure, their failover targets) take the serial path, where
/// reroute, failover replay, and watchdog recovery are legal. A
/// hazard-rejected group does not join the taken set — it runs
/// serially after the epoch, so it cannot block admission of disjoint
/// healthy groups.
///
/// Returns the admission mask, the capped bound, and how many groups
/// the hazard set rejected. Two groups sharing any node — in
/// particular a page's home — can never both be admitted.
pub(crate) fn admit_epoch(
    groups: &[Group],
    mut b: u64,
    hazard: NodeSet,
) -> (Vec<bool>, u64, usize) {
    let mut taken = NodeSet::EMPTY;
    let mut keep = vec![false; groups.len()];
    let mut hazard_hits = 0;
    for (i, g) in groups.iter().enumerate() {
        if g.footprint.0 & hazard.0 != 0 {
            hazard_hits += 1;
            b = b.min(g.earliest.as_u64());
        } else if taken.0 & g.footprint.0 == 0 {
            taken.0 |= g.footprint.0;
            keep[i] = true;
        } else {
            b = b.min(g.earliest.as_u64());
        }
    }
    (keep, b, hazard_hits)
}

/// Early rejection for an epoch attempt whose window scan is still
/// running: `true` once no way of finishing the scan can form an
/// epoch, so the remaining windows need not be scanned. `fp0` is group
/// 0's footprint so far (`None` when the popped processor produced no
/// group), `pending` the nodes of every formed group and of every
/// popped processor not yet scanned, `b` the running bound.
///
/// Exact, not heuristic — it predicts [`admit_epoch`]'s verdict: with
/// an empty hazard set, group 0 is always admitted first, every group's
/// footprint contains its own node, footprints only grow and the bound
/// only falls as the scan continues. So a missing group 0, a bound
/// already short of `min_span`, or a group 0 that already covers every
/// other group's node each make the final rejection certain, with
/// reason `InsufficientParallelism`. A non-empty hazard set never
/// rejects early: telling `RecoveryHazard` from
/// `InsufficientParallelism` needs every group.
pub(crate) fn attempt_doomed(
    fp0: Option<NodeSet>,
    pending: NodeSet,
    b: u64,
    clock0: u64,
    min_span: u64,
    hazard: NodeSet,
) -> bool {
    if !hazard.is_empty() {
        return false;
    }
    let Some(fp0) = fp0 else {
        return true;
    };
    b.saturating_sub(clock0) < min_span || pending.0 & !fp0.0 == 0
}

/// Buffers one `ParallelHeap` run reuses across epoch attempts, so a
/// rejected attempt allocates nothing: the drained ready queue, the
/// suffix node unions [`attempt_doomed`] consults, the per-node group
/// index, the groups and leftovers of the attempt, and the pool of
/// shell machines.
struct EpochScratch {
    popped: Vec<(Cycle, usize)>,
    /// `rest[i]`: the nodes of `popped[i..]`.
    rest: Vec<NodeSet>,
    by_node: Vec<Option<usize>>,
    groups: Vec<Group>,
    leftovers: Vec<(Cycle, usize)>,
    pool: Vec<Machine>,
}

impl EpochScratch {
    fn new(nodes: usize) -> Self {
        EpochScratch {
            popped: Vec::new(),
            rest: Vec::new(),
            by_node: vec![None; nodes],
            groups: Vec::new(),
            leftovers: Vec::new(),
            pool: Vec::new(),
        }
    }
}

impl Machine {
    /// The `ParallelHeap` run loop: identical to the heap loop, except
    /// that each pick first tries to form an epoch of conflict-free
    /// node groups around the popped processor. When it cannot, the
    /// pick degenerates to the serial [`Machine::heap_step`].
    pub(crate) fn run_loop_parallel(&mut self, trace: &Trace) {
        self.prime_sched();
        self.par_fallback.policy = policy_label(self.cfg.policy).to_string();
        if let Some(reason) = self.parallel_ineligible() {
            while let Some((clock, flat)) = self.sched.pop_proc() {
                self.par_fallback.note(reason);
                self.heap_step(trace, clock, flat);
            }
            self.sched.deactivate();
            return;
        }
        // Arm the footprint ledger for this run: cursors and memos are
        // per-run (processor pcs restart), and the execution layer only
        // pays for invalidation events while a parallel run is live.
        self.fp_ledger.reset(self.cfg.total_procs(), self.cfg.nodes);
        self.obs.set_inval_enabled(true);
        self.obs.set_stage_enabled(self.cfg.stage_timing);
        // Workers live for the whole run and shells are pooled across
        // epochs: per-epoch cost is two node swaps and one channel
        // round-trip per group, not thread spawns and kernel rebuilds.
        // A single worker thread would only re-serialize the groups
        // with channel hops in between, so `worker_threads <= 1` runs
        // every group inline on this thread instead (same admission
        // order, so the exact same simulation).
        let w = if self.cfg.worker_threads > 1 {
            self.cfg.worker_threads
        } else {
            0
        };
        std::thread::scope(|s| {
            let (done_tx, done_rx) = mpsc::channel::<Done>();
            let workers: Vec<mpsc::Sender<Task>> = (0..w)
                .map(|_| {
                    let (tx, rx) = mpsc::channel::<Task>();
                    let done = done_tx.clone();
                    s.spawn(move || {
                        while let Ok((i, mut g, mut shell, bound)) = rx.recv() {
                            shell.run_group(trace, &mut g.members, bound);
                            if done.send((i, g, shell)).is_err() {
                                break;
                            }
                        }
                    });
                    tx
                })
                .collect();
            drop(done_tx);
            let mut scratch = EpochScratch::new(self.cfg.nodes);
            // Exponential backoff on scan-based rejections: a failed
            // epoch attempt costs at least one window scan, so during a
            // conflict-heavy phase the loop skips `stride` picks before
            // scanning again (doubling up to `cfg.max_epoch_backoff`),
            // and re-arms the moment an epoch forms. Deterministic — it
            // depends only on the pick sequence — and invisible to the
            // simulation. Persistent cursors soften rejection cost (a
            // re-scan at an unchanged watermark is a ledger hit), so
            // the backoff now guards only genuinely churning phases.
            let max_backoff = self.cfg.max_epoch_backoff;
            let (mut skip, mut stride) = (0u64, 1u64);
            while let Some((clock, flat)) = self.sched.pop_proc() {
                if skip > 0 {
                    skip -= 1;
                    self.par_fallback.note(ParallelFallbackReason::EpochBackoff);
                    self.heap_step(trace, clock, flat);
                    continue;
                }
                match self.try_epoch(trace, clock, flat, &workers, &done_rx, &mut scratch) {
                    None => stride = 1,
                    Some(reason) => {
                        self.par_fallback.note(reason);
                        if matches!(
                            reason,
                            ParallelFallbackReason::RecoveryHazard
                                | ParallelFallbackReason::InsufficientParallelism
                        ) {
                            skip = stride;
                            stride = (stride * 2).min(max_backoff);
                        }
                        self.heap_step(trace, clock, flat);
                    }
                }
            }
            drop(workers);
        });
        // Disarm the ledger and fold its counters into the run's
        // fallback accounting (`+=`: `par_fallback` accumulates across
        // runs on the same machine, the ledger resets per run).
        self.obs.set_inval_enabled(false);
        self.par_fallback.cursor_hits += self.fp_ledger.hits;
        self.par_fallback.cursor_slides += self.fp_ledger.slides;
        self.par_fallback.cursor_misses += self.fp_ledger.misses;
        self.par_fallback.cursor_invalidations += self.fp_ledger.invalidations;
        self.par_fallback.stage.add(self.obs.take_stage());
        self.obs.set_stage_enabled(false);
        self.sched.deactivate();
    }

    /// `None` when the configuration guarantees that disjoint-footprint
    /// batches commute. Only features that observe the global pick
    /// interleaving remain on the serial list: shadow checking
    /// (versions accesses in pick order) and user mode preferences
    /// (opaque per-page routing the footprint helpers cannot close
    /// over). Migration, page-cache pressure, and non-S-COMA policies
    /// are eligible: [`Machine::remote_txn_footprint`] closes over
    /// migration targets and [`Machine::local_fill_closure`] over
    /// LA-NUMA write-back owners and page-cache eviction victims, so
    /// their cross-node effects stay inside one admitted group. Fault
    /// plans, journaling, the watchdog, and failed nodes are admitted
    /// per-epoch via control-event bounds and the recovery hazard set.
    fn parallel_ineligible(&self) -> Option<ParallelFallbackReason> {
        (self.mode_prefs_set || self.shadow.is_some())
            .then_some(ParallelFallbackReason::IneligibleConfig)
    }

    /// Nodes no epoch batch may touch: failed nodes (their pages are
    /// mid-failover, their processors mid-kill) and nodes holding
    /// wedged Transit lines the watchdog may need to recover. Batches
    /// whose footprint intersects this set run serially, where reroute
    /// and recovery are legal.
    fn hazard_nodes(&self) -> NodeSet {
        let mut hazard = NodeSet::EMPTY;
        for (i, node) in self.nodes.iter().enumerate() {
            if node.failed || node.controller.transit_pending() > 0 {
                hazard.insert(NodeId(i as u16));
            }
        }
        hazard
    }

    /// Attempts one epoch around the already-popped `(clock0, flat0)`.
    /// Returns the rejection reason — with the ready queue restored —
    /// when no epoch with at least two independent groups exists, so
    /// the caller can note it and fall back to the serial pick; `None`
    /// means the epoch formed and ran.
    ///
    /// The ledger is moved out of `self` for the attempt (scans borrow
    /// `&self` while memoizing into `&mut ledger`) and pending
    /// invalidation events — emitted by serial picks and merged epoch
    /// shells since the last attempt — are applied first, so every
    /// cursor or memo the scan consults reflects the machine's current
    /// routing state.
    fn try_epoch(
        &mut self,
        trace: &Trace,
        clock0: Cycle,
        flat0: usize,
        workers: &[mpsc::Sender<Task>],
        done_rx: &mpsc::Receiver<Done>,
        scratch: &mut EpochScratch,
    ) -> Option<ParallelFallbackReason> {
        let mut ledger = std::mem::take(&mut self.fp_ledger);
        ledger.apply(self.obs.drain_inval());
        let r = self.try_epoch_inner(trace, clock0, flat0, workers, done_rx, scratch, &mut ledger);
        self.fp_ledger = ledger;
        scratch.groups.clear();
        scratch.leftovers.clear();
        scratch.by_node.fill(None);
        r
    }

    #[allow(clippy::too_many_arguments)]
    fn try_epoch_inner(
        &mut self,
        trace: &Trace,
        clock0: Cycle,
        flat0: usize,
        workers: &[mpsc::Sender<Task>],
        done_rx: &mpsc::Receiver<Done>,
        scratch: &mut EpochScratch,
        ledger: &mut FootprintLedger,
    ) -> Option<ParallelFallbackReason> {
        // Control events — fault injections, watchdog deadline sweeps,
        // audit sweeps — observe (or mutate) the global interleaving:
        // no batch may run past the next one, so the pending epoch is
        // bounded by the control heap and a pick at or past the next
        // event must take the serial path that fires it.
        let b_ctl = self.sched.peek_control();
        if clock0.as_u64() >= b_ctl {
            return Some(ParallelFallbackReason::ControlEventDue);
        }
        // While a drop/corrupt link window is open, every send's
        // delivery verdict draws from the single serial RNG stream in
        // send order. All of an epoch's sends happen at or after
        // `clock0`, so once no perturbing window is live at `clock0`
        // (they are half-open `[from, until)`), shells can never reach
        // a verdict draw and the stream stays untouched.
        if let Some(f) = self.fault.as_ref() {
            if f.plan.has_live_link_window(clock0) {
                return Some(ParallelFallbackReason::LinkFaultWindowActive);
            }
        }
        let EpochScratch {
            popped,
            rest,
            by_node,
            groups,
            leftovers,
            pool,
        } = scratch;
        // Drain the ready queue; entries surface in (clock, proc) order.
        popped.clear();
        popped.push((clock0, flat0));
        while let Some((c, f)) = self.sched.pop_proc() {
            popped.push((c, f));
        }
        rest.clear();
        rest.resize(popped.len() + 1, NodeSet::EMPTY);
        for i in (0..popped.len()).rev() {
            let (n, _) = self.split_flat(popped[i].1);
            rest[i] = rest[i + 1];
            rest[i].insert(NodeId(n as u16));
        }
        let hazard = self.hazard_nodes();
        // Scan windows and form per-node groups in pop order. A window
        // truncated by a sync operation caps the bound at the sync's
        // earliest possible start: sync operations mutate machine-wide
        // state (barriers, locks, lock-home network interfaces) and so
        // must stay on the serial path, after everything admitted here.
        //
        // Scans are horizonless — each runs to its own sync op,
        // `MAX_WINDOW`, or lane end regardless of the running bound —
        // which is what lets a scan be *stored* in the ledger and
        // reused verbatim at the next attempt from the same `(pc,
        // clock)` watermark. Windows reaching past the final bound cost
        // nothing at execution time (`run_group` stops at the bound and
        // leftovers requeue at their reached clock); they can only
        // inflate a footprint, never shrink one, so admission stays
        // sound.
        //
        // Before each further scan, `attempt_doomed` checks whether the
        // attempt can still form an epoch; once it cannot, the rest of
        // the scan is skipped and the attempt rejected with the exact
        // reason the full scan would have reached.
        let mut b = b_ctl;
        // Nodes of every formed group (group 0's own node is in its
        // footprint, so counting it among the candidates is harmless).
        let mut formed = NodeSet::EMPTY;
        let flat0_group = |groups: &[Group]| {
            groups
                .first()
                .filter(|g| g.members[0].flat == flat0)
                .map(|g| g.footprint)
        };
        let t_scan = self.obs.stage_enabled().then(std::time::Instant::now);
        let mut doomed = false;
        for (i, &(c, f)) in popped.iter().enumerate() {
            // Already at or past the running bound: the processor
            // cannot start anything inside this epoch, so skip its scan
            // entirely (the cursor stays warm for the next attempt).
            if c.as_u64() >= b {
                leftovers.push((c, f));
                continue;
            }
            if i > 0
                && attempt_doomed(
                    flat0_group(groups),
                    NodeSet(formed.0 | rest[i].0),
                    b,
                    clock0.as_u64(),
                    self.cfg.min_epoch_span,
                    hazard,
                )
            {
                doomed = true;
                break;
            }
            let (window, fp, trunc_at) = self.scan_window(trace, f, c, ledger);
            if let Some(at) = trunc_at {
                b = b.min(at);
            }
            if window == 0 {
                leftovers.push((c, f));
                continue;
            }
            let (n, _) = self.split_flat(f);
            let gi = *by_node[n].get_or_insert_with(|| {
                formed.insert(NodeId(n as u16));
                groups.push(Group {
                    members: Vec::new(),
                    footprint: NodeSet::EMPTY,
                    earliest: c,
                });
                groups.len() - 1
            });
            groups[gi].members.push(Member {
                flat: f,
                popped: c,
                window,
            });
            groups[gi].footprint.0 |= fp.0;
        }
        if let Some(t) = t_scan {
            self.obs.stage.scan_ns += t.elapsed().as_nanos() as u64;
        }
        if doomed {
            for &(c, f) in popped.iter().skip(1) {
                self.sched.wake(f, c);
            }
            return Some(ParallelFallbackReason::InsufficientParallelism);
        }
        let flat0_grouped = flat0_group(groups).is_some();
        let t_admit = self.obs.stage_enabled().then(std::time::Instant::now);
        let (keep, b, hazard_hits) = admit_epoch(groups, b, hazard);
        let admitted = keep.iter().filter(|&&k| k).count();
        if let Some(t) = t_admit {
            self.obs.stage.admit_ns += t.elapsed().as_nanos() as u64;
        }
        // An epoch is worth forming only when at least two groups run
        // concurrently, the popped processor is one of them (it must
        // make progress), and the bound leaves enough room to amortize
        // the epoch's fixed cost (`cfg.min_epoch_span`).
        if admitted < 2
            || !flat0_grouped
            || !keep[0]
            || b.saturating_sub(clock0.as_u64()) < self.cfg.min_epoch_span
        {
            for &(c, f) in popped.iter().skip(1) {
                self.sched.wake(f, c);
            }
            return Some(if hazard_hits > 0 {
                ParallelFallbackReason::RecoveryHazard
            } else {
                ParallelFallbackReason::InsufficientParallelism
            });
        }
        self.par_fallback.note_epoch(admitted);
        let mut accepted: Vec<Group> = Vec::new();
        for (g, k) in groups.drain(..).zip(keep) {
            if k {
                accepted.push(g);
            } else {
                for m in g.members {
                    leftovers.push((m.popped, m.flat));
                }
            }
        }
        self.run_epoch(
            trace,
            accepted,
            Cycle(b.saturating_sub(1)),
            workers,
            done_rx,
            pool,
        );
        for &(c, f) in leftovers.iter() {
            self.sched.wake(f, c);
        }
        None
    }

    /// Scans processor `flat`'s lane from its current position,
    /// accumulating the nodes its next operations could touch. The scan
    /// advances a *lower bound* on the clock (computes are exact, every
    /// memory reference costs at least an L1 hit), so any operation the
    /// executor could actually start before the returned truncation
    /// clock lies inside the returned window. Returns the window
    /// length, its footprint, and — when the window was truncated with
    /// lane left (by a sync operation, or by [`MAX_WINDOW`]) — the
    /// earliest clock the first excluded operation could start at. The
    /// epoch bound must not pass that clock: excluded operations run
    /// serially after the merge, so nothing admitted to the epoch may
    /// be ordered after them.
    ///
    /// The scan is served from the processor's persistent
    /// `WindowCursor` ([`crate::fp_ledger`]) whenever one covers the
    /// request: whole at the exact `(node, pc, clock)` watermark
    /// (rejected epochs and backoff retries re-reach the same watermark
    /// constantly, so the common re-scan is O(1)), or incrementally
    /// when the watermark drifted forward by at most
    /// `cfg.rewatermark_tolerance` operations but stayed inside the
    /// scanned window — the cursor *slides*: the executed prefix
    /// retires, the suffix extends, and the request costs O(drift)
    /// instead of O(window). A fresh scan stores its result (with the
    /// `(node, vpage)` contributions it consumed as generation-tagged
    /// invalidation deps) before returning. The truncation clock is
    /// absolute and rebases on every slide, so it stays valid across
    /// attempts.
    ///
    /// Footprint composition per window: the node's *fill closure*
    /// (itself, LA-NUMA write-back owners, page-cache eviction victims
    /// — any memory reference can trigger a fill and therefore an
    /// eviction) is OR'd in once at the first memory reference, and
    /// each referenced page adds its memoized *contribution* (homes,
    /// sharers, stale hints, migration targets for shared pages;
    /// nothing beyond the closure for private ones). Compute-only
    /// windows stay at the node singleton. The ledger performs the
    /// composition; this wrapper only translates trace operations into
    /// [`ScanStep`]s and supplies the policy-aware footprint callbacks.
    fn scan_window(
        &self,
        trace: &Trace,
        flat: usize,
        clock: Cycle,
        ledger: &mut FootprintLedger,
    ) -> (usize, NodeSet, Option<u64>) {
        let lane = &trace.lanes[flat];
        let (n, pi) = self.split_flat(flat);
        if self.nodes[n].procs[pi].state != ProcState::Ready {
            return (0, NodeSet::EMPTY, None);
        }
        let pc0 = self.nodes[n].procs[pi].pc;
        ledger.scan(
            flat,
            n,
            pc0,
            clock.as_u64(),
            self.cfg.latency.l1_hit,
            MAX_WINDOW,
            self.cfg.rewatermark_tolerance,
            || self.local_fill_closure(n),
            |pc| match lane.get(pc) {
                None => ScanStep::End,
                Some(Op::Barrier(_) | Op::Lock(_) | Op::Unlock(_)) => ScanStep::Sync,
                Some(&Op::Compute(c)) => ScanStep::Compute(c as u64),
                Some(&(Op::Read(va) | Op::Write(va))) => ScanStep::Ref {
                    key: (n, self.cfg.geometry.vpage(va)),
                    va,
                    same_run: self.ingest.same_run(flat, pc),
                },
            },
            |va| match self.nodes[n].kernel.resolve(va) {
                Some(gp) => self.remote_txn_footprint(n, gp),
                None => NodeSet::EMPTY,
            },
        )
    }

    /// Runs the admitted groups — inline when no worker threads exist,
    /// otherwise shipped round-robin to the persistent workers — then
    /// merges the shells in admission order, deterministic regardless
    /// of which worker ran what when. Shells return to `pool` with
    /// fresh statistics for the next epoch.
    fn run_epoch(
        &mut self,
        trace: &Trace,
        accepted: Vec<Group>,
        bound: Cycle,
        workers: &[mpsc::Sender<Task>],
        done_rx: &mpsc::Receiver<Done>,
        pool: &mut Vec<Machine>,
    ) {
        let count = accepted.len();
        let mut done: Vec<Done> = Vec::with_capacity(count);
        // Migration inside a shell re-masters pages (`dyn_homes` is
        // insert-only): the merge below folds each shell's inserts back
        // by diffing against this pre-epoch snapshot — diffing against
        // the live map would let a later (unchanged) shell revert an
        // earlier shell's migration. Cheap when empty (the common
        // migration-free case clones nothing).
        let dyn_snapshot = self.dyn_homes.clone();
        let t_exec = self.obs.stage_enabled().then(std::time::Instant::now);
        for (i, mut g) in accepted.into_iter().enumerate() {
            let mut shell = pool.pop().unwrap_or_else(|| self.make_shell());
            // Failover and migration re-master pages in `dyn_homes`;
            // keep the shell's view current so its translations resolve
            // the same homes the serial path would. Guarded: the common
            // epoch swaps nothing and pays one emptiness check.
            if !self.dyn_homes.is_empty() || !shell.dyn_homes.is_empty() {
                shell.dyn_homes.clone_from(&self.dyn_homes);
            }
            for id in g.footprint.iter() {
                std::mem::swap(
                    &mut self.nodes[id.0 as usize],
                    &mut shell.nodes[id.0 as usize],
                );
            }
            if workers.is_empty() {
                shell.run_group(trace, &mut g.members, bound);
                done.push((i, g, shell));
            } else {
                workers[i % workers.len()]
                    .send((i, g, shell, bound))
                    .expect("epoch worker hung up");
            }
        }
        if !workers.is_empty() {
            done.extend((0..count).map(|_| done_rx.recv().expect("epoch worker panicked")));
            done.sort_by_key(|d| d.0);
        }
        if let Some(t) = t_exec {
            self.obs.stage.execute_ns += t.elapsed().as_nanos() as u64;
        }
        let t_merge = self.obs.stage_enabled().then(std::time::Instant::now);
        for (_, g, mut shell) in done {
            for id in g.footprint.iter() {
                std::mem::swap(
                    &mut self.nodes[id.0 as usize],
                    &mut shell.nodes[id.0 as usize],
                );
            }
            self.obs.merge_from(&shell.obs);
            self.ledger.merge(&shell.ledger);
            if let (Some(j), Some(sj)) = (self.journal.as_mut(), shell.journal.as_mut()) {
                j.absorb(sj);
            }
            // Fold re-mastering back: entries the shell added or moved
            // relative to the pre-epoch snapshot. Epoch footprints are
            // pairwise disjoint, so no two shells touch the same page.
            for (&gp, &home) in &shell.dyn_homes {
                if dyn_snapshot.get(&gp) != Some(&home) {
                    self.dyn_homes.insert(gp, home);
                }
            }
            for (gp, set) in shell.former_homes.drain() {
                self.former_homes.entry(gp).or_default().0 |= set.0;
            }
            shell.obs = EventBus::new_with_inval(self.obs.inval_enabled());
            shell.ledger = TrafficLedger::new();
            for m in &g.members {
                let (n, pi) = self.split_flat(m.flat);
                if self.nodes[n].procs[pi].state == ProcState::Ready {
                    let c = self.nodes[n].procs[pi].clock;
                    self.sched.wake(m.flat, c);
                }
            }
            pool.push(shell);
        }
        if let Some(t) = t_merge {
            self.obs.stage.merge_ns += t.elapsed().as_nanos() as u64;
        }
    }

    /// A shell machine for one worker: full-width node vector (so flat
    /// indices resolve) holding cheap placeholders until the group's
    /// real nodes are swapped in, fresh additive statistics, and the
    /// serial-only engine features disabled. Scheduler wakes are inert
    /// (`Sched` starts inactive), so sync-free batch execution inside
    /// the shell behaves exactly as on the parent machine.
    ///
    /// Fault-era state is mirrored, not dropped: the shell carries a
    /// clone of the fault plan (slow-node latency factors and the
    /// `fault.is_some()` accounting gates must match the serial path;
    /// the mutable RNG/injection state is unreachable under the epoch
    /// gates) and an empty journal when the parent journals (so the
    /// record-at-home gate matches; records merge back after the
    /// epoch).
    fn make_shell(&self) -> Machine {
        let nodes = (0..self.cfg.nodes)
            .map(|n| {
                let kcfg = KernelConfig {
                    real_frames: 1,
                    page_cache_capacity: None,
                    policy: self.cfg.policy,
                    home_status_flag: self.cfg.home_status_flag,
                    renuma_threshold: self.cfg.renuma_threshold,
                };
                let kernel = Kernel::new(
                    NodeId(n as u16),
                    kcfg,
                    self.homes.clone(),
                    self.cfg.geometry,
                );
                Node {
                    id: NodeId(n as u16),
                    procs: Vec::new(),
                    bus: Resource::new("bus"),
                    memory: Resource::new("memory"),
                    ni: Resource::new("ni"),
                    engine: Resource::new("engine"),
                    controller: Controller::new(1, self.cfg.geometry.lines_per_page(), 1, 1),
                    kernel,
                    failed: false,
                }
            })
            .collect();
        Machine {
            cfg: self.cfg.clone(),
            nodes,
            barrier_groups: vec![(0..0, BarrierSet::new(1))],
            locks: LockSet::new(),
            dyn_homes: HashMap::new(),
            ipc: GlobalIpc::new(),
            homes: self.homes.clone(),
            ledger: TrafficLedger::new(),
            obs: EventBus::new_with_inval(self.obs.inval_enabled()),
            sched: Sched::default(),
            shadow: None,
            fault: self.fault.clone(),
            journal: self.journal.as_ref().map(|_| Journal::default()),
            next_audit: u64::MAX,
            former_homes: HashMap::new(),
            workload_name: String::new(),
            mode_prefs_set: false,
            ingest: std::sync::Arc::clone(&self.ingest),
            fast_xlat: self.fast_xlat,
            par_fallback: ParallelFallback::default(),
            fp_ledger: FootprintLedger::default(),
        }
    }

    /// Drives one group inside a shell: repeatedly pick the earliest
    /// `(clock, proc)` member with window left, bound its batch by the
    /// next-earliest member's `(clock, proc)` key (the group-local
    /// projection of the serial interleaving — lexicographic, so ties
    /// at equal clocks resolve by processor id exactly as heap pops do)
    /// and by the epoch bound, and run it. Stops when no member can
    /// start another operation before the bound.
    fn run_group(&mut self, trace: &Trace, members: &mut [Member], bound: Cycle) {
        loop {
            let mut best: Option<(Cycle, usize, usize)> = None;
            let mut next = (bound, usize::MAX);
            for (i, m) in members.iter().enumerate() {
                if m.window == 0 {
                    continue;
                }
                let (n, pi) = self.split_flat(m.flat);
                let p = &self.nodes[n].procs[pi];
                if p.state != ProcState::Ready || p.clock > bound {
                    continue;
                }
                match best {
                    None => best = Some((p.clock, m.flat, i)),
                    Some((c, bf, _)) if (p.clock, m.flat) < (c, bf) => {
                        next = next.min((c, bf));
                        best = Some((p.clock, m.flat, i));
                    }
                    Some(_) => next = next.min((p.clock, m.flat)),
                }
            }
            let Some((_, _, i)) = best else {
                break;
            };
            let executed = self.run_batch_window(trace, members[i].flat, next, members[i].window);
            debug_assert!(executed > 0, "a runnable member must make progress");
            if executed == 0 {
                break;
            }
            members[i].window -= executed;
        }
    }

    /// The worker-side batch: like the serial `run_batch`, but capped
    /// at the scanned window (the footprint covers nothing beyond it)
    /// and starting an operation only while the `(clock, proc)` key is
    /// below `bound` — the serial loop would run everything admitted to
    /// this epoch before any operation past it, resolving equal-clock
    /// ties by processor id just like heap pops.
    fn run_batch_window(
        &mut self,
        trace: &Trace,
        flat: usize,
        bound: (Cycle, usize),
        max_ops: usize,
    ) -> usize {
        let lane = &trace.lanes[flat];
        let (n, pi) = self.split_flat(flat);
        let mut done = 0;
        while done < max_ops {
            if self.nodes[n].procs[pi].state != ProcState::Ready
                || (self.nodes[n].procs[pi].clock, flat) > bound
            {
                break;
            }
            let pc = self.nodes[n].procs[pi].pc;
            let Some(&op) = lane.get(pc) else {
                self.nodes[n].procs[pi].state = ProcState::Finished;
                break;
            };
            debug_assert!(
                !matches!(op, Op::Barrier(_) | Op::Lock(_) | Op::Unlock(_)),
                "sync operations are excluded from scanned windows"
            );
            self.exec_op(flat, op);
            done += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(nodes: &[u16], earliest: u64) -> Group {
        let mut fp = NodeSet::EMPTY;
        for &n in nodes {
            fp.insert(NodeId(n));
        }
        Group {
            members: Vec::new(),
            footprint: fp,
            earliest: Cycle(earliest),
        }
    }

    fn nodeset(nodes: &[u16]) -> NodeSet {
        let mut s = NodeSet::EMPTY;
        for &n in nodes {
            s.insert(NodeId(n));
        }
        s
    }

    #[test]
    fn groups_sharing_a_page_home_never_share_an_epoch() {
        // Nodes 0 and 1 both reference a page homed on node 2: their
        // footprints intersect at the home, so the second group must be
        // rejected and the epoch bound capped at its earliest clock.
        let groups = vec![group(&[0, 2], 10), group(&[1, 2], 40), group(&[3], 70)];
        let (keep, b, hazard_hits) = admit_epoch(&groups, u64::MAX, NodeSet::EMPTY);
        assert_eq!(keep, vec![true, false, true]);
        assert_eq!(b, 40);
        assert_eq!(hazard_hits, 0);
    }

    #[test]
    fn disjoint_groups_are_all_admitted() {
        let groups = vec![group(&[0], 5), group(&[1, 2], 6), group(&[3], 7)];
        let (keep, b, hazard_hits) = admit_epoch(&groups, 1_000, NodeSet::EMPTY);
        assert_eq!(keep, vec![true, true, true]);
        assert_eq!(b, 1_000);
        assert_eq!(hazard_hits, 0);
    }

    #[test]
    fn rejection_is_transitive_over_the_taken_set() {
        // Group 2 conflicts with group 0, group 3 with group 2's nodes
        // even though group 2 was rejected: admission checks against
        // the *admitted* union only, so group 3 gets in.
        let groups = vec![group(&[0, 1], 10), group(&[1, 2], 20), group(&[2], 30)];
        let (keep, b, hazard_hits) = admit_epoch(&groups, u64::MAX, NodeSet::EMPTY);
        assert_eq!(keep, vec![true, false, true]);
        assert_eq!(b, 20);
        assert_eq!(hazard_hits, 0);
    }

    #[test]
    fn hazard_groups_serialize_without_blocking_healthy_ones() {
        // Node 1 is in the hazard set (say its home failed over): the
        // group touching it must serialize — capping the bound at its
        // earliest clock — but it must NOT join the taken set, so the
        // later group reusing node 1's *healthy* neighbors still runs.
        let groups = vec![group(&[0], 10), group(&[1, 2], 20), group(&[2, 3], 30)];
        let (keep, b, hazard_hits) = admit_epoch(&groups, u64::MAX, nodeset(&[1]));
        assert_eq!(keep, vec![true, false, true]);
        assert_eq!(b, 20);
        assert_eq!(hazard_hits, 1);
    }

    #[test]
    fn hazard_rejection_caps_the_bound_even_when_first() {
        // The earliest group itself is hazardous: nothing admitted may
        // be ordered after its operations, so the bound collapses to
        // its clock and the caller falls back to the serial path.
        let groups = vec![group(&[0, 1], 10), group(&[2], 40), group(&[3], 70)];
        let (keep, b, hazard_hits) = admit_epoch(&groups, u64::MAX, nodeset(&[0]));
        assert_eq!(keep, vec![false, true, true]);
        assert_eq!(b, 10);
        assert_eq!(hazard_hits, 1);
    }

    #[test]
    fn hazard_and_conflict_rejections_are_counted_separately() {
        let groups = vec![group(&[0], 5), group(&[0, 1], 6), group(&[2, 3], 7)];
        let (keep, _, hazard_hits) = admit_epoch(&groups, u64::MAX, nodeset(&[3]));
        // Group 1 is a footprint conflict, group 2 a hazard hit.
        assert_eq!(keep, vec![true, false, false]);
        assert_eq!(hazard_hits, 1);
    }

    #[test]
    fn doomed_when_group_zero_covers_every_candidate_node() {
        // Group 0 (node 0) references a page homed on node 1 and one
        // shared with nodes 2 and 3: any later group's own node is in
        // its footprint, so no second group can be admitted.
        let fp0 = nodeset(&[0, 1, 2, 3]);
        assert!(attempt_doomed(
            Some(fp0),
            nodeset(&[1, 2, 3]),
            u64::MAX,
            0,
            1024,
            NodeSet::EMPTY
        ));
    }

    #[test]
    fn continues_while_one_candidate_node_is_uncovered() {
        let fp0 = nodeset(&[0, 1, 2]);
        assert!(!attempt_doomed(
            Some(fp0),
            nodeset(&[1, 3]),
            u64::MAX,
            0,
            1024,
            NodeSet::EMPTY
        ));
        // The same group with node 3 covered is doomed.
        assert!(attempt_doomed(
            Some(nodeset(&[0, 1, 2, 3])),
            nodeset(&[1, 3]),
            u64::MAX,
            0,
            1024,
            NodeSet::EMPTY
        ));
    }

    #[test]
    fn doomed_when_the_bound_collapses_below_min_span() {
        let (fp0, pending) = (nodeset(&[0]), nodeset(&[1, 2]));
        assert!(!attempt_doomed(
            Some(fp0),
            pending,
            5_000 + 1024,
            5_000,
            1024,
            NodeSet::EMPTY
        ));
        assert!(attempt_doomed(
            Some(fp0),
            pending,
            5_000 + 1023,
            5_000,
            1024,
            NodeSet::EMPTY
        ));
    }

    #[test]
    fn doomed_when_the_popped_processor_formed_no_group() {
        assert!(attempt_doomed(
            None,
            nodeset(&[1, 2]),
            u64::MAX,
            0,
            1024,
            NodeSet::EMPTY
        ));
    }

    #[test]
    fn never_doomed_under_a_hazard() {
        // Each case above that is doomed without a hazard keeps
        // scanning with one: the RecoveryHazard attribution needs every
        // group.
        let hazard = nodeset(&[3]);
        for (fp0, b) in [
            (Some(nodeset(&[0, 1, 2, 3])), u64::MAX),
            (Some(nodeset(&[0])), 1023),
            (None, u64::MAX),
        ] {
            assert!(!attempt_doomed(fp0, nodeset(&[1, 2]), b, 0, 1024, hazard));
        }
    }

    #[test]
    fn fallback_counters_track_reasons_independently() {
        let mut fb = ParallelFallback::default();
        fb.note(ParallelFallbackReason::RecoveryHazard);
        fb.note(ParallelFallbackReason::RecoveryHazard);
        fb.note(ParallelFallbackReason::ControlEventDue);
        assert_eq!(fb.serial_picks, 3);
        assert_eq!(fb.count(ParallelFallbackReason::RecoveryHazard), 2);
        assert_eq!(fb.count(ParallelFallbackReason::ControlEventDue), 1);
        assert_eq!(fb.count(ParallelFallbackReason::IneligibleConfig), 0);
        let total: u64 = ParallelFallbackReason::ALL
            .iter()
            .map(|&r| fb.count(r))
            .sum();
        assert_eq!(total, fb.serial_picks);
    }

    fn footprint_fixture() -> (Machine, prism_mem::addr::GlobalPage) {
        use prism_mem::trace::{SegmentSpec, SHARED_BASE};
        let cfg = crate::config::MachineConfig::builder()
            .nodes(4)
            .procs_per_node(1)
            .build();
        let mut m = Machine::new(cfg);
        let segs = vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 4 * m.cfg.geometry.page_bytes(),
        }];
        for node in &mut m.nodes {
            node.kernel.attach_segments(&segs);
        }
        let va = prism_mem::addr::VirtAddr(SHARED_BASE);
        let gp = m.nodes[0].kernel.resolve(va).expect("shared page resolves");
        (m, gp)
    }

    #[test]
    fn footprint_covers_requester_and_static_home() {
        let (m, gp) = footprint_fixture();
        let fp = m.remote_txn_footprint(0, gp);
        assert!(fp.contains(NodeId(0)), "requester is in its own footprint");
        assert!(
            fp.contains(m.homes.static_home(gp)),
            "the page's static home is in the footprint"
        );
    }

    #[test]
    fn footprint_covers_stale_pit_hints() {
        use prism_mem::addr::FrameNo;
        use prism_mem::mode::FrameMode;
        use prism_mem::pit::PitEntry;
        let (mut m, gp) = footprint_fixture();
        let base = m.remote_txn_footprint(0, gp);
        let hint = (0..4)
            .map(NodeId)
            .find(|&n| !base.contains(n))
            .expect("a 4-node machine has a node outside the base footprint");
        // A client PIT entry whose dynamic-home hint is stale (or was
        // scrambled by a CorruptPit fault): Route targets the hint, so
        // the footprint must own that first hop.
        let mut entry = PitEntry::shared(gp, FrameMode::Scoma, m.homes.static_home(gp));
        entry.dyn_home = hint;
        m.nodes[0].controller.pit.insert(FrameNo(0), entry);
        let fp = m.remote_txn_footprint(0, gp);
        assert!(
            fp.contains(hint),
            "the requester's stale dynamic-home hint is in the footprint"
        );
    }

    #[test]
    fn footprint_covers_former_homes() {
        let (mut m, gp) = footprint_fixture();
        let base = m.remote_txn_footprint(0, gp);
        let dead = (0..4)
            .map(NodeId)
            .rev()
            .find(|&n| !base.contains(n))
            .expect("a 4-node machine has a node outside the base footprint");
        // The page failed over from `dead` (or migrated away): clients
        // may still hold hints to it, so the whole recovery set — old
        // home included — stays in one footprint and the hazard set can
        // serialize every batch that could touch it.
        m.former_homes.entry(gp).or_default().insert(dead);
        let fp = m.remote_txn_footprint(0, gp);
        assert!(
            fp.contains(dead),
            "a former home stays in the page's footprint"
        );
    }
}
