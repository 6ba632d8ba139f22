//! The observability layer: one event bus every subscriber shares.
//!
//! Before this layer existed, run statistics were threaded through three
//! parallel mechanisms: an ad-hoc `MachineStats` struct, the
//! [`FaultReport`] buried inside the fault-injection state, and audit
//! findings stored loose on the `Machine`. The [`EventBus`] replaces all
//! three with a single spine built on [`prism_sim::event`]:
//!
//! * **Counters** ([`Ctr`]) — high-frequency protocol events (references,
//!   misses, invalidations). Hot-path updates are a dense-index add into
//!   a [`CounterRegistry`]; no hashing, no branching.
//! * **Fault accounting** — the [`FaultReport`] the recovery machinery
//!   writes through [`crate::machine::Machine::freport`] (gated on an
//!   installed fault plan, exactly as before).
//! * **Audit findings** — the online coherence auditor's findings and
//!   sweep count.
//! * **Event ring** — *structural* events (node failures, migrations,
//!   failovers, watchdog recoveries, audit sweeps) retained in a bounded
//!   [`EventRing`] for post-mortem inspection via
//!   [`crate::machine::Machine::recent_events`].
//!
//! The contract: counters for events that happen millions of times, the
//! ring for events that reshape the machine. [`crate::report`] is the
//! one subscriber that snapshots everything into a `RunReport`.

use prism_mem::addr::{GlobalPage, NodeId};
use prism_sim::event::{CounterRegistry, EventRing};
use prism_sim::stats::Histogram;
use prism_sim::Cycle;

use crate::faults::FaultReport;
use crate::shadow::AuditFinding;

/// How many structural events the bus retains.
const RING_CAPACITY: usize = 1024;

/// Dense counter indices for high-frequency protocol events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub(crate) enum Ctr {
    /// Memory references executed.
    TotalRefs,
    /// Misses that fetched data from a remote node.
    RemoteMisses,
    /// Ownership upgrades that crossed the network without data.
    RemoteUpgrades,
    /// Misses satisfied by local memory or the local page cache.
    LocalFills,
    /// Misses satisfied by a sibling processor's cache.
    SiblingFills,
    /// Dirty lines flushed by page-outs.
    PageOutLines,
    /// Pages paged out at their home node.
    HomePageOuts,
    /// Invalidation messages sent.
    Invalidations,
    /// LA-NUMA dirty writebacks to remote homes.
    RemoteWritebacks,
    /// Dynamic-home migrations performed.
    Migrations,
    /// Requests forwarded past a stale dynamic-home hint.
    Forwards,
    /// Remote accesses rejected by the PIT firewall.
    FirewallRejections,
    /// Processors killed by fault containment.
    DeadProcs,
    /// Translations served from the per-processor run memo instead of a
    /// fresh TLB/kernel lookup (trace-ingest batching hit-rate).
    BatchedLookups,
}

impl Ctr {
    const NAMES: [(Ctr, &'static str); 14] = [
        (Ctr::TotalRefs, "total-refs"),
        (Ctr::RemoteMisses, "remote-misses"),
        (Ctr::RemoteUpgrades, "remote-upgrades"),
        (Ctr::LocalFills, "local-fills"),
        (Ctr::SiblingFills, "sibling-fills"),
        (Ctr::PageOutLines, "page-out-lines"),
        (Ctr::HomePageOuts, "home-page-outs"),
        (Ctr::Invalidations, "invalidations"),
        (Ctr::RemoteWritebacks, "remote-writebacks"),
        (Ctr::Migrations, "migrations"),
        (Ctr::Forwards, "forwards"),
        (Ctr::FirewallRejections, "firewall-rejections"),
        (Ctr::DeadProcs, "dead-procs"),
        (Ctr::BatchedLookups, "batched-lookups"),
    ];
}

/// A structural event retained on the bus's ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsEvent {
    /// A node failed permanently (scheduled fault or direct injection).
    NodeFailed {
        /// The failed node.
        node: NodeId,
    },
    /// A processor was killed by fault containment.
    ProcKilled {
        /// The node of the killed processor.
        node: NodeId,
        /// Node-local processor index.
        proc: usize,
    },
    /// A page's dynamic home moved.
    Migration {
        /// The migrated page.
        gpage: GlobalPage,
        /// Previous dynamic home.
        from: NodeId,
        /// New dynamic home.
        to: NodeId,
    },
    /// A dead dynamic home's page was re-mastered at its static home.
    Failover {
        /// The recovered page.
        gpage: GlobalPage,
        /// The static home that adopted the page.
        to: NodeId,
    },
    /// A client PIT entry was scrambled by a scheduled fault.
    PitCorrupted {
        /// The node whose PIT was corrupted.
        node: NodeId,
    },
    /// A line was wedged in the Transit tag by a scheduled fault.
    TransitWedge {
        /// The node holding the wedged line.
        node: NodeId,
    },
    /// The watchdog recovered a wedged line.
    WatchdogRecovery {
        /// The node whose line was recovered.
        node: NodeId,
        /// True when recovery required re-mastering the page.
        remastered: bool,
    },
    /// The online coherence auditor completed a sweep.
    AuditSweep {
        /// Findings recorded by this sweep (new ones only).
        findings: u64,
    },
}

/// A footprint-ledger invalidation: some machine transition changed a
/// page's possible destination set (or a node's eviction/write-back
/// closure), so window cursors and `(node, vpage)` footprint memos
/// derived from the old state must not be reused.
///
/// Emitted by the same txn/paging/sched code paths that perform the
/// transition — directory client admission, migration re-mastering,
/// failover, PIT corruption, page-cache eviction, LA-NUMA write-back —
/// and drained by the epoch executor before each scan
/// ([`crate::fp_ledger::FootprintLedger::apply`]). Recording is gated
/// on [`EventBus::inval_enabled`] so the serial schedulers pay one
/// branch and no allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CursorInval {
    /// The page's home moved (migration or failover re-mastering):
    /// every node's memo for this virtual page is stale, and so is
    /// every node's eviction/write-back closure (closures embed the
    /// homes of cached pages).
    HomeMoved {
        /// Shared virtual page number of the re-mastered page.
        vpage: u64,
    },
    /// The page's destination set grew (a new directory client, or a
    /// new traffic requester that migration could pick as a target):
    /// every node's memo for this virtual page is stale.
    PageDest {
        /// Shared virtual page number of the affected page.
        vpage: u64,
    },
    /// One node's view of one page changed (PIT corruption scrambling
    /// its dynamic-home hint, a page-cache eviction dropping its
    /// mapping, an LA-NUMA write-back or unmap): exactly that node's
    /// memo for that virtual page is stale.
    NodePage {
        /// The node whose PIT/page-cache entry changed.
        node: usize,
        /// Shared virtual page number of the affected page.
        vpage: u64,
    },
    /// One node's eviction/write-back closure changed (a page entered
    /// or left its page cache or LA-NUMA mapping set): the ledger's
    /// cached closure for the node is stale. Applied lazily through the
    /// ledger's per-node generation counter.
    NodeClosure {
        /// The node whose closure changed.
        node: usize,
        /// True when the closure's member set may have *grown* (a page
        /// entered the cache/mapping set). A pure shrink (eviction,
        /// unmap) leaves old cursors holding a superset closure — sound
        /// for admission — so the ledger drops its cached value without
        /// bumping the node generation, and cursors survive the churn.
        grew: bool,
    },
}

/// Wall-clock nanoseconds the epoch executor spent per pipeline stage,
/// accumulated across the run: window scanning, disjoint-footprint
/// admission, worker execution (dispatch to last join), and shell
/// merging. Recording is gated on [`EventBus::stage_enabled`] — host
/// clocks are nondeterministic, so the fields stay zero (and the debug
/// report byte-stable) unless a bench explicitly opts in via
/// `MachineConfig::stage_timing`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Nanoseconds spent scanning trace windows (ledger lookups and
    /// full scans included).
    pub scan_ns: u64,
    /// Nanoseconds spent in disjoint-footprint admission and group
    /// partitioning.
    pub admit_ns: u64,
    /// Nanoseconds from first dispatch to last worker join.
    pub execute_ns: u64,
    /// Nanoseconds spent merging shell machines back, in admission
    /// order.
    pub merge_ns: u64,
}

impl StageTimes {
    /// Accumulates another breakdown into this one.
    pub(crate) fn add(&mut self, other: StageTimes) {
        self.scan_ns += other.scan_ns;
        self.admit_ns += other.admit_ns;
        self.execute_ns += other.execute_ns;
        self.merge_ns += other.merge_ns;
    }
}

/// The machine-wide observability bus (see module docs).
#[derive(Clone, Debug)]
pub(crate) struct EventBus {
    counters: CounterRegistry,
    ring: EventRing<(Cycle, ObsEvent)>,
    /// Latency distribution of misses filled locally.
    pub(crate) local_fill_latency: Histogram,
    /// Latency distribution of remote fetches.
    pub(crate) remote_fetch_latency: Histogram,
    /// Latency distribution of page faults.
    pub(crate) fault_latency: Histogram,
    /// Fault-injection accounting; written through
    /// [`crate::machine::Machine::freport`] only while a plan is
    /// installed, so it stays all-zero on fault-free machines.
    pub(crate) fault: FaultReport,
    /// Findings accumulated by the online coherence auditor.
    pub(crate) findings: Vec<AuditFinding>,
    /// Completed auditor sweeps.
    pub(crate) sweeps: u64,
    /// Pending footprint-ledger invalidations (see [`CursorInval`]).
    /// Only populated while `inval_enabled`; the epoch executor drains
    /// it before every scan.
    inval: Vec<CursorInval>,
    /// Whether [`EventBus::note_inval`] records anything. True only on
    /// the `ParallelHeap` run loop (parent machine and shells alike);
    /// the serial schedulers have no ledger to invalidate.
    inval_enabled: bool,
    /// Per-stage wall-clock accounting for the epoch executor; all
    /// zeros unless `stage_enabled`.
    pub(crate) stage: StageTimes,
    /// Whether the epoch executor samples host clocks into `stage`.
    /// Off by default: host timings are nondeterministic, and the
    /// debug report must stay byte-stable for golden and chaos replay.
    stage_enabled: bool,
}

impl EventBus {
    pub(crate) fn new() -> EventBus {
        let mut counters = CounterRegistry::new();
        for (c, name) in Ctr::NAMES {
            let idx = counters.register(name);
            debug_assert_eq!(idx, c as usize, "Ctr indices must stay dense");
        }
        EventBus {
            counters,
            ring: EventRing::new(RING_CAPACITY),
            local_fill_latency: Histogram::new("local-fill"),
            remote_fetch_latency: Histogram::new("remote-fetch"),
            fault_latency: Histogram::new("page-fault"),
            fault: FaultReport::default(),
            findings: Vec::new(),
            sweeps: 0,
            inval: Vec::new(),
            inval_enabled: false,
            stage: StageTimes::default(),
            stage_enabled: false,
        }
    }

    /// A bus with ledger-invalidation recording preset (shell machines
    /// inherit the parent's setting so hooks fired inside an epoch are
    /// captured and merged back).
    pub(crate) fn new_with_inval(enabled: bool) -> EventBus {
        let mut bus = EventBus::new();
        bus.inval_enabled = enabled;
        bus
    }

    /// Turns ledger-invalidation recording on or off; disabling drops
    /// anything still queued.
    pub(crate) fn set_inval_enabled(&mut self, enabled: bool) {
        self.inval_enabled = enabled;
        if !enabled {
            self.inval.clear();
        }
    }

    /// Whether this bus records ledger invalidations.
    pub(crate) fn inval_enabled(&self) -> bool {
        self.inval_enabled
    }

    /// Records a footprint-ledger invalidation (no-op unless enabled).
    #[inline]
    pub(crate) fn note_inval(&mut self, ev: CursorInval) {
        if self.inval_enabled {
            self.inval.push(ev);
        }
    }

    /// Takes every pending ledger invalidation, oldest first.
    pub(crate) fn drain_inval(&mut self) -> Vec<CursorInval> {
        std::mem::take(&mut self.inval)
    }

    /// Turns stage-timing capture on or off; disabling zeroes anything
    /// already accumulated.
    pub(crate) fn set_stage_enabled(&mut self, enabled: bool) {
        self.stage_enabled = enabled;
        if !enabled {
            self.stage = StageTimes::default();
        }
    }

    /// Whether the epoch executor should sample host clocks.
    #[inline]
    pub(crate) fn stage_enabled(&self) -> bool {
        self.stage_enabled
    }

    /// Takes the accumulated stage breakdown, leaving zeros behind.
    pub(crate) fn take_stage(&mut self) -> StageTimes {
        std::mem::take(&mut self.stage)
    }

    /// Increments a counter by one.
    #[inline]
    pub(crate) fn incr(&mut self, c: Ctr) {
        self.counters.add(c as usize, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub(crate) fn add(&mut self, c: Ctr, n: u64) {
        self.counters.add(c as usize, n);
    }

    /// Current counter value.
    #[inline]
    pub(crate) fn get(&self, c: Ctr) -> u64 {
        self.counters.get(c as usize)
    }

    /// Publishes a structural event to the ring.
    pub(crate) fn emit(&mut self, at: Cycle, ev: ObsEvent) {
        self.ring.push((at, ev));
    }

    /// Retained structural events, oldest first.
    pub(crate) fn recent(&self) -> Vec<(Cycle, ObsEvent)> {
        self.ring.iter().copied().collect()
    }

    /// Folds a worker's bus into this one: counters add index-by-index,
    /// the latency histograms merge, the fault accounting absorbs
    /// additively, and any structural events append in call order —
    /// the epoch executor merges shells in admission order, so the ring
    /// stays in the serial emission order.
    ///
    /// Worker batches never run the auditor (shells disable it), so a
    /// worker bus's findings and sweep count must still be empty —
    /// merging debug-asserts that invariant.
    pub(crate) fn merge_from(&mut self, worker: &EventBus) {
        debug_assert!(worker.findings.is_empty(), "worker recorded audit findings");
        debug_assert_eq!(worker.sweeps, 0, "worker ran audit sweeps");
        self.counters.merge(&worker.counters);
        self.local_fill_latency.merge(&worker.local_fill_latency);
        self.remote_fetch_latency
            .merge(&worker.remote_fetch_latency);
        self.fault_latency.merge(&worker.fault_latency);
        self.fault.absorb(&worker.fault);
        for &(at, ev) in worker.ring.iter() {
            self.ring.push((at, ev));
        }
        self.inval.extend_from_slice(&worker.inval);
        self.stage.add(worker.stage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_dense_and_named() {
        let mut bus = EventBus::new();
        bus.incr(Ctr::RemoteMisses);
        bus.add(Ctr::RemoteMisses, 2);
        assert_eq!(bus.get(Ctr::RemoteMisses), 3);
        assert_eq!(bus.get(Ctr::TotalRefs), 0);
    }

    #[test]
    fn ring_retains_structural_events() {
        let mut bus = EventBus::new();
        bus.emit(Cycle(7), ObsEvent::NodeFailed { node: NodeId(2) });
        let evs = bus.recent();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].0, Cycle(7));
        assert_eq!(evs[0].1, ObsEvent::NodeFailed { node: NodeId(2) });
    }
}
