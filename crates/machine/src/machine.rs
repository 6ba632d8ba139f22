//! The machine: node assembly, workload loading, and job composition.
//!
//! The `Machine` itself is deliberately thin — a container of nodes plus
//! the cross-node state (homes, barriers, locks, shadow, fault plan) —
//! with the engine split into three layers:
//!
//! * [`crate::sched`] — the deterministic run loop: a binary-heap ready
//!   queue picks the earliest runnable processor, and fault/watchdog/
//!   audit sweeps fire as scheduled control events.
//! * [`crate::txn`] — protocol transactions (local fills, remote
//!   misses, migrations, failovers) as typed pipelines driven by
//!   `access`/`remote`.
//! * [`crate::obs`] — the event bus all statistics, fault accounting,
//!   and audit findings flow through; [`crate::report`] snapshots it
//!   into a [`RunReport`].

use std::collections::HashMap;

use prism_kernel::ipc::{GlobalIpc, HomeMap};
use prism_kernel::kernel::{Kernel, KernelConfig};
use prism_mem::addr::{GlobalPage, NodeId, NodeSet};
use prism_mem::trace::Trace;
use prism_protocol::msg::TrafficLedger;
use prism_sim::sync::{BarrierSet, LockSet};
use prism_sim::Cycle;

use prism_kernel::policy::PagePolicy;

use crate::config::MachineConfig;
use crate::faults::{FaultPlan, FaultPlanError, FaultReport, FaultState, Journal};
use crate::fp_ledger::FootprintLedger;
use crate::ingest::IngestIndex;
use crate::node::{Node, ProcState};
use crate::obs::{EventBus, ObsEvent};
use crate::par::ParallelFallback;
use crate::report::RunReport;
use crate::sched::Sched;
use crate::shadow::Shadow;

/// A simulated PRISM machine.
///
/// Build one from a [`MachineConfig`], then [`Machine::run`] a workload
/// trace. The machine advances processors in a conservative deterministic
/// interleaving: the runnable processor with the earliest clock executes
/// next, so identical configurations produce identical results.
///
/// # Example
///
/// ```
/// use prism_machine::config::MachineConfig;
/// use prism_machine::machine::Machine;
/// use prism_mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};
/// use prism_mem::addr::VirtAddr;
///
/// let cfg = MachineConfig::builder().nodes(2).procs_per_node(1).build();
/// let trace = Trace {
///     name: "demo".into(),
///     segments: vec![SegmentSpec { name: "d".into(), va_base: SHARED_BASE, bytes: 4096 }],
///     lanes: vec![
///         vec![Op::Write(VirtAddr(SHARED_BASE)), Op::Barrier(0)],
///         vec![Op::Barrier(0), Op::Read(VirtAddr(SHARED_BASE))],
///     ],
/// };
/// let report = Machine::new(cfg).run(&trace);
/// assert!(report.exec_cycles.as_u64() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) nodes: Vec<Node>,
    /// Barrier scopes: one `(lane range, barrier set)` per job. A single
    /// machine-wide group unless [`Machine::run_jobs`] installed several.
    pub(crate) barrier_groups: Vec<(std::ops::Range<usize>, BarrierSet)>,
    pub(crate) locks: LockSet,
    pub(crate) dyn_homes: HashMap<GlobalPage, NodeId>,
    pub(crate) ipc: GlobalIpc,
    pub(crate) homes: HomeMap,
    pub(crate) ledger: TrafficLedger,
    /// The observability bus: counters, latency histograms, fault
    /// accounting, audit findings, and the structural event ring.
    pub(crate) obs: EventBus,
    /// The heap scheduler's ready queue and control-event queue.
    pub(crate) sched: Sched,
    pub(crate) shadow: Option<Shadow>,
    pub(crate) fault: Option<FaultState>,
    /// Dirty-line coverage at static homes under an eager
    /// [`crate::faults::JournalPolicy`] (`None` when journaling is off).
    pub(crate) journal: Option<Journal>,
    /// Cycle the next periodic audit sweep is due (`u64::MAX` when off).
    pub(crate) next_audit: u64,
    /// Every node that has ever mastered a page (static home included):
    /// the set of *legal* stale dynamic-home hints, letting the auditor
    /// distinguish lazy-migration staleness from corruption.
    pub(crate) former_homes: HashMap<GlobalPage, NodeSet>,
    pub(crate) workload_name: String,
    /// True once the user suggested page/region modes; the parallel
    /// scheduler's eligibility gate treats such machines as opaque.
    pub(crate) mode_prefs_set: bool,
    /// Same-page run-length index of the loaded trace (trace-ingest
    /// batching); shared with parallel-worker shells.
    pub(crate) ingest: std::sync::Arc<IngestIndex>,
    /// True when the configuration guarantees translations are stable
    /// for the whole run, letting run continuations reuse the
    /// per-processor translation memo.
    pub(crate) fast_xlat: bool,
    /// Epoch/fallback accounting for the parallel scheduler (all zeros
    /// under the serial schedulers); snapshotted into the [`RunReport`].
    pub(crate) par_fallback: ParallelFallback,
    /// Persistent window cursors + page-footprint memo for the parallel
    /// scheduler's epoch formation (see [`crate::fp_ledger`]).
    pub(crate) fp_ledger: FootprintLedger,
}

impl Machine {
    /// Assembles an idle machine.
    pub fn new(cfg: MachineConfig) -> Machine {
        cfg.validate();
        let homes = HomeMap::new(cfg.nodes as u16);
        let nodes = (0..cfg.nodes)
            .map(|n| {
                let kcfg = KernelConfig {
                    real_frames: cfg.frames_per_node,
                    page_cache_capacity: cfg.page_cache_capacity,
                    policy: cfg.policy,
                    home_status_flag: cfg.home_status_flag,
                    renuma_threshold: cfg.renuma_threshold,
                };
                let kernel = Kernel::new(NodeId(n as u16), kcfg, homes.clone(), cfg.geometry);
                Node::new(NodeId(n as u16), &cfg, kernel)
            })
            .collect();
        let total = cfg.total_procs();
        let shadow = cfg.check_coherence.then(Shadow::new);
        let journal = cfg.journal.enabled().then(Journal::default);
        let next_audit = cfg.audit_interval.unwrap_or(u64::MAX);
        Machine {
            cfg,
            nodes,
            barrier_groups: vec![(0..total, BarrierSet::new(total))],
            locks: LockSet::new(),
            dyn_homes: HashMap::new(),
            ipc: GlobalIpc::new(),
            homes,
            ledger: TrafficLedger::new(),
            obs: EventBus::new(),
            sched: Sched::default(),
            shadow,
            fault: None,
            journal,
            next_audit,
            former_homes: HashMap::new(),
            workload_name: String::new(),
            mode_prefs_set: false,
            ingest: std::sync::Arc::new(IngestIndex::default()),
            fast_xlat: false,
            par_fallback: ParallelFallback::default(),
            fp_ledger: FootprintLedger::default(),
        }
    }

    /// Installs a fault-injection plan for subsequent runs. The plan's
    /// link faults, slow episodes, and scheduled failures apply from the
    /// current simulated time onward; the accumulated [`FaultReport`]
    /// appears in the next run's [`RunReport`].
    ///
    /// # Errors
    ///
    /// Returns a [`FaultPlanError`] — and leaves any previously installed
    /// plan in place — when the plan is structurally invalid for this
    /// machine: faults targeting out-of-range nodes, overlapping
    /// slow-node episodes, or injection clocks that can never be reached.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        plan.validate(self.cfg.nodes)?;
        self.fault = Some(FaultState::new(plan));
        self.obs.fault = FaultReport::default();
        Ok(())
    }

    /// The fault accounting so far (empty when no plan is installed).
    /// Journal record counts come from the journal itself, so they are
    /// reported even when journaling runs without a fault plan.
    pub fn fault_report(&self) -> FaultReport {
        let mut r = if self.fault.is_some() {
            self.obs.fault
        } else {
            FaultReport::default()
        };
        if let Some(j) = self.journal.as_ref() {
            r.journal_records = j.total_records();
        }
        r
    }

    /// Updates the fault accounting on the event bus, if fault injection
    /// is active. The gate matters: recovery paths (e.g. `fail_node`
    /// called directly by tests) must not fabricate a fault report on
    /// machines without a plan.
    pub(crate) fn freport(&mut self, f: impl FnOnce(&mut FaultReport)) {
        if self.fault.is_some() {
            f(&mut self.obs.fault);
        }
    }

    /// Structural events retained on the observability bus (node
    /// failures, migrations, failovers, watchdog recoveries, audit
    /// sweeps), oldest first.
    pub fn recent_events(&self) -> Vec<(Cycle, ObsEvent)> {
        self.obs.recent()
    }

    /// Page-frame conservation audit: every real frame of every node is
    /// owned by exactly one of the free list and the live-class map, the
    /// two sum to the node's total, and the shared-memory owners agree —
    /// a client page-cache entry sits on a `ScomaClient` frame, a
    /// directory entry's home frame is the `ScomaHome` frame the kernel
    /// has the page resident on. Returns one line per violation (empty =
    /// conserved). Cross-structure checks are skipped on failed nodes,
    /// whose kernels are dead and legitimately out of sync with the
    /// state their survivors adopted.
    pub fn page_accounting_violations(&self) -> Vec<String> {
        use prism_mem::frames::FrameClass;
        let mut violations = Vec::new();
        for node in &self.nodes {
            let n = node.id.0;
            let pool = node.kernel.pool();
            let mut free_seen = std::collections::HashSet::new();
            for f in pool.free_frames() {
                if f.is_imaginary() {
                    violations.push(format!("node {n}: imaginary frame {f} on the free list"));
                }
                if !free_seen.insert(f) {
                    violations.push(format!("node {n}: frame {f} on the free list twice"));
                }
                if let Some(class) = pool.class_of(f) {
                    violations.push(format!(
                        "node {n}: frame {f} is both free and live as {class:?}"
                    ));
                }
            }
            if free_seen.len() + pool.active_real() != pool.total_real() {
                violations.push(format!(
                    "node {n}: {} free + {} live real frames != {} total",
                    free_seen.len(),
                    pool.active_real(),
                    pool.total_real()
                ));
            }
            if node.failed {
                continue;
            }
            for gp in node.kernel.page_cache_pages() {
                let cp = node
                    .kernel
                    .client_page(gp)
                    .expect("cached page has a record");
                match pool.class_of(cp.frame) {
                    Some(FrameClass::ScomaClient) => {}
                    other => violations.push(format!(
                        "node {n}: page-cache entry {gp} on frame {} of class {other:?}",
                        cp.frame
                    )),
                }
            }
            for (gp, pd) in node.controller.dir.iter() {
                match pool.class_of(pd.home_frame) {
                    Some(FrameClass::ScomaHome) => {}
                    other => violations.push(format!(
                        "node {n}: directory home frame {} of {gp} has class {other:?}",
                        pd.home_frame
                    )),
                }
                if node.kernel.home_frame_of(*gp) != Some(pd.home_frame) {
                    violations.push(format!(
                        "node {n}: directory homes {gp} on frame {} but the kernel has {:?}",
                        pd.home_frame,
                        node.kernel.home_frame_of(*gp)
                    ));
                }
            }
            for (gp, frame) in node.kernel.resident_home_pages() {
                if node.controller.dir.page(gp).is_none() {
                    violations.push(format!(
                        "node {n}: {gp} resident as home on frame {frame} with no directory entry"
                    ));
                }
            }
        }
        violations
    }

    /// Live real (memory-consuming) frames across every node — at least
    /// one per node, since the kernel↔controller command frame is
    /// allocated at boot and never freed.
    pub fn frames_active(&self) -> u64 {
        self.nodes
            .iter()
            .map(|node| node.kernel.pool().active_real() as u64)
            .sum()
    }

    /// The latency multiplier a slow-node episode imposes on `node` at
    /// time `t` (1 when no episode is active).
    pub(crate) fn slow_factor(&self, node: usize, t: Cycle) -> u64 {
        self.fault
            .as_ref()
            .map_or(1, |f| f.plan.slow_factor(NodeId(node as u16), t))
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    pub(crate) fn ppn(&self) -> usize {
        self.cfg.procs_per_node
    }

    pub(crate) fn split_flat(&self, flat: usize) -> (usize, usize) {
        (flat / self.ppn(), flat % self.ppn())
    }

    pub(crate) fn flat(&self, node: usize, proc: usize) -> usize {
        node * self.ppn() + proc
    }

    /// Processor id range of a node, for shadow freshness queries.
    pub(crate) fn node_proc_range(&self, node: usize) -> std::ops::Range<u16> {
        let base = (node * self.ppn()) as u16;
        base..base + self.ppn() as u16
    }

    /// Processors in `range` that can still execute.
    pub(crate) fn live_in_range(&self, range: std::ops::Range<usize>) -> usize {
        range
            .filter(|&flat| {
                let (n, pi) = self.split_flat(flat);
                self.nodes[n].procs[pi].state != ProcState::Dead
            })
            .count()
    }

    /// The user-level page-mode suggestion system call (paper §3.3: "The
    /// OS also provides a system call for the user to suggest the desired
    /// mode"): future faults on `gpage` at `node` allocate the suggested
    /// mode. Takes effect at the next fault; an existing mapping is not
    /// disturbed.
    ///
    /// # Panics
    ///
    /// Panics if the mode is not a shared client mode (S-COMA or
    /// LA-NUMA).
    pub fn suggest_page_mode(
        &mut self,
        node: prism_mem::addr::NodeId,
        gpage: GlobalPage,
        mode: prism_mem::mode::FrameMode,
    ) {
        assert!(
            mode.is_shared(),
            "only S-COMA or LA-NUMA can be suggested for shared pages"
        );
        self.mode_prefs_set = true;
        self.nodes[node.0 as usize]
            .kernel
            .set_mode_pref(gpage, mode);
    }

    /// Suggests a mode for every page of a virtual address range on
    /// every node (the common "this region is streaming" use).
    ///
    /// # Panics
    ///
    /// Panics as [`Machine::suggest_page_mode`] does, or if the range is
    /// not bound to a global segment.
    pub fn suggest_region_mode(
        &mut self,
        va_base: u64,
        bytes: u64,
        mode: prism_mem::mode::FrameMode,
    ) {
        let geom = self.cfg.geometry;
        let pages = geom.pages_for(bytes);
        self.mode_prefs_set = true;
        for p in 0..pages {
            let va = prism_mem::addr::VirtAddr(va_base + p * geom.page_bytes());
            let gp = self.nodes[0]
                .kernel
                .resolve(va)
                .unwrap_or_else(|| panic!("{va} is not bound to a global segment"));
            for n in 0..self.cfg.nodes {
                self.nodes[n].kernel.set_mode_pref(gp, mode);
            }
        }
    }

    /// Restricts a segment's pages to a node range (OS page placement;
    /// also applied automatically per job by [`Machine::run_jobs`]).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds the machine.
    pub fn place_segment(&mut self, gsid: u32, first_node: u16, node_count: u16) {
        self.homes.place_segment(gsid, first_node, node_count);
        for node in &mut self.nodes {
            node.kernel.place_segment(gsid, first_node, node_count);
        }
    }

    /// The index of the barrier group containing processor `flat`.
    pub(crate) fn barrier_group_of(&self, flat: usize) -> usize {
        self.barrier_groups
            .iter()
            .position(|(range, _)| range.contains(&flat))
            .expect("every processor belongs to a barrier group")
    }

    /// Resolves a page's current dynamic home (defaults to the static
    /// home).
    pub(crate) fn resolve_dyn_home(&self, gpage: GlobalPage) -> NodeId {
        self.dyn_homes
            .get(&gpage)
            .copied()
            .unwrap_or_else(|| self.homes.static_home(gpage))
    }

    /// Line-addressing helper: the node-local cache key of a line.
    pub(crate) fn line_key(
        &self,
        frame: prism_mem::addr::FrameNo,
        line: prism_mem::addr::LineIdx,
    ) -> u64 {
        frame.0 as u64 * self.cfg.geometry.lines_per_page() as u64 + line.0 as u64
    }

    /// Loads a trace: registers segments with the IPC server and attaches
    /// them on every kernel (identical virtual addresses on every node).
    fn load(&mut self, trace: &Trace) {
        assert_eq!(
            trace.lanes.len(),
            self.cfg.total_procs(),
            "trace was generated for {} processors, machine has {}",
            trace.lanes.len(),
            self.cfg.total_procs()
        );
        self.workload_name = trace.name.clone();
        let live = self.live_in_range(0..self.cfg.total_procs());
        self.barrier_groups = vec![(0..self.cfg.total_procs(), BarrierSet::new(live.max(1)))];
        // Re-running on a warm machine (e.g. after a home page-out):
        // lane positions restart; caches, kernels, clocks, and statistics
        // carry over. Dead processors stay dead.
        for node in &mut self.nodes {
            for p in &mut node.procs {
                p.pc = 0;
                p.xlat_memo = None;
                if p.state != ProcState::Dead {
                    p.state = ProcState::Ready;
                }
            }
        }
        // Trace-ingest batching: index same-page runs once, and decide
        // whether translations are stable enough for run continuations
        // to reuse the memoized one. Fault plans can kill processors
        // mid-access, migration and page-cache pressure can remap pages,
        // and non-S-COMA policies convert frame modes — any of those
        // disables reuse (the index itself is still reported).
        self.ingest = std::sync::Arc::new(IngestIndex::build(trace, self.cfg.geometry));
        self.fast_xlat = self.fault.is_none()
            && self.cfg.migration.is_none()
            && self.cfg.page_cache_capacity.is_none()
            && self.cfg.policy == PagePolicy::Scoma
            && !self.mode_prefs_set;
        for (i, seg) in trace.segments.iter().enumerate() {
            let pages = self.cfg.geometry.pages_for(seg.bytes) as u32;
            let gsid = self.ipc.shmget(i as u64, pages);
            for _ in 0..self.cfg.total_procs() {
                self.ipc.shmat(gsid);
            }
        }
        for node in &mut self.nodes {
            node.kernel.attach_segments(&trace.segments);
        }
    }

    /// Runs a trace to completion and reports results.
    ///
    /// # Panics
    ///
    /// Panics if the trace's lane count mismatches the machine, or if the
    /// trace deadlocks (blocked processors that can never be released).
    pub fn run(&mut self, trace: &Trace) -> RunReport {
        self.load(trace);
        self.run_loop(trace);
        self.finalize_report()
    }

    /// Runs several independent jobs side by side on this machine
    /// (space sharing): each job's lanes occupy a contiguous block of
    /// processors, its segments are relocated to a private range of the
    /// global address space, and its barriers are scoped to its own
    /// lanes. Fault containment means a failure taking down one job's
    /// resources leaves the others running.
    ///
    /// # Panics
    ///
    /// Panics if the combined lane count mismatches the machine or a job
    /// is malformed.
    pub fn run_jobs(&mut self, jobs: &[prism_mem::trace::Trace]) -> RunReport {
        let (combined, groups) = prism_mem::trace::compose_jobs(jobs, &self.cfg.geometry);
        // Which combined-segment indices (= gsids) belong to each job.
        let mut segment_groups: Vec<Vec<u32>> = Vec::new();
        let mut next_gsid = 0u32;
        for job in jobs {
            let ids: Vec<u32> = (next_gsid..next_gsid + job.segments.len() as u32).collect();
            next_gsid += job.segments.len() as u32;
            segment_groups.push(ids);
        }
        assert_eq!(
            combined.lanes.len(),
            self.cfg.total_procs(),
            "jobs declare {} lanes but the machine has {} processors",
            combined.lanes.len(),
            self.cfg.total_procs()
        );
        self.load(&combined);
        // OS page placement: each job's segments are homed on the job's
        // own nodes, so jobs are independent failure units (paper §1).
        let ppn = self.ppn();
        for (gsids, lanes) in segment_groups.iter().zip(groups.iter()) {
            let first_node = (lanes.start / ppn) as u16;
            let node_count = (lanes.end.div_ceil(ppn) - lanes.start / ppn) as u16;
            for &gsid in gsids {
                self.place_segment(gsid, first_node, node_count);
            }
        }
        self.barrier_groups = groups
            .into_iter()
            .map(|range| {
                let participants = self.live_in_range(range.clone()).max(1);
                (range, BarrierSet::new(participants))
            })
            .collect();
        self.run_loop(&combined);
        self.finalize_report()
    }
}
