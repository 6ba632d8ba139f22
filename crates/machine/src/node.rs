//! Processors and node assembly.

use prism_mem::addr::{FrameNo, NodeId, ProcId};
use prism_mem::cache::Cache;
use prism_mem::tlb::Tlb;
use prism_mem::FrameMode;
use prism_sim::{Cycle, Resource};

use prism_kernel::kernel::Kernel;

use crate::config::MachineConfig;
use crate::controller::Controller;

/// Run state of a simulated processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Executing its trace lane.
    Ready,
    /// Parked at a barrier or queued on a lock.
    Blocked,
    /// Lane exhausted.
    Finished,
    /// Killed by fault containment (its node failed, or it touched a
    /// page homed on a failed node).
    Dead,
}

/// One simulated processor: clock, caches, TLB, and lane position.
#[derive(Clone, Debug)]
pub struct Processor {
    /// Machine-global processor id.
    pub id: ProcId,
    /// The processor's local clock.
    pub clock: Cycle,
    /// Position in its trace lane.
    pub pc: usize,
    /// Run state.
    pub state: ProcState,
    /// L1 data cache.
    pub l1: Cache,
    /// L2 cache (inclusive of L1).
    pub l2: Cache,
    /// Translation lookaside buffer.
    pub tlb: Tlb,
    /// Last translation of the current same-page run, as
    /// `(vpage, frame, mode)` — trace-ingest batching lets subsequent
    /// references in the run reuse it instead of re-walking the TLB and
    /// kernel page tables (the lookups it skips are idempotent, so
    /// timing and statistics are unchanged).
    pub xlat_memo: Option<(u64, FrameNo, FrameMode)>,
}

impl Processor {
    /// Creates an idle processor per the machine configuration.
    pub fn new(id: ProcId, cfg: &MachineConfig) -> Processor {
        let line_log2 = cfg.geometry.line_log2();
        Processor {
            id,
            clock: Cycle::ZERO,
            pc: 0,
            state: ProcState::Ready,
            l1: Cache::new("L1", cfg.l1_bytes, cfg.l1_assoc, line_log2),
            l2: Cache::new("L2", cfg.l2_bytes, cfg.l2_assoc, line_log2),
            tlb: Tlb::new(cfg.tlb_entries),
            xlat_memo: None,
        }
    }

    /// True when the scheduler may pick this processor.
    pub fn runnable(&self) -> bool {
        self.state == ProcState::Ready
    }
}

/// One SMP node: processors, bus, memory, network interface, coherence
/// controller, and kernel.
#[derive(Clone, Debug)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// The node's processors.
    pub procs: Vec<Processor>,
    /// Split-transaction memory bus (occupancy resource).
    pub bus: Resource,
    /// Memory banks (occupancy resource).
    pub memory: Resource,
    /// Network interface (occupancy resource).
    pub ni: Resource,
    /// Coherence-controller protocol engine (occupancy resource).
    pub engine: Resource,
    /// Coherence controller state.
    pub controller: Controller,
    /// The node's kernel.
    pub kernel: Kernel,
    /// Set by failure injection; a failed node serves nothing.
    pub failed: bool,
}

impl Node {
    /// Assembles a node.
    pub fn new(id: NodeId, cfg: &MachineConfig, kernel: Kernel) -> Node {
        let first_proc = id.0 as usize * cfg.procs_per_node;
        Node {
            id,
            procs: (0..cfg.procs_per_node)
                .map(|i| Processor::new(ProcId((first_proc + i) as u16), cfg))
                .collect(),
            bus: Resource::new("bus"),
            memory: Resource::new("memory"),
            ni: Resource::new("ni"),
            engine: Resource::new("engine"),
            controller: Controller::new(
                cfg.frames_per_node,
                cfg.geometry.lines_per_page(),
                cfg.dir_cache_entries,
                cfg.dir_cache_assoc,
            ),
            kernel,
            failed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_kernel::ipc::HomeMap;
    use prism_kernel::kernel::KernelConfig;

    #[test]
    fn node_assembly_numbers_processors_globally() {
        let cfg = MachineConfig::builder().nodes(2).procs_per_node(3).build();
        let k = Kernel::new(
            NodeId(1),
            KernelConfig::default(),
            HomeMap::new(2),
            cfg.geometry,
        );
        let node = Node::new(NodeId(1), &cfg, k);
        let ids: Vec<u16> = node.procs.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![3, 4, 5]);
        assert!(node.procs.iter().all(|p| p.runnable()));
        assert!(!node.failed);
    }

    #[test]
    fn processor_caches_sized_from_config() {
        let cfg = MachineConfig::builder().l1_bytes(1024).l1_assoc(2).build();
        let p = Processor::new(ProcId(0), &cfg);
        assert_eq!(p.l1.capacity_lines(), 1024 / 64);
        assert_eq!(p.clock, Cycle::ZERO);
        assert_eq!(p.state, ProcState::Ready);
    }
}
