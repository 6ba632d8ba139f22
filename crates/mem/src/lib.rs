//! # prism-mem — memory-system data structures for the PRISM reproduction
//!
//! Everything stateful in PRISM's memory system lives here:
//!
//! * [`addr`] — the three address spaces (virtual, node-local physical,
//!   global), node/processor ids, and machine geometry.
//! * [`mode`] — page-frame modes (Local / S-COMA / LA-NUMA / Command /
//!   Sync), the heart of PRISM's flexibility (paper §3.2).
//! * [`cache`] — set-associative L1/L2 processor cache model.
//! * [`tlb`] — per-processor TLB (node-private translations only).
//! * [`tags`] — 2-bit fine-grain tags for S-COMA frames.
//! * [`pit`] — the Page Information Table with reverse-translation hints
//!   and firewall capabilities.
//! * [`directory`] — the home-node full-map line directory plus the
//!   8K-entry directory cache.
//! * [`frames`] — per-mode frame pools and utilization accounting.
//! * [`page_table`] — node-private page tables and virtual→global
//!   segment attachments.
//! * [`trace`] — the workload trace format consumed by the machine.
//! * [`trace_io`] — save/load traces in the compact `PRTR` binary format
//!   (trace-driven mode without regenerating workloads).
//!
//! These types are deliberately *passive*: protocol decisions live in
//! `prism-protocol`, policies in `prism-kernel`, and orchestration in
//! `prism-machine`, keeping each data structure independently testable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod cache;
pub mod directory;
pub mod frames;
pub mod mode;
pub mod page_table;
pub mod pit;
pub mod tags;
pub mod tlb;
pub mod trace;
pub mod trace_io;

pub use addr::{
    FrameNo, Geometry, GlobalLine, GlobalPage, Gsid, LineIdx, NodeId, NodeSet, PhysAddr, ProcId,
    VirtAddr,
};
pub use mode::FrameMode;
