//! Optional data-version tracking: asserts that every simulated read
//! observes the most recent write to its line.
//!
//! The simulator is timing/metadata only — no data moves — so protocol
//! bugs (a missing invalidation, a stale tag) would otherwise be
//! invisible. With checking enabled, every line carries a version number
//! that is bumped on writes and propagated along every data movement the
//! protocol performs (fills, interventions, writebacks, page-outs). A
//! read that observes anything other than the latest version panics with
//! a diagnostic.
//!
//! Lines are identified by their *virtual* line address (`va >> line_log2`),
//! which is a stable global identity: shared segments attach at identical
//! virtual addresses on every processor (paper §3.3) and private regions
//! are disjoint per processor.
//!
//! This module also hosts the **online coherence auditor**
//! ([`Machine::audit_sweep`]): a periodic structural sweep that
//! cross-checks the directory, the fine-grain TESI tags, the PIT, and
//! the write-back journal against each other, reporting
//! [`AuditFinding`]s in the run report instead of panicking. The shadow
//! checks *data versions* on the access path; the auditor checks
//! *metadata structure* between accesses — together they cover both
//! halves of the coherence state.

use std::collections::HashMap;
use std::fmt;

use prism_mem::addr::{FrameNo, GlobalPage, LineIdx, NodeId};
use prism_mem::directory::LineDir;
use prism_mem::tags::LineTag;
use prism_sim::Cycle;

use crate::machine::Machine;
use crate::obs::ObsEvent;

/// The version-tracking state (enabled by
/// [`crate::config::MachineConfig::check_coherence`]).
#[derive(Clone, Debug, Default)]
pub struct Shadow {
    /// Latest version written, per line id. Missing = 0 (initial data).
    latest: HashMap<u64, u64>,
    /// Version held in a processor's cache hierarchy (L1/L2 together).
    proc_copy: HashMap<(u16, u64), u64>,
    /// Version held in a node's memory (home memory, page cache, or
    /// private memory). Missing means *no copy* for client page caches,
    /// and *version 0* for authoritative memory (home / private), so the
    /// fill helpers take the authority into account.
    node_copy: HashMap<(u16, u64), u64>,
    /// Physical (node, cache line key) → line id, recorded at fill time
    /// so evictions can find the identity of the displaced line.
    lid_of: HashMap<(u16, u64), u64>,
    /// Reads checked.
    pub reads_checked: u64,
}

impl Shadow {
    /// Creates an empty tracker.
    pub fn new() -> Shadow {
        Shadow::default()
    }

    /// Debug aid: set `PRISM_TRACE_LID=<hex line id>` to print every
    /// shadow event for one line.
    fn trace(&self, lid: u64, what: &str) {
        static TARGET: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
        let target = TARGET.get_or_init(|| {
            std::env::var("PRISM_TRACE_LID")
                .ok()
                .and_then(|v| u64::from_str_radix(v.trim_start_matches("0x"), 16).ok())
        });
        if *target == Some(lid) {
            eprintln!("LID {lid:#x}: {what}");
        }
    }

    /// Latest version of a line (0 if never written).
    pub fn latest(&self, lid: u64) -> u64 {
        self.latest.get(&lid).copied().unwrap_or(0)
    }

    /// Associates a physical cache key with a line id (called on every
    /// access; cheap insert).
    pub fn note_lid(&mut self, node: u16, key: u64, lid: u64) {
        self.lid_of.insert((node, key), lid);
    }

    /// The line id a physical key was last associated with.
    pub fn lid_for(&self, node: u16, key: u64) -> Option<u64> {
        self.lid_of.get(&(node, key)).copied()
    }

    /// A processor writes the line (after the protocol granted
    /// exclusivity): bumps the global version.
    pub fn write(&mut self, proc: u16, lid: u64) {
        self.trace(
            lid,
            &format!("write by proc {proc} -> v{}", self.latest(lid) + 1),
        );
        let v = self.latest(lid) + 1;
        self.latest.insert(lid, v);
        self.proc_copy.insert((proc, lid), v);
    }

    /// A processor reads a line it already holds in cache.
    ///
    /// # Panics
    ///
    /// Panics if the held copy is stale.
    pub fn observe_hit(&mut self, proc: u16, lid: u64) {
        self.trace(
            lid,
            &format!(
                "observe_hit proc {proc} holds v{}",
                self.proc_version(proc, lid)
            ),
        );
        self.reads_checked += 1;
        let held = self.proc_copy.get(&(proc, lid)).copied().unwrap_or(0);
        let latest = self.latest(lid);
        assert_eq!(
            held, latest,
            "coherence violation: proc {proc} read v{held} of line {lid:#x}, latest is v{latest}"
        );
    }

    /// A processor fills a line from its node's memory (local memory,
    /// page cache, or home memory). `authoritative` is true when missing
    /// node state means "initial data, version 0" (home or private
    /// memory) rather than "no copy".
    ///
    /// # Panics
    ///
    /// Panics if the memory copy is stale or absent where one is required.
    pub fn fill_from_node_memory(&mut self, proc: u16, node: u16, lid: u64, authoritative: bool) {
        let v = match self.node_copy.get(&(node, lid)) {
            Some(&v) => v,
            None => {
                assert!(
                    authoritative,
                    "coherence violation: node {node} page cache has no copy of line {lid:#x}"
                );
                0
            }
        };
        let latest = self.latest(lid);
        assert_eq!(
            v, latest,
            "coherence violation: node {node} memory holds v{v} of line {lid:#x}, latest is v{latest}"
        );
        self.trace(
            lid,
            &format!("fill_from_node_memory proc {proc} node {node} v{v}"),
        );
        self.proc_copy.insert((proc, lid), v);
        self.reads_checked += 1;
    }

    /// A processor fills a line from a sibling processor's cache.
    ///
    /// # Panics
    ///
    /// Panics if the sibling copy is stale.
    pub fn fill_from_proc(&mut self, proc: u16, src: u16, lid: u64) {
        let v = self.proc_copy.get(&(src, lid)).copied().unwrap_or(0);
        let latest = self.latest(lid);
        assert_eq!(
            v, latest,
            "coherence violation: proc {src} supplied v{v} of line {lid:#x}, latest is v{latest}"
        );
        self.trace(lid, &format!("fill_from_proc {src} -> {proc} v{v}"));
        self.proc_copy.insert((proc, lid), v);
        self.reads_checked += 1;
    }

    /// The freshest version present anywhere on a node (its processors'
    /// caches and its memory). Used when a remote node supplies a line.
    pub fn freshest_at_node(&self, node: u16, procs: std::ops::Range<u16>, lid: u64) -> u64 {
        let mem = self.node_copy.get(&(node, lid)).copied().unwrap_or(0);
        procs
            .map(|p| self.proc_copy.get(&(p, lid)).copied().unwrap_or(0))
            .fold(mem, u64::max)
    }

    /// Installs a version fetched remotely into the requesting
    /// processor's cache (and optionally the node's page cache).
    ///
    /// # Panics
    ///
    /// Panics if the supplied version is stale.
    pub fn fill_remote(
        &mut self,
        proc: u16,
        node: u16,
        lid: u64,
        version: u64,
        into_page_cache: bool,
    ) {
        let latest = self.latest(lid);
        assert_eq!(
            version, latest,
            "coherence violation: remote fetch got v{version} of line {lid:#x}, latest is v{latest}"
        );
        self.trace(
            lid,
            &format!("fill_remote proc {proc} node {node} v{version} pc={into_page_cache}"),
        );
        self.proc_copy.insert((proc, lid), version);
        if into_page_cache {
            self.node_copy.insert((node, lid), version);
        }
        self.reads_checked += 1;
    }

    /// A dirty line leaves a processor for its node's memory (local
    /// writeback) or another node's memory (LA-NUMA writeback).
    pub fn writeback(&mut self, proc: u16, dst_node: u16, lid: u64) {
        self.trace(
            lid,
            &format!(
                "writeback proc {proc} -> node {dst_node} v{}",
                self.proc_version(proc, lid)
            ),
        );
        if let Some(&v) = self.proc_copy.get(&(proc, lid)) {
            self.node_copy.insert((dst_node, lid), v);
        }
    }

    /// Copies a node's memory version to another node's memory (3-party
    /// read refreshing home memory, page-out flush, migration transfer).
    pub fn copy_node_to_node(&mut self, src: u16, dst: u16, lid: u64) {
        if let Some(&v) = self.node_copy.get(&(src, lid)) {
            self.node_copy.insert((dst, lid), v);
        }
    }

    /// Sets a node's memory copy to an explicit version.
    pub fn set_node_copy(&mut self, node: u16, lid: u64, version: u64) {
        self.node_copy.insert((node, lid), version);
    }

    /// A processor's last copy of the line is gone.
    pub fn drop_proc(&mut self, proc: u16, lid: u64) {
        self.trace(lid, &format!("drop_proc {proc}"));
        self.proc_copy.remove(&(proc, lid));
    }

    /// A node's memory copy of the line is invalidated.
    pub fn drop_node(&mut self, node: u16, lid: u64) {
        self.trace(lid, &format!("drop_node {node}"));
        self.node_copy.remove(&(node, lid));
    }

    /// The version a processor currently holds (0 if none).
    pub fn proc_version(&self, proc: u16, lid: u64) -> u64 {
        self.proc_copy.get(&(proc, lid)).copied().unwrap_or(0)
    }
}

/// The class of structural inconsistency an audit sweep found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditKind {
    /// A home frame (directory-resident page) has no PIT entry.
    MissingPitBinding,
    /// A home frame's PIT entry names a different global page than the
    /// directory that points at the frame.
    PitPageMismatch,
    /// A home frame's PIT entry does not name this node as the dynamic
    /// home, yet the directory lives here.
    PitHomeMismatch,
    /// A PIT entry's static-home field disagrees with the global home
    /// map (static homes never move).
    StaticHomeMismatch,
    /// A client PIT entry's dynamic-home hint names a node that was
    /// never a home of the page — stale hints are legal (lazy
    /// migration), fabricated ones are not.
    IllegalDynHomeHint,
    /// The static home's record of the current dynamic home points at a
    /// node whose directory does not hold the page.
    DynHomeMapMismatch,
    /// A home frame's fine-grain tag claims a valid copy for a line the
    /// directory says a remote node owns (or exclusivity while remote
    /// sharers exist).
    TagDirectoryMismatch,
    /// A line sits in the Transit tag with no watchdog clock running —
    /// nothing would ever recover it.
    UntrackedTransit,
    /// A dirty line at a migrated dynamic home has no covering journal
    /// record: a failover here would silently lose it.
    JournalBehind,
}

impl fmt::Display for AuditKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AuditKind::MissingPitBinding => "missing-pit-binding",
            AuditKind::PitPageMismatch => "pit-page-mismatch",
            AuditKind::PitHomeMismatch => "pit-home-mismatch",
            AuditKind::StaticHomeMismatch => "static-home-mismatch",
            AuditKind::IllegalDynHomeHint => "illegal-dyn-home-hint",
            AuditKind::DynHomeMapMismatch => "dyn-home-map-mismatch",
            AuditKind::TagDirectoryMismatch => "tag-directory-mismatch",
            AuditKind::UntrackedTransit => "untracked-transit",
            AuditKind::JournalBehind => "journal-behind",
        };
        f.write_str(s)
    }
}

/// One structural inconsistency reported by the online coherence
/// auditor.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditFinding {
    /// Cycle of the sweep that (first) observed the inconsistency.
    pub at: Cycle,
    /// The node whose structures disagree.
    pub node: NodeId,
    /// The page involved, when one could be identified.
    pub gpage: Option<GlobalPage>,
    /// The inconsistency class.
    pub kind: AuditKind,
    /// Human-readable specifics (frame, line, the disagreeing values).
    pub detail: String,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] node {} {}: {}",
            self.at.as_u64(),
            self.node.0,
            self.kind,
            self.detail
        )
    }
}

impl Machine {
    /// One pass of the online coherence auditor: cross-checks, on every
    /// live node, the directory against the PIT, the fine-grain tags,
    /// the dynamic-home map, and the write-back journal. Findings are
    /// accumulated (deduplicated across sweeps) into the run report —
    /// the auditor observes and reports; it never panics and never
    /// repairs.
    ///
    /// Every sweep is exhaustive: every directory page, every PIT entry,
    /// and every Transit line on every live node. Pages and PIT entries
    /// are visited in sorted order so findings land in the report in a
    /// deterministic order.
    pub(crate) fn audit_sweep(&mut self, now: Cycle) {
        self.obs.sweeps += 1;
        let mut found: Vec<(NodeId, Option<GlobalPage>, AuditKind, String)> = Vec::new();
        for n in 0..self.cfg.nodes {
            if self.nodes[n].failed {
                continue;
            }
            self.audit_home_side(n, &mut found);
            self.audit_client_side(n, &mut found);
            self.audit_transit(n, &mut found);
        }
        let mut fresh = 0u64;
        for (node, gpage, kind, detail) in found {
            let dup = self.obs.findings.iter().any(|f| {
                f.node == node && f.gpage == gpage && f.kind == kind && f.detail == detail
            });
            if !dup {
                fresh += 1;
                self.obs.findings.push(AuditFinding {
                    at: now,
                    node,
                    gpage,
                    kind,
                    detail,
                });
            }
        }
        self.obs.emit(now, ObsEvent::AuditSweep { findings: fresh });
    }

    /// Home-side checks: every page whose directory lives on node `n`.
    fn audit_home_side(
        &self,
        n: usize,
        found: &mut Vec<(NodeId, Option<GlobalPage>, AuditKind, String)>,
    ) {
        let me = NodeId(n as u16);
        let ctl = &self.nodes[n].controller;
        let mut pages: Vec<GlobalPage> = ctl.dir.iter().map(|(gp, _)| *gp).collect();
        pages.sort_unstable();
        for gp in pages {
            let pd = ctl.dir.page(gp).expect("page just listed");
            let frame = pd.home_frame;
            // PIT binding backs the directory's frame.
            match ctl.pit.translate(frame) {
                None => {
                    found.push((
                        me,
                        Some(gp),
                        AuditKind::MissingPitBinding,
                        format!("directory for {gp} points at unbound frame {frame}"),
                    ));
                    continue;
                }
                Some(e) => {
                    if e.gpage != gp {
                        found.push((
                            me,
                            Some(gp),
                            AuditKind::PitPageMismatch,
                            format!("frame {frame} PIT names {}, directory names {gp}", e.gpage),
                        ));
                    }
                    if e.dyn_home != me {
                        found.push((
                            me,
                            Some(gp),
                            AuditKind::PitHomeMismatch,
                            format!(
                                "frame {frame} PIT dyn home {} but directory is local",
                                e.dyn_home.0
                            ),
                        ));
                    }
                    let stat = self.homes.static_home(gp);
                    if e.static_home != stat {
                        found.push((
                            me,
                            Some(gp),
                            AuditKind::StaticHomeMismatch,
                            format!(
                                "frame {frame} PIT static home {} vs home map {}",
                                e.static_home.0, stat.0
                            ),
                        ));
                    }
                }
            }
            // The machine-wide dynamic-home record must point back here.
            let resolved = self.resolve_dyn_home(gp);
            if resolved != me {
                found.push((
                    me,
                    Some(gp),
                    AuditKind::DynHomeMapMismatch,
                    format!("home map resolves {gp} to node {}", resolved.0),
                ));
            }
            // Fine-grain tags against the directory (home frames only
            // carry tags when allocated).
            if ctl.tags.is_allocated(frame) {
                for (li, tag) in ctl.tags.iter_frame(frame) {
                    let bad = match pd.line(li) {
                        // A remote owner means home memory is stale: the
                        // home tag may not claim a valid copy.
                        LineDir::Owned(o) if o != me => {
                            matches!(tag, LineTag::Exclusive | LineTag::Shared)
                        }
                        // Remote sharers preclude home exclusivity.
                        LineDir::Shared(ref s) if !s.is_empty() => tag == LineTag::Exclusive,
                        _ => false,
                    };
                    if bad {
                        found.push((
                            me,
                            Some(gp),
                            AuditKind::TagDirectoryMismatch,
                            format!("line {li} tag {tag:?} contradicts dir {:?}", pd.line(li)),
                        ));
                    }
                }
            }
            self.audit_journal_coverage(n, gp, frame, found);
        }
    }

    /// Journal check for one home page: every line still dirty in the
    /// dynamic home's own caches must be covered by a journal record or
    /// a checkpoint image, or a failover would lose it.
    fn audit_journal_coverage(
        &self,
        n: usize,
        gp: GlobalPage,
        frame: FrameNo,
        found: &mut Vec<(NodeId, Option<GlobalPage>, AuditKind, String)>,
    ) {
        let me = NodeId(n as u16);
        let Some(j) = self.journal.as_ref() else {
            return;
        };
        if self.homes.static_home(gp) == me {
            return; // The static home journals nothing: its memory is the backing store.
        }
        let pj = j.page(gp);
        for l in 0..self.cfg.geometry.lines_per_page() {
            let li = LineIdx(l as u16);
            let key = self.line_key(frame, li);
            let dirty = (0..self.ppn()).any(|spi| {
                self.nodes[n].procs[spi].l1.probe(key)
                    == Some(prism_mem::cache::LineState::Modified)
                    || self.nodes[n].procs[spi].l2.probe(key)
                        == Some(prism_mem::cache::LineState::Modified)
            });
            let covered = pj.is_some_and(|pj| pj.lines.contains_key(&li) || pj.image_at.is_some());
            if dirty && !covered {
                found.push((
                    me,
                    Some(gp),
                    AuditKind::JournalBehind,
                    format!("line {li} dirty at migrated home with no journal record"),
                ));
            }
        }
    }

    /// Client-side checks: every PIT entry on node `n`.
    fn audit_client_side(
        &self,
        n: usize,
        found: &mut Vec<(NodeId, Option<GlobalPage>, AuditKind, String)>,
    ) {
        let me = NodeId(n as u16);
        let ctl = &self.nodes[n].controller;
        let mut entries: Vec<(FrameNo, &prism_mem::pit::PitEntry)> = ctl.pit.iter().collect();
        entries.sort_unstable_by_key(|(f, _)| f.0);
        for (frame, e) in entries {
            let gp = e.gpage;
            let stat = self.homes.static_home(gp);
            if e.static_home != stat {
                found.push((
                    me,
                    Some(gp),
                    AuditKind::StaticHomeMismatch,
                    format!(
                        "frame {frame} PIT static home {} vs home map {}",
                        e.static_home.0, stat.0
                    ),
                ));
            }
            // A hint may lag (lazy migration heals it on the next
            // forward), but it must name a node that *was* a home.
            let hint = e.dyn_home;
            let legal = hint == stat
                || hint == self.resolve_dyn_home(gp)
                || self.former_homes.get(&gp).is_some_and(|s| s.contains(hint));
            if !legal {
                found.push((
                    me,
                    Some(gp),
                    AuditKind::IllegalDynHomeHint,
                    format!(
                        "frame {frame} hints dyn home {} (never a home of {gp})",
                        hint.0
                    ),
                ));
            }
        }
    }

    /// Transit check: every line wedged in `T` must have a watchdog
    /// clock running, or nothing would ever recover it.
    fn audit_transit(
        &self,
        n: usize,
        found: &mut Vec<(NodeId, Option<GlobalPage>, AuditKind, String)>,
    ) {
        let me = NodeId(n as u16);
        let ctl = &self.nodes[n].controller;
        for f in 0..self.cfg.frames_per_node {
            let frame = FrameNo(f as u32);
            if !ctl.tags.is_allocated(frame) || !ctl.tags.has_transit(frame) {
                continue;
            }
            let gp = ctl.pit.translate(frame).map(|e| e.gpage);
            for (li, tag) in ctl.tags.iter_frame(frame) {
                if tag == LineTag::Transit && ctl.transit_entered_at(frame, li).is_none() {
                    found.push((
                        me,
                        gp,
                        AuditKind::UntrackedTransit,
                        format!("frame {frame} line {li} in Transit with no deadline clock"),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_hit_is_consistent() {
        let mut s = Shadow::new();
        s.write(0, 100);
        s.observe_hit(0, 100);
        assert_eq!(s.latest(100), 1);
    }

    #[test]
    #[should_panic(expected = "coherence violation")]
    fn stale_hit_detected() {
        let mut s = Shadow::new();
        s.write(0, 100); // v1 at proc 0
        s.write(1, 100); // v2 at proc 1 — proc 0's copy should be gone
        s.observe_hit(0, 100); // proc 0 still claims a copy: stale
    }

    #[test]
    fn fills_propagate_versions() {
        let mut s = Shadow::new();
        // proc 0 writes v1, writes back to node 0 memory.
        s.write(0, 7);
        s.writeback(0, 0, 7);
        s.drop_proc(0, 7);
        // proc 1 (same node) fills from node memory.
        s.fill_from_node_memory(1, 0, 7, false);
        s.observe_hit(1, 7);
    }

    #[test]
    #[should_panic(expected = "memory holds v0")]
    fn missing_invalidation_detected_via_memory() {
        let mut s = Shadow::new();
        s.write(0, 7); // v1 only in proc 0's cache
                       // Node memory was never updated; a fill from it must fail.
        s.set_node_copy(0, 7, 0);
        s.fill_from_node_memory(1, 0, 7, false);
    }

    #[test]
    fn freshest_considers_caches_and_memory() {
        let mut s = Shadow::new();
        s.set_node_copy(2, 9, 1);
        assert_eq!(s.freshest_at_node(2, 8..12, 9), 1);
        // A processor cache on the node with a newer copy dominates.
        s.write(10, 9); // v1 in proc 10
        s.write(10, 9); // v2 in proc 10
        assert_eq!(s.freshest_at_node(2, 8..12, 9), 2);
        // Processors outside the node's range are not consulted.
        assert_eq!(s.freshest_at_node(2, 0..4, 9), 1);
    }

    #[test]
    fn remote_fill_into_page_cache() {
        let mut s = Shadow::new();
        s.write(0, 5);
        let v = s.freshest_at_node(0, 0..4, 5);
        s.fill_remote(9, 3, 5, v, true);
        s.fill_from_node_memory(10, 3, 5, false); // page cache now valid
    }

    #[test]
    fn lid_mapping_round_trips() {
        let mut s = Shadow::new();
        s.note_lid(1, 0xABC, 0x999);
        assert_eq!(s.lid_for(1, 0xABC), Some(0x999));
        assert_eq!(s.lid_for(2, 0xABC), None);
    }

    #[test]
    fn authoritative_memory_defaults_to_version_zero() {
        let mut s = Shadow::new();
        s.fill_from_node_memory(0, 0, 42, true); // never written: v0 ok
        s.observe_hit(0, 42);
    }

    #[test]
    #[should_panic(expected = "no copy")]
    fn non_authoritative_missing_copy_detected() {
        let mut s = Shadow::new();
        s.fill_from_node_memory(0, 0, 42, false);
    }
}
