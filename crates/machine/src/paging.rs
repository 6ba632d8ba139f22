//! Page-fault handling and external paging (paper §3.3–§3.4).

use prism_kernel::kernel::{EvictOrder, FaultClass};
use prism_mem::addr::{FrameNo, GlobalPage, LineIdx, NodeId, VirtAddr};
use prism_mem::mode::FrameMode;
use prism_mem::pit::PitEntry;
use prism_mem::tags::LineTag;
use prism_protocol::msg::MsgKind;
use prism_sim::Cycle;

use crate::machine::Machine;
use crate::obs::{Ctr, CursorInval};

impl Machine {
    /// Services a page fault on `vpage` for processor `pi` of node `n`.
    /// Returns the time at which the faulting access can be retried.
    pub(crate) fn handle_fault(
        &mut self,
        n: usize,
        pi: usize,
        vpage: u64,
        va: VirtAddr,
        t: Cycle,
    ) -> Cycle {
        let lat = self.cfg.latency;
        let gpage = self.nodes[n].kernel.resolve(va);
        let dyn_home = gpage
            .map(|gp| self.resolve_dyn_home(gp))
            .unwrap_or(NodeId(n as u16));
        let plan = {
            // The policy may query the local controller's fine-grain tags
            // (Dyn-Util).
            let node = &self.nodes[n];
            node.kernel
                .plan_fault(vpage, gpage, dyn_home, &node.controller)
        };
        let mut t = t;
        let t0 = t;
        match plan.class {
            FaultClass::Private => {
                t += Cycle(lat.uncontended_fault_local());
                self.nodes[n].kernel.commit_private_fault(vpage);
            }
            FaultClass::SharedHome => {
                t += Cycle(lat.uncontended_fault_local());
                let gp = plan.gpage.expect("shared fault has a page");
                let (frame, newly) = self.nodes[n].kernel.ensure_home_resident(gp);
                if newly {
                    self.init_home_page(n, gp, frame);
                }
                self.nodes[n].kernel.commit_home_fault(vpage, gp, frame);
            }
            FaultClass::SharedClient => {
                let gp = plan.gpage.expect("shared fault has a page");
                if let Some(evict) = plan.evict {
                    t = self.page_out_client(n, evict, t);
                }
                if plan.contact_home {
                    // Page-in request round trip (paper §3.3, "External
                    // Paging"); covers bringing the page in at home.
                    let mut home = dyn_home.0 as usize;
                    if self.nodes[home].failed {
                        // Recover via the static home (redirect or home
                        // failover) — or the fault is fatal.
                        match self.reroute_after_home_failure(n, gp, t) {
                            Some((h, tt)) => {
                                home = h;
                                t = tt;
                            }
                            None => {
                                self.freport(|r| r.fatal_faults += 1);
                                self.kill_proc(n, pi);
                                return t;
                            }
                        }
                    }
                    let dyn_home = NodeId(home as u16);
                    t += Cycle(lat.fault_kernel + lat.tlb_miss);
                    // Page-in requests are addressed with the shmat-time
                    // (static) home information; if the dynamic home has
                    // migrated, the static home forwards (paper §3.5).
                    let static_home = self.homes.static_home(gp).0 as usize;
                    let delivered = if static_home != home {
                        self.send_reliable(n, static_home, MsgKind::PageInReq, t)
                            .map(|tt| {
                                self.obs.incr(Ctr::Forwards);
                                self.send(
                                    static_home,
                                    home,
                                    MsgKind::Forward,
                                    tt + Cycle(lat.dispatch),
                                )
                            })
                    } else {
                        self.send_reliable(n, home, MsgKind::PageInReq, t)
                    };
                    t = match delivered {
                        Ok(tt) => tt,
                        Err(_) => {
                            self.freport(|r| r.fatal_faults += 1);
                            self.kill_proc(n, pi);
                            return t;
                        }
                    };
                    t += Cycle(lat.home_pagein_service * self.slow_factor(home, t));
                    let (home_frame, newly) = self.nodes[home].kernel.ensure_home_resident(gp);
                    if newly {
                        self.init_home_page(home, gp, home_frame);
                    }
                    {
                        let reader = NodeId(n as u16);
                        let clients = &mut self.nodes[home]
                            .controller
                            .dir
                            .page_mut(gp)
                            .expect("home page initialized")
                            .clients;
                        let fresh = !clients.contains(reader);
                        clients.insert(reader);
                        if fresh {
                            // The page's destination set grew: remote
                            // transactions can now fan out to this
                            // client, so memoized footprints for the
                            // page are stale on every node.
                            self.obs.note_inval(CursorInval::PageDest { vpage });
                        }
                    }
                    t = self.send(home, n, MsgKind::PageInReply, t);
                    t += Cycle(lat.dispatch + lat.pit_access());
                    self.nodes[n]
                        .kernel
                        .learn_home(gp, dyn_home, Some(home_frame));
                } else {
                    t += Cycle(lat.uncontended_fault_local());
                }
                let frame = self.nodes[n].kernel.commit_client_fault(
                    vpage,
                    gp,
                    plan.mode,
                    plan.contact_home,
                );
                // Bind the frame in the controller's PIT.
                let known = self.nodes[n].kernel.known_home(gp);
                let entry = PitEntry {
                    gpage: gp,
                    mode: plan.mode,
                    static_home: self.homes.static_home(gp),
                    dyn_home: known.map(|k| k.dyn_home).unwrap_or(dyn_home),
                    home_frame_hint: known.and_then(|k| k.frame_hint),
                    caps: prism_mem::pit::Caps::AllNodes,
                };
                self.nodes[n].controller.pit.insert(frame, entry);
                if plan.mode == FrameMode::Scoma {
                    self.nodes[n]
                        .controller
                        .tags
                        .allocate(frame, LineTag::Invalid);
                }
                // The node's cached-page set grew (page cache or
                // LA-NUMA mapping): its eviction/write-back closure now
                // includes this page's homes.
                self.obs.note_inval(CursorInval::NodeClosure {
                    node: n,
                    grew: true,
                });
            }
        }
        self.obs.fault_latency.record(t - t0);
        t
    }

    /// Initializes controller state for a page newly resident at its
    /// (dynamic) home: PIT entry, fine-grain tags all Exclusive, and
    /// directory state (paper §3.3: "initializes the page's fine-grain
    /// tags to Exclusive").
    pub(crate) fn init_home_page(&mut self, home: usize, gpage: GlobalPage, frame: FrameNo) {
        let entry = PitEntry {
            gpage,
            mode: FrameMode::Scoma,
            static_home: self.homes.static_home(gpage),
            dyn_home: NodeId(home as u16),
            home_frame_hint: Some(frame),
            caps: prism_mem::pit::Caps::AllNodes,
        };
        self.nodes[home].controller.pit.insert(frame, entry);
        self.nodes[home]
            .controller
            .tags
            .allocate(frame, LineTag::Exclusive);
        self.nodes[home]
            .controller
            .dir
            .page_in(gpage, frame, self.cfg.geometry.lines_per_page());
    }

    /// Pages a shared page out *at its home* (paper §3.3, "During a home
    /// node page-out"): every client is asked to page out its copy and
    /// write back modified data, all clients' home-page-status flags are
    /// reset (so their next fault contacts the home again), the home
    /// flushes its own copies and writes the page to backing store, and
    /// all controller state (PIT entry, tags, directory) is released.
    /// Returns the completion time, or `None` if the page is not
    /// resident at its home.
    ///
    /// This is the mechanism a memory-pressured home kernel would use;
    /// the evaluation never triggers it (home memory is ample), so it is
    /// exposed for direct use and tests.
    pub fn home_page_out(&mut self, gpage: GlobalPage, t: Cycle) -> Option<Cycle> {
        let home = self.resolve_dyn_home(gpage).0 as usize;
        self.nodes[home].kernel.home_frame_of(gpage)?;
        let lat = self.cfg.latency;
        let mut t = t + Cycle(lat.pageout_kernel);

        // 1. Ask every client to page out (their dirty lines flush back
        //    through the normal client page-out path while the directory
        //    is still live) and reset their home-page-status flags.
        let clients: Vec<usize> = self.nodes[home]
            .controller
            .dir
            .page(gpage)
            .map(|pd| pd.clients.iter().map(|c| c.0 as usize).collect())
            .unwrap_or_default();
        for c in clients {
            if c == home || self.nodes[c].failed {
                continue;
            }
            t = self.send(home, c, MsgKind::PageOutReq, t);
            if let Some(cp) = self.nodes[c].kernel.client_page(gpage) {
                let evict = EvictOrder {
                    gpage,
                    frame: cp.frame,
                    vpage: cp.vpage,
                    convert_to_lanuma: false,
                };
                t = self.page_out_client(c, evict, t);
            } else if let Some(frame) = self.nodes[c]
                .controller
                .pit
                .frame_of(gpage)
                .filter(|f| f.is_imaginary())
            {
                self.drop_lanuma_mapping(c, gpage, frame);
            }
            self.nodes[c].kernel.reset_home_status(gpage);
            t = self.send(c, home, MsgKind::PageOutAck, t);
        }

        // 2. The home flushes its own processors' copies (dirty data
        //    folds into home memory, which is about to go to disk).
        let pd = self.nodes[home]
            .controller
            .dir
            .page_out(gpage)
            .expect("residency checked above");
        let home_frame = pd.home_frame;
        let lpp = self.cfg.geometry.lines_per_page() as u64;
        let base_key = self.line_key(home_frame, LineIdx(0));
        for hpi in 0..self.ppn() {
            let flat = self.flat(home, hpi) as u16;
            for (key, dirty) in self.nodes[home].procs[hpi]
                .l2
                .invalidate_range(base_key, lpp)
            {
                let l1_dirty = self.nodes[home].procs[hpi]
                    .l1
                    .invalidate(key)
                    .unwrap_or(false);
                if let Some(sh) = self.shadow.as_mut() {
                    if let Some(lid) = sh.lid_for(home as u16, key) {
                        if dirty || l1_dirty {
                            sh.writeback(flat, home as u16, lid);
                        }
                        sh.drop_proc(flat, lid);
                    }
                }
            }
            self.nodes[home].procs[hpi]
                .l1
                .invalidate_range(base_key, lpp);
        }

        // 3. Unmap the home's own virtual mapping (node-local shootdown
        //    only) and release all controller and kernel state. Shadow
        //    memory keeps the node_copy: it models the disk copy, which
        //    the next page-in restores.
        if let Some(vp) = self.vpage_of_shared(home, gpage) {
            self.nodes[home].kernel.unmap_shared_vpage(vp);
            for hpi in 0..self.ppn() {
                self.nodes[home].procs[hpi].tlb.invalidate(vp);
            }
        }
        self.nodes[home].controller.pit.remove(home_frame);
        self.nodes[home].controller.tags.deallocate(home_frame);
        self.nodes[home].kernel.release_home_residency(gpage);
        // Disk write: a bulk memory read plus fixed device overhead.
        self.nodes[home]
            .memory
            .acquire(t, Cycle(lat.mem_occupancy * 8));
        t += Cycle(lat.pageout_per_line * lpp / 4);
        self.obs.incr(Ctr::HomePageOuts);
        Some(t)
    }

    /// Reactive-NUMA reconversion hook (the paper's §4.3 future work):
    /// after an LA-NUMA remote fetch, the two-directional policy may
    /// decide the page is a mis-converted reuse page. The mapping is
    /// dropped (dirty lines written back, node-local TLB shootdown) and
    /// the page's mode preference returns to S-COMA, so its next fault
    /// allocates a page-cache frame.
    pub(crate) fn maybe_reconvert_lanuma(
        &mut self,
        n: usize,
        pi: usize,
        frame: FrameNo,
        gpage: GlobalPage,
        t: Cycle,
    ) -> Cycle {
        if self.nodes[n].procs[pi].state == crate::node::ProcState::Dead {
            return t;
        }
        if !self.nodes[n].kernel.note_lanuma_refetch(gpage) {
            return t;
        }
        self.drop_lanuma_mapping(n, gpage, frame);
        self.nodes[n].kernel.commit_reconvert_to_scoma(gpage);
        // Mode changes go through the normal page-out path cost
        // (paper §3.3: "changed dynamically ... by paging out the page
        // and setting its mode").
        t + Cycle(self.cfg.latency.pageout_kernel)
    }

    /// Pages out a client page (and optionally converts it to LA-NUMA
    /// mode): flushes node-dirty lines to the home, invalidates local
    /// caches and TLBs, unbinds the PIT entry, and updates the home's
    /// directory. Returns the completion time.
    pub(crate) fn page_out_client(&mut self, n: usize, evict: EvictOrder, t: Cycle) -> Cycle {
        let lat = self.cfg.latency;
        let gp = evict.gpage;
        let frame = evict.frame;
        let home = self.resolve_dyn_home(gp).0 as usize;
        let lpp = self.cfg.geometry.lines_per_page();
        let mut t = t + Cycle(lat.pageout_kernel);

        // Collect node-level dirty lines: tag E means this node owns the
        // line (writes are the only way to obtain E at a client).
        let dirty_lines: Vec<LineIdx> = self.nodes[n]
            .controller
            .tags
            .iter_frame(frame)
            .filter(|&(_, tag)| tag == LineTag::Exclusive)
            .map(|(l, _)| l)
            .collect();
        let shared_lines: Vec<LineIdx> = self.nodes[n]
            .controller
            .tags
            .iter_frame(frame)
            .filter(|&(_, tag)| tag == LineTag::Shared)
            .map(|(l, _)| l)
            .collect();

        // Invalidate local processor caches for the whole frame,
        // folding any dirtier L1/L2 copies into the flush (their
        // versions supersede the page-cache copy).
        let base_key = self.line_key(frame, LineIdx(0));
        for spi in 0..self.ppn() {
            let f2 = self.flat(n, spi) as u16;
            for (key, _dirty) in self.nodes[n].procs[spi]
                .l2
                .invalidate_range(base_key, lpp as u64)
            {
                self.nodes[n].procs[spi].l1.invalidate(key);
                if let Some(sh) = self.shadow.as_mut() {
                    if let Some(lid) = sh.lid_for(n as u16, key) {
                        // The processor's copy is at least as new as the
                        // page cache's; propagate it there first.
                        sh.writeback(f2, n as u16, lid);
                        sh.drop_proc(f2, lid);
                    }
                }
            }
            // L1-only leftovers (possible if L2 already lost the line).
            for (key, _dirty) in self.nodes[n].procs[spi]
                .l1
                .invalidate_range(base_key, lpp as u64)
            {
                if let Some(sh) = self.shadow.as_mut() {
                    if let Some(lid) = sh.lid_for(n as u16, key) {
                        sh.writeback(f2, n as u16, lid);
                        sh.drop_proc(f2, lid);
                    }
                }
            }
            // Node-local TLB shootdown only (paper: no global TLB
            // invalidations).
            self.nodes[n].procs[spi].tlb.invalidate(evict.vpage);
        }

        // Flush dirty lines to the home and update its directory.
        if !dirty_lines.is_empty() && !self.nodes[home].failed {
            t += Cycle(lat.pageout_per_line * dirty_lines.len() as u64);
            self.post_send(n, home, MsgKind::PageData, t);
            self.nodes[home]
                .memory
                .acquire(t, Cycle(lat.mem_access * dirty_lines.len() as u64 / 4 + 1));
            self.obs.add(Ctr::PageOutLines, dirty_lines.len() as u64);
        }
        if !self.nodes[home].failed {
            t = self.send(n, home, MsgKind::PageOutReq, t);
            t += Cycle(lat.dispatch);
            // lid of line 0 of the page, derived from the victim vpage.
            let lid_base =
                evict.vpage << (self.cfg.geometry.page_log2() - self.cfg.geometry.line_log2());
            let reader = NodeId(n as u16);
            let ctl = &mut self.nodes[home].controller;
            if let Some(pd) = ctl.dir.page_mut(gp) {
                for &l in &dirty_lines {
                    let cur = pd.line(l);
                    *pd.line_mut(l) = prism_protocol::dirproto::apply_writeback(cur, reader);
                    // Home memory is current again for flushed lines.
                    ctl.tags.set(pd.home_frame, l, LineTag::Shared);
                    if let Some(sh) = self.shadow.as_mut() {
                        sh.copy_node_to_node(n as u16, home as u16, lid_base + l.0 as u64);
                    }
                }
                for &l in &shared_lines {
                    let cur = pd.line(l);
                    *pd.line_mut(l) = prism_protocol::dirproto::apply_replacement_hint(cur, reader);
                }
                pd.client_frames.remove(&reader);
            }
            t = self.send(home, n, MsgKind::PageOutAck, t);
        }

        // Drop the page-cache copies from the shadow.
        if self.shadow.is_some() {
            let lid_base =
                evict.vpage << (self.cfg.geometry.page_log2() - self.cfg.geometry.line_log2());
            for l in 0..lpp as u64 {
                if let Some(sh) = self.shadow.as_mut() {
                    sh.drop_node(n as u16, lid_base + l);
                }
            }
        }

        // Unbind controller state and commit the kernel side.
        self.nodes[n].controller.pit.remove(frame);
        self.nodes[n].controller.tags.deallocate(frame);
        self.nodes[n]
            .kernel
            .commit_page_out(gp, evict.convert_to_lanuma);
        // The node's cached-page set changed (the victim left; under
        // `convert_to_lanuma` an imaginary mapping replaces it, so the
        // member set never grows — the victim's homes were already in
        // the closure) and its view of the victim page is gone.
        self.obs.note_inval(CursorInval::NodeClosure {
            node: n,
            grew: false,
        });
        self.obs.note_inval(CursorInval::NodePage {
            node: n,
            vpage: evict.vpage,
        });
        t
    }
}
