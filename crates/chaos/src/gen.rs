//! Random-but-valid case generation for chaos campaigns.
//!
//! A [`CaseSpec`] is the *complete* description of one chaos case: the
//! machine shape, every reliability knob, the workload, and the fault
//! plan — everything needed to rebuild the run bit-identically. Cases
//! are drawn from [`SimRng::for_stream`]`(campaign_seed, index)`, so
//! case `k` of a campaign can be re-derived in isolation (shrinking and
//! replay never have to re-generate cases `0..k-1`).
//!
//! Generation is *valid by construction*: every spec this module
//! produces builds a [`MachineConfig`] that passes `validate()` and a
//! [`FaultPlan`] that passes [`FaultPlan::validate`] — the harness
//! searches the space of machines that should work, not the space of
//! rejected configurations (those are covered by unit tests on the
//! validators themselves).

use prism_kernel::migration::MigrationPolicy;
use prism_kernel::policy::PagePolicy;
use prism_machine::config::{MachineConfig, SchedulerKind};
use prism_machine::faults::{FaultPlan, JournalPolicy, RetryPolicy};
use prism_mem::addr::NodeId;
use prism_mem::trace::Trace;
use prism_sim::{Cycle, SimRng};
use prism_workloads::{Synthetic, Workload};

use crate::json::{quote, Json};

/// The six page modes a campaign must span, in round-robin order.
pub const ALL_POLICIES: [PagePolicy; 6] = [
    PagePolicy::Scoma,
    PagePolicy::Lanuma,
    PagePolicy::DynFcfs,
    PagePolicy::DynUtil,
    PagePolicy::DynLru,
    PagePolicy::DynBoth,
];

/// Stable names for page policies in artifacts and coverage maps (the
/// same labels `RunReport`'s debug `parallel_fallback` section uses).
pub fn policy_name(p: PagePolicy) -> &'static str {
    prism_machine::policy_label(p)
}

fn policy_from_name(s: &str) -> Option<PagePolicy> {
    ALL_POLICIES.iter().copied().find(|&p| policy_name(p) == s)
}

/// Stable names for scheduler kinds in coverage maps and artifacts.
pub fn scheduler_name(k: SchedulerKind) -> &'static str {
    match k {
        SchedulerKind::Heap => "heap",
        SchedulerKind::LinearScan => "linear-scan",
        SchedulerKind::ParallelHeap => "parallel-heap",
    }
}

/// The synthetic access pattern a case drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Uniformly random shared reads/writes.
    Uniform,
    /// The whole machine takes turns owning a hot region.
    Migratory,
    /// Lane 0 produces, everyone else consumes after a barrier.
    ProducerConsumer,
    /// Node-private streaming (no coherence traffic).
    PrivateOnly,
}

impl WorkloadKind {
    fn name(self) -> &'static str {
        match self {
            WorkloadKind::Uniform => "uniform",
            WorkloadKind::Migratory => "migratory",
            WorkloadKind::ProducerConsumer => "producer-consumer",
            WorkloadKind::PrivateOnly => "private-only",
        }
    }

    fn from_name(s: &str) -> Option<WorkloadKind> {
        [
            WorkloadKind::Uniform,
            WorkloadKind::Migratory,
            WorkloadKind::ProducerConsumer,
            WorkloadKind::PrivateOnly,
        ]
        .into_iter()
        .find(|k| k.name() == s)
    }
}

/// The workload portion of a case.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Access pattern.
    pub kind: WorkloadKind,
    /// Shared-region size in bytes.
    pub bytes: u64,
    /// References per processor.
    pub refs_per_proc: usize,
    /// Workload generator seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Builds the trace for `procs` lanes.
    pub fn trace(&self, procs: usize) -> Trace {
        let w = match self.kind {
            WorkloadKind::Uniform => Synthetic::uniform(procs, self.bytes, self.refs_per_proc),
            WorkloadKind::Migratory => Synthetic::migratory(procs, self.bytes, self.refs_per_proc),
            WorkloadKind::ProducerConsumer => {
                Synthetic::producer_consumer(procs, self.bytes, self.refs_per_proc)
            }
            WorkloadKind::PrivateOnly => {
                Synthetic::private_only(procs, self.bytes, self.refs_per_proc)
            }
        };
        w.with_seed(self.seed).generate(procs)
    }
}

/// A transient link-fault window, as plain data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkWindowSpec {
    /// First cycle (inclusive).
    pub from: u64,
    /// Last cycle (exclusive).
    pub until: u64,
    /// Message drop probability inside the window.
    pub drop_prob: f64,
    /// Message corruption probability inside the window.
    pub corrupt_prob: f64,
}

/// A slow-node episode, as plain data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowSpec {
    /// Afflicted node.
    pub node: u16,
    /// First cycle (inclusive).
    pub from: u64,
    /// Last cycle (exclusive).
    pub until: u64,
    /// Latency multiplier.
    pub factor: u64,
}

/// The kind of a scheduled point fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Permanent node failure.
    FailNode,
    /// Scramble one client PIT entry.
    CorruptPit,
    /// Wedge one Transit-tagged line.
    WedgeTransit,
}

impl EventKind {
    fn name(self) -> &'static str {
        match self {
            EventKind::FailNode => "fail-node",
            EventKind::CorruptPit => "corrupt-pit",
            EventKind::WedgeTransit => "wedge-transit",
        }
    }

    fn from_name(s: &str) -> Option<EventKind> {
        [
            EventKind::FailNode,
            EventKind::CorruptPit,
            EventKind::WedgeTransit,
        ]
        .into_iter()
        .find(|k| k.name() == s)
    }
}

/// A scheduled point fault, as plain data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EventSpec {
    /// What strikes.
    pub kind: EventKind,
    /// Target node.
    pub node: u16,
    /// Injection cycle.
    pub at: u64,
}

/// The fault-plan portion of a case, as plain data (rebuilt into a
/// [`FaultPlan`] per run).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Fault-stream determinism seed.
    pub seed: u64,
    /// Transient link-fault windows.
    pub link_windows: Vec<LinkWindowSpec>,
    /// Slow-node episodes.
    pub slow_episodes: Vec<SlowSpec>,
    /// Scheduled point faults.
    pub events: Vec<EventSpec>,
}

impl FaultSpec {
    /// Rebuilds the concrete [`FaultPlan`].
    pub fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed);
        for w in &self.link_windows {
            plan =
                plan.link_fault_window(Cycle(w.from), Cycle(w.until), w.drop_prob, w.corrupt_prob);
        }
        for s in &self.slow_episodes {
            plan = plan.slow_node(NodeId(s.node), Cycle(s.from), Cycle(s.until), s.factor);
        }
        for e in &self.events {
            plan = match e.kind {
                EventKind::FailNode => plan.fail_node(NodeId(e.node), Cycle(e.at)),
                EventKind::CorruptPit => plan.corrupt_pit(NodeId(e.node), Cycle(e.at)),
                EventKind::WedgeTransit => plan.wedge_transit(NodeId(e.node), Cycle(e.at)),
            };
        }
        plan
    }

    /// True when the plan can alter protocol *structure* (drop/corrupt
    /// messages, kill nodes, scramble PITs, wedge lines). Slow-node
    /// episodes are excluded on purpose: they stretch latencies but can
    /// never lose state, so a slow-only case must behave like a
    /// fault-free one to every structural oracle.
    pub fn is_structural(&self) -> bool {
        !self.events.is_empty()
            || self
                .link_windows
                .iter()
                .any(|w| w.drop_prob > 0.0 || w.corrupt_prob > 0.0)
    }

    /// Distinct nodes targeted by `FailNode` events.
    pub fn failed_nodes(&self) -> usize {
        let mut nodes: Vec<u16> = self
            .events
            .iter()
            .filter(|e| e.kind == EventKind::FailNode)
            .map(|e| e.node)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// Count of scheduled events of `kind`.
    pub fn event_count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

/// A complete chaos case: machine shape, reliability knobs, workload,
/// and fault plan. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseSpec {
    /// The campaign seed this case was drawn from.
    pub campaign_seed: u64,
    /// The case's index within the campaign.
    pub index: u64,
    /// Node count.
    pub nodes: usize,
    /// Processors per node.
    pub procs_per_node: usize,
    /// Page-mode policy.
    pub policy: PagePolicy,
    /// L1 capacity in bytes.
    pub l1_bytes: u64,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// Client page-cache capacity (None = unlimited).
    pub page_cache_capacity: Option<usize>,
    /// Lazy home migration (default policy) on/off.
    pub migration: bool,
    /// Shadow read-sees-latest-write checking on/off.
    pub check_coherence: bool,
    /// Online auditor sweep interval (None = end-of-run only).
    pub audit_interval: Option<u64>,
    /// Message retry policy.
    pub retry: RetryPolicy,
    /// Eager write-back journaling on/off.
    pub journal_eager: bool,
    /// Transit-tag watchdog deadline in cycles.
    pub watchdog_deadline: u64,
    /// Cursor rewatermark tolerance in trace operations (0 disables
    /// sliding entirely — the pre-slide full-rescan behavior). A host
    /// wall-clock heuristic: a slid window is bitwise what a fresh scan
    /// returns, so reports must be identical at any value — the
    /// differential oracle holds each case to that.
    pub rewatermark_tolerance: u64,
    /// Minimum simulated-cycle span an epoch must cover to be admitted
    /// by the parallel scheduler. Wall-clock heuristic like
    /// [`CaseSpec::rewatermark_tolerance`].
    pub min_epoch_span: u64,
    /// Cap on the parallel scheduler's exponential scan backoff, in
    /// picks. Wall-clock heuristic like
    /// [`CaseSpec::rewatermark_tolerance`]; must be at least 1.
    pub max_epoch_backoff: u64,
    /// Space-shared jobs (1 = whole-machine, 2 = two jobs on disjoint
    /// node halves; structural faults then only target job 0's nodes so
    /// the containment oracle can hold job 1 harmless).
    pub jobs: usize,
    /// The workload.
    pub workload: WorkloadSpec,
    /// The fault plan.
    pub faults: FaultSpec,
}

impl CaseSpec {
    /// Total processors in the machine.
    pub fn total_procs(&self) -> usize {
        self.nodes * self.procs_per_node
    }

    /// Nodes belonging to job 0 when `jobs == 2` (job 1 gets the rest).
    pub fn job0_nodes(&self) -> usize {
        debug_assert!(self.jobs == 2);
        (self.nodes / 2).max(1)
    }

    /// The traces to run: one for a whole-machine case, two for a
    /// space-shared case (lane blocks match the node split).
    pub fn traces(&self) -> Vec<Trace> {
        if self.jobs == 1 {
            vec![self.workload.trace(self.total_procs())]
        } else {
            let p0 = self.job0_nodes() * self.procs_per_node;
            let p1 = self.total_procs() - p0;
            let mut victim = self.workload.clone();
            victim.seed = victim.seed.wrapping_add(1);
            vec![self.workload.trace(p0), victim.trace(p1)]
        }
    }

    /// Builds the machine configuration for one scheduler/worker pick.
    pub fn config(&self, scheduler: SchedulerKind, workers: usize) -> MachineConfig {
        let migration = if self.migration {
            Some(MigrationPolicy::default())
        } else {
            None
        };
        MachineConfig::builder()
            .nodes(self.nodes)
            .procs_per_node(self.procs_per_node)
            .l1_bytes(self.l1_bytes)
            .l2_bytes(self.l2_bytes)
            .page_cache_capacity(self.page_cache_capacity)
            .policy(self.policy)
            .migration(migration)
            .check_coherence(self.check_coherence)
            .audit_interval(self.audit_interval)
            .retry(self.retry)
            .journal(if self.journal_eager {
                JournalPolicy::eager()
            } else {
                JournalPolicy::Off
            })
            .watchdog_deadline(self.watchdog_deadline)
            .rewatermark_tolerance(self.rewatermark_tolerance)
            .min_epoch_span(self.min_epoch_span)
            .max_epoch_backoff(self.max_epoch_backoff)
            .scheduler(scheduler)
            .worker_threads(workers)
            .build()
    }

    /// Generates case `index` of the campaign seeded `campaign_seed`.
    ///
    /// Pure: the same `(campaign_seed, index)` pair always yields the
    /// same spec, regardless of what else the campaign has generated.
    /// The page policy round-robins over [`ALL_POLICIES`] by index so
    /// any window of six or more consecutive cases spans all six page
    /// modes; everything else is drawn from the case's private stream.
    pub fn generate(campaign_seed: u64, index: u64) -> CaseSpec {
        let mut rng = SimRng::for_stream(campaign_seed, index);
        let nodes = 2 + rng.gen_index(3); // 2..=4
        let procs_per_node = 1 + rng.gen_index(2); // 1..=2
        let policy = ALL_POLICIES[(index % 6) as usize];
        let l1_bytes = 512 << rng.gen_index(2); // 512 | 1024
        let l2_bytes = 4 * l1_bytes;
        let page_cache_capacity = if rng.gen_bool(0.6) {
            Some(2 + rng.gen_index(6))
        } else {
            None
        };
        let migration = rng.gen_bool(0.25);
        let check_coherence = rng.gen_bool(0.35);
        let audit_interval = if rng.gen_bool(0.7) {
            Some(1_000 + rng.gen_range(0..20_000))
        } else {
            None
        };
        // The retired audit-scope draw, discarded so every later field is unchanged.
        if rng.gen_index(5) == 1 {
            rng.gen_index(3);
        }
        let retry = RetryPolicy {
            max_attempts: 1 + rng.gen_index(8) as u32,
            timeout_cycles: 1_024 << rng.gen_index(3),
            backoff: 1 + rng.gen_range(0..3),
        };
        let journal_eager = rng.gen_bool(0.4);
        let watchdog_deadline = 2_048 << rng.gen_index(4);
        let jobs = if rng.gen_bool(0.25) { 2 } else { 1 };
        let workload = WorkloadSpec {
            kind: match rng.gen_index(4) {
                0 => WorkloadKind::Migratory,
                1 => WorkloadKind::ProducerConsumer,
                2 => WorkloadKind::PrivateOnly,
                _ => WorkloadKind::Uniform,
            },
            bytes: 4_096 * (1 + rng.gen_range(0..4)),
            refs_per_proc: 48 + rng.gen_index(160),
            seed: rng.next_u64(),
        };

        // Structural faults of a two-job case only target job 0's nodes,
        // and link windows (which perturb every link in the machine) are
        // whole-machine cases only — that is what lets the containment
        // oracle demand job 1 comes through without a single casualty.
        let fault_target_nodes = if jobs == 2 { (nodes / 2).max(1) } else { nodes };
        let mut faults = FaultSpec {
            seed: rng.next_u64(),
            link_windows: Vec::new(),
            slow_episodes: Vec::new(),
            events: Vec::new(),
        };
        if rng.gen_bool(0.75) {
            if jobs == 1 {
                for _ in 0..rng.gen_index(3) {
                    let from = rng.gen_range(0..40_000);
                    let until = from + 4_000 + rng.gen_range(0..36_000);
                    faults.link_windows.push(LinkWindowSpec {
                        from,
                        until,
                        drop_prob: rng.next_f64() * 0.03,
                        corrupt_prob: rng.next_f64() * 0.01,
                    });
                }
            }
            // One episode per afflicted node, so episodes never overlap.
            let mut slow_targets: Vec<u16> = (0..nodes as u16).collect();
            rng.shuffle(&mut slow_targets);
            for &node in slow_targets.iter().take(rng.gen_index(3)) {
                let from = rng.gen_range(0..60_000);
                faults.slow_episodes.push(SlowSpec {
                    node,
                    from,
                    until: from + 5_000 + rng.gen_range(0..55_000),
                    factor: 2 + rng.gen_range(0..7),
                });
            }
            for _ in 0..rng.gen_index(4) {
                faults.events.push(EventSpec {
                    kind: match rng.gen_index(3) {
                        0 => EventKind::FailNode,
                        1 => EventKind::CorruptPit,
                        _ => EventKind::WedgeTransit,
                    },
                    node: rng.gen_index(fault_target_nodes) as u16,
                    at: 1_000 + rng.gen_range(0..120_000),
                });
            }
        }

        // Discarded on purpose: this draw keeps the pacing knobs below at
        // the stream positions earlier harness versions used, so every
        // campaign seed still generates the same cases (and committed
        // repro artifacts keep re-deriving from their seeds).
        let _ = rng.gen_bool(0.5);
        // Appended after everything older: the epoch-executor pacing
        // knobs join the end of the stream so historical case fields
        // keep their exact values. All three are wall-clock heuristics
        // the differential oracle must prove report-invariant —
        // including tolerance 0, the no-sliding degenerate.
        let rewatermark_tolerance = [0u64, 16, 256, 4096][rng.gen_index(4)];
        let min_epoch_span = 64u64 << rng.gen_index(5);
        let max_epoch_backoff = 1u64 << rng.gen_index(10);

        let spec = CaseSpec {
            campaign_seed,
            index,
            nodes,
            procs_per_node,
            policy,
            l1_bytes,
            l2_bytes,
            page_cache_capacity,
            migration,
            check_coherence,
            audit_interval,
            retry,
            journal_eager,
            watchdog_deadline,
            rewatermark_tolerance,
            min_epoch_span,
            max_epoch_backoff,
            jobs,
            workload,
            faults,
        };
        debug_assert!(spec.faults.plan().validate(spec.nodes).is_ok());
        spec
    }

    /// Serializes the spec as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{");
        let mut field = |key: &str, val: String| {
            o.push_str(&format!("{}:{},", quote(key), val));
        };
        field("campaign_seed", self.campaign_seed.to_string());
        field("index", self.index.to_string());
        field("nodes", self.nodes.to_string());
        field("procs_per_node", self.procs_per_node.to_string());
        field("policy", quote(policy_name(self.policy)));
        field("l1_bytes", self.l1_bytes.to_string());
        field("l2_bytes", self.l2_bytes.to_string());
        field(
            "page_cache_capacity",
            match self.page_cache_capacity {
                Some(n) => n.to_string(),
                None => "null".into(),
            },
        );
        field("migration", self.migration.to_string());
        field("check_coherence", self.check_coherence.to_string());
        field(
            "audit_interval",
            match self.audit_interval {
                Some(n) => n.to_string(),
                None => "null".into(),
            },
        );
        field(
            "retry",
            format!(
                "{{\"max_attempts\":{},\"timeout_cycles\":{},\"backoff\":{}}}",
                self.retry.max_attempts, self.retry.timeout_cycles, self.retry.backoff
            ),
        );
        field("journal_eager", self.journal_eager.to_string());
        field("watchdog_deadline", self.watchdog_deadline.to_string());
        field("jobs", self.jobs.to_string());
        field(
            "workload",
            format!(
                "{{\"kind\":{},\"bytes\":{},\"refs_per_proc\":{},\"seed\":{}}}",
                quote(self.workload.kind.name()),
                self.workload.bytes,
                self.workload.refs_per_proc,
                self.workload.seed
            ),
        );
        let windows: Vec<String> = self
            .faults
            .link_windows
            .iter()
            .map(|w| {
                format!(
                    "{{\"from\":{},\"until\":{},\"drop_prob\":{},\"corrupt_prob\":{}}}",
                    w.from, w.until, w.drop_prob, w.corrupt_prob
                )
            })
            .collect();
        let slows: Vec<String> = self
            .faults
            .slow_episodes
            .iter()
            .map(|s| {
                format!(
                    "{{\"node\":{},\"from\":{},\"until\":{},\"factor\":{}}}",
                    s.node, s.from, s.until, s.factor
                )
            })
            .collect();
        let events: Vec<String> = self
            .faults
            .events
            .iter()
            .map(|e| {
                format!(
                    "{{\"kind\":{},\"node\":{},\"at\":{}}}",
                    quote(e.kind.name()),
                    e.node,
                    e.at
                )
            })
            .collect();
        field(
            "faults",
            format!(
                "{{\"seed\":{},\"link_windows\":[{}],\"slow_episodes\":[{}],\"events\":[{}]}}",
                self.faults.seed,
                windows.join(","),
                slows.join(","),
                events.join(",")
            ),
        );
        field(
            "rewatermark_tolerance",
            self.rewatermark_tolerance.to_string(),
        );
        field("min_epoch_span", self.min_epoch_span.to_string());
        field("max_epoch_backoff", self.max_epoch_backoff.to_string());
        o.pop();
        o.push('}');
        o
    }

    /// Rebuilds a spec from a parsed JSON object.
    pub fn from_json(v: &Json) -> Result<CaseSpec, String> {
        fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
            v.get(key).ok_or_else(|| format!("missing field {key:?}"))
        }
        fn num(v: &Json, key: &str) -> Result<u64, String> {
            req(v, key)?
                .as_u64()
                .ok_or_else(|| format!("field {key:?} is not a u64"))
        }
        fn boolean(v: &Json, key: &str) -> Result<bool, String> {
            req(v, key)?
                .as_bool()
                .ok_or_else(|| format!("field {key:?} is not a bool"))
        }
        fn opt_num(v: &Json, key: &str) -> Result<Option<u64>, String> {
            match req(v, key)? {
                Json::Null => Ok(None),
                j => j
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("field {key:?} is not null or u64")),
            }
        }

        let retry = req(v, "retry")?;
        let workload = req(v, "workload")?;
        let faults = req(v, "faults")?;
        let mut link_windows = Vec::new();
        for w in req(faults, "link_windows")?
            .as_arr()
            .ok_or("link_windows")?
        {
            link_windows.push(LinkWindowSpec {
                from: num(w, "from")?,
                until: num(w, "until")?,
                drop_prob: req(w, "drop_prob")?.as_f64().ok_or("drop_prob")?,
                corrupt_prob: req(w, "corrupt_prob")?.as_f64().ok_or("corrupt_prob")?,
            });
        }
        let mut slow_episodes = Vec::new();
        for s in req(faults, "slow_episodes")?
            .as_arr()
            .ok_or("slow_episodes")?
        {
            slow_episodes.push(SlowSpec {
                node: num(s, "node")? as u16,
                from: num(s, "from")?,
                until: num(s, "until")?,
                factor: num(s, "factor")?,
            });
        }
        let mut events = Vec::new();
        for e in req(faults, "events")?.as_arr().ok_or("events")? {
            events.push(EventSpec {
                kind: EventKind::from_name(req(e, "kind")?.as_str().ok_or("event kind")?)
                    .ok_or("unknown event kind")?,
                node: num(e, "node")? as u16,
                at: num(e, "at")?,
            });
        }

        Ok(CaseSpec {
            campaign_seed: num(v, "campaign_seed")?,
            index: num(v, "index")?,
            nodes: num(v, "nodes")? as usize,
            procs_per_node: num(v, "procs_per_node")? as usize,
            policy: policy_from_name(req(v, "policy")?.as_str().ok_or("policy")?)
                .ok_or("unknown policy")?,
            l1_bytes: num(v, "l1_bytes")?,
            l2_bytes: num(v, "l2_bytes")?,
            page_cache_capacity: opt_num(v, "page_cache_capacity")?.map(|n| n as usize),
            migration: boolean(v, "migration")?,
            check_coherence: boolean(v, "check_coherence")?,
            audit_interval: opt_num(v, "audit_interval")?,
            retry: RetryPolicy {
                max_attempts: num(retry, "max_attempts")? as u32,
                timeout_cycles: num(retry, "timeout_cycles")?,
                backoff: num(retry, "backoff")?,
            },
            journal_eager: boolean(v, "journal_eager")?,
            watchdog_deadline: num(v, "watchdog_deadline")?,
            rewatermark_tolerance: num(v, "rewatermark_tolerance")?,
            min_epoch_span: num(v, "min_epoch_span")?,
            max_epoch_backoff: num(v, "max_epoch_backoff")?,
            jobs: num(v, "jobs")? as usize,
            workload: WorkloadSpec {
                kind: WorkloadKind::from_name(
                    req(workload, "kind")?.as_str().ok_or("workload kind")?,
                )
                .ok_or("unknown workload kind")?,
                bytes: num(workload, "bytes")?,
                refs_per_proc: num(workload, "refs_per_proc")? as usize,
                seed: num(workload, "seed")?,
            },
            faults: FaultSpec {
                seed: num(faults, "seed")?,
                link_windows,
                slow_episodes,
                events,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_pure() {
        for index in [0, 1, 17, 199] {
            assert_eq!(
                CaseSpec::generate(0xC4A05, index),
                CaseSpec::generate(0xC4A05, index)
            );
        }
    }

    #[test]
    fn generated_cases_are_valid_by_construction() {
        for index in 0..64 {
            let spec = CaseSpec::generate(7, index);
            assert!(
                spec.faults.plan().validate(spec.nodes).is_ok(),
                "case {index} built an invalid plan"
            );
            // Building configs must not panic for any scheduler pick.
            spec.config(SchedulerKind::Heap, 1);
            spec.config(SchedulerKind::ParallelHeap, 4);
            // Two-job cases confine structural faults to job 0's nodes.
            if spec.jobs == 2 {
                assert!(spec.faults.link_windows.is_empty());
                for e in &spec.faults.events {
                    assert!((e.node as usize) < spec.job0_nodes());
                }
            }
        }
    }

    #[test]
    fn round_robin_spans_all_six_policies() {
        let seen: Vec<&str> = (0..6)
            .map(|i| policy_name(CaseSpec::generate(3, i).policy))
            .collect();
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "six consecutive cases span all modes");
    }

    #[test]
    fn short_windows_span_the_pacing_knobs() {
        for seed in [3u64, 7, 0xBEEF] {
            let specs: Vec<CaseSpec> = (0..32).map(|i| CaseSpec::generate(seed, i)).collect();
            let mut tols: Vec<u64> = specs.iter().map(|s| s.rewatermark_tolerance).collect();
            tols.sort_unstable();
            tols.dedup();
            assert!(
                tols.len() >= 3,
                "seed {seed:#x} drew too few tolerance values: {tols:?}"
            );
            assert!(
                specs.iter().any(|s| s.rewatermark_tolerance == 0),
                "seed {seed:#x} never disabled sliding"
            );
            assert!(
                specs.iter().all(|s| s.max_epoch_backoff >= 1),
                "backoff caps must stay valid by construction"
            );
        }
    }

    #[test]
    fn spec_json_round_trips_exactly() {
        for index in 0..48 {
            let spec = CaseSpec::generate(0xBEEF, index);
            let doc = spec.to_json();
            let back = CaseSpec::from_json(&Json::parse(&doc).unwrap()).unwrap();
            assert_eq!(spec, back, "case {index} mutated in the round trip");
        }
    }

    #[test]
    fn traces_cover_all_lanes() {
        for index in 0..16 {
            let spec = CaseSpec::generate(11, index);
            let lanes: usize = spec.traces().iter().map(|t| t.lanes.len()).sum();
            assert_eq!(lanes, spec.total_procs());
        }
    }

    #[test]
    fn slow_only_plans_are_not_structural() {
        let f = FaultSpec {
            seed: 1,
            link_windows: vec![LinkWindowSpec {
                from: 0,
                until: 100,
                drop_prob: 0.0,
                corrupt_prob: 0.0,
            }],
            slow_episodes: vec![SlowSpec {
                node: 0,
                from: 0,
                until: 100,
                factor: 4,
            }],
            events: vec![],
        };
        assert!(!f.is_structural());
        let mut g = f.clone();
        g.link_windows[0].drop_prob = 0.01;
        assert!(g.is_structural());
        let mut h = f;
        h.events.push(EventSpec {
            kind: EventKind::FailNode,
            node: 0,
            at: 10,
        });
        assert!(h.is_structural());
        assert_eq!(h.failed_nodes(), 1);
        assert_eq!(h.event_count(EventKind::FailNode), 1);
        assert_eq!(h.event_count(EventKind::CorruptPit), 0);
    }
}
