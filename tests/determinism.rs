//! Golden-report determinism: fixed workloads and fault plans must keep
//! producing byte-identical `RunReport` JSON across refactors.
//!
//! The fixtures under `tests/golden/` were captured from the
//! pre-scheduler-refactor engine (linear-scan run loop, monolithic
//! `Machine`), so any divergence here means the layered engine changed
//! observable behavior, not just its internal structure.
//!
//! Regenerate fixtures (only after an *intentional* behavior change)
//! with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test determinism
//! ```

use prism::kernel::migration::MigrationPolicy;
use prism::kernel::policy::PagePolicy;
use prism::machine::machine::Machine;
use prism::machine::{FaultPlan, JournalPolicy};
use prism::mem::addr::NodeId;
use prism::prelude::*;
use prism::sim::Cycle;

fn base_config() -> MachineConfig {
    MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .l1_bytes(1024)
        .l2_bytes(4096)
        .check_coherence(true)
        .audit_interval(Some(50_000))
        .build()
}

fn check_golden(name: &str, json: &str) {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, json).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {path}: {e}"));
    assert_eq!(
        json, want,
        "RunReport for `{name}` diverged from the golden fixture — the \
         refactored engine changed observable behavior"
    );
}

/// A plain application run: scheduler order, cache hierarchy, barriers
/// and the coherence checker, with periodic audit sweeps.
#[test]
fn golden_lu_audit() {
    let trace = app(AppId::Lu, Scale::Small).generate(8);
    let a = Machine::new(base_config()).run(&trace).to_json();
    let b = Machine::new(base_config()).run(&trace).to_json();
    assert_eq!(a, b, "back-to-back runs must serialize identically");
    check_golden("lu_audit", &a);
}

/// Migration + eager journaling under an adversarial fault plan: link
/// loss/corruption, a node failure mid-run, and a wedged Transit line
/// the watchdog must recover. Locks the fault/failover/watchdog event
/// machinery, not just the happy path.
#[test]
fn golden_ocean_faults() {
    let mut cfg = base_config();
    cfg.migration = Some(MigrationPolicy {
        check_interval: 16,
        min_traffic: 32,
        dominance: 0.55,
    });
    cfg.journal = JournalPolicy::Eager {
        record_cycles: 4,
        replay_cycles_per_line: 24,
    };
    let trace = app(AppId::Ocean, Scale::Small).generate(8);
    let plan = FaultPlan::new(0xFA117)
        .link_faults(0.002, 0.0004)
        .wedge_transit(NodeId(3), Cycle(60_000))
        .fail_node(NodeId(2), Cycle(120_000));
    let mut m = Machine::new(cfg);
    m.install_fault_plan(plan).expect("fault plan validates");
    check_golden("ocean_faults", &m.run(&trace).to_json());
}

/// The linear-scan baseline scheduler must reproduce the same golden
/// fixtures as the default heap scheduler: the two run loops are
/// observationally equivalent, which is what makes the A/B wall-clock
/// comparison in the scaling bench meaningful.
#[test]
fn golden_lu_audit_linear_scan() {
    let mut cfg = base_config();
    cfg.scheduler = SchedulerKind::LinearScan;
    let trace = app(AppId::Lu, Scale::Small).generate(8);
    let json = Machine::new(cfg).run(&trace).to_json();
    check_golden("lu_audit", &json);
}

/// Scheduler equivalence holds under faults too: the heap loop folds
/// fault events, watchdog deadlines, and audit sweeps into its control
/// heap, and must fire them at exactly the cycles the per-pick checks
/// of the linear loop did.
#[test]
fn golden_ocean_faults_linear_scan() {
    let mut cfg = base_config();
    cfg.scheduler = SchedulerKind::LinearScan;
    cfg.migration = Some(MigrationPolicy {
        check_interval: 16,
        min_traffic: 32,
        dominance: 0.55,
    });
    cfg.journal = JournalPolicy::Eager {
        record_cycles: 4,
        replay_cycles_per_line: 24,
    };
    let trace = app(AppId::Ocean, Scale::Small).generate(8);
    let plan = FaultPlan::new(0xFA117)
        .link_faults(0.002, 0.0004)
        .wedge_transit(NodeId(3), Cycle(60_000))
        .fail_node(NodeId(2), Cycle(120_000));
    let mut m = Machine::new(cfg);
    m.install_fault_plan(plan).expect("fault plan validates");
    check_golden("ocean_faults", &m.run(&trace).to_json());
}

/// Space-shared composition: two jobs with scoped barriers and per-job
/// segment placement through `run_jobs`.
#[test]
fn golden_composed_jobs() {
    let jobs = vec![
        app(AppId::WaterSpa, Scale::Small).generate(4),
        app(AppId::Radix, Scale::Small).generate(4),
    ];
    let report = Machine::new(base_config()).run_jobs(&jobs);
    check_golden("composed_jobs", &report.to_json());
}

/// The parallel scheduler must reproduce the same golden fixtures for
/// every worker count. This fixture's config enables the coherence
/// checker, which fails the parallel eligibility gate — locking in the
/// other half of the `ParallelHeap` contract: ineligible configurations
/// degrade to the exact serial heap loop.
#[test]
fn golden_lu_audit_parallel_heap() {
    for workers in [1, 2, 4] {
        let mut cfg = base_config();
        cfg.scheduler = SchedulerKind::ParallelHeap;
        cfg.worker_threads = workers;
        let trace = app(AppId::Lu, Scale::Small).generate(8);
        let json = Machine::new(cfg).run(&trace).to_json();
        check_golden("lu_audit", &json);
    }
}

/// Scheduler equivalence under faults, migration, and journaling with
/// the coherence checker on: the checker observes the global pick
/// interleaving, so it (alone, since the footprint ledger admitted
/// migration and friends) still fails the parallel eligibility gate
/// and `ParallelHeap` must fall back to byte-identical serial
/// execution.
#[test]
fn golden_ocean_faults_parallel_heap() {
    for workers in [1, 2, 4] {
        let mut cfg = base_config();
        cfg.scheduler = SchedulerKind::ParallelHeap;
        cfg.worker_threads = workers;
        cfg.migration = Some(MigrationPolicy {
            check_interval: 16,
            min_traffic: 32,
            dominance: 0.55,
        });
        cfg.journal = JournalPolicy::Eager {
            record_cycles: 4,
            replay_cycles_per_line: 24,
        };
        let trace = app(AppId::Ocean, Scale::Small).generate(8);
        let plan = FaultPlan::new(0xFA117)
            .link_faults(0.002, 0.0004)
            .wedge_transit(NodeId(3), Cycle(60_000))
            .fail_node(NodeId(2), Cycle(120_000));
        let mut m = Machine::new(cfg);
        m.install_fault_plan(plan).expect("fault plan validates");
        check_golden("ocean_faults", &m.run(&trace).to_json());
    }
}

/// An *eligible* configuration (no checker, no faults, no migration)
/// where epochs actually form and run on worker threads: space-shared
/// single-node jobs give every node its own conflict-free group, and
/// the merged result must still be byte-identical to the serial heap
/// schedule for every worker count — with periodic audit sweeps firing
/// at the same cycles throughout.
#[test]
fn parallel_epochs_match_serial_heap() {
    let eligible = |scheduler: SchedulerKind, workers: usize| {
        let mut cfg = MachineConfig::builder()
            .nodes(4)
            .procs_per_node(2)
            .l1_bytes(1024)
            .l2_bytes(4096)
            .audit_interval(Some(50_000))
            .build();
        cfg.scheduler = scheduler;
        cfg.worker_threads = workers;
        cfg
    };
    let jobs: Vec<_> = [AppId::Lu, AppId::WaterSpa, AppId::Radix, AppId::Fft]
        .iter()
        .map(|&a| app(a, Scale::Small).generate(2))
        .collect();
    let serial = Machine::new(eligible(SchedulerKind::Heap, 1))
        .run_jobs(&jobs)
        .to_json();
    for workers in [1, 2, 4] {
        let parallel = Machine::new(eligible(SchedulerKind::ParallelHeap, workers))
            .run_jobs(&jobs)
            .to_json();
        assert_eq!(
            parallel, serial,
            "ParallelHeap with {workers} workers diverged from the serial heap schedule"
        );
    }
}

/// Fault-era epochs: the parallel gate no longer requires
/// `fault.is_none()` / `journal.is_none()`, so an otherwise-eligible
/// machine with an active fault plan — a bounded link-drop/corrupt
/// window, a slow-node episode, a wedged Transit line the watchdog
/// recovers, and a scheduled node death — plus eager journaling must
/// still produce a byte-identical report at every worker count, while
/// *actually forming epochs* once the link window closes. The job mix
/// makes both sides real: a two-node job supplies remote traffic for
/// the faults to strike, and two single-node jobs supply the disjoint
/// groups epochs need.
#[test]
fn parallel_epochs_match_serial_heap_under_faults() {
    let cfg = |scheduler: SchedulerKind, workers: usize| {
        let mut cfg = MachineConfig::builder()
            .nodes(4)
            .procs_per_node(2)
            .l1_bytes(1024)
            .l2_bytes(4096)
            .audit_interval(Some(50_000))
            .build();
        cfg.journal = JournalPolicy::Eager {
            record_cycles: 4,
            replay_cycles_per_line: 24,
        };
        cfg.scheduler = scheduler;
        cfg.worker_threads = workers;
        cfg
    };
    let jobs = || {
        vec![
            app(AppId::Ocean, Scale::Small).generate(4),
            app(AppId::Radix, Scale::Small).generate(2),
            app(AppId::Fft, Scale::Small).generate(2),
        ]
    };
    let plan = || {
        FaultPlan::new(0xFA117)
            .link_fault_window(Cycle::ZERO, Cycle(4_000), 0.01, 0.002)
            .slow_node(NodeId(0), Cycle(4_000), Cycle(12_000), 3)
            .wedge_transit(NodeId(1), Cycle(8_000))
            .fail_node(NodeId(3), Cycle(20_000))
    };
    let run = |scheduler, workers| {
        let mut m = Machine::new(cfg(scheduler, workers));
        m.install_fault_plan(plan()).expect("fault plan validates");
        m.run_jobs(&jobs())
    };
    let serial = run(SchedulerKind::Heap, 1);
    assert_eq!(serial.fault.node_failures, 1, "the node death must land");
    assert_eq!(serial.fault.transit_wedges, 1, "the wedge must land");
    check_golden("mixed_faults", &serial.to_json());
    for workers in [1, 2, 4] {
        let par = run(SchedulerKind::ParallelHeap, workers);
        assert_eq!(
            par.to_json(),
            serial.to_json(),
            "ParallelHeap with {workers} workers diverged under the fault plan"
        );
        assert!(
            par.parallel_fallback
                .count(prism::machine::ParallelFallbackReason::LinkFaultWindowActive)
                > 0,
            "picks inside the open link window must serialize"
        );
    }
}

/// Epochs must *actually form* under an active fault plan, not just
/// stay correct: space-shared single-node jobs give every node a
/// disjoint group, and a bounded link window plus a slow-node episode
/// plus a scheduled node death leave plenty of fault-free room. The
/// hostile mix above proves byte-equality when faults and conflicts
/// overlap; this one proves the gate is per-feature — parallelism
/// resumes once the link window closes, and the death serializes only
/// the groups whose footprints touch the dead node.
#[test]
fn parallel_epochs_form_under_bounded_faults() {
    use prism::machine::ParallelFallbackReason;
    let cfg = |scheduler: SchedulerKind, workers: usize| {
        let mut cfg = MachineConfig::builder()
            .nodes(4)
            .procs_per_node(2)
            .l1_bytes(1024)
            .l2_bytes(4096)
            .audit_interval(Some(50_000))
            .build();
        cfg.journal = JournalPolicy::Eager {
            record_cycles: 4,
            replay_cycles_per_line: 24,
        };
        cfg.scheduler = scheduler;
        cfg.worker_threads = workers;
        cfg
    };
    let jobs: Vec<_> = [AppId::Lu, AppId::WaterSpa, AppId::Radix, AppId::Fft]
        .iter()
        .map(|&a| app(a, Scale::Small).generate(2))
        .collect();
    let plan = || {
        FaultPlan::new(0xFA117)
            .link_fault_window(Cycle::ZERO, Cycle(2_000), 0.01, 0.002)
            .slow_node(NodeId(1), Cycle(2_000), Cycle(6_000), 2)
            .fail_node(NodeId(3), Cycle(10_000))
    };
    let run = |scheduler, workers| {
        let mut m = Machine::new(cfg(scheduler, workers));
        m.install_fault_plan(plan()).expect("fault plan validates");
        m.run_jobs(&jobs)
    };
    let serial = run(SchedulerKind::Heap, 1);
    assert_eq!(serial.fault.node_failures, 1, "the node death must land");
    for workers in [1, 2, 4] {
        let par = run(SchedulerKind::ParallelHeap, workers);
        assert_eq!(
            par.to_json(),
            serial.to_json(),
            "ParallelHeap with {workers} workers diverged under the fault plan"
        );
        assert!(
            par.parallel_fallback.epochs > 0,
            "epochs must form between the fault episodes \
             ({workers} workers ran fully serial)"
        );
        assert!(
            par.parallel_fallback
                .count(ParallelFallbackReason::LinkFaultWindowActive)
                > 0,
            "picks inside the open link window must serialize"
        );
    }
}

/// A trace shared by every processor forms no epoch: every attempt is
/// doomed. The executor must reject such an attempt as soon as group
/// 0's footprint covers every other candidate node, without scanning
/// the remaining windows — and must reach exactly the epoch decisions
/// of the full scan. The pinned counts were measured with the
/// scan-everything executor; the work bound (cursor hits + slides +
/// misses per scanning attempt) is one that executor fails at ~10.5
/// window scans per attempt.
#[test]
fn parallel_heap_rejects_doomed_attempts_after_one_scan() {
    use prism::machine::ParallelFallbackReason;
    let cfg = |scheduler: SchedulerKind| {
        let mut cfg = MachineConfig::builder().nodes(4).procs_per_node(4).build();
        cfg.scheduler = scheduler;
        cfg.worker_threads = 2;
        cfg
    };
    let trace = app(AppId::Barnes, Scale::Small).generate(16);
    let serial = Machine::new(cfg(SchedulerKind::Heap)).run(&trace);
    let par = Machine::new(cfg(SchedulerKind::ParallelHeap)).run(&trace);
    assert_eq!(
        par.to_json(),
        serial.to_json(),
        "ParallelHeap diverged from the serial heap on a shared trace"
    );
    let f = &par.parallel_fallback;
    let counts: Vec<u64> = ParallelFallbackReason::ALL
        .iter()
        .map(|&r| f.count(r))
        .collect();
    assert_eq!(
        (f.epochs, f.serial_picks, f.epoch_groups.as_slice()),
        (0, 24_981, &[][..]),
        "epoch decisions moved"
    );
    assert_eq!(counts, [0, 0, 0, 0, 57, 24_924], "fallback reasons moved");
    let attempts = f.serial_picks + f.epochs - f.count(ParallelFallbackReason::EpochBackoff);
    let scans = f.cursor_hits + f.cursor_slides + f.cursor_misses;
    assert!(
        scans <= 2 * attempts,
        "{scans} window scans over {attempts} epoch attempts: doomed \
         attempts must stop after group 0's scan"
    );
}

/// Shared scaffolding for the newly epoch-eligible feature configs:
/// one job spanning two nodes (it supplies the cross-node traffic the
/// feature under test needs) plus two single-node jobs (they supply
/// the disjoint groups epochs need). The single-node jobs run long
/// conflict-free stretches, so epochs clear the executor's minimum
/// span even around the shared job's conflicts.
fn feature_cfg(scheduler: SchedulerKind, workers: usize) -> MachineConfig {
    let mut cfg = MachineConfig::builder()
        .nodes(4)
        .procs_per_node(2)
        .l1_bytes(1024)
        .l2_bytes(4096)
        .build();
    cfg.scheduler = scheduler;
    cfg.worker_threads = workers;
    cfg
}

fn feature_jobs() -> Vec<prism::mem::trace::Trace> {
    vec![
        app(AppId::Ocean, Scale::Small).generate(4),
        app(AppId::Radix, Scale::Small).generate(2),
        app(AppId::Fft, Scale::Small).generate(2),
    ]
}

/// Runs one newly eligible feature config on the serial heap and on
/// `ParallelHeap` at 1/2/4 workers, asserting byte-identical reports,
/// that real epochs formed, that the structural gate never fired, and
/// that the persistent window cursors actually served scans.
fn check_feature_epochs(label: &str, tweak: impl Fn(&mut MachineConfig)) -> RunReport {
    use prism::machine::ParallelFallbackReason;
    let run = |scheduler, workers| {
        let mut cfg = feature_cfg(scheduler, workers);
        tweak(&mut cfg);
        Machine::new(cfg).run_jobs(&feature_jobs())
    };
    let serial = run(SchedulerKind::Heap, 1);
    for workers in [1, 2, 4] {
        let par = run(SchedulerKind::ParallelHeap, workers);
        assert_eq!(
            par.to_json(),
            serial.to_json(),
            "ParallelHeap with {workers} workers diverged from the serial heap on {label}"
        );
        assert!(
            par.parallel_fallback.epochs > 0,
            "no epochs formed on {label} with {workers} workers"
        );
        assert_eq!(
            par.parallel_fallback
                .count(ParallelFallbackReason::IneligibleConfig),
            0,
            "{label} must not trip the structural eligibility gate"
        );
        assert!(
            par.parallel_fallback.cursor_hits > 0,
            "persistent cursors served no scans on {label} with {workers} workers"
        );
    }
    serial
}

/// Migration-enabled runs now form real epochs: the footprint closes
/// over the traffic ledger's prospective migration targets, so a page
/// re-mastered inside an epoch stays a group-local event. The serial
/// report proves migrations actually happened.
#[test]
fn parallel_epochs_match_serial_heap_with_migration() {
    let serial = check_feature_epochs("migration", |cfg| {
        cfg.migration = Some(MigrationPolicy {
            check_interval: 16,
            min_traffic: 32,
            dominance: 0.55,
        });
    });
    assert!(
        serial.migrations > 0,
        "the migration policy must actually re-master pages"
    );
}

/// Page-cache-capped runs now form real epochs: the node fill closure
/// covers eviction victims' homes, so a client page-out inside an
/// epoch flushes within the group's own footprint. The serial report
/// proves evictions actually happened.
#[test]
fn parallel_epochs_match_serial_heap_with_page_cache_cap() {
    let serial = check_feature_epochs("page-cache cap", |cfg| {
        cfg.page_cache_capacity = Some(1);
    });
    assert!(
        serial.page_outs > 0,
        "the page-cache cap must actually force client page-outs"
    );
}

/// LA-NUMA runs now form real epochs: the node fill closure covers
/// imaginary-frame write-back owners, so an L2 eviction posting a
/// dirty line to a remote home stays inside the group's footprint. The
/// serial report proves remote write-backs actually happened.
#[test]
fn parallel_epochs_match_serial_heap_with_lanuma() {
    let serial = check_feature_epochs("LA-NUMA", |cfg| {
        cfg.policy = PagePolicy::Lanuma;
    });
    assert!(
        serial.remote_writebacks > 0,
        "the LA-NUMA policy must actually post remote write-backs"
    );
}

/// The debug report must name every fallback reason —
/// `ParallelFallbackReason::ALL` is compile-time-checked for
/// exhaustiveness, and this locks the emission side: a new variant
/// cannot silently vanish from `to_json_debug`. Also pins the cursor
/// and epoch-histogram fields the perf-smoke CI job parses, and the
/// report contract: `to_json_debug` strictly extends the plain
/// `to_json`, whose scheduler-invariant bytes never carry the
/// scheduler-dependent `parallel_fallback` block.
#[test]
fn debug_report_names_every_fallback_reason() {
    use prism::machine::ParallelFallbackReason;
    let mut cfg = feature_cfg(SchedulerKind::ParallelHeap, 2);
    cfg.migration = Some(MigrationPolicy {
        check_interval: 16,
        min_traffic: 32,
        dominance: 0.55,
    });
    let report = Machine::new(cfg).run_jobs(&feature_jobs());
    let (plain, json) = (report.to_json(), report.to_json_debug());
    assert!(
        !plain.contains("parallel_fallback"),
        "plain report leaked parallel_fallback"
    );
    assert!(
        json.starts_with(&plain[..plain.len() - 1]),
        "to_json_debug must extend to_json"
    );
    for reason in ParallelFallbackReason::ALL {
        assert!(
            json.contains(&format!("\"{}\":", reason.name())),
            "to_json_debug lost fallback reason `{}`",
            reason.name()
        );
    }
    for field in [
        "\"policy\":",
        "\"epoch_groups\":",
        "\"cursor_hits\":",
        "\"cursor_misses\":",
        "\"cursor_invalidations\":",
    ] {
        assert!(json.contains(field), "to_json_debug lost field {field}");
    }
}

/// Named for the debug-only `dir_counters` block this contract used to
/// guard. That block is gone; the directory-cache totals it duplicated
/// are carried by the plain report's per-node `dir_cache_hits` /
/// `dir_cache_misses`. Locks the split on a serial LU run: neither
/// variant carries a `dir_counters` block, the debug variant extends the
/// plain one by the `parallel_fallback` tail alone, and the per-node
/// directory-cache counters sit in the plain bytes and see traffic.
#[test]
fn dir_counters_live_only_in_debug_report() {
    let sum = |json: &str, name: &str| -> u64 {
        let key = format!("\"{name}\":");
        json.match_indices(&key)
            .map(|(at, _)| {
                json[at + key.len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse::<u64>()
                    .expect("counter value")
            })
            .sum()
    };
    let trace = app(AppId::Lu, Scale::Small).generate(8);
    let r = Machine::new(base_config()).run(&trace);
    let (plain, debug) = (r.to_json(), r.to_json_debug());
    for json in [&plain, &debug] {
        assert!(!json.contains("dir_counters"), "report has dir_counters");
    }
    let tail = debug
        .strip_prefix(&plain[..plain.len() - 1])
        .expect("to_json_debug must extend to_json");
    // The tail is `,"parallel_fallback":{...}` plus the closing brace:
    // the fallback object must close exactly one byte before the end.
    let block = tail
        .strip_prefix(",\"parallel_fallback\":")
        .expect("debug tail starts with parallel_fallback");
    let mut depth = 0i32;
    let close = block.char_indices().find_map(|(i, c)| {
        depth += match c {
            '{' => 1,
            '}' => -1,
            _ => 0,
        };
        (depth == 0).then_some(i)
    });
    assert_eq!(
        close,
        Some(block.len() - 2),
        "debug tail carries more than parallel_fallback: {tail}"
    );
    assert_eq!(
        plain.matches("\"dir_cache_hits\":").count(),
        r.per_node.len(),
        "every node reports its directory-cache hits"
    );
    assert!(
        sum(&plain, "dir_cache_hits") + sum(&plain, "dir_cache_misses") > 0,
        "directory cache saw no probes"
    );
}

/// Periodic audit sweeps keep the epoch executor byte-identical to the
/// serial heap: audit dues bound epochs as control events, every sweep
/// is exhaustive, and the sweeps find nothing on a healthy machine.
#[test]
fn audit_modes_are_deterministic() {
    let serial = check_feature_epochs("periodic audits", |cfg| {
        cfg.audit_interval = Some(10_000);
    });
    assert!(serial.audit_sweeps > 0, "the auditor never swept");
    assert!(
        serial.audit.is_empty(),
        "audit findings on a healthy run: {:?}",
        serial.audit
    );
}

/// Audit dues cut epochs, and serial batches overshoot them unless they
/// are capped at the next control due too (`heap_step`): a
/// compute-heavy lane's batch would otherwise run past a due that the
/// epoch executor stops at, firing the sweep at a different point of the
/// interleaving. Sweep counts and report bytes must match the heap.
#[test]
fn parallel_heap_matches_heap_with_periodic_audits() {
    use prism::mem::addr::VirtAddr;
    use prism::mem::trace::{Op, SegmentSpec, Trace, SHARED_BASE};

    let page = 4096u64;
    let a = SHARED_BASE; // page 0 -> home node 0
    let b = SHARED_BASE + page; // page 1 -> home node 1
    let mut lane0 = Vec::new();
    let mut lane1 = Vec::new();
    for _ in 0..3000 {
        lane0.push(Op::Read(VirtAddr(a)));
        lane0.push(Op::Compute(397));
        lane1.push(Op::Read(VirtAddr(b)));
        lane1.push(Op::Compute(11));
    }
    let trace = Trace {
        name: "periodic-audits".into(),
        segments: vec![SegmentSpec {
            name: "s".into(),
            va_base: SHARED_BASE,
            bytes: 2 * page,
        }],
        lanes: vec![lane0, lane1],
    };
    let run = |scheduler| {
        let cfg = MachineConfig::builder()
            .nodes(2)
            .procs_per_node(1)
            .audit_interval(Some(500))
            .scheduler(scheduler)
            .worker_threads(1)
            .build();
        Machine::new(cfg).run(&trace)
    };
    let serial = run(SchedulerKind::Heap);
    let par = run(SchedulerKind::ParallelHeap);
    assert_eq!(
        serial.audit_sweeps, par.audit_sweeps,
        "audit sweep counts diverged"
    );
    assert_eq!(serial.to_json(), par.to_json(), "reports diverged");
}
