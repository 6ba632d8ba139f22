//! Scalability sweep: the same workload on machines of 1–16 nodes.
//! PRISM's design goal is scalability through localized memory
//! management; this regenerates the speedup curve for one application
//! under S-COMA and LA-NUMA page modes, recording simulated cycles and
//! host wall-clock per machine size.
//!
//! A second section races the engine's two run-loop schedulers — the
//! default binary-heap ready queue against the O(P) linear-scan
//! baseline — on the 8-node / 32-processor machine. The golden
//! determinism tests prove the two produce identical reports, so the
//! wall-clock gap is pure scheduler overhead.
//!
//! A third section measures the epoch-parallel executor: eight
//! single-node jobs space-share the 8-node machine (each job's pages
//! are homed on its own node, so the jobs' coherence footprints are
//! disjoint and every epoch admits all eight groups), and the same
//! composed workload runs under the serial heap and under
//! `ParallelHeap` at 1, 2 and 4 worker threads. The binary asserts all
//! four `RunReport`s are byte-identical before reporting wall-clock, so
//! the speedup shown is for the *same* simulation, not a relaxed one.
//! `host_parallelism` rides along in the JSON: worker threads can only
//! buy wall-clock on a multi-core host, while the epoch executor's
//! long uninterrupted batches speed things up even single-core.
//!
//! Everything is also written to `BENCH_scaling.json` (see
//! `prism_bench::bench_out` for where it lands).

use std::time::Instant;

use prism_core::machine::machine::Machine;
use prism_core::machine::{ParallelFallback, ParallelFallbackReason, SchedulerKind};
use prism_core::{MachineConfig, PolicyKind, Simulation};
use prism_workloads::{app, AppId, Scale};

const JSON_FILE: &str = "BENCH_scaling.json";

/// Scheduler A/B geometry: 8 nodes × 4 processors = 32 procs.
const AB_NODES: usize = 8;
const AB_TIMING_RUNS: u32 = 3;
/// Worker-thread counts for the epoch-parallel A/B.
const AB_WORKERS: [usize; 3] = [1, 2, 4];

struct SizeRow {
    nodes: usize,
    scoma_cycles: u64,
    lanuma_cycles: u64,
    scoma_wall_ms: f64,
    lanuma_wall_ms: f64,
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "FFT".to_string());
    let id = AppId::ALL
        .into_iter()
        .find(|a| a.to_string().eq_ignore_ascii_case(&which))
        .unwrap_or(AppId::Fft);
    let scale = match std::env::args().nth(2).as_deref() {
        Some("small") => Scale::Small,
        _ => Scale::Paper,
    };
    let workload = app(id, scale);
    println!(
        "scaling {} across machine sizes (4 processors per node)",
        id
    );
    println!(
        "{:>6} {:>6} {:>16} {:>16} {:>9} {:>9} {:>10} {:>10}",
        "nodes",
        "procs",
        "SCOMA cycles",
        "LANUMA cycles",
        "SCOMA ×",
        "LANUMA ×",
        "SCOMA ms",
        "LANUMA ms"
    );
    let mut rows: Vec<SizeRow> = Vec::new();
    let mut base: Option<(u64, u64)> = None;
    for nodes in [1usize, 2, 4, 8, 16] {
        let cfg = MachineConfig::builder()
            .nodes(nodes)
            .procs_per_node(4)
            .build();
        let trace = workload.generate(cfg.total_procs());
        let wall = Instant::now();
        let scoma = Simulation::new(cfg.clone(), PolicyKind::Scoma)
            .run_trace(&trace)
            .expect("scoma run");
        let scoma_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let wall = Instant::now();
        let lanuma = Simulation::new(cfg, PolicyKind::Lanuma)
            .run_trace(&trace)
            .expect("lanuma run");
        let lanuma_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let (s, l) = (scoma.exec_cycles.as_u64(), lanuma.exec_cycles.as_u64());
        let (s0, l0) = *base.get_or_insert((s, l));
        println!(
            "{:>6} {:>6} {:>16} {:>16} {:>9.2} {:>9.2} {:>10.1} {:>10.1}",
            nodes,
            nodes * 4,
            s,
            l,
            s0 as f64 / s as f64,
            l0 as f64 / l as f64,
            scoma_wall_ms,
            lanuma_wall_ms
        );
        rows.push(SizeRow {
            nodes,
            scoma_cycles: s,
            lanuma_cycles: l,
            scoma_wall_ms,
            lanuma_wall_ms,
        });
    }

    let (heap_ms, linear_ms) = scheduler_ab(workload.as_ref());
    let speedup_pct = (linear_ms / heap_ms - 1.0) * 100.0;
    println!(
        "\nscheduler A/B at {} nodes / {} procs (best of {} runs):",
        AB_NODES,
        AB_NODES * 4,
        AB_TIMING_RUNS
    );
    println!("  heap ready queue : {heap_ms:>8.1} ms");
    println!("  linear scan      : {linear_ms:>8.1} ms");
    println!("  heap is {speedup_pct:.1}% faster wall-clock (identical reports by construction)");

    let par = parallel_ab(workload.as_ref());
    println!(
        "\nepoch-parallel A/B: {} single-node {} jobs space-sharing {} nodes (best of {} runs):",
        AB_NODES, id, AB_NODES, AB_TIMING_RUNS
    );
    println!("  serial heap      : {:>8.1} ms   1.00x", par.serial_ms);
    for r in &par.workers {
        println!(
            "  {} worker threads : {:>8.1} ms  {:>5.2}x   {} epochs, cursor hit rate {}",
            r.workers,
            r.wall_ms,
            par.serial_ms / r.wall_ms,
            r.fallback.epochs,
            r.fallback
                .cursor_hit_rate()
                .map_or("n/a".to_string(), |h| format!("{:.0}%", h * 100.0)),
        );
    }
    println!("  all four reports byte-identical (asserted in-process)");
    if std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
        println!("  note: single-core host — thread speedup not measurable here");
    }

    let elig = eligibility_ab(workload.as_ref());
    println!("\nfootprint-ledger eligibility (serial vs ParallelHeap 2w, identical reports):");
    for r in &elig {
        println!(
            "  {:<18}: {} epochs, {} ineligible_config picks, cursor hit rate {}",
            r.label,
            r.fallback.epochs,
            r.fallback.count(ParallelFallbackReason::IneligibleConfig),
            r.fallback
                .cursor_hit_rate()
                .map_or("n/a".to_string(), |h| format!("{:.0}%", h * 100.0)),
        );
    }

    prism_bench::write_bench_json(
        JSON_FILE,
        &render_json(id, &rows, heap_ms, linear_ms, &par, &elig),
    );
}

struct ParallelAb {
    serial_ms: f64,
    workers: Vec<WorkerRow>,
}

struct WorkerRow {
    workers: usize,
    wall_ms: f64,
    /// The best (reported) run's `parallel_fallback` diagnostics: the
    /// epoch histogram and cursor counters repeat exactly, the
    /// host-clock `stage` times belong to that run alone.
    fallback: ParallelFallback,
}

/// Times the serial heap against the epoch-parallel executor on a
/// composed space-sharing workload — the shape the optimisation
/// targets: every job runs on its own node, so conflict detection
/// admits all groups and the epochs are maximally wide. Asserts every
/// arm produces the exact serial `RunReport` before timing counts.
fn parallel_ab(workload: &dyn prism_workloads::Workload) -> ParallelAb {
    let cfg = |kind: SchedulerKind, workers: usize| {
        let mut c = MachineConfig::builder()
            .nodes(AB_NODES)
            .procs_per_node(4)
            .build();
        c.scheduler = kind;
        c.worker_threads = workers;
        // Stage timings are host-clock diagnostics surfaced only via
        // `to_json_debug`; the byte-identity assert below runs on the
        // plain report, which they never touch.
        c.stage_timing = true;
        c
    };
    let jobs: Vec<_> = (0..AB_NODES).map(|_| workload.generate(4)).collect();
    let time = |kind: SchedulerKind, workers: usize| -> (f64, String, ParallelFallback) {
        let mut best = f64::INFINITY;
        let mut json = String::new();
        let mut fallback = ParallelFallback::default();
        for _ in 0..AB_TIMING_RUNS {
            let mut m = Machine::new(cfg(kind, workers));
            let wall = Instant::now();
            let report = m.run_jobs(&jobs);
            let ms = wall.elapsed().as_secs_f64() * 1e3;
            json = report.to_json();
            // The host-clock stage breakdown must describe the run
            // whose wall is reported, so keep the best run's copy.
            if ms < best {
                best = ms;
                fallback = report.parallel_fallback;
            }
        }
        (best, json, fallback)
    };
    let (serial_ms, serial_json, _) = time(SchedulerKind::Heap, 1);
    let workers: Vec<WorkerRow> = AB_WORKERS
        .into_iter()
        .map(|w| {
            let (wall_ms, json, fallback) = time(SchedulerKind::ParallelHeap, w);
            assert_eq!(
                json, serial_json,
                "ParallelHeap({w} workers) diverged from the serial heap"
            );
            WorkerRow {
                workers: w,
                wall_ms,
                fallback,
            }
        })
        .collect();
    // The cursor counters are part of the deterministic replay, so
    // every worker count produces the same set — render_json dedupes
    // them into one top-level object on the strength of this check.
    for r in &workers[1..] {
        let a = &workers[0].fallback;
        let b = &r.fallback;
        assert_eq!(
            (
                a.cursor_hits,
                a.cursor_slides,
                a.cursor_misses,
                a.cursor_invalidations
            ),
            (
                b.cursor_hits,
                b.cursor_slides,
                b.cursor_misses,
                b.cursor_invalidations
            ),
            "cursor counters must not depend on the worker count"
        );
    }
    // Sliding cursors exist to make one worker as fast as the serial
    // loop: the single-worker arm may not regress past noise.
    if let Some(w1) = workers.iter().find(|r| r.workers == 1) {
        assert!(
            w1.wall_ms <= 1.05 * serial_ms,
            "workers=1 wall {:.3}ms exceeds 1.05x serial {:.3}ms",
            w1.wall_ms,
            serial_ms
        );
    }
    ParallelAb { serial_ms, workers }
}

struct EligibilityRow {
    label: &'static str,
    fallback: ParallelFallback,
}

/// Golden eligibility runs for the configurations the parallel
/// scheduler used to refuse wholesale: lazy page migration and a client
/// page-cache cap. Each runs the composed space-sharing workload under
/// the serial heap and `ParallelHeap` at 2 workers, asserts the reports
/// are byte-identical, and records the fallback counters — CI asserts
/// `ineligible_config` stayed at zero.
type ConfigTweak = fn(&mut MachineConfig);

fn eligibility_ab(workload: &dyn prism_workloads::Workload) -> Vec<EligibilityRow> {
    let variants: [(&'static str, ConfigTweak); 2] = [
        ("migration-enabled", |c| {
            c.migration = Some(Default::default());
        }),
        ("page-cache-capped", |c| {
            c.page_cache_capacity = Some(4);
        }),
    ];
    let jobs: Vec<_> = (0..AB_NODES).map(|_| workload.generate(4)).collect();
    variants
        .into_iter()
        .map(|(label, mutate)| {
            let run = |kind: SchedulerKind, workers: usize| {
                let mut c = MachineConfig::builder()
                    .nodes(AB_NODES)
                    .procs_per_node(4)
                    .build();
                c.scheduler = kind;
                c.worker_threads = workers;
                mutate(&mut c);
                Machine::new(c).run_jobs(&jobs)
            };
            let serial = run(SchedulerKind::Heap, 1);
            let parallel = run(SchedulerKind::ParallelHeap, 2);
            assert_eq!(
                parallel.to_json(),
                serial.to_json(),
                "{label}: ParallelHeap diverged from the serial heap"
            );
            EligibilityRow {
                label,
                fallback: parallel.parallel_fallback,
            }
        })
        .collect()
}

/// Times the heap vs linear-scan run loop on the same trace and config,
/// returning best-of-N wall milliseconds for each. Uses `Machine`
/// directly so only `cfg.scheduler` differs between the arms.
fn scheduler_ab(workload: &dyn prism_workloads::Workload) -> (f64, f64) {
    let cfg = |kind: SchedulerKind| {
        let mut c = MachineConfig::builder()
            .nodes(AB_NODES)
            .procs_per_node(4)
            .build();
        c.scheduler = kind;
        c
    };
    let trace = workload.generate(AB_NODES * 4);
    let time = |kind: SchedulerKind| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..AB_TIMING_RUNS {
            let mut m = Machine::new(cfg(kind));
            let wall = Instant::now();
            let report = m.run(&trace);
            let ms = wall.elapsed().as_secs_f64() * 1e3;
            assert!(report.total_refs > 0);
            best = best.min(ms);
        }
        best
    };
    // Interleave-free ordering: all heap runs, then all linear runs —
    // any host warm-up penalizes the heap arm, not the baseline.
    let heap = time(SchedulerKind::Heap);
    let linear = time(SchedulerKind::LinearScan);
    (heap, linear)
}

fn render_json(
    id: AppId,
    rows: &[SizeRow],
    heap_ms: f64,
    linear_ms: f64,
    par: &ParallelAb,
    elig: &[EligibilityRow],
) -> String {
    let mut o = String::from("{\n");
    o.push_str(&format!("  \"workload\": \"{id}\",\n"));
    o.push_str("  \"procs_per_node\": 4,\n  \"sizes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        o.push_str(&format!(
            "    {{\"nodes\": {}, \"procs\": {}, \"scoma_cycles\": {}, \"lanuma_cycles\": {}, \
             \"scoma_wall_ms\": {:.3}, \"lanuma_wall_ms\": {:.3}}}{}\n",
            r.nodes,
            r.nodes * 4,
            r.scoma_cycles,
            r.lanuma_cycles,
            r.scoma_wall_ms,
            r.lanuma_wall_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    o.push_str("  ],\n");
    o.push_str(&format!(
        "  \"scheduler_ab\": {{\"nodes\": {}, \"procs\": {}, \"heap_wall_ms\": {:.3}, \
         \"linear_wall_ms\": {:.3}, \"heap_speedup_pct\": {:.2}}},\n",
        AB_NODES,
        AB_NODES * 4,
        heap_ms,
        linear_ms,
        (linear_ms / heap_ms - 1.0) * 100.0
    ));
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    o.push_str(&format!(
        "  \"parallel_ab\": {{\"nodes\": {}, \"procs\": {}, \"jobs\": {}, \
         \"host_parallelism\": {}, \"thread_speedup_measurable\": {}, \
         \"reports_identical\": true, \
         \"serial_wall_ms\": {:.3}, \"workers\": [\n",
        AB_NODES,
        AB_NODES * 4,
        AB_NODES,
        host_cores,
        host_cores > 1,
        par.serial_ms
    ));
    for (i, r) in par.workers.iter().enumerate() {
        let groups: Vec<String> = r.fallback.epoch_groups.iter().map(u64::to_string).collect();
        let s = &r.fallback.stage;
        o.push_str(&format!(
            "    {{\"workers\": {}, \"wall_ms\": {:.3}, \"speedup\": {:.3}, \
             \"epochs\": {}, \"epoch_groups\": [{}], \"stage_run\": \"best\", \
             \"stage_ns\": {{\"scan_ns\": {}, \"admit_ns\": {}, \"execute_ns\": {}, \
             \"merge_ns\": {}}}}}{}\n",
            r.workers,
            r.wall_ms,
            par.serial_ms / r.wall_ms,
            r.fallback.epochs,
            groups.join(","),
            s.scan_ns,
            s.admit_ns,
            s.execute_ns,
            s.merge_ns,
            if i + 1 == par.workers.len() { "" } else { "," }
        ));
    }
    o.push_str("  ],\n");
    // Deterministic across worker counts (parallel_ab asserts it), so
    // one copy serves every row.
    let cur = &par.workers[0].fallback;
    o.push_str(&format!(
        "  \"cursor\": {{\"hits\": {}, \"misses\": {}, \"slides\": {}, \
         \"invalidations\": {}, \"hit_rate\": {}}}}},\n",
        cur.cursor_hits,
        cur.cursor_misses,
        cur.cursor_slides,
        cur.cursor_invalidations,
        cur.cursor_hit_rate()
            .map_or("null".to_string(), |h| format!("{h:.4}")),
    ));
    o.push_str("  \"parallel_eligibility\": [\n");
    for (i, r) in elig.iter().enumerate() {
        o.push_str(&format!(
            "    {{\"config\": \"{}\", \"reports_identical\": true, \
             \"epochs\": {}, \"ineligible_config\": {}, \
             \"cursor_hits\": {}, \"cursor_misses\": {}}}{}\n",
            r.label,
            r.fallback.epochs,
            r.fallback.count(ParallelFallbackReason::IneligibleConfig),
            r.fallback.cursor_hits,
            r.fallback.cursor_misses,
            if i + 1 == elig.len() { "" } else { "," }
        ));
    }
    o.push_str("  ]\n}");
    o
}
