//! Deterministic per-layer counts read from `RunReport`s, and the
//! correctness checks the benchmark applies to simulated results.

use prism_bench::Table1Row;
use prism_core::machine::ParallelFallbackReason;
use prism_core::{PolicyKind, RunReport, SweepResult};

/// A named metric value and its unit.
pub type Metric = (String, f64, &'static str);

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The deterministic counts of one repetition's reports, in report
/// order: `sim_cycles` (summed simulated execution time), the summed
/// SCOMA-70 `capacity`, and every per-layer count. Ratios and means are
/// computed from integer sums, so every value repeats bit for bit when
/// the simulation does.
pub fn counts(reports: &[&RunReport], capacity: u64) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let node_sum = |f: &dyn Fn(&prism_core::NodeReport) -> u64| {
        reports
            .iter()
            .flat_map(|r| r.per_node.iter())
            .map(f)
            .sum::<u64>()
    };
    let mut m = Vec::new();
    let mut put = |k: &str, v: f64, unit: &'static str| m.push((k.to_string(), v, unit));
    put(
        "sim_cycles",
        sum(&|r| r.exec_cycles.as_u64()) as f64,
        "cycles",
    );
    put("experiment.scoma70_capacity", capacity as f64, "frames");

    put("kernel.page_outs", sum(&|r| r.page_outs) as f64, "count");
    put(
        "kernel.page_out_lines",
        sum(&|r| r.page_out_lines) as f64,
        "count",
    );
    put("kernel.faults", sum(&|r| r.total_faults()) as f64, "count");
    put(
        "kernel.faults_contacting_home",
        sum(&|r| r.faults_contacting_home) as f64,
        "count",
    );
    put(
        "kernel.conversions_to_lanuma",
        sum(&|r| r.conversions_to_lanuma) as f64,
        "count",
    );
    put(
        "kernel.frames_allocated",
        sum(&|r| r.frames_allocated) as f64,
        "frames",
    );
    put(
        "kernel.fault_cycles_mean",
        ratio(
            sum(&|r| r.fault_latency.sum()),
            sum(&|r| r.fault_latency.count()),
        ),
        "cycles",
    );

    put(
        "txn.remote_misses",
        sum(&|r| r.remote_misses) as f64,
        "count",
    );
    put(
        "txn.remote_upgrades",
        sum(&|r| r.remote_upgrades) as f64,
        "count",
    );
    put("txn.local_fills", sum(&|r| r.local_fills) as f64, "count");
    put(
        "txn.sibling_fills",
        sum(&|r| r.sibling_fills) as f64,
        "count",
    );
    put(
        "txn.invalidations",
        sum(&|r| r.invalidations) as f64,
        "count",
    );
    put("txn.forwards", sum(&|r| r.forwards) as f64, "count");
    put(
        "txn.remote_fetch_cycles_mean",
        ratio(
            sum(&|r| r.remote_fetch_latency.sum()),
            sum(&|r| r.remote_fetch_latency.count()),
        ),
        "cycles",
    );
    put(
        "txn.local_fill_cycles_mean",
        ratio(
            sum(&|r| r.local_fill_latency.sum()),
            sum(&|r| r.local_fill_latency.count()),
        ),
        "cycles",
    );

    let guess = node_sum(&|n| n.pit_guess_hits);
    put(
        "mem.pit_guess_hit_rate",
        ratio(guess, guess + node_sum(&|n| n.pit_hash_lookups)),
        "ratio",
    );
    let dir_hits = node_sum(&|n| n.dir_cache_hits);
    put(
        "mem.dir_cache_hit_rate",
        ratio(dir_hits, dir_hits + node_sum(&|n| n.dir_cache_misses)),
        "ratio",
    );
    put(
        "mem.batched_lookups",
        sum(&|r| r.batched_lookups) as f64,
        "count",
    );

    put(
        "bus.busy_cycles",
        node_sum(&|n| n.bus_busy) as f64,
        "cycles",
    );
    put(
        "bus.wait_cycles",
        node_sum(&|n| n.bus_wait) as f64,
        "cycles",
    );
    put(
        "net.ni_busy_cycles",
        node_sum(&|n| n.ni_busy) as f64,
        "cycles",
    );
    put(
        "net.ni_wait_cycles",
        node_sum(&|n| n.ni_wait) as f64,
        "cycles",
    );
    put(
        "ctrl.engine_wait_cycles",
        node_sum(&|n| n.engine_wait) as f64,
        "cycles",
    );
    put(
        "mem.memory_wait_cycles",
        node_sum(&|n| n.memory_wait) as f64,
        "cycles",
    );

    let par = |f: &dyn Fn(&prism_core::machine::ParallelFallback) -> u64| {
        reports.iter().map(|r| f(&r.parallel_fallback)).sum::<u64>()
    };
    let epochs = par(&|p| p.epochs);
    put("par.epochs", epochs as f64, "count");
    put("par.serial_picks", par(&|p| p.serial_picks) as f64, "count");
    let groups = par(&|p| {
        p.epoch_groups
            .iter()
            .enumerate()
            .map(|(k, n)| k as u64 * n)
            .sum()
    });
    put("par.groups_per_epoch_mean", ratio(groups, epochs), "groups");
    for reason in ParallelFallbackReason::ALL {
        put(
            &format!("par.fallback.{}", reason.name()),
            par(&|p| p.count(reason)) as f64,
            "count",
        );
    }
    let failed_attempts = par(&|p| {
        p.count(ParallelFallbackReason::InsufficientParallelism)
            + p.count(ParallelFallbackReason::RecoveryHazard)
    });
    put(
        "par.attempt_yield",
        ratio(epochs, epochs + failed_attempts),
        "ratio",
    );
    let reused = par(&|p| p.cursor_hits + p.cursor_slides);
    let misses = par(&|p| p.cursor_misses);
    put(
        "fp_ledger.cursor_hit_rate",
        ratio(reused, reused + misses),
        "ratio",
    );
    put("fp_ledger.cursor_misses", misses as f64, "count");
    put(
        "fp_ledger.cursor_invalidations",
        par(&|p| p.cursor_invalidations) as f64,
        "count",
    );
    m
}

/// Summed executor stage times of `reports`, in seconds: scan, admit,
/// execute, merge. All zero unless the runs had `stage_timing` on.
pub fn stage_seconds(reports: &[&RunReport]) -> [f64; 4] {
    let mut s = [0u64; 4];
    for r in reports {
        let st = &r.parallel_fallback.stage;
        s[0] += st.scan_ns;
        s[1] += st.admit_ns;
        s[2] += st.execute_ns;
        s[3] += st.merge_ns;
    }
    s.map(|ns| ns as f64 * 1e-9)
}

/// The range `tests/latency.rs` accepts for measured / paper latency.
pub const TABLE1_RATIO: std::ops::RangeInclusive<f64> = 0.85..=1.12;

/// Mean |measured / paper - 1| over the Table-1 rows, in percent.
pub fn table1_err_pct(rows: &[Table1Row]) -> f64 {
    let total: f64 = rows.iter().map(|r| (r.ratio() - 1.0).abs()).sum();
    100.0 * total / rows.len().max(1) as f64
}

/// The `check_shapes` claims of the paper's evaluation that apply to one
/// application's sweep. Returns the violated claims, each with the
/// configurations whose reports it involves.
pub fn shape_violations(sweep: &SweepResult) -> Vec<(String, Vec<PolicyKind>)> {
    use PolicyKind::*;
    let app = &sweep.app;
    let mut out = Vec::new();
    let nt = |p| sweep.normalized_time(p);
    for p in PolicyKind::ALL {
        if nt(p) < 0.85 {
            out.push((
                format!("{app}: {p} beats SCOMA by more than noise ({:.2})", nt(p)),
                vec![Scoma, p],
            ));
        }
    }
    let s = &sweep.reports[&Scoma];
    let l = &sweep.reports[&Lanuma];
    if s.frames_allocated <= l.frames_allocated {
        out.push((
            format!("{app}: SCOMA should allocate more frames"),
            vec![Scoma, Lanuma],
        ));
    }
    if l.remote_misses * 100 < s.remote_misses * 98 {
        out.push((
            format!("{app}: LANUMA should not have fewer remote misses than SCOMA"),
            vec![Scoma, Lanuma],
        ));
    }
    if sweep.reports[&DynFcfs].page_outs != 0 {
        out.push((format!("{app}: Dyn-FCFS paged out"), vec![DynFcfs]));
    }
    // Barnes is one of the paper's capacity-pressure applications.
    if app == "Barnes" && nt(Scoma70) >= nt(Lanuma) {
        out.push((
            format!("{app}: SCOMA-70 should outperform LANUMA"),
            vec![Scoma70, Lanuma],
        ));
    }
    out
}

/// The lowercase configuration label used in metric names.
pub fn config_label(p: PolicyKind) -> String {
    p.to_string().to_lowercase()
}
