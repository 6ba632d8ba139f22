//! Host-time benchmark of the PRISM simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro_sweep|space_share|shared_conflict> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public API, checks every simulated run,
//! and prints the metrics, ending with one JSON line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics from
//! a traced run and writes its spans under `.perfbench-out/`. See
//! `perfbench/README.md` for the workloads and metrics.

mod layers;
mod spans;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use prism_core::machine::Machine;
use prism_core::mem::trace::{compose_jobs, Trace};
use prism_core::{
    derive_scoma70_capacity, sweep_trace, MachineConfig, PolicyKind, RunReport, SchedulerKind,
    Simulation, SweepResult, SCOMA70_FRACTION,
};
use prism_workloads::{Barnes, Mp3d, Workload};

use layers::{config_label, Metric};
use spans::Tracer;

/// Paper-scale Barnes (`app(AppId::Barnes, Scale::Paper)`): bodies,
/// iterations, and the seed workload seed 0 maps to.
const BARNES: (u64, u32, u64) = (4096, 2, 11);
/// Paper-scale MP3D (`app(AppId::Mp3d, Scale::Paper)`): particles,
/// iterations, grid, and the seed workload seed 0 maps to.
const MP3D: (u64, u32, u64, u64) = (16_000, 4, 16, 13);
/// Jobs in `space_share`: one per node of the paper machine.
const SPACE_JOBS: u64 = 8;
/// Worker threads for the `ParallelHeap` workloads (the host has 2 cores).
const WORKERS: usize = 2;
/// Where span dumps and the cross-run count records go.
const OUT_DIR: &str = ".perfbench-out";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    ReproSweep,
    SpaceShare,
    SharedConflict,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        match s {
            "repro_sweep" => Some(Kind::ReproSweep),
            "space_share" => Some(Kind::SpaceShare),
            "shared_conflict" => Some(Kind::SharedConflict),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::ReproSweep => "repro_sweep",
            Kind::SpaceShare => "space_share",
            Kind::SharedConflict => "shared_conflict",
        }
    }

    /// Untraced setup repetitions whose median is `setup_s`.
    fn setup_reps(self) -> usize {
        match self {
            Kind::SpaceShare => 5,
            _ => 9,
        }
    }

    /// The machine the timed calls run on: the paper's 8 nodes x 4
    /// processors, serial heap for the sweep, `ParallelHeap` otherwise.
    fn config(self, stage_timing: bool) -> MachineConfig {
        let mut cfg = MachineConfig::default();
        if self != Kind::ReproSweep {
            cfg.scheduler = SchedulerKind::ParallelHeap;
            cfg.worker_threads = WORKERS;
            cfg.stage_timing = stage_timing;
        }
        cfg
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag '{flag}' needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Simulated runs attempted, and the ids of those that failed: panicked,
/// diverged from their reference report, or failed a check.
#[derive(Default)]
struct Ledger {
    attempted: usize,
    failed: BTreeSet<usize>,
    problems: Vec<String>,
}

impl Ledger {
    /// Allocates ids for `n` simulated runs about to be attempted.
    fn ids(&mut self, n: usize) -> Vec<usize> {
        let ids = (self.attempted..self.attempted + n).collect();
        self.attempted += n;
        ids
    }

    fn fail(&mut self, ids: &[usize], why: String) {
        self.failed.extend(ids);
        self.problems.push(why);
    }

    /// Runs `f`, which performs the runs `ids`; a panic fails all of them.
    fn guard<T>(&mut self, ids: &[usize], what: &str, f: impl FnOnce() -> T) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(_) => {
                self.fail(ids, format!("{what}: simulated run panicked"));
                None
            }
        }
    }
}

/// A workload's inputs: its traces, and for the single-machine
/// workloads the machine the first repetition runs on.
struct Inputs {
    traces: Vec<Trace>,
    machine: Option<Machine>,
}

/// Generates the workload's traces from `seed`, then validates or
/// composes them and builds the machine. Everything here is `setup_s`.
fn setup(kind: Kind, seed: u64, t: &mut Tracer) -> Inputs {
    let cfg = kind.config(t.enabled());
    let mut gen =
        |w: &dyn Workload, procs: usize| t.span("workloads.generate", |_| w.generate(procs));
    let barnes = |s: u64| Barnes::new(BARNES.0, BARNES.1, BARNES.2.wrapping_add(s));
    let traces = match kind {
        Kind::ReproSweep => vec![
            gen(&barnes(seed), cfg.total_procs()),
            gen(
                &Mp3d::new(MP3D.0, MP3D.1, MP3D.2, MP3D.3.wrapping_add(seed)),
                cfg.total_procs(),
            ),
        ],
        Kind::SpaceShare => (0..SPACE_JOBS)
            .map(|k| {
                let job_seed = seed.wrapping_mul(SPACE_JOBS).wrapping_add(k);
                gen(&barnes(job_seed), cfg.procs_per_node)
            })
            .collect(),
        Kind::SharedConflict => vec![gen(&barnes(seed), cfg.total_procs())],
    };
    if kind == Kind::SpaceShare {
        t.span("trace.compose_jobs", |_| {
            compose_jobs(&traces, &cfg.geometry)
        });
    } else {
        for trace in &traces {
            t.span("trace.validate", |_| trace.validate(&cfg.geometry))
                .expect("generated trace is well-formed");
        }
    }
    // The sweep builds one machine per configuration inside the timed
    // call, as `sweep_trace` does for users.
    let machine = (kind != Kind::ReproSweep).then(|| t.span("machine.new", |_| Machine::new(cfg)));
    Inputs { traces, machine }
}

/// One repetition of the workload's timed calls.
#[derive(Default)]
struct Rep {
    /// `(label, simulated refs, host seconds)` per timed call.
    calls: Vec<(String, u64, f64)>,
    /// Run ids, reports and their plain JSON, in run order.
    ids: Vec<usize>,
    reports: Vec<RunReport>,
    jsons: Vec<String>,
    /// Sum of the derived SCOMA-70 capacities (sweep only).
    capacity: u64,
}

impl Rep {
    fn push(&mut self, id: usize, report: RunReport, t: &mut Tracer) {
        self.jsons
            .push(t.span("report.to_json", |_| report.to_json()));
        self.ids.push(id);
        self.reports.push(report);
    }

    fn counts(&self) -> Vec<Metric> {
        let reports: Vec<&RunReport> = self.reports.iter().collect();
        layers::counts(&reports, self.capacity)
    }
}

/// `sweep_trace`, step by step, so the traced run can attribute time to
/// each configuration and to validation, construction and execution.
fn traced_sweep(t: &mut Tracer, cfg: &MachineConfig, trace: &Trace) -> SweepResult {
    let run = |t: &mut Tracer, policy: PolicyKind, capacity: Option<usize>| {
        t.span(&format!("experiment.run.{}", config_label(policy)), |t| {
            let mut sim = Simulation::new(cfg.clone(), policy);
            if let Some(c) = capacity {
                sim = sim.with_page_cache_capacity(c);
            }
            let eff = sim.effective_config();
            t.span("trace.validate", |_| trace.validate(&eff.geometry))
                .expect("generated trace is well-formed");
            let mut m = t.span("machine.new", |_| Machine::new(eff));
            t.span("machine.run", |_| m.run(trace))
        })
    };
    let scoma = run(t, PolicyKind::Scoma, None);
    let capacity = derive_scoma70_capacity(&scoma, SCOMA70_FRACTION);
    let mut reports = BTreeMap::new();
    for policy in PolicyKind::ALL.into_iter().skip(1) {
        reports.insert(policy, run(t, policy, Some(capacity)));
    }
    reports.insert(PolicyKind::Scoma, scoma);
    SweepResult {
        app: trace.name.clone(),
        capacity,
        reports,
    }
}

fn run_rep(kind: Kind, inputs: &mut Inputs, t: &mut Tracer, ledger: &mut Ledger) -> Rep {
    let traced = t.enabled();
    let cfg = kind.config(traced);
    let mut rep = Rep::default();
    if kind == Kind::ReproSweep {
        for trace in &inputs.traces {
            let ids = ledger.ids(PolicyKind::ALL.len());
            let start = Instant::now();
            let sweep = ledger.guard(&ids, &trace.name, || {
                t.span("experiment.sweep", |t| {
                    if traced {
                        traced_sweep(t, &cfg, trace)
                    } else {
                        sweep_trace(&cfg, trace, &PolicyKind::ALL)
                            .expect("generated trace is valid")
                    }
                })
            });
            let secs = start.elapsed().as_secs_f64();
            let Some(sweep) = sweep else { continue };
            let refs = sweep.reports.values().map(|r| r.total_refs).sum();
            rep.calls.push((trace.name.clone(), refs, secs));
            for (claim, policies) in layers::shape_violations(&sweep) {
                let bad: Vec<usize> = policies
                    .iter()
                    .map(|p| {
                        ids[PolicyKind::ALL
                            .iter()
                            .position(|q| q == p)
                            .expect("paper config")]
                    })
                    .collect();
                ledger.fail(&bad, claim);
            }
            rep.capacity += sweep.capacity as u64;
            let mut reports = sweep.reports;
            for (id, policy) in ids.iter().zip(PolicyKind::ALL) {
                let report = reports.remove(&policy).expect("sweep ran every config");
                rep.push(*id, report, t);
            }
        }
        return rep;
    }
    let ids = ledger.ids(1);
    let mut machine = match inputs.machine.take() {
        Some(m) => m,
        None => t.span("machine.new", |_| Machine::new(cfg)),
    };
    let traces = &inputs.traces;
    let start = Instant::now();
    let report = ledger.guard(&ids, kind.name(), || {
        t.span("machine.run", |_| match kind {
            Kind::SpaceShare => machine.run_jobs(traces),
            _ => machine.run(&traces[0]),
        })
    });
    let secs = start.elapsed().as_secs_f64();
    if let Some(report) = report {
        rep.calls
            .push((kind.name().into(), report.total_refs, secs));
        rep.push(ids[0], report, t);
    }
    rep
}

/// The serial-heap report a `ParallelHeap` run must reproduce byte for
/// byte, computed outside the timed region, and the serial run's host
/// seconds.
fn serial_reference(kind: Kind, traces: &[Trace], ledger: &mut Ledger) -> Option<(String, f64)> {
    let mut cfg = kind.config(false);
    cfg.scheduler = SchedulerKind::Heap;
    let ids = ledger.ids(1);
    let start = Instant::now();
    let report = ledger.guard(&ids, "serial-heap reference", || {
        let mut m = Machine::new(cfg);
        match kind {
            Kind::SpaceShare => m.run_jobs(traces),
            _ => m.run(&traces[0]),
        }
    })?;
    let secs = start.elapsed().as_secs_f64();
    Some((report.to_json(), secs))
}

/// Checks a repetition against the serial reference and against the
/// first repetition: plain reports and every count must repeat exactly.
fn check_rep(rep: &Rep, first: &Rep, reference: Option<&str>, ledger: &mut Ledger) {
    if let Some(reference) = reference {
        for (id, json) in rep.ids.iter().zip(&rep.jsons) {
            if json != reference {
                ledger.fail(
                    &[*id],
                    format!("run {id}: ParallelHeap report differs from the serial heap"),
                );
            }
        }
    }
    if rep.jsons.len() != first.jsons.len() {
        ledger.fail(&rep.ids, "repetition ran a different number of runs".into());
        return;
    }
    for ((id, a), b) in rep.ids.iter().zip(&rep.jsons).zip(&first.jsons) {
        if a != b {
            ledger.fail(
                &[*id],
                format!("run {id}: report differs from the first repetition"),
            );
        }
    }
    for ((name, a, _), (_, b, _)) in rep.counts().iter().zip(&first.counts()) {
        if a.to_bits() != b.to_bits() {
            ledger.fail(
                &rep.ids,
                format!("count {name} differs between repetitions"),
            );
        }
    }
}

/// Runs `f` at least `min` times and then while another repetition of
/// median length still fits in `budget`.
fn repeat<T>(budget: Duration, min: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut lens = Vec::new();
    loop {
        let t = Instant::now();
        out.push(f());
        lens.push(t.elapsed());
        lens.sort();
        if out.len() >= min && start.elapsed() + lens[lens.len() / 2] > budget {
            return out;
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Simulated references per host second: total references of one
/// repetition over the sum of each timed call's median duration.
fn refs_per_s(reps: &[Rep]) -> f64 {
    let Some(first) = reps.first() else {
        return 0.0;
    };
    let mut refs = 0u64;
    let mut secs = 0.0;
    for (i, (_, r, _)) in first.calls.iter().enumerate() {
        refs += r;
        secs += median(
            reps.iter()
                .filter_map(|rep| rep.calls.get(i).map(|c| c.2))
                .collect(),
        );
    }
    if secs > 0.0 {
        refs as f64 / secs
    } else {
        0.0
    }
}

/// Host memory high-water mark of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit.into()
    }
}

fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"rustc\":\"{}\",\"profile\":\"{}\",\"git_commit\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"trace\":{}}}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        git_commit(),
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    )
}

fn fnv1a(parts: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in parts.iter().flat_map(|s| s.bytes().chain([0])) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Compares this run's counts and report digest with the record an
/// earlier run of the same binary, workload and seed left in this
/// checkout, then records them. Counts must repeat exactly across runs.
fn check_across_runs(args: &Args, record: &str, first: &Rep, ledger: &mut Ledger) {
    let stamp = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| format!("{} {:?}", m.len(), m.modified().ok()))
        .unwrap_or_default();
    let path =
        Path::new(OUT_DIR).join(format!("counts-{}-seed{}.txt", args.kind.name(), args.seed));
    let body = format!("{stamp}\n{record}");
    if let Ok(old) = std::fs::read_to_string(&path) {
        if let Some(old_record) = old.strip_prefix(&format!("{stamp}\n")) {
            if old_record != record {
                ledger.fail(
                    &first.ids,
                    format!(
                        "counts differ from the earlier run recorded in {}",
                        path.display()
                    ),
                );
            }
        }
    }
    if std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::write(&path, body))
        .is_err()
    {
        eprintln!("perfbench: could not record counts in {}", path.display());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <repro_sweep|space_share|shared_conflict> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let kind = args.kind;
    let budget = Duration::from_secs_f64(args.seconds);
    let fp = fingerprint(&args);
    println!("# host {fp}");
    let mut ledger = Ledger::default();
    let mut untraced = Tracer::new(false);

    // Set-up: repeated, median reported; the last inputs are kept.
    let mut setup_secs = Vec::new();
    let mut inputs = None;
    let reps = if args.trace { 1 } else { kind.setup_reps() };
    for _ in 0..reps {
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(setup(kind, args.seed, &mut untraced));
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let mut inputs = inputs.expect("at least one set-up");
    let input_refs: usize = inputs.traces.iter().map(Trace::total_refs).sum();
    let reference = match kind {
        Kind::ReproSweep => None,
        _ => serial_reference(kind, &inputs.traces, &mut ledger),
    };

    // Untraced repetitions: the end-to-end measurement. In a traced run
    // they take half the budget and give the base for tracing overhead.
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let min_reps = if args.trace { 1 } else { 3 };
    let mut first_machine = inputs.machine.take();
    let untraced_reps = repeat(untraced_budget, min_reps, || {
        inputs.machine = first_machine.take();
        run_rep(kind, &mut inputs, &mut untraced, &mut ledger)
    });
    drop(inputs);

    // Traced iterations: set-up and one repetition each, inside spans.
    let mut tracer = Tracer::new(true);
    let mut traced = Vec::new();
    if args.trace {
        traced = repeat(budget / 2, 1, || {
            let start = tracer.mark();
            let rep = tracer.span("iteration", |t| {
                let mut inputs = setup(kind, args.seed, t);
                run_rep(kind, &mut inputs, t, &mut ledger)
            });
            (rep, start..tracer.mark())
        });
    }

    let first = &untraced_reps[0];
    for rep in untraced_reps.iter().chain(traced.iter().map(|(r, _)| r)) {
        check_rep(
            rep,
            first,
            reference.as_ref().map(|r| r.0.as_str()),
            &mut ledger,
        );
    }
    let table1_ids = ledger.ids(1);
    let table1 = ledger.guard(&table1_ids, "Table-1 microbenchmark", || {
        prism_bench::run_table1(None)
    });
    let table1_err = table1.as_deref().map_or(0.0, layers::table1_err_pct);
    for row in table1.iter().flatten() {
        if !layers::TABLE1_RATIO.contains(&row.ratio()) {
            ledger.fail(
                &table1_ids,
                format!(
                    "Table 1 {}: measured {:.1} vs paper {}",
                    row.name, row.measured, row.paper
                ),
            );
        }
    }

    let counts = first.counts();
    let mut record = String::new();
    for (k, v, _) in &counts {
        let _ = writeln!(record, "{k}={v}");
    }
    let digest = fnv1a(&first.jsons);
    let _ = writeln!(record, "report_digest={digest:016x}");
    let _ = writeln!(record, "table1_err_pct={table1_err}");
    check_across_runs(&args, &record, first, &mut ledger);

    let untraced_rate = refs_per_s(&untraced_reps);
    let mut metrics: Vec<Metric> = Vec::new();
    if !args.trace {
        metrics.push(("sim_refs_per_s".into(), untraced_rate, "refs/s"));
        metrics.push(("setup_s".into(), median(setup_secs), "s"));
        metrics.push(("peak_rss_mib".into(), peak_rss_mib(), "MiB"));
        metrics.extend(counts.iter().find(|c| c.0 == "sim_cycles").cloned());
        metrics.push(("table1_err_pct".into(), table1_err, "%"));
    } else {
        metrics = per_layer(&tracer, &traced, &counts, input_refs, untraced_rate);
        let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.json", kind.name(), args.seed));
        let run_id = format!(
            "{}-seed{}-pid{}",
            kind.name(),
            args.seed,
            std::process::id()
        );
        if std::fs::create_dir_all(OUT_DIR)
            .and_then(|_| std::fs::write(&path, tracer.to_json(&run_id, &fp)))
            .is_err()
        {
            eprintln!("perfbench: could not write {}", path.display());
        }
    }

    println!(
        "# {}: seed {}, {} untraced + {} traced repetitions, report digest {digest:016x}",
        kind.name(),
        args.seed,
        untraced_reps.len(),
        traced.len()
    );
    if let Some((_, serial_s)) = &reference {
        let parallel_s = median(
            untraced_reps
                .iter()
                .filter_map(|r| r.calls.first().map(|c| c.2))
                .collect(),
        );
        println!(
            "# serial-heap reference: {serial_s:.3}s; ParallelHeap median {parallel_s:.3}s ({:.2}x)",
            parallel_s / serial_s
        );
    }
    for (i, rep) in untraced_reps.iter().enumerate() {
        let calls: Vec<String> = rep
            .calls
            .iter()
            .map(|(l, _, s)| format!("{l} {s:.3}s"))
            .collect();
        println!("# repetition {i}: {}", calls.join(", "));
    }
    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>20.6} {unit}");
    }
    for p in &ledger.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let failed = ledger.failed.len();
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        ledger.problems.is_empty() && failed == 0,
        ledger.attempted
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}

/// The per-layer metrics: host self times from the traced iterations
/// (median over iterations), then the counts from the reports.
fn per_layer(
    tracer: &Tracer,
    traced: &[(Rep, Range<usize>)],
    counts: &[Metric],
    input_refs: usize,
    untraced_rate: f64,
) -> Vec<Metric> {
    let per_iter: Vec<BTreeMap<String, f64>> = traced
        .iter()
        .map(|(rep, spans)| {
            let totals = Tracer::totals(&tracer.spans()[spans.clone()]);
            let own = |n: &str| totals.get(n).map_or(0.0, |t| t.1);
            let mut m = BTreeMap::new();
            for (metric, span) in [
                ("workloads.generate_s", "workloads.generate"),
                ("trace.validate_s", "trace.validate"),
                ("trace.compose_jobs_s", "trace.compose_jobs"),
                ("machine.new_s", "machine.new"),
                ("machine.run_s", "machine.run"),
                ("report.to_json_s", "report.to_json"),
                ("bench.self_s", "iteration"),
            ] {
                m.insert(metric.to_string(), own(span));
            }
            for p in PolicyKind::ALL {
                let label = config_label(p);
                let inclusive = totals
                    .get(&format!("experiment.run.{label}"))
                    .map_or(0.0, |t| t.0);
                m.insert(format!("experiment.run_s.{label}"), inclusive);
            }
            let experiment_self = totals
                .iter()
                .filter(|(n, _)| n.starts_with("experiment."))
                .fold(0.0, |acc, (_, t)| acc + t.1);
            m.insert("experiment.self_s".into(), experiment_self);
            let reports: Vec<&RunReport> = rep.reports.iter().collect();
            let stages = layers::stage_seconds(&reports);
            for (name, s) in ["scan", "admit", "execute", "merge"].iter().zip(stages) {
                m.insert(format!("par.{name}_s"), s);
            }
            m.insert(
                "par.unattributed_s".into(),
                own("machine.run") - stages.iter().sum::<f64>(),
            );
            m.insert(
                "tracing.sim_refs_per_s".into(),
                refs_per_s(std::slice::from_ref(rep)),
            );
            m
        })
        .collect();
    let med = |k: &str| median(per_iter.iter().filter_map(|m| m.get(k).copied()).collect());
    let time = |k: &str| (k.to_string(), med(k), "s");
    let traced_rate = med("tracing.sim_refs_per_s");
    let overhead = if traced_rate > 0.0 {
        100.0 * (untraced_rate / traced_rate - 1.0)
    } else {
        0.0
    };
    let mut out = vec![
        time("workloads.generate_s"),
        ("workloads.refs".into(), input_refs as f64, "refs"),
        time("trace.validate_s"),
        time("trace.compose_jobs_s"),
        time("machine.new_s"),
        time("machine.run_s"),
    ];
    for p in PolicyKind::ALL {
        out.push(time(&format!("experiment.run_s.{}", config_label(p))));
    }
    for k in [
        "experiment.self_s",
        "par.scan_s",
        "par.admit_s",
        "par.execute_s",
        "par.merge_s",
        "par.unattributed_s",
        "report.to_json_s",
        "bench.self_s",
    ] {
        out.push(time(k));
    }
    out.push(("tracing.sim_refs_per_s".into(), traced_rate, "refs/s"));
    out.push(("tracing.overhead_pct".into(), overhead, "%"));
    out.extend(counts.iter().filter(|c| c.0 != "sim_cycles").cloned());
    out
}
