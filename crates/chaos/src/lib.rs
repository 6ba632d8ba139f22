//! Deterministic chaos-search harness for the PRISM simulator.
//!
//! The hand-written chaos tests (`crates/machine/tests/chaos.rs`) only
//! exercise the failure interleavings someone thought of. This crate
//! *searches*: from a single campaign seed it generates hundreds of
//! random-but-valid cases — machine shapes across all six page modes,
//! reliability knobs (retry, journal, watchdog, auditor), workloads,
//! and fault plans (link windows, slow episodes, node deaths, PIT
//! corruption, transit wedges) — runs each across the full scheduler
//! grid under a progress watchdog, and checks invariant oracles:
//!
//! * **differential** — Heap, LinearScan and ParallelHeap at 1/2/4
//!   workers produce byte-identical reports;
//! * **audit-explained** — auditor findings only appear when a
//!   structural fault was injected;
//! * **containment** — damage stays bounded by the plan; dead nodes
//!   stay dead; a fault-free co-scheduled job takes zero casualties;
//! * **liveness** — every run terminates and every dead processor is
//!   accounted to a cause;
//! * **journal-replay** — replay cycles equal recovered lines times the
//!   eager policy's per-line cost, recovery implies records were
//!   written, and journal-less cases show zero journal activity;
//! * **page-accounting** — after every run each real frame is owned by
//!   exactly one of the free list, the client page cache, and the
//!   directory-home set.
//!
//! On violation, [`shrink::shrink`] greedily minimizes the case while
//! the oracle keeps firing, and [`repro::Repro`] serializes a
//! self-contained artifact that [`repro::replay`] re-executes
//! byte-deterministically. Everything keys off
//! [`SimRng::for_stream`](prism_sim::SimRng::for_stream)`(campaign_seed,
//! index)`, so any case can be re-derived in isolation.
//!
//! The `prism-bench` crate ships the `chaos` driver binary; the
//! `chaos-smoke` CI job runs a fixed-seed campaign window in release
//! mode and fails on any unexplained violation.

#![warn(missing_docs)]

pub mod gen;
pub mod json;
pub mod oracle;
pub mod repro;
pub mod run;
pub mod shrink;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use gen::CaseSpec;
pub use oracle::{Oracle, Violation};
pub use repro::{replay, Repro};
pub use run::{run_case, CaseOutcome, SCHEDULES};
pub use shrink::shrink;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The campaign seed; every case derives from it.
    pub seed: u64,
    /// How many cases to generate and run.
    pub cases: u64,
    /// Harness watchdog deadline per scheduler run.
    pub deadline: Duration,
    /// Shrink candidate budget per violation.
    pub shrink_budget: usize,
    /// Where to write repro artifacts (`None` = keep in memory only).
    pub repro_dir: Option<PathBuf>,
    /// The oracles to check.
    pub oracles: Vec<Oracle>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 0xC4A0_5CA8,
            cases: 200,
            deadline: Duration::from_secs(120),
            shrink_budget: 400,
            repro_dir: None,
            oracles: Oracle::STANDARD.to_vec(),
        }
    }
}

/// One violation a campaign found, with its minimized repro.
#[derive(Clone, Debug)]
pub struct CampaignViolation {
    /// The violating case's campaign index.
    pub index: u64,
    /// The artifact (shrunk case + expected violation + baseline).
    pub repro: Repro,
    /// Where the artifact was written, when a repro dir was set.
    pub path: Option<PathBuf>,
}

/// What a campaign did and found.
#[derive(Clone, Debug, Default)]
pub struct CampaignOutcome {
    /// Cases generated and run.
    pub cases: u64,
    /// Individual machine runs executed (cases x scheduler grid).
    pub runs: u64,
    /// Violations found, shrunk, and captured.
    pub violations: Vec<CampaignViolation>,
    /// Cases per page-policy name (coverage accounting).
    pub policy_coverage: BTreeMap<String, u64>,
    /// Completed runs per scheduler name.
    pub scheduler_runs: BTreeMap<String, u64>,
    /// Runs that ended in a panic or hang (also surface as liveness
    /// violations when the liveness oracle is armed).
    pub failed_runs: u64,
    /// Wall-clock time spent.
    pub wall: Duration,
}

impl CampaignOutcome {
    /// Serializes campaign statistics as a JSON object (the
    /// `BENCH_chaos.json` payload).
    pub fn to_json(&self, seed: u64) -> String {
        let map_json = |m: &BTreeMap<String, u64>| {
            let fields: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{}:{}", json::quote(k), v))
                .collect();
            format!("{{{}}}", fields.join(","))
        };
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "{{\"index\":{},\"oracle\":{},\"detail\":{},\"shrink_attempts\":{},\
                     \"shrink_accepted\":{}}}",
                    v.index,
                    json::quote(&v.repro.oracle),
                    json::quote(&v.repro.detail),
                    v.repro.shrink_attempts,
                    v.repro.shrink_accepted
                )
            })
            .collect();
        let violations = format!("[{}]", violations.join(","));
        format!(
            "{{\"bench\":\"chaos\",\"seed\":{seed},\"cases\":{},\"runs\":{},\
             \"failed_runs\":{},\"violations\":{},\"violation_count\":{},\
             \"policy_coverage\":{},\
             \"scheduler_runs\":{},\"wall_ms\":{}}}",
            self.cases,
            self.runs,
            self.failed_runs,
            violations,
            self.violations.len(),
            map_json(&self.policy_coverage),
            map_json(&self.scheduler_runs),
            self.wall.as_millis(),
        )
    }
}

/// Runs a campaign: generate, run, check, shrink, capture.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignOutcome {
    let start = Instant::now();
    let mut outcome = CampaignOutcome::default();
    if let Some(dir) = &cfg.repro_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("chaos: could not create {}: {e}", dir.display());
        }
    }
    for index in 0..cfg.cases {
        let case = CaseSpec::generate(cfg.seed, index);
        *outcome
            .policy_coverage
            .entry(gen::policy_name(case.policy).to_string())
            .or_insert(0) += 1;
        let case_outcome = run_case(&case, cfg.deadline);
        outcome.cases += 1;
        outcome.runs += case_outcome.runs.len() as u64;
        for r in &case_outcome.runs {
            match &r.result {
                Ok(_) => {
                    *outcome
                        .scheduler_runs
                        .entry(gen::scheduler_name(r.scheduler).to_string())
                        .or_insert(0) += 1;
                }
                Err(_) => outcome.failed_runs += 1,
            }
        }
        let Some(violation) = oracle::check_all(&cfg.oracles, &case, &case_outcome) else {
            continue;
        };
        let oracle = Oracle::from_name(violation.oracle).expect("oracle names are stable");
        let (shrunk, stats) = shrink(&case, oracle, cfg.deadline, cfg.shrink_budget);
        let Some(repro) = Repro::capture(shrunk, oracle, stats, cfg.deadline) else {
            // The violation vanished at capture time: nondeterminism in
            // the harness itself. Surface it loudly as an unshrunk
            // artifact rather than dropping the finding.
            eprintln!(
                "chaos: case {index} violation ({}) did not reproduce at capture",
                violation.oracle
            );
            continue;
        };
        let path = cfg.repro_dir.as_ref().map(|dir| {
            let path = dir.join(repro.file_name());
            if let Err(e) = std::fs::write(&path, repro.to_json()) {
                eprintln!("chaos: could not write {}: {e}", path.display());
            }
            path
        });
        outcome
            .violations
            .push(CampaignViolation { index, repro, path });
    }
    outcome.wall = start.elapsed();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_stats_serialize() {
        let cfg = CampaignConfig {
            cases: 2,
            deadline: Duration::from_secs(60),
            ..CampaignConfig::default()
        };
        let out = run_campaign(&cfg);
        assert_eq!(out.cases, 2);
        assert_eq!(out.runs, 2 * SCHEDULES.len() as u64);
        let doc = out.to_json(cfg.seed);
        let v = json::Json::parse(&doc).unwrap();
        assert_eq!(v.get("cases").unwrap().as_u64(), Some(2));
        assert_eq!(
            v.get("runs").unwrap().as_u64(),
            Some(2 * SCHEDULES.len() as u64)
        );
        assert!(v.get("policy_coverage").is_some());
    }
}
