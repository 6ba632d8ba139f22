//! # prism-bench — regenerating every table and figure of the paper
//!
//! `tables` regenerates the whole paper in one run; the other binaries
//! are ablations and drivers (run with `cargo run --release -p
//! prism-bench --bin <name>`):
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `tables` | Tables 1–5 and Figure 7, plus the paper's qualitative shape checks |
//! | `pit_ablation` | §4.3: SRAM vs DRAM PIT sensitivity |
//! | `migration_ablation` | §3.5: lazy home migration |
//! | `paging_ablation` | §3.3: home-page-status flag optimization |
//! | `capacity_sweep` | §4.3: the Falsafi & Wood page-cache-size crossover |
//! | `scaling` | 1–16 node speedup curve |
//! | `ccnuma_ablation` | §3.2/§4.3: LA-NUMA vs true CC-NUMA (PIT bypass) |
//! | `renuma_ablation` | §4.3 future work: two-directional adaptation |
//! | `runner` | CLI driver: ad-hoc runs, per-app sweeps (`sweep --app <A> --csv`), trace tooling |
//!
//! The library hosts the shared runners so the binaries stay thin, and
//! so the integration tests can assert the reproduced *shapes* (who
//! wins, by roughly what factor) without shelling out.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod microbench;
pub mod out;
pub mod suite_runner;
pub mod tables;

pub use microbench::{run_table1, Table1Row};
pub use out::{bench_out, write_bench_json};
pub use suite_runner::{run_suite, SuiteRun};
