//! # dlsm-bench — the benchmark harness reproducing the dLSM paper's
//! evaluation (Sec. XI)
//!
//! * [`workload`] — db_bench-style workload generation: `randomfill`,
//!   `randomread`, `readseq`, `readrandomwriterandom`, with the paper's
//!   20-byte keys and 400-byte values; plus YCSB-style op mixes, named
//!   presets (`ycsb-a`..`ycsb-f`, `delete-churn`, `flash-crowd`, ...) and
//!   the verified value codec used by `--verify` runs.
//! * [`generator`] — seedable key choosers (uniform, Zipfian, hot-set,
//!   latest) with per-thread deterministic streams.
//! * [`harness`] — multi-threaded drivers measuring throughput over any
//!   [`dlsm_baselines::Engine`].
//! * [`setup`] — fabric/server/engine construction with paper-ratio
//!   configurations scaled to laptop size.
//! * [`figures`] — one runner per paper figure (7a, 7b, 8, 9, 10, 11, 12,
//!   13, 14a, 14b, 15) plus the Sec. I network-gap microbenchmark and two
//!   ablations beyond the paper (MemTable switch protocol, async flush).
//! * [`report`] — aligned-table stdout reporting + CSV output under
//!   `results/`.
//! * [`json`] — the dependency-free JSON reader behind the
//!   `artifact_check` validator of trace, exemplar and stall-episode
//!   (`TIMELINE_<sys>.json`) dumps.
//!
//! Run everything with the `figures` binary:
//!
//! ```text
//! cargo run --release -p dlsm-bench --bin figures -- all
//! cargo run --release -p dlsm-bench --bin figures -- fig7a --kv 200000 --threads 1,2,4,8,16
//! ```

pub mod figures;
pub mod generator;
pub mod harness;
pub mod json;
pub mod report;
pub mod setup;
pub mod workload;
