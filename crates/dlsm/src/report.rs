//! RocksDB-style stats report (DESIGN.md §8b).
//!
//! [`Db::stats_report`] freezes one shard's shape into a [`StatsReport`]:
//! a per-level table (files, bytes, compaction score), write/read
//! amplification, stall attribution, and a remote-memory section covering
//! the CN-controlled flush zone and live extents by GC origin. `Display`
//! renders the familiar `** Compaction Stats **`-style table; `db_bench`
//! dumps it at the end of a run and the chaos oracle dumps it on failure.
//!
//! The report is the one walk of a shard's live state: the `/metrics`
//! collector (`crate::metrics`) renders its gauges from it. It is built
//! from ONE pinned version, with extent lengths rounded to the allocator's
//! 8-byte granule — so `total_bytes()` reconciles exactly with
//! [`Db::live_extents`] accounting.
//!
//! ## Sampling-consistency invariant
//!
//! The version is pinned *before* the flush allocator's `in_use()` is
//! read. Pinned tables cannot be freed while the `Arc` is held, and tables
//! installed after the pin only grow `in_use` — so the reported
//! compute-origin live bytes never exceed the reported flush-zone figure,
//! even under concurrent writers, flushes and GC. `dlsm/tests/metrics.rs`
//! hammers this.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::compaction::level_score;
use crate::db::{Db, Shared};
use crate::handle::Origin;
use crate::shard::ShardedDb;
use crate::stats::DbStatsSnapshot;
use crate::telemetry::{GET_PHASES, PUT_PHASES};

/// The GC origins, in the order of [`StatsReport::live_bytes`] and
/// [`StatsReport::live_extents`].
pub(crate) const ORIGIN_NAMES: [&str; 3] = ["compute", "memnode", "external"];

/// One level's row in the report.
#[derive(Debug, Clone)]
pub struct LevelStats {
    /// Level number (0 = freshest).
    pub level: usize,
    /// Table count.
    pub files: usize,
    /// Bytes, rounded to the allocator's 8-byte granule per table.
    pub bytes: u64,
    /// Compaction pressure (≥ 1.0 ⇒ over trigger); see
    /// [`crate::compaction::level_score`].
    pub score: f64,
}

/// A frozen per-shard stats report.
#[derive(Debug, Clone)]
pub struct StatsReport {
    /// Per-level rows, `L0` first.
    pub levels: Vec<LevelStats>,
    /// Bytes in the current MemTable's arena.
    pub memtable_bytes: u64,
    /// Configured MemTable rotation threshold.
    pub memtable_limit: u64,
    /// Entries in the current MemTable.
    pub memtable_entries: u64,
    /// Sequence numbers left in the current table's pre-assigned range.
    pub seq_headroom: u64,
    /// Immutable MemTables awaiting flush.
    pub imm_count: usize,
    /// MemTables enqueued to flush workers.
    pub flush_queue_len: usize,
    /// Time since `Db::open`.
    pub uptime: Duration,
    /// `(flush_bytes + compaction_bytes_out) / flush_bytes` — how many
    /// times each flushed byte is rewritten, including its first write.
    pub write_amp: f64,
    /// Static worst-case point-read amplification: L0 table count plus
    /// one probe per non-empty deeper level.
    pub read_amp: u64,
    /// Fraction of uptime writers spent stalled (can exceed 1.0 with
    /// several concurrent writers): the two figures below over uptime.
    pub stall_fraction: f64,
    /// Microseconds stalled on a full immutable queue.
    pub stall_imm_micros: u64,
    /// Microseconds stalled on the L0 stop-writes limit.
    pub stall_l0_micros: u64,
    /// Live bytes by GC origin: `[compute, memnode, external]`, 8-byte
    /// granules.
    pub live_bytes: [u64; 3],
    /// Live tables (one extent each) by GC origin, in the same order.
    pub live_extents: [u64; 3],
    /// Flush-zone (CN-controlled window) bytes in use.
    pub flush_zone_used: u64,
    /// Flush-zone window capacity.
    pub flush_zone_capacity: u64,
    /// Flush-zone free-list fragment count.
    pub flush_zone_fragments: usize,
    /// MemNode-origin extents queued for the next batched free RPC.
    pub gc_backlog: usize,
    /// Read-cache counters and occupancy (`None` when the cache is off).
    pub cache: Option<dlsm_cache::CacheStatsSnapshot>,
    /// Every [`crate::DbStats`] counter at report time.
    pub counters: DbStatsSnapshot,
    /// The shard's telemetry (DESIGN.md §8): what `/metrics` renders beside
    /// the gauges above, and what the put and get ledger lines read.
    pub telemetry: dlsm_telemetry::TelemetrySnapshot,
}

impl StatsReport {
    /// Total tables across levels.
    pub fn total_files(&self) -> usize {
        self.levels.iter().map(|l| l.files).sum()
    }

    /// Total bytes across levels (8-byte granules — reconciles with
    /// [`Db::live_extents`]).
    pub fn total_bytes(&self) -> u64 {
        self.levels.iter().map(|l| l.bytes).sum()
    }

    /// Total live bytes across GC origins (equals [`total_bytes`] — the
    /// same tables, grouped differently).
    ///
    /// [`total_bytes`]: StatsReport::total_bytes
    pub fn live_total_bytes(&self) -> u64 {
        self.live_bytes.iter().sum()
    }
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

impl std::fmt::Display for StatsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "** dLSM stats report (uptime {:.1} s) **", self.uptime.as_secs_f64())?;
        writeln!(
            f,
            "MemTable: {:.2}/{:.2} MiB, {} entries, seq headroom {}; imm queue {}, flush queue {}",
            mib(self.memtable_bytes),
            mib(self.memtable_limit),
            self.memtable_entries,
            self.seq_headroom,
            self.imm_count,
            self.flush_queue_len,
        )?;
        writeln!(f, "{:>5} {:>7} {:>12} {:>7}", "Level", "Files", "Size(MiB)", "Score")?;
        for l in &self.levels {
            if l.files == 0 && l.level > 0 {
                continue;
            }
            writeln!(
                f,
                "{:>5} {:>7} {:>12.2} {:>7.2}",
                format!("L{}", l.level),
                l.files,
                mib(l.bytes),
                l.score,
            )?;
        }
        writeln!(
            f,
            "{:>5} {:>7} {:>12.2}",
            "Sum",
            self.total_files(),
            mib(self.total_bytes()),
        )?;
        writeln!(
            f,
            "Write amp: {:.2}   Read amp: {}   Stall: {:.2}% (imm {} us, l0 {} us)",
            self.write_amp,
            self.read_amp,
            self.stall_fraction * 100.0,
            self.stall_imm_micros,
            self.stall_l0_micros,
        )?;
        let c = &self.counters;
        writeln!(
            f,
            "Compaction: {} jobs, {} of them L0 → L1 retiring {:.2} L0 tables each; {} → {} records",
            c.compactions,
            c.compaction_l0_jobs,
            c.compaction_l0_input_tables as f64 / c.compaction_l0_jobs.max(1) as f64,
            c.compaction_records_in,
            c.compaction_records_out,
        )?;
        writeln!(
            f,
            "Remote memory: flush zone {:.2}/{:.2} MiB in use ({} fragments); \
             live compute {:.2} MiB, memnode {:.2} MiB, external {:.2} MiB; \
             GC backlog {} extents; compaction replies {:.2} B per input record",
            mib(self.flush_zone_used),
            mib(self.flush_zone_capacity),
            self.flush_zone_fragments,
            mib(self.live_bytes[0]),
            mib(self.live_bytes[1]),
            mib(self.live_bytes[2]),
            self.gc_backlog,
            self.counters.compaction_reply_bytes as f64 / self.counters.compaction_records_in.max(1) as f64,
        )?;
        if let Some(cs) = &self.cache {
            writeln!(
                f,
                "Read cache: {:.2}/{:.2} MiB resident, hit ratio {:.1}% \
                 (block {}/{}, extent {}/{}); {:.2} MiB fabric reads saved; \
                 {} evictions, {} invalidations, {} promotions; \
                 {} compaction outputs born cached ({:.2} of {:.2} MiB)",
                mib(cs.resident_bytes),
                mib(cs.capacity_bytes),
                cs.hit_ratio() * 100.0,
                cs.block_hits,
                cs.block_hits + cs.block_misses,
                cs.extent_hits,
                cs.extent_hits + cs.extent_misses,
                mib(cs.bytes_saved),
                cs.evictions,
                cs.invalidations,
                cs.extent_promotions,
                self.counters.cache_carried_tables,
                mib(self.counters.cache_carried_bytes),
                mib(self.counters.compaction_bytes_out),
            )?;
        }
        // Each class's time and its phases' shares, which sum to 100 %.
        for (class, phases) in [("Put", &PUT_PHASES[..]), ("Get", &GET_PHASES[..])] {
            let nanos = phases.iter().map(|p| self.telemetry.breakdown_hist(p).sum());
            let total: u64 = nanos.clone().sum();
            write!(f, "{class} ledger: {:.3} s", total as f64 / 1e9)?;
            for (phase, ns) in phases.iter().zip(nanos) {
                write!(f, ", {phase} {:.1}%", 100.0 * ns as f64 / total.max(1) as f64)?;
            }
            writeln!(f)?;
        }
        writeln!(f, "Counters: {}", self.counters)
    }
}

impl Db {
    /// Build a [`StatsReport`] from one pinned version of this shard.
    pub fn stats_report(&self) -> StatsReport {
        self.shared().stats_report()
    }
}

impl Shared {
    pub(crate) fn stats_report(&self) -> StatsReport {
        // ORDERING: relaxed — report read; a slightly stale seq only skews the headroom figure.
        let next_seq = self.seq.load(Ordering::Relaxed);
        let (memtable_bytes, memtable_entries, seq_headroom) = {
            let cur = self.current.read();
            let headroom = cur.range.end.saturating_sub(next_seq.max(cur.range.start));
            (cur.memory_usage() as u64, cur.len() as u64, headroom)
        };
        let uptime = self.opened_at.elapsed();

        // Pinned BEFORE the allocator is read (module docs).
        let version = Arc::clone(&self.pin().version);
        let mut levels = Vec::with_capacity(version.level_count());
        let mut live_bytes = [0u64; 3];
        let mut live_extents = [0u64; 3];
        for level in 0..version.level_count() {
            let tables = version.level(level);
            let mut bytes = 0u64;
            for t in tables {
                let rounded = t.extent.len.div_ceil(8) * 8;
                bytes += rounded;
                let slot = match t.origin {
                    Origin::Compute => 0,
                    Origin::MemNode => 1,
                    Origin::External => 2,
                };
                live_bytes[slot] += rounded;
                live_extents[slot] += 1;
            }
            levels.push(LevelStats {
                level,
                files: tables.len(),
                bytes,
                score: level_score(&version, &self.cfg, self.l0_trigger(), level),
            });
        }
        let read_amp = levels[0].files as u64
            + levels.iter().skip(1).filter(|l| l.files > 0).count() as u64;

        let counters = self.stats.snapshot();
        let write_amp = if counters.flush_bytes == 0 {
            0.0
        } else {
            (counters.flush_bytes + counters.compaction_bytes_out) as f64
                / counters.flush_bytes as f64
        };
        let [(_, stall_imm_micros), (_, stall_l0_micros)] = self.stats.stalls();
        let stall_fraction =
            (stall_imm_micros + stall_l0_micros) as f64 / (uptime.as_micros().max(1)) as f64;

        let alloc = self.memnode.flush_alloc();
        let report = StatsReport {
            levels,
            memtable_bytes,
            memtable_limit: self.cfg.memtable_size as u64,
            memtable_entries,
            seq_headroom,
            imm_count: self.imm_count.load(Ordering::Acquire),
            flush_queue_len: self.flush_queue_len(),
            uptime,
            write_amp,
            read_amp,
            stall_fraction,
            stall_imm_micros,
            stall_l0_micros,
            live_bytes,
            live_extents,
            flush_zone_used: alloc.in_use(),
            flush_zone_capacity: alloc.capacity(),
            flush_zone_fragments: alloc.fragments(),
            gc_backlog: self.gc.remote_pending_len(),
            cache: self.cache.as_ref().map(|c| c.snapshot()),
            counters,
            telemetry: self.telemetry_snapshot(),
        };
        drop(version); // held until after the in_use read
        report
    }
}

impl ShardedDb {
    /// Per-shard stats reports, shard 0 first.
    pub fn stats_reports(&self) -> Vec<StatsReport> {
        self.shards().iter().map(Db::stats_report).collect()
    }

    /// All shard reports rendered as one text block, with a header per
    /// shard (the form `db_bench` and the chaos oracle print).
    pub fn stats_report(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.stats_reports().into_iter().enumerate() {
            out.push_str(&format!("--- shard {i} ---\n{r}"));
        }
        out
    }
}
