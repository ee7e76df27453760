//! The four workloads, the closed-loop clients that run them, and the
//! checks every result goes through. A workload is two roles plus a cache
//! size; rationale for each is in README.md.
//!
//! Both clients play both roles: client `c` has role `(c + turn) % 2` in
//! turn number `turn` of the phase, a turn lasting `TURN`. At any moment one
//! client holds each role, and over any stretch of time both threads have
//! spent the same time in each, so a role's numbers do not depend on which
//! thread the scheduler (or a busy neighbour of this virtual machine)
//! happened to favour. Where the two roles are the same this changes
//! nothing.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

use dlsm::{Db, DbReader};
use rdma_sim::Verb;

use crate::engine::{sleep_until, Counters, Engine};
use crate::gen::{self, Op, OpStream, Role, KEY_LEN, MULTI_GET_KEYS, VALUE_LEN};
use crate::recorder::Recorder;
use crate::spans::{Name, SpanBuf, NO_PARENT};

pub struct Workload {
    pub name: &'static str,
    /// Read-cache budget; 0 = cache off.
    pub cache_bytes: u64,
    /// The two roles the clients take turns in (see the module comment).
    pub roles: [Role; 2],
}

pub const CLIENTS: usize = 2;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fill",
        cache_bytes: 0,
        roles: [Role::UniformWriter, Role::UniformWriter],
    },
    Workload {
        name: "get-remote",
        cache_bytes: 32 << 20,
        roles: [Role::UniformReader, Role::UniformReader],
    },
    Workload {
        name: "mixed",
        cache_bytes: 1 << 30,
        roles: [Role::ZipfWriter, Role::ZipfReader],
    },
    Workload {
        name: "scan",
        cache_bytes: 0,
        roles: [Role::Scanner, Role::Scanner],
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn writes(&self) -> bool {
        self.roles.iter().any(|r| r.writes())
    }
}

/// Latency is recorded per kind of call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    Put,
    GetPresent,
    GetAbsent,
    MultiGet,
    ScanShort,
    ScanLong,
}
pub const KINDS: usize = 6;

/// Units of work: keys written, keys looked up, entries scanned.
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
pub enum Class {
    Put,
    Get,
    Scan,
}

/// READ traffic on a client's own channel, per kind, over its traced ops.
#[derive(Default, Clone, Copy)]
pub struct ReadCost {
    pub ops: u64,
    pub ops_with_read: u64,
    pub read_verbs: u64,
    pub read_bytes: u64,
}

/// What tracing adds to a client's tally in a traced window.
pub struct Traced {
    pub spans: SpanBuf,
    /// Ops, whole-iteration time and time inside the engine call, in
    /// `[untraced, traced]` slices: iteration minus call is what the harness
    /// costs per op in each mode, whatever the engine (stalls) did meanwhile.
    pub ops: [u64; 2],
    pub nanos: [u64; 2],
    pub call_nanos: [u64; 2],
    pub reads: [ReadCost; KINDS],
}

/// How long a client keeps one role before the two trade.
pub const TURN: Duration = Duration::from_millis(25);
/// Length of the slices a window is cut into. Every end-to-end rate and
/// latency is taken per slice and reported as a median or quartile over the
/// slices, so a burst of interference from outside the process moves the
/// slices it falls in and not the figure.
pub const SLICE: Duration = Duration::from_millis(500);

/// One client's work in one role during one slice.
#[derive(Debug, Clone, Copy)]
pub struct SliceStat {
    /// Index into `Workload::roles`.
    pub slot: usize,
    pub units: u64,
    /// Time the client spent in this role in this slice.
    pub nanos: u64,
    pub calls: u64,
    /// Median call latency (0 when there was no call).
    pub p50_ns: f64,
}

/// Keeps a client in step with the turns and cuts its work into slices.
struct Pacer {
    epoch: Instant,
    client: usize,
    turn: u64,
    turn_start: Instant,
    turn_end: Instant,
    slot: usize,
    units: [u64; 2],
    nanos: [u64; 2],
    lat: [Recorder; 2],
    slices: Vec<SliceStat>,
}

impl Pacer {
    /// `epoch` is the start of the phase, shared by the clients; `now` is
    /// when this client starts.
    fn new(epoch: Instant, client: usize, now: Instant) -> Pacer {
        let mut pacer = Pacer {
            epoch,
            client,
            turn: 0,
            turn_start: now,
            turn_end: now,
            slot: 0,
            units: [0; 2],
            nanos: [0; 2],
            lat: Default::default(),
            slices: Vec::new(),
        };
        pacer.enter_turn(now);
        pacer
    }

    fn enter_turn(&mut self, now: Instant) {
        self.turn = ((now - self.epoch).as_nanos() / TURN.as_nanos()) as u64;
        self.turn_start = now;
        self.turn_end = self.epoch + TURN * (self.turn + 1) as u32;
        self.slot = (self.client + self.turn as usize) % 2;
    }

    /// Account one finished call that ended at `end`.
    #[inline]
    fn record(&mut self, units: u64, call_nanos: u64, end: Instant) {
        self.units[self.slot] += units;
        self.lat[self.slot].record(call_nanos);
        if end >= self.turn_end {
            self.leave_turn(end);
        }
    }

    fn leave_turn(&mut self, now: Instant) {
        const TURNS_PER_SLICE: u64 = (SLICE.as_nanos() / TURN.as_nanos()) as u64;
        self.nanos[self.slot] += (now - self.turn_start).as_nanos() as u64;
        let slice = self.turn / TURNS_PER_SLICE;
        self.enter_turn(now);
        if self.turn / TURNS_PER_SLICE != slice {
            self.close_slice();
        }
    }

    fn close_slice(&mut self) {
        for slot in 0..2 {
            if self.nanos[slot] > 0 {
                self.slices.push(SliceStat {
                    slot,
                    units: self.units[slot],
                    nanos: self.nanos[slot],
                    calls: self.lat[slot].count(),
                    p50_ns: self.lat[slot].quantile(0.5),
                });
            }
            self.lat[slot].clear();
        }
        (self.units, self.nanos) = ([0; 2], [0; 2]);
    }

    /// The slices of the phase; a last partial slice counts if it is at
    /// least half a slice long.
    fn finish(mut self, now: Instant) -> Vec<SliceStat> {
        self.nanos[self.slot] += (now - self.turn_start).as_nanos() as u64;
        if self.nanos.iter().sum::<u64>() >= SLICE.as_nanos() as u64 / 2 {
            self.close_slice();
        }
        self.slices
    }
}

/// One client's results for one phase.
pub struct Tally {
    pub lat: [Recorder; KINDS],
    pub ops: u64,
    pub units: [u64; 3],
    pub failed: u64,
    pub slices: Vec<SliceStat>,
    pub traced: Option<Traced>,
}

/// What `Client::step` hands back about the call it made.
struct Done {
    start: Instant,
    end: Instant,
    units: u64,
}

impl Tally {
    fn new(traced: Option<Traced>) -> Tally {
        Tally {
            lat: Default::default(),
            ops: 0,
            units: [0; 3],
            failed: 0,
            slices: Vec::new(),
            traced,
        }
    }
}

/// Traced and untraced slices alternate at this period inside a traced
/// window, so both see the same compaction debt and cache state.
const TRACE_SLICE: Duration = Duration::from_millis(250);

pub struct Client<'a> {
    id: usize,
    /// One op stream per role, in `Workload::roles` order.
    streams: [OpStream; 2],
    db: &'a Db,
    /// Last acknowledged version per key index. Each key has one writer,
    /// which is the only thread that stores to its slot.
    acked: &'a [AtomicU32],
    key: [u8; KEY_LEN],
    end_key: [u8; KEY_LEN],
    value: [u8; VALUE_LEN],
    multi_keys: [[u8; KEY_LEN]; MULTI_GET_KEYS],
}

impl<'a> Client<'a> {
    pub fn new(
        id: usize,
        roles: [Role; 2],
        n: u64,
        seed: u64,
        db: &'a Db,
        acked: &'a [AtomicU32],
    ) -> Client<'a> {
        Client {
            id,
            streams: std::array::from_fn(|slot| {
                OpStream::new(roles[slot], id as u64, slot as u64, n, seed)
            }),
            db,
            acked,
            key: [0; KEY_LEN],
            end_key: [0; KEY_LEN],
            value: gen::value_template(),
            multi_keys: [[0; KEY_LEN]; MULTI_GET_KEYS],
        }
    }

    /// A present key's value must decode to that key at a version no older
    /// than the one acknowledged before the read began (`lo`) and no newer
    /// than the one write that may be in flight when it ended.
    fn value_ok(&self, index: u64, lo: u32, got: Option<&[u8]>) -> bool {
        let Some((idx, version)) = got.and_then(gen::check_value) else {
            return false;
        };
        let hi = self.acked[index as usize].load(Ordering::Acquire) as u64 + 1;
        idx == index && version >= lo as u64 && version <= hi
    }

    /// Generate, run, time and check one op of the role in `slot`.
    fn step<const TRACED: bool>(
        &mut self,
        slot: usize,
        reader: &mut DbReader,
        tally: &mut Tally,
    ) -> Done {
        // Timestamps a..d bound the spans: gen [a,t0), call [t0,t1), verify [t1,d).
        let a = if TRACED { Some(Instant::now()) } else { None };
        let op = self.streams[slot].next_op();
        let before = if TRACED { Some(reader.traffic()) } else { None };
        let (kind, class, units, ok, t0, t1, opened);
        match op {
            Op::Put { index } => {
                // ORDERING: relaxed — this thread is the slot's only writer.
                let version = self.acked[index as usize].load(Ordering::Relaxed) + 1;
                gen::write_key(&mut self.key, gen::present_slot(index));
                gen::write_value(&mut self.value, index, version as u64);
                t0 = Instant::now();
                let res = self.db.put(&self.key, &self.value);
                t1 = Instant::now();
                ok = res.is_ok();
                if ok {
                    // ORDERING: release — pairs with readers' acquire loads,
                    // so a reader that sees this version reads after the put.
                    self.acked[index as usize].store(version, Ordering::Release);
                }
                (kind, class, units, opened) = (Kind::Put, Class::Put, 1, None);
            }
            Op::Get { index, absent } => {
                let slot = if absent {
                    gen::absent_slot(index)
                } else {
                    gen::present_slot(index)
                };
                gen::write_key(&mut self.key, slot);
                let lo = self.acked[index as usize].load(Ordering::Acquire);
                t0 = Instant::now();
                let res = reader.get(&self.key);
                t1 = Instant::now();
                ok = match (&res, absent) {
                    (Ok(None), true) => true,
                    (Ok(got), false) => self.value_ok(index, lo, got.as_deref()),
                    _ => false,
                };
                kind = if absent {
                    Kind::GetAbsent
                } else {
                    Kind::GetPresent
                };
                (class, units, opened) = (Class::Get, 1, None);
            }
            Op::MultiGet { indices } => {
                let mut los = [0u32; MULTI_GET_KEYS];
                for (i, &index) in indices.iter().enumerate() {
                    gen::write_key(&mut self.multi_keys[i], gen::present_slot(index));
                    los[i] = self.acked[index as usize].load(Ordering::Acquire);
                }
                let keys: [&[u8]; MULTI_GET_KEYS] =
                    std::array::from_fn(|i| &self.multi_keys[i][..]);
                t0 = Instant::now();
                let res = reader.multi_get(&keys);
                t1 = Instant::now();
                ok = match &res {
                    Ok(values) => {
                        values.len() == MULTI_GET_KEYS
                            && (0..MULTI_GET_KEYS)
                                .all(|i| self.value_ok(indices[i], los[i], values[i].as_deref()))
                    }
                    Err(_) => false,
                };
                (kind, class, units, opened) =
                    (Kind::MultiGet, Class::Get, MULTI_GET_KEYS as u64, None);
            }
            Op::Scan { start, len } => {
                gen::write_key(&mut self.key, gen::present_slot(start));
                gen::write_key(&mut self.end_key, gen::present_slot(start + len));
                t0 = Instant::now();
                let scan = reader.scan_range(&self.key, &self.end_key);
                let t_open = Instant::now();
                // Entries are checked as they arrive: strictly ascending
                // (entry i is exactly key start+i), value intact, exact count.
                let mut seen = 0u64;
                let mut good = scan.is_ok();
                if let Ok(scan) = scan {
                    for item in scan {
                        good &= match item {
                            Ok((key, value)) => {
                                let index = start + seen;
                                gen::parse_key(&key) == Some(gen::present_slot(index))
                                    && self.value_ok(index, 1, Some(&value))
                            }
                            Err(_) => false,
                        };
                        seen += 1;
                    }
                }
                t1 = Instant::now();
                ok = good && seen == len;
                kind = if len == gen::SHORT_SCAN {
                    Kind::ScanShort
                } else {
                    Kind::ScanLong
                };
                (class, units, opened) = (Class::Scan, seen, Some(t_open));
            }
        }
        tally.lat[kind as usize].record((t1 - t0).as_nanos() as u64);
        tally.ops += 1;
        tally.units[class as usize] += units;
        tally.failed += !ok as u64;

        if let (Some(a), Some(before), Some(tr)) = (a, before, tally.traced.as_mut()) {
            let after = reader.traffic().delta(&before);
            let cost = &mut tr.reads[kind as usize];
            cost.ops += 1;
            cost.ops_with_read += (after.ops(Verb::Read) > 0) as u64;
            cost.read_verbs += after.ops(Verb::Read);
            cost.read_bytes += after.bytes(Verb::Read);
            let call = match kind {
                Kind::Put => Name::Put,
                Kind::GetPresent | Kind::GetAbsent => Name::Get,
                Kind::MultiGet => Name::MultiGet,
                Kind::ScanShort | Kind::ScanLong => Name::ScanOpen,
            };
            let spans = &mut tr.spans;
            // Unique per client: the two streams' counts, interleaved.
            let op_id = self.streams[slot].issued() * 2 + slot as u64;
            let root = spans.push(Name::Op, NO_PARENT, op_id, a, a, 0);
            spans.push(Name::Gen, root, op_id, a, t0, 0);
            spans.push(call, root, op_id, t0, opened.unwrap_or(t1), 0);
            if let Some(t_open) = opened {
                spans.push(Name::ScanNext, root, op_id, t_open, t1, units);
            }
            let d = Instant::now();
            spans.push(Name::Verify, root, op_id, t1, d, 0);
            spans.set_end(root, d);
            spans.finish_op();
        }
        Done {
            start: t0,
            end: t1,
            units,
        }
    }

    fn run(&mut self, stop: &AtomicBool, epoch: Instant, trace_epoch: Option<Instant>) -> Tally {
        let mut tally = Tally::new(trace_epoch.map(|epoch| Traced {
            spans: SpanBuf::new(epoch),
            ops: [0; 2],
            nanos: [0; 2],
            call_nanos: [0; 2],
            reads: Default::default(),
        }));
        // A reader owns a thread-local queue pair (it is not `Send`), so each
        // phase opens its own on the client's thread.
        let mut reader = self.db.reader();
        let reader = &mut reader;
        let start = Instant::now();
        let mut pacer = Pacer::new(epoch, self.id, start);
        // ORDERING: relaxed — the flag publishes nothing but itself.
        if trace_epoch.is_some() {
            let mut iter_start = start;
            while !stop.load(Ordering::Relaxed) {
                let traced = ((iter_start - start).as_nanos() / TRACE_SLICE.as_nanos()) % 2 == 1;
                let done = if traced {
                    self.step::<true>(pacer.slot, reader, &mut tally)
                } else {
                    self.step::<false>(pacer.slot, reader, &mut tally)
                };
                let call_nanos = (done.end - done.start).as_nanos() as u64;
                let now = Instant::now();
                pacer.record(done.units, call_nanos, now);
                let tr = tally.traced.as_mut().expect("traced window");
                tr.ops[traced as usize] += 1;
                tr.nanos[traced as usize] += (now - iter_start).as_nanos() as u64;
                tr.call_nanos[traced as usize] += call_nanos;
                iter_start = now;
            }
        } else {
            while !stop.load(Ordering::Relaxed) {
                let done = self.step::<false>(pacer.slot, reader, &mut tally);
                pacer.record(
                    done.units,
                    (done.end - done.start).as_nanos() as u64,
                    done.end,
                );
            }
        }
        tally.slices = pacer.finish(Instant::now());
        tally
    }
}

/// One phase (warm-up or measured window) of all clients.
pub struct Phase {
    pub tallies: Vec<Tally>,
    /// Counter deltas from the start of the phase to the moment clients stop.
    pub during: Counters,
    /// The same, to the quiescent point after the phase: every byte the
    /// phase's writes caused is in here, and none from before the phase.
    pub through_quiesce: Counters,
    pub wall: Duration,
    /// How long the drain after the phase took: the compaction debt the
    /// phase's writes left behind, in seconds of background work.
    pub drain: Duration,
}

/// Run every client for `duration`, then drain background work. The engine
/// must be quiescent on entry for `through_quiesce` to mean what it says.
pub fn run_phase(
    engine: &Engine,
    clients: &mut [Client],
    duration: Duration,
    trace_epoch: Option<Instant>,
) -> Phase {
    let stop = AtomicBool::new(false);
    let before = engine.counters();
    let start = Instant::now();
    let (tallies, during, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| scope.spawn(|| c.run(&stop, start, trace_epoch)))
            .collect();
        sleep_until(start + duration);
        stop.store(true, Ordering::Relaxed);
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (tallies, engine.counters().since(&before), start.elapsed())
    });
    let drain_start = Instant::now();
    engine.quiesce();
    let drain = drain_start.elapsed();
    Phase {
        tallies,
        during,
        through_quiesce: engine.counters().since(&before),
        wall,
        drain,
    }
}

/// Full scan outside any window: exactly `n` keys, in order, each at its
/// last acknowledged version. Returns the number of violations.
pub fn audit(db: &Db, n: u64, acked: &[AtomicU32]) -> u64 {
    let mut reader = db.reader();
    let mut first = [0u8; KEY_LEN];
    gen::write_key(&mut first, 0);
    let Ok(scan) = reader.scan(&first) else {
        return n;
    };
    let (mut seen, mut bad) = (0u64, 0u64);
    for item in scan {
        let good = match item {
            Ok((key, value)) if seen < n => {
                // ORDERING: acquire — pairs with the writers' release stores
                // (the writers have been joined; this is belt and braces).
                let want = acked[seen as usize].load(Ordering::Acquire) as u64;
                gen::parse_key(&key) == Some(gen::present_slot(seen))
                    && gen::check_value(&value) == Some((seen, want))
            }
            _ => false,
        };
        bad += !good as u64;
        seen += 1;
    }
    bad + n.abs_diff(seen)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a pacer with one 1 ms call after another until `until`.
    fn drive(pacer: &mut Pacer, epoch: Instant, from: Duration, until: Duration) {
        let mut at = from;
        while at < until {
            at += Duration::from_millis(1);
            pacer.record(1, 1_000_000, epoch + at);
        }
    }

    #[test]
    fn clients_hold_opposite_roles_and_trade_every_turn() {
        let epoch = Instant::now();
        for turn in 0..100u32 {
            let now = epoch + TURN * turn + TURN / 2;
            let slots: Vec<usize> = (0..CLIENTS)
                .map(|client| Pacer::new(epoch, client, now).slot)
                .collect();
            assert_eq!(slots, [turn as usize % 2, (turn as usize + 1) % 2]);
        }
    }

    #[test]
    fn slices_account_for_all_time_and_units_by_role() {
        let epoch = Instant::now();
        let mut pacer = Pacer::new(epoch, 0, epoch);
        let window = SLICE * 3 + SLICE * 3 / 5;
        drive(&mut pacer, epoch, Duration::ZERO, window);
        let slices = pacer.finish(epoch + window);
        // Three whole slices and a last one of more than half, two roles each.
        assert_eq!(slices.len(), 8);
        assert!(slices.iter().all(|s| s.units == s.calls && s.p50_ns > 0.0));
        let by_role = |slot| -> (u64, u64) {
            let mine = slices.iter().filter(|s| s.slot == slot);
            mine.fold((0, 0), |(u, n), s| (u + s.units, n + s.nanos))
        };
        let ((units0, nanos0), (units1, nanos1)) = (by_role(0), by_role(1));
        assert_eq!(nanos0 + nanos1, window.as_nanos() as u64);
        assert_eq!(units0 + units1, window.as_millis() as u64);
        assert!(nanos0.abs_diff(nanos1) <= TURN.as_nanos() as u64);
    }

    #[test]
    fn a_stall_longer_than_a_slice_stays_in_one_slice() {
        let epoch = Instant::now();
        let mut pacer = Pacer::new(epoch, 0, epoch);
        drive(&mut pacer, epoch, Duration::ZERO, SLICE / 2);
        // One call that returns two and a half slices later.
        let back = SLICE * 3;
        pacer.record(1, (back - SLICE / 2).as_nanos() as u64, epoch + back);
        drive(&mut pacer, epoch, back, SLICE * 4);
        let slices = pacer.finish(epoch + SLICE * 4);
        let longest = slices.iter().map(|s| s.nanos).max().expect("slices");
        assert!(longest > (SLICE * 2).as_nanos() as u64);
        let total: u64 = slices.iter().map(|s| s.nanos).sum();
        assert_eq!(total, (SLICE * 4).as_nanos() as u64);
        // A short last slice is dropped, not counted as a slow one.
        let mut short = Pacer::new(epoch, 1, epoch);
        drive(&mut short, epoch, Duration::ZERO, SLICE + SLICE / 4);
        assert_eq!(short.finish(epoch + SLICE + SLICE / 4).len(), 2);
    }
}
