//! Single-execution engine: baton-passing scheduler plus an acquire/release
//! visibility model.
//!
//! One *execution* runs a model program on real OS threads, but only one
//! thread is ever runnable at a time: every instrumented operation (atomic
//! access, lock, spawn, join, ...) first passes through a *schedule point*
//! where the engine decides which thread runs next. Decisions are recorded so
//! an execution can be replayed exactly from a choice prefix; the explorer
//! (see `explore`) enumerates prefixes depth-first under a preemption bound.
//!
//! The memory model is an acquire/release approximation of C11:
//!
//! * every atomic location keeps a short history of stores (modification
//!   order), each store optionally carrying the *view* (per-location floor
//!   map) its thread published with it;
//! * every thread keeps `floors`: for each location, the minimum store index
//!   it is still allowed to observe (coherence + happens-before);
//! * a Release store attaches the storing thread's current view; an Acquire
//!   load joins the observed store's view into the loader's floors; a Relaxed
//!   load stashes it in `pending`, to be claimed by a later Acquire fence;
//! * when several stores are ≥ the floor, the chosen one is a *value
//!   decision* explored like a scheduling decision (newest first);
//! * RMWs read the latest store in modification order (C11 atomicity);
//! * SeqCst is approximated as AcqRel — the checker may therefore explore a
//!   superset of behaviors for SeqCst-dependent algorithms, which is sound
//!   for bug hunting but can flag non-bugs if code relies on a total store
//!   order (nothing in this workspace does).
//!
//! Non-atomic shared memory is *not* value-modeled: because only one OS
//! thread runs at a time and handoffs go through a real mutex, physical
//! memory is always coherent. Weak-memory effects are explored only for the
//! shim atomic types; Miri and TSan (see CI) cover the non-atomic side.

use std::collections::{BTreeMap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex as StdMutex, Once};

/// Payload used to unwind model threads when an execution aborts (violation
/// found, deadlock, or step-budget exhaustion). Never shown to the user.
pub(crate) struct AbortToken;

/// Per-execution tuning knobs, copied from the `Checker` builder.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ExecCfg {
    pub max_steps: usize,
    /// How many stores per location are kept for value nondeterminism
    /// (older stores fall off; ≥ 1).
    pub value_history: usize,
    pub rng_seed: u64,
}

impl Default for ExecCfg {
    fn default() -> Self {
        ExecCfg { max_steps: 50_000, value_history: 2, rng_seed: 0x9E37_79B9_7F4A_7C15 }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum DecisionKind {
    /// Which thread runs next.
    Thread,
    /// Which store an atomic load observes (or any other value choice).
    Value,
}

/// One recorded choice point. `options` is the number of alternatives,
/// `chosen` the branch taken this execution. For `Thread` decisions,
/// `first_is_current` says option 0 means "keep running the current thread",
/// in which case every other option costs one preemption.
#[derive(Clone, Debug)]
pub(crate) struct Decision {
    pub options: usize,
    pub chosen: usize,
    pub kind: DecisionKind,
    pub first_is_current: bool,
    pub preemptions_before: usize,
}

#[derive(Clone, Debug)]
pub(crate) struct Failure {
    pub message: String,
}

pub(crate) struct ExecResult {
    pub decisions: Vec<Decision>,
    pub failure: Option<Failure>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BlockOn {
    Mutex(usize),
    RwRead(usize),
    RwWrite(usize),
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Ready,
    Blocked(BlockOn),
    Finished,
}

/// addr -> minimum observable store index. Small maps; cloned freely.
type View = BTreeMap<usize, u64>;

struct StoreRec {
    index: u64,
    value: u64,
    /// View published with the store (Release store, or Relaxed store after a
    /// Release fence). `None` for plain Relaxed stores.
    view: Option<Arc<View>>,
}

struct Location {
    history: Vec<StoreRec>,
    next_index: u64,
}

#[derive(Default)]
struct ThreadView {
    floors: View,
    /// Views picked up by Relaxed loads, claimed by the next Acquire fence.
    pending: View,
    /// Snapshot taken by the last Release fence, attached to subsequent
    /// Relaxed stores.
    release_fence: Option<View>,
    /// Deterministic per-thread RNG counter for `model_rand_u64`.
    rng_counter: u64,
}

#[derive(Default)]
struct MutexState {
    owner: Option<usize>,
    view: View,
}

#[derive(Default)]
struct RwState {
    writer: Option<usize>,
    readers: Vec<usize>,
    view: View,
}

struct ExecInner {
    cfg: ExecCfg,
    threads: Vec<Status>,
    views: Vec<ThreadView>,
    active: usize,
    finished: usize,
    aborted: bool,
    failure: Option<Failure>,
    prefix: Vec<usize>,
    depth: usize,
    log: Vec<Decision>,
    preemptions: usize,
    steps: usize,
    locations: HashMap<usize, Location>,
    mutexes: HashMap<usize, MutexState>,
    rwlocks: HashMap<usize, RwState>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct Exec {
    inner: StdMutex<ExecInner>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Exec>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// Fast check used by the shim passthrough: is this OS thread part of a
/// running model execution? `try_with`: thread-local destructors of an
/// instrumented crate may still run shim ops after
/// `CURRENT` itself was destroyed — they must take the passthrough, not
/// panic mid-teardown (a panicking TLS destructor aborts the process).
pub fn in_model() -> bool {
    !std::thread::panicking()
        && CURRENT.try_with(|c| c.borrow().is_some()).unwrap_or(false)
}

pub(crate) fn current() -> Option<(Arc<Exec>, usize)> {
    if std::thread::panicking() {
        return None;
    }
    // try_with: passthrough during TLS destruction, see `in_model`.
    CURRENT.try_with(|c| c.borrow().clone()).ok().flatten()
}

pub(crate) fn with_model<R>(f: impl FnOnce(&Arc<Exec>, usize) -> R) -> Option<R> {
    // While unwinding (violation or abort), guard Drop impls still run shim
    // ops; route them to the passthrough so we never panic inside a panic.
    // Same for TLS destruction (try_with), see `in_model`.
    if std::thread::panicking() {
        return None;
    }
    let cur = CURRENT.try_with(|c| c.borrow().clone()).ok().flatten();
    cur.map(|(e, tid)| f(&e, tid))
}

fn set_current(exec: Option<(Arc<Exec>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = exec);
}

/// Suppress panic-hook output for model threads: violations are reported via
/// `Report`, and `AbortToken` unwinds are internal bookkeeping.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            // try_with: a panic during TLS teardown must still report.
            let in_model = CURRENT.try_with(|c| c.borrow().is_some()).unwrap_or(false);
            if !in_model {
                prev(info);
            }
        }));
    });
}

fn join_view(dst: &mut View, src: &View) {
    for (&addr, &idx) in src {
        let e = dst.entry(addr).or_insert(0);
        if *e < idx {
            *e = idx;
        }
    }
}

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ExecInner {
    /// Record (or replay) one choice. Must only be called with `options > 1`.
    fn pick(&mut self, kind: DecisionKind, options: usize, first_is_current: bool) -> usize {
        let chosen = if self.depth < self.prefix.len() {
            let c = self.prefix[self.depth];
            assert!(
                c < options,
                "model replay diverged: prefix wants option {c} of {options} at depth {} \
                 (model program is nondeterministic outside the shim — e.g. a real RNG, \
                 clock, or address-dependent branch)",
                self.depth
            );
            c
        } else {
            0
        };
        self.log.push(Decision {
            options,
            chosen,
            kind,
            first_is_current,
            preemptions_before: self.preemptions,
        });
        self.depth += 1;
        chosen
    }

    fn location_mut(&mut self, addr: usize, init: u64) -> &mut Location {
        self.locations.entry(addr).or_insert_with(|| Location {
            history: vec![StoreRec { index: 0, value: init, view: None }],
            next_index: 1,
        })
    }

    fn fail(&mut self, message: String) {
        if self.failure.is_none() {
            self.failure = Some(Failure { message });
        }
        self.aborted = true;
    }

    fn wake(&mut self, on: BlockOn) {
        for st in self.threads.iter_mut() {
            if *st == Status::Blocked(on) {
                *st = Status::Ready;
            }
        }
    }
}

impl Exec {
    fn new(cfg: ExecCfg, prefix: Vec<usize>) -> Self {
        Exec {
            inner: StdMutex::new(ExecInner {
                cfg,
                threads: vec![Status::Ready],
                views: vec![ThreadView::default()],
                active: 0,
                finished: 0,
                aborted: false,
                failure: None,
                prefix,
                depth: 0,
                log: Vec::new(),
                preemptions: 0,
                steps: 0,
                locations: HashMap::new(),
                mutexes: HashMap::new(),
                rwlocks: HashMap::new(),
                os_handles: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn abort_unwind(&self) -> ! {
        panic::panic_any(AbortToken)
    }

    /// Schedule point: possibly switch the baton to another thread, then wait
    /// until this thread is active again. Called before every visible op.
    pub(crate) fn schedule(&self, me: usize) {
        let mut g = self.inner.lock().unwrap();
        if g.aborted {
            drop(g);
            self.abort_unwind();
        }
        g.steps += 1;
        if g.steps > g.cfg.max_steps {
            let budget = g.cfg.max_steps;
            g.fail(format!(
                "step budget exceeded ({budget} schedule points): livelock or unbounded spin \
                 loop in the model program"
            ));
            self.cv.notify_all();
            drop(g);
            self.abort_unwind();
        }
        let me_ready = g.threads[me] == Status::Ready;
        let mut opts: Vec<usize> = Vec::with_capacity(g.threads.len());
        if me_ready {
            opts.push(me);
        }
        for (i, st) in g.threads.iter().enumerate() {
            if i != me && *st == Status::Ready {
                opts.push(i);
            }
        }
        if opts.is_empty() {
            let st = g.threads[me];
            g.fail(format!(
                "deadlock: thread {me} blocked on {st:?} with no runnable thread"
            ));
            self.cv.notify_all();
            drop(g);
            self.abort_unwind();
        }
        let chosen = if opts.len() == 1 { 0 } else { g.pick(DecisionKind::Thread, opts.len(), me_ready) };
        let next = opts[chosen];
        if me_ready && next != me {
            g.preemptions += 1;
        }
        if next != me {
            g.active = next;
            self.cv.notify_all();
            while g.active != me && !g.aborted {
                g = self.cv.wait(g).unwrap();
            }
            if g.aborted {
                drop(g);
                self.abort_unwind();
            }
        }
    }

    fn wait_for_activation(&self, me: usize) {
        let mut g = self.inner.lock().unwrap();
        while g.active != me && !g.aborted {
            g = self.cv.wait(g).unwrap();
        }
        if g.aborted {
            drop(g);
            self.abort_unwind();
        }
    }

    // ---- atomics -------------------------------------------------------

    pub(crate) fn atomic_load(&self, me: usize, addr: usize, init: u64, order: Ordering) -> u64 {
        self.schedule(me);
        let mut g = self.inner.lock().unwrap();
        let floor = g.views[me].floors.get(&addr).copied().unwrap_or(0);
        let loc = g.location_mut(addr, init);
        // Eligible stores, ascending by index; option 0 is the newest.
        let elig: Vec<usize> = loc
            .history
            .iter()
            .enumerate()
            .filter(|(_, s)| s.index >= floor)
            .map(|(i, _)| i)
            .collect();
        debug_assert!(!elig.is_empty(), "floor beyond latest store");
        let choice =
            if elig.len() > 1 { g.pick(DecisionKind::Value, elig.len(), false) } else { 0 };
        let loc = g.locations.get(&addr).unwrap();
        let hist_i = elig[elig.len() - 1 - choice];
        let (value, index, sview) = {
            let s = &loc.history[hist_i];
            (s.value, s.index, s.view.clone())
        };
        let tv = &mut g.views[me];
        let f = tv.floors.entry(addr).or_insert(0);
        if *f < index {
            *f = index;
        }
        if let Some(v) = sview {
            if is_acquire(order) {
                join_view(&mut tv.floors, &v);
            } else {
                join_view(&mut tv.pending, &v);
            }
        }
        value
    }

    pub(crate) fn atomic_store(&self, me: usize, addr: usize, init: u64, value: u64, order: Ordering) {
        self.schedule(me);
        let mut g = self.inner.lock().unwrap();
        self.store_locked(&mut g, me, addr, init, value, order);
    }

    fn store_locked(
        &self,
        g: &mut ExecInner,
        me: usize,
        addr: usize,
        init: u64,
        value: u64,
        order: Ordering,
    ) {
        let index = {
            let loc = g.location_mut(addr, init);
            let i = loc.next_index;
            loc.next_index += 1;
            i
        };
        let view = if is_release(order) {
            let mut v = g.views[me].floors.clone();
            v.insert(addr, index);
            Some(Arc::new(v))
        } else if let Some(rf) = &g.views[me].release_fence {
            let mut v = rf.clone();
            v.insert(addr, index);
            Some(Arc::new(v))
        } else {
            None
        };
        g.views[me].floors.insert(addr, index);
        let cap = g.cfg.value_history.max(1);
        let loc = g.locations.get_mut(&addr).unwrap();
        loc.history.push(StoreRec { index, value, view });
        while loc.history.len() > cap {
            loc.history.remove(0);
        }
    }

    /// RMW: reads the latest store in modification order, applies `f`, and
    /// installs the result. Returns (old, new).
    pub(crate) fn atomic_rmw(
        &self,
        me: usize,
        addr: usize,
        init: u64,
        order: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> (u64, u64) {
        self.schedule(me);
        let mut g = self.inner.lock().unwrap();
        let (old, old_index, old_view) = {
            let loc = g.location_mut(addr, init);
            let s = loc.history.last().unwrap();
            (s.value, s.index, s.view.clone())
        };
        {
            let tv = &mut g.views[me];
            let fl = tv.floors.entry(addr).or_insert(0);
            if *fl < old_index {
                *fl = old_index;
            }
            if let Some(v) = old_view {
                if is_acquire(order) {
                    join_view(&mut tv.floors, &v);
                } else {
                    join_view(&mut tv.pending, &v);
                }
            }
        }
        let new = f(old);
        self.store_locked(&mut g, me, addr, init, new, order);
        (old, new)
    }

    /// Compare-exchange. Returns Ok(old) and installs `new` when `old ==
    /// expected`, else Err(latest). Failure acts as a load of the latest
    /// store with `fail_order` (real hardware CAS observes the coherence
    /// point, so no stale-value nondeterminism on this path).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn atomic_cas(
        &self,
        me: usize,
        addr: usize,
        init: u64,
        expected: u64,
        new: u64,
        success: Ordering,
        fail_order: Ordering,
    ) -> Result<u64, u64> {
        self.schedule(me);
        let mut g = self.inner.lock().unwrap();
        let (old, old_index, old_view) = {
            let loc = g.location_mut(addr, init);
            let s = loc.history.last().unwrap();
            (s.value, s.index, s.view.clone())
        };
        let order = if old == expected { success } else { fail_order };
        {
            let tv = &mut g.views[me];
            let fl = tv.floors.entry(addr).or_insert(0);
            if *fl < old_index {
                *fl = old_index;
            }
            if let Some(v) = old_view {
                if is_acquire(order) {
                    join_view(&mut tv.floors, &v);
                } else {
                    join_view(&mut tv.pending, &v);
                }
            }
        }
        if old == expected {
            self.store_locked(&mut g, me, addr, init, new, success);
            Ok(old)
        } else {
            Err(old)
        }
    }

    pub(crate) fn fence(&self, me: usize, order: Ordering) {
        self.schedule(me);
        let mut g = self.inner.lock().unwrap();
        let tv = &mut g.views[me];
        if is_acquire(order) {
            let pending = std::mem::take(&mut tv.pending);
            join_view(&mut tv.floors, &pending);
        }
        if is_release(order) {
            tv.release_fence = Some(tv.floors.clone());
        }
    }

    /// Deterministic pseudo-random value for model programs (replay-stable).
    pub(crate) fn model_rand(&self, me: usize) -> u64 {
        let mut g = self.inner.lock().unwrap();
        let ctr = g.views[me].rng_counter;
        g.views[me].rng_counter += 1;
        splitmix64(g.cfg.rng_seed ^ ((me as u64) << 40) ^ ctr)
    }

    // ---- mutex / rwlock ------------------------------------------------

    pub(crate) fn mutex_lock(&self, me: usize, addr: usize) {
        loop {
            self.schedule(me);
            let mut g = self.inner.lock().unwrap();
            let st = g.mutexes.entry(addr).or_default();
            if st.owner.is_none() {
                st.owner = Some(me);
                let v = st.view.clone();
                join_view(&mut g.views[me].floors, &v);
                return;
            }
            if st.owner == Some(me) {
                g.fail(format!("model Mutex deadlock: thread {me} relocking a mutex it holds"));
                self.cv.notify_all();
                drop(g);
                self.abort_unwind();
            }
            g.threads[me] = Status::Blocked(BlockOn::Mutex(addr));
            // Next schedule() sees us blocked and force-switches; we resume
            // here once the unlocker wakes us and the scheduler picks us.
        }
    }

    pub(crate) fn mutex_unlock(&self, me: usize, addr: usize) {
        // Guard drops during unwinding skip the schedule point (see
        // with_model); this path only runs on the active thread.
        self.schedule(me);
        let mut g = self.inner.lock().unwrap();
        let view = g.views[me].floors.clone();
        let st = g.mutexes.entry(addr).or_default();
        debug_assert_eq!(st.owner, Some(me), "unlock of mutex not held by this thread");
        st.owner = None;
        st.view = view;
        g.wake(BlockOn::Mutex(addr));
    }

    pub(crate) fn rw_read_lock(&self, me: usize, addr: usize) {
        loop {
            self.schedule(me);
            let mut g = self.inner.lock().unwrap();
            let st = g.rwlocks.entry(addr).or_default();
            if st.writer.is_none() {
                st.readers.push(me);
                let v = st.view.clone();
                join_view(&mut g.views[me].floors, &v);
                return;
            }
            g.threads[me] = Status::Blocked(BlockOn::RwRead(addr));
        }
    }

    pub(crate) fn rw_read_unlock(&self, me: usize, addr: usize) {
        self.schedule(me);
        let mut g = self.inner.lock().unwrap();
        let view = g.views[me].floors.clone();
        let st = g.rwlocks.entry(addr).or_default();
        if let Some(pos) = st.readers.iter().position(|&r| r == me) {
            st.readers.swap_remove(pos);
        }
        // Readers do not normally publish, but folding their view in is
        // sound (it only tightens what later acquirers may observe).
        join_view(&mut st.view, &view);
        g.wake(BlockOn::RwWrite(addr));
        g.wake(BlockOn::RwRead(addr));
    }

    pub(crate) fn rw_write_lock(&self, me: usize, addr: usize) {
        loop {
            self.schedule(me);
            let mut g = self.inner.lock().unwrap();
            let st = g.rwlocks.entry(addr).or_default();
            if st.writer.is_none() && st.readers.is_empty() {
                st.writer = Some(me);
                let v = st.view.clone();
                join_view(&mut g.views[me].floors, &v);
                return;
            }
            g.threads[me] = Status::Blocked(BlockOn::RwWrite(addr));
        }
    }

    pub(crate) fn rw_write_unlock(&self, me: usize, addr: usize) {
        self.schedule(me);
        let mut g = self.inner.lock().unwrap();
        let view = g.views[me].floors.clone();
        let st = g.rwlocks.entry(addr).or_default();
        debug_assert_eq!(st.writer, Some(me));
        st.writer = None;
        st.view = view;
        g.wake(BlockOn::RwWrite(addr));
        g.wake(BlockOn::RwRead(addr));
    }

    // ---- threads -------------------------------------------------------

    pub(crate) fn spawn_model(
        self: &Arc<Exec>,
        me: usize,
        f: Box<dyn FnOnce() + Send + 'static>,
    ) -> usize {
        self.schedule(me);
        let mut g = self.inner.lock().unwrap();
        let tid = g.threads.len();
        g.threads.push(Status::Ready);
        let parent_floors = g.views[me].floors.clone();
        g.views.push(ThreadView { floors: parent_floors, ..ThreadView::default() });
        let exec = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("dlsm-check-{tid}"))
            .stack_size(256 * 1024)
            .spawn(move || {
                set_current(Some((Arc::clone(&exec), tid)));
                let r = panic::catch_unwind(AssertUnwindSafe(|| {
                    exec.wait_for_activation(tid);
                    f();
                }));
                exec.finish_thread(tid, r.err());
                set_current(None);
            })
            .expect("spawn model thread");
        g.os_handles.push(handle);
        tid
    }

    pub(crate) fn join_model(&self, me: usize, target: usize) {
        loop {
            self.schedule(me);
            let mut g = self.inner.lock().unwrap();
            if g.threads[target] == Status::Finished {
                let child = g.views[target].floors.clone();
                join_view(&mut g.views[me].floors, &child);
                return;
            }
            g.threads[me] = Status::Blocked(BlockOn::Join(target));
        }
    }

    /// Mark `me` finished, record a violation if it panicked with a real
    /// payload, wake joiners, and hand the baton to some runnable thread.
    fn finish_thread(&self, me: usize, panic_payload: Option<Box<dyn std::any::Any + Send>>) {
        let mut g = self.inner.lock().unwrap();
        if let Some(p) = panic_payload {
            if !p.is::<AbortToken>() {
                let msg = if let Some(s) = p.downcast_ref::<&'static str>() {
                    (*s).to_string()
                } else if let Some(s) = p.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "model thread panicked (non-string payload)".to_string()
                };
                g.fail(format!("thread {me} panicked: {msg}"));
            }
        }
        g.threads[me] = Status::Finished;
        g.finished += 1;
        g.wake(BlockOn::Join(me));
        if !g.aborted {
            let opts: Vec<usize> = g
                .threads
                .iter()
                .enumerate()
                .filter(|(_, st)| **st == Status::Ready)
                .map(|(i, _)| i)
                .collect();
            if opts.is_empty() {
                if g.finished < g.threads.len() {
                    g.fail(format!(
                        "deadlock: thread {me} finished but remaining threads are all blocked"
                    ));
                }
            } else {
                let chosen =
                    if opts.len() == 1 { 0 } else { g.pick(DecisionKind::Thread, opts.len(), false) };
                g.active = opts[chosen];
            }
        }
        self.cv.notify_all();
    }

    fn wait_all_finished(&self) {
        let mut g = self.inner.lock().unwrap();
        while g.finished < g.threads.len() {
            g = self.cv.wait(g).unwrap();
        }
    }
}

/// Run one execution of `f` as model thread 0 under the given choice prefix.
pub(crate) fn run_one(
    cfg: ExecCfg,
    prefix: Vec<usize>,
    f: &Arc<dyn Fn() + Send + Sync>,
) -> ExecResult {
    install_quiet_hook();
    let exec = Arc::new(Exec::new(cfg, prefix));
    set_current(Some((Arc::clone(&exec), 0)));
    let body = Arc::clone(f);
    let r = panic::catch_unwind(AssertUnwindSafe(move || body()));
    exec.finish_thread(0, r.err());
    exec.wait_all_finished();
    set_current(None);
    let handles = {
        let mut g = exec.inner.lock().unwrap();
        std::mem::take(&mut g.os_handles)
    };
    for h in handles {
        let _ = h.join();
    }
    let mut g = exec.inner.lock().unwrap();
    ExecResult { decisions: std::mem::take(&mut g.log), failure: g.failure.take() }
}
