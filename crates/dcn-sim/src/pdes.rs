//! Conservative parallel discrete-event simulation (PDES).
//!
//! The paper's §2.2 observes that parallelizing a tightly coupled data
//! center simulation often *hurts*: logical processes (LPs) must
//! synchronize whenever simulated time advances past the inter-LP
//! lookahead, and in a FatTree that lookahead is a single link latency.
//! This module implements the classic conservative approach so the claim
//! can be reproduced (Figure 2) and so Mimic compositions — which remove
//! most cross-LP traffic — can demonstrate their better parallel behaviour.
//!
//! Design: *barrier-synchronous conservative windows.* The network is
//! partitioned by cluster (core switches round-robin). Every LP runs the
//! ordinary [`Simulation`] engine restricted to its nodes. Because every
//! cross-partition packet needs at least one link latency `Δ` to arrive,
//! each LP can safely process the window `[T, T+Δ)` in isolation; at the
//! barrier, exported arrivals are exchanged and the window advances. With
//! the engine's structural event ordering, the result is **bit-identical**
//! to the sequential execution (asserted by integration tests).

use crate::config::SimConfig;
use crate::instrument::Metrics;
use crate::simulator::Simulation;
use crate::snapshot::atomic_write;
use crate::time::{SimDuration, SimTime};
use crate::topology::{FatTree, NodeId, NodeKind};
use crate::transport::TransportFactory;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

/// Map every node to a partition: clusters round-robin, cores round-robin.
pub fn partition_by_cluster(topo: &FatTree, partitions: usize) -> Vec<u8> {
    assert!(partitions >= 1 && partitions <= u8::MAX as usize);
    let p = partitions as u32;
    (0..topo.params.num_nodes())
        .map(|n| {
            let n = NodeId(n);
            match topo.kind(n) {
                NodeKind::Core => {
                    let (a, j) = topo.core_coords(n);
                    ((a * topo.params.cores_per_agg + j) % p) as u8
                }
                _ => (topo.cluster_of(n).expect("cluster-tier node") % p) as u8,
            }
        })
        .collect()
}

type RemoteMsg = (SimTime, NodeId, crate::packet::Packet);

/// Busy-wait probes (one `spin_loop` pause each) before a waiter starts
/// yielding: a few microseconds, the scale of a sibling finishing its
/// window. Only used when every LP can own a core.
const BARRIER_SPINS: u32 = 128;
/// `yield_now` probes before a waiter parks. Each yield hands the core to
/// a runnable sibling (the oversubscribed case) or returns at once, so the
/// phase covers window imbalance without sleeping yet stays bounded: an LP
/// stuck behind a post-mortem dump or a descheduled sibling parks.
const BARRIER_YIELDS: u32 = 256;

/// How an LP's barrier waits ended, per LP (clock-free; exported as the
/// `pdes.barrier.{warmed,spun,yielded,parked}` counters). The last LP to
/// arrive at a barrier releases it without waiting and is counted nowhere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct BarrierWaits {
    /// Released while the LP ran its own deferred model work.
    warmed: u64,
    /// Released while busy-waiting: the siblings were a few µs behind.
    spun: u64,
    /// Released while yielding: imbalance, or LPs sharing a core.
    yielded: u64,
    /// Slept on the condvar: a sibling was far behind or descheduled.
    parked: u64,
}

/// The window barrier of a partitioned run: a generation-counter
/// (sense-reversing) barrier whose waiters climb a bounded ladder — warm
/// up, spin, yield, then park — so a wait first does the LP's deferred
/// model work, then costs microseconds while the siblings are running and
/// nothing once they are not (DESIGN.md §10).
struct WindowBarrier {
    parties: usize,
    /// Spin only when every LP can have a core to itself; on an
    /// oversubscribed box a spinning waiter delays the sibling it waits on.
    spin: bool,
    /// LPs arrived at the current generation.
    arrived: AtomicUsize,
    /// Bumped by the last arriver after it reset `arrived` (a release
    /// store; SeqCst for the `sleepers` handshake) and polled with Acquire
    /// by the waiters, so everything written before any LP's arrival is
    /// visible to every LP after the barrier.
    generation: AtomicUsize,
    /// Waiters committed to parking. SeqCst against `generation`: either a
    /// parking waiter sees the new generation or the releaser sees the
    /// waiter and takes `lock` to notify it — no lost wake-up.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl WindowBarrier {
    fn new(parties: usize) -> WindowBarrier {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        WindowBarrier {
            parties,
            spin: parties <= cores,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Block until all `parties` LPs have called `wait` for this
    /// generation, tallying how the wait ended into `waits`. A waiter
    /// first calls `idle` until the barrier is released or `idle` returns
    /// false (nothing left to do), and only then climbs the ladder.
    fn wait(&self, waits: &mut BarrierWaits, idle: &mut dyn FnMut() -> bool) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // No LP touches `arrived` again before it has seen the bump.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                // Taking the lock orders this notify after any sleeper's
                // generation check, which happens under the same lock.
                drop(self.lock.lock().expect("barrier mutex"));
                self.wake.notify_all();
            }
            return;
        }
        let released = || self.generation.load(Ordering::Acquire) != gen;
        let mut worked = false;
        while !released() && idle() {
            worked = true;
        }
        if worked && released() {
            waits.warmed += 1;
            return;
        }
        if self.spin {
            for _ in 0..BARRIER_SPINS {
                if released() {
                    waits.spun += 1;
                    return;
                }
                std::hint::spin_loop();
            }
        }
        for _ in 0..BARRIER_YIELDS {
            if released() {
                waits.yielded += 1;
                return;
            }
            std::thread::yield_now();
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock().expect("barrier mutex");
        while self.generation.load(Ordering::SeqCst) == gen {
            guard = self.wake.wait(guard).expect("barrier mutex");
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        waits.parked += 1;
    }
}

/// Cadence of adaptive fidelity-tier epochs in a partitioned run.
///
/// At every `every_windows`-th window barrier the LPs exchange per-cluster
/// drift scores (each cluster's traffic is only observed by its owning
/// LP), then *every* LP hands the identical merged vector to its cluster
/// model via `Simulation::tier_epoch`. Because the model replicas start
/// identical and see identical inputs at identical barriers, their tier
/// assignments stay in lockstep — the tier schedule is a pure function of
/// the trajectory, hence invariant to the partition count. Transitions
/// happen only at these barriers, never inside a window.
#[derive(Clone, Copy, Debug)]
pub struct TierPlan {
    /// Re-evaluate tiers every this many conservative windows (>= 1).
    /// Epoch `k` fires at the barrier where `t = k * every_windows *
    /// window` — derived from simulated time, so every partition count
    /// lands on the same epoch barriers.
    pub every_windows: u64,
}

/// Flight-recorder plan for a partitioned run (DESIGN.md §14): how much
/// history each LP keeps and where post-mortems land.
#[derive(Clone, Debug, Default)]
pub struct FlightPlan {
    /// Ring capacity per LP, in events (clamped to at least 1).
    pub capacity: usize,
    /// Directory for automatic post-mortem dumps when an LP panics.
    /// `None` disables file dumps; the ring still folds into the obs
    /// report at the end of a successful run.
    pub dump_dir: Option<PathBuf>,
}

/// Everything optional about a partitioned run, in one place.
#[derive(Clone, Debug, Default)]
pub struct PdesRunOpts {
    /// Full diagnostics on every LP: per-event and barrier wall-clock
    /// timing and window spans on top of the counts, queue totals and
    /// tier telemetry that `digest_stride` and `flight` turn on too.
    pub obs: bool,
    /// Adaptive fidelity-tier epochs.
    pub tiers: Option<TierPlan>,
    /// Stop at this simulated time instead of the configured duration
    /// (clamped to it). A divergence re-run stops just past the window
    /// `mimicnet diverge` localized.
    pub stop_at: Option<SimTime>,
    /// Record a state digest every N true window barriers (absolute
    /// window indices that are multiples of N). `None` disables digests;
    /// enabling them turns the counts-only diagnostics on, so the report
    /// carrying the `digest.*` gauges that align two timelines is always
    /// exported.
    pub digest_stride: Option<u64>,
    /// Flight recorder and panic post-mortems.
    pub flight: Option<FlightPlan>,
}

/// Why a partitioned run did not finish: one LP panicked inside a window,
/// or in model work it ran at a barrier. Every sibling stops at the same
/// barrier; the panicking LP dumps its report first when the run has a
/// dump directory.
#[derive(Clone, Debug, PartialEq)]
pub struct LpPanic {
    /// The partition that panicked.
    pub part: usize,
    /// End of the window it was processing, or of the window whose
    /// closing barriers it was at, nanoseconds.
    pub window_end_ns: u64,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for LpPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LP {} panicked in window ending at {} ns: {}",
            self.part, self.window_end_ns, self.message
        )
    }
}

impl std::error::Error for LpPanic {}

/// A caught panic's payload.
type PanicPayload = Box<dyn std::any::Any + Send>;

/// Run model work outside the window body (barrier warm-up, a tier
/// epoch) unless some earlier piece panicked, catching a panic into
/// `slot` instead of unwinding the LP past its barriers.
fn guarded<T>(slot: &mut Option<PanicPayload>, work: impl FnOnce() -> T) -> Option<T> {
    if slot.is_some() {
        return None;
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
        Ok(v) => Some(v),
        Err(payload) => {
            *slot = Some(payload);
            None
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// What the PDES driver records about one LP in its own recorder: the
/// `pdes.lp` span, the `pdes.*` counters, the digest timeline with its
/// `digest.*` gauges and the `tier.*` gauges. It merges into the LP's
/// engine report at the join, and into a post-mortem dump.
struct LpRecord {
    /// On exactly when the engine's diagnostics are.
    obs: dcn_obs::Obs,
    /// Time the barrier waits (`pdes.barrier_wait_ns`) and the model work
    /// done in them (`mimic.fleet.wakes.barrier.wall_ns`): full obs only.
    timed: bool,
    waits: BarrierWaits,
    wait_ns: u64,
    /// Units of deferred model work run inside barrier waits.
    warm: u64,
    warm_ns: u64,
    exported: u64,
    imported: u64,
    /// `(first_window, digests)` when digests are on: absolute barrier
    /// index of the first digest, then one digest per recorded barrier.
    digests: Option<(u64, Vec<u64>)>,
    /// A panic caught in model work between windows (see [`guarded`]),
    /// held until the LP fails at the top of its next window, where its
    /// barrier count still matches its siblings'.
    model_panic: Option<PanicPayload>,
}

impl LpRecord {
    fn new(on: bool, timed: bool, part: usize) -> LpRecord {
        let mut obs = if on { dcn_obs::Obs::on() } else { dcn_obs::Obs::off() };
        obs.set_track(part as u32);
        LpRecord {
            obs,
            timed,
            waits: BarrierWaits::default(),
            wait_ns: 0,
            warm: 0,
            warm_ns: 0,
            exported: 0,
            imported: 0,
            digests: None,
            model_panic: None,
        }
    }

    /// Wait at `barrier`, spending the wait on `idle` first (see
    /// [`WindowBarrier::wait`]); when `timed`, the stall and the work are
    /// timed apart. A panic in `idle` ends the work, not the wait.
    fn wait(&mut self, barrier: &WindowBarrier, idle: &mut dyn FnMut() -> bool) {
        let timed = self.timed;
        let (mut warm, mut warm_ns) = (0, 0);
        let model_panic = &mut self.model_panic;
        let t0 = timed.then(std::time::Instant::now);
        barrier.wait(&mut self.waits, &mut || {
            let t = timed.then(std::time::Instant::now);
            let more = guarded(model_panic, &mut *idle).unwrap_or(false);
            if let Some(t) = t {
                warm_ns += t.elapsed().as_nanos() as u64;
            }
            warm += more as u64;
            more
        });
        self.warm += warm;
        self.warm_ns += warm_ns;
        if let Some(t0) = t0 {
            self.wait_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(warm_ns);
        }
    }

    /// The driver's half of this LP's report (`None` with diagnostics
    /// off); a `pdes.lp` span still open closes here.
    fn report(&mut self) -> Option<dcn_obs::ObsReport> {
        let obs = &mut self.obs;
        // The ladder counters are clock-free: they tell a healthy spin
        // from LPs sharing a core without timing anything.
        obs.counter_add("pdes.barrier_wait_ns", self.wait_ns);
        obs.counter_add("pdes.barrier.warmed", self.waits.warmed);
        obs.counter_add("pdes.barrier.spun", self.waits.spun);
        obs.counter_add("pdes.barrier.yielded", self.waits.yielded);
        obs.counter_add("pdes.barrier.parked", self.waits.parked);
        obs.counter_add("pdes.msgs_exported", self.exported);
        obs.counter_add("pdes.msgs_imported", self.imported);
        obs.counter_add("pdes.partitions", 1);
        obs.counter_add("mimic.fleet.wakes.barrier", self.warm);
        if self.timed {
            obs.counter_add("mimic.fleet.wakes.barrier.wall_ns", self.warm_ns);
        }
        let mut r = obs.take_report()?;
        if let Some((first, digests)) = self.digests.take() {
            r.digests.insert("digest.window".to_string(), digests);
            r.gauges.insert("digest.first_window".to_string(), first as f64);
        }
        Some(r)
    }
}

/// Write one LP's post-mortem through [`atomic_write`]'s temp+rename, so a
/// dump interrupted by the very crash it is reporting can never leave a
/// half-written file shadowing a good one. The file is the LP's obs report
/// as `--obs-out` writes it, so `mimicnet diverge` reads it, with the
/// `reason`, `partition` and `sim_time_ns` as extra top-level keys.
fn post_mortem_dump(
    sim: &mut Simulation,
    rec: &mut LpRecord,
    dir: &Path,
    part: usize,
    reason: &str,
    t: SimTime,
) {
    use serde_json::Value;
    // The engine stopped mid-event; if folding its report panics too, the
    // dump keeps the driver's half.
    let engine = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.take_metrics().obs));
    let mut report = engine.ok().flatten().map_or_else(Default::default, |r| *r);
    if let Some(driver) = rec.report() {
        report.merge(driver);
    }
    let mut doc = report.to_json();
    if let Value::Object(fields) = &mut doc {
        fields.splice(
            0..0,
            [
                ("reason".to_string(), Value::Str(reason.to_string())),
                ("partition".to_string(), Value::U64(part as u64)),
                ("sim_time_ns".to_string(), Value::U64(t.as_nanos())),
            ],
        );
    }
    let _ = fs::create_dir_all(dir);
    if let Ok(text) = serde_json::to_string_pretty(&doc) {
        let _ = atomic_write(&dir.join(format!("postmortem-part-{part}.json")), text.as_bytes());
    }
}

/// The typed error of LP `part`, which panicked with `payload` in the
/// window from `t` to `window_end`; written to its post-mortem first when
/// the run has a `dump_dir`.
fn lp_failure(
    sim: &mut Simulation,
    rec: &mut LpRecord,
    dump_dir: Option<&Path>,
    part: usize,
    payload: &(dyn std::any::Any + Send),
    t: SimTime,
    window_end: SimTime,
) -> LpPanic {
    let message = panic_message(payload);
    if let Some(dir) = dump_dir {
        post_mortem_dump(sim, rec, dir, part, &format!("panic: {message}"), t);
    }
    LpPanic {
        part,
        window_end_ns: window_end.as_nanos(),
        message,
    }
}

/// Run `cfg` across `partitions` logical processes on OS threads and return
/// the merged metrics. `make_factory` is invoked once per LP.
///
/// With `partitions == 1` this degenerates to (and exactly matches) the
/// sequential engine.
pub fn run_partitioned(
    cfg: SimConfig,
    partitions: usize,
    make_factory: &(dyn Fn() -> Box<dyn TransportFactory> + Sync),
) -> Metrics {
    // Lookahead: every cross-partition hop takes at least one propagation
    // latency.
    run_partitioned_opts(
        cfg,
        partitions,
        cfg.link.latency,
        make_factory,
        &|_| {},
        &PdesRunOpts::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Number of tier epochs a run of `duration_s` at `window` granularity
/// fires under `plan` (the final, possibly-partial window never hosts an
/// epoch). Lets callers size accuracy-budget patience in epochs.
pub fn tier_epoch_count(duration_s: f64, window: SimDuration, plan: &TierPlan) -> u64 {
    let end = SimTime::from_secs_f64(duration_s) + SimDuration::from_nanos(1);
    let stride = window.as_nanos().saturating_mul(plan.every_windows.max(1));
    if stride == 0 {
        return 0;
    }
    // Epoch k fires at t = k * stride while t < end.
    (end.as_nanos().saturating_sub(1)) / stride
}

/// [`run_partitioned`] with an explicit lookahead `window`, a per-LP
/// `setup` hook, and a [`PdesRunOpts`].
///
/// `setup` runs on each freshly built engine before its partition is
/// assigned. This is how composed simulations enter PDES mode: the hook
/// installs the cluster models (every LP installs the full set; ownership
/// decides which ones actually see traffic), and the window shrinks to
/// `min(link latency, model latency floor)` because a packet entering a
/// Mimic can reappear on a foreign core switch as little as one latency
/// floor later.
///
/// The options add diagnostics, state digests, the flight recorder with
/// panic post-mortems, and early stop. With diagnostics off an event pays
/// one branch for them and a window one more per option.
pub fn run_partitioned_opts(
    cfg: SimConfig,
    partitions: usize,
    window: SimDuration,
    make_factory: &(dyn Fn() -> Box<dyn TransportFactory> + Sync),
    setup: &(dyn Fn(&mut Simulation) + Sync),
    opts: &PdesRunOpts,
) -> Result<Metrics, LpPanic> {
    assert!(partitions >= 1);
    let topo = FatTree::new(cfg.topo);
    let owner = Arc::new(partition_by_cluster(&topo, partitions));
    let tiers = opts.tiers.as_ref();
    let digest_stride = opts.digest_stride.map(|s| s.max(1));
    let flight_plan = opts.flight.as_ref();
    let dump_dir = flight_plan.and_then(|f| f.dump_dir.as_deref());
    if let Some(plan) = tiers {
        assert!(plan.every_windows >= 1, "zero-window tier epochs");
    }
    // Epoch stride in simulated nanoseconds; epoch barriers are the window
    // barriers where `t` is a multiple of this.
    let epoch_stride_ns =
        tiers.map(|plan| window.as_nanos().saturating_mul(plan.every_windows));
    // Cross-LP drift exchange for tier epochs: each LP writes the scores
    // of the clusters it observes (Some-wins), all read the merged vector
    // after a barrier.
    let drift_slots: Mutex<Vec<Option<f64>>> =
        Mutex::new(vec![None; cfg.topo.clusters as usize]);
    let drift_slots = &drift_slots;

    assert!(window > SimDuration::ZERO, "zero lookahead breaks conservative PDES");
    let mut end = SimTime::from_secs_f64(cfg.duration_s) + SimDuration::from_nanos(1);
    if let Some(stop) = opts.stop_at {
        end = end.min(stop);
    }

    let channels: Vec<(Sender<RemoteMsg>, Receiver<RemoteMsg>)> =
        (0..partitions).map(|_| channel()).collect();
    let senders: Vec<Sender<RemoteMsg>> = channels.iter().map(|(s, _)| s.clone()).collect();
    let mut receivers: Vec<Option<Receiver<RemoteMsg>>> =
        channels.into_iter().map(|(_, r)| Some(r)).collect();

    let barrier = WindowBarrier::new(partitions);
    let barrier = &barrier;
    // The first LP panic wins; `abort` is only ever set *before* a
    // barrier and read *after* one, so every LP observes the same value
    // at the same loop position and barrier counts stay matched (no LP can
    // deadlock waiting on one that already returned).
    let abort = AtomicBool::new(false);
    let first_err: Mutex<Option<LpPanic>> = Mutex::new(None);
    let record_err = |e: LpPanic| {
        let mut slot = first_err.lock().expect("error mutex");
        slot.get_or_insert(e);
        abort.store(true, Ordering::SeqCst);
    };
    let diag_on = opts.obs || digest_stride.is_some() || flight_plan.is_some();
    let timed = opts.obs;
    let flight_capacity = flight_plan.map(|f| f.capacity);
    let window_ns = window.as_nanos();

    let merged = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(partitions);
        for (part, receiver) in receivers.iter_mut().enumerate() {
            let owner = owner.clone();
            let senders = senders.clone();
            let rx = receiver.take().expect("receiver taken once");
            let record_err = &record_err;
            let abort = &abort;
            let lp = std::thread::Builder::new().name(format!("pdes-lp-{part}"));
            let body = move || -> Option<Metrics> {
                let mut sim = Simulation::with_transport(cfg, make_factory());
                setup(&mut sim);
                sim.set_partition(owner.clone(), part as u8);
                let mut rec = LpRecord::new(diag_on, timed, part);
                if diag_on {
                    // Digests and the flight ring turn on the counts too,
                    // without per-event clock reads unless `obs` asked.
                    sim.enable_diagnostics(timed, flight_capacity);
                }
                if let Some(stride) = digest_stride {
                    // The gauges that align two digest timelines.
                    rec.digests = Some((0, Vec::new()));
                    rec.obs.gauge_set("digest.window_ns", window_ns as f64);
                    rec.obs.gauge_set("digest.stride", stride as f64);
                }
                if let Some(plan) = tiers {
                    rec.obs.gauge_set(
                        "tier.epochs_total",
                        tier_epoch_count(cfg.duration_s, window, plan) as f64,
                    );
                    rec.obs.gauge_set("tier.clusters", cfg.topo.clusters as f64);
                }
                rec.obs.begin("pdes.lp", "pdes", None);
                let mut t = SimTime::ZERO;
                // Digest alignment trackers: the run starts at window 0, so
                // the first digest-eligible barrier is window `stride`.
                let mut widx = 0u64;
                let mut next_aligned_ns = window_ns;
                let mut next_digest_widx = digest_stride.unwrap_or(0);
                while t < end {
                    let t_next = (t + window).min(end);
                    // The window body runs under `catch_unwind` so a panic
                    // dumps the LP's report, records a typed error, and
                    // keeps this LP's barrier count matched with its
                    // siblings instead of deadlocking them. Model work at
                    // the barriers just passed was caught the same way
                    // and fails the LP here, at the same position.
                    let ran = match rec.model_panic.take() {
                        Some(payload) => Err((payload, t)),
                        None => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            sim.run_window(t_next)
                        }))
                        .map_err(|payload| (payload, t_next)),
                    };
                    let outbox = match ran {
                        Ok(out) => out,
                        Err((payload, window_end)) => {
                            let p = payload.as_ref();
                            let e =
                                lp_failure(&mut sim, &mut rec, dump_dir, part, p, t, window_end);
                            record_err(e);
                            // Match the sibling LPs' two window barriers,
                            // then every LP returns at the abort check.
                            rec.wait(barrier, &mut || false);
                            rec.wait(barrier, &mut || false);
                            return None;
                        }
                    };
                    rec.exported += outbox.len() as u64;
                    for (time, node, pkt) in outbox {
                        let dest = owner[node.0 as usize] as usize;
                        senders[dest].send((time, node, pkt)).expect("LP alive");
                    }
                    // Every wait below may drain deferred model work due
                    // before `t_next`: no crossing or epoch still to come,
                    // imported ones included, is earlier than that.
                    rec.wait(barrier, &mut || sim.idle_step(t_next));
                    while let Ok((time, node, pkt)) = rx.try_recv() {
                        rec.imported += 1;
                        sim.inject_arrival(time, node, pkt);
                    }
                    rec.wait(barrier, &mut || sim.idle_step(t_next));
                    // A panic in any sibling this window set `abort` before
                    // the first barrier; every LP sees it here, after the
                    // second, and returns at the same loop position.
                    if abort.load(Ordering::SeqCst) {
                        return None;
                    }
                    t = t_next;
                    // State digest at true window barriers (DESIGN.md §14):
                    // every remote arrival for past windows is imported, so
                    // the per-LP digests sum to a partition-count-invariant
                    // global digest. Indices are absolute from t = 0, so
                    // stopped and full-length timelines align. Alignment
                    // and stride are tracked by increment-and-compare: two
                    // u64 divisions here once cost ~4% of a
                    // window-dominated run (windows can outnumber events).
                    if let (Some(stride), Some((first, digests))) =
                        (digest_stride, rec.digests.as_mut())
                    {
                        if t.as_nanos() == next_aligned_ns {
                            widx += 1;
                            next_aligned_ns += window_ns;
                            if widx == next_digest_widx {
                                next_digest_widx += stride;
                                if digests.is_empty() {
                                    *first = widx;
                                }
                                digests.push(sim.window_digest());
                            }
                        }
                    }
                    // Tier epoch: all LPs derive the same due condition from
                    // t, exchange drift, and apply the same decision.
                    if let Some(stride) = epoch_stride_ns {
                        if t < end && stride > 0 && t.as_nanos().is_multiple_of(stride) {
                            let epoch = t.as_nanos() / stride;
                            let local = guarded(&mut rec.model_panic, || sim.cluster_drifts())
                                .unwrap_or_default();
                            {
                                let mut slots = drift_slots.lock().expect("drift slots");
                                for (slot, l) in slots.iter_mut().zip(&local) {
                                    if l.is_some() {
                                        *slot = *l;
                                    }
                                }
                            }
                            rec.wait(barrier, &mut || sim.idle_step(t));
                            let merged = drift_slots.lock().expect("drift slots").clone();
                            // A cluster's nodes all live on partition
                            // `cluster % partitions` (see
                            // `partition_by_cluster`): record its switches
                            // there and nowhere else.
                            guarded(&mut rec.model_panic, || {
                                sim.tier_epoch(epoch, t, &merged, |c| {
                                    c as usize % partitions == part
                                })
                            });
                            rec.wait(barrier, &mut || sim.idle_step(t));
                            // Reset the exchange for the next epoch; the
                            // trailing barrier keeps fast LPs from publishing
                            // into a vector part 0 has not cleared yet.
                            if part == 0 {
                                let mut slots = drift_slots.lock().expect("drift slots");
                                slots.iter_mut().for_each(|s| *s = None);
                            }
                            rec.wait(barrier, &mut || sim.idle_step(t));
                        }
                    }
                }
                // Model work at the run's last barriers panicked: no
                // sibling waits any more, so fail without matching.
                if let Some(payload) = rec.model_panic.take() {
                    let p = payload.as_ref();
                    record_err(lp_failure(&mut sim, &mut rec, dump_dir, part, p, t, t));
                    return None;
                }
                rec.obs.end(None);
                let mut m = sim.take_metrics();
                if let (Some(engine), Some(driver)) = (m.obs.as_mut(), rec.report()) {
                    engine.merge(driver);
                }
                Some(m)
            };
            handles.push(lp.spawn_scoped(scope, body).expect("spawn LP thread"));
        }
        let mut merged: Option<Metrics> = None;
        for h in handles {
            let Some(m) = h.join().expect("LP panicked") else {
                continue;
            };
            match &mut merged {
                None => merged = Some(m),
                Some(acc) => acc.merge(m),
            }
        }
        merged
    });

    if let Some(e) = first_err.into_inner().expect("error mutex") {
        return Err(e);
    }
    Ok(merged.expect("at least one partition"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::testing::FixedWindowFactory;

    fn cfg() -> SimConfig {
        let mut c = SimConfig::small_scale();
        c.topo.clusters = 4;
        c.duration_s = 0.2;
        c.seed = 11;
        c
    }

    fn factory() -> Box<dyn TransportFactory> {
        Box::new(FixedWindowFactory::default())
    }

    /// `cfg` at its link-latency window with no setup hook, under `opts`.
    fn run_opts(
        cfg: SimConfig,
        partitions: usize,
        opts: &PdesRunOpts,
    ) -> Result<Metrics, LpPanic> {
        run_partitioned_opts(cfg, partitions, cfg.link.latency, &factory, &|_| {}, opts)
    }

    #[test]
    fn partition_map_covers_all_nodes() {
        let topo = FatTree::new(cfg().topo);
        let owner = partition_by_cluster(&topo, 3);
        assert_eq!(owner.len(), topo.params.num_nodes() as usize);
        assert!(owner.iter().all(|&p| p < 3));
        // All nodes of the same cluster share a partition.
        for c in 0..4 {
            let expect = owner[topo.tor(c, 0).0 as usize];
            assert_eq!(owner[topo.host(c, 1, 1).0 as usize], expect);
            assert_eq!(owner[topo.agg(c, 1).0 as usize], expect);
        }
    }

    #[test]
    fn obs_merges_across_partitions() {
        let traced = PdesRunOpts { obs: true, ..PdesRunOpts::default() };
        let m_par = run_opts(cfg(), 2, &traced).expect("traced run");
        let m_seq = run_opts(cfg(), 1, &traced).expect("traced run");
        // Obs on must not perturb the trajectory.
        assert_eq!(m_seq.total_delivered_bytes(), m_par.total_delivered_bytes());
        let rp = m_par.obs.as_ref().expect("obs report present");
        let rs = m_seq.obs.as_ref().expect("obs report present");
        // Event counts are trajectory properties: identical after merge.
        assert_eq!(rp.counter("sim.events.total"), rs.counter("sim.events.total"));
        assert_eq!(rp.counter("pdes.partitions"), 2);
        assert_eq!(rs.counter("pdes.partitions"), 1);
        // Every exported message is imported by its destination partition.
        assert_eq!(rp.counter("pdes.msgs_exported"), rp.counter("pdes.msgs_imported"));
        assert!(rp.counter("pdes.msgs_exported") > 0, "no cross-partition traffic");
        // Both partitions contributed window spans on distinct tracks.
        let tracks: std::collections::HashSet<u32> =
            rp.spans.iter().map(|s| s.track).collect();
        assert_eq!(tracks.len(), 2);
        assert_eq!(rp.counter("sim.windows"), 2 * rs.counter("sim.windows"));
        // Two barriers per window, one waiter each (the other LP releases):
        // every wait ended on exactly one rung of the ladder.
        let ladder = |r: &dcn_obs::ObsReport| {
            r.counter("pdes.barrier.warmed")
                + r.counter("pdes.barrier.spun")
                + r.counter("pdes.barrier.yielded")
                + r.counter("pdes.barrier.parked")
        };
        assert_eq!(ladder(rp), rp.counter("sim.windows"));
        assert_eq!(ladder(rs), 0, "a lone LP never waits");
    }

    /// Run `body` on its own thread and fail if it has not finished within
    /// `secs` — a lost wake-up or an unbounded spin hangs, it does not
    /// panic.
    fn within(secs: u64, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = channel();
        std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(secs))
            .expect("barrier test hung or its body panicked");
    }

    /// `parties` threads cross `generations` barriers. Before barrier `g`
    /// each adds one to slot `g`; after it, the slot must hold exactly
    /// `parties` — a thread released by a stale generation reads less, a
    /// thread that skipped one has already added to the next slot. The
    /// slot traffic is `Relaxed`: visibility rides on the barrier.
    fn hammer(parties: usize, generations: usize) -> BarrierWaits {
        let barrier = WindowBarrier::new(parties);
        let slots: Vec<AtomicUsize> = (0..generations).map(|_| AtomicUsize::new(0)).collect();
        let (barrier, slots) = (&barrier, &slots);
        let mut total = BarrierWaits::default();
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..parties)
                .map(|_| {
                    scope.spawn(move || {
                        let mut waits = BarrierWaits::default();
                        for (g, slot) in slots.iter().enumerate() {
                            slot.fetch_add(1, Ordering::Relaxed);
                            barrier.wait(&mut waits, &mut || false);
                            assert_eq!(slot.load(Ordering::Relaxed), parties, "generation {g}");
                        }
                        waits
                    })
                })
                .collect();
            for t in threads {
                let w = t.join().expect("barrier thread");
                total.warmed += w.warmed;
                total.spun += w.spun;
                total.yielded += w.yielded;
                total.parked += w.parked;
            }
        });
        total
    }

    #[test]
    fn barrier_generations_are_never_stale_or_skipped() {
        within(120, || {
            for parties in [1usize, 2, 4, 8] {
                let w = hammer(parties, 10_000);
                // One releaser per generation; everyone else waited.
                assert_eq!(
                    w.warmed + w.spun + w.yielded + w.parked,
                    10_000 * (parties as u64 - 1),
                    "{parties} parties"
                );
            }
        });
    }

    #[test]
    fn oversubscribed_barrier_stays_bounded() {
        // More LPs than cores: a waiter that only spins holds the core its
        // sibling needs, and each generation costs a scheduler quantum.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        within(120, move || {
            let w = hammer(2 * cores + 1, 2_000);
            assert_eq!(w.spun, 0, "oversubscribed LPs must not busy-wait");
        });
    }

    #[test]
    fn late_sibling_parks_the_waiter_and_wakes_it() {
        const ROUNDS: usize = 50;
        within(60, || {
            let barrier = WindowBarrier::new(2);
            // Barriers the early LP has returned from.
            let crossed = AtomicUsize::new(0);
            let (barrier, crossed) = (&barrier, &crossed);
            std::thread::scope(|scope| {
                let early = scope.spawn(move || {
                    let mut waits = BarrierWaits::default();
                    for round in 0..ROUNDS {
                        barrier.wait(&mut waits, &mut || false);
                        crossed.store(round + 1, Ordering::SeqCst);
                    }
                    waits
                });
                // Arrive only once the sibling has woken from the previous
                // round and committed to parking in this one: the release
                // then races its lock / generation check / condvar wait,
                // the window a lost wake-up would live in.
                let mut waits = BarrierWaits::default();
                for round in 0..ROUNDS {
                    while crossed.load(Ordering::SeqCst) != round
                        || barrier.sleepers.load(Ordering::SeqCst) == 0
                    {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                    barrier.wait(&mut waits, &mut || false);
                }
                assert_eq!(waits, BarrierWaits::default(), "the late LP releases, never waits");
                assert_eq!(early.join().expect("early LP").parked, ROUNDS as u64);
            });
        });
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dcn-pdes-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn stop_at_truncates_the_run() {
        let m_full = run_partitioned(cfg(), 2, &factory);
        let opts = PdesRunOpts {
            stop_at: Some(SimTime::from_secs_f64(0.1)),
            ..PdesRunOpts::default()
        };
        let m_half = run_opts(cfg(), 2, &opts).expect("truncated run");
        assert!(m_half.events_processed < m_full.events_processed);
        assert!(m_half.events_processed > 0);
    }

    #[test]
    fn stopped_run_digests_are_a_prefix_of_the_full_run() {
        // Window indices count from t = 0, so a re-run stopped early
        // records the same leading timeline as the run it re-traces.
        let timeline = |stop_at: Option<SimTime>| {
            let opts = PdesRunOpts { digest_stride: Some(1), stop_at, ..PdesRunOpts::default() };
            let r = run_opts(cfg(), 2, &opts).expect("digested run").obs.expect("obs report");
            r.digests.get("digest.window").cloned().expect("digests recorded")
        };
        let full = timeline(None);
        let stopped = timeline(Some(SimTime::from_secs_f64(0.05)));
        assert!(!stopped.is_empty() && stopped.len() < full.len());
        assert_eq!(stopped[..], full[..stopped.len()]);
    }

    /// Serves cluster 1 (partition 1 of 2) with a constant latency and
    /// panics at its first boundary crossing at or after `.0`.
    struct PanicsAt(SimTime);

    impl crate::mimic::ClusterModel for PanicsAt {
        fn clusters(&self) -> &[u32] {
            &[1]
        }
        fn infer(&mut self, item: &crate::mimic::BoundaryItem) -> crate::mimic::Verdict {
            if item.enqueued_at >= self.0 {
                panic!("crash drill: crossing at {} ns", item.enqueued_at.as_nanos());
            }
            crate::mimic::Verdict::Deliver { latency: self.latency_floor(), mark_ce: false }
        }
        fn latency_floor(&self) -> SimDuration {
            SimDuration::from_millis(2)
        }
    }

    #[test]
    fn crash_drill_dumps_flight_ring_and_fails_typed() {
        let dir = temp_dir("drill");
        let opts = PdesRunOpts {
            flight: Some(FlightPlan {
                capacity: 64,
                dump_dir: Some(dir.clone()),
            }),
            ..PdesRunOpts::default()
        };
        // Armed inside window 5; cluster 1's first crossing from then on
        // falls in window 22, which ends at 22 link latencies (as
        // recorded from this run).
        let window = cfg().link.latency;
        let at = SimTime(4 * window.as_nanos() + 1);
        let setup = |sim: &mut Simulation| sim.set_cluster_model(Box::new(PanicsAt(at)));
        let err = run_partitioned_opts(cfg(), 2, window, &factory, &setup, &opts)
            .err()
            .expect("crash drill must fail the run");
        assert_eq!(err.part, 1);
        assert_eq!(err.window_end_ns, 22 * window.as_nanos());
        assert!(err.message.contains("crash drill"), "{err}");
        let dump = fs::read_to_string(dir.join("postmortem-part-1.json"))
            .expect("post-mortem dump written");
        assert!(dump.contains("crash drill"), "reason recorded: {dump}");
        assert!(dump.contains("\"flight\""), "flight ring present");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Serves cluster 1 like [`PanicsAt`] but never panics there. Instead
    /// it keeps one unit of deferred work per window of `window` ns, and a
    /// unit due at or after `at` panics when it runs at a window barrier
    /// (`until` on the window grid), outside the window body.
    struct WarmUpPanicsAt {
        at: SimTime,
        window: u64,
        next: SimTime,
    }

    impl crate::mimic::ClusterModel for WarmUpPanicsAt {
        fn clusters(&self) -> &[u32] {
            &[1]
        }
        fn infer(&mut self, _item: &crate::mimic::BoundaryItem) -> crate::mimic::Verdict {
            crate::mimic::Verdict::Deliver { latency: self.latency_floor(), mark_ce: false }
        }
        fn latency_floor(&self) -> SimDuration {
            SimDuration::from_millis(2)
        }
        fn idle(&mut self, _cluster: u32, until: SimTime) -> bool {
            if self.next >= until {
                return false;
            }
            if self.next >= self.at && until.as_nanos().is_multiple_of(self.window) {
                panic!("crash drill: warm-up at {} ns", self.next.as_nanos());
            }
            self.next += SimDuration::from_nanos(self.window);
            true
        }
    }

    #[test]
    fn crash_drill_in_barrier_warm_up_fails_typed_without_hanging() {
        let dir = temp_dir("drill-warm-up");
        let opts = PdesRunOpts {
            flight: Some(FlightPlan {
                capacity: 64,
                dump_dir: Some(dir.clone()),
            }),
            ..PdesRunOpts::default()
        };
        let window = cfg().link.latency;
        let at = SimTime(4 * window.as_nanos() + 1);
        // Which barrier partition 1 first waits at after `at` depends on
        // thread timing; a run that hangs never answers.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let setup = |sim: &mut Simulation| {
                let model = WarmUpPanicsAt {
                    at,
                    window: window.as_nanos(),
                    next: SimTime::ZERO,
                };
                sim.set_cluster_model(Box::new(model));
            };
            let run = run_partitioned_opts(cfg(), 2, window, &factory, &setup, &opts);
            let _ = tx.send(run);
        });
        let err = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a panic in barrier warm-up must not hang the run")
            .err()
            .expect("crash drill must fail the run");
        assert_eq!(err.part, 1);
        assert!(err.message.contains("crash drill: warm-up"), "{err}");
        assert!(err.window_end_ns > at.as_nanos());
        assert!(err.window_end_ns.is_multiple_of(window.as_nanos()), "{err}");
        let dump = fs::read_to_string(dir.join("postmortem-part-1.json"))
            .expect("post-mortem dump written");
        assert!(
            dump.contains("crash drill: warm-up"),
            "reason recorded: {dump}"
        );
        assert!(dump.contains("\"flight\""), "flight ring present");
        let _ = fs::remove_dir_all(&dir);
    }
}
