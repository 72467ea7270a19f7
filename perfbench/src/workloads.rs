//! The three workloads. A run repeats *units*: each unit spawns its own
//! loopback cluster, sets up, does the workload's fixed timed work while
//! checking every output, and tears down. All units of a run draw the
//! same inputs from the run's seed, so a traced unit can be checked count
//! for count against its untraced twin.

use std::collections::BTreeMap;
use std::error::Error;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use rmp::blockdev::PagingDevice;
use rmp::core::{Pager, ShardedPager};
use rmp::types::metrics::MetricsRegistry;
use rmp::types::{Page, PageId, PagerConfig, Policy, ServerId};
use rmp::vm::{PagedMemory, VmConfig};
use rmp::workloads::{standard_suite, StandardWorkload, Workload as _};

use crate::process::{self, Usage};
use crate::rig::ServerSnap;
use crate::rig::{max_suspicion, page_for, timed, Boundary, Counts, Exact, Rig, Rng, ServerDelta};
use crate::stats::{self, ratio};
use crate::trace::{self, Kind, Probe, Span};

pub type Fallible<T> = std::result::Result<T, Box<dyn Error>>;

/// Working set over resident memory for GAUSS: the paper's memory
/// pressure.
const GAUSS_OVERCOMMIT: f64 = 1.35;

/// mix-sharded: pages preloaded, client threads, operations per thread
/// per unit, and the share of operations that are reads.
const MIX_PAGES: u64 = 2048;
const MIX_THREADS: u64 = 2;
const MIX_OPS_PER_THREAD: u64 = 20_000;
const MIX_READ_PERCENT: u64 = 70;

/// crash-plog: pages preloaded (and verified after recovery), and reads
/// made between the crash and the recovery (a multiple of the data
/// servers, so a block of them holds an equal share of every server).
/// The unit is kept short so that a run averages many units: see
/// `end_to_end` in `main.rs` for why units differ.
const CRASH_PAGES: u64 = 4000;
const CRASH_DEGRADED_READS: u64 = 200;

/// Data servers of the parity-logging stripe (`with_servers(4)`); the
/// fifth, highest-numbered server holds parity.
const DATA_SERVERS: u64 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GaussPlog,
    MixSharded,
    CrashPlog,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GaussPlog,
        Workload::MixSharded,
        Workload::CrashPlog,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GaussPlog => "gauss-plog",
            Workload::MixSharded => "mix-sharded",
            Workload::CrashPlog => "crash-plog",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether one thread makes every call, so that a traced unit must
    /// repeat its untraced twin's counts exactly.
    pub fn single_threaded(self) -> bool {
        self != Workload::MixSharded
    }

    /// Runs one unit.
    pub fn unit(self, seed: u64, traced: bool) -> Fallible<Unit> {
        match self {
            Workload::GaussPlog => gauss_plog(traced),
            Workload::MixSharded => mix_sharded(seed, traced),
            Workload::CrashPlog => crash_plog(seed, traced),
        }
    }
}

/// What one unit measured.
#[derive(Debug, Default)]
pub struct Unit {
    pub traced: bool,
    pub setup_s: f64,
    pub run_s: f64,
    /// Device-level calls in the timed work.
    pub ops: u64,
    /// Every device-level call the unit made, set-up and checks included.
    pub attempted: u64,
    /// Calls that returned an error or the wrong bytes.
    pub failed: u64,
    pub pagein_us: Vec<f64>,
    pub pageout_us: Vec<f64>,
    pub degraded_us: Vec<f64>,
    pub recovery_s: Option<f64>,
    pub cpu_ms_per_kop: f64,
    pub peak_rss_mb: f64,
    pub remote_pages_per_page: f64,
    /// Counts a traced unit must reproduce exactly.
    pub exact: Exact,
    /// Per-layer metrics (span-based ones only in traced units).
    pub layers: BTreeMap<&'static str, f64>,
    /// Failed correctness checks.
    pub violations: Vec<String>,
    /// Spans of the timed work (traced units).
    pub spans: Vec<Span>,
}

impl Unit {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// Measurements opened just before the timed work.
struct Window {
    traced: bool,
    started: Instant,
    usage: Usage,
    allocs: (u64, u64),
    servers: Vec<ServerSnap>,
}

/// What the window saw once closed.
struct Closed {
    run_s: f64,
    cpu_s: f64,
    ctx_switches: u64,
    allocs: u64,
    alloc_bytes: u64,
    servers: ServerDelta,
    threads: u64,
    sockets: u64,
    spans: Vec<Span>,
}

impl Window {
    fn open(rig: &Rig) -> Window {
        let servers = rig.servers();
        if rig.traced() {
            // Spans of the set-up are not part of the timed work.
            trace::drain_thread();
            process::count_allocs(true);
        }
        Window {
            traced: rig.traced(),
            servers,
            usage: Usage::now(),
            allocs: process::allocs(),
            started: Instant::now(),
        }
    }

    fn close(self, rig: &Rig) -> Closed {
        let run_s = self.started.elapsed().as_secs_f64();
        let usage = Usage::now();
        process::count_allocs(false);
        let allocs = process::allocs();
        let spans = if self.traced {
            trace::drain_thread()
        } else {
            Vec::new()
        };
        Closed {
            run_s,
            cpu_s: usage.cpu_s - self.usage.cpu_s,
            ctx_switches: usage.ctx_switches - self.usage.ctx_switches,
            allocs: allocs.0 - self.allocs.0,
            alloc_bytes: allocs.1 - self.allocs.1,
            servers: ServerDelta::between(&self.servers, &rig.servers()),
            threads: process::threads(),
            sockets: process::sockets(),
            spans,
        }
    }
}

/// Request frames sent through the traced transports so far (all 0 in an
/// untraced unit); subtract two readings for the frames of a phase.
#[derive(Clone, Copy, Debug, Default)]
struct Frames {
    pageout: u64,
    pagein: u64,
    all: u64,
}

impl Frames {
    fn read(probe: &Option<Arc<Probe>>) -> Frames {
        probe.as_ref().map_or(Frames::default(), |p| Frames {
            pageout: p.pageout_frames(),
            pagein: p.pagein_frames(),
            all: p.total_frames(),
        })
    }

    fn since(self, before: Frames) -> Frames {
        Frames {
            pageout: self.pageout - before.pageout,
            pagein: self.pagein - before.pagein,
            all: self.all - before.all,
        }
    }
}

fn plog_config() -> PagerConfig {
    PagerConfig::new(Policy::ParityLogging).with_servers(DATA_SERVERS as usize)
}

/// Fills the metrics every workload shares from the closed window, the
/// registry counts of the timed work, and its spans.
fn common(unit: &mut Unit, closed: Closed, counts: &Counts, suspicion: f64) {
    unit.run_s = closed.run_s;
    unit.cpu_ms_per_kop = ratio(closed.cpu_s * 1e3, unit.ops as f64 / 1e3);
    unit.peak_rss_mb = Usage::now().peak_rss_mb;
    let ops = unit.ops as f64;
    let c = |name| counts.get(name) as f64;

    let lock_us: Vec<f64> = ns_to_us(
        closed
            .spans
            .iter()
            .filter(|s| s.kind == Kind::ShardLock)
            .map(Span::dur),
    );
    let (lock_p50, lock_tail) = median_and_tail(lock_us.clone());
    unit.set("sharded.lock_wait_us.p50", lock_p50);
    unit.set("sharded.lock_wait_us.p99", lock_tail);
    unit.set("sharded.lock_wait_s", sum(&lock_us) / 1e6);

    let self_us = ns_to_us(trace::self_times(&closed.spans, Kind::Op).into_iter());
    unit.set("pager.self_us.p50", median_and_tail(self_us.clone()).0);
    unit.set("pager.self_s", sum(&self_us) / 1e6);

    let transport: Vec<&Span> = closed
        .spans
        .iter()
        .filter(|s| s.kind == Kind::Transport)
        .collect();
    let call_us = ns_to_us(
        transport
            .iter()
            .filter(|s| matches!(s.name, "call" | "call_pipelined"))
            .map(|s| s.dur()),
    );
    let (call_p50, call_tail) = median_and_tail(call_us);
    unit.set("reactor.call_us.p50", call_p50);
    unit.set("reactor.call_us.p99", call_tail);
    unit.set("reactor.calls", transport.len() as f64);
    let busy_us = ns_to_us(transport.iter().map(|s| s.dur()));
    unit.set("reactor.busy_s", sum(&busy_us) / 1e6);

    unit.set("engine.groups_sealed", c("engine_groups_sealed_total"));
    unit.set("engine.gc_passes", c("engine_gc_passes_total"));
    unit.set(
        "engine.parity_reconstructions",
        counts.parity_reconstructions() as f64,
    );
    unit.set("prefetch.issued", c("pager_prefetch_issued_total"));
    unit.set("prefetch.hits", c("pager_prefetch_hits_total"));
    unit.set("prefetch.useless", c("pager_prefetch_useless_total"));
    unit.set(
        "prefetch.hit_ratio",
        ratio(
            c("pager_prefetch_hits_total"),
            c("pager_prefetch_issued_total"),
        ),
    );
    unit.set("detector.hedged_pageins", c("pool_hedged_pageins_total"));
    unit.set(
        "detector.hedge_win_ratio",
        ratio(c("pool_hedge_wins_total"), c("pool_hedged_pageins_total")),
    );
    unit.set("detector.max_suspicion", suspicion);
    unit.set("pool.calls", c("pool_calls_total"));
    unit.set("pool.retries", c("pool_retries_total"));
    unit.set("pool.deaths", c("pool_deaths_total"));
    unit.set(
        "pool.retry_ratio",
        ratio(c("pool_retries_total"), c("pool_calls_total")),
    );

    let s = &closed.servers;
    unit.set("server.service_us.mean", s.service.mean_us());
    unit.set("server.service_us.p99", s.service.p99_us());
    unit.set("server.requests", s.requests as f64);
    unit.set(
        "server.busy_fraction",
        ratio(s.max_busy_us as f64, closed.run_s * 1e6),
    );
    unit.set("server.worker_threads", s.max_worker_threads as f64);

    unit.set("proc.threads", closed.threads as f64);
    unit.set("proc.sockets", closed.sockets as f64);
    unit.set(
        "proc.ctx_switches_per_kop",
        ratio(closed.ctx_switches as f64, ops / 1e3),
    );
    if unit.traced {
        unit.set("proc.allocs_per_op", ratio(closed.allocs as f64, ops));
        unit.set(
            "proc.alloc_bytes_per_op",
            ratio(closed.alloc_bytes as f64, ops),
        );
    }
    unit.spans = closed.spans;
}

/// Sum that reads +0 for no values (`Iterator::sum` gives -0).
fn sum(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |a, b| a + b)
}

fn ns_to_us(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    ns.map(|n| n as f64 / 1e3).collect()
}

/// Median and tail percentile (see [`stats::summarize`]); 0 when there
/// are no samples.
pub fn median_and_tail(mut samples: Vec<f64>) -> (f64, f64) {
    match stats::summarize(&mut samples) {
        Some((median, tail)) => (median, tail.map_or(median, |t| t.value)),
        None => (0.0, 0.0),
    }
}

/// Window counters of the traced transports, read once the pager is
/// gone (each connection folds its counters in when it closes).
fn window_layers(unit: &mut Unit, probe: &Option<Arc<Probe>>) {
    if let Some(p) = probe {
        let w = p.window();
        unit.set("reactor.window_stalls", w.stalls as f64);
        unit.set("reactor.late_replies", w.late_replies as f64);
    }
}

/// Adds the servers' whole-unit request counts to the exact counts, after
/// waiting for every session to finish.
fn server_exact(unit: &mut Unit, rig: &Rig) {
    rig.quiesce();
    let total = ServerDelta::between(
        &vec![ServerSnap::default(); rig.cluster.len()],
        &rig.servers(),
    );
    unit.exact.insert("server.requests", total.requests);
    unit.exact.insert("server.pageouts", total.pageouts);
    unit.exact.insert("server.pageins", total.pageins);
}

fn client_exact(unit: &mut Unit, counts: &Counts) {
    for name in [
        "pool_calls_total",
        "pool_wire_transfers_total",
        "pager_prefetch_issued_total",
        "pager_prefetch_hits_total",
        "pager_degraded_reads_total",
        "engine_groups_sealed_total",
        "engine_gc_passes_total",
    ] {
        unit.exact.insert(name, counts.get(name));
    }
}

/// The paper's GAUSS (n = 420 at suite scale 1.0) out of core through the
/// VM over one parity-logging pager. Its input is fixed by the paper, so
/// the seed does not change it.
fn gauss_plog(traced: bool) -> Fallible<Unit> {
    let gauss = standard_suite(1.0)
        .into_iter()
        .find(|w| matches!(w, StandardWorkload::Gauss(_)))
        .expect("the standard suite includes GAUSS");
    let mut unit = Unit {
        traced,
        ..Unit::default()
    };
    let started = Instant::now();
    let rig = Rig::spawn(traced)?;
    let pager = rig.pager(plog_config())?;
    let registry = Arc::clone(pager.metrics());
    let resident = ((gauss.working_set_pages() as f64 / GAUSS_OVERCOMMIT) as usize).max(3);
    let mut vm = PagedMemory::new(
        Boundary::new(pager, traced),
        VmConfig::with_frames(resident),
    );
    unit.setup_s = started.elapsed().as_secs_f64();

    let before = Counts::of(&registry);
    let frames0 = Frames::read(&rig.probe);
    let window = Window::open(&rig);
    let report = gauss.run(&mut vm);
    let closed = window.close(&rig);
    let sent = Frames::read(&rig.probe).since(frames0);

    let device = vm.device();
    unit.ops = (device.pagein_us.len() + device.pageout_us.len()) as u64;
    unit.attempted = unit.ops;
    unit.failed = device.failed;
    match &report {
        Ok(r) => unit.check(r.verified, || "GAUSS output did not verify".into()),
        Err(e) => unit.check(false, || format!("GAUSS failed: {e}")),
    }
    let counts = Counts::of(&registry).since(&before);
    unit.check(counts.get("pool_retries_total") == 0, || {
        format!(
            "healthy run retried {} pool calls",
            counts.get("pool_retries_total")
        )
    });
    let ws = gauss.working_set_pages();
    let live = (0..ws).filter(|&id| device.contains(PageId(id))).count();
    unit.remote_pages_per_page = ratio(rig.stored_pages() as f64, live as f64);
    let device_s = device
        .pagein_us
        .iter()
        .chain(&device.pageout_us)
        .sum::<f64>()
        / 1e6;
    let pageins = device.pagein_us.len() as f64;
    let pageouts = device.pageout_us.len() as f64;
    let faults = vm.stats();
    common(
        &mut unit,
        closed,
        &counts,
        max_suspicion(&vm.device().inner),
    );

    unit.set("vm.faults", faults.faults() as f64);
    unit.set("vm.hit_ratio", faults.hit_ratio());
    unit.set("vm.self_s", unit.run_s - device_s);
    if traced {
        unit.set(
            "engine.frames_per_pageout",
            ratio(sent.pageout as f64, pageouts),
        );
        unit.set(
            "engine.frames_per_pagein",
            ratio(sent.pagein as f64, pageins),
        );
    }
    unit.exact.insert("vm.pageins", faults.pageins);
    unit.exact.insert("vm.pageouts", faults.pageouts);
    unit.exact.insert("vm.zero_fills", faults.zero_fills);
    unit.exact.insert("ops", unit.ops);
    client_exact(&mut unit, &counts);

    let device = vm.into_device();
    unit.pagein_us = device.pagein_us;
    unit.pageout_us = device.pageout_us;
    drop(device.inner);
    window_layers(&mut unit, &rig.probe);
    server_exact(&mut unit, &rig);
    Ok(unit)
}

/// One device call through a sharded pager. Untraced it is the stock
/// `ShardedPager` call; traced, the benchmark takes the shard lock itself
/// through `with_shard`, so the wait for it is a span of its own.
fn sharded_call(
    pager: &ShardedPager,
    traced: bool,
    req: u64,
    id: u64,
    write: Option<&Page>,
) -> (rmp::types::Result<Option<Page>>, f64) {
    let pid = PageId(id);
    let name = if write.is_some() {
        "page_out"
    } else {
        "page_in"
    };
    if !traced {
        return timed(false, name, req, || match write {
            Some(page) => pager.page_out(pid, page).map(|()| None),
            None => pager.page_in(pid).map(Some),
        });
    }
    let shard = (id & (pager.shard_count() as u64 - 1)) as usize;
    timed(true, name, req, || {
        let lock = trace::leaf(Kind::ShardLock, "with_shard", 0);
        pager.with_shard(shard, |p| {
            lock.close();
            match write {
                Some(page) => p.page_out(pid, page).map(|()| None),
                None => p.page_in(pid).map(Some),
            }
        })
    })
}

#[derive(Default)]
struct ThreadOut {
    pagein_us: Vec<f64>,
    pageout_us: Vec<f64>,
    failed: u64,
    spans: Vec<Span>,
}

/// One client thread of mix-sharded: a closed loop of seeded uniform
/// reads and writes over the contiguous id range this thread owns, so
/// every read can be checked against the version this thread last wrote.
fn mix_thread(pager: &ShardedPager, traced: bool, t: u64, seed: u64, start: &Barrier) -> ThreadOut {
    let span = MIX_PAGES / MIX_THREADS;
    let base = t * span;
    let mut rng = Rng::new(seed ^ (t + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut versions = vec![0u64; span as usize];
    let mut out = ThreadOut::default();
    start.wait();
    for k in 0..MIX_OPS_PER_THREAD {
        let slot = rng.below(span) as usize;
        let id = base + slot as u64;
        let req = (t + 1) << 32 | k;
        if rng.below(100) < MIX_READ_PERCENT {
            let (r, us) = sharded_call(pager, traced, req, id, None);
            out.pagein_us.push(us);
            let ok = matches!(r, Ok(Some(page)) if page == page_for(id, versions[slot]));
            out.failed += u64::from(!ok);
        } else {
            versions[slot] += 1;
            let page = page_for(id, versions[slot]);
            let (r, us) = sharded_call(pager, traced, req, id, Some(&page));
            out.pageout_us.push(us);
            out.failed += u64::from(r.is_err());
        }
    }
    if traced {
        out.spans = trace::drain_thread();
    }
    out
}

/// Two client threads on one sharded Mirroring pager: seeded random 70 %
/// reads / 30 % writes over preloaded pages.
fn mix_sharded(seed: u64, traced: bool) -> Fallible<Unit> {
    let mut unit = Unit {
        traced,
        ..Unit::default()
    };
    let started = Instant::now();
    let rig = Rig::spawn(traced)?;
    let pager = rig.sharded(PagerConfig::new(Policy::Mirroring).with_servers(4))?;
    for id in 0..MIX_PAGES {
        let ok = pager.page_out(PageId(id), &page_for(id, 0)).is_ok();
        unit.failed += u64::from(!ok);
    }
    unit.setup_s = started.elapsed().as_secs_f64();
    let registries: Vec<Arc<MetricsRegistry>> = (0..pager.shard_count())
        .map(|i| pager.with_shard(i, |p| Arc::clone(p.metrics())))
        .collect();

    let before = Counts::sum(&registries);
    let frames0 = Frames::read(&rig.probe);
    let start = Barrier::new(MIX_THREADS as usize + 1);
    let (window, outs) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..MIX_THREADS)
            .map(|t| {
                let (pager, start) = (&pager, &start);
                scope.spawn(move || mix_thread(pager, traced, t, seed, start))
            })
            .collect();
        let window = Window::open(&rig);
        start.wait();
        let outs: Vec<ThreadOut> = handles
            .into_iter()
            .map(|h| h.join().expect("mix client thread panicked"))
            .collect();
        (window, outs)
    });
    let mut closed = window.close(&rig);
    let sent = Frames::read(&rig.probe).since(frames0);

    let counts = Counts::sum(&registries).since(&before);
    let suspicion = (0..pager.shard_count())
        .map(|i| pager.with_shard(i, |p| max_suspicion(p)))
        .fold(0.0, f64::max);
    for out in outs {
        unit.pagein_us.extend(out.pagein_us);
        unit.pageout_us.extend(out.pageout_us);
        unit.failed += out.failed;
        closed.spans.extend(out.spans);
    }
    let pageouts = unit.pageout_us.len() as f64;
    unit.ops = (unit.pagein_us.len() + unit.pageout_us.len()) as u64;
    unit.attempted = unit.ops + MIX_PAGES;
    unit.check(counts.get("pool_retries_total") == 0, || {
        format!(
            "healthy run retried {} pool calls",
            counts.get("pool_retries_total")
        )
    });
    // Mirroring's §2.2 cost: two stored copies per pageout, no more, no
    // fewer. The servers count what arrived; traced, so does the wire.
    let stored_per_pageout = ratio(closed.servers.pageouts as f64, pageouts);
    unit.check(stored_per_pageout == 2.0, || {
        format!("Mirroring stored {stored_per_pageout} pages per pageout, not 2")
    });
    unit.remote_pages_per_page = ratio(rig.stored_pages() as f64, MIX_PAGES as f64);
    common(&mut unit, closed, &counts, suspicion);
    if traced {
        let per_pageout = ratio(sent.pageout as f64, pageouts);
        unit.check(per_pageout == 2.0, || {
            format!("Mirroring sent {per_pageout} page frames per pageout, not 2")
        });
        unit.set("engine.frames_per_pageout", per_pageout);
        unit.set(
            "engine.frames_per_pagein",
            ratio(sent.pagein as f64, unit.pagein_us.len() as f64),
        );
    }
    unit.exact.insert("ops", unit.ops);
    drop(pager);
    window_layers(&mut unit, &rig.probe);
    Ok(unit)
}

/// Reads every id of `order` through `pager`, checking each against the
/// version preloaded in set-up, and returns the latencies and the
/// failures.
fn read_pass(pager: &mut Pager, traced: bool, order: &[u64], req: &mut u64) -> (Vec<f64>, u64) {
    let mut us = Vec::with_capacity(order.len());
    let mut failed = 0;
    for &id in order {
        *req += 1;
        let (r, t) = timed(traced, "page_in", *req, || pager.page_in(PageId(id)));
        us.push(t);
        failed += u64::from(!matches!(r, Ok(page) if page == page_for(id, 0)));
    }
    (us, failed)
}

/// One parity-logging pager through a server crash: a healthy random read
/// pass, a seeded data server crashes, a degraded random read pass,
/// `recover_from_crash`, then every page is read back and checked.
fn crash_plog(seed: u64, traced: bool) -> Fallible<Unit> {
    let mut unit = Unit {
        traced,
        ..Unit::default()
    };
    let mut rng = Rng::new(seed);
    let started = Instant::now();
    let rig = Rig::spawn(traced)?;
    let mut pager = rig.pager(plog_config())?;
    let registry = Arc::clone(pager.metrics());
    let mut req = 0;
    for id in 0..CRASH_PAGES {
        req += 1;
        let page = page_for(id, 0);
        let (r, us) = timed(traced, "page_out", req, || {
            pager.page_out(PageId(id), &page)
        });
        unit.pageout_us.push(us);
        unit.failed += u64::from(r.is_err());
    }
    pager.flush()?;
    let preload = Frames::read(&rig.probe);
    unit.setup_s = started.elapsed().as_secs_f64();

    let before = Counts::of(&registry);
    let window = Window::open(&rig);
    let healthy = rng.permutation(CRASH_PAGES);
    let (pagein_us, failed) = read_pass(&mut pager, traced, &healthy, &mut req);
    unit.pagein_us = pagein_us;
    unit.failed += failed;
    let healthy_retries = Counts::of(&registry)
        .since(&before)
        .get("pool_retries_total");
    let at_crash = Frames::read(&rig.probe);
    let healthy_sent = at_crash.since(preload);

    let victim = ServerId(rng.below(DATA_SERVERS) as u32);
    rig.cluster.handles()[victim.0 as usize].crash();
    let degraded_before = registry.counter("pager_degraded_reads_total").get();
    // A seeded block of consecutive ids, read in random order. Preloaded
    // pages go round-robin over the data servers, so every such block
    // holds the same share of the victim's pages and the pass costs the
    // same whichever block and victim the seed picks.
    let block = rng.below((CRASH_PAGES - CRASH_DEGRADED_READS) / DATA_SERVERS + 1) * DATA_SERVERS;
    let order: Vec<u64> = rng
        .permutation(CRASH_DEGRADED_READS)
        .into_iter()
        .map(|i| block + i)
        .collect();
    let (degraded_us, failed) = read_pass(&mut pager, traced, &order, &mut req);
    unit.degraded_us = degraded_us;
    unit.failed += failed;
    let degraded_reads = registry.counter("pager_degraded_reads_total").get() - degraded_before;
    let degraded_frames = Frames::read(&rig.probe).since(at_crash).all;

    let recovery_started = Instant::now();
    let report = pager.recover_from_crash(victim);
    let recovery_s = recovery_started.elapsed().as_secs_f64();
    let verify = rng.permutation(CRASH_PAGES);
    let (_, lost) = read_pass(&mut pager, traced, &verify, &mut req);
    let closed = window.close(&rig);

    unit.failed += lost;
    unit.ops = CRASH_PAGES + CRASH_DEGRADED_READS + CRASH_PAGES;
    unit.attempted = unit.ops + CRASH_PAGES;
    unit.check(healthy_retries == 0, || {
        format!("healthy pass retried {healthy_retries} pool calls")
    });
    unit.check(lost == 0, || {
        format!("{lost} pages wrong or lost after recovery")
    });
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            unit.check(false, || format!("recover_from_crash failed: {e}"));
            Default::default()
        }
    };
    unit.recovery_s = Some(recovery_s);
    let counts = Counts::of(&registry).since(&before);
    unit.remote_pages_per_page = ratio(rig.stored_pages() as f64, CRASH_PAGES as f64);
    common(&mut unit, closed, &counts, max_suspicion(&pager));

    unit.set("recovery.pages_rebuilt", report.total_rebuilt() as f64);
    unit.set("recovery.transfers", report.transfers as f64);
    unit.set(
        "recovery.pages_per_s",
        ratio(report.total_rebuilt() as f64, recovery_s),
    );
    if traced {
        unit.set(
            "engine.frames_per_pageout",
            ratio(preload.pageout as f64, unit.pageout_us.len() as f64),
        );
        unit.set(
            "engine.frames_per_pagein",
            ratio(healthy_sent.pagein as f64, healthy.len() as f64),
        );
        unit.set(
            "recovery.degraded_frames_per_read",
            ratio(degraded_frames as f64, degraded_reads as f64),
        );
    }
    unit.exact.insert("ops", unit.ops);
    unit.exact
        .insert("recovery.pages_rebuilt", report.total_rebuilt());
    unit.exact.insert("recovery.transfers", report.transfers);
    client_exact(&mut unit, &counts);
    drop(pager);
    window_layers(&mut unit, &rig.probe);
    server_exact(&mut unit, &rig);
    Ok(unit)
}
