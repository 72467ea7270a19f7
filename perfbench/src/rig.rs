//! The pieces every workload shares: a loopback cluster, pagers built the
//! stock way or through traced transports, the device-boundary timer, and
//! the client- and server-side counters read around the timed work.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rmp::blockdev::{PagingDevice, RamDisk};
use rmp::core::{Pager, ServerPool, ShardedPager, WindowedTransport};
use rmp::types::metrics::{HistogramSnapshot, MetricsRegistry, LATENCY_BUCKETS_US};
use rmp::types::{Page, PageId, PagerConfig, Result, ServerId, TransferStats};
use rmp::LocalCluster;

use crate::json::{self, Value};
use crate::trace::{self, Probe, TracedTransport};

/// Servers in every workload's cluster: four data servers and the parity
/// server of the paper's parity-logging arrangement.
pub const SERVERS: usize = 5;

/// Frames each server may grant; far above what any workload stores, so
/// no pageout ever falls back to the local disk.
const SERVER_CAPACITY_PAGES: usize = 1 << 15;

/// A loopback cluster plus, in a traced unit, the probe its traced
/// transports report to.
pub struct Rig {
    pub cluster: LocalCluster,
    pub probe: Option<Arc<Probe>>,
}

impl Rig {
    pub fn spawn(traced: bool) -> Result<Rig> {
        Ok(Rig {
            cluster: LocalCluster::spawn(SERVERS, SERVER_CAPACITY_PAGES)?,
            probe: traced.then(|| Arc::new(Probe::default())),
        })
    }

    pub fn traced(&self) -> bool {
        self.probe.is_some()
    }

    /// One pool over traced windowed transports: what
    /// [`ServerPool::connect_with`] dials, with the decorator in between.
    fn traced_pool(&self, config: &PagerConfig, probe: &Arc<Probe>) -> Result<ServerPool> {
        let mut pool = ServerPool::with_transport_config(config.transport.clone());
        for info in self.cluster.registry().iter() {
            let inner = WindowedTransport::connect_with(&info.addr, &config.transport)?;
            let traced = TracedTransport::new(Box::new(inner), Arc::clone(probe));
            pool.add_transport(info.id, Box::new(traced), info.link_cost);
        }
        Ok(pool)
    }

    /// A single-threaded pager: [`LocalCluster::pager`] untraced, the same
    /// construction over traced transports otherwise.
    pub fn pager(&self, config: PagerConfig) -> Result<Pager> {
        match &self.probe {
            None => self.cluster.pager(config),
            Some(probe) => {
                let pool = self.traced_pool(&config, probe)?;
                Pager::builder(config)
                    .pool(pool)
                    .disk(Box::new(RamDisk::unbounded()))
                    .build()
            }
        }
    }

    /// A sharded pager: [`ShardedPager::connect`] untraced, one traced
    /// pool per shard otherwise.
    pub fn sharded(&self, config: PagerConfig) -> Result<ShardedPager> {
        match &self.probe {
            None => ShardedPager::connect(config, self.cluster.registry()),
            Some(probe) => {
                let pools = (0..config.shard_count)
                    .map(|_| self.traced_pool(&config, probe))
                    .collect::<Result<Vec<_>>>()?;
                ShardedPager::builder(config).pools(pools).build()
            }
        }
    }

    /// Pages held by all servers together.
    pub fn stored_pages(&self) -> u64 {
        self.cluster
            .handles()
            .iter()
            .map(|h| h.stored_pages() as u64)
            .sum()
    }

    /// Waits until no server has a live client session, so every frame a
    /// closed pager sent has been served and counted.
    pub fn quiesce(&self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline
            && self
                .cluster
                .handles()
                .iter()
                .any(|h| !h.is_crashed() && h.active_sessions() > 0)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn servers(&self) -> Vec<ServerSnap> {
        self.cluster
            .handles()
            .iter()
            .map(|h| ServerSnap::parse(&h.metrics_json()))
            .collect()
    }
}

/// Contents of page `id` after its `version`-th write: every read checks
/// the exact bytes of the latest version.
pub fn page_for(id: u64, version: u64) -> Page {
    Page::deterministic(id | version << 40)
}

/// SplitMix64: a seeded, dependency-free generator for page-id streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Times one device call at the application boundary, in microseconds.
/// In a traced unit the call is also an `op` span carrying `req`.
pub fn timed<R>(traced: bool, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
    if traced {
        let span = trace::enter_op(name, req);
        let r = f();
        (r, span.close() as f64 / 1e3)
    } else {
        let start = Instant::now();
        let r = f();
        (r, start.elapsed().as_secs_f64() * 1e6)
    }
}

/// The device the VM pages through: forwards to the pager and times every
/// `page_in`/`page_out` at the [`PagingDevice`] boundary.
pub struct Boundary<D> {
    pub inner: D,
    traced: bool,
    req: u64,
    pub pagein_us: Vec<f64>,
    pub pageout_us: Vec<f64>,
    pub failed: u64,
}

impl<D: PagingDevice> Boundary<D> {
    pub fn new(inner: D, traced: bool) -> Self {
        Boundary {
            inner,
            traced,
            req: 0,
            pagein_us: Vec::new(),
            pageout_us: Vec::new(),
            failed: 0,
        }
    }
}

impl<D: PagingDevice> PagingDevice for Boundary<D> {
    fn page_out(&mut self, id: PageId, page: &Page) -> Result<()> {
        self.req += 1;
        let inner = &mut self.inner;
        let (r, us) = timed(self.traced, "page_out", self.req, || {
            inner.page_out(id, page)
        });
        self.pageout_us.push(us);
        self.failed += u64::from(r.is_err());
        r
    }

    fn page_in(&mut self, id: PageId) -> Result<Page> {
        self.req += 1;
        let inner = &mut self.inner;
        let (r, us) = timed(self.traced, "page_in", self.req, || inner.page_in(id));
        self.pagein_us.push(us);
        self.failed += u64::from(r.is_err());
        r
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        self.inner.free(id)
    }

    fn contains(&self, id: PageId) -> bool {
        self.inner.contains(id)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn stats(&self) -> TransferStats {
        self.inner.stats()
    }
}

/// Registry counters the benchmark reads, by their registry names.
pub const COUNTERS: [&str; 13] = [
    "pool_calls_total",
    "pool_retries_total",
    "pool_deaths_total",
    "pool_wire_transfers_total",
    "pager_prefetch_issued_total",
    "pager_prefetch_hits_total",
    "pager_prefetch_useless_total",
    "engine_groups_sealed_total",
    "engine_gc_passes_total",
    "engine_parity_reconstructions_total",
    "pager_degraded_reads_total",
    "pool_hedged_pageins_total",
    "pool_hedge_wins_total",
];

/// Client-side counters of one pager's metrics registry. A
/// [`ShardedPager`] has one registry per shard and no merged view, so
/// its counts are the sum over shards ([`Counts::sum`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    pub fn of(registry: &MetricsRegistry) -> Counts {
        Counts(
            COUNTERS
                .iter()
                .map(|&name| (name, registry.counter(name).get()))
                .collect(),
        )
    }

    /// Counts summed over several registries (the shards of one pager).
    pub fn sum<'a>(registries: impl IntoIterator<Item = &'a Arc<MetricsRegistry>>) -> Counts {
        let mut total = Counts::default();
        for r in registries {
            for (name, n) in Counts::of(r).0 {
                *total.0.entry(name).or_default() += n;
            }
        }
        total
    }

    /// What was counted after `before` was taken.
    pub fn since(&self, before: &Counts) -> Counts {
        Counts(
            self.0
                .iter()
                .map(|(&name, &n)| (name, n - before.get(name)))
                .collect(),
        )
    }

    /// The count of registry counter `name` (0 when never counted).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Pages rebuilt from parity: parity logging reconstructs one on
    /// every degraded read, basic parity also counts in-place rebuilds.
    pub fn parity_reconstructions(&self) -> u64 {
        self.get("pager_degraded_reads_total") + self.get("engine_parity_reconstructions_total")
    }
}

/// Highest detector suspicion any server has in `pager`'s pool.
pub fn max_suspicion(pager: &Pager) -> f64 {
    let pool = pager.pool();
    pool.server_ids()
        .into_iter()
        .map(|id: ServerId| pool.suspicion(id))
        .fold(0.0, f64::max)
}

/// One server's counters, parsed from its `rmp-server-v1` document.
#[derive(Clone, Debug, Default)]
pub struct ServerSnap {
    pub requests: u64,
    /// Pages stored (a batch frame counts each page).
    pub pageouts: u64,
    /// Pages fetched.
    pub pageins: u64,
    pub worker_threads: u64,
    pub service: HistogramSnapshot,
}

impl ServerSnap {
    fn parse(doc: &str) -> ServerSnap {
        let v = json::parse(doc).unwrap_or(Value::Null);
        let m = |path: &[&str]| {
            let mut full = vec!["metrics"];
            full.extend_from_slice(path);
            v.at(&full).and_then(Value::num).unwrap_or(0.0) as u64
        };
        let mut service = HistogramSnapshot {
            count: m(&["histograms", "server_request_latency_us", "count"]),
            sum_us: m(&["histograms", "server_request_latency_us", "sum_us"]),
            max_us: m(&["histograms", "server_request_latency_us", "max_us"]),
            overflow: m(&["histograms", "server_request_latency_us", "overflow"]),
            ..HistogramSnapshot::default()
        };
        let buckets = v
            .at(&[
                "metrics",
                "histograms",
                "server_request_latency_us",
                "buckets",
            ])
            .and_then(Value::arr)
            .unwrap_or(&[]);
        for pair in buckets {
            let pair = pair.arr().unwrap_or(&[]);
            let (Some(bound), Some(n)) = (
                pair.first().and_then(Value::num),
                pair.get(1).and_then(Value::num),
            ) else {
                continue;
            };
            if let Some(i) = LATENCY_BUCKETS_US.iter().position(|&b| b as f64 == bound) {
                service.buckets[i] = n as u64;
            }
        }
        ServerSnap {
            requests: m(&["counters", "server_requests_total"]),
            pageouts: m(&["counters", "server_pageouts_total"]),
            pageins: m(&["counters", "server_pageins_total"]),
            worker_threads: m(&["gauges", "server_worker_threads"]),
            service,
        }
    }
}

/// What the servers did between two snapshots, summed over servers.
#[derive(Clone, Debug, Default)]
pub struct ServerDelta {
    pub requests: u64,
    pub pageouts: u64,
    pub pageins: u64,
    /// Service-time histogram of the interval, all servers pooled.
    pub service: HistogramSnapshot,
    /// Largest per-server service time of the interval, µs.
    pub max_busy_us: u64,
    pub max_worker_threads: u64,
}

impl ServerDelta {
    pub fn between(before: &[ServerSnap], after: &[ServerSnap]) -> ServerDelta {
        let mut d = ServerDelta::default();
        for (b, a) in before.iter().zip(after) {
            d.requests += a.requests - b.requests;
            d.pageouts += a.pageouts - b.pageouts;
            d.pageins += a.pageins - b.pageins;
            let busy = a.service.sum_us - b.service.sum_us;
            d.max_busy_us = d.max_busy_us.max(busy);
            d.max_worker_threads = d.max_worker_threads.max(a.worker_threads);
            d.service.count += a.service.count - b.service.count;
            d.service.sum_us += busy;
            d.service.overflow += a.service.overflow - b.service.overflow;
            d.service.max_us = d.service.max_us.max(a.service.max_us);
            for (i, slot) in d.service.buckets.iter_mut().enumerate() {
                *slot += a.service.buckets[i] - b.service.buckets[i];
            }
        }
        d
    }
}

/// Exact counts a traced unit must reproduce from its untraced twin.
pub type Exact = BTreeMap<&'static str, u64>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_registries_sum_counter_by_counter() {
        let shards: Vec<Arc<MetricsRegistry>> =
            (0..3).map(|_| Arc::new(MetricsRegistry::new())).collect();
        for (i, r) in shards.iter().enumerate() {
            r.counter("pool_calls_total").add(10 * (i as u64 + 1));
            r.counter("pager_prefetch_hits_total").add(i as u64);
        }
        shards[2].counter("pager_degraded_reads_total").add(4);
        let total = Counts::sum(&shards);
        assert_eq!(total.get("pool_calls_total"), 60);
        assert_eq!(total.get("pager_prefetch_hits_total"), 3);
        assert_eq!(total.parity_reconstructions(), 4);
        assert_eq!(total.get("pool_retries_total"), 0);
        assert_eq!(Counts::sum(&[]).get("pool_calls_total"), 0);

        let before = total.clone();
        shards[0].counter("pool_calls_total").add(5);
        let delta = Counts::sum(&shards).since(&before);
        assert_eq!(delta.get("pool_calls_total"), 5);
        assert_eq!(delta.get("pager_prefetch_hits_total"), 0);
    }

    #[test]
    fn server_deltas_pool_histograms_across_servers() {
        let doc = |requests: u64, b100: u64, b200: u64, sum: u64| {
            format!(
                "{{\"schema\": \"rmp-server-v1\", \"metrics\": {{\"counters\": \
                 {{\"server_requests_total\": {requests}, \"server_pageouts_total\": 1, \
                 \"server_pageins_total\": 2}}, \"gauges\": {{\"server_worker_threads\": 3}}, \
                 \"histograms\": {{\"server_request_latency_us\": {{\"count\": {}, \
                 \"sum_us\": {sum}, \"max_us\": 150, \"buckets\": [[100, {b100}], [200, {b200}]], \
                 \"overflow\": 0}}}}}}}}",
                b100 + b200
            )
        };
        let before = [
            ServerSnap::parse(&doc(5, 1, 0, 50)),
            ServerSnap::parse(&doc(0, 0, 0, 0)),
        ];
        let after = [
            ServerSnap::parse(&doc(15, 5, 1, 650)),
            ServerSnap::parse(&doc(4, 2, 2, 500)),
        ];
        let d = ServerDelta::between(&before, &after);
        assert_eq!(d.requests, 14);
        assert_eq!(d.service.count, 9);
        assert_eq!(d.service.sum_us, 1100);
        assert_eq!(d.max_busy_us, 600);
        assert_eq!(d.max_worker_threads, 3);
        let i100 = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| b == 100)
            .expect("bucket");
        assert_eq!(d.service.buckets[i100], 6);
    }

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = Rng::new(7).permutation(100);
        assert_eq!(a, Rng::new(7).permutation(100));
        assert_ne!(a, Rng::new(8).permutation(100));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
