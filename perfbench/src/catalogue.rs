//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! declares the same names; a test keeps the two in step.

/// End-to-end metrics: what a user of the pager sees. Every workload
/// reports each of them, and none is ever 0.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "ops/s"),
    ("pagein_p50_us", "us"),
    ("pagein_p99_us", "us"),
    ("pageout_p50_us", "us"),
    ("cpu_ms_per_kop", "ms/kop"),
    ("peak_rss_mb", "MB"),
    ("remote_pages_per_page", "pages/page"),
];

/// Metrics of one layer, taken from the traced units, plus the
/// end-to-end figures that only some workloads have or that are 0 when
/// all is well (degraded reads, recovery, failures), and the pageout
/// tail, which a noisy host moves by more than any bound allows (see the
/// README). A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("pageout_p99_us", "us"),
    ("degraded_pagein_p50_us", "us"),
    ("degraded_pagein_p99_us", "us"),
    ("recovery_s", "s"),
    ("failed_ops_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("vm.faults", "count"),
    ("vm.hit_ratio", "ratio"),
    ("vm.self_s", "s"),
    ("sharded.lock_wait_us.p50", "us"),
    ("sharded.lock_wait_us.p99", "us"),
    ("sharded.lock_wait_s", "s"),
    ("pager.self_us.p50", "us"),
    ("pager.self_s", "s"),
    ("engine.frames_per_pageout", "frames/op"),
    ("engine.frames_per_pagein", "frames/op"),
    ("engine.groups_sealed", "count"),
    ("engine.gc_passes", "count"),
    ("engine.parity_reconstructions", "count"),
    ("prefetch.issued", "count"),
    ("prefetch.hits", "count"),
    ("prefetch.useless", "count"),
    ("prefetch.hit_ratio", "ratio"),
    ("detector.hedged_pageins", "count"),
    ("detector.hedge_win_ratio", "ratio"),
    ("detector.max_suspicion", "score"),
    ("pool.calls", "count"),
    ("pool.retries", "count"),
    ("pool.deaths", "count"),
    ("pool.retry_ratio", "ratio"),
    ("reactor.call_us.p50", "us"),
    ("reactor.call_us.p99", "us"),
    ("reactor.calls", "count"),
    ("reactor.busy_s", "s"),
    ("reactor.window_stalls", "count"),
    ("reactor.late_replies", "count"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("server.service_us.mean", "us"),
    ("server.service_us.p99", "us"),
    ("server.requests", "count"),
    ("server.busy_fraction", "ratio"),
    ("server.worker_threads", "count"),
    ("recovery.pages_rebuilt", "count"),
    ("recovery.transfers", "count"),
    ("recovery.pages_per_s", "1/s"),
    ("recovery.degraded_frames_per_read", "frames/op"),
    ("proc.threads", "count"),
    ("proc.sockets", "count"),
    ("proc.ctx_switches_per_kop", "1/kop"),
    ("proc.allocs_per_op", "1/op"),
    ("proc.alloc_bytes_per_op", "B/op"),
];

/// The unit of metric `name`, from either list.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
        doc.at(&[list])
            .and_then(Value::arr)
            .expect("list present")
            .iter()
            .map(|m| {
                let field = |k: &str| match m.at(&[k]) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{list} entry has no string {k}: {other:?}"),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
    }
}
