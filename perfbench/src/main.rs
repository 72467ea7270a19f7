//! `perfbench` — the pager's end-to-end benchmark on loopback sockets.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gauss-plog|mix-sharded|crash-plog> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! After one warm-up unit, repeats the workload's unit of fixed work until
//! `--seconds` have passed, checks every output, prints each metric by
//! name and unit, and ends with one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero
//! when any correctness check fails. See `perfbench/README.md`.

mod catalogue;
mod json;
mod process;
mod rig;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rmp::proto::{FrameHeader, Message};
use rmp::types::{Page, StoreKey};

use catalogue::{unit_of, END_TO_END, PER_LAYER};
use stats::{interquartile_mean, median, ratio};
use workloads::{median_and_tail, Fallible, Unit, Workload};

#[global_allocator]
static ALLOC: process::CountingAlloc = process::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <gauss-plog|mix-sharded|crash-plog> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs a warm-up unit, then units until `--seconds` have passed (at
/// least one; with tracing, untraced and traced units alternate so each
/// traced unit has an untraced twin), then reports. Returns whether every
/// check passed.
///
/// The warm-up unit is checked like any other but timed apart: it pays
/// the process's cold start (fresh heap pages, first thread spawns) that a
/// pager in steady state does not. The peak memory of the process after it
/// is the footprint of one unit's work; later units only add heap
/// fragmentation to it.
fn run(args: &Args) -> Fallible<bool> {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let warmup = args.workload.unit(args.seed, false)?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.is_empty()
        || (args.trace && traced.len() < plain.len())
        || started.elapsed() < budget
    {
        if args.trace && traced.len() < plain.len() {
            traced.push(args.workload.unit(args.seed, true)?);
        } else {
            plain.push(args.workload.unit(args.seed, false)?);
        }
    }
    let all = || std::iter::once(&warmup).chain(&plain).chain(&traced);
    let mut violations: Vec<String> = all().flat_map(|u| u.violations.iter().cloned()).collect();
    for (i, (p, t)) in plain.iter().zip(&traced).enumerate() {
        violations.extend(integrity(args.workload, i, p, t));
    }
    let attempted: u64 = all().map(|u| u.attempted).sum();
    let failed: u64 = all().map(|u| u.failed).sum();
    if failed > 0 {
        violations.push(format!("{failed} of {attempted} operations failed"));
    }

    println!(
        "perfbench {} seed={} units={} traced_units={} (after one warm-up unit) wall_s={:.1}",
        args.workload.name(),
        args.seed,
        plain.len(),
        traced.len(),
        started.elapsed().as_secs_f64()
    );
    for (i, u) in all().enumerate() {
        let (in50, in99) = median_and_tail(u.pagein_us.clone());
        let (out50, out99) = median_and_tail(u.pageout_us.clone());
        println!(
            "  unit {i:>2}{} traced={} setup_s={:.4} run_s={:.4} ops={} failed={} \
             pagein_us={in50:.1}/{in99:.1} pageout_us={out50:.1}/{out99:.1} peak_rss_mb={:.1}",
            if i == 0 { " (warm-up)" } else { "" },
            u.traced,
            u.setup_s,
            u.run_s,
            u.ops,
            u.failed,
            u.peak_rss_mb
        );
    }
    let mut e2e = end_to_end(&plain);
    e2e.insert("peak_rss_mb", warmup.peak_rss_mb);
    let mut layers = crash_and_failures(&plain);
    // Measured with the end-to-end figures, reported with the layers.
    layers.extend(e2e.remove_entry("pageout_p99_us"));
    layers.insert("failed_ops_ratio", ratio(failed as f64, attempted as f64));
    if args.trace {
        layers.extend(per_layer(&plain, &traced));
        if let Some(last) = traced.last() {
            write_spans(args, last);
        }
    }
    print_metrics("end-to-end", &e2e);
    print_metrics(
        if args.trace {
            "per-layer (traced units), pageout tail and crash/failure figures"
        } else {
            "pageout tail and crash/failure figures"
        },
        &layers,
    );
    for v in &violations {
        println!("CHECK FAILED: {v}");
        eprintln!("perfbench: check failed: {v}");
    }

    let reported = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(n, _)| (n, layers.get(n).copied().unwrap_or(0.0)))
            .collect::<Vec<_>>()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, _)| (n, e2e.get(n).copied().unwrap_or(0.0)))
            .collect()
    };
    let correct = violations.is_empty();
    println!("{}", result_json(correct, attempted, failed, &reported));
    std::io::stdout().flush()?;
    Ok(correct)
}

/// Counts the pager itself makes timing-dependent: it keeps at most one
/// prefetch batch per server in flight and harvests only batches whose
/// replies have arrived, so two untraced units of one seed already differ
/// by a few prefetches and the frames they cost.
const TIMING_DEPENDENT: [&str; 6] = [
    "pager_prefetch_issued_total",
    "pager_prefetch_hits_total",
    "pool_calls_total",
    "pool_wire_transfers_total",
    "server.requests",
    "server.pageins",
];

/// How far a timing-dependent count may move between a traced unit and its
/// untraced twin while prefetches are in play.
const TIMING_TOLERANCE: f64 = 0.01;

/// A traced unit must not have changed the path its untraced twin took.
/// On single-threaded workloads every count must repeat exactly, except
/// that while the prefetcher is active its timing-dependent counts may
/// move by [`TIMING_TOLERANCE`]; on mix-sharded the op totals must match.
fn integrity(workload: Workload, i: usize, plain: &Unit, traced: &Unit) -> Vec<String> {
    let keys: Vec<&str> = if workload.single_threaded() {
        plain.exact.keys().copied().collect()
    } else {
        vec!["ops"]
    };
    let prefetching = plain.exact.get("pager_prefetch_issued_total") > Some(&0);
    keys.into_iter()
        .filter_map(|k| {
            let (a, b) = (plain.exact.get(k), traced.exact.get(k));
            let close = match (a, b) {
                (Some(&a), Some(&b)) if prefetching && TIMING_DEPENDENT.contains(&k) => {
                    a.abs_diff(b) as f64 <= TIMING_TOLERANCE * a.max(b) as f64
                }
                _ => a == b,
            };
            (!close).then(|| format!("traced unit {i} changed {k}: untraced {a:?}, traced {b:?}"))
        })
        .collect()
}

/// Median and tail of one latency series in each unit, then the
/// interquartile mean of each over the units.
fn latency(units: &[Unit], pick: impl Fn(&Unit) -> &Vec<f64>) -> (f64, f64) {
    let (p50, tail): (Vec<f64>, Vec<f64>) = units
        .iter()
        .filter(|u| !pick(u).is_empty())
        .map(|u| median_and_tail(pick(u).clone()))
        .unzip();
    (interquartile_mean(&p50), interquartile_mean(&tail))
}

/// End-to-end metrics of the untraced units, all but the peak memory: the
/// interquartile mean over units of each unit's figure, except `setup_s`,
/// the median of the units' set-ups. On a 2-core host a unit's figures
/// are not unimodal: its fresh server and driver threads land on the
/// cores one way or another and keep that placement for the unit's life,
/// so a loopback round trip takes ~25 µs in one unit and ~50 µs in the
/// next. A median of units jumps between such modes; a mean follows their
/// mix but is dragged by the odd unit a host stall hits (one unit's p99
/// of 3 ms). The interquartile mean does neither.
fn end_to_end(plain: &[Unit]) -> BTreeMap<&'static str, f64> {
    let per_unit =
        |f: &dyn Fn(&Unit) -> f64| interquartile_mean(&plain.iter().map(f).collect::<Vec<_>>());
    let (pagein_p50, pagein_tail) = latency(plain, |u| &u.pagein_us);
    let (pageout_p50, pageout_tail) = latency(plain, |u| &u.pageout_us);
    BTreeMap::from([
        (
            "setup_s",
            median(&plain.iter().map(|u| u.setup_s).collect::<Vec<_>>()),
        ),
        ("run_s", per_unit(&|u| u.run_s)),
        ("ops_per_s", per_unit(&|u| ratio(u.ops as f64, u.run_s))),
        ("pagein_p50_us", pagein_p50),
        ("pagein_p99_us", pagein_tail),
        ("pageout_p50_us", pageout_p50),
        ("pageout_p99_us", pageout_tail),
        ("cpu_ms_per_kop", per_unit(&|u| u.cpu_ms_per_kop)),
        (
            "remote_pages_per_page",
            per_unit(&|u| u.remote_pages_per_page),
        ),
    ])
}

/// Figures only crash-plog has (0 elsewhere). A unit makes 200 degraded
/// reads, so their percentiles pool the samples of every unit of the run
/// to reach the 1000 a p99 needs; the slow ones are retry backoff sleeps,
/// which host noise barely moves.
fn crash_and_failures(plain: &[Unit]) -> BTreeMap<&'static str, f64> {
    let degraded: Vec<f64> = plain
        .iter()
        .flat_map(|u| u.degraded_us.iter().copied())
        .collect();
    let (p50, tail) = median_and_tail(degraded);
    let recovery: Vec<f64> = plain.iter().filter_map(|u| u.recovery_s).collect();
    BTreeMap::from([
        ("degraded_pagein_p50_us", p50),
        ("degraded_pagein_p99_us", tail),
        ("recovery_s", median(&recovery)),
    ])
}

/// Per-layer metrics: the median over traced units of each, the tracing
/// overhead, and the wire codec's cost.
fn per_layer(plain: &[Unit], traced: &[Unit]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for &(name, _) in PER_LAYER.iter() {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|u| u.layers.get(name).copied())
            .collect();
        if !values.is_empty() {
            out.insert(name, median(&values));
        }
    }
    let run_s = |units: &[Unit]| median(&units.iter().map(|u| u.run_s).collect::<Vec<_>>());
    out.insert("trace.overhead_ratio", ratio(run_s(traced), run_s(plain)));
    let (encode_us, decode_us) = proto_costs();
    out.insert("proto.encode_us", encode_us);
    out.insert("proto.decode_us", decode_us);
    out
}

/// Median per-frame cost, µs, of encoding an 8 KB `PageOut` frame and of
/// decoding an 8 KB `PageInReply` frame.
fn proto_costs() -> (f64, f64) {
    const BATCHES: usize = 21;
    const PER_BATCH: usize = 200;
    let page = Page::deterministic(1);
    let out = Message::PageOut {
        id: StoreKey(1),
        checksum: page.checksum(),
        page: page.clone(),
    };
    let reply = Message::PageInReply {
        id: StoreKey(1),
        checksum: page.checksum(),
        page,
    }
    .encode();
    let time = |f: &dyn Fn()| {
        let batches: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..PER_BATCH {
                    f();
                }
                start.elapsed().as_secs_f64() * 1e6 / PER_BATCH as f64
            })
            .collect();
        median(&batches)
    };
    let encode = time(&|| {
        black_box(black_box(&out).encode());
    });
    let decode = time(&|| {
        let mut frame = black_box(&reply).clone();
        let header = FrameHeader::decode(&mut frame).expect("well-formed header");
        black_box(Message::decode(header.opcode, frame).expect("well-formed frame"));
    });
    (encode, decode)
}

fn print_metrics(title: &str, metrics: &BTreeMap<&'static str, f64>) {
    println!("{title}:");
    for (name, value) in metrics {
        println!("  {name:<36} {value:>16.4} {}", unit_of(name));
    }
}

/// Writes the last traced unit's spans, one JSON object per line, next to
/// the benchmark's sources.
fn write_spans(args: &Args, unit: &Unit) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut text = String::with_capacity(unit.spans.len() * 160);
    for s in &unit.spans {
        let _ = writeln!(text, "{}", s.to_json());
    }
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("spans: {} written to {}", unit.spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, v)| {
            // JSON has no NaN or infinity; a metric that cannot be formed
            // reads 0, the value of a layer that did no work.
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = args(&[
            "--workload",
            "crash-plog",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::CrashPlog);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "gauss-plog", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let line = result_json(true, 10, 0, &[("run_s", 1.25), ("ops_per_s", f64::NAN)]);
        let v = json::parse(&line).expect("valid JSON");
        assert_eq!(v.at(&["correct"]), Some(&json::Value::Bool(true)));
        assert_eq!(v.at(&["attempted"]).and_then(json::Value::num), Some(10.0));
        assert_eq!(
            v.at(&["metrics", "run_s", "value"])
                .and_then(json::Value::num),
            Some(1.25)
        );
        assert_eq!(
            v.at(&["metrics", "run_s", "unit"]),
            Some(&json::Value::Str("s".into()))
        );
        assert_eq!(
            v.at(&["metrics", "ops_per_s", "value"])
                .and_then(json::Value::num),
            Some(0.0)
        );
    }
}
