//! End-to-end and per-layer benchmark of the SpeakQL pipeline and server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload service-zipf --seed 1 --seconds 6 --trace 0
//! ```
//!
//! A run deploys the paper-scale index behind a loopback server (several
//! times, to time set-up), generates its inputs from `--seed`, measures the
//! workload for `--seconds`, checks every answer, and prints one JSON
//! object as its last line of output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! Sample counts, supported percentiles and the spans of a traced run are
//! written under `.bench_out/`.

mod client;
mod deploy;
mod inputs;
mod pipeline;
mod stats;
mod trace;
mod workloads;

use speakql_core::{CounterId, PipelineReport, SpanId};
use stats::{median, ratio, Summary};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Measured, Run, Workload};

/// Deployments timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Where the run's details and spans are written, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Set-up timings of one deployment.
struct Setup {
    total: Duration,
    build: Duration,
    register: Duration,
}

type Metric = (&'static str, f64, &'static str);

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn stage_mean_us(report: &PipelineReport, id: SpanId) -> f64 {
    report
        .stage(id)
        .map_or(0.0, |s| ratio(s.sum_micros as f64, s.count as f64))
}

fn end_to_end(m: &Measured, setups: &[Setup]) -> Vec<Metric> {
    let closed = Summary::of(&m.closed_ms);
    let open = Summary::of(&m.open_ms);
    let swaps: Vec<f64> = m.swaps.iter().map(|s| ms(s.total)).collect();
    let setup: Vec<f64> = setups.iter().map(|s| s.total.as_secs_f64()).collect();
    vec![
        ("setup_s", median(&setup), "s"),
        ("peak_rss_mb", m.peak_rss_mb, "MiB"),
        (
            "throughput_qps",
            ratio(closed.count as f64, m.closed_elapsed.as_secs_f64()),
            "1/s",
        ),
        ("latency_p50_ms", closed.p50, "ms"),
        ("latency_p90_ms", closed.p90, "ms"),
        ("open_p50_ms", open.p50, "ms"),
        ("open_p90_ms", open.p90, "ms"),
        ("top1_kpr", m.top1.kpr, "ratio"),
        ("top1_lpr", m.top1.lpr, "ratio"),
        ("top1_wrr", m.top1.wrr, "ratio"),
        ("swap_p50_ms", median(&swaps), "ms"),
    ]
}

fn per_layer(m: &Measured, setups: &[Setup]) -> Vec<Metric> {
    let t = &m.tracer;
    let w = &m.layers.work;
    let search = Summary::of(&t.durations_us("index.search"));
    let fill = Summary::of(&t.per_request_us("literal.fill"));
    let tokenize = mean(&t.per_request_us("grammar.tokenize"));
    let transcribe = mean(&t.durations_us("engine.transcribe"));
    let rtt = mean(&t.durations_us("protocol.rtt"));
    let handle = stage_mean_us(&m.server, SpanId::ServerHandle);
    let hits = m.server.counter(CounterId::CacheSkeletonHits) as f64;
    let misses = m.server.counter(CounterId::CacheSkeletonMisses) as f64;
    let requests = w.requests as f64;
    let swaps = m.swaps.len() as f64;
    let per_swap = |f: &dyn Fn(&deploy::Swap) -> f64| ratio(m.swaps.iter().map(f).sum(), swaps);
    let traced_qps = ratio(m.closed_ms.len() as f64, m.closed_elapsed.as_secs_f64());
    let build: Vec<f64> = setups.iter().map(|s| s.build.as_secs_f64()).collect();
    let register: Vec<f64> = setups.iter().map(|s| ms(s.register)).collect();
    vec![
        ("grammar.tokenize_us", tokenize, "us"),
        ("index.search_us", search.mean, "us"),
        ("index.search_p99_us", search.p99, "us"),
        (
            "index.nodes_visited",
            ratio(w.nodes_visited as f64, w.requests as f64),
            "count",
        ),
        (
            "editdist.cells_evaluated",
            ratio(w.cells_evaluated as f64, w.requests as f64),
            "count",
        ),
        (
            "index.tries_pruned_ratio",
            ratio(
                w.tries_pruned as f64,
                (w.tries_pruned + w.tries_searched) as f64,
            ),
            "ratio",
        ),
        ("cache.probe_us", mean(&t.durations_us("cache.probe")), "us"),
        ("cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        (
            "cache.evictions",
            m.server.counter(CounterId::CacheSkeletonEvictions) as f64,
            "count",
        ),
        ("literal.fill_us", fill.mean, "us"),
        ("literal.fill_p99_us", fill.p99, "us"),
        (
            "literal.vote_comparisons",
            ratio(
                m.layers.counter(CounterId::VoteComparisons) as f64,
                requests,
            ),
            "count",
        ),
        (
            "literal.strings_enumerated",
            ratio(
                m.layers.counter(CounterId::VoteEnumerations) as f64,
                requests,
            ),
            "count",
        ),
        (
            "literal.memo_hit_ratio",
            ratio(
                m.layers.counter(CounterId::LiteralFillMemoHits) as f64,
                w.fills as f64,
            ),
            "ratio",
        ),
        ("engine.transcribe_us", transcribe, "us"),
        (
            "engine.residual_us",
            transcribe - tokenize - search.mean - fill.mean,
            "us",
        ),
        (
            "protocol.client_send_us",
            mean(&t.durations_us("protocol.client_send")),
            "us",
        ),
        ("protocol.rtt_us", rtt, "us"),
        ("server.wire_residual_us", rtt - handle, "us"),
        ("server.handle_us", handle, "us"),
        (
            "server.queue_wait_us",
            stage_mean_us(&m.server, SpanId::ServerQueueWait),
            "us",
        ),
        (
            "server.shed",
            m.server.counter(CounterId::ErrorsOverloaded) as f64,
            "count",
        ),
        (
            "server.retries",
            m.server.counter(CounterId::ServerRetries) as f64,
            "count",
        ),
        (
            "registry.lookup_us",
            mean(&t.durations_us("registry.lookup")),
            "us",
        ),
        ("registry.swap_ms", per_swap(&|s| ms(s.register)), "ms"),
        ("delta.apply_ms", per_swap(&|s| ms(s.apply)), "ms"),
        (
            "delta.segments_rebuilt",
            per_swap(&|s| s.stats.segments_rebuilt as f64),
            "count",
        ),
        (
            "delta.segments_reused",
            per_swap(&|s| s.stats.segments_reused as f64),
            "count",
        ),
        ("setup.index_build_s", median(&build), "s"),
        ("setup.register_ms", median(&register), "ms"),
        ("client.gen_lag_ms", mean(&m.gen_lag_ms), "ms"),
        (
            "trace.overhead_ratio",
            ratio(traced_qps, m.untraced_qps),
            "ratio",
        ),
        (
            "trace.unattributed_ratio",
            t.unattributed_ratio(m.root),
            "ratio",
        ),
        ("bench.inputs_s", m.inputs.as_secs_f64(), "s"),
    ]
}

fn summary_json(out: &mut String, name: &str, unit: &str, s: &Summary) {
    let _ = write!(
        out,
        "\"{name}\":{{\"unit\":\"{unit}\",\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"max\":{},\"supported_percentile\":{}}}",
        s.count, s.mean, s.p50, s.p90, s.p95, s.p99, s.max, s.supported_pct
    );
}

/// Sample counts and supported percentiles of every timing, the input
/// fingerprint and the failure notes, for the record.
fn details(a: &Args, m: &Measured) -> String {
    let t = &m.tracer;
    let swaps: Vec<f64> = m.swaps.iter().map(|s| ms(s.total)).collect();
    let timings: [(&str, &str, Vec<f64>); 8] = [
        ("closed_latency", "ms", m.closed_ms.clone()),
        ("open_latency", "ms", m.open_ms.clone()),
        ("generator_lag", "ms", m.gen_lag_ms.clone()),
        ("swap", "ms", swaps),
        ("index.search", "us", t.durations_us("index.search")),
        (
            "literal.fill_per_request",
            "us",
            t.per_request_us("literal.fill"),
        ),
        (
            "engine.transcribe",
            "us",
            t.durations_us("engine.transcribe"),
        ),
        ("protocol.rtt", "us", t.durations_us("protocol.rtt")),
    ];
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"inputs_fingerprint\":\"{:016x}\",\"inputs_s\":{},\"attempted\":{},\"failed\":{},\"failures\":{:?},\"timings\":{{",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace,
        m.fingerprint,
        m.inputs.as_secs_f64(),
        m.tally.attempted,
        m.tally.failed,
        m.tally.notes,
    );
    for (k, (name, unit, samples)) in timings.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        summary_json(&mut out, name, unit, &Summary::of(samples));
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: speakql-perfbench --workload <dictate-unique|service-zipf|service-churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let dbs = inputs::databases();

    // Set-up: several full deployments, keeping the last one.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut live: Option<deploy::Deployment> = None;
    for _ in 0..reps {
        if let Some(old) = live.take() {
            old.server.shutdown();
        }
        match deploy::deploy(&dbs, args.trace) {
            Ok(d) => {
                setups.push(Setup {
                    total: d.total,
                    build: d.build,
                    register: d.register,
                });
                live = Some(d);
            }
            Err(e) => {
                eprintln!("error: deployment failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let dep = live.expect("at least one deployment");

    let m = workloads::run(
        args.workload,
        &Run {
            dep: &dep,
            dbs: &dbs,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            origin,
        },
    );
    dep.server.shutdown();

    let metrics = if args.trace {
        per_layer(&m, &setups)
    } else {
        end_to_end(&m, &setups)
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    let dir = PathBuf::from(OUT_DIR);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.json")), details(&args, &m)))
        .and_then(|_| {
            if args.trace {
                m.tracer
                    .write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("error: writing {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }

    for note in &m.tally.notes {
        eprintln!("failure: {note}");
    }
    if m.tally.attempted == 0 {
        eprintln!("error: no request was attempted");
        return ExitCode::FAILURE;
    }
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        m.tally.failed == 0,
        m.tally.attempted,
        m.tally.failed
    );
    for (k, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            eprintln!("error: metric {name} is not a number");
            return ExitCode::FAILURE;
        }
        eprintln!("{name:>28} {value:>14.4} {unit}");
        if k > 0 {
            line.push(',');
        }
        let _ = write!(line, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}
