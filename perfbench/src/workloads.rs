//! The three workloads. Each runs a closed loop and an open loop against
//! the same deployment, checks every answer, and returns the raw samples;
//! `main` turns them into the reported metrics.
//!
//! - `dictate-unique`: one caller on the library path, every transcript
//!   distinct, so search and literal voting do nearly all the work.
//! - `service-zipf`: eight tenants over TCP with Zipf-skewed tenant and
//!   transcript draws from a small pool, so the skeleton cache answers most
//!   searches and the wire path, admission, registry and literal voting
//!   remain.
//! - `service-churn`: the same traffic on a larger pool while a writer
//!   applies index deltas and hot-swaps the Employees tenants.

use crate::client::Client;
use crate::deploy::{library, tenant, Churn, Deployment, Swap, TENANTS_PER_SCHEMA};
use crate::inputs::{interleaved, Query, Schema, SCHEMAS};
use crate::pipeline::{reference, traced_transcribe, Layers};
use crate::stats::{mix, Zipf};
use crate::trace::Tracer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use speakql_core::{Candidate, PipelineReport, Recorder, SpeakQl};
use speakql_db::Database;
use speakql_grammar::{process_transcript, tokenize_transcript, StructTokId};
use speakql_metrics::{accuracy, mean_report, AccuracyReport};
use speakql_server::{Response, TenantRegistry};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Open-loop offered rate of `dictate-unique`, requests per second, and
/// the threads that serve it.
pub const DICTATE_RATE: f64 = 300.0;
pub const DICTATE_OPEN_WORKERS: usize = 8;
/// Distinct transcripts generated per schema and measured second for
/// `dictate-unique`; the closed loop wraps around if it runs out.
pub const DICTATE_PER_SCHEMA_PER_S: usize = 300;
/// Closed-loop requests whose answers are recomposed and compared after an
/// untraced `dictate-unique` run (a traced run compares every request).
pub const DICTATE_CHECKED: usize = 100;
/// Top-1 accuracy is scored on this many of the seed's inputs: the first
/// closed-loop inputs on `dictate-unique`, a set generated for scoring on
/// the service workloads.
pub const SCORED: usize = 1000;
/// Requests of the wire probe a traced `dictate-unique` run sends, so the
/// wire-path layers have a reading on that workload too.
pub const WIRE_PROBE: usize = 20;

/// Closed-loop connections of the service workloads (one per core).
pub const SERVICE_CONNECTIONS: usize = 2;
/// `service-zipf`: distinct transcripts per schema and open-loop rate.
pub const ZIPF_POOL: usize = 24;
pub const ZIPF_RATE: f64 = 50.0;
/// `service-churn`: distinct transcripts per schema, open-loop rate, and
/// the interval between the writer's swaps. Swaps start half a slice
/// into the run, so closed-loop and open-loop slices see as many each.
pub const CHURN_POOL: usize = 150;
pub const CHURN_RATE: f64 = 50.0;
pub const CHURN_SWAP_EVERY: Duration = Duration::from_secs(1);
/// Zipf exponent of the tenant and transcript draws.
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Swaps measured after the timed phases of the workloads that do not
/// swap while serving (after one uncounted warm-up swap).
pub const SWAP_PROBES: usize = 3;
/// Length of one measurement slice. An untraced run alternates
/// closed-loop and open-loop slices, so both loops sample the machine
/// across the whole run instead of one half each.
pub const SLICE: Duration = Duration::from_secs(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DictateUnique,
    ServiceZipf,
    ServiceChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "dictate-unique" => Some(Workload::DictateUnique),
            "service-zipf" => Some(Workload::ServiceZipf),
            "service-churn" => Some(Workload::ServiceChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DictateUnique => "dictate-unique",
            Workload::ServiceZipf => "service-zipf",
            Workload::ServiceChurn => "service-churn",
        }
    }
}

/// Attempts and failures (errors, sheds and wrong answers alike).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, note: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 5 {
                self.notes.push(n);
            }
        }
    }
}

/// Everything a run measured.
pub struct Measured {
    pub tally: Tally,
    pub inputs: Duration,
    /// FNV-1a over every generated transcript: equal seeds, equal inputs.
    pub fingerprint: u64,
    pub closed_ms: Vec<f64>,
    pub closed_elapsed: Duration,
    pub open_ms: Vec<f64>,
    pub gen_lag_ms: Vec<f64>,
    pub top1: AccuracyReport,
    pub swaps: Vec<Swap>,
    pub peak_rss_mb: f64,
    // Traced runs only.
    pub tracer: Tracer,
    pub layers: Layers,
    pub untraced_qps: f64,
    /// The server's recorder over the traced wire requests.
    pub server: PipelineReport,
    /// The span whose uncovered share is `trace.unattributed_ratio`.
    pub root: &'static str,
}

/// A measurement window `[from, to)`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub from: Instant,
    pub to: Instant,
}

pub struct Run<'a> {
    pub dep: &'a Deployment,
    pub dbs: &'a [Database; 2],
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub origin: Instant,
}

impl Run<'_> {
    /// The untraced run's slices from `start`: closed-loop windows at even
    /// positions, open-loop windows at odd ones (an even number of slices
    /// of about [`SLICE`] each).
    fn slices(&self, start: Instant) -> (Vec<Window>, Vec<Window>) {
        let pairs = ((self.seconds / SLICE.as_secs_f64() / 2.0).round() as u32).max(1);
        let len = Duration::from_secs_f64(self.seconds / (2 * pairs) as f64);
        let window = |k: u32| Window {
            from: start + len * k,
            to: start + len * (k + 1),
        };
        (
            (0..pairs).map(|k| window(2 * k)).collect(),
            (0..pairs).map(|k| window(2 * k + 1)).collect(),
        )
    }

    /// The traced run's phases from `start`, one after the other: an
    /// untraced closed loop (20%), a traced closed loop (30%), and the open
    /// loop (50%). The two closed-loop throughputs give the tracing
    /// overhead.
    fn traced_phases(&self, start: Instant) -> [Window; 3] {
        let at = |share: f64| start + Duration::from_secs_f64(self.seconds * share);
        [
            Window {
                from: start,
                to: at(0.2),
            },
            Window {
                from: at(0.2),
                to: at(0.5),
            },
            Window {
                from: at(0.5),
                to: at(1.0),
            },
        ]
    }

    fn measured(&self, root: &'static str) -> Measured {
        Measured {
            tally: Tally::default(),
            inputs: Duration::ZERO,
            fingerprint: 0,
            closed_ms: Vec::new(),
            closed_elapsed: Duration::ZERO,
            open_ms: Vec::new(),
            gen_lag_ms: Vec::new(),
            top1: mean_report(&[]),
            swaps: Vec::new(),
            peak_rss_mb: 0.0,
            tracer: Tracer::new(self.origin),
            layers: Layers::new(),
            untraced_qps: 0.0,
            server: Recorder::disabled().report(),
            root,
        }
    }

    fn registry(&self) -> &TenantRegistry {
        self.dep.server.registry()
    }

    /// Swaps of the Employees tenants on an otherwise idle deployment,
    /// after one uncounted swap: the first delta on a freshly built index
    /// also flattens its arena, a one-time cost the later swaps do not pay.
    fn swap_probe(&self, m: &mut Measured) {
        let mut churn = Churn::new(&self.dep.index);
        churn.swap(self.registry(), &self.dbs[0], Schema::Employees);
        for _ in 0..SWAP_PROBES {
            let swap = churn.swap(self.registry(), &self.dbs[0], Schema::Employees);
            record_swap(&mut m.tracer, &swap);
            m.swaps.push(swap);
        }
    }
}

pub fn run(workload: Workload, r: &Run) -> Measured {
    match workload {
        Workload::DictateUnique => dictate_unique(r),
        Workload::ServiceZipf => service(r, false),
        Workload::ServiceChurn => service(r, true),
    }
}

fn fnv(texts: impl IntoIterator<Item = impl AsRef<str>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in texts {
        for b in t.as_ref().bytes().chain([0]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn record_swap(tracer: &mut Tracer, swap: &Swap) {
    tracer.record("swap", None, 0, swap.started, swap.started + swap.total);
}

/// Mean top-1 accuracy of each answer against its query's gold SQL.
fn score<'a>(pairs: impl IntoIterator<Item = (&'a Query, &'a str)>) -> AccuracyReport {
    let reports: Vec<AccuracyReport> = pairs
        .into_iter()
        .map(|(q, sql)| accuracy(&q.gold_sql, sql))
        .collect();
    mean_report(&reports)
}

/// VmHWM of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// dictate-unique

fn dictate_unique(r: &Run) -> Measured {
    let mut m = r.measured("recompose");
    let t0 = Instant::now();
    let per_schema = (DICTATE_PER_SCHEMA_PER_S as f64 * r.seconds).ceil() as usize;
    let queries = interleaved(r.dbs, per_schema, r.seed);
    // The closed loop walks the first three fifths of the inputs and the
    // open loop the rest; each wraps around on its own if it runs out.
    let (closed_q, open_q) = queries.split_at(queries.len() * 3 / 5);
    let libs = SCHEMAS.map(|s| library(&r.dbs[s.index()], &r.dep.index));
    m.inputs = t0.elapsed();
    m.fingerprint = fnv(queries.iter().map(|q| &q.transcript));

    let mut dictation = Dictation {
        libs: &libs,
        closed_q,
        open_q,
        next_closed: 0,
        next_open: 0,
        kept: Vec::new(),
    };
    if r.trace {
        let [untraced, traced, open] = r.traced_phases(Instant::now());
        let elapsed = dictation.closed(untraced, &mut m);
        m.untraced_qps = m.closed_ms.len() as f64 / elapsed.as_secs_f64();
        m.closed_ms.clear();
        m.closed_elapsed = dictation.closed_traced(traced, r.registry(), &mut m);
        dictation.open(open, &mut m);
    } else {
        let (closed, open) = r.slices(Instant::now());
        for (c, o) in closed.into_iter().zip(open) {
            let elapsed = dictation.closed(c, &mut m);
            m.closed_elapsed += elapsed;
            dictation.open(o, &mut m);
        }
    }
    m.peak_rss_mb = peak_rss_mb();

    if r.trace {
        wire_probe(r, &mut m, closed_q, &libs);
    } else {
        // The first answers must equal the recomposed pipeline's (a traced
        // run compared every request already).
        let mut scratch = Tracer::new(r.origin);
        for (q, candidates) in closed_q.iter().zip(&dictation.kept).take(DICTATE_CHECKED) {
            let root = scratch.open("check", None, 0, Instant::now());
            let recomposed = m.layers.recompose(
                &libs[q.schema.index()],
                &q.transcript,
                &mut scratch,
                root,
                0,
            );
            if recomposed != *candidates {
                m.tally.fail(format!(
                    "answer differs from the recomposed pipeline on {:?}",
                    q.transcript
                ));
            }
        }
        // Score a fixed prefix of the closed-loop inputs, finishing it
        // untimed if the closed loop did not get that far.
        let scored: Vec<String> = closed_q
            .iter()
            .take(SCORED)
            .enumerate()
            .map(|(i, q)| match dictation.kept.get(i) {
                Some(c) => c.first().map(|c| c.sql.clone()).unwrap_or_default(),
                None => libs[q.schema.index()]
                    .transcribe(&q.transcript)
                    .map(|t| t.best_sql().unwrap_or_default().to_string())
                    .unwrap_or_default(),
            })
            .collect();
        m.top1 = score(closed_q.iter().zip(scored.iter().map(String::as_str)));
    }
    r.swap_probe(&mut m);
    m
}

/// The library-path caller of `dictate-unique` and its input cursors.
struct Dictation<'a> {
    libs: &'a [SpeakQl; 2],
    closed_q: &'a [Query],
    open_q: &'a [Query],
    next_closed: usize,
    next_open: usize,
    /// Candidates of the leading closed-loop requests, in input order.
    kept: Vec<Vec<Candidate>>,
}

impl Dictation<'_> {
    fn engine(&self, q: &Query) -> &SpeakQl {
        &self.libs[q.schema.index()]
    }

    /// Closed loop over `w`: one request after another, each transcript
    /// distinct. Returns the time to the last answer.
    fn closed(&mut self, w: Window, m: &mut Measured) -> Duration {
        sleep_until(w.from);
        let from = Instant::now();
        while Instant::now() < w.to {
            let q = &self.closed_q[self.next_closed % self.closed_q.len()];
            let t = Instant::now();
            match self.engine(q).transcribe(&q.transcript) {
                Ok(out) => {
                    m.closed_ms.push(ms(t.elapsed()));
                    m.tally.ok();
                    if self.kept.len() == self.next_closed && self.kept.len() < SCORED {
                        self.kept.push(out.candidates);
                    }
                }
                Err(e) => m.tally.fail(format!("transcribe failed: {e}")),
            }
            self.next_closed += 1;
        }
        from.elapsed()
    }

    /// The traced closed loop: each request through `SpeakQl::transcribe`
    /// and the recomposed pipeline, plus what it would cost the service's
    /// registry lookup and shared-cache probe.
    fn closed_traced(
        &mut self,
        w: Window,
        registry: &TenantRegistry,
        m: &mut Measured,
    ) -> Duration {
        sleep_until(w.from);
        let from = Instant::now();
        let no_stats = Recorder::disabled();
        while Instant::now() < w.to {
            let q = &self.closed_q[self.next_closed % self.closed_q.len()];
            self.next_closed += 1;
            let req = self.next_closed as u64;
            let start = Instant::now();
            let root = m.tracer.open("library.request", None, req, start);
            let engine = self.engine(q);
            match traced_transcribe(
                &mut m.layers,
                engine,
                &q.transcript,
                &mut m.tracer,
                root,
                req,
            ) {
                Ok(out) => {
                    let t = Instant::now();
                    let served = registry.engine(&tenant(q.schema, 0));
                    let t1 = Instant::now();
                    m.tracer.record("registry.lookup", Some(root), req, t, t1);
                    if let Some(served) = served {
                        registry.shared_cache().get(
                            served.index().generation(),
                            &served.config().search,
                            &out.processed.masked,
                            &no_stats,
                        );
                        m.tracer
                            .record("cache.probe", Some(root), req, t1, Instant::now());
                    }
                    m.closed_ms.push(ms(start.elapsed()));
                    m.tally.ok();
                }
                Err(e) => m.tally.fail(e),
            }
            m.tracer.close(root, Instant::now());
        }
        from.elapsed()
    }

    /// Open loop over `w`: requests fall due at `DICTATE_RATE` whatever
    /// the earlier ones are doing, and each is handled on one of
    /// `DICTATE_OPEN_WORKERS` threads, the way an application serves
    /// independent users from one shared engine. A free thread takes the
    /// next request, sleeps until it is due and runs it, so no dispatcher
    /// thread stands between a due time and the engine. Latency runs from
    /// when each request was due; the generator lag is how late a waiting
    /// thread woke. The window starts once the closed loop's last request
    /// has returned.
    fn open(&mut self, w: Window, m: &mut Measured) {
        let period = Duration::from_secs_f64(1.0 / DICTATE_RATE);
        let from = w.from.max(Instant::now());
        let count = (w.to.saturating_duration_since(from).as_secs_f64() * DICTATE_RATE).ceil();
        let next = AtomicUsize::new(0);
        let (libs, open_q, first) = (self.libs, self.open_q, self.next_open);
        let workers: Vec<(Vec<f64>, Vec<f64>, Tally)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..DICTATE_OPEN_WORKERS)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let (mut lat, mut lags, mut tally) =
                            (Vec::new(), Vec::new(), Tally::default());
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k as f64 >= count {
                                break;
                            }
                            let due = from + period * k as u32;
                            if Instant::now() < due {
                                sleep_until(due);
                                lags.push(ms(Instant::now().duration_since(due)));
                            }
                            let q = &open_q[(first + k) % open_q.len()];
                            match libs[q.schema.index()].transcribe(&q.transcript) {
                                Ok(_) => {
                                    lat.push(ms(due.elapsed()));
                                    tally.ok();
                                }
                                Err(e) => tally.fail(format!("transcribe failed: {e}")),
                            }
                        }
                        (lat, lags, tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("open-loop workers do not panic"))
                .collect()
        });
        self.next_open += count as usize;
        for (lat, lags, tally) in workers {
            m.open_ms.extend(lat);
            m.gen_lag_ms.extend(lags);
            m.tally.merge(tally);
        }
    }
}

/// A short closed loop over TCP on the first transcripts, so a traced
/// library-path run still reads the wire-path layers.
fn wire_probe(r: &Run, m: &mut Measured, queries: &[Query], libs: &[SpeakQl; 2]) {
    let probe: Vec<&Query> = queries.iter().take(WIRE_PROBE).collect();
    let refs: Vec<Response> = probe
        .iter()
        .map(|q| reference(&libs[q.schema.index()].transcribe(&q.transcript)))
        .collect();
    r.registry().recorder().reset();
    let mut client = match Client::connect(r.dep.addr) {
        Ok(c) => c,
        Err(e) => return m.tally.fail(format!("connect failed: {e}")),
    };
    for (k, (q, want)) in probe.iter().zip(&refs).enumerate() {
        let req = (1 << 40) + k as u64;
        let t0 = Instant::now();
        let sent = client.send(&tenant(q.schema, 0), &q.transcript);
        let t1 = Instant::now();
        let got = sent.map_err(|e| e.to_string()).and_then(|_| client.recv());
        let t2 = Instant::now();
        let root = m.tracer.record("protocol.rtt", None, req, t0, t2);
        m.tracer
            .record("protocol.client_send", Some(root), req, t0, t1);
        match got {
            Ok(resp) if resp == *want => m.tally.ok(),
            Ok(_) => m
                .tally
                .fail(format!("wire answer differs on {:?}", q.transcript)),
            Err(e) => return m.tally.fail(e),
        }
    }
    client.finish();
    m.server = r.registry().recorder().report();
}

// ---------------------------------------------------------------------------
// service-zipf and service-churn

/// The request mix: Zipf over tenants, then Zipf over the transcripts of
/// the tenant's schema, with the reference answer of every index version.
struct Traffic {
    tenants: Vec<(Schema, String)>,
    pools: [Vec<Query>; 2],
    masked: [Vec<Vec<StructTokId>>; 2],
    /// `refs[schema][item][version]`: version 0 is the untouched index,
    /// 1 the churn set tombstoned, 2 the set restored.
    refs: [Vec<[Response; 3]>; 2],
    tenant_draw: Zipf,
    item_draw: Zipf,
}

impl Traffic {
    fn draw(&self, rng: &mut ChaCha8Rng) -> (usize, usize) {
        (self.tenant_draw.draw(rng), self.item_draw.draw(rng))
    }

    /// Whether `got` is the answer of an index version that may have
    /// served the request: the swap epochs seen at send and at receipt
    /// bound it, plus the swap that may have been registering meanwhile.
    fn accepts(&self, tenant: usize, item: usize, got: &Response, e0: u64, e1: u64) -> bool {
        let schema = self.tenants[tenant].0;
        let refs = &self.refs[schema.index()][item];
        (e0..=e1 + 1).any(|e| {
            let version = if schema != Schema::Employees || e == 0 {
                0
            } else if e % 2 == 1 {
                1
            } else {
                2
            };
            refs[version] == *got
        })
    }
}

fn service(r: &Run, churn_writer: bool) -> Measured {
    let mut m = r.measured("protocol.rtt");
    let t0 = Instant::now();
    let pool = if churn_writer { CHURN_POOL } else { ZIPF_POOL };
    // One input set is both scored and served: each schema's pool is the
    // head of its share of the scored queries.
    let scored = interleaved(r.dbs, SCORED / 2, r.seed);
    let libs = SCHEMAS.map(|s| library(&r.dbs[s.index()], &r.dep.index));
    let mut pools: [Vec<Query>; 2] = [Vec::new(), Vec::new()];
    let mut refs: [Vec<[Response; 3]>; 2] = [Vec::new(), Vec::new()];
    let mut answers = Vec::with_capacity(scored.len());
    for q in &scored {
        let (s, lib) = (q.schema.index(), &libs[q.schema.index()]);
        let served = pools[s].len() < pool;
        let answer = if r.trace && served {
            // The traced run computes the pool's references through the
            // recomposed pipeline: the engine layers' per-request costs on
            // this pool, every search a cache miss.
            let req = (2 << 40) + (s << 20 | pools[s].len()) as u64;
            let root = m.tracer.open("library.request", None, req, Instant::now());
            let out =
                traced_transcribe(&mut m.layers, lib, &q.transcript, &mut m.tracer, root, req);
            m.tracer.close(root, Instant::now());
            match out {
                Ok(t) => reference(&Ok(t)),
                Err(e) => {
                    m.tally.fail(e);
                    reference(&lib.transcribe(&q.transcript))
                }
            }
        } else {
            reference(&lib.transcribe(&q.transcript))
        };
        if served {
            pools[s].push(q.clone());
            refs[s].push([answer.clone(), answer.clone(), answer.clone()]);
        }
        answers.push(answer);
    }
    m.top1 = score(scored.iter().zip(answers.iter().map(|a| match a {
        Response::Ok { sql } => sql.as_str(),
        Response::Err { .. } => "",
    })));
    let mut churn = Churn::new(&r.dep.index);
    if churn_writer {
        for (v, index) in churn.versions().iter().enumerate() {
            let lib = library(&r.dbs[0], index);
            for (i, q) in pools[0].iter().enumerate() {
                refs[0][i][v + 1] = reference(&lib.transcribe(&q.transcript));
            }
        }
    }
    let masked = SCHEMAS.map(|s| {
        pools[s.index()]
            .iter()
            .map(|q| process_transcript(&tokenize_transcript(&q.transcript)).masked)
            .collect()
    });
    m.fingerprint = fnv(scored.iter().map(|q| &q.transcript));
    let tenants: Vec<(Schema, String)> = (0..TENANTS_PER_SCHEMA)
        .flat_map(|i| SCHEMAS.map(|s| (s, tenant(s, i))))
        .collect();
    let traffic = Traffic {
        tenant_draw: Zipf::new(tenants.len(), ZIPF_EXPONENT),
        item_draw: Zipf::new(pool, ZIPF_EXPONENT),
        tenants,
        pools,
        masked,
        refs,
    };
    m.inputs = t0.elapsed();

    let rate = if churn_writer { CHURN_RATE } else { ZIPF_RATE };
    let epoch = AtomicU64::new(0);
    let registry = r.registry();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(r.seconds);
    let closed_seed = mix(r.seed, 0xC105ED);
    let open_seed = mix(r.seed, 0x09E7);

    std::thread::scope(|scope| {
        let writer = churn_writer.then(|| {
            let (epoch, churn, db) = (&epoch, &mut churn, &r.dbs[0]);
            scope.spawn(move || {
                let mut swaps = Vec::new();
                for k in 0.. {
                    let at = start + SLICE / 2 + CHURN_SWAP_EVERY * k;
                    if at >= end {
                        break;
                    }
                    sleep_until(at);
                    swaps.push(churn.swap(registry, db, Schema::Employees));
                    epoch.fetch_add(1, Ordering::SeqCst);
                }
                swaps
            })
        });

        let (closed, open) = if r.trace {
            let [untraced, traced, open] = r.traced_phases(start);
            let (lat, tally, _, elapsed) =
                wire_closed(r, &traffic, &epoch, &[untraced], closed_seed, None);
            m.tally.merge(tally);
            m.untraced_qps = lat.len() as f64 / elapsed.as_secs_f64();
            registry.recorder().reset();
            let closed = wire_closed(
                r,
                &traffic,
                &epoch,
                &[traced],
                mix(closed_seed, 1),
                Some(registry),
            );
            m.server = registry.recorder().report();
            let open = wire_open(r.dep.addr, &traffic, &epoch, &[open], rate, open_seed);
            (closed, open)
        } else {
            // Both loops at once, each active only in its own slices.
            let (closed_slices, open_slices) = r.slices(start);
            let traffic = &traffic;
            let epoch = &epoch;
            let open = scope.spawn(move || {
                wire_open(r.dep.addr, traffic, epoch, &open_slices, rate, open_seed)
            });
            let closed = wire_closed(r, traffic, epoch, &closed_slices, closed_seed, None);
            (closed, open.join().expect("the open loop does not panic"))
        };
        let (lat, tally, tracers, elapsed) = closed;
        m.closed_ms = lat;
        m.closed_elapsed = elapsed;
        m.tally.merge(tally);
        for t in tracers {
            m.tracer.absorb(t);
        }
        let (lat, lags, tally) = open;
        m.open_ms = lat;
        m.gen_lag_ms = lags;
        m.tally.merge(tally);
        if let Some(w) = writer {
            m.swaps = w.join().expect("the swap writer does not panic");
        }
    });
    m.peak_rss_mb = peak_rss_mb();
    for swap in &m.swaps {
        record_swap(&mut m.tracer, swap);
    }
    if !churn_writer {
        r.swap_probe(&mut m);
    }
    m
}

/// Closed loop on `SERVICE_CONNECTIONS` connections over `windows`: each thread
/// sends its next request when the previous answer arrived. With
/// `probes`, every request is traced and followed by a timed registry
/// lookup and skeleton-cache probe on the live server. Returns the
/// latencies, the tally, the threads' spans, and the time the windows
/// took to their last answers.
fn wire_closed(
    r: &Run,
    traffic: &Traffic,
    epoch: &AtomicU64,
    windows: &[Window],
    seed: u64,
    probes: Option<&TenantRegistry>,
) -> (Vec<f64>, Tally, Vec<Tracer>, Duration) {
    let results: Vec<(Vec<f64>, Tally, Tracer, Vec<Instant>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVICE_CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    let mut tally = Tally::default();
                    let mut tracer = Tracer::new(r.origin);
                    let mut last: Vec<Instant> = windows.iter().map(|w| w.from).collect();
                    let mut client = match Client::connect(r.dep.addr) {
                        Ok(client) => client,
                        Err(e) => {
                            tally.fail(format!("connect failed: {e}"));
                            return (lat, tally, tracer, last);
                        }
                    };
                    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, c as u64));
                    let no_stats = Recorder::disabled();
                    let mut req = (c as u64) << 32;
                    'windows: for (w, last) in windows.iter().zip(&mut last) {
                        sleep_until(w.from);
                        while Instant::now() < w.to {
                            req += 1;
                            let (t, i) = traffic.draw(&mut rng);
                            let (schema, name) = &traffic.tenants[t];
                            let q = &traffic.pools[schema.index()][i];
                            let e0 = epoch.load(Ordering::SeqCst);
                            let t0 = Instant::now();
                            let sent = client.send(name, &q.transcript);
                            let t1 = Instant::now();
                            let got = sent.map_err(|e| e.to_string()).and_then(|_| client.recv());
                            let t2 = Instant::now();
                            *last = t2;
                            let e1 = epoch.load(Ordering::SeqCst);
                            match got {
                                Ok(resp) if traffic.accepts(t, i, &resp, e0, e1) => {
                                    lat.push(ms(t2 - t0));
                                    tally.ok();
                                }
                                Ok(resp) => tally.fail(format!(
                                    "{name}: answer {resp:?} matches no live index version for {:?}",
                                    q.transcript
                                )),
                                Err(e) => {
                                    tally.fail(e);
                                    break 'windows;
                                }
                            }
                            if let Some(registry) = probes {
                                let root = tracer.record("protocol.rtt", None, req, t0, t2);
                                tracer.record("protocol.client_send", Some(root), req, t0, t1);
                                let p0 = Instant::now();
                                let engine = registry.engine(name);
                                let p1 = Instant::now();
                                let probe = tracer.open("client.probe", None, req, p0);
                                tracer.record("registry.lookup", Some(probe), req, p0, p1);
                                if let Some(engine) = engine {
                                    registry.shared_cache().get(
                                        engine.index().generation(),
                                        &engine.config().search,
                                        &traffic.masked[schema.index()][i],
                                        &no_stats,
                                    );
                                    tracer.record("cache.probe", Some(probe), req, p1, Instant::now());
                                }
                                tracer.close(probe, Instant::now());
                            }
                        }
                    }
                    client.finish();
                    (lat, tally, tracer, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    // Each window lasts until its last answer, which arrives after its end.
    let elapsed = windows
        .iter()
        .enumerate()
        .map(|(k, w)| {
            let last = results.iter().map(|r| r.3[k]).max().unwrap_or(w.from);
            last.saturating_duration_since(w.from)
        })
        .sum();
    let mut lat = Vec::new();
    let mut tally = Tally::default();
    let mut tracers = Vec::new();
    for (l, t, tr, _) in results {
        lat.extend(l);
        tally.merge(t);
        tracers.push(tr);
    }
    (lat, tally, tracers, elapsed)
}

/// Open loop on one connection over `windows`: a sender thread sends at
/// `rate` whatever the answers do; this thread reads the answers in order.
/// Latency runs from when each request was due; the sender's own
/// lateness is the generator lag.
fn wire_open(
    addr: SocketAddr,
    traffic: &Traffic,
    epoch: &AtomicU64,
    windows: &[Window],
    rate: f64,
    seed: u64,
) -> (Vec<f64>, Vec<f64>, Tally) {
    let mut lat = Vec::new();
    let mut tally = Tally::default();
    let (mut sender, mut reader) = match Client::connect(addr).and_then(|c| Ok((c.try_clone()?, c)))
    {
        Ok(pair) => pair,
        Err(e) => {
            tally.fail(format!("connect failed: {e}"));
            return (lat, Vec::new(), tally);
        }
    };
    let period = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = mpsc::channel::<(usize, usize, Instant, u64)>();
    let lags = std::thread::scope(|scope| {
        let send = scope.spawn(move || {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut lags = Vec::new();
            'windows: for w in windows {
                for k in 0u32.. {
                    let due = w.from + period * k;
                    if due >= w.to {
                        break;
                    }
                    sleep_until(due);
                    lags.push(ms(Instant::now().duration_since(due)));
                    let (t, i) = traffic.draw(&mut rng);
                    let q = &traffic.pools[traffic.tenants[t].0.index()][i];
                    let e0 = epoch.load(Ordering::SeqCst);
                    if sender.send(&traffic.tenants[t].1, &q.transcript).is_err()
                        || tx.send((t, i, due, e0)).is_err()
                    {
                        break 'windows;
                    }
                }
            }
            sender.finish();
            lags
        });
        for (t, i, due, e0) in rx {
            match reader.recv() {
                Ok(resp) if traffic.accepts(t, i, &resp, e0, epoch.load(Ordering::SeqCst)) => {
                    lat.push(ms(due.elapsed()));
                    tally.ok();
                }
                Ok(resp) => tally.fail(format!(
                    "open loop: answer {resp:?} matches no live version"
                )),
                Err(e) => tally.fail(e),
            }
        }
        send.join().expect("the open-loop sender does not panic")
    });
    (lat, lags, tally)
}
