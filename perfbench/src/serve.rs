//! `serve-ooc-sift`: users reaching the network server. An IVF
//! container of 100 000 sift-like 128-d vectors (about 50 MiB) is
//! opened lazily with a block-cache budget of a quarter of the file and
//! served by an in-process `Server` on loopback (two workers, a fixed
//! per-request deadline). Queries are Zipf-skewed over a pool of 4 096
//! whose probed buckets far exceed the budget.
//!
//! The end-to-end run is a closed loop: one client on one connection
//! sends the next query when the previous answer is in, and latency
//! runs from send to answer. Its requests are a fixed stream of 4 000,
//! replayed pass after pass after one untimed pass has warmed the
//! cache; the cache then holds the same buckets at each request in
//! every pass, so a request misses the same buckets each time. The
//! traced run drives the open loop: Poisson arrivals on one pipelined
//! connection — one sender thread, one reader thread — at three fixed
//! offered rates, latency from each request's scheduled send time. On a shared machine an open loop's
//! p99 follows the hypervisor's steal time (every request due during a
//! stall waits it out), so it cannot gate; its readings are per-layer.
//!
//! Each loop runs on a fresh `Server` over the same (warm) index, so
//! the server's own latency histogram covers exactly that loop. Every
//! 8th answer (of every pass) is compared off the clock, bit for bit,
//! with a resident in-process search.

use crate::args::Args;
use crate::common::*;
use crate::report::Report;
use crate::rng::{poisson_arrivals, Rng, Zipf};
use crate::spans::Recorder;
use crate::stats::{median, percentile, summarize, Summary, MIN_TAIL_SAMPLES, TAIL};
use pdx::datasets::persist::write_ivf_pdx_path;
use pdx::prelude::*;
use pdx::serve::proto::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use pdx::serve::{ErrorKind, Request, Response};
use std::io;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 100_000;
const POOL: usize = 4_096;
/// Requests in the closed loop's replayed stream.
const STREAM: usize = 4_000;
/// Seconds one pass of the stream takes on the reference machine.
const PASS_SECONDS: f64 = 2.25;
const NPROBE: usize = 16;
/// Query skew: about 0.87 of bucket lookups hit at the ¼ budget and
/// each query still misses about two buckets (and evicts as many). A
/// flatter skew thrashes the cache (every probed bucket missing) and
/// keeps both cores of a small machine busy loading, so the latencies
/// read queueing on the host more than the serving path.
const ZIPF_S: f64 = 2.0;
/// The open loop's offered rates, requests per second; the middle one
/// runs longest and gives the per-layer serve and cache readings.
const RATES: [f64; 3] = [200.0, 300.0, 450.0];
/// The latency limit on p99 that defines `serve.slo_qps`.
const SLO_P99_US: f64 = 25_000.0;
/// The server's per-request deadline.
const DEADLINE_MS: u32 = 1_000;
const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 128;
const CHECK_EVERY: usize = 8;
/// Queries in the recall sample. At nprobe = 16 a few seeds miss a
/// neighbour or two, so a larger sample than [`RECALL_SAMPLE`] keeps
/// one hard query from moving the figure by a tenth of a percent.
const SERVE_RECALL_SAMPLE: usize = 8 * RECALL_SAMPLE;
/// Set-ups per run: one takes about a second, so the median of
/// [`SETUP_REPS`] alone spreads too much.
const SERVE_SETUP_REPS: usize = 5;
/// Buckets the cold-load replay fetches.
const MISS_LOADS: usize = 64;
/// How long the reader waits for an answer before giving up on the
/// rest of a level.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// The shared lazy index, served by one `Server` after another.
struct Shared(Arc<dyn VectorIndex>);

impl VectorIndex for Shared {
    fn dims(&self) -> usize {
        self.0.dims()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn kind(&self) -> &'static str {
        self.0.kind()
    }
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        self.0.search(query, opts)
    }
    fn search_batch(&self, queries: &[f32], opts: &SearchOptions) -> Vec<Vec<Neighbor>> {
        self.0.search_batch(queries, opts)
    }
    fn search_parallel(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        self.0.search_parallel(query, opts)
    }
    fn resident_bytes(&self) -> u64 {
        self.0.resident_bytes()
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        self.0.cache_stats()
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        default_deadline_ms: DEADLINE_MS,
        max_frame: DEFAULT_MAX_FRAME,
        kernel: KERNEL,
        metrics_port: 0,
        slow_query_us: 0,
        slow_sample: 0,
    }
}

fn start(index: &Arc<dyn VectorIndex>) -> io::Result<Server> {
    Server::start(
        Backend::frozen(Box::new(Shared(Arc::clone(index)))),
        "127.0.0.1:0",
        config(),
    )
}

/// What one request came back as.
enum Answer {
    Hits(Vec<Neighbor>),
    Busy,
    Deadline,
    Failed(String),
}

/// One offered-rate level.
struct Level {
    rate: f64,
    /// Pool query of each request.
    picks: Vec<usize>,
    /// Scheduled send times, from the level's start.
    due: Vec<Duration>,
    start: Instant,
    /// Send start and end of each request.
    sent: Vec<(Instant, Instant)>,
    /// Receive time and answer of each request (`None`: never came).
    got: Vec<Option<(Instant, Answer)>>,
    server: StatsReport,
    cache: (CacheStats, CacheStats),
}

impl Level {
    fn latencies_us(&self) -> Vec<f64> {
        self.got
            .iter()
            .zip(&self.due)
            .filter_map(|(g, due)| match g {
                Some((t, Answer::Hits(_))) => Some(micros(t.duration_since(self.start + *due))),
                _ => None,
            })
            .collect()
    }

    fn completed(&self) -> usize {
        self.got
            .iter()
            .filter(|g| matches!(g, Some((_, Answer::Hits(_)))))
            .count()
    }

    /// Completions per second, from the level's start to its last answer.
    fn achieved_qps(&self) -> f64 {
        let last = self.got.iter().flatten().map(|(t, _)| *t).max();
        last.map_or(0.0, |t| {
            self.completed() as f64 / t.duration_since(self.start).as_secs_f64()
        })
    }

    fn count(&self, f: impl Fn(&Answer) -> bool) -> usize {
        self.got.iter().flatten().filter(|(_, a)| f(a)).count()
    }

    /// Generator lag of each request: actual send start minus due time.
    fn lag_us(&self) -> Vec<f64> {
        self.sent
            .iter()
            .zip(&self.due)
            .map(|((s, _), due)| micros(s.saturating_duration_since(self.start + *due)))
            .collect()
    }
}

/// The search request for one pool query.
fn search_request(query: &[f32]) -> Request {
    Request::Search {
        deadline_ms: 0,
        k: K as u32,
        nprobe: NPROBE as u32,
        refine: 0,
        query: query.to_vec(),
    }
}

/// What a reply frame says.
fn answer(msg: &[u8]) -> Answer {
    match Response::decode(msg) {
        Ok(Response::Neighbors(hits)) => Answer::Hits(hits),
        Ok(Response::Error {
            kind: ErrorKind::Busy,
            ..
        }) => Answer::Busy,
        Ok(Response::Error {
            kind: ErrorKind::DeadlineExceeded,
            ..
        }) => Answer::Deadline,
        Ok(other) => Answer::Failed(format!("unexpected reply {other:?}")),
        Err(e) => Answer::Failed(format!("undecodable reply: {}", e.0)),
    }
}

/// Counts one request's outcome: refusals under load are failed
/// operations, anything else but a full answer is a wrong one.
fn tally(report: &mut Report, i: usize, got: Option<&Answer>) {
    match got {
        Some(Answer::Hits(h)) if h.len() == K => {}
        Some(Answer::Hits(h)) => {
            report.fail_op(format!("request {i} got {} of {K} neighbours", h.len()))
        }
        Some(Answer::Busy | Answer::Deadline) => report.refuse_op(),
        Some(Answer::Failed(e)) => report.fail_op(format!("request {i}: {e}")),
        None => report.fail_op(format!("request {i} was never answered")),
    }
}

/// The closed loop's answers kept for the off-clock check: the pool
/// query and answer of every [`CHECK_EVERY`]th request of every pass.
struct Closed {
    replays: Replays,
    checked: Vec<(usize, Vec<Neighbor>)>,
}

/// Replays `stream` (the pool query of each request) as a closed loop
/// on a fresh server: one client on one connection sends a request when
/// the previous answer is in, and latency runs from send to answer.
/// Each outcome is tallied in `report` when one is given; a request
/// that gets no answer ends the run.
fn run_closed(
    index: &Arc<dyn VectorIndex>,
    queries: &[f32],
    d: usize,
    stream: &[usize],
    (passes, seconds): (usize, f64),
    mut report: Option<&mut Report>,
) -> Result<Closed, String> {
    let err = |e: io::Error| e.to_string();
    let server = start(index).map_err(err)?;
    let mut conn = TcpStream::connect(server.local_addr()).map_err(err)?;
    conn.set_nodelay(true).map_err(err)?;
    conn.set_read_timeout(Some(READ_TIMEOUT)).map_err(err)?;
    let mut checked = Vec::new();
    let mut seq = 0u32;
    let replays = replay_stream(passes, seconds, stream.len(), |i| {
        let qi = stream[i];
        seq += 1;
        let msg = search_request(row(queries, d, qi)).encode();
        let t = Instant::now();
        let reply = write_frame(&mut conn, seq, &msg)
            .and_then(|()| read_frame(&mut conn, DEFAULT_MAX_FRAME));
        let us = micros(t.elapsed());
        let got = match reply {
            Ok((s, msg)) if s == seq => answer(&msg),
            Ok((s, _)) => Answer::Failed(format!("reply {s} to request {seq}")),
            Err(e) => Answer::Failed(format!("no reply: {e}")),
        };
        if let Some(r) = report.as_deref_mut() {
            r.attempted += 1;
            tally(r, seq as usize, Some(&got));
        }
        if let Answer::Failed(e) = &got {
            return Err(format!("request {seq}: {e}"));
        }
        if let (0, Answer::Hits(hits)) = (i % CHECK_EVERY, got) {
            checked.push((qi, hits));
        }
        Ok(us)
    });
    drop(conn);
    server.shutdown();
    Ok(Closed {
        replays: replays?,
        checked,
    })
}

/// The seeded request stream: Poisson arrival times and Zipf-skewed
/// picks from the query pool.
struct Traffic {
    arrivals: Rng,
    draws: Rng,
    zipf: Zipf,
}

/// Runs one open-loop level of `duration` seconds on a fresh server.
fn run_level(
    index: &Arc<dyn VectorIndex>,
    queries: &[f32],
    d: usize,
    rate: f64,
    duration: f64,
    traffic: &mut Traffic,
) -> io::Result<Level> {
    let due: Vec<Duration> = poisson_arrivals(&mut traffic.arrivals, rate, duration)
        .into_iter()
        .map(Duration::from_secs_f64)
        .collect();
    let picks: Vec<usize> = due
        .iter()
        .map(|_| traffic.zipf.sample(&mut traffic.draws))
        .collect();
    let n = due.len();
    let server = start(index)?;
    let stream = TcpStream::connect(server.local_addr())?;
    stream.set_nodelay(true)?;
    let mut reader_half = stream.try_clone()?;
    reader_half.set_read_timeout(Some(READ_TIMEOUT))?;
    let cache_before = index.cache_stats().unwrap_or_default();
    let start_at = Instant::now() + Duration::from_millis(2);
    let (sent, got) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> io::Result<Vec<(Instant, Instant)>> {
            let mut w = &stream;
            let mut sent = Vec::with_capacity(n);
            for (i, (&due, &qi)) in due.iter().zip(&picks).enumerate() {
                let at = start_at + due;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let t0 = Instant::now();
                let req = search_request(row(queries, d, qi));
                write_frame(&mut w, i as u32 + 1, &req.encode())?;
                sent.push((t0, Instant::now()));
            }
            Ok(sent)
        });
        let reader = s.spawn(move || {
            let mut got: Vec<Option<(Instant, Answer)>> = (0..n).map(|_| None).collect();
            for _ in 0..n {
                let Ok((seq, msg)) = read_frame(&mut reader_half, DEFAULT_MAX_FRAME) else {
                    break;
                };
                let t = Instant::now();
                match got.get_mut((seq as usize).wrapping_sub(1)) {
                    Some(slot) => *slot = Some((t, answer(&msg))),
                    None => break,
                }
            }
            got
        });
        let sent = sender.join().expect("sender thread");
        let got = reader.join().expect("reader thread");
        (sent, got)
    });
    let sent = sent?;
    let cache_after = index.cache_stats().unwrap_or_default();
    drop(stream);
    let stats = server.stats();
    server.shutdown();
    Ok(Level {
        rate,
        picks,
        due,
        start: start_at,
        sent,
        got,
        server: stats,
        cache: (cache_before, cache_after),
    })
}

/// A level's length: its share of the run, but long enough for its
/// rate to report a p99.
fn level_seconds(share: f64, rate: f64) -> f64 {
    share.max(MIN_TAIL_SAMPLES as f64 * 1.02 / rate)
}

struct Built {
    index: Arc<dyn VectorIndex>,
    file_bytes: u64,
}

fn setup(ds: &Dataset, path: &Path, seed: u64) -> io::Result<(Built, f64, f64)> {
    let d = ds.dims();
    let t0 = Instant::now();
    let buckets = train_buckets(&ds.data, d, IvfIndex::default_nlist(N), seed);
    let ivf = IvfPdx::new(&ds.data, d, &buckets, DEFAULT_GROUP_SIZE);
    let build = secs(t0);
    write_ivf_pdx_path(path, d, &ivf.centroids.pdx.to_rows(), &ivf.blocks)?;
    drop(ivf);
    let file_bytes = std::fs::metadata(path)?.len();
    let t1 = Instant::now();
    let index: Arc<dyn VectorIndex> = Arc::from(AnyIndex::open_with(
        path,
        OpenOptions::default().with_cache_bytes(file_bytes / 4),
    )?);
    let open = secs(t1);
    // Ready to serve: a server is up and answers on loopback.
    let server = start(&index)?;
    pdx::serve::Client::connect(server.local_addr())
        .and_then(|mut c| c.ping())
        .map_err(|e| io::Error::other(e.to_string()))?;
    server.shutdown();
    Ok((Built { index, file_bytes }, build, open))
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let spec = *spec_by_name("sift").expect("table 1 has sift");
    let mut ds = generate(&spec, N, POOL, args.seed);
    let d = ds.dims();
    let dir = WorkDir::new("serve-ooc-sift").map_err(|e| e.to_string())?;
    let path = dir.path().join("ivf.pdx");
    let err = |e: io::Error| e.to_string();

    // ── Set-up: k-means + layout, container write, lazy open, server ──
    let (mut setup_s, mut build, mut open) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SERVE_SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        let (b, build_s, open_s) = setup(&ds, &path, args.seed).map_err(err)?;
        setup_s.push(secs(t0));
        build.push(build_s);
        open.push(open_s);
        built = Some(b);
    }
    let Built { index, file_bytes } = built.expect("at least one set-up");
    eprintln!(
        "  set-up {:.2} s, container {:.1} MiB, cache budget {:.1} MiB ({})",
        median_of(&setup_s),
        file_bytes as f64 / (1u64 << 20) as f64,
        (file_bytes / 4) as f64 / (1u64 << 20) as f64,
        index.kind()
    );

    // Ground truth for the recall check, then the base vectors go: the
    // measured process holds the lazy index, its cache and the pool.
    let sample = &ds.queries[..SERVE_RECALL_SAMPLE * d];
    let truth = truth(&ds.data, sample, d);
    ds.data = Vec::new();
    let serving = serving_starts();

    let mut traffic = Traffic {
        arrivals: Rng::stream(args.seed, "serve-arrivals"),
        draws: Rng::stream(args.seed, "serve-queries"),
        zipf: Zipf::new(POOL, ZIPF_S),
    };
    let seconds = args.seconds as f64;
    // The closed loop's fixed stream, Zipf ranks stratified so every
    // seed asks for its cold tail as often; one untimed pass warms the
    // cache.
    let stream = traffic.zipf.stratified(STREAM, &mut traffic.draws);
    run_closed(&index, &ds.queries, d, &stream, (1, seconds), None)?;
    let resident = |report: &mut Report| {
        AnyIndex::open_with(&path, OpenOptions::default())
            .map_err(|e| report.error(format!("resident open for the checks: {e}")))
            .ok()
    };
    let opts = options(NPROBE, 1, false);

    if !report.trace() {
        let c = run_closed(
            &index,
            &ds.queries,
            d,
            &stream,
            (passes_for(seconds, PASS_SECONDS), seconds),
            Some(report),
        )?;
        serving_ends(report, &serving);
        c.replays.log();
        report.set("qps", c.replays.qps(1));
        report.latency("query_p50_us", "query_p99_us", &c.replays.latencies_us());
        report.set("setup_s", median_of(&setup_s));
        report.set(
            "bytes_per_live_byte",
            file_bytes as f64 / (N * d * 4) as f64,
        );
        // ── Correctness, off the clock ──
        if let Some(resident) = resident(report) {
            for (i, (qi, got)) in c.checked.iter().enumerate() {
                let want = resident.search(row(&ds.queries, d, *qi), &opts);
                if !same_bits(got, &want) {
                    report.fail_op(format!(
                        "checked answer {i} (pool query {qi}) differs from the resident search"
                    ));
                }
            }
        }
    } else {
        // The open loop: the middle rate for half the window, the side
        // rates only as long as their p99 needs.
        let mut levels = Vec::new();
        for (i, rate) in RATES.into_iter().enumerate() {
            let share = if i == 1 { seconds / 2.0 } else { 0.0 };
            let duration = level_seconds(share, rate);
            levels.push(
                run_level(&index, &ds.queries, d, rate, duration, &mut traffic).map_err(err)?,
            );
        }
        let mut slo_qps = None;
        for l in &levels {
            let lat = l.latencies_us();
            let failed = l.due.len() - l.completed();
            let p99 = summarize(&lat).ok().map(|s| s.p99);
            // A refused or failed request misses the limit: it enters the
            // level's p99 as unbounded.
            let mut all = lat.clone();
            all.resize(l.due.len(), f64::INFINITY);
            let ok = percentile(&all, TAIL).is_some_and(|p| p <= SLO_P99_US)
                && failed * 100 < l.due.len();
            eprintln!(
                "  {:>5.0}/s offered: {:.0}/s done, p50 {:.0} µs, p99 {} (n = {}), {} failed, server p50/p99 {}/{} µs",
                l.rate,
                l.achieved_qps(),
                median(&lat).unwrap_or(f64::NAN),
                p99.map_or("n/a".to_string(), |p| format!("{p:.0} µs")),
                lat.len(),
                failed,
                l.server.p50_us,
                l.server.p99_us,
            );
            if ok {
                slo_qps = Some(l.achieved_qps());
            }
            report.attempted += l.due.len() as u64;
            for (i, g) in l.got.iter().enumerate() {
                tally(report, i, g.as_ref().map(|(_, a)| a));
            }
        }
        // No rate within the limit is a slow result, not a wrong one.
        if slo_qps.is_none() {
            eprintln!("  no offered rate kept p99 under {SLO_P99_US} µs");
        }
        report.set("serve.slo_qps", slo_qps.unwrap_or(0.0));
        traced_metrics(report, &levels, &path, file_bytes, &index);
        report.set("index.build_s", median_of(&build));
        report.set("engine.open_ms", median_of(&open) * 1e3);
        // ── Correctness, off the clock ──
        if let Some(resident) = resident(report) {
            for l in &levels {
                for (i, g) in l.got.iter().enumerate().step_by(CHECK_EVERY) {
                    let Some((_, Answer::Hits(got))) = g else {
                        continue;
                    };
                    let want = resident.search(row(&ds.queries, d, l.picks[i]), &opts);
                    if !same_bits(got, &want) {
                        report.fail_op(format!(
                            "request {i} at {}/s differs from the resident search",
                            l.rate
                        ));
                    }
                }
            }
        }
    }

    let server = start(&index).map_err(err)?;
    let mut client = pdx::serve::Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let mut got = Vec::new();
    for qi in 0..SERVE_RECALL_SAMPLE {
        report.attempted += 1;
        match client.search_opts(row(sample, d, qi), K, NPROBE, 0) {
            Ok(h) => got.push(ids(&h)),
            Err(e) => {
                report.fail_op(format!("recall query {qi}: {e}"));
                got.push(Vec::new());
            }
        }
    }
    drop(client);
    server.shutdown();
    report.set("recall_at_10", mean_recall(&truth, &got, K));
    Ok(())
}

fn same_bits(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.distance.to_bits() == y.distance.to_bits())
}

/// The traced run's per-layer readings: server-side service times,
/// wire time, refusals, generator lag and cache behaviour at the middle
/// rate; spans for every request; a cold-load replay. The server path
/// is not traced (a `Server` takes no trace option), so
/// `obs.trace_overhead_share` reads 0 here.
fn traced_metrics(
    report: &mut Report,
    levels: &[Level],
    path: &Path,
    file_bytes: u64,
    index: &Arc<dyn VectorIndex>,
) {
    let mid = &levels[1];
    let lat = mid.latencies_us();
    let client: Option<Summary> = summarize(&lat).ok();
    report.set("serve.service_p50_us", mid.server.p50_us as f64);
    report.set("serve.service_p99_us", mid.server.p99_us as f64);
    if let Some(c) = client {
        report.set("serve.wire_us", c.p50 - mid.server.p50_us as f64);
    }
    let attempted: usize = levels.iter().map(|l| l.due.len()).sum();
    let busy: usize = levels
        .iter()
        .map(|l| l.count(|a| matches!(a, Answer::Busy)))
        .sum();
    let shed: usize = levels
        .iter()
        .map(|l| l.count(|a| matches!(a, Answer::Deadline)))
        .sum();
    report.set("serve.busy_share", busy as f64 / attempted as f64);
    report.set("serve.deadline_share", shed as f64 / attempted as f64);
    report.set(
        "serve.generator_lag_us",
        median(&mid.lag_us()).unwrap_or(0.0),
    );

    let (before, after) = mid.cache;
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let done = mid.completed().max(1) as f64;
    report.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("cache.misses_per_query", misses as f64 / done);
    report.set(
        "cache.evictions_per_query",
        (after.evictions - before.evictions) as f64 / done,
    );
    report.set(
        "cache.resident_mb",
        index.cache_stats().unwrap_or_default().resident_bytes as f64 / (1u64 << 20) as f64,
    );

    // Spans: every request of every level under one root, with its
    // generator lag and its send as children; then cold bucket loads.
    let origin = levels[0].start;
    let mut rec = Recorder::new(origin);
    let root = rec.push("run", 0, 0, None, 0);
    let mut req = 0u64;
    for l in levels {
        for ((due, (s0, s1)), g) in l.due.iter().zip(&l.sent).zip(&l.got) {
            req += 1;
            let at = rec.at(l.start + *due);
            let end = g.as_ref().map_or(rec.at(*s1), |(t, _)| rec.at(*t));
            let span = rec.push("serve.request", at, end, Some(root), req);
            rec.push("bench.lag", at, rec.at(*s0), Some(span), req);
            rec.push("serve.send", rec.at(*s0), rec.at(*s1), Some(span), req);
        }
    }
    match LazyIvf::open(path, file_bytes / 4) {
        Ok(cold) => {
            let loads = MISS_LOADS.min(cold.n_buckets());
            let mut ns = 0;
            for b in 0..loads {
                let t0 = rec.now();
                std::hint::black_box(cold.fetch(b as u32));
                let t1 = rec.now();
                rec.push("cache.fetch", t0, t1, Some(root), b as u64);
                ns += t1 - t0;
            }
            report.set("cache.miss_load_us", ns as f64 / loads.max(1) as f64 / 1e3);
        }
        Err(e) => report.error(format!("cold open for the miss-load replay: {e}")),
    }
    // The root spans the levels and the replay; idle time between
    // arrivals and the server restarts between levels are its own.
    rec.close(root);
    reconcile(report, &rec, root);
}
