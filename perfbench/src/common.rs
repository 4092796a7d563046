//! Pieces every workload shares: explicit search options, seeded IVF
//! training, brute-force checks, the scratch directory, the measuring
//! window and the span reconciliation.

use crate::report::{Report, SPANS};
use crate::spans::{self_time_by_name, Recorder};
use crate::stats::MIN_TAIL_SAMPLES;
use pdx::prelude::*;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Neighbours per query in every workload.
pub const K: usize = 10;
/// Worker threads wherever the library would otherwise read
/// `PDX_THREADS` or the hardware width (k-means, batches, truth).
pub const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median. Workloads whose set-up
/// takes about a second or less (store, serve) run more of them.
pub const SETUP_REPS: usize = 3;
/// Lloyd iterations of the IVF trainer.
pub const KMEANS_ITERS: usize = 8;
/// Training rows per IVF list (the first rows of the collection, which
/// the generator draws independently).
pub const TRAIN_PER_LIST: usize = 40;
/// Queries in each fixed recall sample.
pub const RECALL_SAMPLE: usize = 64;
/// The kernel policy, explicit so `PDX_KERNEL` can never steer it.
pub const KERNEL: KernelPolicy = KernelPolicy::Simd;

/// Search options with every field spelled out: the engine default
/// pruner (PDX-BOND, distance-to-means order), L2, the default PRUNE
/// selection fraction and adaptive step schedule.
pub fn options(nprobe: usize, threads: usize, trace: bool) -> SearchOptions {
    SearchOptions {
        k: K,
        metric: Metric::L2,
        pruner: PrunerKind::Bond(VisitOrder::DistanceToMeans),
        selection_fraction: 0.20,
        step: StepPolicy::Adaptive { start: 2 },
        nprobe,
        refine: DEFAULT_REFINE,
        ef: 0,
        kernel: KERNEL,
        threads,
        trace,
    }
}

/// Seeded IVF training: k-means on the first `TRAIN_PER_LIST · nlist`
/// rows, then every row assigned to its nearest centroid. Returns the
/// bucket membership lists.
pub fn train_buckets(rows: &[f32], dims: usize, nlist: usize, seed: u64) -> Vec<Vec<u32>> {
    let n = rows.len() / dims;
    let train = (TRAIN_PER_LIST * nlist).min(n);
    let pool = ThreadPool::new(THREADS);
    let km = KMeans::fit_with_pool(
        &rows[..train * dims],
        train,
        dims,
        nlist,
        KMEANS_ITERS,
        seed,
        &pool,
    );
    km.assignments_with_pool(rows, n, &pool)
}

/// Exact top-[`K`] ids of each query by brute force.
pub fn truth(data: &[f32], queries: &[f32], dims: usize) -> Vec<Vec<u64>> {
    ground_truth(data, queries, dims, K, Metric::L2, THREADS)
}

pub fn ids(hits: &[Neighbor]) -> Vec<u64> {
    hits.iter().map(|n| n.id).collect()
}

/// Pool query `i` of a packed query buffer.
pub fn row(buf: &[f32], dims: usize, i: usize) -> &[f32] {
    &buf[i * dims..(i + 1) * dims]
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(Path::new(".bench_work"));
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The measuring window: `seconds` of timed work, stretched (up to a
/// cap) until the latency sample can report its p99. Time spent in
/// [`Window::exclude`] (correctness checks) does not count.
pub struct Window {
    start: Instant,
    seconds: f64,
    cap: f64,
    min_samples: usize,
    excluded: Duration,
}

impl Window {
    /// A window whose latencies feed a p99.
    pub fn new(seconds: f64) -> Self {
        Self::with_min_samples(seconds, MIN_TAIL_SAMPLES)
    }

    /// A window that stops at `seconds` once `min_samples` are in.
    pub fn with_min_samples(seconds: f64, min_samples: usize) -> Self {
        Window {
            start: Instant::now(),
            seconds,
            cap: seconds + 30.0,
            min_samples,
            excluded: Duration::ZERO,
        }
    }

    /// Timed seconds so far.
    pub fn elapsed(&self) -> f64 {
        (self.start.elapsed().saturating_sub(self.excluded)).as_secs_f64()
    }

    /// Whether to keep measuring with `samples` latencies collected.
    pub fn running(&self, samples: usize) -> bool {
        let e = self.elapsed();
        e < self.seconds || (samples < self.min_samples && e < self.cap)
    }

    /// Runs `f` off the clock.
    pub fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.excluded += t.elapsed();
        out
    }
}

/// Passes a replayed stream runs at least: a request the host stalled
/// in all of them is rare.
pub const MIN_PASSES: usize = 5;
/// A run whose passes take this many times `--seconds` fails rather
/// than run past the benchmark's time limit.
const SLOW: f64 = 3.0;

/// Passes for a run of `seconds` whose passes take about
/// `pass_seconds` each on the 2-vCPU machine the benchmark was tuned
/// on. The count depends on `--seconds` alone, never on how fast the
/// passes ran: the fastest of more replays reads lower, so a count that
/// grew with speed would flatter a faster run twice.
pub fn passes_for(seconds: f64, pass_seconds: f64) -> usize {
    ((seconds / pass_seconds).round() as usize).max(MIN_PASSES)
}

/// Latencies (µs) of a fixed request stream run pass after pass:
/// `passes[p][i]` is pass `p`'s latency of request `i`.
pub struct Replays {
    pub passes: Vec<Vec<f64>>,
}

impl Replays {
    /// Each request's latency: its fastest replay.
    pub fn latencies_us(&self) -> Vec<f64> {
        crate::stats::replay_minima(&self.passes)
    }

    /// Queries per second when every request takes its fastest time:
    /// the stream's queries over the sum of its requests' latencies;
    /// each request answers `per_request` queries.
    pub fn qps(&self, per_request: usize) -> f64 {
        let lat = self.latencies_us();
        (lat.len() * per_request) as f64 / (lat.iter().sum::<f64>() / 1e6)
    }

    /// Logs the pass count, and for comparison the p99 of every replay
    /// pooled, host stalls included.
    pub fn log(&self) {
        let pooled: Vec<f64> = self.passes.concat();
        eprintln!(
            "  {} passes of {} requests; each request's latency is its fastest replay \
             (pooled over all {} replays: p99 {:.1} µs)",
            self.passes.len(),
            self.passes.first().map_or(0, Vec::len),
            pooled.len(),
            crate::stats::percentile(&pooled, crate::stats::TAIL).unwrap_or(f64::NAN)
        );
    }
}

/// Runs a stream of `len` requests `passes` times: `request(i)`
/// performs request `i` and returns its latency in µs. A run still
/// short of its passes after [`SLOW`] times `seconds` fails.
pub fn replay_stream(
    passes: usize,
    seconds: f64,
    len: usize,
    mut request: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Replays, String> {
    let start = Instant::now();
    let mut done = Vec::with_capacity(passes);
    while done.len() < passes {
        too_slow(start, done.len(), passes, seconds)?;
        done.push(
            (0..len)
                .map(&mut request)
                .collect::<Result<Vec<f64>, _>>()?,
        );
    }
    Ok(Replays { passes: done })
}

/// An error once passes that started at `start` have taken over
/// [`SLOW`] times `seconds`, with `done` of `passes` in.
pub fn too_slow(start: Instant, done: usize, passes: usize, seconds: f64) -> Result<(), String> {
    if done > 0 && secs(start) > SLOW * seconds {
        return Err(format!(
            "{done} of {passes} passes took {:.0} s, over {SLOW}× the {seconds} s asked for",
            secs(start)
        ));
    }
    Ok(())
}

/// The program's per-query phase split as child spans of `call`.
pub fn split_trace(rec: &mut Recorder, call: usize, t: &QueryTrace) {
    rec.split(
        call,
        &[
            ("search.preprocess", t.preprocess_ns),
            ("index.route", t.find_buckets_ns),
            ("search.bounds", t.bounds_ns),
            ("search.distance", t.distance_ns),
        ],
    );
}

pub use pdx::obs::QueryTrace;

/// Accumulated program-reported work of traced searches.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceSums {
    pub queries: u64,
    pub sum: QueryTrace,
}

impl TraceSums {
    pub fn add(&mut self, t: &QueryTrace) {
        self.queries += 1;
        self.sum.merge(t);
    }

    /// Sets the `search.*` per-query metrics (and `index.route_us`).
    pub fn report(&self, report: &mut Report) {
        let q = self.queries.max(1) as f64;
        let s = &self.sum;
        report.set("search.preprocess_us", s.preprocess_ns as f64 / q / 1e3);
        report.set("search.bounds_us", s.bounds_ns as f64 / q / 1e3);
        report.set("search.distance_us", s.distance_ns as f64 / q / 1e3);
        report.set("index.route_us", s.find_buckets_ns as f64 / q / 1e3);
        report.set("search.pruned_share", s.pruning_ratio());
        report.set("search.vectors_per_query", s.vectors_visited as f64 / q);
        report.set("search.blocks_per_query", s.blocks_visited as f64 / q);
    }
}

/// Reports each span's self time as a share of the root's wall time,
/// and the root's own share as `trace.unattributed_share`; checks that
/// the rows add up to one.
pub fn reconcile(report: &mut Report, rec: &Recorder, root: usize) {
    let root_span = rec.spans()[root];
    let wall = (root_span.end - root_span.start) as f64;
    let by_name = self_time_by_name(rec.spans());
    let mut total = 0.0;
    for (name, ns) in &by_name {
        let share = ns / wall;
        total += share;
        if *name == root_span.name {
            report.set("trace.unattributed_share", share);
        } else if SPANS.contains(name) {
            report.set(&format!("self.{name}"), share);
        } else {
            report.error(format!("span {name:?} is not in the catalogue"));
        }
    }
    if (total - 1.0).abs() > 1e-6 {
        report.error(format!("self times add up to {total} of wall time, not 1"));
    }
    let mut rows: Vec<(&str, f64)> = by_name.iter().map(|(n, ns)| (*n, ns / wall)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    eprintln!("  self time over {:.2} s of traced wall time:", wall / 1e9);
    for (name, share) in rows {
        let label = if name == root_span.name {
            "(unattributed)"
        } else {
            name
        };
        eprintln!("    {label:<20} {:6.2}%", share * 100.0);
    }
}

/// The end of set-up, as [`serving_ends`] needs it.
pub struct ServingStart {
    cpu: Option<Vec<u64>>,
}

/// Marks the end of set-up: starts the `peak_rss_mb` reading over, so
/// it covers the program serving the workload rather than the build,
/// and notes the machine's CPU counters.
pub fn serving_starts() -> ServingStart {
    if !crate::machine::reset_peak_rss() {
        eprintln!("  warning: VmHWM cannot be reset; peak_rss_mb includes set-up");
    }
    if let Some(mb) = crate::machine::rss_mb() {
        eprintln!("  resident after set-up: {mb:.1} MiB");
    }
    ServingStart {
        cpu: crate::machine::cpu_times(),
    }
}

/// Sets `peak_rss_mb` from `VmHWM`; called right after the measured
/// window, before the off-clock checks allocate. Also logs the share of
/// CPU time the hypervisor took from this machine (steal) meanwhile:
/// on a shared host it moves the open-loop tail more than anything the
/// program does.
pub fn serving_ends(report: &mut Report, start: &ServingStart) {
    match crate::machine::peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report.error("VmHWM is not readable"),
    }
    if let (Some(a), Some(b)) = (&start.cpu, crate::machine::cpu_times()) {
        let d: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| y.saturating_sub(*x))
            .collect();
        let total: u64 = d.iter().sum();
        if let (Some(steal), true) = (d.get(7), total > 0) {
            eprintln!(
                "  host steal {:.1} % of CPU time while measuring",
                100.0 * *steal as f64 / total as f64
            );
        }
    }
}

/// Median of a non-empty list of set-up readings.
pub fn median_of(xs: &[f64]) -> f64 {
    crate::stats::median(xs).expect("at least one reading")
}

/// `1 − traced / untraced` of two throughputs: the share of throughput
/// the traced run's instrumentation cost.
pub fn overhead(untraced: f64, traced: f64) -> f64 {
    1.0 - traced / untraced
}

/// Times the dispatched f32 kernel over `(query, block)` pairs, each
/// call a `kernels.pdx_scan` span under `root`; returns nanoseconds per
/// dimension-value.
pub fn f32_kernel_replay<'a>(
    rec: &mut Recorder,
    root: usize,
    pairs: impl IntoIterator<Item = (&'a [f32], &'a PdxBlock)>,
) -> f64 {
    let (mut ns, mut values) = (0u64, 0u64);
    let mut out = Vec::new();
    for (i, (q, block)) in pairs.into_iter().enumerate() {
        out.resize(block.len(), 0.0);
        let t0 = rec.now();
        pdx_scan_policy(Metric::L2, block, q, &mut out, KERNEL);
        let t1 = rec.now();
        std::hint::black_box(&out);
        rec.push("kernels.pdx_scan", t0, t1, Some(root), i as u64);
        ns += t1 - t0;
        values += (block.len() * block.dims()) as u64;
    }
    ns as f64 / values.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_runs_its_passes_and_stops_on_a_failed_request() {
        let mut calls = 0;
        let r = replay_stream(3, 60.0, 4, |i| {
            calls += 1;
            Ok(10.0 * (i + 1) as f64)
        })
        .unwrap();
        assert_eq!((r.passes.len(), calls), (3, 12));
        assert!(r.passes.iter().all(|p| p == &[10.0, 20.0, 30.0, 40.0]));
        // Four single-query requests of 10–40 µs: 100 µs for 4 queries.
        assert!((r.qps(1) - 40_000.0).abs() < 1e-6);
        assert!((r.qps(32) - 1_280_000.0).abs() < 1e-3);
        let failed = replay_stream(3, 60.0, 4, |i| {
            if i == 2 {
                Err("request 2 got no answer".to_string())
            } else {
                Ok(1.0)
            }
        });
        assert_eq!(failed.err().as_deref(), Some("request 2 got no answer"));
        // The pass count follows --seconds, with a floor.
        assert_eq!(passes_for(18.0, 3.0), 6);
        assert_eq!(passes_for(18.0, 2.25), 8);
        assert_eq!(passes_for(1.0, 3.0), MIN_PASSES);
    }
}
