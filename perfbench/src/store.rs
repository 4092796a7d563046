//! `store-churn-sift`: exact search over data "as-is" while writes
//! arrive. A persistent `Collection` of sift-like 128-d vectors is
//! preloaded to 50 000 rows and sealed into one f32 segment; one
//! client runs a closed loop of 50 % exact k = 10 searches, 25 %
//! inserts of fresh ids and 25 % deletes of live ids, so the live size
//! holds steady. Group commit fsyncs every 64 records (no time
//! trigger), the 256-row write buffer auto-seals, and the benchmark
//! starts a background compaction whenever tombstones reach 0.5 % of
//! the live rows: each stream of 2 400 operations seals about twice
//! and compacts about twice.
//!
//! The end-to-end run replays that stream pass after pass, each pass
//! on a collection set up afresh, so every pass runs the same
//! operations on the same states.
//!
//! Every 50th search is checked off the clock against brute force over
//! an in-memory reference model (id → vector): the results must be the
//! exact top-k.

use crate::args::Args;
use crate::common::*;
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::Recorder;
use pdx::obs::trace::capture;
use pdx::obs::{Counter, Histogram, Registry};
use pdx::prelude::*;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 50_000;
/// Distinct vectors for inserts (reused with an offset past the end).
const INSERT_POOL: usize = 16_384;
const POOL: usize = 1_000;
const BUFFER: usize = 256;
const SYNC_EVERY: usize = 64;
/// Tombstones per thousand live rows that start a compaction.
const COMPACT_PERMILLE: usize = 5;
const CHECK_EVERY: usize = 50;
/// Operations between compaction-trigger polls and size samples.
const POLL_EVERY: usize = 64;
const SIZE_EVERY: usize = 512;
/// Pool queries the kernel replay scans every block with.
const KERNEL_QUERIES: usize = 4;
/// Timed set-ups per run: one takes about a second or less, and fsync
/// times spread it, so the median needs more of them than
/// [`SETUP_REPS`].
const STORE_SETUP_REPS: usize = 5;
/// Operations in the replayed stream: about 1 200 searches (a p99 with
/// ten beyond needs 1 000) and as many writes.
const STREAM_OPS: usize = 2_400;
/// Seconds one pass takes on the reference machine, its set-up
/// included.
const PASS_SECONDS: f64 = 3.0;

/// The reference model: every live id and its vector.
struct Model {
    dims: usize,
    ids: Vec<u64>,
    vecs: Vec<f32>,
    pos: HashMap<u64, usize>,
}

impl Model {
    fn new(dims: usize, rows: &[f32]) -> Self {
        let ids: Vec<u64> = (0..(rows.len() / dims) as u64).collect();
        let pos = ids.iter().map(|&id| (id, id as usize)).collect();
        // Room for the live size to wander above the preload without a
        // reallocation, so the benchmark's own memory stays put.
        let mut vecs = Vec::with_capacity(rows.len() + INSERT_POOL * dims);
        vecs.extend_from_slice(rows);
        Model {
            dims,
            ids,
            vecs,
            pos,
        }
    }

    fn insert(&mut self, id: u64, v: &[f32]) {
        self.pos.insert(id, self.ids.len());
        self.ids.push(id);
        self.vecs.extend_from_slice(v);
    }

    fn remove_at(&mut self, i: usize) -> u64 {
        let d = self.dims;
        let id = self.ids.swap_remove(i);
        self.pos.remove(&id);
        let last = self.vecs.len() / d - 1;
        if i != last {
            self.vecs.copy_within(last * d..(last + 1) * d, i * d);
            self.pos.insert(self.ids[i], i);
        }
        self.vecs.truncate(last * d);
        id
    }

    fn dist(&self, q: &[f32], i: usize) -> f32 {
        nary_distance(
            Metric::L2,
            KernelVariant::Simd,
            q,
            row(&self.vecs, self.dims, i),
        )
    }

    /// Checks that `hits` is the exact top-k of `q` over the live rows
    /// (positions may differ only between equal distances); returns the
    /// recall of the ids.
    fn verify(&self, q: &[f32], hits: &[Neighbor]) -> Result<f64, String> {
        let mut heap = KnnHeap::new(K);
        for i in 0..self.ids.len() {
            heap.push(self.ids[i], self.dist(q, i));
        }
        let want = heap.into_sorted();
        if hits.len() != want.len() {
            return Err(format!("{} hits, expected {}", hits.len(), want.len()));
        }
        let close = |a: f32, b: f32| (a - b).abs() <= 1e-4 * a.abs().max(b.abs()).max(1.0);
        let mut seen = std::collections::HashSet::new();
        for (h, w) in hits.iter().zip(&want) {
            let Some(&p) = self.pos.get(&h.id) else {
                return Err(format!("id {} is not live", h.id));
            };
            if !seen.insert(h.id) {
                return Err(format!("id {} returned twice", h.id));
            }
            if !close(self.dist(q, p), h.distance) {
                return Err(format!("id {} reported at distance {}", h.id, h.distance));
            }
            if !close(h.distance, w.distance) {
                return Err(format!(
                    "not the exact top-{K}: {} at {} where {} was due",
                    h.id, h.distance, w.distance
                ));
            }
        }
        let want_ids: std::collections::HashSet<u64> = want.iter().map(|n| n.id).collect();
        Ok(hits.iter().filter(|h| want_ids.contains(&h.id)).count() as f64 / K as f64)
    }
}

/// The store's own registry families, read as before/after deltas.
struct StoreCounters {
    seal: Arc<Histogram>,
    compact: Arc<Histogram>,
    seal_bytes: Arc<Counter>,
    compact_bytes: Arc<Counter>,
    fsync: Arc<Histogram>,
}

#[derive(Debug, Clone, Copy)]
struct CounterReading {
    seals: u64,
    seal_us: u64,
    compactions: u64,
    compact_us: u64,
    rewritten: u64,
    fsyncs: u64,
}

impl StoreCounters {
    fn new() -> Self {
        pdx::store::obs::touch();
        let r = Registry::global();
        let phase = |p| [("phase", p)];
        StoreCounters {
            seal: r.histogram("pdx_store_maintenance_us", "", &phase("seal")),
            compact: r.histogram("pdx_store_maintenance_us", "", &phase("compact")),
            seal_bytes: r.counter(
                "pdx_store_maintenance_bytes_rewritten_total",
                "",
                &phase("seal"),
            ),
            compact_bytes: r.counter(
                "pdx_store_maintenance_bytes_rewritten_total",
                "",
                &phase("compact"),
            ),
            fsync: r.histogram("pdx_wal_fsync_us", "", &[]),
        }
    }

    fn read(&self) -> CounterReading {
        CounterReading {
            seals: self.seal.count(),
            seal_us: self.seal.sum(),
            compactions: self.compact.count(),
            compact_us: self.compact.sum(),
            rewritten: self.seal_bytes.get() + self.compact_bytes.get(),
            fsyncs: self.fsync.count(),
        }
    }
}

/// The churn loop's state between operations.
struct Churn<'a> {
    coll: Arc<Collection>,
    model: Model,
    queries: &'a [f32],
    insert_rows: &'a [f32],
    dims: usize,
    dir: &'a Path,
    ops: Rng,
    draws: Rng,
    next_id: u64,
    inserts: usize,
    searches: usize,
    done: usize,
    job: Option<MaintenanceJob>,
    compactions_started: usize,
}

/// What one operation was, and how long its store call took.
enum Op {
    Search {
        qi: usize,
        us: f64,
        hits: Vec<Neighbor>,
    },
    Write {
        us: f64,
    },
}

impl Churn<'_> {
    /// The next fresh insert vector: pool rows in order, offset along
    /// the first dimension once the pool wraps so every vector stays
    /// distinct.
    fn insert_vector(&self, j: usize) -> Vec<f32> {
        let mut v = row(self.insert_rows, self.dims, j % INSERT_POOL).to_vec();
        v[0] += 0.5 * (j / INSERT_POOL) as f32;
        v
    }

    /// Runs the next operation of the seeded sequence; `spans` records
    /// the store calls under `root` in a traced run.
    fn step(
        &mut self,
        opts: &SearchOptions,
        report: &mut Report,
        mut spans: Option<(&mut Recorder, usize, &mut TracedStats)>,
    ) -> Op {
        self.done += 1;
        report.attempted += 1;
        let req = self.done as u64;
        match self.ops.below(4) {
            0 | 1 => {
                let qi = self.draws.below(POOL);
                let q = row(self.queries, self.dims, qi);
                self.searches += 1;
                let t = Instant::now();
                let hits = match spans.as_mut() {
                    None => self.coll.search(q, opts),
                    Some((rec, root, stats)) => {
                        stats.buffer_rows += self.coll.buffer_len() as f64;
                        let t0 = rec.now();
                        let snap = self.coll.snapshot();
                        let t1 = rec.now();
                        let (hits, tr) = capture(|| snap.search(q, opts));
                        let call = rec.push("store.search", t1, rec.now(), Some(*root), req);
                        rec.push("store.snapshot", t0, t1, Some(*root), req);
                        split_trace(rec, call, &tr);
                        stats.sums.add(&tr);
                        stats.snapshot_ns += t1 - t0;
                        stats.segments += snap.segment_count() as f64;
                        stats.tombstone_share +=
                            snap.tombstone_count() as f64 / snap.live_len().max(1) as f64;
                        hits
                    }
                };
                Op::Search {
                    qi,
                    us: micros(t.elapsed()),
                    hits,
                }
            }
            2 => {
                let id = self.next_id;
                let v = self.insert_vector(self.inserts);
                let seals = spans.as_ref().map(|(_, _, s)| s.counters.seal.count());
                let t = Instant::now();
                let t0 = spans.as_ref().map(|(rec, _, _)| rec.now());
                let out = self.coll.insert(id, &v);
                let us = micros(t.elapsed());
                if let (Some((rec, root, stats)), Some(t0), Some(seals)) = (spans, t0, seals) {
                    let sealed = stats.counters.seal.count() != seals;
                    let name = if sealed { "store.seal" } else { "store.insert" };
                    rec.push(name, t0, rec.now(), Some(root), req);
                    if !sealed {
                        stats.insert_us.push(us);
                    }
                }
                match out {
                    Ok(()) => self.model.insert(id, &v),
                    Err(e) => report.fail_op(format!("insert {id}: {e}")),
                }
                self.next_id += 1;
                self.inserts += 1;
                Op::Write { us }
            }
            _ => {
                let i = self.ops.below(self.model.ids.len());
                let id = self.model.ids[i];
                let t = Instant::now();
                let t0 = spans.as_ref().map(|(rec, _, _)| rec.now());
                let out = self.coll.delete(id);
                let us = micros(t.elapsed());
                if let (Some((rec, root, stats)), Some(t0)) = (spans, t0) {
                    rec.push("store.delete", t0, rec.now(), Some(root), req);
                    stats.delete_us.push(us);
                }
                match out {
                    Ok(()) => {
                        self.model.remove_at(i);
                    }
                    Err(e) => report.fail_op(format!("delete {id}: {e}")),
                }
                Op::Write { us }
            }
        }
    }

    /// Starts a background compaction once tombstones reach the
    /// threshold and no maintenance is in flight.
    fn maybe_compact(&mut self, report: &mut Report, rec: Option<(&mut Recorder, usize)>) {
        if let Some(job) = self.job.take() {
            if !job.is_finished() {
                self.job = Some(job);
                return;
            }
            if let Err(e) = job.wait() {
                report.error(format!("background compaction: {e}"));
            }
        }
        let live = self.coll.live_len();
        if self.coll.tombstone_count() * 1000 < COMPACT_PERMILLE * live {
            return;
        }
        let t0 = rec.as_ref().map(|(r, _)| r.now());
        match self.coll.compact_background() {
            Ok(job) => {
                self.job = Some(job);
                self.compactions_started += 1;
            }
            Err(StoreError::MaintenanceBusy) => {}
            Err(e) => report.error(format!("starting a compaction: {e}")),
        }
        if let (Some((rec, root)), Some(t0)) = (rec, t0) {
            rec.push("store.compact", t0, rec.now(), Some(root), self.done as u64);
        }
    }

    fn size_ratio(&self) -> f64 {
        dir_bytes(self.dir) as f64 / (self.model.ids.len() * self.dims * 4) as f64
    }

    fn finish(&mut self, report: &mut Report) {
        if let Some(job) = self.job.take() {
            if let Err(e) = job.wait() {
                report.error(format!("background compaction: {e}"));
            }
        }
    }
}

/// Per-layer readings of the traced half.
struct TracedStats {
    counters: StoreCounters,
    sums: TraceSums,
    snapshot_ns: u64,
    segments: f64,
    buffer_rows: f64,
    tombstone_share: f64,
    insert_us: Vec<f64>,
    delete_us: Vec<f64>,
}

/// Sets a collection up from empty in `dir` — create, preload, seal
/// into one segment — and returns the churn loop at its first
/// operation, with the set-up's wall time. Every churn loop of a seed
/// runs the same operations.
fn set_up<'a>(
    dir: &'a Path,
    preload: &[f32],
    inputs: (&'a [f32], &'a [f32]),
    d: usize,
    seed: u64,
) -> Result<(Churn<'a>, f64), String> {
    let err = |e: StoreError| e.to_string();
    let config = StoreConfig {
        block_size: DEFAULT_EXACT_BLOCK,
        group_size: DEFAULT_GROUP_SIZE,
        buffer_capacity: BUFFER,
        quantize: false,
    };
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let t0 = Instant::now();
    let coll = Collection::create(dir, d, config).map_err(err)?;
    coll.bulk_insert(0, preload).map_err(err)?;
    coll.compact().map_err(err)?;
    let setup = secs(t0);
    coll.set_group_commit(GroupCommit {
        sync_every: SYNC_EVERY,
        sync_interval: None,
    });
    let (queries, insert_rows) = inputs;
    let churn = Churn {
        coll: Arc::new(coll),
        model: Model::new(d, preload),
        queries,
        insert_rows,
        dims: d,
        dir,
        ops: Rng::stream(seed, "store-ops"),
        draws: Rng::stream(seed, "store-queries"),
        next_id: N as u64,
        inserts: 0,
        searches: 0,
        done: 0,
        job: None,
        compactions_started: 0,
    };
    Ok((churn, setup))
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let spec = *spec_by_name("sift").expect("table 1 has sift");
    let ds = generate(&spec, N + INSERT_POOL, POOL, args.seed);
    let d = ds.dims();
    let (preload, insert_rows) = ds.data.split_at(N * d);
    let work = WorkDir::new("store-churn-sift").map_err(|e| e.to_string())?;
    let dir = work.path().join("collection");
    let inputs = (&ds.queries[..], insert_rows);
    let opts = options(0, 1, false);
    let seconds = args.seconds as f64;
    let mut recalls = Vec::new();

    let mut churn = if !report.trace() {
        // ── The operation stream, replayed pass after pass, each pass
        // on a collection set up afresh: every pass runs the same
        // operations on the same states, so the i-th search (or write)
        // is the same request in every pass ──
        // The timed set-ups run back to back: one right after a pass
        // would wait on that pass's writes reaching the disk. The last
        // one serves the first pass.
        let mut setup = Vec::new();
        let mut ready = None;
        for _ in 0..STORE_SETUP_REPS {
            drop(ready.take());
            let (churn, s) = set_up(&dir, preload, inputs, d, args.seed)?;
            setup.push(s);
            ready = Some(churn);
        }
        let serving = serving_starts();
        let (mut peaks, mut sizes) = (Vec::new(), Vec::new());
        let (mut search_passes, mut write_passes) = (Vec::new(), Vec::new());
        let passes = passes_for(seconds, PASS_SECONDS);
        let start = Instant::now();
        let mut last = None;
        while search_passes.len() < passes {
            too_slow(start, search_passes.len(), passes, seconds)?;
            drop(last.take());
            let mut churn = match ready.take() {
                Some(churn) => churn,
                None => set_up(&dir, preload, inputs, d, args.seed)?.0,
            };
            // The peak covers the churn, not the set-up.
            crate::machine::reset_peak_rss();
            let (mut search_us, mut write_us) = (Vec::new(), Vec::new());
            while churn.done < STREAM_OPS {
                match churn.step(&opts, report, None) {
                    Op::Search { qi, us, hits } => {
                        search_us.push(us);
                        if churn.searches.is_multiple_of(CHECK_EVERY) {
                            let q = row(&ds.queries, d, qi);
                            match churn.model.verify(q, &hits) {
                                Ok(r) => recalls.push(r),
                                Err(e) => report.fail_op(format!("search of query {qi}: {e}")),
                            }
                        }
                    }
                    Op::Write { us } => write_us.push(us),
                }
                if churn.done.is_multiple_of(POLL_EVERY) {
                    churn.maybe_compact(report, None);
                }
                if churn.done.is_multiple_of(SIZE_EVERY) {
                    sizes.push(churn.size_ratio());
                }
            }
            churn.finish(report);
            peaks.extend(crate::machine::peak_rss_mb());
            search_passes.push(search_us);
            write_passes.push(write_us);
            last = Some(churn);
        }
        serving_ends(report, &serving);
        // The largest peak of any pass's churn.
        report.set("peak_rss_mb", peaks.iter().copied().fold(0.0, f64::max));
        let searches = Replays {
            passes: search_passes,
        };
        let writes = Replays {
            passes: write_passes,
        };
        searches.log();
        report.set("qps", searches.qps(1));
        report.latency("query_p50_us", "query_p99_us", &searches.latencies_us());
        report.latency(
            "store.write_p50_us",
            "store.write_p99_us",
            &writes.latencies_us(),
        );
        report.set("setup_s", median_of(&setup));
        match crate::stats::median(&sizes) {
            Some(m) => report.set("bytes_per_live_byte", m),
            None => report.error("no collection-size sample"),
        }
        let churn = last.expect("at least one pass");
        eprintln!(
            "  set-up {:.3} s; each pass: {} ops, {} searches, {} inserts, {} compactions started",
            median_of(&setup),
            churn.done,
            churn.searches,
            churn.inserts,
            churn.compactions_started
        );
        churn
    } else {
        let (mut churn, setup) = set_up(&dir, preload, inputs, d, args.seed)?;
        eprintln!(
            "  set-up {setup:.3} s, {} segment(s)",
            churn.coll.segment_count()
        );
        // Untraced half: the baseline for the tracing overhead (and the
        // correctness checks).
        let mut w = Window::with_min_samples(seconds / 2.0, 0);
        let first = churn.searches;
        while w.running(0) {
            if let Op::Search { qi, hits, .. } = churn.step(&opts, report, None) {
                if churn.searches.is_multiple_of(CHECK_EVERY) {
                    let q = row(&ds.queries, d, qi);
                    match w.exclude(|| churn.model.verify(q, &hits)) {
                        Ok(r) => recalls.push(r),
                        Err(e) => report.fail_op(format!("search of query {qi}: {e}")),
                    }
                }
            }
            if churn.done.is_multiple_of(POLL_EVERY) {
                w.exclude(|| churn.maybe_compact(report, None));
            }
        }
        let untraced_qps = (churn.searches - first) as f64 / w.elapsed();

        let traced = options(0, 1, true);
        let mut stats = TracedStats {
            counters: StoreCounters::new(),
            sums: TraceSums::default(),
            snapshot_ns: 0,
            segments: 0.0,
            buffer_rows: 0.0,
            tombstone_share: 0.0,
            insert_us: Vec::new(),
            delete_us: Vec::new(),
        };
        // The preload's own layout for the kernel replay (what the
        // sealed segment holds: a compaction's output equals a fresh
        // flat build of the surviving rows).
        let flat = FlatPdx::new(preload, N, d, DEFAULT_EXACT_BLOCK, DEFAULT_GROUP_SIZE);
        let before = stats.counters.read();
        let (inserts0, searches0) = (churn.inserts, churn.searches);
        let mut rec = Recorder::new(Instant::now());
        let root = rec.open("run", None, 0);
        let mut write_us = Vec::new();
        // Stretched, like the untraced window, until the writes can
        // report their p99.
        let w = Window::new(seconds / 2.0);
        while w.running(write_us.len()) {
            if let Op::Write { us } =
                churn.step(&traced, report, Some((&mut rec, root, &mut stats)))
            {
                write_us.push(us);
            }
            if churn.done.is_multiple_of(POLL_EVERY) {
                churn.maybe_compact(report, Some((&mut rec, root)));
            }
        }
        let traced_qps = (churn.searches - searches0) as f64 / w.elapsed();

        let pairs = (0..KERNEL_QUERIES).flat_map(|qi| {
            let q = row(&ds.queries, d, qi);
            flat.collection.blocks.iter().map(move |b| (q, &b.pdx))
        });
        let ns_per_value = f32_kernel_replay(&mut rec, root, pairs);
        rec.close(root);
        churn.finish(report);
        let after = stats.counters.read();

        let searches = (churn.searches - searches0).max(1) as f64;
        let inserted_bytes = ((churn.inserts - inserts0) * d * 4).max(1) as f64;
        stats.sums.report(report);
        report.set(
            "store.snapshot_us",
            stats.snapshot_ns as f64 / searches / 1e3,
        );
        report.set("store.segments_per_search", stats.segments / searches);
        report.set("store.buffer_rows_per_search", stats.buffer_rows / searches);
        report.set("store.tombstone_share", stats.tombstone_share / searches);
        report.set("store.insert_us", mean(&stats.insert_us));
        report.set("store.delete_us", mean(&stats.delete_us));
        let seals = after.seals - before.seals;
        let compactions = after.compactions - before.compactions;
        report.set("store.seals", seals as f64);
        report.set("store.compactions", compactions as f64);
        report.set(
            "store.seal_ms",
            (after.seal_us - before.seal_us) as f64 / seals.max(1) as f64 / 1e3,
        );
        report.set(
            "store.compact_ms",
            (after.compact_us - before.compact_us) as f64 / compactions.max(1) as f64 / 1e3,
        );
        report.set("store.wal_fsyncs", (after.fsyncs - before.fsyncs) as f64);
        report.set(
            "store.write_amp",
            (after.rewritten - before.rewritten) as f64 / inserted_bytes,
        );
        report.latency("store.write_p50_us", "store.write_p99_us", &write_us);
        report.set(
            "obs.trace_overhead_share",
            overhead(untraced_qps, traced_qps),
        );

        report.set("kernels.f32_ns_per_value", ns_per_value);
        reconcile(report, &rec, root);
        churn
    };
    churn.finish(report);

    // ── Final check, off the clock: the settled collection is exact ──
    for qi in 0..RECALL_SAMPLE.min(16) {
        let q = row(&ds.queries, d, qi);
        report.attempted += 1;
        match churn.model.verify(q, &churn.coll.search(q, &opts)) {
            Ok(r) => recalls.push(r),
            Err(e) => report.fail_op(format!("final search of query {qi}: {e}")),
        }
    }
    report.set(
        "recall_at_10",
        recalls.iter().sum::<f64>() / recalls.len().max(1) as f64,
    );
    Ok(())
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}
