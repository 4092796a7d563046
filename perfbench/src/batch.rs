//! `batch-sq8-contriever`: offline query batches over the quantized
//! path. An IVF-SQ8 `PDX2` container of 50 000 contriever-like 768-d
//! vectors (with its exact rerank payload) is built, written and
//! opened resident; the client answers batches of 32 queries, drawn
//! uniformly from a pool of 2 048, through `search_batch` at two
//! threads (k = 10, nprobe = 16, refine = 4): a stream of 1 000 batches,
//! replayed pass after pass.
//!
//! The traced run replays a sample of queries through the SQ8 path's
//! public phases — `probe_order`, `sq8_search`, `sq8_rerank` — which
//! must reproduce the index's answers bit for bit.

use crate::args::Args;
use crate::common::*;
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::Recorder;
use pdx::datasets::persist::write_ivf_sq8_path;
use pdx::prelude::*;
use std::time::Instant;

const N: usize = 50_000;
const POOL: usize = 2_048;
const NPROBE: usize = 16;
const BATCH: usize = 32;
/// Batches in the replayed stream: enough for a p99 with ten beyond.
const STREAM: usize = 1_000;
/// Seconds one pass of the stream takes on the reference machine.
const PASS_SECONDS: f64 = 3.0;
/// Batches timed at one and at two threads for `exec.scaling`.
const SCALING_BATCHES: usize = 40;
/// Pool queries replayed phase by phase in the traced run.
const REPLAY_QUERIES: usize = 256;
/// Pool queries whose probed blocks the SQ8 kernel replay scans.
const KERNEL_QUERIES: usize = 8;

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let spec = *spec_by_name("contriever").expect("table 1 has contriever");
    let mut ds = generate(&spec, N, POOL, args.seed);
    let d = ds.dims();
    let dir = WorkDir::new("batch-sq8-contriever").map_err(|e| e.to_string())?;
    let path = dir.path().join("ivf.sq8.pdx");
    let nlist = IvfIndex::default_nlist(N);
    let err = |e: std::io::Error| e.to_string();

    // ── Set-up: k-means + SQ8 layout, container write, resident open ──
    let (mut setup, mut build, mut open) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        let buckets = train_buckets(&ds.data, d, nlist, args.seed);
        let ivf = IvfSq8::new(&ds.data, d, &buckets, DEFAULT_GROUP_SIZE);
        build.push(secs(t0));
        write_ivf_sq8_path(
            &path,
            &ivf.quantizer,
            &ivf.centroids.pdx.to_rows(),
            &ivf.blocks,
            Some(&ivf.rows),
        )
        .map_err(err)?;
        let t1 = Instant::now();
        let index = AnyIndex::open_with(&path, OpenOptions::default()).map_err(err)?;
        open.push(secs(t1));
        setup.push(secs(t0));
        // Only the traced replay needs the in-memory deployment.
        built = Some((index, report.trace().then_some(ivf)));
    }
    let (index, ivf) = built.expect("at least one set-up");
    let file_bytes = std::fs::metadata(&path).map_err(err)?.len();
    eprintln!(
        "  set-up {:.2} s (k-means + layout {:.2} s, open {:.0} ms), container {:.1} MiB ({})",
        median_of(&setup),
        median_of(&build),
        median_of(&open) * 1e3,
        file_bytes as f64 / (1u64 << 20) as f64,
        index.kind()
    );

    // Ground truth for the recall check, then the base vectors go: the
    // measured process holds the opened index and the query pool.
    let sample = &ds.queries[..RECALL_SAMPLE * d];
    let truth = truth(&ds.data, sample, d);
    ds.data = Vec::new();
    let serving = serving_starts();

    let mut draws = Rng::stream(args.seed, "batch-queries");
    let mut buf = vec![0.0f32; BATCH * d];
    let mut next_batch = |buf: &mut [f32]| {
        for slot in buf.chunks_exact_mut(d) {
            slot.copy_from_slice(row(&ds.queries, d, draws.below(POOL)));
        }
    };
    let opts = options(NPROBE, THREADS, false);
    let seconds = args.seconds as f64;
    for _ in 0..4 {
        next_batch(&mut buf);
        std::hint::black_box(index.search_batch(&buf, &opts));
    }

    if !report.trace() {
        // A fixed stream of batches, replayed pass after pass.
        let picks: Vec<usize> = (0..STREAM * BATCH).map(|_| draws.below(POOL)).collect();
        let replays = replay_stream(passes_for(seconds, PASS_SECONDS), seconds, STREAM, |i| {
            for (slot, &qi) in buf.chunks_exact_mut(d).zip(&picks[i * BATCH..]) {
                slot.copy_from_slice(row(&ds.queries, d, qi));
            }
            let t = Instant::now();
            let out = index.search_batch(&buf, &opts);
            let us = micros(t.elapsed());
            check(report, &out);
            Ok(us)
        })?;
        serving_ends(report, &serving);
        replays.log();
        report.set("qps", replays.qps(BATCH));
        report.latency("query_p50_us", "query_p99_us", &replays.latencies_us());
        report.set("setup_s", median_of(&setup));
        report.set(
            "bytes_per_live_byte",
            file_bytes as f64 / (N * d * 4) as f64,
        );
    } else {
        // Both halves count only the time inside `search_batch`.
        let ivf = ivf.expect("kept for the traced run");
        let w = Window::with_min_samples(seconds / 2.0, 0);
        let (mut n, mut in_calls) = (0, 0.0);
        while w.running(0) {
            next_batch(&mut buf);
            let t = Instant::now();
            let out = index.search_batch(&buf, &opts);
            in_calls += secs(t);
            check(report, &out);
            n += BATCH;
        }
        let untraced_qps = n as f64 / in_calls;

        let mut rec = Recorder::new(Instant::now());
        let root = rec.open("run", None, 0);
        let traced = options(NPROBE, THREADS, true);
        let w = Window::with_min_samples(seconds / 2.0, 0);
        let (mut n, mut batches, mut in_calls) = (0, 0u64, 0u64);
        while w.running(0) {
            next_batch(&mut buf);
            let t0 = rec.now();
            let out = index.search_batch(&buf, &traced);
            let t1 = rec.now();
            rec.push("exec.search_batch", t0, t1, Some(root), batches);
            check(report, &out);
            n += BATCH;
            batches += 1;
            in_calls += t1 - t0;
        }
        let traced_qps = n as f64 / (in_calls as f64 / 1e9);
        report.set(
            "obs.trace_overhead_share",
            overhead(untraced_qps, traced_qps),
        );

        // Worker-pool scaling: the same batches at one and two threads.
        let mut scaling = [0.0; 2];
        for (slot, threads) in scaling.iter_mut().zip([1, THREADS]) {
            let o = options(NPROBE, threads, false);
            let mut replay = Rng::stream(args.seed, "batch-scaling");
            let mut ns = 0;
            for b in 0..SCALING_BATCHES {
                for s in buf.chunks_exact_mut(d) {
                    s.copy_from_slice(row(&ds.queries, d, replay.below(POOL)));
                }
                let t0 = rec.now();
                let out = index.search_batch(&buf, &o);
                let t1 = rec.now();
                rec.push("exec.search_batch", t0, t1, Some(root), b as u64);
                check(report, &out);
                ns += t1 - t0;
            }
            *slot = (SCALING_BATCHES * BATCH) as f64 / (ns as f64 / 1e9);
        }
        report.set("exec.scaling", scaling[1] / scaling[0]);

        replay(report, &mut rec, root, &ivf, index.as_ref(), &ds.queries, d);
        rec.close(root);
        report.set("index.build_s", median_of(&build));
        report.set("engine.open_ms", median_of(&open) * 1e3);
        reconcile(report, &rec, root);
    }

    // ── Correctness, off the clock: recall against brute force ──
    let got: Vec<Vec<u64>> = index
        .search_batch(sample, &opts)
        .iter()
        .map(|h| ids(h))
        .collect();
    report.attempted += RECALL_SAMPLE as u64;
    report.set("recall_at_10", mean_recall(&truth, &got, K));
    Ok(())
}

fn check(report: &mut Report, out: &[Vec<Neighbor>]) {
    report.attempted += BATCH as u64;
    if out.len() != BATCH {
        report.failed += BATCH as u64 - out.len() as u64;
        report.error(format!("a batch of {BATCH} returned {} lists", out.len()));
    }
    for (i, hits) in out.iter().enumerate() {
        if hits.len() != K {
            report.fail_op(format!(
                "batch query {i} returned {} of {K} neighbours",
                hits.len()
            ));
        }
    }
}

/// Replays pool queries through the SQ8 path's public phases, each a
/// span, then the SQ8 kernel over the probed blocks; the replayed
/// answers must equal the index's bit for bit.
fn replay(
    report: &mut Report,
    rec: &mut Recorder,
    root: usize,
    ivf: &IvfSq8,
    index: &dyn VectorIndex,
    queries: &[f32],
    d: usize,
) {
    let single = options(NPROBE, 1, false);
    let (mut route, mut scan, mut rerank) = (0u64, 0u64, 0u64);
    let (mut blocks_seen, mut vectors, mut candidates) = (0usize, 0usize, 0usize);
    for qi in 0..REPLAY_QUERIES {
        let q = row(queries, d, qi);
        let req = qi as u64;
        let t0 = rec.now();
        let order = ivf.probe_order(q, NPROBE, Metric::L2);
        let t1 = rec.now();
        let blocks: Vec<&Sq8Block> = order.iter().map(|&b| &ivf.blocks[b as usize]).collect();
        let sq = ivf.quantizer.prepare_query(Metric::L2, q);
        let cands = pdx::core::search::sq8_search_policy(
            &sq,
            &blocks,
            K * DEFAULT_REFINE,
            single.step,
            KERNEL,
        );
        let t2 = rec.now();
        let hits = sq8_rerank(Metric::L2, &ivf.rows, d, q, &cands, K);
        let t3 = rec.now();
        rec.push("index.route", t0, t1, Some(root), req);
        rec.push("search.sq8_scan", t1, t2, Some(root), req);
        rec.push("search.rerank", t2, t3, Some(root), req);
        route += t1 - t0;
        scan += t2 - t1;
        rerank += t3 - t2;
        blocks_seen += blocks.len();
        vectors += blocks.iter().map(|b| b.len()).sum::<usize>();
        candidates += cands.len();
        report.attempted += 1;
        let want = index.search(q, &single);
        let same = hits.len() == want.len()
            && hits
                .iter()
                .zip(&want)
                .all(|(a, b)| a.id == b.id && a.distance.to_bits() == b.distance.to_bits());
        if !same {
            report.fail_op(format!("replay of query {qi} differs from the index"));
        }
    }
    let q = REPLAY_QUERIES as f64;
    report.set("index.route_us", route as f64 / q / 1e3);
    report.set("search.sq8_scan_us", scan as f64 / q / 1e3);
    report.set("search.rerank_us", rerank as f64 / q / 1e3);
    report.set("search.rerank_candidates_per_query", candidates as f64 / q);
    report.set("search.blocks_per_query", blocks_seen as f64 / q);
    report.set("search.vectors_per_query", vectors as f64 / q);

    let (mut ns, mut values) = (0u64, 0u64);
    let mut out = Vec::new();
    for qi in 0..KERNEL_QUERIES {
        let q = row(queries, d, qi);
        let sq = ivf.quantizer.prepare_query(Metric::L2, q);
        for b in ivf.probe_order(q, NPROBE, Metric::L2) {
            let codes = &ivf.blocks[b as usize].codes;
            out.resize(codes.len(), 0.0);
            let t0 = rec.now();
            sq8_scan_policy(&sq, codes, &mut out, KERNEL);
            let t1 = rec.now();
            std::hint::black_box(&out);
            rec.push("kernels.sq8_scan", t0, t1, Some(root), qi as u64);
            ns += t1 - t0;
            values += (codes.len() * d) as u64;
        }
    }
    report.set("kernels.sq8_ns_per_value", ns as f64 / values.max(1) as f64);
}
