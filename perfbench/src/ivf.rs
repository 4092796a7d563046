//! `ivf-openai-1536`: the paper's approximate-search path at high
//! dimensionality. An IVF `PDX1` container of 20 000 openai-like
//! 1536-d vectors is built, written and opened resident; one client
//! runs a closed loop of single queries (k = 10, nprobe = 16, one
//! thread, PDX-BOND with the distance-to-means order): a stream of
//! 1 000 drawn uniformly from a pool of 1 000 distinct queries, replayed
//! pass after pass.

use crate::args::Args;
use crate::common::*;
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::Recorder;
use pdx::datasets::persist::write_ivf_pdx_path;
use pdx::obs::trace::capture;
use pdx::prelude::*;
use std::time::Instant;

const N: usize = 20_000;
const POOL: usize = 1_000;
/// Requests in the replayed stream: enough for a p99 with ten beyond.
const STREAM: usize = 1_000;
/// Seconds one pass of the stream takes on the reference machine.
const PASS_SECONDS: f64 = 3.0;
const NPROBE: usize = 16;
/// Pool queries whose probed blocks the kernel replay scans.
const KERNEL_QUERIES: usize = 8;

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let spec = *spec_by_name("openai").expect("table 1 has openai");
    let mut ds = generate(&spec, N, POOL, args.seed);
    let d = ds.dims();
    let dir = WorkDir::new("ivf-openai-1536").map_err(|e| e.to_string())?;
    let path = dir.path().join("ivf.pdx");
    let nlist = IvfIndex::default_nlist(N);

    // ── Set-up: k-means + layout, container write, resident open ──
    let (mut setup, mut build, mut open) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        let buckets = train_buckets(&ds.data, d, nlist, args.seed);
        let ivf = IvfPdx::new(&ds.data, d, &buckets, DEFAULT_GROUP_SIZE);
        build.push(secs(t0));
        write_ivf_pdx_path(&path, d, &ivf.centroids.pdx.to_rows(), &ivf.blocks)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let index =
            AnyIndex::open_with(&path, OpenOptions::default()).map_err(|e| e.to_string())?;
        open.push(secs(t1));
        setup.push(secs(t0));
        // Only the traced kernel replay needs the in-memory deployment.
        built = Some((index, report.trace().then_some(ivf)));
    }
    let (index, ivf) = built.expect("at least one set-up");
    let file_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    eprintln!(
        "  set-up {:.2} s (k-means + layout {:.2} s, open {:.0} ms), container {:.1} MiB",
        median_of(&setup),
        median_of(&build),
        median_of(&open) * 1e3,
        file_bytes as f64 / (1u64 << 20) as f64
    );

    // Ground truth for the recall check, then the base vectors go: the
    // measured process holds the opened index and the query pool.
    let sample = &ds.queries[..RECALL_SAMPLE * d];
    let truth = truth(&ds.data, sample, d);
    ds.data = Vec::new();
    let serving = serving_starts();

    let mut draws = Rng::stream(args.seed, "ivf-queries");
    let mut next_query = || draws.below(POOL);
    let opts = options(NPROBE, 1, false);
    let seconds = args.seconds as f64;
    for _ in 0..50 {
        std::hint::black_box(index.search(row(&ds.queries, d, next_query()), &opts));
    }

    if !report.trace() {
        // A fixed stream of pool queries, replayed pass after pass.
        let stream: Vec<usize> = (0..STREAM).map(|_| next_query()).collect();
        let replays = replay_stream(passes_for(seconds, PASS_SECONDS), seconds, STREAM, |i| {
            let qi = stream[i];
            let t = Instant::now();
            let hits = index.search(row(&ds.queries, d, qi), &opts);
            let us = micros(t.elapsed());
            check_len(report, &hits, qi);
            Ok(us)
        })?;
        serving_ends(report, &serving);
        replays.log();
        report.set("qps", replays.qps(1));
        report.latency("query_p50_us", "query_p99_us", &replays.latencies_us());
        report.set("setup_s", median_of(&setup));
        report.set(
            "bytes_per_live_byte",
            file_bytes as f64 / (N * d * 4) as f64,
        );
    } else {
        // Untraced half: the baseline for the tracing overhead.
        let w = Window::with_min_samples(seconds / 2.0, 0);
        let mut n = 0usize;
        while w.running(n) {
            let qi = next_query();
            let hits = index.search(row(&ds.queries, d, qi), &opts);
            check_len(report, &hits, qi);
            n += 1;
        }
        let untraced_qps = n as f64 / w.elapsed();

        // Traced half: the program's phase split inside each call.
        let traced = options(NPROBE, 1, true);
        let mut rec = Recorder::new(Instant::now());
        let root = rec.open("run", None, 0);
        let mut sums = TraceSums::default();
        let w = Window::with_min_samples(seconds / 2.0, 0);
        let mut n = 0u64;
        while w.running(0) {
            let qi = next_query();
            let t0 = rec.now();
            let (hits, t) = capture(|| index.search(row(&ds.queries, d, qi), &traced));
            let call = rec.push("engine.search", t0, rec.now(), Some(root), n);
            split_trace(&mut rec, call, &t);
            sums.add(&t);
            check_len(report, &hits, qi);
            n += 1;
        }
        let traced_qps = n as f64 / w.elapsed();

        // Kernel replay: the dispatched f32 kernel over the blocks the
        // first pool queries probe.
        let ivf = ivf.expect("kept for the traced run");
        let blocks = &ivf.blocks;
        let pairs = (0..KERNEL_QUERIES).flat_map(|qi| {
            let q = row(&ds.queries, d, qi);
            let probed = ivf.probe_order(q, NPROBE, Metric::L2);
            probed
                .into_iter()
                .map(move |b| (q, &blocks[b as usize].pdx))
        });
        let ns_per_value = f32_kernel_replay(&mut rec, root, pairs);
        rec.close(root);

        sums.report(report);
        report.set("kernels.f32_ns_per_value", ns_per_value);
        report.set("index.build_s", median_of(&build));
        report.set("engine.open_ms", median_of(&open) * 1e3);
        report.set(
            "obs.trace_overhead_share",
            overhead(untraced_qps, traced_qps),
        );
        reconcile(report, &rec, root);
    }

    // ── Correctness, off the clock: recall against brute force ──
    let got: Vec<Vec<u64>> = (0..RECALL_SAMPLE)
        .map(|qi| ids(&index.search(row(sample, d, qi), &opts)))
        .collect();
    report.attempted += RECALL_SAMPLE as u64;
    report.set("recall_at_10", mean_recall(&truth, &got, K));
    Ok(())
}

fn check_len(report: &mut Report, hits: &[Neighbor], qi: usize) {
    report.attempted += 1;
    if hits.len() != K {
        report.fail_op(format!(
            "query {qi} returned {} of {K} neighbours",
            hits.len()
        ));
    }
}
