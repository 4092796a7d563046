//! The repository benchmark: four seeded workloads driven through the
//! public API, each reporting end-to-end metrics (`--trace 0`) or
//! per-layer metrics from a traced run (`--trace 1`). See
//! `BENCHMARK.json` and `perfbench/METRICS.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ivf-openai-1536 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Standard output carries a machine-header line, then the result as
//! one JSON object on the last line. The exit code is non-zero when
//! any operation failed or any correctness check did not hold.

mod args;
mod batch;
mod common;
mod ivf;
mod machine;
mod report;
mod rng;
mod serve;
mod spans;
mod stats;
mod store;

use args::{Args, Workload, USAGE};
use report::Report;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = machine::refuse_overrides() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    println!("{}", machine::header());
    eprintln!(
        "{} (seed {}, {} s, trace {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut report = Report::new(args.trace);
    let outcome = match args.workload {
        Workload::IvfOpenai => ivf::run(&args, &mut report),
        Workload::StoreChurn => store::run(&args, &mut report),
        Workload::ServeOoc => serve::run(&args, &mut report),
        Workload::BatchSq8 => batch::run(&args, &mut report),
    };
    if let Err(e) = outcome {
        report.error(e);
    }
    if report.attempted > 0 {
        report.set(
            "ok_ops_share",
            1.0 - report.failed as f64 / report.attempted as f64,
        );
    }
    for e in report.errors() {
        eprintln!("error: {e}");
    }
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
