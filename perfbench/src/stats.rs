//! Latency summaries under one rule: a percentile is reported only
//! when at least ten samples lie beyond it, and an empty sample is a
//! failure — never a zero that would read as a gain.
//!
//! The end-to-end runs replay a fixed request stream pass after pass
//! and first reduce each request to its fastest replay
//! ([`replay_minima`]); the percentiles are then taken over all the
//! requests. A stall the program causes at a request recurs in every
//! pass and stays, while one the host causes (a vCPU taken away) lands
//! at random and is left out unless it hits that request in every
//! pass.

/// The tail the end-to-end latencies report.
pub const TAIL: f64 = 0.99;
/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;
/// The smallest sample whose [`TAIL`] percentile is reportable.
pub const MIN_TAIL_SAMPLES: usize = 1000;

/// Median and tail of one latency sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly after the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The `q` quantile (nearest rank) of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (the median of a non-empty
/// sample is always reportable).
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || (q > 0.5 && beyond(xs.len(), q) < MIN_BEYOND) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q)])
}

/// The median of a non-empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 0.5)
}

/// Median and p99 of `xs`; an error when the sample is empty or too
/// small for a p99.
pub fn summarize(xs: &[f64]) -> Result<Summary, String> {
    if xs.is_empty() {
        return Err("empty latency sample".to_string());
    }
    match percentile(xs, TAIL) {
        Some(p99) => Ok(Summary {
            n: xs.len(),
            p50: median(xs).expect("non-empty"),
            p99,
        }),
        None => Err(format!(
            "{} samples leave fewer than {MIN_BEYOND} beyond p99 (need {MIN_TAIL_SAMPLES})",
            xs.len()
        )),
    }
}

/// Each request's fastest latency over the passes of a replayed stream
/// (`passes[p][i]` is pass `p`'s latency of request `i`; every pass
/// covers the same requests).
pub fn replay_minima(passes: &[Vec<f64>]) -> Vec<f64> {
    let len = passes.first().map_or(0, Vec::len);
    assert!(
        passes.iter().all(|p| p.len() == len),
        "every pass replays the same stream"
    );
    (0..len)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replayed_tail_keeps_program_stalls_and_drops_host_ones() {
        let steady =
            |p: usize| -> Vec<f64> { (0..1000).map(|i| f64::from(i + p as u32)).collect() };
        // The host stalls a fifth of the requests of every pass, at
        // random: each request's fastest replay is still steady.
        let mut rng = crate::rng::Rng::stream(1, "stalls");
        let mut passes: Vec<Vec<f64>> = (0..5).map(steady).collect();
        for p in &mut passes {
            for x in p.iter_mut() {
                if rng.below(5) == 0 {
                    *x = 1e6;
                }
            }
        }
        let pooled = summarize(&passes.concat()).unwrap();
        assert_eq!(pooled.p99, 1e6, "pooled, the stalls set the p99");
        let s = summarize(&replay_minima(&passes)).unwrap();
        assert!(s.p99 < 1e3, "host stalls left out, p99 {}", s.p99);
        // The program stalls at the same 2 % of requests in every pass
        // (a cold bucket, a seal): the p99 reads the stall.
        for p in &mut passes {
            for x in p.iter_mut().step_by(50) {
                *x = x.max(5e5);
            }
        }
        let s = summarize(&replay_minima(&passes)).unwrap();
        assert_eq!((s.n, s.p99), (1000, 5e5));
        // One pass is one sample per request.
        assert_eq!(replay_minima(&passes[..1]), passes[0]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(percentile(&xs[..999], 0.99), None);
        // p90 of 100 samples leaves exactly ten beyond.
        assert_eq!(percentile(&xs[..100], 0.9), Some(90.0));
        assert_eq!(percentile(&xs[..99], 0.9), None);
        let s = summarize(&xs).unwrap();
        assert_eq!((s.n, s.p50, s.p99), (1000, 500.0, 990.0));
        assert!(summarize(&xs[..999]).is_err());
    }

    #[test]
    fn p99_is_taken_over_the_whole_sample() {
        // A burst of slow samples in one stretch of the run sets the
        // p99 once it holds more than 1 % of the samples.
        let mut xs: Vec<f64> = (0..3500).map(|i| f64::from(i % 1000)).collect();
        for x in &mut xs[1000..1100] {
            *x = 1e6;
        }
        let s = summarize(&xs).unwrap();
        assert_eq!((s.n, s.p99), (3500, 1e6));
        // Under 1 % of them leaves the p99 on the steady samples.
        for x in &mut xs[1030..1100] {
            *x = 0.0;
        }
        assert!(summarize(&xs).unwrap().p99 < 1e3);
    }

    #[test]
    fn empty_sample_is_an_error_not_a_zero() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
        assert!(summarize(&[]).is_err());
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
