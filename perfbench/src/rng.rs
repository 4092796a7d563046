//! Seeded input generation: a SplitMix64 stream per purpose, so the
//! same `--seed` always yields the same query, operation and arrival
//! sequences, and changing one sequence never shifts another.

/// SplitMix64 — tiny, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `purpose` under the run's seed.
    pub fn stream(seed: u64, purpose: &str) -> Self {
        // FNV-1a of the purpose keeps streams apart for equal seeds.
        let tag = purpose.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        Rng(seed ^ tag.rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank_at(rng.unit())
    }

    /// The rank at cumulative probability `u`.
    fn rank_at(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// `len` draws stratified over the distribution — the ranks at
    /// `u = (i + ½) / len` — in a seeded random order. Every seed asks
    /// for the same ranks the same number of times, so the share of
    /// rarely asked (cold) ranks does not vary with the seed.
    pub fn stratified(&self, len: usize, rng: &mut Rng) -> Vec<usize> {
        let mut ranks: Vec<usize> = (0..len)
            .map(|i| self.rank_at((i as f64 + 0.5) / len as f64))
            .collect();
        for i in (1..len).rev() {
            ranks.swap(i, rng.below(i + 1));
        }
        ranks
    }
}

/// Arrival times (seconds from the start) of an open loop offering
/// `rate` requests per second for `duration` seconds: a Poisson process
/// conditioned on its count, i.e. `round(rate · duration)` independent
/// uniform times, sorted. Fixing the count keeps the offered load of a
/// level identical across seeds; the spacing stays Poisson.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let n = (rate * duration).round() as usize;
    let mut out: Vec<f64> = (0..n).map(|_| rng.unit() * duration).collect();
    out.sort_by(f64::total_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, purpose: &str) -> Vec<u64> {
        let mut r = Rng::stream(seed, purpose);
        (0..64).map(|_| r.next_u64()).collect()
    }

    #[test]
    fn same_seed_same_sequences() {
        assert_eq!(draws(7, "queries"), draws(7, "queries"));
        assert_ne!(draws(7, "queries"), draws(8, "queries"));
        assert_ne!(draws(7, "queries"), draws(7, "ops"));

        let zipf = Zipf::new(1000, 1.0);
        let z = |seed| {
            let mut r = Rng::stream(seed, "zipf");
            (0..256).map(|_| zipf.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(z(3), z(3));
        assert_ne!(z(3), z(4));
        let st = |seed| zipf.stratified(500, &mut Rng::stream(seed, "zipf"));
        assert_eq!(st(3), st(3));
        assert_ne!(st(3), st(4));
        // Other seeds reorder the same ranks.
        let (mut a, mut b) = (st(3), st(4));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);

        let a = |seed| poisson_arrivals(&mut Rng::stream(seed, "arrivals"), 500.0, 2.0);
        assert_eq!(a(11), a(11));
        assert_ne!(a(11), a(12));
    }

    #[test]
    fn draws_have_the_right_shape() {
        let mut r = Rng::stream(1, "shape");
        assert!((0..10_000).all(|_| r.below(10) < 10));
        let arrivals = poisson_arrivals(&mut r, 1000.0, 5.0);
        assert_eq!(arrivals.len(), 5000);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.iter().all(|&t| (0.0..5.0).contains(&t)));
        // Poisson spacing: the mean gap is 1 / rate, and about e^-1 of
        // the gaps exceed it.
        let long = arrivals.windows(2).filter(|w| w[1] - w[0] > 1e-3).count();
        assert!((1650..2050).contains(&long), "long gaps {long}");
        let zipf = Zipf::new(100, 1.0);
        let head = (0..10_000).filter(|_| zipf.sample(&mut r) == 0).count();
        // P(rank 0) = 1 / H_100 ≈ 0.193.
        assert!((1700..2200).contains(&head), "head {head}");
    }
}
