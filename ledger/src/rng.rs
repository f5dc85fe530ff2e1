//! Seeded input generation: every target, batch, write position, Zipf
//! draw and fault seed comes from `--seed` through this stream, so the
//! same seed gives the same inputs on every host.

use parp_net::splitmix64;

/// A splitmix64 counter stream (the same mixer the fault plane uses).
pub struct Rng(u64);

impl Rng {
    /// One independent stream per `(seed, stream)` pair, so adding a
    /// draw to one workload never shifts another workload's inputs.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over `0..n`: rank 0 carries the most mass.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += (rank as f64).powf(-exponent);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let target = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= target)
            .min(self.cumulative.len().saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..8).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn zipf_skews_toward_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = Rng::new(3, 0);
        let mut counts = [0u32; 100];
        for _ in 0..4_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
        assert_eq!(Zipf::new(1, 1.0).sample(&mut rng), 0);
    }
}
