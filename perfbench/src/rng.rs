//! Seeded randomness for the generators: SplitMix64 plus a Zipf sampler.
//!
//! The benchmark carries its own generator so that a change to the
//! program's vendored `rand` can never change the benchmark's inputs.

/// SplitMix64: tiny, fast, and good enough for picking requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream: the seed mixed with a stream label, so
    /// different streams of one seed are independent.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Log-uniform in `[lo, hi)`, rounded to `1/scale`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64, scale: f64) -> f64 {
        let x = (lo.ln() + self.unit() * (hi.ln() - lo.ln())).exp();
        ((x * scale).round() / scale).max(1.0 / scale)
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `r` is drawn with
/// probability proportional to `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// # Panics
    /// When `n` is zero.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1, 0);
        let mut counts = [0u32; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }

    #[test]
    fn log_uniform_stays_in_range() {
        let mut rng = Rng::new(2, 0);
        for _ in 0..1000 {
            let x = rng.log_uniform(1.0, 512.0, 1.0);
            assert!((1.0..=512.0).contains(&x));
        }
    }
}
