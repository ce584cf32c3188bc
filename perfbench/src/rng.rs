//! SplitMix64: the benchmark's only source of randomness, so every input
//! is a pure function of `--seed`.

use dv_fp16::F16;

#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream derived from this seed and a tag.
    pub fn fork(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i);
            v.swap(i, j);
        }
    }

    /// An activation in [-16, 16) on a 1/64 grid: exactly representable
    /// in f16, with enough distinct values that max-pool ties are rare.
    pub fn activation(&mut self) -> F16 {
        F16::from_f32((self.next_u64() >> 53) as f32 / 64.0 - 16.0)
    }

    /// A gradient in [-2, 2) on a 1/256 grid, spread over several binades
    /// so f16 accumulation order matters.
    pub fn gradient(&mut self) -> F16 {
        F16::from_f32((self.next_u64() >> 54) as f32 / 256.0 - 2.0)
    }
}
