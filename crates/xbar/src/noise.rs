//! Minimal Gaussian sampling (Box–Muller), so the device models need only the
//! base `rand` crate from the offline allowlist.

use rand::Rng;

/// Draws one sample from `N(0, sigma²)` using the Box–Muller transform.
///
/// Returns exactly `0.0` when `sigma == 0`, so noiseless configurations are
/// bit-exact and consume no randomness.
///
/// # Examples
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = aimc_xbar::noise::gaussian(&mut rng, 1.0);
/// assert!(x.is_finite());
/// assert_eq!(aimc_xbar::noise::gaussian(&mut rng, 0.0), 0.0);
/// ```
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return 0.0;
    }
    // u1 ∈ (0, 1] to keep ln(u1) finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    let mag = (-2.0 * u1.ln()).sqrt();
    sigma * mag * (std::f64::consts::TAU * u2).cos()
}

/// Layer count of the ziggurat tables (one u8 of the raw draw).
const ZIG_LAYERS: usize = 256;
/// Tail boundary `R` of the 256-layer Gaussian ziggurat.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Per-layer area `V` of the 256-layer Gaussian ziggurat.
const ZIG_V: f64 = 0.004_928_673_233_974_655;
/// Mantissa scale: layer offsets use 53 uniform bits.
const ZIG_M: f64 = 9_007_199_254_740_992.0; // 2^53

/// Precomputed ziggurat tables (Marsaglia & Tsang, 256 layers).
#[derive(Debug)]
struct ZigTables {
    /// Acceptance thresholds: `j < kn[i]` lies inside layer `i`'s rectangle.
    kn: [u64; ZIG_LAYERS],
    /// Layer scale: `x = j · wn[i]`.
    wn: [f64; ZIG_LAYERS],
    /// Density at the layer boundaries, `fx[i] = exp(-x_i²/2)`.
    fx: [f64; ZIG_LAYERS],
}

/// Builds the tables with the canonical downward recurrence
/// `x_{i-1} = sqrt(-2 ln(V/x_i + exp(-x_i²/2)))` from `x_255 = R`.
fn zig_tables() -> ZigTables {
    let mut kn = [0u64; ZIG_LAYERS];
    let mut wn = [0.0f64; ZIG_LAYERS];
    let mut fx = [0.0f64; ZIG_LAYERS];
    let mut dn = ZIG_R;
    let mut tn = ZIG_R;
    let q = ZIG_V / (-0.5 * dn * dn).exp();
    kn[0] = ((dn / q) * ZIG_M) as u64;
    kn[1] = 0;
    wn[0] = q / ZIG_M;
    wn[ZIG_LAYERS - 1] = dn / ZIG_M;
    fx[0] = 1.0;
    fx[ZIG_LAYERS - 1] = (-0.5 * dn * dn).exp();
    for i in (1..ZIG_LAYERS - 1).rev() {
        dn = (-2.0 * (ZIG_V / dn + (-0.5 * dn * dn).exp()).ln()).sqrt();
        kn[i + 1] = ((dn / tn) * ZIG_M) as u64;
        tn = dn;
        fx[i] = (-0.5 * dn * dn).exp();
        wn[i] = dn / ZIG_M;
    }
    ZigTables { kn, wn, fx }
}

/// Lazily-initialized shared tables (6 KiB, no per-stream state).
static ZIG: std::sync::OnceLock<ZigTables> = std::sync::OnceLock::new();

/// Streaming Gaussian sampler using the Marsaglia–Tsang **ziggurat**
/// method — exact `N(0, σ²)` samples at roughly one raw RNG draw, one
/// table compare, and one multiply each.
///
/// This is the read-noise sampler of the packed MVM kernel behind
/// [`crate::Crossbar::mvm_batch_into_with`]: the hot loop draws one
/// sample per bit line per evaluation, and with the accumulation loops
/// panelled the sampler is what remains on the profile. The ziggurat covers the density with 256
/// horizontal layers; ~99 % of draws land inside a layer's rectangle and
/// need no transcendental at all, while edge wedges and the `|z| > R`
/// tail fall back to exact rejection steps — an *exact* Gaussian sampler,
/// not an approximation (statistical tests below pin moments and tails).
///
/// The sample stream is a pure function of the wrapped RNG's stream, so
/// counter-based determinism (same seed ⇒ same noise) carries over
/// unchanged. It is **not** the same value stream as [`gaussian`] over the
/// same RNG — like the earlier Box–Muller → polar swap, adopting the
/// ziggurat is a version-scoped change to which variates a seed produces
/// (both remain `N(0, σ²)`), shared by the packed and reference kernels so
/// their bit-identity contract is unaffected.
///
/// Like [`gaussian`], `sigma == 0` returns exactly `0.0` and consumes no
/// randomness.
///
/// Two ways to draw, one stream: [`GaussianStream::next`] returns one
/// sample, and [`GaussianStream::add_to`] adds one sample to each element
/// of a slice. `add_to` is the kernel's read-noise loop. It keeps the
/// generator in a local copy, inlines the in-layer fast path, and leaves
/// the wedge and tail steps to a cold out-of-line function that takes and
/// returns the generator by value, so the copy never has its address
/// taken and its four state words stay in registers. It consumes the same
/// raw draws and computes the same `a + sigma * z` as calling `next` per
/// element; the scalar reference keeps `next`, and the crate's unit tests
/// check one against the other.
///
/// # Examples
/// ```
/// use rand::SeedableRng;
/// let rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut gs = aimc_xbar::noise::GaussianStream::new(rng);
/// assert!(gs.next(1.0).is_finite());
/// assert_eq!(gs.next(0.0), 0.0);
/// let mut acc = [1.0, 2.0];
/// gs.add_to(&mut acc, 0.5);
/// assert!(acc.iter().all(|a| a.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct GaussianStream<R> {
    rng: R,
    /// Ziggurat tables, resolved once at construction — the hot loop
    /// draws one sample per bit line, and even the `OnceLock` acquire
    /// check per draw is measurable there.
    t: &'static ZigTables,
}

impl<R: Rng> GaussianStream<R> {
    /// Wraps `rng` as a Gaussian sample stream.
    pub fn new(rng: R) -> Self {
        GaussianStream {
            rng,
            t: ZIG.get_or_init(zig_tables),
        }
    }

    /// Draws one sample from `N(0, sigma²)`.
    #[inline]
    pub fn next(&mut self, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 0.0;
        }
        sigma * self.next_unit()
    }

    /// One unit-σ ziggurat sample. Bit layout of each raw draw: bits 0–7
    /// select the layer, bit 8 the sign, bits 11–63 the 53-bit offset.
    fn next_unit(&mut self) -> f64 {
        let t = self.t;
        loop {
            let u = self.rng.next_u64();
            let i = (u & 0xff) as usize;
            // Branchless sign: OR bit 8 into the f64 sign bit. `x` is
            // always `+0.0`-or-positive here, so this is exactly `±x` —
            // the 50/50 branch it replaces mispredicts half the time.
            let sign_bit = (u & 0x100) << 55;
            let j = u >> 11;
            let x = j as f64 * t.wn[i];
            if j < t.kn[i] {
                return f64::from_bits(x.to_bits() | sign_bit); // in-layer (~99 %)
            }
            if i == 0 {
                // |z| > R tail: exact exponential rejection (Marsaglia).
                loop {
                    let u1 = (self.rng.next_u64() >> 11) as f64 / ZIG_M;
                    let u2 = (self.rng.next_u64() >> 11) as f64 / ZIG_M;
                    let xt = -u1.ln() / ZIG_R;
                    let yt = -u2.ln();
                    if yt + yt > xt * xt {
                        return f64::from_bits((ZIG_R + xt).to_bits() | sign_bit);
                    }
                }
            }
            // Wedge between the rectangle and the density curve.
            let uw = (self.rng.next_u64() >> 11) as f64 / ZIG_M;
            if t.fx[i] + uw * (t.fx[i - 1] - t.fx[i]) < (-0.5 * x * x).exp() {
                return f64::from_bits(x.to_bits() | sign_bit);
            }
        }
    }

    /// Adds one `N(0, sigma²)` sample to each element of `acc`, in order:
    /// `a = a + sigma * z`, the same samples, raw draws and expression as
    /// `*a += self.next(sigma)` per element. With `sigma == 0` it leaves
    /// `acc` untouched and consumes no randomness.
    #[inline]
    pub fn add_to(&mut self, acc: &mut [f64], sigma: f64)
    where
        R: Clone,
    {
        if sigma == 0.0 {
            return;
        }
        let t = self.t;
        let mut rng = self.rng.clone();
        for a in acc.iter_mut() {
            let u = rng.next_u64();
            let i = (u & 0xff) as usize;
            let j = u >> 11;
            let z = if j < t.kn[i] {
                let sign_bit = (u & 0x100) << 55;
                f64::from_bits((j as f64 * t.wn[i]).to_bits() | sign_bit)
            } else {
                let (z, r) = unit_slow(rng, t, u);
                rng = r;
                z
            };
            *a += sigma * z;
        }
        self.rng = rng;
    }
}

/// The rest of [`GaussianStream::next_unit`]'s loop for a raw draw `u`
/// that missed its layer's rectangle: the tail or wedge test, then fresh
/// draws until one is accepted. The generator goes in and comes back by
/// value, so [`GaussianStream::add_to`]'s register copy of it is never
/// spilled on the fast path.
#[cold]
#[inline(never)]
fn unit_slow<R: Rng>(mut rng: R, t: &ZigTables, mut u: u64) -> (f64, R) {
    loop {
        let i = (u & 0xff) as usize;
        let sign_bit = (u & 0x100) << 55;
        let j = u >> 11;
        let x = j as f64 * t.wn[i];
        if j < t.kn[i] {
            return (f64::from_bits(x.to_bits() | sign_bit), rng);
        }
        if i == 0 {
            loop {
                let u1 = (rng.next_u64() >> 11) as f64 / ZIG_M;
                let u2 = (rng.next_u64() >> 11) as f64 / ZIG_M;
                let xt = -u1.ln() / ZIG_R;
                let yt = -u2.ln();
                if yt + yt > xt * xt {
                    return (f64::from_bits((ZIG_R + xt).to_bits() | sign_bit), rng);
                }
            }
        }
        let uw = (rng.next_u64() >> 11) as f64 / ZIG_M;
        if t.fx[i] + uw * (t.fx[i - 1] - t.fx[i]) < (-0.5 * x * x).exp() {
            return (f64::from_bits(x.to_bits() | sign_bit), rng);
        }
        u = rng.next_u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn zero_sigma_is_exactly_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(gaussian(&mut rng, 0.0), 0.0);
        }
    }

    #[test]
    fn moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 200_000;
        let sigma = 2.5;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = gaussian(&mut rng, sigma);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.02, "std {}", var.sqrt());
    }

    #[test]
    fn samples_are_finite() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(gaussian(&mut rng, 10.0).is_finite());
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(5);
            (0..16).map(|_| gaussian(&mut r, 1.0)).collect()
        };
        let b: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(5);
            (0..16).map(|_| gaussian(&mut r, 1.0)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn stream_zero_sigma_is_exact_and_consumes_nothing() {
        let mut gs = GaussianStream::new(StdRng::seed_from_u64(4));
        let first = gs.next(1.0);
        assert_eq!(gs.next(0.0), 0.0);
        // A zero-sigma draw must not consume randomness: the stream
        // continues identically to a run without the interleaved zero draw.
        let mut clean = GaussianStream::new(StdRng::seed_from_u64(4));
        assert_eq!(clean.next(1.0), first);
        assert_eq!(clean.next(1.0), gs.next(1.0));
    }

    #[test]
    fn add_to_matches_per_element_next_bit_for_bit() {
        // The per-element `next` loop is the oracle. Before each of its
        // draws, peek at the raw draw to count the elements whose first
        // draw leaves the fast path, so the cold wedge and tail code is
        // known to have run.
        let t = ZIG.get_or_init(zig_tables);
        let (mut wedge, mut tail) = (0u32, 0u32);
        for s in 0..20_000u64 {
            let sigma = [0.37, 1.0, -2.5][s as usize % 3];
            for (l, len) in [1usize, 16, 32, 64, 65, 256].into_iter().enumerate() {
                let acc: Vec<f64> = (0..len).map(|k| (k as f64 - 7.0) * 0.125).collect();
                let mut fast = GaussianStream::new(StdRng::seed_from_u64(s << 3 | l as u64));
                let mut oracle = fast.clone();
                let mut got = acc.clone();
                fast.add_to(&mut got, sigma);
                let mut want = acc;
                for a in want.iter_mut() {
                    let u = oracle.rng.clone().next_u64();
                    let i = (u & 0xff) as usize;
                    if u >> 11 >= t.kn[i] {
                        *if i == 0 { &mut tail } else { &mut wedge } += 1;
                    }
                    *a += oracle.next(sigma);
                }
                let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "stream {s}, length {len}");
                for _ in 0..3 {
                    assert_eq!(fast.next(1.0).to_bits(), oracle.next(1.0).to_bits());
                }
            }
        }
        assert!(wedge > 0 && tail > 0, "wedge {wedge}, tail {tail}");
    }

    #[test]
    fn add_to_with_zero_sigma_adds_nothing_and_consumes_nothing() {
        let mut gs = GaussianStream::new(StdRng::seed_from_u64(8));
        let mut acc = [-0.0, 1.5, f64::NAN];
        gs.add_to(&mut acc, 0.0);
        assert_eq!(acc[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(acc[1], 1.5);
        assert!(acc[2].is_nan());
        let mut clean = GaussianStream::new(StdRng::seed_from_u64(8));
        assert_eq!(clean.next(1.0), gs.next(1.0));
    }

    #[test]
    fn stream_is_deterministic_for_seed() {
        let draw = |n: usize| -> Vec<f64> {
            let mut gs = GaussianStream::new(StdRng::seed_from_u64(17));
            (0..n).map(|_| gs.next(2.0)).collect()
        };
        assert_eq!(draw(33), draw(33));
    }

    #[test]
    fn stream_moments_are_plausible() {
        let mut gs = GaussianStream::new(StdRng::seed_from_u64(123));
        let n = 200_000;
        let sigma = 1.5;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = gs.next(sigma);
            assert!(x.is_finite());
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.02, "std {}", var.sqrt());
    }

    #[test]
    fn stream_quantiles_match_the_normal_cdf() {
        // Sharper than the moment test: the ziggurat's layer bookkeeping
        // would shift these central masses if kn/wn/fx disagreed.
        let mut gs = GaussianStream::new(StdRng::seed_from_u64(31));
        let n = 400_000;
        let (mut in1, mut in2, mut in3) = (0u32, 0u32, 0u32);
        for _ in 0..n {
            let z = gs.next(1.0).abs();
            in1 += u32::from(z < 1.0);
            in2 += u32::from(z < 2.0);
            in3 += u32::from(z < 3.0);
        }
        let f = |c: u32| c as f64 / n as f64;
        assert!((f(in1) - 0.682_69).abs() < 0.005, "P(|z|<1) {}", f(in1));
        assert!((f(in2) - 0.954_50).abs() < 0.003, "P(|z|<2) {}", f(in2));
        assert!((f(in3) - 0.997_30).abs() < 0.002, "P(|z|<3) {}", f(in3));
    }

    #[test]
    fn stream_tails_reach_out() {
        // A correct Gaussian must produce |z| > 3σ at roughly the 0.27%
        // rate; a broken polar rejection (e.g. clamped to the unit disk
        // radius) would truncate the tails entirely.
        let mut gs = GaussianStream::new(StdRng::seed_from_u64(9));
        let n = 100_000;
        let tail = (0..n).filter(|_| gs.next(1.0).abs() > 3.0).count();
        assert!((50..=500).contains(&tail), "3σ tail count {tail}");
    }
}
