//! Runtime-dispatched SIMD micro-kernels for the GEMM hot loops.
//!
//! The packed-panel GEMM in [`crate::gemm`] leaned on autovectorization;
//! this module makes the vector shape explicit. At process start the
//! best available instruction level is detected once
//! (`is_x86_feature_detected!`, cached in a `OnceLock`) and every GEMM
//! call dispatches its inner tile through the crate-private `f32_tile`
//! / `i8_tile` entry points at that level:
//!
//! * [`SimdLevel::Scalar`] — the portable fallback (and the only level
//!   on non-x86 targets): plain Rust accumulator arrays, exactly the
//!   PR-5 micro-kernel the autovectorizer turns into 4-lane ops.
//! * [`SimdLevel::Sse2`] — explicit `__m128` arithmetic, 4 output
//!   columns per tile. SSE2 is part of the `x86_64` baseline, so this
//!   is the floor on every x86-64 machine.
//! * [`SimdLevel::Avx2`] — `__m256` arithmetic, 8 output columns per
//!   tile (the packed panels widen with the level; see
//!   [`SimdLevel::nr`]).
//!
//! # Determinism
//!
//! The float kernels keep the repo-wide bit-reproducibility contract:
//! every output element is a strict sequential `f32` chain
//! `((init + a₀·b) + a₁·b) + …` in ascending `k` order. Vector width
//! only decides *how many independent chains* advance per instruction,
//! never the order within a chain — and the AVX2 kernel deliberately
//! uses separate multiply and add (no FMA contraction), because a fused
//! multiply-add skips the intermediate rounding step and would produce
//! different bits than the scalar chain. The int8 kernels accumulate in
//! exact integer arithmetic, where grouping is immaterial. Either way:
//! **every level produces byte-identical results**, which
//! `tests/simd_equivalence.rs` pins.
//!
//! # Overriding detection
//!
//! Set `CODESIGN_SIMD=scalar|sse2|avx2` to pin the dispatch level (for
//! determinism debugging or perf triage). Unknown values are ignored;
//! a requested level the CPU lacks clamps down to the best available
//! one. The variable is read once per process.

/// Instruction-set tier of the GEMM micro-kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar kernel (autovectorized 4x4 tile).
    Scalar,
    /// Explicit SSE2 `__m128` kernel (4x4 tile).
    Sse2,
    /// Explicit AVX2 `__m256` kernel (4x8 tile).
    Avx2,
}

/// Rows per micro-tile — fixed across levels; only the column count
/// ([`SimdLevel::nr`]) widens with the vector registers.
pub const MR: usize = 4;

/// Widest tile any level produces (`MR x 8` for AVX2); sizes the
/// stack-allocated accumulator the dispatchers write into.
pub const MAX_NR: usize = 8;

impl SimdLevel {
    /// Output columns per micro-tile at this level. The GEMM packs its
    /// `B` panels `nr` columns wide, so the panel layout follows the
    /// dispatch level while the per-element accumulation order does not.
    pub fn nr(self) -> usize {
        match self {
            SimdLevel::Scalar | SimdLevel::Sse2 => 4,
            SimdLevel::Avx2 => 8,
        }
    }

    /// Stable lowercase name (the `CODESIGN_SIMD` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parses a `CODESIGN_SIMD` value. Unknown strings are `None` (the
    /// override is then ignored rather than failing the process).
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }

    /// Whether the running CPU can execute this level.
    pub fn is_available(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// This level if the CPU supports it, otherwise the next lower
    /// available one (every CPU supports [`SimdLevel::Scalar`]).
    pub fn clamp_available(self) -> SimdLevel {
        [self, SimdLevel::Sse2, SimdLevel::Scalar]
            .into_iter()
            .filter(|l| *l <= self)
            .find(|l| l.is_available())
            .unwrap_or(SimdLevel::Scalar)
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The best level the running CPU supports, ignoring the environment
/// override.
pub fn detected_best() -> SimdLevel {
    SimdLevel::Avx2.clamp_available()
}

/// Every level the running CPU can execute, ascending. Tests iterate
/// this to pin cross-level bit-identity on whatever hardware CI has.
pub fn available_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
        .into_iter()
        .filter(|l| l.is_available())
        .collect()
}

/// The process-wide dispatch level: the `CODESIGN_SIMD` override
/// (clamped to what the CPU supports) or the detected best. Resolved
/// once and cached — the hot path never re-reads the environment.
pub fn active_level() -> SimdLevel {
    static ACTIVE: std::sync::OnceLock<SimdLevel> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| {
        match std::env::var("CODESIGN_SIMD")
            .ok()
            .as_deref()
            .and_then(SimdLevel::parse)
        {
            Some(requested) => requested.clamp_available(),
            None => detected_best(),
        }
    })
}

// ---------------------------------------------------------------------
// f32 tiles
// ---------------------------------------------------------------------

/// One `MR x nr` float tile: `acc[i][j] = init[j] + Σ_k a[k][i]·b[k][j]`
/// with each element's chain strictly sequential in ascending `k`.
///
/// `apack` is `[k][MR]` interleaved, `panel` is `[k][nr]` interleaved
/// (`nr = level.nr()`), `init` is `nr` long, and the tile is written
/// row-major into `acc[..MR * nr]`.
#[inline]
pub(crate) fn f32_tile(
    level: SimdLevel,
    apack: &[f32],
    panel: &[f32],
    init: &[f32],
    acc: &mut [f32; MR * MAX_NR],
) {
    match level {
        SimdLevel::Scalar => f32_tile_scalar(apack, panel, init, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: levels above Scalar are only constructed after
        // `is_x86_feature_detected!` confirmed the feature (detection,
        // `clamp_available`, and the test/bench iteration over
        // `available_levels` all gate on it).
        SimdLevel::Sse2 => unsafe { f32_tile_sse2(apack, panel, init, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; `Avx2` exists only after AVX2 detection.
        SimdLevel::Avx2 => unsafe { f32_tile_avx2(apack, panel, init, acc) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => f32_tile_scalar(apack, panel, init, acc),
    }
}

/// Portable 4x4 tile — the PR-5 micro-kernel verbatim: 16 independent
/// accumulator chains the autovectorizer turns into 4-lane ops.
fn f32_tile_scalar(apack: &[f32], panel: &[f32], init: &[f32], acc: &mut [f32; MR * MAX_NR]) {
    const NR: usize = 4;
    let mut t = [[init[0], init[1], init[2], init[3]]; MR];
    for (av, bv) in apack.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
        for (acc_row, &ai) in t.iter_mut().zip(av) {
            for (s, &bj) in acc_row.iter_mut().zip(bv) {
                *s += ai * bj;
            }
        }
    }
    for (i, row) in t.iter().enumerate() {
        acc[i * NR..(i + 1) * NR].copy_from_slice(row);
    }
}

/// # Safety
///
/// The CPU must support `sse2`. Every pointer read and write stays in
/// bounds given the shape contract of [`f32_tile`]: `apack` holds `k`
/// rows of `MR`, `panel` holds `k` rows of 4, `init` holds 4 lanes,
/// and the 4-wide tile fits `acc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn f32_tile_sse2(apack: &[f32], panel: &[f32], init: &[f32], acc: &mut [f32; MR * MAX_NR]) {
    use std::arch::x86_64::*;
    const NR: usize = 4;
    let k = apack.len() / MR;
    debug_assert_eq!(panel.len(), k * NR);
    let init_v = _mm_loadu_ps(init.as_ptr());
    let mut t = [init_v; MR];
    let a = apack.as_ptr();
    let b = panel.as_ptr();
    for kk in 0..k {
        let bv = _mm_loadu_ps(b.add(kk * NR));
        for (i, acc_row) in t.iter_mut().enumerate() {
            let ai = _mm_set1_ps(*a.add(kk * MR + i));
            // mul then add — matching the scalar `s += ai * bj` chain
            // bit for bit (no FMA contraction).
            *acc_row = _mm_add_ps(*acc_row, _mm_mul_ps(ai, bv));
        }
    }
    for (i, acc_row) in t.iter().enumerate() {
        _mm_storeu_ps(acc.as_mut_ptr().add(i * NR), *acc_row);
    }
}

/// # Safety
///
/// The CPU must support `avx2`. Every pointer read and write stays in
/// bounds given the shape contract of [`f32_tile`]: `apack` holds `k`
/// rows of `MR`, `panel` holds `k` rows of 8, `init` holds 8 lanes,
/// and the 8-wide tile fits `acc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn f32_tile_avx2(apack: &[f32], panel: &[f32], init: &[f32], acc: &mut [f32; MR * MAX_NR]) {
    use std::arch::x86_64::*;
    const NR: usize = 8;
    let k = apack.len() / MR;
    debug_assert_eq!(panel.len(), k * NR);
    let init_v = _mm256_loadu_ps(init.as_ptr());
    let mut t = [init_v; MR];
    let a = apack.as_ptr();
    let b = panel.as_ptr();
    for kk in 0..k {
        let bv = _mm256_loadu_ps(b.add(kk * NR));
        for (i, acc_row) in t.iter_mut().enumerate() {
            let ai = _mm256_set1_ps(*a.add(kk * MR + i));
            // Deliberately NOT `_mm256_fmadd_ps`: the fused form skips
            // the intermediate rounding and would break bit-identity
            // with the scalar chain.
            *acc_row = _mm256_add_ps(*acc_row, _mm256_mul_ps(ai, bv));
        }
    }
    for (i, acc_row) in t.iter().enumerate() {
        _mm256_storeu_ps(acc.as_mut_ptr().add(i * NR), *acc_row);
    }
}

// ---------------------------------------------------------------------
// int8 tiles (i8 x i8 -> i32)
// ---------------------------------------------------------------------

/// One `MR x nr` integer tile over **pair-packed `i16` panels**:
/// `acc[i][j] = Σ_k a[k][i]·b[k][j]` in exact `i32` arithmetic.
///
/// The quantized GEMM widens its `i8` operands to `i16` at pack time
/// and interleaves *pairs* of `k` steps — `apack` is `[k/2][MR][2]`,
/// `panel` is `[k/2][nr][2]` (odd `k` zero-padded) — so the SSE2/AVX2
/// kernels can burn through two `k` steps per `madd_epi16`
/// (`i16·i16 + i16·i16 → i32` per lane, exact because `i8` products
/// fit `i16`). Integer addition is associative, so every level and
/// every grouping produces identical accumulators.
#[inline]
pub(crate) fn i8_tile(
    level: SimdLevel,
    apack: &[i16],
    panel: &[i16],
    acc: &mut [i32; MR * MAX_NR],
) {
    match level {
        SimdLevel::Scalar => i8_tile_scalar(apack, panel, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: same detection invariant as `f32_tile`.
        SimdLevel::Sse2 => unsafe { i8_tile_sse2(apack, panel, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: same detection invariant as `f32_tile`.
        SimdLevel::Avx2 => unsafe { i8_tile_avx2(apack, panel, acc) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => i8_tile_scalar(apack, panel, acc),
    }
}

fn i8_tile_scalar(apack: &[i16], panel: &[i16], acc: &mut [i32; MR * MAX_NR]) {
    const NR: usize = 4;
    let mut t = [[0i32; NR]; MR];
    for (av, bv) in apack.chunks_exact(MR * 2).zip(panel.chunks_exact(NR * 2)) {
        for (acc_row, ap) in t.iter_mut().zip(av.chunks_exact(2)) {
            let (a0, a1) = (ap[0] as i32, ap[1] as i32);
            for (s, bp) in acc_row.iter_mut().zip(bv.chunks_exact(2)) {
                *s += a0 * bp[0] as i32 + a1 * bp[1] as i32;
            }
        }
    }
    for (i, row) in t.iter().enumerate() {
        acc[i * NR..(i + 1) * NR].copy_from_slice(row);
    }
}

/// # Safety
///
/// The CPU must support `sse2`. Every pointer read and write stays in
/// bounds given the shape contract of [`i8_tile`]: `apack` holds `kp`
/// pair-rows of `MR`, `panel` holds `kp` pair-rows of 4, and the
/// 4-wide tile fits `acc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn i8_tile_sse2(apack: &[i16], panel: &[i16], acc: &mut [i32; MR * MAX_NR]) {
    use std::arch::x86_64::*;
    const NR: usize = 4;
    let kp = apack.len() / (MR * 2);
    debug_assert_eq!(panel.len(), kp * NR * 2);
    let mut t = [_mm_setzero_si128(); MR];
    let a = apack.as_ptr();
    let b = panel.as_ptr();
    for kk in 0..kp {
        // 8 i16 lanes = 4 columns x 2 interleaved k steps.
        let bv = _mm_loadu_si128(b.add(kk * NR * 2) as *const __m128i);
        for (i, acc_row) in t.iter_mut().enumerate() {
            // Unaligned pair read: a `Vec<i16>` only guarantees 2-byte
            // alignment.
            let pair = (a.add((kk * MR + i) * 2) as *const i32).read_unaligned();
            let av = _mm_set1_epi32(pair); // (a_k, a_k+1) in every lane pair
            *acc_row = _mm_add_epi32(*acc_row, _mm_madd_epi16(av, bv));
        }
    }
    for (i, acc_row) in t.iter().enumerate() {
        _mm_storeu_si128(acc.as_mut_ptr().add(i * NR) as *mut __m128i, *acc_row);
    }
}

/// # Safety
///
/// The CPU must support `avx2`. Every pointer read and write stays in
/// bounds given the shape contract of [`i8_tile`]: `apack` holds `kp`
/// pair-rows of `MR`, `panel` holds `kp` pair-rows of 8, and the
/// 8-wide tile fits `acc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn i8_tile_avx2(apack: &[i16], panel: &[i16], acc: &mut [i32; MR * MAX_NR]) {
    use std::arch::x86_64::*;
    const NR: usize = 8;
    let kp = apack.len() / (MR * 2);
    debug_assert_eq!(panel.len(), kp * NR * 2);
    let mut t = [_mm256_setzero_si256(); MR];
    let a = apack.as_ptr();
    let b = panel.as_ptr();
    for kk in 0..kp {
        // 16 i16 lanes = 8 columns x 2 interleaved k steps.
        let bv = _mm256_loadu_si256(b.add(kk * NR * 2) as *const __m256i);
        for (i, acc_row) in t.iter_mut().enumerate() {
            let pair = (a.add((kk * MR + i) * 2) as *const i32).read_unaligned();
            let av = _mm256_set1_epi32(pair);
            *acc_row = _mm256_add_epi32(*acc_row, _mm256_madd_epi16(av, bv));
        }
    }
    for (i, acc_row) in t.iter().enumerate() {
        _mm256_storeu_si256(acc.as_mut_ptr().add(i * NR) as *mut __m256i, *acc_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_vocabulary() {
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse("SSE2"), Some(SimdLevel::Sse2));
        assert_eq!(SimdLevel::parse(" avx2 "), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("avx512"), None);
        assert_eq!(SimdLevel::parse(""), None);
    }

    #[test]
    fn clamping_never_exceeds_request_or_hardware() {
        for level in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
            let clamped = level.clamp_available();
            assert!(clamped <= level, "{clamped} exceeds requested {level}");
            assert!(clamped.is_available());
        }
        assert_eq!(SimdLevel::Scalar.clamp_available(), SimdLevel::Scalar);
    }

    #[test]
    fn available_levels_ascend_and_include_scalar() {
        let levels = available_levels();
        assert_eq!(levels.first(), Some(&SimdLevel::Scalar));
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
        assert!(levels.contains(&detected_best()));
    }

    #[test]
    fn active_level_is_stable_and_available() {
        let a = active_level();
        assert!(a.is_available());
        assert_eq!(a, active_level(), "OnceLock must cache the level");
    }

    #[test]
    fn tile_widths_follow_levels() {
        assert_eq!(SimdLevel::Scalar.nr(), 4);
        assert_eq!(SimdLevel::Sse2.nr(), 4);
        assert_eq!(SimdLevel::Avx2.nr(), 8);
        assert!(SimdLevel::Avx2.nr() <= MAX_NR);
    }

    /// Direct tile-level cross-check; the integration suite pins the
    /// same property through the full GEMM.
    #[test]
    fn f32_tiles_agree_across_available_levels() {
        let k = 13;
        for level in available_levels() {
            let nr = level.nr();
            let apack: Vec<f32> = (0..k * MR).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
            let panel: Vec<f32> = (0..k * nr).map(|i| (i % 5) as f32 * 0.5 - 1.0).collect();
            let init: Vec<f32> = (0..nr).map(|j| j as f32 * 0.125).collect();
            let mut acc = [0.0f32; MR * MAX_NR];
            f32_tile(level, &apack, &panel, &init, &mut acc);
            for i in 0..MR {
                for j in 0..nr {
                    let mut s = init[j];
                    for kk in 0..k {
                        s += apack[kk * MR + i] * panel[kk * nr + j];
                    }
                    assert_eq!(acc[i * nr + j], s, "level {level} tile ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn i8_tiles_agree_across_available_levels() {
        let kp = 9; // pair count (covers an effective odd k via padding)
        for level in available_levels() {
            let nr = level.nr();
            let apack: Vec<i16> = (0..kp * MR * 2).map(|i| (i % 255) as i16 - 127).collect();
            let panel: Vec<i16> = (0..kp * nr * 2).map(|i| (i % 251) as i16 - 125).collect();
            let mut acc = [0i32; MR * MAX_NR];
            i8_tile(level, &apack, &panel, &mut acc);
            for i in 0..MR {
                for j in 0..nr {
                    let mut s = 0i32;
                    for kk in 0..kp {
                        s += apack[(kk * MR + i) * 2] as i32 * panel[(kk * nr + j) * 2] as i32
                            + apack[(kk * MR + i) * 2 + 1] as i32
                                * panel[(kk * nr + j) * 2 + 1] as i32;
                    }
                    assert_eq!(acc[i * nr + j], s, "level {level} tile ({i},{j})");
                }
            }
        }
    }
}
