//! A shared, interior-mutable cache of analytic HLS estimates.
//!
//! The co-design search is embarrassingly parallel but extremely
//! repetitive: every SCD run probes unit moves around its current
//! design point, restarts revisit the same initial designs, and the
//! per-(Bundle, target) searches all start from the same few points.
//! Re-deriving the closed-form Eqs. 1-5 for each probe wastes most of
//! the flow's wall clock, so [`EstimateCache`] memoizes
//! [`HlsEstimator::estimate_point`](crate::model::HlsEstimator::estimate_point)
//! results (and, since the incremental engine landed, every
//! [`EstimatePlan::probe`](crate::incremental::EstimatePlan::probe))
//! behind an [`std::sync::Arc`]-shareable, thread-safe map.
//!
//! # Logical lookups
//!
//! The counters count *logical* lookups: one per `estimate_point` and
//! one per plan probe. A plan answers repeat probes from its own memo
//! of earlier lookups (see
//! [the incremental module](crate::incremental#the-probe-memo)) and
//! reports each such answer through [`EstimateCache::record_hit`], so
//! only a plan's first probe of a key reaches the map, while hits,
//! misses and [`EstimateCache::store_hits`] read exactly as if every
//! probe had. In the flow, one plan serves every FPS target of a
//! (Bundle, quantization arm) pair. SCD goes one step further: a search
//! that steps again from a state it has visited skips the step's probes
//! altogether and replays their recorded counts through
//! [`EstimateCache::record_hits`]; every skipped probe would have been
//! a memo hit with the same store provenance.
//!
//! # Sharding
//!
//! The flow fans SCD work items out across worker threads, and each
//! search's first probe of a key consults this map; a single global
//! `Mutex<HashMap>` would serialize them all. The map is therefore split into
//! [`DEFAULT_SHARDS`] independently locked shards, selected by a fast
//! word-wise multiply-mix over the key bytes. Sharding is invisible to callers: a
//! key lives in exactly one shard, so hit/miss semantics, the
//! deterministic total-lookup count, and the byte-identical-output
//! guarantee are unchanged from the single-lock cache — only lock
//! contention changes.
//!
//! # The canonical key
//!
//! Two design points must share a cache entry exactly when the analytic
//! model is guaranteed to produce the same estimate for both. The key is
//! therefore a *canonical byte encoding* of everything the model reads:
//!
//! * an **estimator salt** — the calibrated coefficients (`α`, `β`, `φ`,
//!   `γ` as IEEE-754 bit patterns; the calibration-time sampling PF is
//!   omitted because estimation always substitutes the design point's
//!   own PF), the device's DRAM bandwidth and resource budget, and the
//!   DNN builder's fingerprint (input resolution, stem kernel,
//!   construction method). Two estimators with different calibrations
//!   never alias.
//! * the **design point** — the exact word encoding of
//!   [`DesignPoint::encode_canonical`](codesign_dnn::space::DesignPoint::encode_canonical):
//!   Bundle skeleton, replication count `N`, the down-sampling vector
//!   `X` bit-packed into one word per 64 slots (slots `i` and `i + 64`
//!   occupy different words — the old single-word packing aliased
//!   them), the channel-expansion vector `Π` as f64 bit patterns
//!   (values come from the fixed
//!   [`CHANNEL_EXPANSION_FACTORS`](codesign_dnn::space::CHANNEL_EXPANSION_FACTORS)
//!   ladder, so bit patterns are exact), parallel factor `PF`,
//!   activation / quantization arm `Q`, and the base / max channel
//!   widths.
//!
//! Keys are full encodings rather than 64-bit digests so hash collisions
//! cannot silently return the wrong estimate. Lookups borrow the key as
//! `&[u8]` — hot paths build it in a stack-resident [`KeyBuf`] and only
//! a cache *miss* copies it to the heap for insertion. Determinism does
//! not depend on the cache at all — a hit returns byte-identical data to
//! what the analytic model would recompute, whether that recomputation
//! is the full rebuild of `estimate_point` or an incremental
//! [`EstimatePlan`](crate::incremental::EstimatePlan) fold — which is
//! why the flow can share one cache across any number of worker threads
//! and still produce bit-identical Pareto fronts.
//!
//! # Why seeds are split per search
//!
//! Memoization alone does not make a parallel search reproducible: if
//! searches drew from one shared RNG, thread interleaving would decide
//! which search sees which random values. The flow therefore derives an
//! independent seed per (FPS target, Bundle, activation) search from
//! `FlowConfig::seed` with a SplitMix64 mix (see
//! `codesign_core::parallel::derive_seed`), so every search owns a
//! private deterministic stream and results are independent of
//! scheduling. A work item runs the searches of one (Bundle,
//! activation) pair, one target after another, and each search keeps
//! its own seed.

use crate::model::{Estimate, EstimateError};
use codesign_sim::report::CacheStats;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default shard count of [`EstimateCache::new`]: enough to keep the
/// flow's worker threads (typically ≤ core count) off each other's
/// locks without bloating the empty cache.
pub const DEFAULT_SHARDS: usize = 16;

/// A resident cache value plus its provenance: entries inserted by
/// [`EstimateCache::preload`] (i.e. loaded from a persistent store) are
/// flagged so hits on them can be attributed to the store in metrics.
#[derive(Debug, Clone)]
struct CacheEntry {
    value: Result<Estimate, EstimateError>,
    preloaded: bool,
}

/// A multiply-xorshift hasher over whole words, for maps keyed by
/// canonical design-point encodings. The keys are derived by the
/// search, not taken from clients, so the maps need spread, not
/// SipHash's flooding resistance.
#[derive(Debug, Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_ne_bytes(word.try_into().expect("8-byte chunk")));
        }
        for &byte in words.remainder() {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`WordHasher`].
pub(crate) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

type ShardMap = WordMap<Vec<u8>, CacheEntry>;

/// A thread-safe, sharded memo table for analytic estimates, with
/// hit/miss counters.
///
/// Attach one to an estimator via
/// [`HlsEstimator::with_cache`](crate::model::HlsEstimator::with_cache);
/// clone the [`Arc`](std::sync::Arc) to share it across estimators and
/// threads. Keys are hashed onto [`shard_count`](Self::shard_count)
/// independently locked maps, so concurrent lookups from different SCD
/// work items rarely contend.
///
/// # Example
///
/// ```
/// use codesign_dnn::{bundle, space::DesignPoint};
/// use codesign_hls::cache::EstimateCache;
/// use codesign_hls::calibrate::calibrate_bundle;
/// use codesign_hls::model::HlsEstimator;
/// use codesign_sim::device::pynq_z1;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bundle = bundle::enumerate_bundles()[12].clone();
/// let params = calibrate_bundle(&bundle, &pynq_z1())?;
/// let cache = Arc::new(EstimateCache::new());
/// let est = HlsEstimator::new(params, pynq_z1()).with_cache(cache.clone());
/// let point = DesignPoint::initial(bundle, 3);
/// let a = est.estimate_point(&point)?;
/// let b = est.estimate_point(&point)?; // served from the cache
/// assert_eq!(a, b);
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EstimateCache {
    shards: Box<[Mutex<ShardMap>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    store_hits: AtomicU64,
}

impl Default for EstimateCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EstimateCache {
    /// Creates an empty cache with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty cache with `shards` shards, rounded up to the
    /// next power of two (minimum 1). `with_shards(1)` reproduces the
    /// old single-lock cache exactly.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| Mutex::new(ShardMap::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key`: a word-wise multiply-mix over the key
    /// bytes, masked onto the power-of-two shard count. Deterministic,
    /// so a key always lives in exactly one shard; word-wise (not
    /// byte-wise FNV) because this runs on every single probe and must
    /// cost nanoseconds, while needing only spread, not collision
    /// resistance — a collision merely shares a lock.
    fn shard_for(&self, key: &[u8]) -> &Mutex<ShardMap> {
        let mut h = 0xCBF2_9CE4_8422_2325u64 ^ key.len() as u64;
        let mut word = [0u8; 8];
        for chunk in key.chunks(8) {
            word[..chunk.len()].copy_from_slice(chunk);
            word[chunk.len()..].fill(0);
            h ^= u64::from_le_bytes(word);
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
        }
        &self.shards[(h as usize) & (self.shards.len() - 1)]
    }

    /// Current hit/miss counters and entry count.
    ///
    /// The *total* lookup count is deterministic (one hit or miss per
    /// query); the hit/miss split can shift by a few counts between
    /// multi-threaded runs when two workers race to compute the same
    /// key (both count a miss, the insert is idempotent).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Number of distinct entries resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").len())
            .sum()
    }

    /// True when no entry has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and resets the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard lock").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.store_hits.store(0, Ordering::Relaxed);
    }

    /// Hits served by entries that were [`preload`](Self::preload)ed
    /// from a persistent store (a subset of `stats().hits`). This is
    /// the number the warm-start acceptance gate measures: how much of
    /// a run's lookup traffic the on-disk store actually absorbed.
    pub fn store_hits(&self) -> u64 {
        self.store_hits.load(Ordering::Relaxed)
    }

    /// Inserts an `Ok` estimate loaded from a persistent store, unless
    /// the key is already resident. Returns `true` if the entry was
    /// inserted. Counts neither a hit nor a miss — preloading is not
    /// lookup traffic — but hits later served by the entry increment
    /// [`store_hits`](Self::store_hits).
    pub fn preload(&self, key: &[u8], value: Estimate) -> bool {
        let mut shard = self.shard_for(key).lock().expect("cache shard lock");
        if shard.contains_key(key) {
            return false;
        }
        shard.insert(
            key.to_vec(),
            CacheEntry {
                value: Ok(value),
                preloaded: true,
            },
        );
        true
    }

    /// All resident `Ok` entries as `(key, estimate)` pairs, sorted by
    /// key bytes so the snapshot order is deterministic regardless of
    /// shard layout or hash-map iteration order. Cached *errors* are
    /// excluded: they are cheap to recompute and persisting them would
    /// pin transient failures across restarts.
    pub fn snapshot_ok(&self) -> Vec<(Vec<u8>, Estimate)> {
        let mut entries: Vec<(Vec<u8>, Estimate)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard lock");
            for (key, entry) in shard.iter() {
                if let Ok(est) = &entry.value {
                    entries.push((key.clone(), *est));
                }
            }
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Returns the cached result for `key`, computing and inserting it
    /// with `compute` on a miss. The key is borrowed — it is copied to
    /// the heap only when a miss inserts it.
    ///
    /// No lock is held while `compute` runs, so concurrent estimates
    /// proceed in parallel; two threads racing on the same key both
    /// compute the (deterministic) value and the insert is idempotent.
    pub fn get_or_insert_with(
        &self,
        key: &[u8],
        compute: impl FnOnce() -> Result<Estimate, EstimateError>,
    ) -> Result<Estimate, EstimateError> {
        self.get_or_insert_with_provenance(key, compute).0
    }

    /// [`get_or_insert_with`](Self::get_or_insert_with), also returning
    /// whether the resident entry was [`preload`](Self::preload)ed. A
    /// caller that memoizes the result replays later hits on it through
    /// [`record_hit`](Self::record_hit) with this flag.
    pub fn get_or_insert_with_provenance(
        &self,
        key: &[u8],
        compute: impl FnOnce() -> Result<Estimate, EstimateError>,
    ) -> (Result<Estimate, EstimateError>, bool) {
        if let Some(cached) = self
            .shard_for(key)
            .lock()
            .expect("cache shard lock")
            .get(key)
        {
            self.record_hit(cached.preloaded);
            return (cached.value.clone(), cached.preloaded);
        }
        let value = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let preloaded = self
            .shard_for(key)
            .lock()
            .expect("cache shard lock")
            .entry(key.to_vec())
            .or_insert_with(|| CacheEntry {
                value: value.clone(),
                preloaded: false,
            })
            .preloaded;
        (value, preloaded)
    }

    /// Counts one hit on a resident entry without touching the map: the
    /// accounting half of a lookup whose value a caller served from its
    /// own memo of earlier lookups. `preloaded` is the entry's flag as
    /// returned by
    /// [`get_or_insert_with_provenance`](Self::get_or_insert_with_provenance),
    /// so [`store_hits`](Self::store_hits) stays what the shared lookup
    /// would have counted.
    pub fn record_hit(&self, preloaded: bool) {
        self.record_hits(1, u64::from(preloaded));
    }

    /// Counts `hits` hits at once, `store_hits` of them on preloaded
    /// entries: [`record_hit`](Self::record_hit) for a caller replaying
    /// a whole run of memo hits it has counted before (see
    /// [`EstimatePlan::lookup_tally`](crate::incremental::EstimatePlan::lookup_tally)).
    pub fn record_hits(&self, hits: u64, store_hits: u64) {
        debug_assert!(store_hits <= hits, "store hits are a subset of hits");
        self.hits.fetch_add(hits, Ordering::Relaxed);
        if store_hits > 0 {
            self.store_hits.fetch_add(store_hits, Ordering::Relaxed);
        }
    }
}

/// A cache-key assembly buffer that lives on the stack for typical keys
/// and spills to the heap only for very deep designs.
///
/// `estimate_point` used to heap-allocate a fresh `Vec<u8>` key per
/// probe; at millions of probes per search that allocation was pure
/// overhead. A `KeyBuf` holds up to [`KeyBuf::INLINE`] bytes inline —
/// enough for the estimator salt plus the canonical encoding of design
/// points with ten-plus replications — and transparently migrates to a
/// `Vec` beyond that.
#[derive(Debug, Clone)]
pub struct KeyBuf {
    len: usize,
    inline: [u8; KeyBuf::INLINE],
    spill: Vec<u8>,
}

impl KeyBuf {
    /// Inline capacity in bytes.
    pub const INLINE: usize = 256;

    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self {
            len: 0,
            inline: [0u8; Self::INLINE],
            spill: Vec::new(),
        }
    }

    /// Appends a `u64` in little-endian byte order.
    pub fn push_u64(&mut self, v: u64) {
        self.extend(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.spill.is_empty() {
            if self.len + bytes.len() <= Self::INLINE {
                self.inline[self.len..self.len + bytes.len()].copy_from_slice(bytes);
                self.len += bytes.len();
                return;
            }
            self.spill.reserve(self.len + bytes.len());
            self.spill.extend_from_slice(&self.inline[..self.len]);
        }
        self.spill.extend_from_slice(bytes);
    }

    /// The assembled key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Empties the buffer for reuse (keeps any heap capacity).
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

impl Default for KeyBuf {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_sim::report::ResourceUsage;

    fn estimate(cycles: u64) -> Result<Estimate, EstimateError> {
        Ok(Estimate {
            latency_cycles: cycles,
            resources: ResourceUsage::zero(),
        })
    }

    #[test]
    fn hit_returns_first_inserted_value() {
        let cache = EstimateCache::new();
        let a = cache.get_or_insert_with(&[1, 2], || estimate(10));
        let b = cache.get_or_insert_with(&[1, 2], || estimate(99));
        assert_eq!(a, b, "second lookup must be served from the cache");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = EstimateCache::new();
        let a = cache.get_or_insert_with(&[1], || estimate(10)).unwrap();
        let b = cache.get_or_insert_with(&[2], || estimate(20)).unwrap();
        assert_ne!(a.latency_cycles, b.latency_cycles);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn errors_are_cached_too() {
        let cache = EstimateCache::new();
        let err = || {
            Err(EstimateError::Sim(
                codesign_sim::error::SimError::InvalidConfig {
                    reason: "test".into(),
                },
            ))
        };
        assert!(cache.get_or_insert_with(&[7], err).is_err());
        assert!(cache.get_or_insert_with(&[7], || estimate(1)).is_err());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn clear_resets_counters_and_entries() {
        let cache = EstimateCache::new();
        cache.get_or_insert_with(&[1], || estimate(1)).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().total(), 0);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(EstimateCache::with_shards(0).shard_count(), 1);
        assert_eq!(EstimateCache::with_shards(1).shard_count(), 1);
        assert_eq!(EstimateCache::with_shards(5).shard_count(), 8);
        assert_eq!(EstimateCache::new().shard_count(), DEFAULT_SHARDS);
    }

    #[test]
    fn sharding_is_transparent() {
        // The same key sequence produces identical results and stats on
        // a 1-shard (the old single-lock layout) and a many-shard cache.
        let single = EstimateCache::with_shards(1);
        let sharded = EstimateCache::with_shards(16);
        for cache in [&single, &sharded] {
            for k in 0u8..32 {
                cache
                    .get_or_insert_with(&[k, k / 3], || estimate(k as u64))
                    .unwrap();
                cache
                    .get_or_insert_with(&[k, k / 3], || estimate(999))
                    .unwrap();
            }
        }
        assert_eq!(single.len(), sharded.len());
        assert_eq!(single.stats().hits, sharded.stats().hits);
        assert_eq!(single.stats().misses, sharded.stats().misses);
        for k in 0u8..32 {
            assert_eq!(
                single.get_or_insert_with(&[k, k / 3], || estimate(999)),
                sharded.get_or_insert_with(&[k, k / 3], || estimate(999)),
            );
        }
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let cache = Arc::new(EstimateCache::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for k in 0u8..16 {
                        cache
                            .get_or_insert_with(&[k], || estimate(k as u64))
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), 16);
        let stats = cache.stats();
        assert_eq!(stats.total(), 64);
    }

    #[test]
    fn key_buf_stays_inline_then_spills() {
        let mut key = KeyBuf::new();
        for w in 0..(KeyBuf::INLINE as u64 / 8) {
            key.push_u64(w);
        }
        assert_eq!(key.as_bytes().len(), KeyBuf::INLINE);
        let inline_copy = key.as_bytes().to_vec();
        key.push_u64(0xDEAD_BEEF); // forces the spill path
        assert_eq!(key.as_bytes().len(), KeyBuf::INLINE + 8);
        assert_eq!(&key.as_bytes()[..KeyBuf::INLINE], &inline_copy[..]);
        assert_eq!(
            &key.as_bytes()[KeyBuf::INLINE..],
            &0xDEAD_BEEFu64.to_le_bytes()
        );
        key.clear();
        assert!(key.as_bytes().is_empty());
        key.push_u64(7);
        assert_eq!(key.as_bytes(), &7u64.to_le_bytes());
    }

    #[test]
    fn shard_selection_is_deterministic() {
        // A key must always land in the same shard, and keys should
        // spread across shards rather than pile onto one.
        let cache = EstimateCache::with_shards(16);
        let mut used = std::collections::HashSet::new();
        for k in 0u64..64 {
            let key: Vec<u8> = k.to_le_bytes().into_iter().cycle().take(40).collect();
            let a = cache.shard_for(&key) as *const _;
            let b = cache.shard_for(&key) as *const _;
            assert_eq!(a, b, "shard choice must be stable");
            used.insert(a as usize);
        }
        assert!(
            used.len() > 4,
            "64 keys landed in only {} shards",
            used.len()
        );
    }
}
