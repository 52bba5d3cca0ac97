//! Engine configuration.

use crate::error::StoreError;

/// Which volatile index backs the store (paper §4.1–4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// FlatStore-H: one volatile CCEH instance per server core (no locks;
    /// requests are routed by keyhash).
    #[default]
    Hash,
    /// FlatStore-M: a single shared Masstree supporting range scans.
    Masstree,
    /// FlatStore-FF: a single shared volatile FAST&FAIR (the paper's
    /// ablation separating Masstree's contribution from the engine's).
    FastFair,
}

/// Log-cleaning (GC) parameters (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcConfig {
    /// Whether cleaning runs at all.
    pub enabled: bool,
    /// Chunks whose live-entry ratio is at most this become victims; a
    /// fuller chunk is never cleaned, however tight the pool.
    pub max_live_ratio: f64,
    /// Cleaning starts when the shared pool has fewer free chunks,
    /// counting those quarantined on their way back.
    pub min_free_chunks: u32,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            enabled: true,
            max_live_ratio: 0.5,
            min_free_chunks: 8,
        }
    }
}

/// FlatStore engine configuration.
///
/// Build one with [`Config::builder`], which validates the settings and
/// returns [`StoreError::InvalidConfig`] on inconsistency — long before
/// any PM is formatted. The struct is `#[non_exhaustive]`; fields stay
/// readable (and assignable on an existing value) but literal
/// construction outside this crate must go through the builder.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Config {
    /// Total simulated-PM size in bytes (superblock + chunk pool). Must be
    /// a multiple of 4 MB and at least `(ncores + 3) * 4 MB`.
    pub pm_bytes: usize,
    /// DRAM arena for the volatile index (per core for `Hash`, total for
    /// `FastFair`).
    pub dram_bytes: usize,
    /// Number of server cores (worker threads).
    pub ncores: usize,
    /// Cores per horizontal-batching group (paper: one socket per group);
    /// must divide `ncores`.
    pub group_size: usize,
    /// The volatile index flavor.
    pub index: IndexKind,
    /// Track flushed state so `simulate_crash` works (2× memory).
    pub crash_tracking: bool,
    /// Testing: build the region with strict fence semantics — flushed but
    /// unfenced cachelines survive a crash only with probability ½
    /// (seeded). Implies crash tracking.
    pub strict_fence_seed: Option<u64>,
    /// Log-cleaning parameters.
    pub gc: GcConfig,
    /// Max operations a [`Session`] keeps in flight before `submit`
    /// absorbs completions; also sizes the fabric's per-client rings.
    ///
    /// [`Session`]: crate::Session
    pub pipeline_depth: usize,
    /// DRAM budget for the hot-value read cache, split evenly across the
    /// server cores' shards; 0 disables the cache. Purely volatile — the
    /// cache starts empty on every open/recovery/failover and never
    /// changes what a Get returns, only whether it pays the simulated-PM
    /// media read.
    pub read_cache_bytes: usize,
    /// Causal-trace sampling rate: 1-in-N operations carry a full stage
    /// span through the request pipeline (`1` traces every op, `0`
    /// disables tracing). Unsampled operations pay one branch per stage
    /// and no clock reads, so `0` restores the pre-tracing fast path.
    pub trace_sample: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            pm_bytes: 256 << 20,
            dram_bytes: 32 << 20,
            ncores: 4,
            group_size: 4,
            index: IndexKind::Hash,
            crash_tracking: false,
            strict_fence_seed: None,
            gc: GcConfig::default(),
            pipeline_depth: 16,
            read_cache_bytes: 8 << 20,
            trace_sample: 0,
        }
    }
}

impl Config {
    /// Starts a builder from the defaults.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder {
            cfg: Config::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] on inconsistent settings (zero cores,
    /// group size not dividing the core count, PM pool too small for the
    /// per-core logs, …).
    pub fn validate(&self) -> Result<(), StoreError> {
        fn bad(msg: impl Into<String>) -> Result<(), StoreError> {
            Err(StoreError::InvalidConfig(msg.into()))
        }
        if self.ncores == 0 {
            return bad("need at least one server core");
        }
        if self.ncores > 60 {
            return bad(format!(
                "superblock layout supports at most 60 cores, got {}",
                self.ncores
            ));
        }
        if self.group_size == 0 {
            return bad("group size must be positive");
        }
        if !self.ncores.is_multiple_of(self.group_size) {
            return bad(format!(
                "group size {} must divide the core count {}",
                self.group_size, self.ncores
            ));
        }
        if !self.pm_bytes.is_multiple_of(4 << 20) {
            return bad(format!(
                "pm_bytes {} must be a multiple of the 4 MB chunk size",
                self.pm_bytes
            ));
        }
        if self.pm_bytes < (self.ncores + 3) * (4 << 20) {
            return bad(format!(
                "pm_bytes {} too small: {} cores need at least {} bytes \
                 (superblock + per-core logs + headroom)",
                self.pm_bytes,
                self.ncores,
                (self.ncores + 3) * (4 << 20)
            ));
        }
        if self.pipeline_depth == 0 {
            return bad("pipeline_depth must be positive");
        }
        Ok(())
    }
}

/// Chainable builder for [`Config`]; [`build`](ConfigBuilder::build)
/// validates and returns the result.
///
/// # Example
///
/// ```
/// use flatstore::Config;
///
/// let cfg = Config::builder()
///     .pm_bytes(64 << 20)
///     .ncores(2)
///     .group_size(2)
///     .build()?;
/// assert_eq!(cfg.ncores, 2);
/// # Ok::<(), flatstore::StoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    cfg: Config,
}

impl ConfigBuilder {
    /// Total simulated-PM size in bytes.
    pub fn pm_bytes(mut self, v: usize) -> Self {
        self.cfg.pm_bytes = v;
        self
    }

    /// DRAM arena for the volatile index.
    pub fn dram_bytes(mut self, v: usize) -> Self {
        self.cfg.dram_bytes = v;
        self
    }

    /// Number of server cores (worker threads).
    pub fn ncores(mut self, v: usize) -> Self {
        self.cfg.ncores = v;
        self
    }

    /// Cores per horizontal-batching group.
    pub fn group_size(mut self, v: usize) -> Self {
        self.cfg.group_size = v;
        self
    }

    /// The volatile index flavor.
    pub fn index(mut self, v: IndexKind) -> Self {
        self.cfg.index = v;
        self
    }

    /// Track flushed state so `simulate_crash` works.
    pub fn crash_tracking(mut self, v: bool) -> Self {
        self.cfg.crash_tracking = v;
        self
    }

    /// Strict fence semantics with the given RNG seed (testing).
    pub fn strict_fence_seed(mut self, v: Option<u64>) -> Self {
        self.cfg.strict_fence_seed = v;
        self
    }

    /// Log-cleaning parameters.
    pub fn gc(mut self, v: GcConfig) -> Self {
        self.cfg.gc = v;
        self
    }

    /// Max in-flight operations per session (see
    /// [`Config::pipeline_depth`]).
    pub fn pipeline_depth(mut self, v: usize) -> Self {
        self.cfg.pipeline_depth = v;
        self
    }

    /// DRAM budget for the hot-value read cache; 0 disables it (see
    /// [`Config::read_cache_bytes`]).
    pub fn read_cache_bytes(mut self, v: usize) -> Self {
        self.cfg.read_cache_bytes = v;
        self
    }

    /// Causal-trace sampling: trace 1-in-`v` operations, 0 = off (see
    /// [`Config::trace_sample`]).
    pub fn trace_sample(mut self, v: u64) -> Self {
        self.cfg.trace_sample = v;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] — see [`Config::validate`].
    pub fn build(self) -> Result<Config, StoreError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accepts_consistent_settings() {
        let cfg = Config::builder()
            .pm_bytes(64 << 20)
            .ncores(2)
            .group_size(2)
            .pipeline_depth(8)
            .read_cache_bytes(1 << 20)
            .trace_sample(16)
            .build()
            .unwrap();
        assert_eq!(cfg.ncores, 2);
        assert_eq!(cfg.pipeline_depth, 8);
        assert_eq!(cfg.read_cache_bytes, 1 << 20);
        assert_eq!(cfg.trace_sample, 16);
    }

    #[test]
    fn trace_sampling_defaults_off() {
        let cfg = Config::builder()
            .pm_bytes(64 << 20)
            .ncores(2)
            .group_size(2)
            .build()
            .unwrap();
        assert_eq!(cfg.trace_sample, 0);
    }

    #[test]
    fn zero_read_cache_is_valid_and_means_disabled() {
        let cfg = Config::builder()
            .pm_bytes(64 << 20)
            .ncores(2)
            .group_size(2)
            .read_cache_bytes(0)
            .build()
            .unwrap();
        assert_eq!(cfg.read_cache_bytes, 0);
    }

    #[test]
    fn builder_rejects_inconsistent_settings() {
        for (builder, needle) in [
            (Config::builder().ncores(0), "at least one"),
            (Config::builder().ncores(61), "at most 60"),
            (Config::builder().group_size(0), "group size"),
            (Config::builder().ncores(4).group_size(3), "must divide"),
            (Config::builder().pm_bytes((4 << 20) + 1), "multiple"),
            (Config::builder().pm_bytes(4 << 20), "too small"),
            (Config::builder().pipeline_depth(0), "pipeline_depth"),
        ] {
            match builder.build() {
                Err(StoreError::InvalidConfig(msg)) => {
                    assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
                }
                other => panic!("expected InvalidConfig({needle}), got {other:?}"),
            }
        }
    }
}
