//! Always-on crash flight recorder (the "black box").
//!
//! Every engine keeps one bounded [`FlightRing`] per server core holding
//! the last N completed/errored operation records plus recent stage
//! events. The rings cost a mutex'd push per completion and nothing else
//! — they are armed regardless of [`Config::trace_sample`]. When the
//! process panics (any thread) or the engine constructs a
//! [`StoreError::Corrupt`], every live registry is dumped — flight rings
//! plus the engine's full `stats_report` JSON — into the directory named
//! by the `FLATSTORE_CRASH_DIR` environment variable (no dump when
//! unset).
//!
//! The panic hook chains: the previously installed hook still runs, so
//! test harness backtraces are preserved. Ring locks are `try_lock`ed
//! from the hook — a core that panicked while holding its own ring lock
//! yields `{"core":N,"locked":true}` instead of a deadlock.
//!
//! [`Config::trace_sample`]: crate::Config::trace_sample
//! [`StoreError::Corrupt`]: crate::StoreError::Corrupt

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use obs::ring::Event;
use obs::{FlightRecord, FlightRing, Json};

/// Flight records kept per core before the oldest are overwritten.
const RECORDS_PER_CORE: usize = 64;

/// Every engine's registry, weakly held so a dropped store unregisters
/// itself; walked by the panic hook and by [`dump_all`].
static REGISTRIES: Mutex<Vec<Weak<FlightRegistry>>> = Mutex::new(Vec::new());

/// Ensures the chained panic hook installs exactly once per process.
static HOOK: OnceLock<()> = OnceLock::new();

/// Distinguishes dump files within one process.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// One engine's per-core flight rings plus the stats snapshot used when
/// dumping.
pub(crate) struct FlightRegistry {
    rings: Vec<Mutex<FlightRing>>,
    /// Renders the engine's full stats report as JSON for the dump.
    /// Captures only `Arc`'d state so it stays callable from the panic
    /// hook on any thread.
    stats_json: Mutex<Option<Box<dyn Fn() -> String + Send + Sync>>>,
}

impl FlightRegistry {
    /// Builds the registry, registers it for crash dumps, and installs
    /// the (process-wide, chained) panic hook on first use.
    pub fn new(ncores: usize) -> Arc<FlightRegistry> {
        let reg = Arc::new(FlightRegistry {
            rings: (0..ncores)
                .map(|_| Mutex::new(FlightRing::new(RECORDS_PER_CORE)))
                .collect(),
            stats_json: Mutex::new(None),
        });
        let mut all = lock_registries();
        all.retain(|w| w.strong_count() > 0);
        all.push(Arc::downgrade(&reg));
        drop(all);
        HOOK.get_or_init(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                dump_all(&format!("panic: {info}"));
                prev(info);
            }));
        });
        reg
    }

    /// Installs the closure rendering the engine's `stats_report` JSON.
    pub fn set_stats_source(&self, f: impl Fn() -> String + Send + Sync + 'static) {
        *self.stats_json.lock().unwrap_or_else(|p| p.into_inner()) = Some(Box::new(f));
    }

    /// Appends a completed/errored op record to `core`'s ring.
    pub fn record(&self, core: usize, r: FlightRecord) {
        if let Some(ring) = self.rings.get(core) {
            ring.lock()
                .unwrap_or_else(|p| p.into_inner())
                .push_record(r);
        }
    }

    /// Appends a stage event (e.g. a batch flush span) to `core`'s ring.
    pub fn event(&self, core: usize, ev: Event) {
        if let Some(ring) = self.rings.get(core) {
            ring.lock()
                .unwrap_or_else(|p| p.into_inner())
                .push_event(ev);
        }
    }

    /// Chrome trace events accumulated across all cores (clones the ring
    /// contents under each lock).
    pub fn chrome_events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for ring in &self.rings {
            let g = ring.lock().unwrap_or_else(|p| p.into_inner());
            out.extend(g.events().cloned());
        }
        out
    }

    /// Serialises this registry as the body of one crash dump.
    fn dump_body(&self, reason: &str) -> String {
        let mut body = String::with_capacity(4096);
        body.push_str("{\"reason\":");
        body.push_str(&Json::Str(reason.to_string()).dump());
        body.push_str(",\"flight\":[");
        for (core, ring) in self.rings.iter().enumerate() {
            if core > 0 {
                body.push(',');
            }
            // try_lock: the panicking thread may hold its own ring lock.
            match ring.try_lock() {
                Ok(g) => body.push_str(&g.dump_json(core)),
                Err(std::sync::TryLockError::Poisoned(p)) => {
                    body.push_str(&p.into_inner().dump_json(core));
                }
                Err(std::sync::TryLockError::WouldBlock) => {
                    body.push_str(&format!("{{\"core\":{core},\"locked\":true}}"));
                }
            }
        }
        body.push_str("],\"stats_report\":");
        let stats = match self.stats_json.try_lock() {
            Ok(g) => g.as_ref().map(|f| f()),
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner().as_ref().map(|f| f()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        };
        match stats {
            Some(json) => body.push_str(&json),
            None => body.push_str("null"),
        }
        body.push('}');
        body
    }

    /// Writes one dump file for this registry; `None` when
    /// `FLATSTORE_CRASH_DIR` is unset or the write fails.
    pub fn dump(&self, reason: &str) -> Option<PathBuf> {
        let dir = std::env::var_os("FLATSTORE_CRASH_DIR")?;
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).ok()?;
        let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("flatstore-crash-{}-{seq}.json", std::process::id()));
        std::fs::write(&path, self.dump_body(reason)).ok()?;
        Some(path)
    }
}

fn lock_registries() -> std::sync::MutexGuard<'static, Vec<Weak<FlightRegistry>>> {
    REGISTRIES.lock().unwrap_or_else(|p| p.into_inner())
}

/// Dumps every live registry (panic hook and
/// [`StoreError::Corrupt`](crate::StoreError::Corrupt) construction).
pub(crate) fn dump_all(reason: &str) -> Vec<PathBuf> {
    let regs: Vec<Arc<FlightRegistry>> = {
        let mut all = lock_registries();
        all.retain(|w| w.strong_count() > 0);
        all.iter().filter_map(Weak::upgrade).collect()
    };
    regs.iter().filter_map(|r| r.dump(reason)).collect()
}
