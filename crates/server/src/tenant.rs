//! Multi-tenant state: named tenants, each owning its own
//! [`MappingService`] namespace with an isolated cache budget, an
//! admission gate, and named mappings with per-mapping alphabets and
//! template registries.
//!
//! **One `MappingService` per tenant** is the isolation unit: the
//! engine's byte ledger, LRU eviction and generation stamps all
//! live inside a service, so giving every tenant its own service makes
//! budgets, evictions, quarantines and statistics tenant-local by
//! construction — one tenant's hot queries can never evict another
//! tenant's solutions, and a quarantined solution only ever retries inside
//! the tenant that tripped it. Every mapping is labelled with its tenant
//! name ([`MappingService::set_tenant_label`]) so aggregated
//! [`ServingStats`] refuse cross-tenant bleed structurally.

use crate::protocol::ApiError;
use gde_core::engine::{MappingId, MappingService, ServingStats, TemplateId};
use gde_datagraph::par::{lock_recover, read_recover, write_recover};
use gde_datagraph::Alphabet;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Server configuration. `addr` of `127.0.0.1:0` binds an ephemeral port
/// (the handle reports the resolved address) — the shape every test and
/// bench uses.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address.
    pub addr: String,
    /// Connection-serving worker threads. Defaults to the engine's
    /// worker-thread budget ([`gde_datagraph::par::max_threads`], i.e.
    /// `GDE_MAX_THREADS`), floor 2 — connections and the engine's
    /// fan-outs share one thread budget by default.
    pub workers: usize,
    /// Sub-relation/solution cache budget for each newly created tenant,
    /// in bytes (tunable per tenant at creation).
    pub default_cache_budget: usize,
    /// In-flight request cap for each newly created tenant — the
    /// server-door half of admission control (the engine's byte-budget
    /// half sits below it).
    pub default_max_inflight: usize,
    /// Default per-request deadline applied when a request carries no
    /// `deadline_ms` of its own (`None` = unbounded).
    pub default_deadline: Option<Duration>,
    /// Cap on request line + headers, in bytes.
    pub max_header_bytes: usize,
    /// Cap on request bodies, in bytes.
    pub max_body_bytes: usize,
    /// Socket read timeout (stalled-peer backstop).
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: gde_datagraph::par::max_threads().max(2),
            default_cache_budget: 256 * 1024 * 1024,
            default_max_inflight: 64,
            default_deadline: None,
            max_header_bytes: 16 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// One named mapping inside a tenant: the engine id plus the serving-side
/// state the wire protocol needs — a persistent target-alphabet interner
/// and the template registry.
///
/// The interner is the subtle part: queries arrive as *text* and label
/// names must resolve to the same [`gde_datagraph::Label`] indices on
/// every request, or two different labels interned by two different
/// requests could alias in the engine's binding-keyed caches. Interning
/// through one persistent per-mapping alphabet (seeded from the mapping's
/// target alphabet) makes label identity stable for the life of the
/// mapping.
pub struct MappingHandle {
    /// The engine handle.
    pub id: MappingId,
    /// Persistent target-alphabet interner for query parsing.
    pub alphabet: Mutex<Alphabet>,
    /// Registered templates: wire id (hex skeleton hash) → engine handle
    /// + slot count.
    pub templates: Mutex<HashMap<String, (TemplateId, usize)>>,
}

/// A tenant: its own engine namespace plus the server-door admission
/// gate.
pub struct Tenant {
    /// Tenant name (also the label on every mapping's stats).
    pub name: String,
    /// The tenant's own serving engine (isolated budget + caches).
    pub svc: MappingService,
    mappings: RwLock<HashMap<String, Arc<MappingHandle>>>,
    inflight: AtomicUsize,
    max_inflight: AtomicUsize,
    /// Requests refused at the server door because the tenant was at its
    /// in-flight cap.
    pub door_rejected: AtomicU64,
}

/// RAII in-flight slot: dropping it releases the admission slot even when
/// the handler panics (the count must never leak on a contained fault).
pub struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Tenant {
    /// Create a tenant with its own service under `budget` bytes.
    pub fn new(name: &str, budget: usize, max_inflight: usize) -> Tenant {
        Tenant {
            name: name.to_string(),
            svc: MappingService::with_cache_budget(budget),
            mappings: RwLock::new(HashMap::new()),
            inflight: AtomicUsize::new(0),
            max_inflight: AtomicUsize::new(max_inflight.max(1)),
            door_rejected: AtomicU64::new(0),
        }
    }

    /// Adjust the in-flight cap.
    pub fn set_max_inflight(&self, n: usize) {
        self.max_inflight.store(n.max(1), Ordering::Relaxed);
    }

    /// Claim an in-flight slot, or refuse at the door (429).
    pub fn admit(&self) -> Result<InflightGuard<'_>, ApiError> {
        let cap = self.max_inflight.load(Ordering::Relaxed);
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if prev >= cap {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.door_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ApiError::new(
                429,
                "over-capacity",
                format!(
                    "tenant {:?} is at its in-flight request cap ({cap})",
                    self.name
                ),
            ));
        }
        Ok(InflightGuard(&self.inflight))
    }

    /// Register a mapping handle under a wire name.
    pub fn insert_mapping(&self, name: &str, handle: MappingHandle) -> Result<(), ApiError> {
        let mut map = write_recover(&self.mappings);
        if map.contains_key(name) {
            return Err(ApiError::new(
                409,
                "mapping-exists",
                format!("mapping {name:?} already registered"),
            ));
        }
        map.insert(name.to_string(), Arc::new(handle));
        Ok(())
    }

    /// Look a mapping up by wire name.
    pub fn mapping(&self, name: &str) -> Result<Arc<MappingHandle>, ApiError> {
        read_recover(&self.mappings)
            .get(name)
            .cloned()
            .ok_or_else(|| {
                ApiError::not_found("unknown-mapping", format!("no mapping named {name:?}"))
            })
    }

    /// The mapping names registered in this tenant, sorted.
    pub fn mapping_names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_recover(&self.mappings).keys().cloned().collect();
        names.sort();
        names
    }

    /// Aggregate serving statistics across every mapping in this tenant.
    /// Built on [`ServingStats::absorb`], which refuses to fold stats
    /// carrying a different tenant label — so even a mislabelled mapping
    /// cannot bleed its counters into this tenant's report (it is
    /// dropped, not mixed in).
    pub fn aggregate_stats(&self) -> ServingStats {
        let ids: Vec<MappingId> = {
            let map = read_recover(&self.mappings);
            map.values().map(|h| h.id).collect()
        };
        let mut total = ServingStats {
            tenant: self.name.clone(),
            ..ServingStats::default()
        };
        for id in ids {
            if let Some(stats) = self.svc.serving_stats(id) {
                // absorb() returns false on a label mismatch; that is the
                // no-bleed guarantee doing its job, not an error
                let _ = total.absorb(&stats);
            }
        }
        total
    }

    /// Template lookup by wire id.
    pub fn template(
        &self,
        handle: &MappingHandle,
        wire_id: &str,
    ) -> Result<(TemplateId, usize), ApiError> {
        lock_recover(&handle.templates)
            .get(wire_id)
            .copied()
            .ok_or_else(|| {
                ApiError::not_found("unknown-template", format!("no template {wire_id:?}"))
            })
    }
}

/// Server-wide shared state: the tenant registry, the configuration, and
/// coarse request counters for `/stats`.
pub struct ServerState {
    /// The configuration the server started with.
    pub config: ServerConfig,
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    /// Total requests handled (any status).
    pub requests: AtomicU64,
    /// Responses with 4xx statuses.
    pub http_4xx: AtomicU64,
    /// Responses with 5xx statuses.
    pub http_5xx: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Handler panics contained by the per-request `catch_unwind`.
    pub contained_panics: AtomicU64,
}

impl ServerState {
    /// Fresh state under a configuration.
    pub fn new(config: ServerConfig) -> ServerState {
        ServerState {
            config,
            tenants: RwLock::new(HashMap::new()),
            requests: AtomicU64::new(0),
            http_4xx: AtomicU64::new(0),
            http_5xx: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            contained_panics: AtomicU64::new(0),
        }
    }

    /// Create (or reconfigure) a tenant. Idempotent on the name: an
    /// existing tenant has its budget / in-flight cap updated in place
    /// and keeps its mappings.
    pub fn create_tenant(
        &self,
        name: &str,
        budget: Option<usize>,
        max_inflight: Option<usize>,
    ) -> (Arc<Tenant>, bool) {
        if let Some(t) = read_recover(&self.tenants).get(name).cloned() {
            if let Some(b) = budget {
                t.svc.set_cache_budget(b);
            }
            if let Some(m) = max_inflight {
                t.set_max_inflight(m);
            }
            return (t, false);
        }
        let mut map = write_recover(&self.tenants);
        if let Some(t) = map.get(name).cloned() {
            return (t, false);
        }
        let t = Arc::new(Tenant::new(
            name,
            budget.unwrap_or(self.config.default_cache_budget),
            max_inflight.unwrap_or(self.config.default_max_inflight),
        ));
        map.insert(name.to_string(), t.clone());
        (t, true)
    }

    /// Look a tenant up by name.
    pub fn tenant(&self, name: &str) -> Result<Arc<Tenant>, ApiError> {
        read_recover(&self.tenants)
            .get(name)
            .cloned()
            .ok_or_else(|| {
                ApiError::not_found("unknown-tenant", format!("no tenant named {name:?}"))
            })
    }

    /// Tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_recover(&self.tenants).keys().cloned().collect();
        names.sort();
        names
    }
}
