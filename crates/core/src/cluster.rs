//! Multi-tenant clusters: N concurrent worlds in one process.
//!
//! A [`Cluster`] hosts N independent *tenants* — each one a full
//! [`Session`] configuration (own vendor, ABI mode, checkpoint policy,
//! fault schedule, [`crate::DurabilityPolicy`]) — and runs them
//! concurrently over shared infrastructure:
//!
//! * **One bounded worker pool** ([`simnet::WorkerPool`]). Each tenant's
//!   world gang-admits all of its rank permits at once (FIFO-ticketed,
//!   so wide tenants are never starved by narrow ones) and holds them
//!   for the run; total rank-thread concurrency across tenants is
//!   bounded by [`ClusterBuilder::worker_threads`].
//! * **One shared store committer** ([`dmtcp_sim::SharedStoreWriter`]).
//!   Every tenant's completed epochs flow through a single background
//!   thread that drains per-tenant lanes fair-share round-robin. A
//!   tenant with [`dmtcp_sim::QUEUE_DEPTH`] epochs queued blocks only its
//!   *own* submits; sticky commit errors latch per lane.
//! * **One shared tier shipper** ([`dmtcp_sim::SharedTier`], optional).
//!   Sealed epochs of every tenant ship through one multiplexed
//!   runtime, each under its own `tenant/<id>/` key namespace — the
//!   remote bucket holds N disjoint chains.
//!
//! Tenant isolation is the design invariant throughout: distinct chain
//! directories (enforced, with a durable `TENANT` ownership marker in
//! each), distinct tier namespaces, per-lane queues/errors/stats, and a
//! failing or faulted tenant leaves its siblings' runs untouched.
//!
//! ```no_run
//! use simnet::ClusterSpec;
//! use stool::cluster::Cluster;
//! use stool::programs::RingPings;
//! use stool::{Checkpointer, DurabilityPolicy, Session, StorePolicy, Vendor};
//!
//! let tenant = |vendor| {
//!     Session::builder()
//!         .cluster(ClusterSpec::builder().nodes(1).ranks_per_node(4).build())
//!         .vendor(vendor)
//!         .checkpointer(Checkpointer::mana())
//!         .checkpoint_every(2)
//!         .durability(DurabilityPolicy {
//!             store: Some(StorePolicy::new(format!("/tmp/chains/{vendor:?}"))),
//!             ..DurabilityPolicy::default()
//!         })
//!         .build()
//!         .unwrap()
//! };
//! let cluster = Cluster::builder()
//!     .worker_threads(8)
//!     .tenant("mpich", tenant(Vendor::Mpich))
//!     .tenant("ompi", tenant(Vendor::OpenMpi))
//!     .build()
//!     .unwrap();
//! let program = RingPings { rounds: 8, payload: 64 };
//! let report = cluster.run(&[("mpich", &program), ("ompi", &program)]).unwrap();
//! assert!(report.all_completed());
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dmtcp_sim::store::{EpochStats, StoreError};
use dmtcp_sim::tier::{tenant_namespace, FsTier, ObjectTier, SharedTier};
use simnet::WorkerPool;

use crate::error::{StoolError, StoolResult};
use crate::program::MpiProgram;
use crate::session::{wire_runs, RunOutcome, Session, TierPolicy};

/// One tenant of a [`Cluster`]: its id and its fully validated session
/// configuration.
struct Tenant {
    id: String,
    session: Session,
}

/// Builder for [`Cluster`].
pub struct ClusterBuilder {
    tenants: Vec<Tenant>,
    worker_threads: usize,
    tier: Option<TierPolicy>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            tenants: Vec::new(),
            worker_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8),
            tier: None,
        }
    }
}

impl ClusterBuilder {
    /// Bound the shared worker pool: at most this many rank threads run
    /// at once across all tenants (defaults to the host's parallelism).
    pub fn worker_threads(mut self, n: usize) -> Self {
        self.worker_threads = n.max(1);
        self
    }

    /// Attach one shared remote tier at `dir` (default shipper
    /// tunables): every tenant's sealed epochs ship through the same
    /// multiplexed runtime, each under its own `tenant/<id>/` key
    /// namespace.
    pub fn tier(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.tier = Some(TierPolicy {
            dir: dir.into(),
            config: dmtcp_sim::TierConfig::default(),
        });
        self
    }

    /// Add a built [`Session`] as a tenant. `id` becomes the tenant's
    /// tier namespace, its store-directory ownership claim and its
    /// telemetry tag.
    pub fn tenant(mut self, id: impl Into<String>, session: Session) -> Self {
        self.tenants.push(Tenant {
            id: id.into(),
            session,
        });
        self
    }

    /// Validate and build: tenant ids must be unique and valid tier
    /// namespaces, chain directories must be disjoint, and tenants may
    /// not bring a private tier when the cluster attaches a shared one.
    pub fn build(mut self) -> StoolResult<Cluster> {
        if self.tenants.is_empty() {
            return Err(StoolError::Config(
                "a cluster needs at least one tenant".into(),
            ));
        }
        let mut ids = BTreeSet::new();
        let mut dirs = BTreeMap::new();
        for tenant in &mut self.tenants {
            tenant_namespace(&tenant.id).map_err(|_| {
                StoolError::Config(format!(
                    "tenant id {:?} is not a valid tier namespace (one path segment, \
                     no separators, not '.'/'..')",
                    tenant.id
                ))
            })?;
            if !ids.insert(tenant.id.clone()) {
                return Err(StoolError::Config(format!(
                    "duplicate tenant id {:?}",
                    tenant.id
                )));
            }
            if let Some(store) = &mut tenant.session.config.durability.store {
                if let Some(owner) = dirs.insert(store.dir.clone(), tenant.id.clone()) {
                    return Err(StoolError::Config(format!(
                        "tenants {:?} and {:?} share the chain directory {}: distinct \
                         tenants must use distinct store directories",
                        owner,
                        tenant.id,
                        store.dir.display()
                    )));
                }
                if self.tier.is_some() && store.tier.is_some() {
                    return Err(StoolError::Config(format!(
                        "tenant {:?} attaches a private tier but the cluster attaches a \
                         shared one; use exactly one of the two",
                        tenant.id
                    )));
                }
                // The chain directory is claimed for the tenant: later
                // opens (commit path, restore, collect) all check the
                // durable TENANT marker.
                store.tenant = tenant.id.clone();
            }
        }
        Ok(Cluster {
            tenants: self.tenants,
            worker_threads: self.worker_threads,
            tier: self.tier,
        })
    }
}

/// N concurrent worlds behind one worker pool, one store committer and
/// (optionally) one tier shipper. See the [module docs](self).
pub struct Cluster {
    tenants: Vec<Tenant>,
    worker_threads: usize,
    tier: Option<TierPolicy>,
}

/// What one tenant's run produced.
#[derive(Debug)]
pub struct TenantReport {
    /// The tenant's run outcome — per tenant, so one tenant failing
    /// (fault plan, store error, rank panic) leaves its siblings'
    /// outcomes intact.
    pub outcome: StoolResult<RunOutcome>,
    /// Per-epoch commit statistics of the tenant's run, in commit order,
    /// as its telemetry snapshot reports them (empty when the tenant
    /// attached no store).
    pub epochs: Vec<EpochStats>,
    /// How many of the tenant's submits blocked on its own full queue.
    pub quota_waits: u64,
    /// The tenant lane's sticky commit error, if any.
    pub store_error: Option<StoreError>,
}

/// The outcome of [`Cluster::run`]: one [`TenantReport`] per tenant.
#[derive(Debug)]
pub struct ClusterReport {
    /// Reports keyed by tenant id.
    pub tenants: BTreeMap<String, TenantReport>,
}

impl ClusterReport {
    /// One tenant's report.
    pub fn tenant(&self, id: &str) -> Option<&TenantReport> {
        self.tenants.get(id)
    }

    /// Whether every tenant ran to completion.
    pub fn all_completed(&self) -> bool {
        self.tenants
            .values()
            .all(|t| matches!(&t.outcome, Ok(o) if o.is_completed()))
    }
}

impl Cluster {
    /// Begin building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// A tenant's session (e.g. to [`Session::restore_from_store`] its
    /// chain after a run, or read its [`Session::telemetry`]).
    pub fn session(&self, id: &str) -> Option<&Session> {
        self.tenants.iter().find(|t| t.id == id).map(|t| &t.session)
    }

    /// Run every tenant's program concurrently and report per tenant.
    ///
    /// `programs` maps tenant id → program; every tenant must appear
    /// exactly once. Worlds run on the shared bounded pool, epochs flow
    /// through the one shared committer (and tier, if attached), and a
    /// tenant failing — injected fault, store error, rank panic — does
    /// not disturb any sibling.
    pub fn run(&self, programs: &[(&str, &dyn MpiProgram)]) -> StoolResult<ClusterReport> {
        let by_id: BTreeMap<&str, &dyn MpiProgram> =
            programs.iter().map(|(id, p)| (*id, *p)).collect();
        if by_id.len() != programs.len() {
            return Err(StoolError::Config(
                "duplicate tenant id in the program list".into(),
            ));
        }
        for (id, _) in programs {
            if !self.tenants.iter().any(|t| t.id == *id) {
                return Err(StoolError::Config(format!(
                    "program for unknown tenant {id:?}"
                )));
            }
        }

        let pool = WorkerPool::new(self.worker_threads);
        let shared_tier = match &self.tier {
            None => None,
            Some(policy) => {
                let tier: Arc<dyn ObjectTier> = Arc::new(
                    FsTier::open(&policy.dir)
                        .map_err(|e| StoolError::Store(StoreError::Tier(e)))?,
                );
                Some(SharedTier::new(tier, policy.config))
            }
        };

        // Wire every tenant up front — the same wiring a lone session
        // gets, N runs wide: one committer, one lane per storing tenant.
        let runs: Vec<_> = self
            .tenants
            .iter()
            .map(|t| (&t.session.config, Some(t.id.as_str())))
            .collect();
        let wirings = wire_runs(&runs, shared_tier.as_ref(), false)?;

        // One driver thread per tenant, each gang-admitted onto the
        // shared pool.
        let outcomes: Vec<StoolResult<RunOutcome>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .tenants
                .iter()
                .zip(&wirings)
                .map(|(tenant, wiring)| {
                    let program = by_id.get(tenant.id.as_str()).copied();
                    let pool = &pool;
                    s.spawn(move || match program {
                        None => Err(StoolError::Config(format!(
                            "no program supplied for tenant {:?}",
                            tenant.id
                        ))),
                        Some(p) => tenant.session.run_inner(p, None, pool, wiring),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tenant driver thread"))
                .collect()
        });

        let mut tenants = BTreeMap::new();
        for ((tenant, outcome), wiring) in self.tenants.iter().zip(outcomes).zip(&wirings) {
            let (quota_waits, store_error) = match &wiring.sink {
                Some((w, lane)) => (w.quota_waits(*lane), w.lane_error(*lane)),
                None => (0, None),
            };
            let snapshot = tenant.session.telemetry();
            tenants.insert(
                tenant.id.clone(),
                TenantReport {
                    outcome,
                    epochs: snapshot.map(|s| s.epochs).unwrap_or_default(),
                    quota_waits,
                    store_error,
                },
            );
        }
        Ok(ClusterReport { tenants })
    }
}
