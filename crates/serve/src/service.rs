//! The multi-tenant capping service.
//!
//! One [`CappingService`] hosts N concurrent tenants across
//! [`ServeConfig::shards`] worker shards. Each tenant gets its own
//! bulkhead: a `ResilientDaemon` over a [`SessionPlatform`] with its
//! own [`OneStepCapping`] controller, its own health state, and its
//! own slice of the shared socket power budget. The
//! failure-containment contract:
//!
//! * **Admission control** — [`CappingService::connect`] rejects a
//!   session with a typed [`ppep_types::RejectReason`] when the
//!   session slots or the socket budget are exhausted. Nothing about
//!   an admitted tenant changes another tenant's grant below the
//!   arbiter's fair share.
//! * **Bulkhead isolation** — a panic inside one tenant's daemon is
//!   caught at the session boundary and evicts only that tenant. A
//!   tenant entering Failsafe frees its budget back to the arbiter at
//!   the next tick, which redistributes it to the survivors; recovery
//!   restores its share.
//! * **Deadline watchdog** — a tenant that fails to submit before
//!   [`CappingService::tick`] is charged a missed deadline: its
//!   supervisor absorbs an [`Error::MissedInterval`] (degrading
//!   gracefully), and after [`ServeConfig::deadline_miss_limit`]
//!   consecutive misses the session is evicted with
//!   [`Error::DeadlineExceeded`].
//! * **Budget invariant** — every tick checks that the aggregate
//!   granted budget is within the socket cap; a violation is a
//!   service bug and surfaces as an error (the chaos gate asserts it
//!   never fires).
//!
//! # Sharded concurrency model
//!
//! The service takes `&self` everywhere — callers share it directly
//! (or behind an `Arc`), no external mutex. Internally:
//!
//! * **Frame pipeline, lock-free** — [`CappingService::handle_frame`]
//!   decodes (CRC validation included) and encodes *outside every
//!   lock*. Only the routed tenant's home-shard mutex is held while
//!   its daemon steps; the `ppep-lint` L7 rule proves no guard is
//!   ever live across the codec or I/O.
//! * **Shards** — tenants are routed to a home shard
//!   (`tenant % shards` by default, arbitrary via
//!   [`CappingService::with_assignment`]) and stay sticky to it. Two
//!   tenants on different shards never contend.
//! * **Epoch-stepped arbiter** — the one cross-shard object is the
//!   [`EpochArbiter`] on the control plane. Admission and Goodbye
//!   apply immediately (they already serialize on the control lock);
//!   data-path budget events (failsafe, recovery, eviction) are
//!   buffered per shard and applied in canonical order at the tick
//!   barrier, then published as an immutable [`GrantSnapshot`] that
//!   the data path reads. Grants are therefore a pure function of the
//!   op history, independent of shard interleaving — proptest-pinned
//!   in `ppep-dvfs::arbiter`.
//!
//! Lock hierarchy (outer to inner): control → router → one shard →
//! grant snapshot. The snapshot lock is innermost and never held
//! across any other acquisition.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};
use std::time::Instant;

use ppep_core::daemon::{DvfsController, PpepDaemon};
use ppep_core::resilient::{HealthState, ResilientDaemon, RetryPolicy, SupervisorConfig};
use ppep_core::Ppep;
use ppep_dvfs::{EpochArbiter, GrantSnapshot, OneStepCapping};
use ppep_obs::{RecorderHandle, ScorerConfig, Stage};
use ppep_telemetry::session::{decode_frame, encode_frame, SessionFrame};
use ppep_telemetry::IntervalRecord;
use ppep_types::{Error, RejectReason, Result, Topology, Watts};

use crate::platform::SessionPlatform;
use crate::shard::{ServiceShard, ShardGauge};
use crate::slo::SloTracker;

/// A tenant's controller: boxed so the service can host heterogeneous
/// policies, `Send` so sessions can live on worker shards driven from
/// any thread.
pub type TenantController = Box<dyn DvfsController + Send>;

/// Service tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// The shared socket power budget arbitrated across tenants.
    pub socket_cap: Watts,
    /// Per-tenant reservation floor for admission (see
    /// [`ppep_dvfs::EpochArbiter`]).
    pub min_grant: Watts,
    /// Maximum concurrent sessions.
    pub max_sessions: u32,
    /// Consecutive missed interval deadlines tolerated before the
    /// session is evicted with [`Error::DeadlineExceeded`]. Kept above
    /// the supervisor's three-strike failsafe so a silent tenant is
    /// first degraded, then failsafed, then evicted.
    pub deadline_miss_limit: u32,
    /// In-interval retry policy handed to each tenant's supervisor.
    pub retry: RetryPolicy,
    /// When set, every tenant's daemon scores its own predictions
    /// against the next measured interval with this configuration
    /// (see `ppep_obs::PredictionScorer`). Scoring is bit-inert.
    pub scorer: Option<ScorerConfig>,
    /// Hands `degrade_on_drift` to every tenant's supervisor: a
    /// drifting predictor holds the tenant in Degraded (health only —
    /// decisions are untouched). Requires `scorer` to have any effect.
    pub degrade_on_drift: bool,
    /// Worker shards the tenant population is partitioned across.
    /// `1` (the default) is single-lock-compat mode: every tenant on
    /// one shard, serialized exactly like the pre-sharding service.
    pub shards: u32,
}

impl ServeConfig {
    /// Defaults: 16 session slots, a 5 W admission floor, eviction
    /// after 5 consecutive missed deadlines, no accuracy scoring, one
    /// shard (single-lock-compat).
    pub fn new(socket_cap: Watts) -> Self {
        Self {
            socket_cap,
            min_grant: Watts::new(5.0),
            max_sessions: 16,
            deadline_miss_limit: 5,
            retry: RetryPolicy::new(),
            scorer: None,
            degrade_on_drift: false,
            shards: 1,
        }
    }
}

/// One hosted tenant (live or evicted — evicted sessions are kept for
/// reporting). Owned by exactly one [`ServiceShard`].
pub(crate) struct TenantSession {
    pub(crate) id: u64,
    pub(crate) slot: u32,
    pub(crate) daemon: ResilientDaemon<SessionPlatform, TenantController>,
    pub(crate) slo: SloTracker,
    pub(crate) submitted_this_tick: bool,
    pub(crate) consecutive_missed: u32,
    pub(crate) failsafed_in_arbiter: bool,
    pub(crate) evicted: Option<Error>,
}

/// A snapshot of one tenant's health for status reporting.
#[derive(Debug, Clone)]
pub struct TenantStatus {
    /// The tenant id.
    pub tenant: u64,
    /// Its session slot.
    pub slot: u32,
    /// The home shard the session is pinned to.
    pub shard: usize,
    /// Supervisor state (meaningless once evicted).
    pub health: HealthState,
    /// Why the session was evicted, when it was.
    pub evicted: Option<Error>,
    /// Intervals supervised.
    pub intervals: u64,
    /// Decision availability (fresh + held over intervals).
    pub availability: f64,
    /// Fresh decisions.
    pub fresh_decisions: u64,
    /// Held decisions.
    pub held_decisions: u64,
    /// Failsafe-pinned intervals.
    pub failsafe_intervals: u64,
    /// Transient faults absorbed.
    pub transient_errors: u64,
    /// Records rejected by validation.
    pub quarantined: u64,
    /// In-interval retries attempted.
    pub retries: u64,
    /// The cap granted at the last published epoch (zero once
    /// evicted; a failsafe frees its budget at the next tick).
    pub granted: Watts,
    /// Fraction of capped intervals whose measured power respected the
    /// cap (1.0 with nothing capped yet).
    pub cap_adherence: f64,
    /// Frame replies the service handled for this tenant.
    pub replies: u64,
    /// Bucket-resolution p99 reply latency, µs. Wall-clock — reported
    /// here and over the wire, but deliberately kept out of the
    /// deterministic JSONL artifact.
    pub p99_reply_us: f64,
    /// Mean CPI absolute-percentage error, percent (0 without a
    /// scorer).
    pub cpi_err_pct: f64,
    /// Mean chip-power absolute-percentage error, percent (0 without a
    /// scorer).
    pub power_err_pct: f64,
    /// Whether any drift trip-wire (CPI or power) is currently
    /// tripped.
    pub drifted: bool,
    /// Rising-edge drift trips across every tracked quantity.
    pub drift_trips: u64,
}

impl TenantStatus {
    /// One JSONL line for the per-tenant health artifact
    /// (`serve_health.jsonl`). Schema, one object per tenant:
    ///
    /// ```text
    /// tenant            u64    tenant id
    /// slot              u32    session slot, admission order
    /// shard             usize  home shard (deterministic routing)
    /// health            str    healthy|degraded|failsafe|evicted
    /// evicted           str?   eviction reason, null while live
    /// intervals         u64    intervals supervised
    /// availability      f64    (fresh + held) / intervals
    /// fresh             u64    fresh decisions
    /// held              u64    held decisions
    /// failsafe_intervals u64   intervals pinned at the failsafe VF
    /// transient_errors  u64    faults absorbed without failsafe
    /// quarantined       u64    records rejected by validation
    /// retries           u64    in-interval retries attempted
    /// granted_w         f64    cap grant at the last epoch, watts
    /// cap_adherence     f64    capped intervals under the cap / capped
    /// cpi_err_pct       f64    mean CPI APE, percent (0 w/o scorer)
    /// power_err_pct     f64    mean power APE, percent (0 w/o scorer)
    /// drifted           bool   any drift trip-wire currently tripped
    /// drift_trips       u64    rising-edge drift trips, all tracks
    /// ```
    ///
    /// Every field is deterministic for a deterministic workload —
    /// the chaos harness compares two runs' JSONL byte-for-byte, which
    /// is why the wall-clock `p99_reply_us` lives only in
    /// [`TenantStatus`] and the `MetricsSnapshot` wire frame, not
    /// here. The `shard` column is deterministic: routing is a pure
    /// function of tenant id and shard count.
    pub fn to_jsonl(&self) -> String {
        let health = match self.evicted {
            Some(_) => "evicted".to_string(),
            None => self.health.to_string(),
        };
        let evicted = match &self.evicted {
            Some(e) => format!("\"{}\"", e.to_string().replace('"', "'")),
            None => "null".to_string(),
        };
        format!(
            "{{\"tenant\":{},\"slot\":{},\"shard\":{},\"health\":\"{health}\",\
             \"evicted\":{evicted},\
             \"intervals\":{},\"availability\":{:.6},\"fresh\":{},\"held\":{},\
             \"failsafe_intervals\":{},\"transient_errors\":{},\"quarantined\":{},\
             \"retries\":{},\"granted_w\":{:.6},\"cap_adherence\":{:.6},\
             \"cpi_err_pct\":{:.6},\"power_err_pct\":{:.6},\"drifted\":{},\
             \"drift_trips\":{}}}",
            self.tenant,
            self.slot,
            self.shard,
            self.intervals,
            self.availability,
            self.fresh_decisions,
            self.held_decisions,
            self.failsafe_intervals,
            self.transient_errors,
            self.quarantined,
            self.retries,
            self.granted.as_watts(),
            self.cap_adherence,
            self.cpi_err_pct,
            self.power_err_pct,
            self.drifted,
            self.drift_trips,
        )
    }
}

/// The outcome of one service tick (deadline sweep + epoch advance +
/// invariant check).
#[derive(Debug, Clone)]
pub struct TickReport {
    /// The service interval just completed.
    pub interval: u64,
    /// Aggregate granted budget after the epoch advanced.
    pub total_granted: Watts,
    /// Frames the service generated for non-submitting tenants
    /// (held/failsafe replies and evictions), in shard order — in a
    /// networked deployment these would be pushed to the clients.
    pub frames: Vec<SessionFrame>,
}

/// The control plane: everything admission/Goodbye must serialize on.
struct ControlPlane {
    arbiter: EpochArbiter,
    next_slot: u32,
}

/// The multi-tenant capping service. See the module docs.
pub struct CappingService {
    ppep: Ppep,
    config: ServeConfig,
    topology: Topology,
    recorder: RecorderHandle,
    /// Outermost lock: admission, Goodbye, and the tick's epoch
    /// advance serialize here.
    control: Mutex<ControlPlane>,
    /// tenant → home shard. Sticky across eviction (reporting needs
    /// the route); dropped on Goodbye.
    router: RwLock<HashMap<u64, usize>>,
    /// The worker shards; a tenant's session lives on exactly one.
    shards: Vec<Mutex<ServiceShard>>,
    /// The published grant snapshot — innermost lock, read by the
    /// data path, replaced by the control plane.
    grants: RwLock<GrantSnapshot>,
    interval: AtomicU64,
}

impl CappingService {
    /// Builds a service over a trained engine.
    pub fn new(ppep: Ppep, config: ServeConfig) -> Self {
        let arbiter = EpochArbiter::new(config.socket_cap, config.min_grant);
        let snapshot = arbiter.snapshot().clone();
        let topology = ppep.models().topology().clone();
        let shard_count = config.shards.max(1) as usize;
        let shards = (0..shard_count)
            .map(|i| Mutex::new(ServiceShard::new(i, RecorderHandle::noop())))
            .collect();
        Self {
            ppep,
            config,
            topology,
            recorder: RecorderHandle::noop(),
            control: Mutex::new(ControlPlane {
                arbiter,
                next_slot: 0,
            }),
            router: RwLock::new(HashMap::new()),
            shards,
            grants: RwLock::new(snapshot),
            interval: AtomicU64::new(0),
        }
    }

    /// Attaches an observability recorder. Each tenant's daemon gets a
    /// `tenant.<id>.`-labeled view of it.
    #[must_use]
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder.clone();
        for shard in &mut self.shards {
            if let Ok(s) = shard.get_mut() {
                s.set_recorder(recorder.clone());
            }
        }
        self
    }

    /// Pins tenants to explicit home shards (out-of-range indices
    /// wrap). The equivalence proptest uses this to explore arbitrary
    /// tenant→shard assignments; production routing is the default
    /// `tenant % shards`.
    #[must_use]
    pub fn with_assignment(self, assignments: &[(u64, usize)]) -> Self {
        let shards = self.shards.len().max(1);
        if let Ok(mut router) = self.router.write() {
            for (tenant, shard) in assignments {
                router.insert(*tenant, *shard % shards);
            }
        }
        self
    }

    /// The chip model every session speaks (frame decoding resolves
    /// VF states and counter layout against it).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The service tick counter.
    pub fn interval(&self) -> u64 {
        self.interval.load(Ordering::Relaxed)
    }

    /// The configured socket budget.
    pub fn socket_cap(&self) -> Watts {
        self.config.socket_cap
    }

    /// Worker shards the service runs.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The home shard `tenant` is (or would be) routed to.
    pub fn shard_of(&self, tenant: u64) -> usize {
        let fallback = (tenant as usize) % self.shards.len().max(1);
        self.router
            .read()
            .ok()
            .and_then(|r| r.get(&tenant).copied())
            .unwrap_or(fallback)
    }

    /// The cap granted to `tenant` at the last published epoch, or
    /// `None` when it is not registered.
    pub fn granted(&self, tenant: u64) -> Option<Watts> {
        self.grants.read().ok().and_then(|g| g.granted(tenant))
    }

    /// The aggregate granted budget at the last published epoch.
    pub fn total_granted(&self) -> Watts {
        self.grants
            .read()
            .map(|g| g.total_granted())
            .unwrap_or(Watts::ZERO)
    }

    /// The arbiter epoch of the last published snapshot.
    pub fn epoch(&self) -> u64 {
        self.grants.read().map(|g| g.epoch()).unwrap_or(0)
    }

    /// Live (admitted, not evicted) session count across all shards.
    pub fn live_sessions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map(|s| s.live_count()).unwrap_or(0))
            .sum()
    }

    /// Per-shard occupancy and queue-depth gauges (also exported as
    /// recorder gauges at every tick).
    pub fn shard_gauges(&self) -> Vec<ShardGauge> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                s.lock().map(|s| s.gauge()).unwrap_or(ShardGauge {
                    shard: i,
                    live: 0,
                    evicted: 0,
                    queue_depth: 0,
                })
            })
            .collect()
    }

    /// Per-shard p99 of the service-side reply round-trip (decode →
    /// step → encode), µs, merged across the shard's sessions through
    /// the obs histograms. Index = shard.
    pub fn shard_reply_p99s(&self) -> Vec<f64> {
        self.shards
            .iter()
            .map(|s| {
                let mut h = ppep_obs::metrics::Histogram::latency_us();
                if let Ok(shard) = s.lock() {
                    shard.merge_reply_latency(&mut h);
                }
                h.percentile(0.99)
            })
            .collect()
    }

    /// Admits `tenant` with its default one-step capping controller,
    /// returning `(slot, granted cap)`.
    ///
    /// # Errors
    ///
    /// [`Error::Rejected`] when admission control turns the session
    /// away (slots or budget exhausted, duplicate tenant).
    pub fn connect(&self, tenant: u64, requested_cap: Watts) -> Result<(u32, Watts)> {
        let controller: TenantController =
            Box::new(OneStepCapping::new(self.ppep.clone(), requested_cap));
        self.connect_with_controller(tenant, requested_cap, controller)
    }

    /// Admits `tenant` with a caller-supplied controller (the chaos
    /// harness and the bulkhead tests inject faulty ones).
    ///
    /// # Errors
    ///
    /// [`Error::Rejected`] as for [`CappingService::connect`].
    pub fn connect_with_controller(
        &self,
        tenant: u64,
        requested_cap: Watts,
        controller: TenantController,
    ) -> Result<(u32, Watts)> {
        let mut control = self.lock_control()?;
        let shard_idx = self.assign_route(tenant)?;
        if self.lock_shard(shard_idx)?.has_live(tenant) {
            return Err(Error::Rejected {
                reason: RejectReason::DuplicateTenant { tenant },
            });
        }
        let live = self.live_sessions() as u32;
        if live >= self.config.max_sessions {
            return Err(Error::Rejected {
                reason: RejectReason::SessionSlotsExhausted {
                    active: live,
                    max: self.config.max_sessions,
                },
            });
        }
        let granted = control.arbiter.join(tenant, requested_cap)?;
        let slot = control.next_slot;
        control.next_slot += 1;

        let table = self.ppep.models().vf_table().clone();
        let mut supervisor = SupervisorConfig::new(table.lowest());
        supervisor.retry = self.config.retry;
        supervisor.degrade_on_drift = self.config.degrade_on_drift;
        let platform = SessionPlatform::new(self.topology.clone());
        let label = format!("tenant.{tenant}.");
        let mut daemon = PpepDaemon::new(self.ppep.clone(), platform, controller)
            .with_recorder(self.recorder.labeled(&label));
        if let Some(cfg) = self.config.scorer {
            daemon = daemon.with_scorer(cfg);
        }
        let mut daemon = ResilientDaemon::new(daemon, supervisor);
        daemon
            .inner_mut()
            .controller_mut()
            .set_enforced_cap(granted);
        self.lock_shard(shard_idx)?.insert(TenantSession {
            id: tenant,
            slot,
            daemon,
            slo: SloTracker::new(),
            submitted_this_tick: false,
            consecutive_missed: 0,
            failsafed_in_arbiter: false,
            evicted: None,
        });
        // Admission re-balanced everyone's share; publish the new
        // snapshot and push the grants into the live controllers.
        let snapshot = control.arbiter.snapshot().clone();
        self.publish(&snapshot)?;
        drop(control);
        self.sync_caps(&snapshot)?;
        self.recorder.incr("serve.sessions_admitted");
        Ok((slot, granted))
    }

    /// Closes a tenant's session, freeing its slot and budget
    /// immediately (Goodbye is a control-plane op).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] when the tenant has no live session.
    pub fn disconnect(&self, tenant: u64) -> Result<()> {
        let mut control = self.lock_control()?;
        let shard_idx = self.route(tenant)?;
        if !self.lock_shard(shard_idx)?.remove_live(tenant) {
            return Err(Error::InvalidInput(format!(
                "tenant {tenant} has no live session"
            )));
        }
        control.arbiter.leave_now(tenant)?;
        let snapshot = control.arbiter.snapshot().clone();
        self.publish(&snapshot)?;
        drop(control);
        if let Ok(mut router) = self.router.write() {
            router.remove(&tenant);
        }
        self.sync_caps(&snapshot)?;
        Ok(())
    }

    /// Handles one client-submitted measurement for `tenant`,
    /// returning the per-interval reply (or eviction notice). Routes
    /// to the tenant's home shard; only that shard's lock is held.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] when the tenant has no live session.
    /// Tenant-level failures (panics, fatal faults) never propagate —
    /// they evict the tenant and are reported in the returned
    /// [`SessionFrame::Evicted`].
    pub fn submit(&self, tenant: u64, record: IntervalRecord) -> Result<SessionFrame> {
        let interval = self.interval.load(Ordering::Relaxed);
        let caps = |t: u64| self.grant_of(t);
        let shard_idx = self.route(tenant)?;
        let mut shard = self.lock_shard(shard_idx)?;
        shard.submit(tenant, record, interval, &caps)
    }

    /// Handles a client-reported measurement fault for `tenant`: the
    /// tenant's supervisor absorbs it (hold / failsafe) and the reply
    /// reports the resulting decision.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] when the tenant has no live session.
    pub fn report_fault(&self, tenant: u64, error: Error) -> Result<SessionFrame> {
        let interval = self.interval.load(Ordering::Relaxed);
        let caps = |t: u64| self.grant_of(t);
        let shard_idx = self.route(tenant)?;
        let mut shard = self.lock_shard(shard_idx)?;
        shard.report_fault(tenant, error, interval, &caps)
    }

    /// Ends a service interval: every shard sweeps its deadline
    /// watchdogs, deferred budget ops drain into the arbiter, the
    /// epoch advances, the new grant snapshot is published, and the
    /// budget invariant is checked.
    ///
    /// # Errors
    ///
    /// An aggregate grant above the socket cap — a service bug, never
    /// expected — surfaces as [`Error::InvalidInput`].
    pub fn tick(&self) -> Result<TickReport> {
        let interval = self.interval.fetch_add(1, Ordering::Relaxed) + 1;
        let caps = |t: u64| self.grant_of(t);
        let mut frames = Vec::new();
        let mut deferred = Vec::new();
        let mut gauges = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let mut s = shard
                .lock()
                .map_err(|_| Error::InvalidInput("serve: shard lock poisoned".into()))?;
            frames.extend(s.sweep(interval, self.config.deadline_miss_limit, &caps));
            deferred.extend(s.drain_deferred());
            gauges.push(s.gauge());
        }
        for g in gauges {
            self.recorder
                .set_gauge(&format!("serve.shard.{}.occupancy", g.shard), g.live as f64);
            self.recorder.set_gauge(
                &format!("serve.shard.{}.queue_depth", g.shard),
                g.queue_depth as f64,
            );
        }
        let snapshot = {
            let mut control = self.lock_control()?;
            for (tenant, op) in deferred {
                control.arbiter.defer(tenant, op);
            }
            let snapshot = control.arbiter.advance().clone();
            self.publish(&snapshot)?;
            snapshot
        };
        let total = snapshot.total_granted();
        let cap = self.config.socket_cap;
        if total.as_watts() > cap.as_watts() * (1.0 + 1e-9) + 1e-9 {
            return Err(Error::InvalidInput(format!(
                "budget invariant violated: granted {total} exceeds socket cap {cap}"
            )));
        }
        self.sync_caps(&snapshot)?;
        self.recorder
            .set_gauge("serve.total_granted_w", total.as_watts());
        Ok(TickReport {
            interval,
            total_granted: total,
            frames,
        })
    }

    /// Decodes one client frame, applies it, and returns the encoded
    /// response frames plus the bytes consumed from `src`. Admission
    /// rejections come back as [`SessionFrame::Reject`] rather than
    /// errors; tenant-level failures as [`SessionFrame::Evicted`].
    ///
    /// Decode (CRC validation included) and encode run outside every
    /// lock; only the routed tenant's shard lock is held, and only
    /// while its daemon steps.
    ///
    /// # Errors
    ///
    /// Malformed bytes ([`decode_frame`]) and frames a client may not
    /// send (server-to-client kinds) surface as errors.
    pub fn handle_frame(&self, src: &[u8]) -> Result<(Vec<u8>, usize)> {
        let rec = self.recorder.clone();
        let interval = self.interval.load(Ordering::Relaxed);
        let started = Instant::now();
        let (frame, consumed) = {
            let _g = rec.span(Stage::ServeDecode, interval);
            decode_frame(src, &self.topology)?
        };
        // The tenant whose round-trip this frame is (submit/fault
        // replies — the frames on a client's per-interval hot path).
        let mut replied_tenant = None;
        let response = match frame {
            SessionFrame::Hello {
                tenant,
                requested_cap,
            } => {
                let _g = rec.span(Stage::ServeAdmit, interval);
                Some(match self.connect(tenant, requested_cap) {
                    Ok((slot, granted)) => SessionFrame::Welcome {
                        tenant,
                        granted_cap: granted,
                        slot,
                    },
                    Err(Error::Rejected { reason }) => SessionFrame::Reject { tenant, reason },
                    Err(other) => return Err(other),
                })
            }
            SessionFrame::Submit { tenant, record } => {
                replied_tenant = Some(tenant);
                let caps = |t: u64| self.grant_of(t);
                let reply = {
                    let mut shard = {
                        let _g = rec.span(Stage::ServeRoute, interval);
                        let idx = self.route(tenant)?;
                        self.lock_shard(idx)?
                    };
                    let _g = rec.span(Stage::ServeStep, interval);
                    shard.submit(tenant, *record, interval, &caps)?
                };
                Some(reply)
            }
            SessionFrame::FaultReport { tenant, error, .. } => {
                replied_tenant = Some(tenant);
                let caps = |t: u64| self.grant_of(t);
                let reply = {
                    let mut shard = {
                        let _g = rec.span(Stage::ServeRoute, interval);
                        let idx = self.route(tenant)?;
                        self.lock_shard(idx)?
                    };
                    let _g = rec.span(Stage::ServeStep, interval);
                    shard.report_fault(tenant, error, interval, &caps)?
                };
                Some(reply)
            }
            SessionFrame::Goodbye { tenant } => {
                let _g = rec.span(Stage::ServeAdmit, interval);
                self.disconnect(tenant)?;
                None
            }
            SessionFrame::Welcome { .. }
            | SessionFrame::Reject { .. }
            | SessionFrame::Reply { .. }
            | SessionFrame::Evicted { .. } => {
                return Err(Error::InvalidInput(
                    "session frame: clients may not send server frames".into(),
                ))
            }
        };
        let mut out = Vec::new();
        if let Some(f) = &response {
            let _g = rec.span(Stage::ServeEncode, interval);
            encode_frame(f, &mut out);
        }
        if let Some(tenant) = replied_tenant {
            let us = started.elapsed().as_secs_f64() * 1e6;
            self.observe_reply(tenant, us);
            rec.observe("serve.reply_us", us);
        }
        Ok((out, consumed))
    }

    /// Per-tenant status snapshots (live and evicted), in admission
    /// (slot) order across all shards.
    pub fn status(&self) -> Vec<TenantStatus> {
        let caps = |t: u64| self.grant_of(t);
        let mut all = Vec::new();
        for shard in &self.shards {
            if let Ok(s) = shard.lock() {
                all.extend(s.statuses(&caps));
            }
        }
        all.sort_by_key(|t| t.slot);
        all
    }

    /// Encodes one v2 `MetricsSnapshot` frame (kind 24) per session
    /// that carries a prediction scorer — live and evicted, admission
    /// order across all shards — each joined with the tenant's SLO
    /// summary. Empty when [`ServeConfig::scorer`] is off.
    pub fn metrics_snapshots(&self) -> Vec<u8> {
        let mut frames = Vec::new();
        for shard in &self.shards {
            if let Ok(s) = shard.lock() {
                frames.extend(s.snapshots());
            }
        }
        frames.sort_by_key(|(slot, _)| *slot);
        let mut out = Vec::new();
        for (_, bytes) in frames {
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// The per-tenant health report as JSONL (one line per tenant) —
    /// the CI chaos artifact.
    pub fn health_jsonl(&self) -> String {
        let mut out = String::new();
        for status in self.status() {
            out.push_str(&status.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// The published grant for `tenant`, zero when unregistered — the
    /// cap-lookup shards use on the data path.
    fn grant_of(&self, tenant: u64) -> Watts {
        self.grants
            .read()
            .ok()
            .and_then(|g| g.granted(tenant))
            .unwrap_or(Watts::ZERO)
    }

    fn publish(&self, snapshot: &GrantSnapshot) -> Result<()> {
        let mut g = self
            .grants
            .write()
            .map_err(|_| Error::InvalidInput("serve: grant snapshot lock poisoned".into()))?;
        *g = snapshot.clone();
        Ok(())
    }

    /// Pushes the published grants into every live, non-failsafed
    /// tenant's controller, shard by shard. No other lock is held
    /// while a shard syncs.
    fn sync_caps(&self, snapshot: &GrantSnapshot) -> Result<()> {
        for shard in &self.shards {
            shard
                .lock()
                .map_err(|_| Error::InvalidInput("serve: shard lock poisoned".into()))?
                .sync_caps(snapshot);
        }
        Ok(())
    }

    fn observe_reply(&self, tenant: u64, us: f64) {
        let Ok(idx) = self.route(tenant) else {
            return;
        };
        if let Some(shard) = self.shards.get(idx) {
            if let Ok(mut s) = shard.lock() {
                s.observe_reply(tenant, us);
            }
        }
    }

    fn lock_control(&self) -> Result<MutexGuard<'_, ControlPlane>> {
        self.control
            .lock()
            .map_err(|_| Error::InvalidInput("serve: control lock poisoned".into()))
    }

    fn lock_shard(&self, idx: usize) -> Result<MutexGuard<'_, ServiceShard>> {
        self.shards
            .get(idx)
            .ok_or_else(|| Error::InvalidInput(format!("serve: shard {idx} out of range")))?
            .lock()
            .map_err(|_| Error::InvalidInput("serve: shard lock poisoned".into()))
    }

    /// The home shard for an existing route.
    fn route(&self, tenant: u64) -> Result<usize> {
        self.router
            .read()
            .map_err(|_| Error::InvalidInput("serve: router lock poisoned".into()))?
            .get(&tenant)
            .copied()
            .ok_or_else(|| Error::InvalidInput(format!("tenant {tenant} has no live session")))
    }

    /// Resolves (or creates) the tenant's sticky home-shard route.
    fn assign_route(&self, tenant: u64) -> Result<usize> {
        let shards = self.shards.len().max(1);
        let mut router = self
            .router
            .write()
            .map_err(|_| Error::InvalidInput("serve: router lock poisoned".into()))?;
        let idx = *router
            .entry(tenant)
            .or_insert_with(|| (tenant as usize) % shards);
        Ok(idx % shards)
    }
}

impl std::fmt::Debug for CappingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CappingService")
            .field("shards", &self.shards.len())
            .field("live_sessions", &self.live_sessions())
            .field("interval", &self.interval.load(Ordering::Relaxed))
            .field("total_granted", &self.total_granted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::synthesize_trace;
    use crate::testutil::engine;
    use ppep_core::ppe::PpeProjection;
    use ppep_telemetry::session::{DecisionKind, TenantHealth};
    use ppep_telemetry::trace::TraceEvent;
    use ppep_types::VfStateId;

    fn records(n: u64, seed: u64) -> Vec<IntervalRecord> {
        synthesize_trace(n, seed)
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Interval(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    fn service(config: ServeConfig) -> CappingService {
        CappingService::new(engine().clone(), config)
    }

    #[test]
    fn admission_rejects_slots_budget_and_duplicates() {
        let mut cfg = ServeConfig::new(Watts::new(100.0));
        cfg.max_sessions = 2;
        cfg.min_grant = Watts::new(20.0);
        let svc = service(cfg);

        let (slot0, g0) = svc.connect(10, Watts::new(60.0)).unwrap();
        assert_eq!(slot0, 0);
        assert_eq!(g0, Watts::new(60.0));
        svc.connect(11, Watts::new(50.0)).unwrap();

        match svc.connect(10, Watts::new(10.0)) {
            Err(Error::Rejected {
                reason: RejectReason::DuplicateTenant { tenant: 10 },
            }) => {}
            other => panic!("wrong outcome {other:?}"),
        }
        match svc.connect(12, Watts::new(10.0)) {
            Err(Error::Rejected {
                reason: RejectReason::SessionSlotsExhausted { active: 2, max: 2 },
            }) => {}
            other => panic!("wrong outcome {other:?}"),
        }

        // A tight socket rejects on budget before slots run out.
        let mut cfg = ServeConfig::new(Watts::new(30.0));
        cfg.min_grant = Watts::new(20.0);
        let svc = service(cfg);
        svc.connect(1, Watts::new(25.0)).unwrap();
        match svc.connect(2, Watts::new(25.0)) {
            Err(Error::Rejected {
                reason: RejectReason::BudgetExhausted { .. },
            }) => {}
            other => panic!("wrong outcome {other:?}"),
        }

        // Disconnect frees the slot and the budget for a new tenant.
        svc.disconnect(1).unwrap();
        svc.connect(2, Watts::new(25.0)).unwrap();
        assert_eq!(svc.live_sessions(), 1);
    }

    /// A controller that panics on its Nth decision — the misbehaving
    /// tenant for the bulkhead test.
    struct PanickingController {
        decisions_until_panic: u32,
        fallback: Vec<VfStateId>,
    }

    impl DvfsController for PanickingController {
        fn decide(&mut self, _projection: &PpeProjection) -> ppep_types::Result<Vec<VfStateId>> {
            if self.decisions_until_panic == 0 {
                panic!("tenant controller bug");
            }
            self.decisions_until_panic -= 1;
            Ok(self.fallback.clone())
        }
    }

    #[test]
    fn panic_bulkhead_evicts_one_tenant_and_frees_its_budget() {
        let svc = service(ServeConfig::new(Watts::new(100.0)));
        let lowest = svc.topology().vf_table().lowest();
        let cores = svc.topology().cu_count();
        let bad: TenantController = Box::new(PanickingController {
            decisions_until_panic: 1,
            fallback: vec![lowest; cores],
        });
        svc.connect_with_controller(7, Watts::new(60.0), bad)
            .unwrap();
        svc.connect(1, Watts::new(60.0)).unwrap();
        let granted_before = svc.granted(1).unwrap();
        assert_eq!(granted_before, Watts::new(50.0), "contended 50/50 split");

        let rs = records(3, 9);
        let mut rs = rs.into_iter();
        // First decision succeeds...
        match svc.submit(7, rs.next().unwrap()).unwrap() {
            SessionFrame::Reply { tenant: 7, .. } => {}
            other => panic!("wrong outcome {other:?}"),
        }
        // ...the second panics inside the tenant's daemon.
        match svc.submit(7, rs.next().unwrap()).unwrap() {
            SessionFrame::Evicted {
                tenant: 7,
                error: Error::DeviceLost(msg),
                ..
            } => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("wrong outcome {other:?}"),
        }

        // Blast radius: tenant 7 gone, tenant 1 untouched.
        assert_eq!(svc.live_sessions(), 1);
        match svc.submit(1, rs.next().unwrap()).unwrap() {
            SessionFrame::Reply {
                tenant: 1,
                health: TenantHealth::Healthy,
                ..
            } => {}
            other => panic!("wrong outcome {other:?}"),
        }
        // The eviction's budget release lands at the epoch boundary:
        // after the tick, tenant 7's grant is gone and tenant 1 is
        // richer. (Tenant 1 submitted this tick, so the sweep charges
        // it no missed deadline.)
        svc.tick().unwrap();
        assert!(svc.granted(7).is_none());
        assert_eq!(svc.granted(1).unwrap(), Watts::new(60.0));
        // The evicted tenant is remembered for reporting.
        let status = svc.status();
        assert_eq!(status.len(), 2);
        assert!(status.iter().any(|t| t.tenant == 7 && t.evicted.is_some()));
        assert!(svc.health_jsonl().contains("\"health\":\"evicted\""));
    }

    #[test]
    fn deadline_watchdog_degrades_then_evicts_a_silent_tenant() {
        let mut cfg = ServeConfig::new(Watts::new(100.0));
        cfg.deadline_miss_limit = 3;
        let svc = service(cfg);
        svc.connect(4, Watts::new(40.0)).unwrap();

        // Two silent ticks: the supervisor absorbs missed intervals.
        for _ in 0..2 {
            let tick = svc.tick().unwrap();
            assert_eq!(tick.frames.len(), 1);
            match tick.frames.first().unwrap() {
                SessionFrame::Reply { tenant: 4, .. } => {}
                other => panic!("wrong outcome {other:?}"),
            }
        }
        // The third consecutive miss crosses the limit: evicted, and
        // the same tick's epoch advance frees the budget.
        let tick = svc.tick().unwrap();
        match tick.frames.first().unwrap() {
            SessionFrame::Evicted {
                tenant: 4,
                error:
                    Error::DeadlineExceeded {
                        missed: 3,
                        limit: 3,
                    },
                ..
            } => {}
            other => panic!("wrong outcome {other:?}"),
        }
        assert_eq!(svc.live_sessions(), 0);
        assert_eq!(svc.total_granted(), Watts::ZERO);
        assert_eq!(tick.total_granted, Watts::ZERO);
    }

    #[test]
    fn submitting_resets_the_deadline_counter() {
        let mut cfg = ServeConfig::new(Watts::new(100.0));
        cfg.deadline_miss_limit = 2;
        let svc = service(cfg);
        svc.connect(4, Watts::new(40.0)).unwrap();
        let rs = records(4, 11);
        for r in rs {
            svc.tick().unwrap(); // one miss each interval...
            svc.submit(4, r).unwrap(); // ...but never two in a row
        }
        assert_eq!(svc.live_sessions(), 1, "never crossed the limit");
    }

    #[test]
    fn failsafe_frees_budget_to_survivors_and_recovery_reclaims_it() {
        let svc = service(ServeConfig::new(Watts::new(100.0)));
        svc.connect(0, Watts::new(70.0)).unwrap();
        svc.connect(1, Watts::new(70.0)).unwrap();
        assert_eq!(svc.granted(1).unwrap(), Watts::new(50.0));

        // Three consecutive faults push tenant 0 into Failsafe. The
        // budget release is deferred to the epoch boundary, so the
        // failsafe replies still report the last published cap.
        let mut saw_failsafe = false;
        for _ in 0..3 {
            let frame = svc
                .report_fault(0, Error::SensorDropout { sensor: "hall" })
                .unwrap();
            if let SessionFrame::Reply {
                health: TenantHealth::Failsafe,
                cap,
                ..
            } = frame
            {
                saw_failsafe = true;
                assert_eq!(
                    cap,
                    Watts::new(50.0),
                    "pre-epoch replies report the published grant"
                );
            }
        }
        assert!(saw_failsafe, "three transient faults must pin failsafe");
        // The freed watts flow to the survivor at the tick barrier.
        // (Tenant 1 stays silent this tick — one absorbed miss.)
        svc.tick().unwrap();
        assert_eq!(svc.granted(0).unwrap(), Watts::ZERO);
        assert_eq!(svc.granted(1).unwrap(), Watts::new(70.0));

        // Good submissions recover the tenant; its share flows back
        // at the next epoch boundary.
        let mut recovered = false;
        for r in records(6, 23) {
            if let SessionFrame::Reply {
                health: TenantHealth::Healthy,
                ..
            } = svc.submit(0, r).unwrap()
            {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "good records must recover the tenant");
        let tick = svc.tick().unwrap();
        assert_eq!(svc.granted(0).unwrap(), Watts::new(50.0));
        assert_eq!(svc.granted(1).unwrap(), Watts::new(50.0));
        assert!(tick.total_granted <= Watts::new(100.0));
    }

    #[test]
    fn scorer_wires_accuracy_into_status_jsonl_and_snapshots() {
        let mut cfg = ServeConfig::new(Watts::new(100.0));
        cfg.scorer = Some(ScorerConfig::default());
        let svc = service(cfg);
        svc.connect(5, Watts::new(60.0)).unwrap();
        for r in records(6, 17) {
            let submit = SessionFrame::Submit {
                tenant: 5,
                record: Box::new(r),
            };
            svc.handle_frame(&ppep_telemetry::session::frame_to_bytes(&submit))
                .unwrap();
            svc.tick().unwrap();
        }

        let status = svc.status();
        let t = status.iter().find(|t| t.tenant == 5).unwrap();
        assert_eq!(t.replies, 6, "every submit round-trip is counted");
        assert!(t.p99_reply_us > 0.0);
        assert!(t.cpi_err_pct > 0.0, "scored intervals produce a CPI error");
        assert!(t.power_err_pct > 0.0);
        assert!((0.0..=1.0).contains(&t.cap_adherence));
        assert!(!t.drifted, "a clean synthetic run must not drift");

        let jsonl = svc.health_jsonl();
        for key in [
            "cap_adherence",
            "cpi_err_pct",
            "power_err_pct",
            "drifted",
            "drift_trips",
            "shard",
        ] {
            assert!(jsonl.contains(key), "missing {key} in {jsonl}");
        }
        assert!(
            !jsonl.contains("p99"),
            "wall-clock latency stays out of the deterministic artifact"
        );

        let bytes = svc.metrics_snapshots();
        let (snap, used) = ppep_telemetry::snapshot::decode_snapshot(&bytes).unwrap();
        assert_eq!(used, bytes.len(), "one tenant, one frame");
        assert_eq!(snap.tenant, 5);
        assert_eq!(snap.cores.len(), svc.topology().core_count());
        assert!(snap.power.count > 0);
        let slo = snap.slo.expect("slo summary rides along");
        assert!(slo.p99_reply_us > 0.0);
        assert!((0.0..=1.0).contains(&slo.cap_adherence));

        // Without a scorer there is nothing to export.
        let plain = service(ServeConfig::new(Watts::new(100.0)));
        plain.connect(1, Watts::new(40.0)).unwrap();
        assert!(plain.metrics_snapshots().is_empty());
        assert_eq!(plain.status()[0].cpi_err_pct, 0.0);
    }

    #[test]
    fn wire_roundtrip_hello_submit_goodbye() {
        let svc = service(ServeConfig::new(Watts::new(100.0)));
        let topology = svc.topology().clone();

        let hello = SessionFrame::Hello {
            tenant: 3,
            requested_cap: Watts::new(40.0),
        };
        let (resp, used) = svc
            .handle_frame(&ppep_telemetry::session::frame_to_bytes(&hello))
            .unwrap();
        assert_eq!(used, ppep_telemetry::session::frame_to_bytes(&hello).len());
        match decode_frame(&resp, &topology).unwrap().0 {
            SessionFrame::Welcome {
                tenant: 3, slot: 0, ..
            } => {}
            other => panic!("wrong outcome {other:?}"),
        }

        // A duplicate Hello comes back as a Reject frame, not an error.
        let (resp, _) = svc
            .handle_frame(&ppep_telemetry::session::frame_to_bytes(&hello))
            .unwrap();
        match decode_frame(&resp, &topology).unwrap().0 {
            SessionFrame::Reject {
                tenant: 3,
                reason: RejectReason::DuplicateTenant { tenant: 3 },
            } => {}
            other => panic!("wrong outcome {other:?}"),
        }

        let rs = records(1, 5);
        let submit = SessionFrame::Submit {
            tenant: 3,
            record: Box::new(rs.into_iter().next().unwrap()),
        };
        let (resp, _) = svc
            .handle_frame(&ppep_telemetry::session::frame_to_bytes(&submit))
            .unwrap();
        match decode_frame(&resp, &topology).unwrap().0 {
            SessionFrame::Reply {
                tenant: 3,
                action: DecisionKind::Fresh,
                projection: Some(p),
                ..
            } => assert!(p.power_ceiling >= p.power_floor),
            other => panic!("wrong outcome {other:?}"),
        }

        let goodbye = SessionFrame::Goodbye { tenant: 3 };
        let (resp, _) = svc
            .handle_frame(&ppep_telemetry::session::frame_to_bytes(&goodbye))
            .unwrap();
        assert!(resp.is_empty(), "goodbye has no response frame");
        assert_eq!(svc.live_sessions(), 0);

        // Clients may not speak server frames.
        let reply = SessionFrame::Reject {
            tenant: 9,
            reason: RejectReason::DuplicateTenant { tenant: 9 },
        };
        assert!(svc
            .handle_frame(&ppep_telemetry::session::frame_to_bytes(&reply))
            .is_err());
    }

    #[test]
    fn sharded_mode_routes_tenants_and_exports_per_shard_gauges() {
        let mut cfg = ServeConfig::new(Watts::new(120.0));
        cfg.shards = 3;
        let svc = service(cfg);
        assert_eq!(svc.shard_count(), 3);
        for tenant in 0..5u64 {
            svc.connect(tenant, Watts::new(20.0)).unwrap();
            assert_eq!(svc.shard_of(tenant), (tenant as usize) % 3);
        }
        // Drive one interval of traffic on every tenant.
        let rs = records(1, 31);
        let record = rs.into_iter().next().unwrap();
        for tenant in 0..5u64 {
            match svc.submit(tenant, record.clone()).unwrap() {
                SessionFrame::Reply { .. } => {}
                other => panic!("wrong outcome {other:?}"),
            }
        }
        svc.tick().unwrap();

        let gauges = svc.shard_gauges();
        assert_eq!(gauges.len(), 3);
        // tenants 0,3 → shard 0; 1,4 → shard 1; 2 → shard 2.
        assert_eq!(gauges[0].live, 2);
        assert_eq!(gauges[1].live, 2);
        assert_eq!(gauges[2].live, 1);
        assert!(gauges.iter().all(|g| g.queue_depth == 0), "all consumed");

        // Status is in slot order regardless of shard layout, and the
        // JSONL carries the shard column.
        let status = svc.status();
        let slots: Vec<u32> = status.iter().map(|t| t.slot).collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
        assert!(svc.health_jsonl().contains("\"shard\":2"));
        assert_eq!(svc.shard_reply_p99s().len(), 3);

        // Explicit assignments pin tenants wherever the caller says.
        let mut cfg = ServeConfig::new(Watts::new(120.0));
        cfg.shards = 4;
        let svc = service(cfg).with_assignment(&[(0, 3), (1, 3), (2, 7)]);
        svc.connect(0, Watts::new(20.0)).unwrap();
        svc.connect(1, Watts::new(20.0)).unwrap();
        svc.connect(2, Watts::new(20.0)).unwrap();
        assert_eq!(svc.shard_of(0), 3);
        assert_eq!(svc.shard_of(1), 3);
        assert_eq!(svc.shard_of(2), 3, "out-of-range assignments wrap");
    }
}
