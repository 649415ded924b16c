//! One worker shard of the sharded [`crate::CappingService`].
//!
//! A [`ServiceShard`] owns a disjoint tenant group's
//! [`ResilientDaemon`] bulkheads. Shards are fully independent on the
//! data path: stepping a tenant touches only its home shard's state
//! plus the service's *published* grant snapshot (read through a
//! caller-supplied lookup — shards never see the arbiter itself).
//! Budget-changing events observed on the data path (failsafe
//! transitions, recoveries, evictions) are buffered as
//! [`ArbiterOp`]s in the shard and drained by the service at the tick
//! barrier, where the [`ppep_dvfs::EpochArbiter`] applies them in
//! canonical order — that is what keeps water-fill grants
//! byte-identical under any shard interleaving.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ppep_core::resilient::{Action, HealthState, SupervisedStep};
use ppep_dvfs::{ArbiterOp, GrantSnapshot};
use ppep_obs::RecorderHandle;
use ppep_telemetry::session::{DecisionKind, ProjectionSummary, SessionFrame, TenantHealth};
use ppep_telemetry::snapshot::{encode_snapshot, MetricsSnapshot};
use ppep_telemetry::IntervalRecord;
use ppep_types::time::IntervalIndex;
use ppep_types::{Error, Result, VfStateId, Watts};

use crate::service::{TenantSession, TenantStatus};

/// Point-in-time load gauges for one shard, exported at every tick as
/// `serve.shard.<i>.occupancy` / `serve.shard.<i>.queue_depth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardGauge {
    /// The shard index.
    pub shard: usize,
    /// Live (admitted, not evicted) sessions homed on the shard.
    pub live: usize,
    /// Evicted sessions still retained for reporting.
    pub evicted: usize,
    /// Interval records enqueued but not yet consumed by a step,
    /// summed over the shard's live sessions.
    pub queue_depth: usize,
}

/// A shard's cap-lookup function: resolves a tenant's granted cap
/// from the service's published [`GrantSnapshot`]. Passed in by the
/// coordinator so shard code never holds a second lock.
pub(crate) type CapLookup<'a> = &'a dyn Fn(u64) -> Watts;

pub(crate) struct ServiceShard {
    index: usize,
    sessions: Vec<TenantSession>,
    /// Budget ops observed on the data path since the last tick, in
    /// arrival order (per-tenant order is program order because a
    /// tenant is sticky to one shard).
    deferred: Vec<(u64, ArbiterOp)>,
    recorder: RecorderHandle,
}

impl ServiceShard {
    pub(crate) fn new(index: usize, recorder: RecorderHandle) -> Self {
        Self {
            index,
            sessions: Vec::new(),
            deferred: Vec::new(),
            recorder,
        }
    }

    pub(crate) fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    pub(crate) fn live_count(&self) -> usize {
        self.sessions.iter().filter(|s| s.evicted.is_none()).count()
    }

    pub(crate) fn has_live(&self, tenant: u64) -> bool {
        self.sessions
            .iter()
            .any(|s| s.evicted.is_none() && s.id == tenant)
    }

    pub(crate) fn insert(&mut self, session: TenantSession) {
        self.sessions.push(session);
    }

    /// Removes the tenant's live session (Goodbye path). Returns
    /// whether one existed.
    pub(crate) fn remove_live(&mut self, tenant: u64) -> bool {
        let before = self.sessions.len();
        self.sessions
            .retain(|s| !(s.evicted.is_none() && s.id == tenant));
        self.sessions.len() != before
    }

    pub(crate) fn gauge(&self) -> ShardGauge {
        let live = self.live_count();
        let queue_depth = self
            .sessions
            .iter()
            .filter(|s| s.evicted.is_none())
            .map(|s| s.daemon.inner().platform().pending())
            .sum();
        ShardGauge {
            shard: self.index,
            live,
            evicted: self.sessions.len() - live,
            queue_depth,
        }
    }

    pub(crate) fn drain_deferred(&mut self) -> Vec<(u64, ArbiterOp)> {
        std::mem::take(&mut self.deferred)
    }

    /// Enqueues a submitted record and steps the tenant's daemon.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] when the tenant has no live session on
    /// this shard.
    pub(crate) fn submit(
        &mut self,
        tenant: u64,
        record: IntervalRecord,
        interval: u64,
        caps: CapLookup<'_>,
    ) -> Result<SessionFrame> {
        let idx = self.live_index(tenant)?;
        if let Some(s) = self.sessions.get_mut(idx) {
            s.daemon.inner_mut().platform_mut().push_record(record);
            s.submitted_this_tick = true;
            s.consecutive_missed = 0;
        }
        Ok(self.step_session(idx, interval, caps))
    }

    /// Enqueues a client-reported fault and steps the tenant's daemon.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] when the tenant has no live session on
    /// this shard.
    pub(crate) fn report_fault(
        &mut self,
        tenant: u64,
        error: Error,
        interval: u64,
        caps: CapLookup<'_>,
    ) -> Result<SessionFrame> {
        let idx = self.live_index(tenant)?;
        if let Some(s) = self.sessions.get_mut(idx) {
            s.daemon.inner_mut().platform_mut().push_fault(error);
            s.submitted_this_tick = true;
            s.consecutive_missed = 0;
        }
        Ok(self.step_session(idx, interval, caps))
    }

    /// Records a frame round-trip latency on the tenant's newest
    /// session (a tenant may reconnect after eviction; latency belongs
    /// to the current incarnation).
    pub(crate) fn observe_reply(&mut self, tenant: u64, us: f64) {
        if let Some(s) = self.sessions.iter_mut().rev().find(|s| s.id == tenant) {
            s.slo.observe_reply_us(us);
        }
    }

    /// The deadline sweep for this shard: every live tenant that did
    /// not submit is charged a missed deadline (absorbed by its
    /// supervisor, or evicted past `miss_limit`), submission flags
    /// reset.
    pub(crate) fn sweep(
        &mut self,
        interval: u64,
        miss_limit: u32,
        caps: CapLookup<'_>,
    ) -> Vec<SessionFrame> {
        let mut frames = Vec::new();
        for idx in 0..self.sessions.len() {
            let (missed, submitted) = match self.sessions.get(idx) {
                Some(s) if s.evicted.is_none() => (s.consecutive_missed, s.submitted_this_tick),
                _ => continue,
            };
            if submitted {
                if let Some(s) = self.sessions.get_mut(idx) {
                    s.submitted_this_tick = false;
                }
                continue;
            }
            let missed = missed + 1;
            if let Some(s) = self.sessions.get_mut(idx) {
                s.consecutive_missed = missed;
            }
            if missed >= miss_limit {
                let error = Error::DeadlineExceeded {
                    missed,
                    limit: miss_limit,
                };
                frames.push(self.evict(idx, error, interval));
                continue;
            }
            // The empty session queue turns this step into an
            // Error::MissedInterval inside the tenant's supervisor:
            // degraded handling, not a crash.
            frames.push(self.step_session(idx, interval, caps));
        }
        frames
    }

    /// Pushes the published grants into every live, non-failsafed
    /// tenant's controller.
    pub(crate) fn sync_caps(&mut self, snapshot: &GrantSnapshot) {
        for s in &mut self.sessions {
            if s.evicted.is_some() || s.failsafed_in_arbiter {
                continue;
            }
            if let Some(granted) = snapshot.granted(s.id) {
                s.daemon
                    .inner_mut()
                    .controller_mut()
                    .set_enforced_cap(granted);
            }
        }
    }

    /// Per-tenant status snapshots for this shard's sessions (live and
    /// evicted), in local admission order.
    pub(crate) fn statuses(&self, caps: CapLookup<'_>) -> Vec<TenantStatus> {
        self.sessions
            .iter()
            .map(|s| {
                let r = s.daemon.report();
                let scorer = s.daemon.inner().scorer();
                let drift_trips = scorer.map_or(0, |sc| {
                    sc.cores().iter().map(|t| t.drift().trips()).sum::<u64>()
                        + sc.power().drift().trips()
                });
                TenantStatus {
                    tenant: s.id,
                    slot: s.slot,
                    shard: self.index,
                    health: s.daemon.health_state(),
                    evicted: s.evicted.clone(),
                    intervals: r.intervals,
                    availability: r.decision_availability(),
                    fresh_decisions: r.fresh_decisions,
                    held_decisions: r.held_decisions,
                    failsafe_intervals: r.failsafe_intervals,
                    transient_errors: r.transient_errors,
                    quarantined: r.quarantined,
                    retries: r.retries,
                    granted: if s.evicted.is_some() {
                        Watts::ZERO
                    } else {
                        caps(s.id)
                    },
                    cap_adherence: s.slo.cap_adherence(),
                    replies: s.slo.replies(),
                    p99_reply_us: s.slo.p99_reply_us(),
                    cpi_err_pct: scorer.map_or(0.0, |sc| sc.mean_cpi_pct()),
                    power_err_pct: scorer.map_or(0.0, |sc| sc.power().mean_pct()),
                    drifted: scorer.is_some_and(|sc| sc.drifted()),
                    drift_trips,
                }
            })
            .collect()
    }

    /// `(slot, encoded MetricsSnapshot frame)` per scoring session on
    /// this shard — the coordinator merges across shards by slot.
    pub(crate) fn snapshots(&self) -> Vec<(u32, Vec<u8>)> {
        let mut out = Vec::new();
        for s in &self.sessions {
            if let Some(scorer) = s.daemon.inner().scorer() {
                let slo = s.slo.summary(s.daemon.report().decision_availability());
                let snap = MetricsSnapshot::from_scorer(s.id, scorer, Some(slo));
                let mut bytes = Vec::new();
                encode_snapshot(&snap, &mut bytes);
                out.push((s.slot, bytes));
            }
        }
        out
    }

    fn live_index(&self, tenant: u64) -> Result<usize> {
        self.sessions
            .iter()
            .position(|s| s.evicted.is_none() && s.id == tenant)
            .ok_or_else(|| Error::InvalidInput(format!("tenant {tenant} has no live session")))
    }

    /// Runs one supervised step for a tenant inside the bulkhead:
    /// panics and fatal faults evict only this tenant.
    fn step_session(&mut self, idx: usize, interval: u64, caps: CapLookup<'_>) -> SessionFrame {
        let (tenant, outcome) = match self.sessions.get_mut(idx) {
            Some(s) => {
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| s.daemon.step().map(StepSummary::of)));
                (s.id, outcome)
            }
            None => {
                return SessionFrame::Evicted {
                    tenant: u64::MAX,
                    index: IntervalIndex(interval),
                    error: Error::InvalidInput("session vanished mid-step".into()),
                }
            }
        };
        match outcome {
            Err(_panic) => {
                self.recorder.incr("serve.panics_contained");
                let error = Error::DeviceLost(format!(
                    "tenant {tenant} panicked inside its daemon; session evicted"
                ));
                self.evict(idx, error, interval)
            }
            Ok(Err(fatal)) => self.evict(idx, fatal, interval),
            Ok(Ok(step)) => {
                self.sync_tenant_health(idx);
                // The cap a reply reports is the *published* grant —
                // a health transition this step deferred an op for
                // takes budget effect at the next epoch boundary.
                let cap = caps(tenant);
                if let (Some(measured), Some(s)) = (step.measured_power, self.sessions.get_mut(idx))
                {
                    s.slo.observe_cap(measured, cap);
                }
                SessionFrame::Reply {
                    tenant,
                    interval: step.interval,
                    action: step.action,
                    health: step.health,
                    cap,
                    decision: step.decision,
                    projection: step.projection,
                }
            }
        }
    }

    /// Mirrors a tenant's supervisor state toward the arbiter:
    /// entering Failsafe defers a budget-freeing op, recovery defers
    /// the restore. Both land at the next epoch boundary.
    fn sync_tenant_health(&mut self, idx: usize) {
        let Some(s) = self.sessions.get(idx) else {
            return;
        };
        let tenant = s.id;
        let in_failsafe = s.daemon.health_state() == HealthState::Failsafe;
        let marked = s.failsafed_in_arbiter;
        if in_failsafe && !marked {
            if let Some(s) = self.sessions.get_mut(idx) {
                s.failsafed_in_arbiter = true;
            }
            self.deferred.push((tenant, ArbiterOp::Failsafe));
            self.recorder.incr("serve.budget_freed");
        } else if !in_failsafe && marked {
            if let Some(s) = self.sessions.get_mut(idx) {
                s.failsafed_in_arbiter = false;
            }
            self.deferred.push((tenant, ArbiterOp::Restore));
            self.recorder.incr("serve.budget_restored");
        }
    }

    /// Terminates a session: defers the budget release, keeps the
    /// record for reporting, and returns the eviction notice.
    fn evict(&mut self, idx: usize, error: Error, interval: u64) -> SessionFrame {
        let tenant = match self.sessions.get_mut(idx) {
            Some(s) => {
                s.evicted = Some(error.clone());
                s.id
            }
            None => u64::MAX,
        };
        self.deferred.push((tenant, ArbiterOp::Leave));
        self.recorder.incr("serve.sessions_evicted");
        self.recorder.event("serve.evicted", interval);
        SessionFrame::Evicted {
            tenant,
            index: IntervalIndex(interval),
            error,
        }
    }
}

impl std::fmt::Debug for ServiceShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceShard")
            .field("index", &self.index)
            .field("live", &self.live_count())
            .field("deferred_ops", &self.deferred.len())
            .finish()
    }
}

/// What a reply carries from one supervised step, copied out of the
/// step the daemon lends before the shard touches its sessions again.
struct StepSummary {
    interval: u64,
    action: DecisionKind,
    health: TenantHealth,
    measured_power: Option<Watts>,
    projection: Option<ProjectionSummary>,
    decision: Vec<VfStateId>,
}

impl StepSummary {
    fn of(step: &SupervisedStep) -> Self {
        let projection = step.projection.as_ref().map(|p| {
            let mut floor = f64::INFINITY;
            let mut ceiling = f64::NEG_INFINITY;
            for c in &p.chip {
                floor = floor.min(c.power.as_watts());
                ceiling = ceiling.max(c.power.as_watts());
            }
            ProjectionSummary {
                power_floor: Watts::new(floor.min(ceiling)),
                power_ceiling: Watts::new(ceiling.max(floor)),
                temperature: p.temperature,
            }
        });
        Self {
            interval: step.interval,
            action: match step.action {
                Action::Fresh => DecisionKind::Fresh,
                Action::Held => DecisionKind::Held,
                Action::Failsafe => DecisionKind::Failsafe,
            },
            health: match step.state {
                HealthState::Healthy => TenantHealth::Healthy,
                HealthState::Degraded => TenantHealth::Degraded,
                HealthState::Failsafe => TenantHealth::Failsafe,
            },
            measured_power: step.record.as_ref().map(|r| r.measured_power),
            projection,
            decision: step.decision.clone(),
        }
    }
}
