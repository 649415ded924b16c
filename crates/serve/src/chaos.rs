//! Chaos harness: prove the bulkheads hold.
//!
//! [`run`] hosts a fleet of simulated tenants on one
//! [`CappingService`] and aims a seeded fault storm at exactly one of
//! them — the *victim*. Every tenant speaks the real wire protocol
//! (frames in, frames out, CRC and all), so the harness exercises the
//! full session path, not a shortcut around it.
//!
//! [`ChaosReport::gate`] then asserts the blast-radius containment
//! contract:
//!
//! 1. the victim visibly degrades (Degraded, Failsafe, or evicted) —
//!    the storm actually bit;
//! 2. every *other* tenant sustains at least
//!    [`ChaosConfig::survivor_availability`] decision availability and
//!    is never evicted — the blast stayed inside the victim's
//!    bulkhead;
//! 3. the aggregate granted budget never exceeded the socket cap at
//!    any interval — arbitration held even while the victim's budget
//!    was being freed and redistributed.
//!
//! A gate failure is an [`Error::InvalidInput`] so a CI runner turns
//! it into a nonzero exit.

use std::sync::Arc;

use ppep_core::resilient::HealthState;
use ppep_core::Ppep;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::fault::FaultPlan;
use ppep_sim::SimPlatform;
use ppep_telemetry::session::{decode_frame, frame_to_bytes, SessionFrame};
use ppep_telemetry::Platform;
use ppep_types::{Error, Result, Watts};
use ppep_workloads::combos::fig7_workload;

use crate::service::{CappingService, ServeConfig, TenantStatus};
use crate::transport::{FrameConn, ServeListener, ServiceLane, TransportKind};

/// Storm parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Fleet size.
    pub tenants: u32,
    /// Which tenant id the storm targets.
    pub victim: u64,
    /// Intervals to run.
    pub intervals: u64,
    /// Seed for workloads and the fault storm.
    pub seed: u64,
    /// Per-interval fault probability aimed at the victim.
    pub storm_rate: f64,
    /// Shared socket budget.
    pub socket_cap: Watts,
    /// Each tenant's requested cap (oversubscribed on purpose).
    pub requested_cap: Watts,
    /// Minimum decision availability every survivor must sustain.
    pub survivor_availability: f64,
    /// Service shards (`1` = single-lock-compat; more shards spread
    /// the fleet, so the storm lands on one shard while survivors on
    /// the others prove cross-shard containment).
    pub shards: u32,
    /// `Some(kind)`: aim the storm over a real socket. `None`: call
    /// the service in-process (the byte-equality determinism check
    /// uses this mode).
    pub transport: Option<TransportKind>,
}

impl ChaosConfig {
    /// The CI smoke configuration: 8 tenants, tenant 0 the victim, a
    /// 90% fault storm, 4× oversubscribed socket budget, one shard,
    /// in-process.
    pub fn smoke(seed: u64) -> Self {
        Self {
            tenants: 8,
            victim: 0,
            intervals: 60,
            seed,
            storm_rate: 0.9,
            socket_cap: Watts::new(120.0),
            requested_cap: Watts::new(60.0),
            survivor_availability: 0.99,
            shards: 1,
            transport: None,
        }
    }
}

/// What the storm did, and to whom.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The configuration that produced this report.
    pub config: ChaosConfig,
    /// Per-tenant outcomes, in admission order.
    pub tenants: Vec<TenantStatus>,
    /// The largest aggregate granted budget observed after any tick.
    pub max_total_granted: Watts,
    /// Aggregate granted budget when the run ended.
    pub final_total_granted: Watts,
    /// The per-tenant health artifact (JSONL, one line per tenant).
    pub health_jsonl: String,
}

impl ChaosReport {
    /// The victim's outcome, if it was admitted.
    pub fn victim(&self) -> Option<&TenantStatus> {
        self.tenants.iter().find(|t| t.tenant == self.config.victim)
    }

    /// Asserts the blast-radius containment contract (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] naming the first violated clause.
    pub fn gate(&self) -> Result<()> {
        let victim = self.victim().ok_or_else(|| {
            Error::InvalidInput(format!(
                "chaos gate: victim {} was never admitted",
                self.config.victim
            ))
        })?;
        let victim_hit = victim.evicted.is_some()
            || matches!(victim.health, HealthState::Degraded | HealthState::Failsafe)
            || victim.failsafe_intervals > 0
            || victim.transient_errors > 0;
        if !victim_hit {
            return Err(Error::InvalidInput(format!(
                "chaos gate: storm never bit the victim (health {}, {} transients)",
                victim.health, victim.transient_errors
            )));
        }
        for t in &self.tenants {
            if t.tenant == self.config.victim {
                continue;
            }
            if let Some(e) = &t.evicted {
                return Err(Error::InvalidInput(format!(
                    "chaos gate: blast escaped the bulkhead — tenant {} evicted: {e}",
                    t.tenant
                )));
            }
            if t.availability < self.config.survivor_availability {
                return Err(Error::InvalidInput(format!(
                    "chaos gate: tenant {} availability {:.4} under the {:.2} floor",
                    t.tenant, t.availability, self.config.survivor_availability
                )));
            }
        }
        let cap = self.config.socket_cap.as_watts();
        if self.max_total_granted.as_watts() > cap * (1.0 + 1e-9) + 1e-9 {
            return Err(Error::InvalidInput(format!(
                "chaos gate: granted budget peaked at {} over the {} socket cap",
                self.max_total_granted, self.config.socket_cap
            )));
        }
        Ok(())
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        let victim = match self.victim() {
            Some(v) => format!(
                "victim {}: health {}, availability {:.3}, {} failsafe intervals{}",
                v.tenant,
                v.health,
                v.availability,
                v.failsafe_intervals,
                match &v.evicted {
                    Some(e) => format!(", evicted ({e})"),
                    None => String::new(),
                }
            ),
            None => "victim never admitted".to_string(),
        };
        let survivors: Vec<f64> = self
            .tenants
            .iter()
            .filter(|t| t.tenant != self.config.victim)
            .map(|t| t.availability)
            .collect();
        let worst = survivors.iter().copied().fold(1.0f64, f64::min);
        format!(
            "{} tenants x {} intervals, storm rate {:.2} on tenant {}; {victim}; \
             worst survivor availability {:.4}; granted budget peak {} / cap {}",
            self.tenants.len(),
            self.config.intervals,
            self.config.storm_rate,
            self.config.victim,
            worst,
            self.max_total_granted,
            self.config.socket_cap,
        )
    }
}

/// One simulated tenant: a chip, its session, and its liveness.
struct ChaosClient {
    tenant: u64,
    platform: SimPlatform,
    alive: bool,
}

fn client_chip(config: &ChaosConfig, tenant: u64) -> ChipSimulator {
    let seed = config.seed ^ tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(seed));
    sim.load_workload(&fig7_workload(seed));
    if tenant == config.victim {
        let cores = sim.topology().core_count();
        sim.set_fault_plan(FaultPlan::storm(
            config.seed ^ 0xC4A0_5F0E,
            config.intervals,
            config.storm_rate,
            cores,
        ));
    }
    sim
}

/// Runs the storm. See the module docs; call [`ChaosReport::gate`] on
/// the result to enforce containment.
///
/// # Errors
///
/// Service-level failures only (malformed frames, the budget
/// invariant): tenant-level faults are the point of the exercise and
/// are absorbed, not propagated.
pub fn run(ppep: &Ppep, config: &ChaosConfig) -> Result<ChaosReport> {
    let mut serve_config = ServeConfig::new(config.socket_cap);
    serve_config.max_sessions = config.tenants.max(1);
    serve_config.shards = config.shards.max(1);
    // Score every tenant's predictions so the health artifact carries
    // the accuracy/drift columns. Scoring is deterministic for a
    // deterministic workload — the byte-equality test below depends
    // on that.
    serve_config.scorer = true;
    let service = Arc::new(CappingService::new(ppep.clone(), serve_config));
    let topology = service.topology().clone();
    // Frames travel over the configured lane; ticks stay in-process
    // (the driver owns time either way).
    let server = match config.transport {
        Some(kind) => Some(ServeListener::bind(kind)?.spawn(Arc::clone(&service))),
        None => None,
    };
    let mut lane = match &server {
        Some(handle) => ServiceLane::Socket(FrameConn::connect(handle.addr())?),
        None => ServiceLane::Local(service.as_ref()),
    };

    let mut clients: Vec<ChaosClient> = Vec::with_capacity(config.tenants as usize);
    for tenant in 0..u64::from(config.tenants) {
        let hello = SessionFrame::Hello {
            tenant,
            requested_cap: config.requested_cap,
        };
        let response = lane.roundtrip(&frame_to_bytes(&hello))?;
        let (reply, _) = decode_frame(&response, &topology)?;
        match reply {
            SessionFrame::Welcome { .. } => clients.push(ChaosClient {
                tenant,
                platform: SimPlatform::new(client_chip(config, tenant)),
                alive: true,
            }),
            SessionFrame::Reject { reason, .. } => {
                return Err(Error::Rejected { reason });
            }
            other => {
                return Err(Error::InvalidInput(format!(
                    "chaos: unexpected admission response {other:?}"
                )))
            }
        }
    }

    let mut max_total_granted = Watts::ZERO;
    for _ in 0..config.intervals {
        for client in clients.iter_mut().filter(|c| c.alive) {
            let frame = match client.platform.sample() {
                Ok(record) => SessionFrame::Submit {
                    tenant: client.tenant,
                    record: Box::new(record),
                },
                Err(error) => SessionFrame::FaultReport {
                    tenant: client.tenant,
                    index: client.platform.current_interval(),
                    error,
                },
            };
            let response = lane.roundtrip(&frame_to_bytes(&frame))?;
            let (reply, _) = decode_frame(&response, &topology)?;
            match reply {
                SessionFrame::Reply { decision, .. } => {
                    // The client actuates what the service decided —
                    // closing the control loop over the wire.
                    client.platform.apply(&decision)?;
                }
                SessionFrame::Evicted { .. } => client.alive = false,
                other => {
                    return Err(Error::InvalidInput(format!(
                        "chaos: unexpected reply {other:?}"
                    )))
                }
            }
        }
        let tick = service.tick()?;
        max_total_granted = max_total_granted.max(tick.total_granted);
    }

    drop(lane);
    if let Some(handle) = server {
        handle.shutdown();
    }
    Ok(ChaosReport {
        config: *config,
        tenants: service.status(),
        max_total_granted,
        final_total_granted: service.total_granted(),
        health_jsonl: service.health_jsonl(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::engine;

    fn quick_config() -> ChaosConfig {
        let mut config = ChaosConfig::smoke(42);
        config.intervals = 30;
        config
    }

    #[test]
    fn fault_storm_is_contained_to_the_victim() {
        let report = run(engine(), &quick_config()).expect("chaos run completes");
        report.gate().expect("containment gate holds");

        let victim = report.victim().expect("victim admitted");
        assert!(
            victim.transient_errors > 0 || victim.failsafe_intervals > 0,
            "storm must actually bite: {victim:?}"
        );
        for t in &report.tenants {
            if t.tenant != report.config.victim {
                assert!(t.evicted.is_none());
                assert!(
                    t.availability >= 0.99,
                    "tenant {}: {}",
                    t.tenant,
                    t.availability
                );
            }
        }
        assert!(report.max_total_granted <= report.config.socket_cap);
        // The artifact has one line per tenant, each carrying the
        // accuracy/drift columns (the run scores every tenant).
        assert_eq!(report.health_jsonl.lines().count(), 8);
        for line in report.health_jsonl.lines() {
            assert!(line.contains("\"cpi_err_pct\""), "{line}");
            assert!(line.contains("\"drifted\""), "{line}");
        }
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn chaos_run_is_deterministic() {
        let a = run(engine(), &quick_config()).expect("first run");
        let b = run(engine(), &quick_config()).expect("second run");
        assert_eq!(a.health_jsonl, b.health_jsonl);
        assert_eq!(
            a.max_total_granted.as_watts(),
            b.max_total_granted.as_watts()
        );
        // Sharded runs are byte-deterministic too.
        let mut sharded = quick_config();
        sharded.shards = 4;
        let c = run(engine(), &sharded).expect("sharded run");
        let d = run(engine(), &sharded).expect("sharded rerun");
        assert_eq!(c.health_jsonl, d.health_jsonl);
    }

    /// The containment gate on the smoke storm at 40 intervals, over
    /// both serving layouts: one shard in-process, and four shards
    /// over the Unix socket (TCP where Unix sockets are unavailable),
    /// where the victim shares a shard with nobody it can drag down.
    #[test]
    fn chaos_gate_passes_at_quick_scale() {
        let socket = if cfg!(unix) {
            TransportKind::Unix
        } else {
            TransportKind::Tcp
        };
        for (shards, transport) in [(1, None), (4, Some(socket))] {
            let mut config = ChaosConfig::smoke(42);
            config.intervals = 40;
            config.shards = shards;
            config.transport = transport;
            let report = run(engine(), &config).expect("chaos run completes");
            report
                .gate()
                .unwrap_or_else(|e| panic!("{shards} shard(s), {transport:?}: {e}"));
            assert_eq!(report.tenants.len(), 8);

            if shards > 1 {
                let victim_shard = report.victim().expect("victim admitted").shard;
                assert_eq!(victim_shard, 0, "tenant 0 homes on shard 0");
                assert!(
                    report
                        .tenants
                        .iter()
                        .any(|t| t.tenant != config.victim && t.shard != victim_shard),
                    "survivors must sit on other shards"
                );
            }
        }
    }

    #[test]
    fn gate_rejects_an_unharmed_victim_and_a_blown_budget() {
        let mut report = run(engine(), &quick_config()).expect("chaos run completes");
        report.gate().expect("baseline gate holds");

        let mut blown = report.clone();
        blown.max_total_granted = blown.config.socket_cap + Watts::new(1.0);
        assert!(blown.gate().is_err(), "budget excursion must fail the gate");

        // Pretend the storm missed: scrub the victim's wounds.
        for t in &mut report.tenants {
            if t.tenant == report.config.victim {
                t.health = HealthState::Healthy;
                t.evicted = None;
                t.failsafe_intervals = 0;
                t.transient_errors = 0;
            }
        }
        assert!(
            report.gate().is_err(),
            "an unharmed victim must fail the gate"
        );
    }
}
