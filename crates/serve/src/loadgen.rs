//! Concurrent load generator for the capping service: the driver
//! behind `serve-bench`.
//!
//! [`run`] admits N client sessions and replays a synthesized trace
//! through every one of them against a shared [`CappingService`] —
//! in-process, or over a real Unix-socket/TCP transport
//! ([`LoadGenConfig::transport`]) so the round-trips cross syscall
//! boundaries. The service takes `&self` and shards internally;
//! clients hit it directly, with no generator-side lock. What a
//! frame's round-trip includes is therefore exactly what a real
//! client would see: codec, routing, the home shard's critical
//! section, and (over a socket) the wire.
//!
//! [`LoadGenConfig::clients`] can go to thousands (admission floors
//! shrink with the population), and [`LoadGenConfig::workers`] bounds
//! the replay threads (each owns a disjoint tenant set, so per-tenant
//! frame order is program order). At most `TRACE_POOL` distinct
//! traces are synthesized; tenants share them round-robin, because
//! simulating a chip is much slower than serving one.
//!
//! Besides merged latency percentiles, the report carries each
//! tenant's reply-byte transcript: the `serve-bench` gate replays
//! both the single-lock-compat and sharded configurations and
//! requires byte-identical transcripts before it compares their p99s.

use std::sync::Arc;
use std::time::Instant;

use ppep_core::Ppep;
use ppep_obs::metrics::Histogram;
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::SimPlatform;
use ppep_telemetry::session::{decode_frame, frame_to_bytes, SessionFrame};
use ppep_telemetry::trace::TraceEvent;
use ppep_telemetry::Platform;
use ppep_types::{Error, Result, Topology, Watts};
use ppep_workloads::combos::fig7_workload;

use crate::service::{CappingService, ServeConfig};
use crate::transport::{FrameConn, ServeListener, ServiceLane as Lane, TransportKind};

/// The shared socket budget every run serves under.
const SOCKET_CAP: Watts = Watts::new(120.0);

/// The cap each client requests at admission.
const REQUESTED_CAP: Watts = Watts::new(40.0);

/// Distinct replay traces synthesized per run (fewer when there are
/// fewer clients); tenants share them round-robin.
const TRACE_POOL: u32 = 8;

/// Load-generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenConfig {
    /// Client sessions to admit and replay.
    pub clients: u32,
    /// Intervals each client replays.
    pub intervals: u64,
    /// Seed for the synthesized replay traces.
    pub seed: u64,
    /// Service shards (`1` = single-lock-compat baseline).
    pub shards: u32,
    /// Replay threads; clamped to `clients`. Tenants are dealt
    /// round-robin, so each worker owns a disjoint set.
    pub workers: u32,
    /// `Some(kind)`: serve over a real socket and replay through it.
    /// `None`: call the service in-process.
    pub transport: Option<TransportKind>,
}

impl LoadGenConfig {
    /// Defaults: 4 clients × 50 intervals, one shard, 4 workers,
    /// in-process.
    pub fn new(seed: u64) -> Self {
        Self {
            clients: 4,
            intervals: 50,
            seed,
            shards: 1,
            workers: 4,
            transport: None,
        }
    }
}

/// Aggregate throughput and latency results.
#[derive(Debug, Clone)]
pub struct LoadGenReport {
    /// Clients driven.
    pub clients: u32,
    /// Service shards the run used.
    pub shards: usize,
    /// Replay threads the run used.
    pub workers: u32,
    /// `local`, `unix`, or `tcp`.
    pub transport: String,
    /// Frames submitted (all clients).
    pub frames: u64,
    /// Replies that reported an eviction.
    pub evictions: u64,
    /// Wall-clock seconds for the replay phase.
    pub wall_seconds: f64,
    /// Sustained frames per second across all clients.
    pub throughput_fps: f64,
    /// Median frame round-trip, microseconds.
    pub p50_us: f64,
    /// 95th-percentile frame round-trip, microseconds.
    pub p95_us: f64,
    /// 99th-percentile frame round-trip, microseconds.
    pub p99_us: f64,
    /// Concatenated reply bytes per tenant, in replay order, sorted
    /// by tenant. Byte-identical across shard layouts for the same
    /// workload — the mode-equivalence gates compare these.
    pub transcripts: Vec<(u64, Vec<u8>)>,
}

fn fnv64(acc: u64, bytes: &[u8]) -> u64 {
    let mut h = acc;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl LoadGenReport {
    /// FNV-1a digest over every tenant's reply transcript — a compact
    /// fingerprint two runs can compare without shipping the bytes.
    pub fn transcript_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (tenant, bytes) in &self.transcripts {
            h = fnv64(h, &tenant.to_le_bytes());
            h = fnv64(h, bytes);
        }
        h
    }
}

/// Records a replay trace by sampling a fault-free simulated chip for
/// `intervals` intervals — the in-memory equivalent of
/// `ppep-experiments record`.
pub fn synthesize_trace(intervals: u64, seed: u64) -> Vec<TraceEvent> {
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(seed));
    sim.load_workload(&fig7_workload(seed));
    let mut platform = SimPlatform::new(sim);
    let mut events = Vec::with_capacity(intervals as usize);
    for _ in 0..intervals {
        match platform.sample() {
            Ok(record) => events.push(TraceEvent::Interval(record)),
            Err(error) => events.push(TraceEvent::Fault {
                index: platform.current_interval(),
                error,
            }),
        }
    }
    events
}

struct ClientOutcome {
    tenant: u64,
    latency: Histogram,
    frames: u64,
    evictions: u64,
    transcript: Vec<u8>,
}

/// Replays one worker's tenant set, interval-major (every live tenant
/// advances one event per round — per-tenant order is program order).
fn replay_worker(
    lane: &mut Lane<'_>,
    topology: &Topology,
    tenants: &[u64],
    pool: &[Vec<TraceEvent>],
) -> Result<Vec<ClientOutcome>> {
    let mut states: Vec<ClientOutcome> = tenants
        .iter()
        .map(|&tenant| ClientOutcome {
            tenant,
            latency: Histogram::latency_us(),
            frames: 0,
            evictions: 0,
            transcript: Vec::new(),
        })
        .collect();
    let mut done = vec![false; tenants.len()];
    let steps = pool.iter().map(Vec::len).max().unwrap_or(0);
    for step in 0..steps {
        for (slot, state) in states.iter_mut().enumerate() {
            if done.get(slot).copied().unwrap_or(true) {
                continue;
            }
            let trace = pool
                .get(state.tenant as usize % pool.len().max(1))
                .ok_or_else(|| Error::InvalidInput("load-gen: empty trace pool".into()))?;
            let Some(event) = trace.get(step) else {
                if let Some(d) = done.get_mut(slot) {
                    *d = true;
                }
                continue;
            };
            let frame = match event {
                TraceEvent::Interval(record) => SessionFrame::Submit {
                    tenant: state.tenant,
                    record: Box::new(record.clone()),
                },
                TraceEvent::Fault { index, error } => SessionFrame::FaultReport {
                    tenant: state.tenant,
                    index: *index,
                    error: error.clone(),
                },
                // Apply/decision events are the daemon's own actions —
                // a replaying client has nothing to submit for them.
                TraceEvent::Apply(_) | TraceEvent::Decision(_) => continue,
            };
            let bytes = frame_to_bytes(&frame);
            let start = Instant::now();
            let response = lane.roundtrip(&bytes)?;
            state.latency.observe(start.elapsed().as_secs_f64() * 1e6);
            state.frames += 1;
            state.transcript.extend_from_slice(&response);
            match decode_frame(&response, topology)?.0 {
                SessionFrame::Reply { .. } => {}
                SessionFrame::Evicted { .. } => {
                    state.evictions += 1;
                    if let Some(d) = done.get_mut(slot) {
                        *d = true;
                    }
                }
                other => {
                    return Err(Error::InvalidInput(format!(
                        "load-gen: unexpected reply {other:?}"
                    )))
                }
            }
        }
    }
    Ok(states)
}

/// Runs the load generator. See the module docs.
///
/// # Errors
///
/// Admission rejections, wire/transport errors, and worker panics.
pub fn run(ppep: &Ppep, config: &LoadGenConfig) -> Result<LoadGenReport> {
    let clients = config.clients.max(1);
    let mut serve_config = ServeConfig::new(SOCKET_CAP);
    serve_config.max_sessions = clients;
    serve_config.shards = config.shards.max(1);
    // Thousands of tenants must fit under the admission floor: shrink
    // it to the fair share when the population outgrows the default.
    let fair = SOCKET_CAP.as_watts() / f64::from(clients);
    serve_config.min_grant = Watts::new(fair.clamp(1e-3, 5.0));
    let service = Arc::new(CappingService::new(ppep.clone(), serve_config));
    let topology = service.topology().clone();

    let server = match config.transport {
        Some(kind) => Some(ServeListener::bind(kind)?.spawn(Arc::clone(&service))),
        None => None,
    };
    let transport = match config.transport {
        Some(kind) => kind.as_str().to_string(),
        None => "local".to_string(),
    };

    // Admissions run sequentially on this thread: slot order, and
    // therefore every grant, is deterministic.
    let mut admit_lane = match &server {
        Some(handle) => Lane::Socket(FrameConn::connect(handle.addr())?),
        None => Lane::Local(service.as_ref()),
    };
    for tenant in 0..u64::from(clients) {
        let hello = frame_to_bytes(&SessionFrame::Hello {
            tenant,
            requested_cap: REQUESTED_CAP,
        });
        let reply = admit_lane.roundtrip(&hello)?;
        match decode_frame(&reply, &topology)?.0 {
            SessionFrame::Welcome { .. } => {}
            SessionFrame::Reject { reason, .. } => return Err(Error::Rejected { reason }),
            other => {
                return Err(Error::InvalidInput(format!(
                    "load-gen: unexpected admission reply {other:?}"
                )))
            }
        }
    }
    drop(admit_lane);

    let pool_size = TRACE_POOL.min(clients);
    let pool: Vec<Vec<TraceEvent>> = (0..u64::from(pool_size))
        .map(|i| {
            synthesize_trace(
                config.intervals,
                config.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
        })
        .collect();

    let workers = config.workers.max(1).min(clients);
    let started = Instant::now();
    let outcomes: Vec<Result<Vec<ClientOutcome>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let service = &service;
                let pool = &pool;
                let topology = &topology;
                let server = &server;
                scope.spawn(move || {
                    let mut lane = match server {
                        Some(handle) => Lane::Socket(FrameConn::connect(handle.addr())?),
                        None => Lane::Local(service.as_ref()),
                    };
                    let tenants: Vec<u64> = (0..u64::from(clients))
                        .filter(|t| t % u64::from(workers) == u64::from(w))
                        .collect();
                    replay_worker(&mut lane, topology, &tenants, pool)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(Error::DeviceLost("load-gen: worker thread panicked".into()))
                })
            })
            .collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64();

    let mut latency = Histogram::latency_us();
    let mut frames = 0u64;
    let mut evictions = 0u64;
    let mut clients_out: Vec<ClientOutcome> = Vec::with_capacity(clients as usize);
    for outcome in outcomes {
        for c in outcome? {
            latency.merge(&c.latency);
            frames += c.frames;
            evictions += c.evictions;
            clients_out.push(c);
        }
    }
    clients_out.sort_by_key(|c| c.tenant);

    let report = LoadGenReport {
        clients,
        shards: service.shard_count(),
        workers,
        transport,
        frames,
        evictions,
        wall_seconds,
        throughput_fps: frames as f64 / wall_seconds.max(1e-9),
        p50_us: latency.percentile(0.50),
        p95_us: latency.percentile(0.95),
        p99_us: latency.percentile(0.99),
        transcripts: clients_out
            .into_iter()
            .map(|c| (c.tenant, c.transcript))
            .collect(),
    };
    if let Some(handle) = server {
        handle.shutdown();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::engine;

    #[test]
    fn concurrent_clients_replay_without_losses() {
        let mut config = LoadGenConfig::new(42);
        config.clients = 3;
        config.intervals = 8;
        config.workers = 3;
        let report = run(engine(), &config).expect("load-gen completes");
        assert_eq!(report.frames, 24, "every frame answered");
        assert_eq!(report.evictions, 0);
        assert!(report.throughput_fps > 0.0);
        assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);
        assert_eq!(report.transcripts.len(), 3, "one transcript per tenant");
        assert!(report
            .transcripts
            .iter()
            .all(|(_, bytes)| !bytes.is_empty()));
    }

    #[test]
    fn shard_layouts_produce_byte_identical_transcripts() {
        let mut config = LoadGenConfig::new(7);
        config.clients = 4;
        config.intervals = 4;
        config.workers = 2;
        let single = run(engine(), &config).expect("single-lock run");
        config.shards = 3;
        let sharded = run(engine(), &config).expect("sharded run");
        assert_eq!(single.frames, sharded.frames);
        assert_eq!(sharded.shards, 3);
        assert_eq!(
            single.transcripts, sharded.transcripts,
            "per-tenant replies must not depend on the shard layout"
        );
        assert_eq!(single.transcript_digest(), sharded.transcript_digest());
    }

    #[test]
    fn socket_transport_replays_the_same_bytes() {
        let kind = if cfg!(unix) {
            TransportKind::Unix
        } else {
            TransportKind::Tcp
        };
        let mut config = LoadGenConfig::new(11);
        config.clients = 4;
        config.intervals = 3;
        config.workers = 2;
        config.shards = 2;
        let local = run(engine(), &config).expect("in-process run");
        config.transport = Some(kind);
        let socket = run(engine(), &config).expect("socket run");
        assert_eq!(socket.transport, kind.as_str());
        assert_eq!(socket.frames, local.frames);
        assert_eq!(
            socket.transcripts, local.transcripts,
            "the wire must carry exactly the in-process bytes"
        );
    }

    #[test]
    fn synthesized_traces_are_deterministic_and_clean() {
        let a = synthesize_trace(6, 7);
        let b = synthesize_trace(6, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|e| matches!(e, TraceEvent::Interval(_))));
    }
}
