//! The serve workloads: a 64-tenant fleet driving `CappingService`
//! over a Unix socket.
//!
//! Inputs come from `--seed` alone: each tenant's requested cap, which
//! synthesized trace interval it submits each round, and (for
//! `serve-churn`) which tenants rejoin and which victims report a
//! fault. One round is one compressed 200 ms decision interval: every
//! live tenant sends one data frame, and the service ticks once all
//! of the round's replies are back.
//!
//! A run alternates an open-loop phase (frames sent on a fixed schedule
//! from one sender and one receiver thread on one connection; each
//! frame timed from when it was due) and a closed-loop saturation phase
//! (one thread, one connection), five times. Afterwards a fresh
//! service replays the same schedule in process through
//! `CappingService::handle_frame`, and every tenant's reply transcript
//! must match the socket's byte for byte.

use std::io::{BufReader, Write};
use std::net::Shutdown;
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ppep_core::daemon::DvfsController;
use ppep_core::Ppep;
use ppep_dvfs::OneStepCapping;
use ppep_serve::{
    CappingService, FrameConn, ServeAddr, ServeConfig, ServeListener, ServerHandle, TransportKind,
};
use ppep_telemetry::session::{
    decode_frame, encode_frame, frame_to_bytes, read_frame_bytes, DecisionKind, SessionFrame,
    TenantHealth,
};
use ppep_telemetry::IntervalRecord;
use ppep_types::time::IntervalIndex;
use ppep_types::vf::NbVfState;
use ppep_types::{Error, Topology, Watts};
use ppep_workloads::combos::fig7_workload;

use crate::common::{
    peak_rss_mb, report_windows, secs, synthesize, train, us_since, with_setups, BenchResult,
    Between, Fnv, Opts, Rng, SetupCost, Stop, TRACED_OPS,
};
use crate::report::Report;
use crate::spans::{report_layers, Interleaved, Req, Tracer};
use crate::stats::{Samples, Windows, P99_SAMPLES};

/// Tenants in the fleet.
const TENANTS: u64 = 64;
/// Worker shards the service runs.
const SHARDS: u32 = 2;
/// The open-loop schedule: data frames per second.
const RATE_FPS: f64 = 4000.0;
/// Distinct synthesized traces the fleet shares.
const TRACES: usize = 8;
/// Intervals per synthesized trace.
const TRACE_LEN: usize = 256;
/// `serve-churn`: tenants that send Goodbye then Hello each round.
const CHURN_PER_ROUND: u64 = 4;
/// `serve-churn`: tenants that may report a fault instead of a sample.
const VICTIMS: u64 = 8;
/// `serve-churn`: a victim's chance of reporting a fault in a round.
const FAULT_P: f64 = 0.5;
/// Socket budget per tenant; requested caps (40–95 W) oversubscribe it.
const SOCKET_W_PER_TENANT: f64 = 50.0;
/// Rounds whose decoded replies the golden digest covers.
const GOLDEN_ROUNDS: u64 = 32;
/// Deadline on every blocking socket read or write.
const IO_DEADLINE: Duration = Duration::from_secs(10);
/// An open-loop run is invalid when it sends this much below its rate.
const RATE_SHORTFALL: f64 = 0.01;
/// An untraced run alternates open-loop and closed-loop phases this
/// many times, so that each metric's windows are drawn from the whole
/// run rather than from one stretch of a shared machine.
const CYCLES: u32 = 5;
/// Share of each cycle spent in the open loop; the closed loop takes
/// the rest.
const OPEN_SHARE: f64 = 0.8;
/// Window over which open-loop frame latency is summarized (2,000
/// frames at the scheduled rate).
const OPEN_WINDOW_S: f64 = 0.5;
/// Window over which closed-loop throughput is summarized (~5,000
/// frames at saturation; it counts down to 5,000 frames/s).
const CLOSED_WINDOW_S: f64 = 0.2;

/// What a client sends in one slot.
#[derive(Debug, Clone)]
pub enum Op {
    /// Submit the interval record at this index of the traffic's pool.
    Submit(usize),
    /// Report a measurement fault.
    Fault(Error),
}

/// One tenant's turn in a round.
#[derive(Debug, Clone)]
struct Slot {
    tenant: u64,
    /// Goodbye then Hello before the data frame.
    rejoin: bool,
    op: Op,
}

#[derive(Debug)]
enum Plan {
    Fleet { seed: u64, churn: bool },
    Probe(Vec<Op>),
}

/// A serve workload's generated inputs: tenants, the record pool, and
/// the per-round plan.
#[derive(Debug)]
pub struct Traffic {
    caps: Vec<Watts>,
    records: Vec<IntervalRecord>,
    plan: Plan,
}

impl Traffic {
    fn fleet(seed: u64, churn: bool, records: Vec<IntervalRecord>) -> Self {
        let mut rng = Rng::new(seed, 1);
        Self {
            caps: (0..TENANTS)
                .map(|_| Watts::new(40.0 + 55.0 * rng.unit()))
                .collect(),
            records,
            plan: Plan::Fleet { seed, churn },
        }
    }

    /// One tenant replaying `ops` one per round, over `records` — how
    /// the daemon and explore workloads price the serve layers on
    /// their own inputs.
    pub fn probe(records: Vec<IntervalRecord>, ops: Vec<Op>) -> Self {
        Self {
            caps: vec![Watts::new(95.0)],
            records,
            plan: Plan::Probe(ops),
        }
    }

    fn tenants(&self) -> u64 {
        self.caps.len() as u64
    }

    /// Rounds the plan holds, when bounded.
    fn rounds(&self) -> Option<u64> {
        match &self.plan {
            Plan::Fleet { .. } => None,
            Plan::Probe(ops) => Some(ops.len() as u64),
        }
    }

    fn round(&self, r: u64) -> Vec<Slot> {
        match &self.plan {
            Plan::Probe(ops) => ops
                .get(r as usize)
                .map(|op| Slot {
                    tenant: 0,
                    rejoin: false,
                    op: op.clone(),
                })
                .into_iter()
                .collect(),
            Plan::Fleet { seed, churn } => {
                let mut rng = Rng::new(*seed, 1_000 + r);
                let stable = TENANTS - VICTIMS;
                let first = (r * CHURN_PER_ROUND) % stable;
                (0..TENANTS)
                    .map(|tenant| {
                        let victim = *churn && tenant >= stable;
                        let rejoin = *churn
                            && !victim
                            && (tenant + stable - first) % stable < CHURN_PER_ROUND;
                        let op = if victim && rng.unit() < FAULT_P {
                            Op::Fault(if rng.below(2) == 0 {
                                Error::SensorDropout {
                                    sensor: "hall-sensor",
                                }
                            } else {
                                Error::MsrReadFailed { msr: 0xC001_0201 }
                            })
                        } else {
                            let t = tenant as usize;
                            let offset = (t / TRACES * 37 + r as usize) % TRACE_LEN;
                            Op::Submit(t % TRACES * TRACE_LEN + offset)
                        };
                        Slot { tenant, rejoin, op }
                    })
                    .collect()
            }
        }
    }

    fn frame(&self, slot: &Slot, round: u64) -> SessionFrame {
        match &slot.op {
            Op::Submit(i) => SessionFrame::Submit {
                tenant: slot.tenant,
                record: Box::new(self.records[*i].clone()),
            },
            Op::Fault(error) => SessionFrame::FaultReport {
                tenant: slot.tenant,
                index: IntervalIndex(round),
                error: error.clone(),
            },
        }
    }

    fn hello(&self, tenant: u64) -> Vec<u8> {
        frame_to_bytes(&SessionFrame::Hello {
            tenant,
            requested_cap: self.caps[tenant as usize],
        })
    }
}

fn goodbye(tenant: u64) -> Vec<u8> {
    frame_to_bytes(&SessionFrame::Goodbye { tenant })
}

/// Which reply a frame must draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Welcome,
    Reply,
}

/// One tenant's reply bytes, in order, kept as their length and a
/// running FNV-1a hash so that memory does not grow with the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Transcript {
    bytes: u64,
    hash: Fnv,
}

/// Every reply a client received: per-tenant transcripts, the semantic
/// digest over the golden rounds, and outcome counts.
#[derive(Debug)]
struct ReplyLog {
    transcripts: Vec<Transcript>,
    digests: Vec<Fnv>,
    topology: Topology,
    /// Replies by decision kind.
    fresh: u64,
    held: u64,
    failsafe: u64,
    rejects: u64,
    evictions: u64,
    /// Replies that were undecodable or not the frame expected.
    failures: u64,
    reply_bytes: u64,
    replies: u64,
    /// Submit frames the client encoded, and their bytes.
    submits: u64,
    submit_bytes: u64,
}

impl ReplyLog {
    fn new(traffic: &Traffic, topology: &Topology) -> Self {
        let n = traffic.tenants() as usize;
        Self {
            transcripts: vec![Transcript::default(); n],
            digests: vec![Fnv::default(); n],
            topology: topology.clone(),
            fresh: 0,
            held: 0,
            failsafe: 0,
            rejects: 0,
            evictions: 0,
            failures: 0,
            reply_bytes: 0,
            replies: 0,
            submits: 0,
            submit_bytes: 0,
        }
    }

    /// Logs one reply to `tenant` in `round` (`None`: admission during
    /// set-up).
    fn record(&mut self, tenant: u64, round: Option<u64>, bytes: &[u8], expect: Expect) {
        let t = tenant as usize;
        let transcript = &mut self.transcripts[t];
        transcript.bytes += bytes.len() as u64;
        transcript.hash.bytes(bytes);
        let frame = match decode_frame(bytes, &self.topology) {
            Ok((frame, used)) if used == bytes.len() => frame,
            _ => {
                self.failures += 1;
                return;
            }
        };
        match (expect, frame) {
            (Expect::Welcome, SessionFrame::Welcome { .. }) => {}
            (
                Expect::Reply,
                SessionFrame::Reply {
                    action,
                    health,
                    cap,
                    decision,
                    ..
                },
            ) => {
                self.replies += 1;
                self.reply_bytes += bytes.len() as u64;
                match action {
                    DecisionKind::Fresh => self.fresh += 1,
                    DecisionKind::Held => self.held += 1,
                    DecisionKind::Failsafe => self.failsafe += 1,
                }
                if round.is_some_and(|r| r < GOLDEN_ROUNDS) {
                    let h = &mut self.digests[t];
                    h.u64(match action {
                        DecisionKind::Fresh => 0,
                        DecisionKind::Held => 1,
                        DecisionKind::Failsafe => 2,
                    });
                    h.u64(match health {
                        TenantHealth::Healthy => 0,
                        TenantHealth::Degraded => 1,
                        TenantHealth::Failsafe => 2,
                    });
                    h.u64(cap.as_watts().to_bits());
                    for vf in decision {
                        h.u64(vf.index() as u64);
                    }
                }
            }
            (_, SessionFrame::Reject { .. }) => {
                self.rejects += 1;
                self.failures += 1;
            }
            (_, SessionFrame::Evicted { .. }) => {
                self.evictions += 1;
                self.failures += 1;
            }
            _ => self.failures += 1,
        }
    }

    /// The fleet digest: every tenant's digest, in tenant order.
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for (tenant, d) in self.digests.iter().enumerate() {
            h.u64(tenant as u64);
            h.u64(d.finish());
        }
        h.finish()
    }

    fn report(&self, report: &mut Report) {
        report.put("service.replies.fresh", self.fresh as f64, "count");
        report.put("service.replies.held", self.held as f64, "count");
        report.put("service.replies.failsafe", self.failsafe as f64, "count");
        report.put("service.rejects", self.rejects as f64, "count");
        report.put("service.evictions", self.evictions as f64, "count");
        report.put(
            "codec.reply_bytes",
            self.reply_bytes as f64 / self.replies.max(1) as f64,
            "B",
        );
        if self.submits > 0 {
            report.put(
                "codec.submit_bytes",
                self.submit_bytes as f64 / self.submits as f64,
                "B",
            );
        }
    }
}

fn new_service(ppep: &Ppep, traffic: &Traffic) -> Arc<CappingService> {
    let n = traffic.tenants();
    let mut config = ServeConfig::new(Watts::new(SOCKET_W_PER_TENANT * n as f64));
    config.shards = SHARDS;
    config.max_sessions = n as u32;
    Arc::new(CappingService::new(ppep.clone(), config))
}

/// Admits every tenant in process, in tenant order.
fn admit_local(svc: &CappingService, traffic: &Traffic, log: &mut ReplyLog) -> BenchResult<()> {
    for tenant in 0..traffic.tenants() {
        let (reply, _) = svc.handle_frame(&traffic.hello(tenant))?;
        log.record(tenant, None, &reply, Expect::Welcome);
    }
    Ok(())
}

/// Replays `rounds` in process through `handle_frame` — the untimed
/// reference every other path must match.
fn replay_frames(
    svc: &CappingService,
    traffic: &Traffic,
    rounds: Range<u64>,
    log: &mut ReplyLog,
) -> BenchResult<()> {
    for r in rounds {
        for slot in traffic.round(r) {
            if slot.rejoin {
                let (none, _) = svc.handle_frame(&goodbye(slot.tenant))?;
                if !none.is_empty() {
                    log.failures += 1;
                }
                let (welcome, _) = svc.handle_frame(&traffic.hello(slot.tenant))?;
                log.record(slot.tenant, Some(r), &welcome, Expect::Welcome);
            }
            let bytes = frame_to_bytes(&traffic.frame(&slot, r));
            let (reply, _) = svc.handle_frame(&bytes)?;
            log.record(slot.tenant, Some(r), &reply, Expect::Reply);
        }
        svc.tick()?;
    }
    Ok(())
}

/// A fleet that is set up and serving.
struct Fleet {
    ppep: Ppep,
    traffic: Traffic,
    svc: Arc<CappingService>,
    server: Option<ServerHandle>,
    log: ReplyLog,
    sample_us: Vec<f64>,
}

impl Fleet {
    fn addr(&self) -> BenchResult<ServeAddr> {
        Ok(self.server.as_ref().ok_or("server stopped")?.addr().clone())
    }

    fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Set-up: train, synthesize the trace pool, start the service, bind
/// the socket, and admit every tenant over it.
fn setup(seed: u64, churn: bool, cost: &mut SetupCost) -> BenchResult<Fleet> {
    let start = Instant::now();
    let ppep = train()?;
    cost.train_s = secs(start);
    let start = Instant::now();
    let mut sample_us = Vec::new();
    let mut records = Vec::with_capacity(TRACES * TRACE_LEN);
    for i in 0..TRACES as u64 {
        let sim_seed = seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let spec = fig7_workload(sim_seed);
        records.extend(synthesize(&spec, sim_seed, TRACE_LEN, &mut sample_us)?);
    }
    cost.synth_s = secs(start);
    let traffic = Traffic::fleet(seed, churn, records);
    let svc = new_service(&ppep, &traffic);
    let log = ReplyLog::new(&traffic, svc.topology());
    let server = ServeListener::bind(TransportKind::Unix)?.spawn(Arc::clone(&svc));
    let mut fleet = Fleet {
        ppep,
        traffic,
        svc,
        server: Some(server),
        log,
        sample_us,
    };
    let mut conn = FrameConn::connect(&fleet.addr()?)?;
    for tenant in 0..fleet.traffic.tenants() {
        let reply = conn.roundtrip(&fleet.traffic.hello(tenant))?;
        fleet.log.record(tenant, None, &reply, Expect::Welcome);
    }
    Ok(fleet)
}

/// Rounds the open loop sends in `seconds` (never fewer than the
/// golden digest covers).
fn open_rounds(seconds: f64) -> u64 {
    ((RATE_FPS * seconds / TENANTS as f64).round() as u64).max(GOLDEN_ROUNDS)
}

#[derive(Debug, Default)]
struct OpenLoop {
    /// Scheduled send → reply decoded, per data frame.
    latency_us: Vec<f64>,
    /// When each data frame's reply was decoded, seconds into the phase.
    done_s: Vec<f64>,
    /// Hello sent → Welcome decoded.
    admit_us: Vec<f64>,
    /// How late the sender woke for each slot.
    lag_us: Vec<f64>,
    /// Time the sender blocked at each round barrier.
    barrier_us: Vec<f64>,
    /// `CappingService::tick` at each barrier.
    tick_us: Vec<f64>,
    slots: u64,
    /// Seconds the schedule took to send `slots`: from each segment's
    /// first due instant to one slot past its last send.
    send_s: f64,
}

#[derive(Debug, Default)]
struct SenderOut {
    lag_us: Vec<f64>,
    barrier_us: Vec<f64>,
    slots: u64,
    last_send: Option<Instant>,
}

#[derive(Debug, Default)]
struct ReceiverOut {
    latency_us: Vec<f64>,
    done_s: Vec<f64>,
    admit_us: Vec<f64>,
    tick_us: Vec<f64>,
}

impl OpenLoop {
    /// Appends a later segment of the same phase.
    fn extend(&mut self, later: OpenLoop) {
        self.latency_us.extend(later.latency_us);
        self.done_s.extend(later.done_s);
        self.admit_us.extend(later.admit_us);
        self.lag_us.extend(later.lag_us);
        self.barrier_us.extend(later.barrier_us);
        self.tick_us.extend(later.tick_us);
        self.slots += later.slots;
        self.send_s += later.send_s;
    }
}

/// The open-loop phase: one sender thread writes each round's frames
/// at their scheduled instants and then blocks at the round barrier;
/// one receiver thread reads the replies, ticks the service once the
/// round is complete, and releases the barrier. The blocking barrier
/// keeps at most one round of replies outstanding by construction.
/// Replies are stamped in seconds since `origin`.
fn open_loop(
    addr: &ServeAddr,
    svc: &CappingService,
    traffic: &Traffic,
    rounds: Range<u64>,
    origin: Instant,
    log: &mut ReplyLog,
) -> BenchResult<OpenLoop> {
    let ServeAddr::Unix(path) = addr else {
        return Err("the open-loop generator drives a Unix socket".into());
    };
    let stream = UnixStream::connect(path)?;
    stream.set_read_timeout(Some(IO_DEADLINE))?;
    stream.set_write_timeout(Some(IO_DEADLINE))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let (barrier_tx, barrier_rx) = mpsc::channel::<()>();
    let (hello_tx, hello_rx) = mpsc::channel::<Instant>();
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = move |slot: u64| t0 + Duration::from_secs_f64(slot as f64 / RATE_FPS);

    let (sent, got) = std::thread::scope(|scope| {
        let rounds_s = rounds.clone();
        let sender = scope.spawn(move || -> BenchResult<SenderOut> {
            let mut out = SenderOut::default();
            let run = || -> BenchResult<()> {
                for r in rounds_s {
                    for slot in traffic.round(r) {
                        let frame = traffic.frame(&slot, r);
                        let at = due(out.slots);
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                        out.lag_us
                            .push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e6);
                        if slot.rejoin {
                            writer.write_all(&goodbye(slot.tenant))?;
                            writer.write_all(&traffic.hello(slot.tenant))?;
                            hello_tx.send(Instant::now())?;
                        }
                        writer.write_all(&frame_to_bytes(&frame))?;
                        out.last_send = Some(Instant::now());
                        out.slots += 1;
                    }
                    let wait = Instant::now();
                    barrier_rx.recv()?;
                    out.barrier_us.push(us_since(wait));
                }
                Ok(())
            };
            let result = run();
            if result.is_err() {
                // Unblock the receiver: its next read sees the close.
                let _ = writer.shutdown(Shutdown::Both);
            }
            result.map(|()| out)
        });
        let receiver = scope.spawn(move || -> BenchResult<ReceiverOut> {
            // Owning the barrier's sending half: if this thread fails,
            // the sender's next barrier wait fails instead of hanging.
            let barrier_tx = barrier_tx;
            let mut out = ReceiverOut::default();
            let mut slot_no = 0u64;
            for r in rounds {
                for slot in traffic.round(r) {
                    if slot.rejoin {
                        let bytes = read_frame_bytes(&mut reader)?.ok_or("server closed")?;
                        log.record(slot.tenant, Some(r), &bytes, Expect::Welcome);
                        let sent_at = hello_rx.recv()?;
                        out.admit_us.push(us_since(sent_at));
                    }
                    let bytes = read_frame_bytes(&mut reader)?.ok_or("server closed")?;
                    log.record(slot.tenant, Some(r), &bytes, Expect::Reply);
                    let now = Instant::now();
                    let late = now.saturating_duration_since(due(slot_no));
                    out.latency_us.push(late.as_secs_f64() * 1e6);
                    out.done_s
                        .push(now.saturating_duration_since(origin).as_secs_f64());
                    slot_no += 1;
                }
                let start = Instant::now();
                svc.tick()?;
                out.tick_us.push(us_since(start));
                barrier_tx.send(())?;
            }
            Ok(out)
        });
        (join(sender), join(receiver))
    });
    let (sent, got) = (sent?, got?);
    let span = sent
        .last_send
        .map_or(0.0, |last| last.saturating_duration_since(t0).as_secs_f64());
    Ok(OpenLoop {
        latency_us: got.latency_us,
        done_s: got.done_s,
        admit_us: got.admit_us,
        lag_us: sent.lag_us,
        barrier_us: sent.barrier_us,
        tick_us: got.tick_us,
        slots: sent.slots,
        send_s: span + 1.0 / RATE_FPS,
    })
}

fn join<T>(handle: std::thread::ScopedJoinHandle<'_, BenchResult<T>>) -> BenchResult<T> {
    handle
        .join()
        .unwrap_or_else(|_| Err("generator thread panicked".into()))
}

/// Whether a phase over `traffic` that began at `start` and has
/// measured `frames` data frames should stop before `round`.
fn done(stop: Stop, start: Instant, frames: usize, traffic: &Traffic, round: u64) -> bool {
    traffic.rounds().is_some_and(|n| round >= n) || stop.reached(start, frames)
}

#[derive(Debug)]
struct ClosedLoop {
    frames: usize,
    end_round: u64,
}

/// The closed-loop saturation phase: one thread, one connection. Each
/// round's frames are written back to back, then its replies read, then
/// the service ticks; the next round waits for the last. Up to a round
/// of frames is in flight, so the rate is the service's capacity rather
/// than one frame's round-trip wake-ups. Each frame (sent → reply read)
/// goes into `windows` by when its reply was read, in seconds since
/// `origin`.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    conn: &mut FrameConn,
    svc: &CappingService,
    traffic: &Traffic,
    start_round: u64,
    stop: Stop,
    origin: Instant,
    windows: &mut Windows,
    log: &mut ReplyLog,
) -> BenchResult<ClosedLoop> {
    let mut out = ClosedLoop {
        frames: 0,
        end_round: start_round,
    };
    let start = Instant::now();
    let mut r = start_round;
    while !done(stop, start, out.frames, traffic, r) {
        let slots = traffic.round(r);
        let mut sent = Vec::with_capacity(slots.len());
        for slot in &slots {
            if slot.rejoin {
                conn.send(&goodbye(slot.tenant))?;
                conn.send(&traffic.hello(slot.tenant))?;
            }
            sent.push(Instant::now());
            conn.send(&frame_to_bytes(&traffic.frame(slot, r)))?;
        }
        for (slot, at) in slots.iter().zip(sent) {
            if slot.rejoin {
                let welcome = conn.recv()?.ok_or("server closed")?;
                log.record(slot.tenant, Some(r), &welcome, Expect::Welcome);
            }
            let reply = conn.recv()?.ok_or("server closed")?;
            log.record(slot.tenant, Some(r), &reply, Expect::Reply);
            windows.push(secs(origin), us_since(at));
            out.frames += 1;
        }
        svc.tick()?;
        r += 1;
    }
    out.end_round = r;
    Ok(out)
}

/// Replays `traffic` from a fresh service through the same reference
/// path and checks `got` matches it byte for byte, tenant by tenant.
fn check_against_reference(
    ppep: &Ppep,
    traffic: &Traffic,
    rounds: Range<u64>,
    got: &ReplyLog,
    what: &str,
    report: &mut Report,
) -> BenchResult<()> {
    let svc = new_service(ppep, traffic);
    let mut reference = ReplyLog::new(traffic, svc.topology());
    admit_local(&svc, traffic, &mut reference)?;
    replay_frames(&svc, traffic, rounds, &mut reference)?;
    let same = got.transcripts == reference.transcripts;
    report.check(same, || {
        format!("{what}: reply transcripts differ from the in-process handle_frame replay")
    });
    report.put(
        format!("check.{what}_matches_replay"),
        f64::from(u8::from(same)),
        "bool",
    );
    Ok(())
}

/// `serve-steady` / `serve-churn`, untraced: the end-to-end run.
///
/// # Errors
///
/// Set-up, transport or service failures end the run.
pub fn run(opts: &Opts, churn: bool, report: &mut Report) -> BenchResult<()> {
    let make = |c: &mut SetupCost| setup(opts.seed, churn, c);
    with_setups(opts, report, make, |fleet, report, between| {
        measure(opts, fleet, report, between)
    })
}

fn measure(
    opts: &Opts,
    mut fleet: Fleet,
    report: &mut Report,
    between: Between<'_>,
) -> BenchResult<()> {
    let addr = fleet.addr()?;
    let cycle_s = opts.seconds / f64::from(CYCLES);
    let origin = Instant::now();
    let mut open = OpenLoop::default();
    let mut closed_windows = Windows::new(CLOSED_WINDOW_S);
    let mut closed_frames = 0;
    let mut round = 0;
    for _ in 0..CYCLES {
        let open_end = round + open_rounds(cycle_s * OPEN_SHARE);
        open.extend(open_loop(
            &addr,
            &fleet.svc,
            &fleet.traffic,
            round..open_end,
            origin,
            &mut fleet.log,
        )?);
        between()?;
        let mut conn = FrameConn::connect(&addr)?;
        let closed = closed_loop(
            &mut conn,
            &fleet.svc,
            &fleet.traffic,
            open_end,
            Stop::after(cycle_s * (1.0 - OPEN_SHARE)),
            origin,
            &mut closed_windows,
            &mut fleet.log,
        )?;
        closed_frames += closed.frames as u64;
        round = closed.end_round;
        between()?;
    }
    fleet.stop();
    if let Some(rss) = peak_rss_mb() {
        report.put("peak_rss_mb", rss, "MB");
    }

    report_open_loop(report, &open);
    let windows = Windows::of(OPEN_WINDOW_S, &open.done_s, &open.latency_us);
    report_windows(report, "frame", windows)?;
    report.put_latency("frame", &open.latency_us);
    let frames = Samples::new(open.latency_us.clone())?;
    report.put("frame_over_1ms_frac", frames.share_above(1_000.0), "ratio");
    let saturation = closed_windows.finish()?;
    report.put("throughput_per_s", saturation.best.rate, "1/s");
    report.put("closed.window_median_fps", saturation.median.rate, "1/s");
    report.put("closed.window_median_p50_us", saturation.median.p50, "us");
    report.put("closed.window_median_p99_us", saturation.median.p99, "us");
    report.put(
        "service.live_tenants",
        fleet.svc.live_sessions() as f64,
        "count",
    );
    fleet.log.report(report);
    report.attempted = open.slots + closed_frames;
    report.failed = fleet.log.failures;
    check_against_reference(
        &fleet.ppep,
        &fleet.traffic,
        0..round,
        &fleet.log,
        "socket",
        report,
    )?;
    report.digest = Some(fleet.log.digest());
    Ok(())
}

fn report_open_loop(report: &mut Report, open: &OpenLoop) {
    report.put_latency("admit", &open.admit_us);
    report.put_latency("gen.lag", &open.lag_us);
    report.put_latency("gen.barrier_wait", &open.barrier_us);
    report.put_latency("open.service.tick", &open.tick_us);
    report.put("gen.target_fps", RATE_FPS, "1/s");
    let achieved_fps = open.slots as f64 / open.send_s;
    report.put("gen.achieved_fps", achieved_fps, "1/s");
    if achieved_fps < RATE_FPS * (1.0 - RATE_SHORTFALL) {
        report.invalid(format!(
            "sent {achieved_fps:.1} frames/s against a {RATE_FPS} target"
        ));
    }
}

/// Off-path pricing of the core and dvfs layers on one served record.
struct Repricer {
    ppep: Ppep,
    controller: OneStepCapping,
    busy_cores: Vec<f64>,
}

impl Repricer {
    fn new(ppep: &Ppep) -> Self {
        Self {
            ppep: ppep.clone(),
            controller: OneStepCapping::new(ppep.clone(), Watts::new(95.0)),
            busy_cores: Vec::new(),
        }
    }

    fn price(
        &mut self,
        tracer: &mut Tracer,
        req: Req,
        record: &IntervalRecord,
        cap: Watts,
    ) -> BenchResult<()> {
        let ppep = &self.ppep;
        let high = tracer.time("core.project", req, || ppep.project(record))?;
        tracer.time("core.project_nb", req, || {
            ppep.project_nb(record, NbVfState::Low)
        })?;
        self.controller.set_cap(cap);
        let controller = &mut self.controller;
        tracer.time("dvfs.decide", req, || controller.decide(&high))?;
        tracer.time("dvfs.select", req, || {
            std::hint::black_box((
                high.best_energy_vf(),
                high.best_edp_vf(),
                high.fastest_under_cap(cap),
            ))
        });
        self.busy_cores.push(high.busy_core_count() as f64);
        Ok(())
    }
}

/// The in-process replay a traced run decomposes: client encode →
/// server decode → `CappingService::{submit, report_fault, connect,
/// disconnect}` → server encode → client decode, with `tick` at each
/// barrier. Every other slot runs untraced; each traced data frame is
/// one `op.frame` root. With `repricer`, every traced submitted record
/// is also priced through core and dvfs, off the frame's path. Returns
/// each data frame's duration.
fn replay_layers(
    svc: &CappingService,
    traffic: &Traffic,
    rounds: Range<u64>,
    tracer: &mut Tracer,
    mut repricer: Option<&mut Repricer>,
    log: &mut ReplyLog,
) -> BenchResult<Interleaved> {
    let topo = svc.topology().clone();
    let mut frames = Interleaved::default();
    for r in rounds {
        for slot in traffic.round(r) {
            let tenant = slot.tenant;
            let req = Req::Frame { tenant, round: r };
            let traced = frames.next_traced();
            tracer.set_enabled(traced);
            if slot.rejoin {
                let root = tracer.open("op.rejoin", req);
                let bye = tracer.time("codec.encode_goodbye", req, || goodbye(tenant));
                tracer.time("codec.decode_goodbye", req, || decode_frame(&bye, &topo))?;
                tracer.time("service.disconnect", req, || svc.disconnect(tenant))?;
                let hello = tracer.time("codec.encode_hello", req, || traffic.hello(tenant));
                let (frame, _) =
                    tracer.time("codec.decode_hello", req, || decode_frame(&hello, &topo))?;
                let SessionFrame::Hello { requested_cap, .. } = frame else {
                    return Err("hello decoded as another frame".into());
                };
                let answer = match tracer.time("service.connect", req, || {
                    svc.connect(tenant, requested_cap)
                }) {
                    Ok((slot, granted_cap)) => SessionFrame::Welcome {
                        tenant,
                        granted_cap,
                        slot,
                    },
                    Err(Error::Rejected { reason }) => SessionFrame::Reject { tenant, reason },
                    Err(e) => return Err(e.into()),
                };
                let mut out = Vec::new();
                tracer.time("codec.encode_welcome", req, || {
                    encode_frame(&answer, &mut out)
                });
                let _ = tracer.time("codec.decode_welcome", req, || decode_frame(&out, &topo));
                tracer.close(root);
                log.record(tenant, Some(r), &out, Expect::Welcome);
            }
            let frame = traffic.frame(&slot, r);
            let (encode, decode) = match slot.op {
                Op::Submit(_) => ("codec.encode_submit", "codec.decode_submit"),
                Op::Fault(_) => ("codec.encode_fault", "codec.decode_fault"),
            };
            let start = Instant::now();
            let root = tracer.open("op.frame", req);
            let bytes = tracer.time(encode, req, || frame_to_bytes(&frame));
            let (decoded, _) = tracer.time(decode, req, || decode_frame(&bytes, &topo))?;
            let reply = match decoded {
                SessionFrame::Submit { tenant, record } => {
                    tracer.time("service.submit", req, || svc.submit(tenant, *record))?
                }
                SessionFrame::FaultReport { tenant, error, .. } => {
                    tracer.time("service.report_fault", req, || {
                        svc.report_fault(tenant, error)
                    })?
                }
                _ => return Err("data frame decoded as another frame".into()),
            };
            let mut out = Vec::new();
            tracer.time("codec.encode_reply", req, || encode_frame(&reply, &mut out));
            let _ = tracer.time("codec.decode_reply", req, || decode_frame(&out, &topo));
            tracer.close(root);
            frames.push(traced, us_since(start));
            if let Op::Submit(_) = slot.op {
                log.submits += 1;
                log.submit_bytes += bytes.len() as u64;
            }
            log.record(tenant, Some(r), &out, Expect::Reply);
            if let (Some(pricer), Op::Submit(i), true) = (repricer.as_deref_mut(), &slot.op, traced)
            {
                let cap = svc.granted(tenant).unwrap_or(Watts::ZERO);
                pricer.price(tracer, req, &traffic.records[*i], cap)?;
            }
        }
        tracer.set_enabled(true);
        tracer.time("service.tick", Req::Round(r), || svc.tick())?;
    }
    Ok(frames)
}

/// Prices the transport on the same frames: each is handled in
/// process by one service and round-tripped over a Unix socket to a
/// twin, and the two replies must match. Reports `FrameConn::send`,
/// `FrameConn::recv`, their sum (the round trip), `handle_frame`, and
/// `transport.overhead_us` (round-trip p50 minus `handle_frame` p50).
fn price_transport(
    ppep: &Ppep,
    traffic: &Traffic,
    stop: Stop,
    report: &mut Report,
) -> BenchResult<()> {
    let local = new_service(ppep, traffic);
    let remote = new_service(ppep, traffic);
    let server = ServeListener::bind(TransportKind::Unix)?.spawn(Arc::clone(&remote));
    // The connection closes before the shutdown, which joins its thread.
    let result = FrameConn::connect(server.addr())
        .map_err(Into::into)
        .and_then(|mut conn| time_transport(&mut conn, &local, &remote, traffic, stop, report));
    server.shutdown();
    result
}

fn time_transport(
    conn: &mut FrameConn,
    local: &CappingService,
    remote: &CappingService,
    traffic: &Traffic,
    stop: Stop,
    report: &mut Report,
) -> BenchResult<()> {
    let (mut handle, mut send, mut recv, mut roundtrip) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0u64;
    for tenant in 0..traffic.tenants() {
        let hello = traffic.hello(tenant);
        let (a, _) = local.handle_frame(&hello)?;
        mismatches += u64::from(a != conn.roundtrip(&hello)?);
    }
    let start = Instant::now();
    let mut r = 0;
    while !done(stop, start, handle.len(), traffic, r) {
        for slot in traffic.round(r) {
            if slot.rejoin {
                let bye = goodbye(slot.tenant);
                local.handle_frame(&bye)?;
                conn.send(&bye)?;
                let hello = traffic.hello(slot.tenant);
                let (a, _) = local.handle_frame(&hello)?;
                mismatches += u64::from(a != conn.roundtrip(&hello)?);
            }
            let bytes = frame_to_bytes(&traffic.frame(&slot, r));
            let at = Instant::now();
            let (a, _) = local.handle_frame(&bytes)?;
            handle.push(us_since(at));
            let at = Instant::now();
            conn.send(&bytes)?;
            let sent = Instant::now();
            let b = conn.recv()?.ok_or("server closed mid-roundtrip")?;
            recv.push(us_since(sent));
            roundtrip.push(us_since(at));
            send.push(sent.saturating_duration_since(at).as_secs_f64() * 1e6);
            mismatches += u64::from(a != b);
        }
        local.tick()?;
        remote.tick()?;
        r += 1;
    }
    report.check(mismatches == 0, || {
        format!("{mismatches} socket replies differ from in-process handle_frame replies")
    });
    report.put_latency("serve.handle_frame", &handle);
    report.put_latency("transport.send", &send);
    report.put_latency("transport.recv", &recv);
    report.put_latency("transport.roundtrip", &roundtrip);
    let overhead = Samples::new(roundtrip)?.percentile(0.5) - Samples::new(handle)?.percentile(0.5);
    report.put("transport.overhead_us", overhead, "us");
    Ok(())
}

/// Prices every serve layer on another workload's inputs (the
/// daemon's and explore's traced runs): the traced in-process replay
/// must match the reference replay, and the transport is priced on the
/// same traffic. With `tenant_health`, the hosted daemons' supervisor
/// counts are reported too.
pub fn price_layers(
    ppep: &Ppep,
    traffic: &Traffic,
    tracer: &mut Tracer,
    stop: Stop,
    tenant_health: bool,
    report: &mut Report,
) -> BenchResult<()> {
    let rounds = traffic.rounds().unwrap_or(0);
    let svc = new_service(ppep, traffic);
    let mut log = ReplyLog::new(traffic, svc.topology());
    admit_local(&svc, traffic, &mut log)?;
    replay_layers(&svc, traffic, 0..rounds, tracer, None, &mut log)?;
    log.report(report);
    report.put("service.live_tenants", svc.live_sessions() as f64, "count");
    if tenant_health {
        put_tenant_health(report, &svc);
    }
    check_against_reference(ppep, traffic, 0..rounds, &log, "layers", report)?;
    report.failed += log.failures;
    price_transport(ppep, traffic, stop, report)
}

/// Sums the tenants' supervisor reports (the daemon layer inside the
/// service).
fn put_tenant_health(report: &mut Report, svc: &CappingService) {
    let status = svc.status();
    let sum = |f: fn(&ppep_serve::TenantStatus) -> u64| status.iter().map(f).sum::<u64>() as f64;
    report.put("daemon.fresh", sum(|t| t.fresh_decisions), "count");
    report.put("daemon.held", sum(|t| t.held_decisions), "count");
    report.put("daemon.failsafe", sum(|t| t.failsafe_intervals), "count");
    report.put("daemon.retries", sum(|t| t.retries), "count");
}

/// `serve-steady` / `serve-churn`, traced: an untraced open-loop run
/// for the end-to-end p50, then the same rounds replayed in process
/// with every other slot traced (the p50 difference between the halves
/// is the tracing overhead), then the transport priced on the same
/// traffic.
///
/// # Errors
///
/// Set-up, transport or service failures end the run.
pub fn run_traced(opts: &Opts, churn: bool, report: &mut Report) -> BenchResult<Tracer> {
    let make = |c: &mut SetupCost| setup(opts.seed, churn, c);
    with_setups(opts, report, make, |fleet, report, _| {
        measure_traced(opts, fleet, report)
    })
}

fn measure_traced(opts: &Opts, mut fleet: Fleet, report: &mut Report) -> BenchResult<Tracer> {
    report.put_latency("sim.sample", &fleet.sample_us);
    // The replay below keeps a span per call: bound its frames. It
    // traces every other slot, and some slots report faults, so a p99
    // of each call needs three times the frames it needs samples.
    let rounds = open_rounds(opts.budget(0.5)).clamp(
        3 * P99_SAMPLES as u64 / TENANTS,
        TRACED_OPS as u64 / TENANTS,
    );
    let addr = fleet.addr()?;
    let open = open_loop(
        &addr,
        &fleet.svc,
        &fleet.traffic,
        0..rounds,
        Instant::now(),
        &mut fleet.log,
    )?;
    fleet.stop();
    report_open_loop(report, &open);
    report.put_latency("frame", &open.latency_us);
    let e2e_p50 = Windows::of(OPEN_WINDOW_S, &open.done_s, &open.latency_us)
        .finish()?
        .median
        .p50;
    report.put("e2e_p50_us", e2e_p50, "us");
    check_against_reference(
        &fleet.ppep,
        &fleet.traffic,
        0..rounds,
        &fleet.log,
        "socket",
        report,
    )?;
    report.digest = Some(fleet.log.digest());

    let (ppep, traffic) = (&fleet.ppep, &fleet.traffic);
    let mut tracer = Tracer::new();
    let svc = new_service(ppep, traffic);
    let mut log = ReplyLog::new(traffic, svc.topology());
    admit_local(&svc, traffic, &mut log)?;
    let mut repricer = Repricer::new(ppep);
    let frames = replay_layers(
        &svc,
        traffic,
        0..rounds,
        &mut tracer,
        Some(&mut repricer),
        &mut log,
    )?;
    report.check(log.transcripts == fleet.log.transcripts, || {
        "traced replay: transcripts differ from the socket run".into()
    });
    log.report(report);
    report.put("service.live_tenants", svc.live_sessions() as f64, "count");
    put_tenant_health(report, &svc);
    report.put(
        "core.busy_cores",
        Samples::new(repricer.busy_cores.clone())?.mean(),
        "count",
    );
    report.put("trace_overhead_us", frames.overhead_us()?, "us");

    price_transport(ppep, traffic, Stop::after(opts.budget(0.2)), report)?;
    let lag = report.get("gen.lag_p50_us").unwrap_or(0.0);
    let transport = report.get("transport.overhead_us").unwrap_or(0.0);
    report_layers(
        report,
        &tracer,
        "op.frame",
        e2e_p50,
        &[("gen", lag), ("transport", transport)],
    );
    report.attempted = open.slots + log.replies;
    report.failed = fleet.log.failures + log.failures;
    Ok(tracer)
}
