//! Golden session transcript: the multi-tenant wire protocol pinned
//! as a committed fixture.
//!
//! `tests/fixtures/serve_session.bin` holds the byte-exact transcript
//! of a small scripted service session — admissions (including one
//! typed rejection), interval submissions from two tenants, a fault
//! report, and a goodbye — with every client request immediately
//! followed by the service's encoded response. The tests hold:
//!
//! 1. **Transcript stability** — replaying the script against a
//!    freshly trained service reproduces the committed bytes exactly,
//!    so any drift in the session framing, the admission arithmetic,
//!    or the capping decisions is caught against history.
//! 2. **Decode stability** — every frame in the fixture decodes, and
//!    re-encoding reproduces the committed bytes.
//! 3. **Response stability** — the server→client frames hash to a
//!    pinned FNV-64 that predates the binary `Submit`/`FaultReport`
//!    payloads, so re-recording the fixture for a request-encoding
//!    change cannot hide a change in what the service answers.
//!
//! Regenerate (after an *intentional* behaviour change) with:
//!
//! ```text
//! cargo test --test golden_session -- --ignored regenerate
//! ```

use ppep_core::{Platform, Ppep};
use ppep_rig::TrainingRig;
use ppep_serve::{CappingService, ServeConfig};
use ppep_sim::chip::{ChipSimulator, SimConfig};
use ppep_sim::SimPlatform;
use ppep_telemetry::session::{
    decode_stream, frame_to_bytes, read_frame_bytes, SessionFrame, FRAME_EVICTED, FRAME_REJECT,
    FRAME_REPLY, FRAME_WELCOME,
};
use ppep_types::{Topology, Watts};
use ppep_workloads::combos::fig7_workload;
use std::path::PathBuf;
use std::sync::OnceLock;

const SEED: u64 = 42;
const INTERVALS: u64 = 4;
const FIXTURE: &str = "serve_session.bin";
/// FNV-1a 64 over the transcript's server→client frames, in order,
/// as recorded when `Submit` and `FaultReport` still carried JSONL
/// lines.
const RESPONSE_FNV64: u64 = 0xfce2_1101_0945_b27f;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(FIXTURE)
}

fn trained() -> &'static Ppep {
    static PPEP: OnceLock<Ppep> = OnceLock::new();
    PPEP.get_or_init(|| {
        Ppep::new(
            TrainingRig::fx8320(SEED)
                .train_quick()
                .expect("training succeeds"),
        )
    })
}

fn client(seed: u64) -> SimPlatform {
    let mut sim = ChipSimulator::new(SimConfig::fx8320_pg(seed));
    sim.load_workload(&fig7_workload(seed));
    SimPlatform::new(sim)
}

fn golden_config() -> ServeConfig {
    let mut config = ServeConfig::new(Watts::new(100.0));
    config.max_sessions = 2;
    config.min_grant = Watts::new(20.0);
    config
}

/// Runs the scripted session against the default single-shard service.
fn record_transcript() -> Vec<u8> {
    record_transcript_on(CappingService::new(trained().clone(), golden_config()))
}

/// Runs the scripted session against `service`, appending every
/// request and response to the transcript.
fn record_transcript_on(service: CappingService) -> Vec<u8> {
    let mut transcript = Vec::new();
    let mut exchange = |service: &CappingService, frame: &SessionFrame| {
        let request = frame_to_bytes(frame);
        let (response, consumed) = service
            .handle_frame(&request)
            .expect("scripted frame is valid");
        assert_eq!(consumed, request.len());
        transcript.extend_from_slice(&request);
        transcript.extend_from_slice(&response);
    };

    // Admissions: two welcomes, then a pinned typed rejection.
    for (tenant, cap) in [(0u64, 60.0), (1, 50.0), (2, 30.0)] {
        exchange(
            &service,
            &SessionFrame::Hello {
                tenant,
                requested_cap: Watts::new(cap),
            },
        );
    }

    let mut clients = [client(SEED ^ 0xA), client(SEED ^ 0xB)];
    for interval in 0..INTERVALS {
        for (tenant, platform) in clients.iter_mut().enumerate() {
            // Tenant 1 loses its interval-2 measurement: the fixture
            // pins the degraded (held-decision) reply path too.
            let frame = if tenant == 1 && interval == 2 {
                let record = platform.sample().expect("sim sample");
                let _unsent = record;
                SessionFrame::FaultReport {
                    tenant: tenant as u64,
                    index: platform.current_interval(),
                    error: ppep_types::Error::SensorDropout {
                        sensor: "hall-sensor",
                    },
                }
            } else {
                SessionFrame::Submit {
                    tenant: tenant as u64,
                    record: Box::new(platform.sample().expect("sim sample")),
                }
            };
            exchange(&service, &frame);
        }
        service.tick().expect("tick holds the budget invariant");
    }

    exchange(&service, &SessionFrame::Goodbye { tenant: 1 });
    transcript
}

/// Regenerates the committed fixture. Ignored by default: run it only
/// after an intentional behaviour change, then commit the new file.
#[test]
#[ignore = "rewrites tests/fixtures/; run after intentional behaviour changes"]
fn regenerate_golden_session() {
    std::fs::create_dir_all(fixture_path().parent().expect("fixture dir")).expect("fixtures dir");
    std::fs::write(fixture_path(), record_transcript()).expect("write fixture");
}

#[test]
fn golden_session_matches_a_fresh_transcript() {
    let pinned = std::fs::read(fixture_path()).expect("fixture exists");
    assert_eq!(
        record_transcript(),
        pinned,
        "a fresh session transcript no longer matches the pinned fixture; \
         if the behaviour change is intentional, regenerate with \
         `cargo test --test golden_session -- --ignored regenerate`"
    );
}

#[test]
fn golden_session_reproduces_through_one_shard() {
    // A sharded service with every scripted tenant pinned onto the
    // same shard must replay the committed single-lock transcript
    // byte-for-byte: routing and the epoch arbiter may not perturb
    // the wire behaviour a solo shard observes.
    let mut config = golden_config();
    config.shards = 3;
    let service =
        CappingService::new(trained().clone(), config).with_assignment(&[(0, 1), (1, 1), (2, 1)]);

    let pinned = std::fs::read(fixture_path()).expect("fixture exists");
    assert_eq!(
        record_transcript_on(service),
        pinned,
        "the sharded service drifted from the pinned single-lock transcript"
    );
}

#[test]
fn golden_session_decodes_and_reencodes_byte_identically() {
    let pinned = std::fs::read(fixture_path()).expect("fixture exists");
    let frames = decode_stream(&pinned, &Topology::fx8320()).expect("fixture decodes");
    assert!(
        frames.len() > 2 * (3 + 2 * INTERVALS as usize),
        "request+response per exchange: got {} frames",
        frames.len()
    );

    // The scripted shape: three admission exchanges up front, with the
    // third pinned as a typed slots rejection.
    assert!(matches!(frames[0], SessionFrame::Hello { tenant: 0, .. }));
    assert!(matches!(
        frames[1],
        SessionFrame::Welcome {
            tenant: 0,
            slot: 0,
            ..
        }
    ));
    assert!(matches!(frames[4], SessionFrame::Hello { tenant: 2, .. }));
    assert!(matches!(
        frames[5],
        SessionFrame::Reject {
            tenant: 2,
            reason: ppep_types::RejectReason::SessionSlotsExhausted { active: 2, max: 2 },
        }
    ));
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, SessionFrame::FaultReport { tenant: 1, .. })),
        "the fault-report exchange is part of the script"
    );

    let mut reencoded = Vec::new();
    for frame in &frames {
        reencoded.extend_from_slice(&frame_to_bytes(frame));
    }
    assert_eq!(
        reencoded, pinned,
        "decode -> re-encode drifted from the committed bytes"
    );
}

/// FNV-1a 64 over the raw bytes of every server→client frame in
/// `transcript`.
fn response_digest(transcript: &[u8]) -> u64 {
    let mut cursor = std::io::Cursor::new(transcript);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    while let Some(frame) = read_frame_bytes(&mut cursor).expect("transcript splits") {
        if [FRAME_WELCOME, FRAME_REJECT, FRAME_REPLY, FRAME_EVICTED].contains(&frame[0]) {
            for b in &frame {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn golden_session_responses_keep_their_pinned_hash() {
    assert_eq!(
        response_digest(&record_transcript()),
        RESPONSE_FNV64,
        "the service's answers changed, not just the request encoding"
    );
}
