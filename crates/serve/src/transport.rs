//! A real transport for the capping service: v2 session frames over a
//! Unix-domain socket (fallback: localhost TCP).
//!
//! Everything below the service speaks the exact same bytes as the
//! in-process path — per frame: kind (u8), varint payload length,
//! payload, CRC32 — read off the stream with
//! [`ppep_telemetry::session::read_frame_bytes`] and handed whole to
//! [`CappingService::handle_frame`]. No decoding happens here, so the
//! server loop holds no lock across any syscall: read a frame, let the
//! service route it (only the tenant's home-shard mutex is taken, deep
//! inside), write the reply.
//!
//! The point of the socket path is that load generation and chaos
//! drills exercise real syscall boundaries (partial reads, flushes,
//! connection teardown) instead of a function call — the latency they
//! measure includes the wire.
//!
//! The listener is deliberately small: one accepting thread, one
//! thread per connection, a shared [`CappingService`] (`&self`
//! methods — no service-wide lock to serialize on), shutdown via a
//! stop flag plus a wake-up connection. Ticks stay with the caller:
//! transports move frames, the driver owns time.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use ppep_telemetry::session::read_frame_bytes;
use ppep_types::{Error, Result};

use crate::service::CappingService;

/// Which transport a listener binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Unix-domain socket under the system temp dir (preferred: no
    /// ports, no firewalls, cleaned up on shutdown).
    Unix,
    /// Localhost TCP on an ephemeral port (fallback for platforms
    /// without Unix sockets).
    Tcp,
}

impl TransportKind {
    /// Stable name used by CLI flags and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            TransportKind::Unix => "unix",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Parses a CLI flag value (`unix` | `tcp`).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] on anything else.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "unix" => Ok(TransportKind::Unix),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(Error::InvalidConfig(format!(
                "unknown transport {other:?} (expected unix|tcp)"
            ))),
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a bound listener can be reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// Filesystem path of a Unix-domain socket.
    Unix(PathBuf),
    /// Localhost TCP address (ephemeral port chosen at bind).
    Tcp(SocketAddr),
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            ServeAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

enum ListenerInner {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// A bound, not-yet-serving listener.
pub struct ServeListener {
    inner: ListenerInner,
    addr: ServeAddr,
}

/// Distinguishes concurrently bound sockets within one process.
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

impl ServeListener {
    /// Binds the requested transport: a fresh socket path under the
    /// temp dir, or an ephemeral localhost TCP port.
    ///
    /// # Errors
    ///
    /// [`Error::Device`] when the OS refuses the bind (and, on
    /// non-Unix platforms, when a Unix socket is requested).
    pub fn bind(kind: TransportKind) -> Result<Self> {
        match kind {
            #[cfg(unix)]
            TransportKind::Unix => {
                let seq = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
                let path = std::env::temp_dir()
                    .join(format!("ppep-serve-{}-{seq}.sock", std::process::id()));
                let listener = UnixListener::bind(&path)
                    .map_err(|e| Error::Device(format!("bind {}: {e}", path.display())))?;
                Ok(Self {
                    inner: ListenerInner::Unix(listener),
                    addr: ServeAddr::Unix(path),
                })
            }
            #[cfg(not(unix))]
            TransportKind::Unix => Err(Error::Device(
                "unix-domain sockets unavailable on this platform".into(),
            )),
            TransportKind::Tcp => {
                let listener = TcpListener::bind(("127.0.0.1", 0))
                    .map_err(|e| Error::Device(format!("bind 127.0.0.1:0: {e}")))?;
                let addr = listener
                    .local_addr()
                    .map_err(|e| Error::Device(format!("local_addr: {e}")))?;
                Ok(Self {
                    inner: ListenerInner::Tcp(listener),
                    addr: ServeAddr::Tcp(addr),
                })
            }
        }
    }

    /// Binds a Unix socket, falling back to localhost TCP when the
    /// platform (or the temp dir) refuses.
    ///
    /// # Errors
    ///
    /// [`Error::Device`] when both transports fail.
    pub fn bind_auto() -> Result<Self> {
        ServeListener::bind(TransportKind::Unix)
            .or_else(|_| ServeListener::bind(TransportKind::Tcp))
    }

    /// Where clients connect.
    pub fn addr(&self) -> &ServeAddr {
        &self.addr
    }

    /// Starts serving `service` on a background accept thread (one
    /// thread per connection). The returned handle shuts the server
    /// down; the service stays with the caller for ticking.
    pub fn spawn(self, service: Arc<CappingService>) -> ServerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        let addr = self.addr.clone();
        let accept_stop = Arc::clone(&stop);
        let accept_live = Arc::clone(&live);
        let accept = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            loop {
                let conn = match &self.inner {
                    #[cfg(unix)]
                    ListenerInner::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
                    ListenerInner::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                };
                if accept_stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { break };
                // Reap the threads of closed connections so the list
                // holds live ones only instead of growing until shutdown.
                conns.retain(|c| !c.is_finished());
                let svc = Arc::clone(&service);
                let live = LiveConn::enter(&accept_live);
                conns.push(std::thread::spawn(move || {
                    serve_connection(stream, &svc, live)
                }));
            }
            for c in conns {
                let _ = c.join();
            }
        });
        ServerHandle {
            stop,
            live,
            addr,
            accept: Some(accept),
        }
    }
}

/// Handle on a serving listener. Dropping it shuts the server down
/// exactly as [`ServerHandle::shutdown`] does.
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    addr: ServeAddr,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Where clients connect.
    pub fn addr(&self) -> &ServeAddr {
        &self.addr
    }

    /// Connections being served right now. A connection counts from
    /// its accept until its serve loop ends, which is before its
    /// socket closes: a client that has read EOF is no longer counted.
    pub fn connections(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Stops accepting, wakes the accept thread, joins every
    /// connection thread, and removes the socket file. Dropping the
    /// handle does the same; this names the moment.
    pub fn shutdown(self) {
        drop(self);
    }

    /// The shutdown itself; a no-op once the accept thread is joined.
    fn stop_and_join(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = FrameConn::connect(&self.addr);
        let _ = accept.join();
        if let ServeAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

enum Stream {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl std::io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// One live connection in [`ServerHandle::connections`]: counted on
/// accept, uncounted on drop.
struct LiveConn(Arc<AtomicUsize>);

impl LiveConn {
    fn enter(live: &Arc<AtomicUsize>) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Self(Arc::clone(live))
    }
}

impl Drop for LiveConn {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One connection's serve loop: length-delimited frame in, service,
/// reply out. A malformed frame (or a frame the service rejects as a
/// protocol violation) drops the connection — the client's next read
/// sees EOF, exactly like a server-side reset.
fn serve_connection(stream: Stream, service: &CappingService, live: LiveConn) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = writer;
    let mut reader = std::io::BufReader::new(stream);
    while let Ok(Some(frame)) = read_frame_bytes(&mut reader) {
        let Ok((reply, _)) = service.handle_frame(&frame) else {
            break;
        };
        if reply.is_empty() {
            continue;
        }
        if writer.write_all(&reply).is_err() || writer.flush().is_err() {
            break;
        }
    }
    // Uncount the connection before `reader` and `writer` close the
    // socket, so a client that reads EOF sees it already gone.
    drop(live);
}

/// A client-side connection speaking v2 session frames.
pub struct FrameConn {
    reader: std::io::BufReader<Stream>,
    writer: Stream,
}

impl FrameConn {
    /// Connects to a served address.
    ///
    /// # Errors
    ///
    /// [`Error::Device`] when the OS refuses the connection.
    pub fn connect(addr: &ServeAddr) -> Result<Self> {
        let stream = match addr {
            #[cfg(unix)]
            ServeAddr::Unix(path) => UnixStream::connect(path)
                .map(Stream::Unix)
                .map_err(|e| Error::Device(format!("connect {}: {e}", path.display())))?,
            #[cfg(not(unix))]
            ServeAddr::Unix(path) => {
                return Err(Error::Device(format!(
                    "unix socket {} unavailable on this platform",
                    path.display()
                )))
            }
            ServeAddr::Tcp(a) => TcpStream::connect(a)
                .map(Stream::Tcp)
                .map_err(|e| Error::Device(format!("connect {a}: {e}")))?,
        };
        let writer = stream
            .try_clone()
            .map_err(|e| Error::Device(format!("clone stream: {e}")))?;
        Ok(Self {
            reader: std::io::BufReader::new(stream),
            writer,
        })
    }

    /// Writes one already-encoded frame.
    ///
    /// # Errors
    ///
    /// [`Error::Device`] on a write/flush failure.
    pub fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.writer
            .write_all(frame)
            .and_then(|()| self.writer.flush())
            .map_err(|e| Error::Device(format!("send frame: {e}")))
    }

    /// Reads the next whole frame, `None` on a clean server close.
    ///
    /// # Errors
    ///
    /// As for [`read_frame_bytes`].
    pub fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        read_frame_bytes(&mut self.reader)
    }

    /// Sends one frame and waits for its reply.
    ///
    /// # Errors
    ///
    /// [`Error::Device`] when the server closed instead of replying.
    pub fn roundtrip(&mut self, frame: &[u8]) -> Result<Vec<u8>> {
        self.send(frame)?;
        self.recv()?
            .ok_or_else(|| Error::Device("server closed mid-roundtrip".into()))
    }
}

/// How a driver reaches the service: a direct in-process call, or a
/// framed socket connection. Load generation and the chaos harness
/// run the same replay logic over either.
pub enum ServiceLane<'a> {
    /// Call [`CappingService::handle_frame`] directly.
    Local(&'a CappingService),
    /// Round-trip each frame over a connected socket.
    Socket(FrameConn),
}

impl ServiceLane<'_> {
    /// Sends one encoded frame and returns the encoded reply. Only
    /// for frames that get one (Hello/Submit/FaultReport) — a socket
    /// lane would block forever waiting for Goodbye's non-reply (use
    /// [`FrameConn::send`] for those).
    ///
    /// # Errors
    ///
    /// Service errors in-process; transport errors over a socket.
    pub fn roundtrip(&mut self, bytes: &[u8]) -> Result<Vec<u8>> {
        match self {
            ServiceLane::Local(service) => service.handle_frame(bytes).map(|(out, _)| out),
            ServiceLane::Socket(conn) => conn.roundtrip(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use crate::testutil::engine;
    use ppep_telemetry::session::{decode_frame, frame_to_bytes, SessionFrame};
    use ppep_types::Watts;

    fn roundtrip_over(kind: TransportKind) {
        let mut cfg = ServeConfig::new(Watts::new(100.0));
        cfg.shards = 2;
        let service = Arc::new(CappingService::new(engine().clone(), cfg));
        let listener = ServeListener::bind(kind).unwrap();
        let topology = service.topology().clone();
        let handle = listener.spawn(Arc::clone(&service));

        let mut conn = FrameConn::connect(handle.addr()).unwrap();
        let hello = SessionFrame::Hello {
            tenant: 6,
            requested_cap: Watts::new(40.0),
        };
        let reply = conn.roundtrip(&frame_to_bytes(&hello)).unwrap();
        match decode_frame(&reply, &topology).unwrap().0 {
            SessionFrame::Welcome { tenant: 6, .. } => {}
            other => panic!("wrong outcome {other:?}"),
        }
        assert_eq!(service.live_sessions(), 1, "socket admission is shared");

        conn.send(&frame_to_bytes(&SessionFrame::Goodbye { tenant: 6 }))
            .unwrap();
        drop(conn);
        handle.shutdown();
        // Goodbye raced the shutdown join; afterwards the session is gone.
        assert_eq!(service.live_sessions(), 0);
    }

    #[test]
    fn dropping_the_handle_shuts_the_server_down() {
        let service = Arc::new(CappingService::new(
            engine().clone(),
            ServeConfig::new(Watts::new(100.0)),
        ));
        let handle = ServeListener::bind_auto().unwrap().spawn(service);
        let addr = handle.addr().clone();
        FrameConn::connect(&addr).expect("the server accepts while its handle lives");
        drop(handle);
        if let ServeAddr::Unix(path) = &addr {
            assert!(!path.exists(), "socket file {} left behind", path.display());
        }
        assert!(
            FrameConn::connect(&addr).is_err(),
            "a dropped server still accepts connections"
        );
    }

    #[test]
    fn unix_socket_roundtrips_and_cleans_up() {
        if !cfg!(unix) {
            return;
        }
        let listener = ServeListener::bind(TransportKind::Unix).unwrap();
        let path = match listener.addr() {
            ServeAddr::Unix(p) => p.clone(),
            other => panic!("wrong addr {other:?}"),
        };
        drop(listener);
        let _ = std::fs::remove_file(&path);
        roundtrip_over(TransportKind::Unix);
    }

    #[test]
    fn tcp_fallback_roundtrips() {
        roundtrip_over(TransportKind::Tcp);
    }

    #[test]
    fn closed_connection_threads_are_reaped() {
        let cfg = ServeConfig::new(Watts::new(100.0));
        let service = Arc::new(CappingService::new(engine().clone(), cfg));
        let handle = ServeListener::bind_auto().unwrap().spawn(service);
        let mut garbage = frame_to_bytes(&SessionFrame::Goodbye { tenant: 1 });
        if let Some(crc) = garbage.last_mut() {
            *crc ^= 0xff;
        }
        for cycle in 0..64 {
            let mut conn = FrameConn::connect(handle.addr()).unwrap();
            // A corrupt frame makes the server drop the connection;
            // its count drops before the socket closes, so reading to
            // EOF is enough to see it gone.
            conn.send(&garbage).unwrap();
            while let Ok(Some(_)) = conn.recv() {}
            drop(conn);
            assert_eq!(
                handle.connections(),
                0,
                "cycle {cycle}: a closed connection is still counted"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn bind_auto_prefers_unix_and_parse_rejects_junk() {
        let listener = ServeListener::bind_auto().unwrap();
        if cfg!(unix) {
            assert!(matches!(listener.addr(), ServeAddr::Unix(_)));
        }
        if let ServeAddr::Unix(p) = listener.addr() {
            let p = p.clone();
            drop(listener);
            let _ = std::fs::remove_file(p);
        }
        assert_eq!(TransportKind::parse("unix").unwrap(), TransportKind::Unix);
        assert_eq!(TransportKind::parse("tcp").unwrap(), TransportKind::Tcp);
        assert!(TransportKind::parse("carrier-pigeon").is_err());
    }
}
