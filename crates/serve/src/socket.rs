//! Socket front-end: resident mode over real connections.
//!
//! A [`SocketFrontEnd`] binds a TCP listener (and, on Unix, optionally a
//! Unix-domain listener) in front of a
//! [`StreamServer`]. Each accepted
//! connection carries its own JSONL request stream; every stream fans
//! into the **one shared admission queue**, so EDF ordering, bounded
//! depth + backpressure, load shedding, per-tenant fairness, drain and
//! live reload all hold *across* connections exactly as they do for a
//! single stdin stream. Responses are routed back to the originating
//! connection through a [`crate::mux::ConnRegistry`] — one outbox +
//! writer thread per connection, so one slow reader never blocks
//! another connection's responses.
//!
//! # Connection lifecycle
//!
//! * **Clean EOF** (client closes its write side): the trailing partial
//!   line, if any, is still processed; the server waits for every
//!   response this connection is owed, flushes them, and closes. A
//!   half-closed client can therefore submit its whole stream, shut
//!   down the write side, and read responses until EOF.
//! * **Abrupt disconnect** (reset / broken pipe): the connection's
//!   queued-but-unadmitted requests are cancelled with typed
//!   `"error_kind": "disconnected"` accounting
//!   ([`ServeStats::disconnected`](crate::ServeStats)); requests already
//!   executing finish on their worker and the undeliverable responses
//!   are dropped without stalling the pool.
//! * **`drain`** waits for in-flight work only — never for idle
//!   connections.
//! * **Overload**: past `max_conns` concurrent connections, new clients
//!   get one `"error_kind": "overloaded"` line and are dropped.
//!
//! Wire schema and semantics are documented in `docs/SERVING.md`
//! ("Socket mode").

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use mbb_conc::sync::atomic::{AtomicBool, Ordering};
use mbb_conc::sync::Mutex;
use mbb_core::resolve_threads;
use mbb_core::IndexStats;

use crate::jsonl::encode_stream_event;
use crate::mux::{ConnRegistry, Connection};
use crate::stream::{worker_loop, Admission, ServeStats, StreamEvent, StreamServer};

/// How long a connection reader blocks before re-checking the shutdown
/// flag and the connection's death mark.
const READ_POLL: Duration = Duration::from_millis(50);

/// How long the accept loop sleeps when no listener had a pending
/// connection.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

// ---------------------------------------------------------------------
// Builder.

/// Stages a socket front-end for a [`StreamServer`]: pick the
/// listeners, then [`bind`](SocketFrontEnd::bind) and
/// [`serve`](BoundFrontEnd::serve).
#[derive(Debug)]
pub struct SocketFrontEnd {
    server: StreamServer,
    tcp: Option<String>,
    unix: Option<PathBuf>,
    max_conns: usize,
}

impl SocketFrontEnd {
    /// Stages a front-end for `server`. Construction is cheap and
    /// infallible; only [`bind`](Self::bind) touches the network. At
    /// least one of [`with_tcp`](Self::with_tcp) /
    /// [`with_unix`](Self::with_unix) must be set before binding.
    pub fn new(server: StreamServer) -> SocketFrontEnd {
        SocketFrontEnd {
            server,
            tcp: None,
            unix: None,
            max_conns: 64,
        }
    }

    /// Listen on a TCP address (e.g. `"127.0.0.1:7070"`; port `0` picks
    /// a free port — read it back from
    /// [`BoundFrontEnd::tcp_addr`]).
    pub fn with_tcp(mut self, addr: impl Into<String>) -> SocketFrontEnd {
        self.tcp = Some(addr.into());
        self
    }

    /// Listen on a Unix-domain socket path. A stale socket file at the
    /// path is removed before binding. Ignored (with an error from
    /// [`bind`](Self::bind)) on non-Unix platforms.
    pub fn with_unix(mut self, path: impl Into<PathBuf>) -> SocketFrontEnd {
        self.unix = Some(path.into());
        self
    }

    /// Caps concurrent connections (default 64). Clients past the cap
    /// receive one `"error_kind": "overloaded"` line and are dropped.
    pub fn with_max_conns(mut self, max_conns: usize) -> SocketFrontEnd {
        self.max_conns = max_conns.max(1);
        self
    }

    /// The server behind the front-end.
    pub fn server(&self) -> &StreamServer {
        &self.server
    }

    /// Binds the configured listeners (nonblocking) and returns the
    /// bound front-end, ready to [`serve`](BoundFrontEnd::serve).
    pub fn bind(self) -> io::Result<BoundFrontEnd> {
        let SocketFrontEnd {
            server,
            tcp,
            unix,
            max_conns,
        } = self;
        if tcp.is_none() && unix.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "socket front-end needs at least one listener (with_tcp / with_unix)",
            ));
        }
        let (tcp, tcp_addr) = match tcp {
            Some(addr) => {
                let listener = TcpListener::bind(&addr)?;
                listener.set_nonblocking(true)?;
                let local = listener.local_addr()?;
                (Some(listener), Some(local))
            }
            None => (None, None),
        };
        #[cfg(unix)]
        let (unix_listener, unix_path) = match unix {
            Some(path) => {
                // A stale socket file from a previous run refuses the
                // bind; replacing it is the conventional daemon move.
                let _ = std::fs::remove_file(&path);
                let listener = UnixListener::bind(&path)?;
                listener.set_nonblocking(true)?;
                (Some(listener), Some(path))
            }
            None => (None, None),
        };
        #[cfg(not(unix))]
        {
            if unix.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix-domain sockets are not available on this platform",
                ));
            }
        }
        #[cfg(not(unix))]
        let unix_path: Option<PathBuf> = None;
        Ok(BoundFrontEnd {
            server,
            tcp,
            tcp_addr,
            #[cfg(unix)]
            unix: unix_listener,
            unix_path,
            max_conns,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }
}

// ---------------------------------------------------------------------
// Bound front-end.

/// A bound (but not yet serving) socket front-end. Dropping it removes
/// the Unix socket file, if one was bound.
#[derive(Debug)]
pub struct BoundFrontEnd {
    server: StreamServer,
    tcp: Option<TcpListener>,
    tcp_addr: Option<SocketAddr>,
    #[cfg(unix)]
    unix: Option<UnixListener>,
    unix_path: Option<PathBuf>,
    max_conns: usize,
    stop: Arc<AtomicBool>,
}

/// Stops a running [`BoundFrontEnd::serve`] loop from another thread:
/// the accept loop exits, connection readers wind down (delivering the
/// responses they are owed), workers drain the queue, and `serve`
/// returns its final [`ServeStats`].
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Requests shutdown; returns immediately.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

impl BoundFrontEnd {
    /// The actual TCP address bound (resolves port `0`), if TCP was
    /// configured.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The Unix socket path bound, if one was configured.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// A handle that stops [`serve`](Self::serve) from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
        }
    }

    /// Serves until [`ShutdownHandle::shutdown`] is called: accepts up
    /// to `max_conns` concurrent connections, fans every stream into
    /// the shared admission queue, and routes responses back by
    /// originating connection. Returns the final stats snapshot.
    pub fn serve(mut self) -> ServeStats {
        let admission = self.server.new_admission();
        let baselines = self.server.baselines();
        let registry: ConnRegistry<Conn> = ConnRegistry::new();
        let workers = resolve_threads(self.server.config().workers);
        let tcp = self.tcp.take();
        #[cfg(unix)]
        let unix = self.unix.take();
        let stop = Arc::clone(&self.stop);
        let server = &self.server;

        // Deliver an event to its connection's outbox. Response, shed
        // and disconnect lines retire a request the reader `begin()`-ed
        // at admission; control acks and parse errors do not.
        let deliver = |conn_id: u64, event: StreamEvent| {
            let retires = matches!(
                event,
                StreamEvent::Response(_)
                    | StreamEvent::Shed { .. }
                    | StreamEvent::Disconnected { .. }
            );
            if let Some(conn) = registry.get(conn_id) {
                // Workers call this inside their request context, so the
                // encode span inherits the request/connection ids.
                let encode_span = mbb_obs::span(mbb_obs::Stage::Encode);
                let line = encode_stream_event(&event);
                drop(encode_span);
                conn.send(&line);
                if retires {
                    conn.finish();
                }
            }
        };
        let alive = |conn_id: u64| registry.is_alive(conn_id);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| worker_loop(&admission, &deliver, &alive));
            }
            let mut conn_threads: Vec<std::thread::ScopedJoinHandle<'_, ()>> = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                // Join the threads of connections that have ended, so a
                // long-running server keeps handles and stacks only for
                // live ones. A panic is ignored here as at shutdown.
                for handle in std::mem::take(&mut conn_threads) {
                    if handle.is_finished() {
                        let _ = handle.join();
                    } else {
                        conn_threads.push(handle);
                    }
                }
                let mut accepted = Vec::new();
                if let Some(listener) = &tcp {
                    if let Ok((stream, _peer)) = listener.accept() {
                        accepted.push(Conn::Tcp(stream));
                    }
                }
                #[cfg(unix)]
                if let Some(listener) = &unix {
                    if let Ok((stream, _peer)) = listener.accept() {
                        accepted.push(Conn::Unix(stream));
                    }
                }
                let idle = accepted.is_empty();
                for mut stream in accepted {
                    if registry.active() >= self.max_conns {
                        // One typed refusal line, then drop. Best
                        // effort: a client that already vanished just
                        // fails the write.
                        let _ = stream.write_all(
                            b"{\"error\":\"connection limit reached\",\"error_kind\":\"overloaded\"}\n",
                        );
                        let _ = stream.flush();
                        continue;
                    }
                    let Ok(writer) = stream.try_clone() else {
                        continue;
                    };
                    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
                        continue;
                    }
                    let connection = registry.register(writer);
                    admission.note_conn_opened();
                    let pump_conn = Arc::clone(&connection);
                    conn_threads.push(scope.spawn(move || pump_conn.pump()));
                    let reader_refs = (&admission, &baselines, &registry, &stop, &deliver);
                    conn_threads.push(scope.spawn(move || {
                        let (admission, baselines, registry, stop, deliver) = reader_refs;
                        connection_loop(
                            server,
                            admission,
                            baselines,
                            registry,
                            &connection,
                            stream,
                            stop,
                            deliver,
                        );
                    }));
                }
                if idle {
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
            // Stop flag is set: listeners close now (no new clients),
            // connection threads wind down (the readers observe the
            // flag within one READ_POLL), and only then may the queue
            // close — workers must outlive every reader that still
            // expects its responses delivered.
            drop(tcp);
            #[cfg(unix)]
            drop(unix);
            for handle in conn_threads {
                let _ = handle.join();
            }
            admission.close();
        });

        server.snapshot(&admission, &baselines).stats
    }
}

impl Drop for BoundFrontEnd {
    fn drop(&mut self) {
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------
// Per-connection reader.

/// Reads one connection's JSONL stream to completion. Lines may arrive
/// split across arbitrarily small reads; a trailing line without a
/// final newline is still processed at EOF. Returns after the
/// connection is fully retired (deregistered + accounted).
#[allow(clippy::too_many_arguments)]
fn connection_loop(
    server: &StreamServer,
    admission: &Admission,
    baselines: &Mutex<Vec<IndexStats>>,
    registry: &ConnRegistry<Conn>,
    connection: &Arc<Connection<Conn>>,
    mut stream: Conn,
    stop: &AtomicBool,
    deliver: &(impl Fn(u64, StreamEvent) + Sync),
) {
    let id = connection.id();
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut line_no = 0usize;
    let mut abrupt = false;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if connection.is_dead() {
            // The pump hit a write error (reset / broken pipe): the
            // client is gone even if our read side has not seen it yet.
            abrupt = true;
            break;
        }
        match stream.read(&mut chunk) {
            // Clean EOF — or a half-close: the client shut down its
            // write side and is reading responses until we close.
            Ok(0) => break,
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = pending.drain(..=pos).collect();
                    line_no += 1;
                    handle_line(
                        &line[..line.len() - 1],
                        line_no,
                        server,
                        admission,
                        baselines,
                        connection,
                        deliver,
                    );
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => {
                abrupt = true;
                break;
            }
        }
    }
    if !abrupt && !pending.is_empty() {
        // A final request line the client forgot to terminate still
        // counts — half-close flushes it.
        line_no += 1;
        handle_line(
            &pending, line_no, server, admission, baselines, connection, deliver,
        );
    }
    if !abrupt {
        // Clean close: wait for every response this connection is owed
        // (workers are still running; the queue closes only after all
        // connection threads exit). `await_idle` returns false if the
        // pump died while we waited — fall through to the abrupt path.
        abrupt = !connection.await_idle();
    }
    if abrupt {
        connection.mark_dead();
        // Queued-but-unadmitted requests from this connection are
        // cancelled; the typed events keep per-request accounting
        // (send() drops them — the wire is gone). In-flight requests
        // finish on their workers and their responses are dropped.
        for job in admission.cancel_conn(id) {
            deliver(id, job.disconnect_event());
        }
    }
    connection.close();
    registry.deregister(id);
    admission.note_conn_closed(abrupt);
}

/// Feeds one raw line through the shared admission path on behalf of a
/// connection. `begin()` brackets every request line *before* admission
/// so a response can never race the outstanding count.
fn handle_line(
    raw: &[u8],
    line_no: usize,
    server: &StreamServer,
    admission: &Admission,
    baselines: &Mutex<Vec<IndexStats>>,
    connection: &Arc<Connection<Conn>>,
    deliver: &(impl Fn(u64, StreamEvent) + Sync),
) {
    let line = String::from_utf8_lossy(raw);
    server.process_line(
        &line,
        line_no,
        connection.id(),
        admission,
        baselines,
        deliver,
        || connection.begin(),
    );
}

// ---------------------------------------------------------------------
// Transport.

/// One accepted client connection, TCP or Unix-domain.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// An independent handle to the same socket (the per-connection
    /// writer; the original stays with the reader).
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Bounded blocking on reads so the reader can poll the shutdown
    /// flag.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamConfig;
    use crate::ShardedFleet;
    use mbb_bigraph::generators;
    use std::io::{BufRead, BufReader};

    fn front(max_conns: usize) -> SocketFrontEnd {
        let mut fleet = ShardedFleet::new();
        fleet
            .add_shard("g", generators::uniform_edges(6, 6, 18, 1))
            .unwrap();
        SocketFrontEnd::new(StreamServer::new(fleet, StreamConfig::default()))
            .with_max_conns(max_conns)
    }

    #[test]
    fn bind_requires_a_listener() {
        let err = front(4).bind().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn binds_tcp_and_resolves_port_zero() {
        let bound = front(4).with_tcp("127.0.0.1:0").bind().unwrap();
        let addr = bound.tcp_addr().unwrap();
        assert_ne!(addr.port(), 0);
        let handle = bound.shutdown_handle();
        handle.shutdown();
        let stats = bound.serve();
        assert_eq!(stats.connections, 0);
    }

    #[test]
    fn serves_one_tcp_client_end_to_end() {
        let bound = front(4).with_tcp("127.0.0.1:0").bind().unwrap();
        let addr = bound.tcp_addr().unwrap();
        let handle = bound.shutdown_handle();
        let (stats, lines) = std::thread::scope(|scope| {
            let server = scope.spawn(move || bound.serve());
            let client = scope.spawn(move || {
                let mut sock = TcpStream::connect(addr).unwrap();
                sock.write_all(
                    b"{\"id\": 1, \"graph\": \"g\", \"kind\": \"solve\"}\n\
                      {\"id\": 2, \"graph\": \"g\", \"kind\": \"topk\", \"k\": 2}\n",
                )
                .unwrap();
                sock.shutdown(std::net::Shutdown::Write).unwrap();
                let mut lines = Vec::new();
                for line in BufReader::new(sock).lines() {
                    lines.push(line.unwrap());
                }
                lines
            });
            let lines = client.join().unwrap();
            handle.shutdown();
            (server.join().unwrap(), lines)
        });
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("\"id\":1")));
        assert!(lines.iter().any(|l| l.contains("\"id\":2")));
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.active_conns, 0);
        assert_eq!(stats.disconnects, 0);
    }

    #[cfg(unix)]
    #[test]
    fn serves_a_unix_domain_client() {
        let path = std::env::temp_dir().join(format!("mbb-sock-test-{}", std::process::id()));
        let bound = front(4).with_unix(&path).bind().unwrap();
        assert_eq!(bound.unix_path(), Some(path.as_path()));
        let handle = bound.shutdown_handle();
        let stats = std::thread::scope(|scope| {
            let server = scope.spawn(move || bound.serve());
            let mut sock = std::os::unix::net::UnixStream::connect(&path).unwrap();
            sock.write_all(b"{\"id\": 7, \"graph\": \"g\", \"kind\": \"solve\"}\n")
                .unwrap();
            sock.shutdown(std::net::Shutdown::Write).unwrap();
            let mut response = String::new();
            BufReader::new(sock).read_line(&mut response).unwrap();
            assert!(response.contains("\"id\":7"), "{response}");
            handle.shutdown();
            server.join().unwrap()
        });
        assert_eq!(stats.completed, 1);
        assert!(!path.exists(), "socket file cleaned up on drop");
    }

    #[test]
    fn overload_refusal_is_typed() {
        let bound = front(1).with_tcp("127.0.0.1:0").bind().unwrap();
        let addr = bound.tcp_addr().unwrap();
        let handle = bound.shutdown_handle();
        std::thread::scope(|scope| {
            let server = scope.spawn(move || bound.serve());
            // First client occupies the only slot (held open).
            let first = TcpStream::connect(addr).unwrap();
            // Wait until the server has registered it.
            std::thread::sleep(Duration::from_millis(100));
            let second = TcpStream::connect(addr).unwrap();
            let mut line = String::new();
            BufReader::new(second).read_line(&mut line).unwrap();
            assert!(line.contains("\"error_kind\":\"overloaded\""), "{line}");
            drop(first);
            handle.shutdown();
            let stats = server.join().unwrap();
            assert_eq!(stats.connections, 1, "refused client never registered");
        });
    }
}
