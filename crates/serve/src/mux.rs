//! Connection registry and per-connection response mux for the socket
//! front-end.
//!
//! Resident mode fans every client connection into **one** shared
//! admission queue ([`crate::stream::Admission`]), so worker threads
//! complete requests from different connections in an arbitrary
//! interleaving. This module is the return path: each connection owns a
//! [`Connection`] — an outbox queue drained by a dedicated pump thread
//! onto that connection's writer — and the [`ConnRegistry`] maps a
//! connection id (carried by every admitted job) back to it. A worker
//! never writes to a socket directly: it enqueues the encoded line on
//! the originating connection's outbox and moves on, so one
//! slow-reading client stalls only its own pump, never the worker pool
//! or a neighbour connection.
//!
//! Lifecycle, in the words of the serve loop:
//!
//! * [`Connection::begin`] / [`Connection::finish`] bracket each
//!   admitted request — `outstanding` counts events promised but not
//!   yet enqueued, which is what half-close has to wait for.
//! * [`Connection::await_idle`] blocks until `outstanding == 0` (all
//!   promised events enqueued) or the connection died; the reader calls
//!   it on EOF so a client that half-closed its write side still
//!   receives every response before the server closes the socket.
//! * [`Connection::close`] ends the pump *after* the outbox drains —
//!   the graceful path. [`Connection::mark_dead`] ends it immediately
//!   and discards the outbox — the abrupt-disconnect path (a failed
//!   write marks the connection dead from the pump itself).
//!
//! The `conc_models` suite model-checks these exact types under
//! `RUSTFLAGS="--cfg mbb_conc"`. All synchronisation goes through the
//! `mbb-conc` facade for that reason, and the file is in `mbb-lint`'s
//! wire-panic scope — a panic here would kill a pump or worker thread
//! mid-session.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::sync::Arc;

use mbb_conc::sync::{Condvar, Mutex};

/// The reserved connection id of the local (stdin/stdout) stream.
/// Always considered alive; the registry never allocates it.
pub const LOCAL_CONN: u64 = 0;

// ---------------------------------------------------------------------
// One connection.

struct ConnInner {
    /// Encoded JSONL lines waiting for the pump.
    outbox: VecDeque<String>,
    /// Request events promised (admitted) but not yet enqueued.
    outstanding: u64,
    /// Graceful end: pump exits once the outbox is empty.
    closed: bool,
    /// Abrupt end: pump exits now, outbox discarded, sends refused.
    dead: bool,
}

/// One client connection's server-side state: the response outbox, the
/// half-close bookkeeping, and the writer the pump drains into.
///
/// `W` is the write half of the transport — a socket in production, a
/// `Vec<u8>` in tests and model checks.
pub struct Connection<W: Write> {
    id: u64,
    inner: Mutex<ConnInner>,
    /// Pump waits here for outbox lines (or close/death).
    ready: Condvar,
    /// `await_idle` waits here for `outstanding == 0` (or death).
    idle: Condvar,
    writer: Mutex<W>,
}

impl<W: Write> Connection<W> {
    fn new(id: u64, writer: W) -> Connection<W> {
        Connection {
            id,
            inner: Mutex::new(ConnInner {
                outbox: VecDeque::new(),
                outstanding: 0,
                closed: false,
                dead: false,
            }),
            ready: Condvar::new(),
            idle: Condvar::new(),
            writer: Mutex::new(writer),
        }
    }

    /// The registry-assigned connection id carried by this connection's
    /// admitted jobs.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Promises one future terminal event (response, shed, or
    /// disconnect notice). Call **before** the request can reach a
    /// worker, or the matching [`finish`](Self::finish) could underflow
    /// past a racing [`await_idle`](Self::await_idle).
    pub fn begin(&self) {
        self.inner.lock().outstanding += 1;
    }

    /// Retires one promised event (its line is enqueued — or dropped,
    /// for a dead connection). Saturating: a stray `finish` without a
    /// `begin` must not wrap the half-close accounting on a wire path.
    pub fn finish(&self) {
        let mut inner = self.inner.lock();
        inner.outstanding = inner.outstanding.saturating_sub(1);
        if inner.outstanding == 0 {
            drop(inner);
            self.idle.notify_all();
        }
    }

    /// Enqueues one encoded line for the pump. Returns `false` (and
    /// drops the line) when the connection is closed or dead.
    pub fn send(&self, line: &str) -> bool {
        let mut inner = self.inner.lock();
        if inner.dead || inner.closed {
            return false;
        }
        inner.outbox.push_back(line.to_string());
        drop(inner);
        self.ready.notify_one();
        true
    }

    /// Blocks until every promised event has been enqueued
    /// (`outstanding == 0`) or the connection died. Returns `true` on
    /// the clean outcome — the half-close contract: EOF on the read
    /// side waits here, then [`close`](Self::close)s, so the pump still
    /// flushes everything the client is owed.
    pub fn await_idle(&self) -> bool {
        let mut inner = self.inner.lock();
        while inner.outstanding > 0 && !inner.dead {
            inner = self.idle.wait(inner);
        }
        !inner.dead
    }

    /// Graceful end: no further sends; the pump drains the outbox, then
    /// exits.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.ready.notify_all();
    }

    /// Abrupt end: discards queued lines, refuses further sends, wakes
    /// the pump and any `await_idle` waiter immediately.
    pub fn mark_dead(&self) {
        let mut inner = self.inner.lock();
        inner.dead = true;
        inner.outbox.clear();
        drop(inner);
        self.ready.notify_all();
        self.idle.notify_all();
    }

    /// True once [`mark_dead`](Self::mark_dead) ran (directly, or from
    /// the pump on a write error).
    pub fn is_dead(&self) -> bool {
        self.inner.lock().dead
    }

    /// The pump loop: dequeues lines and writes them (newline-framed,
    /// flushed per line) until the connection closes or dies. Run it on
    /// a dedicated thread per connection; a write error marks the
    /// connection dead, which is how an abrupt client disconnect is
    /// detected.
    pub fn pump(&self) {
        loop {
            let mut inner = self.inner.lock();
            while inner.outbox.is_empty() && !inner.closed && !inner.dead {
                inner = self.ready.wait(inner);
            }
            if inner.dead {
                return;
            }
            let Some(line) = inner.outbox.pop_front() else {
                // Empty and closed: drained, graceful exit.
                return;
            };
            drop(inner);
            // The pump thread has no request context; the outbox span is
            // keyed by connection alone (request 0).
            let span = mbb_obs::span_for(mbb_obs::Stage::Outbox, 0, self.id());
            let mut writer = self.writer.lock();
            let result = writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush());
            drop(writer);
            drop(span);
            if result.is_err() {
                self.mark_dead();
                return;
            }
        }
    }

    /// Runs `f` against the writer — tests and model checks inspect the
    /// bytes the pump produced.
    pub fn inspect_writer<R>(&self, f: impl FnOnce(&mut W) -> R) -> R {
        f(&mut self.writer.lock())
    }
}

// ---------------------------------------------------------------------
// The registry.

struct RegistryInner<W: Write> {
    map: HashMap<u64, Arc<Connection<W>>>,
    next_id: u64,
}

/// Maps live connection ids to their [`Connection`]s — the route a
/// worker's sink takes from a job's connection id back to the socket
/// that submitted it.
pub struct ConnRegistry<W: Write> {
    conns: Mutex<RegistryInner<W>>,
}

impl<W: Write> Default for ConnRegistry<W> {
    fn default() -> ConnRegistry<W> {
        ConnRegistry::new()
    }
}

impl<W: Write> ConnRegistry<W> {
    /// An empty registry. Ids start at 1; [`LOCAL_CONN`] (0) is never
    /// allocated.
    pub fn new() -> ConnRegistry<W> {
        ConnRegistry {
            conns: Mutex::new(RegistryInner {
                map: HashMap::new(),
                next_id: LOCAL_CONN + 1,
            }),
        }
    }

    /// Registers a new connection around `writer` and returns it (also
    /// retained in the registry until [`deregister`](Self::deregister)).
    pub fn register(&self, writer: W) -> Arc<Connection<W>> {
        let mut inner = self.conns.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        let conn = Arc::new(Connection::new(id, writer));
        inner.map.insert(id, Arc::clone(&conn));
        conn
    }

    /// Removes a connection; subsequent [`get`](Self::get)s for its id
    /// return `None` and its queued jobs count as disconnected when
    /// popped.
    pub fn deregister(&self, id: u64) -> Option<Arc<Connection<W>>> {
        self.conns.lock().map.remove(&id)
    }

    /// The connection currently registered under `id`.
    pub fn get(&self, id: u64) -> Option<Arc<Connection<W>>> {
        self.conns.lock().map.get(&id).map(Arc::clone)
    }

    /// Whether a job routed to `id` still has somewhere to deliver:
    /// [`LOCAL_CONN`] is always alive; a registered connection is alive
    /// until marked dead; an unregistered id is not.
    pub fn is_alive(&self, id: u64) -> bool {
        if id == LOCAL_CONN {
            return true;
        }
        match self.get(id) {
            Some(conn) => !conn.is_dead(),
            None => false,
        }
    }

    /// Currently registered connections.
    pub fn active(&self) -> usize {
        self.conns.lock().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(conn: &Connection<Vec<u8>>) -> String {
        conn.inspect_writer(|w| String::from_utf8(w.clone()).unwrap())
    }

    #[test]
    fn pump_writes_lines_in_fifo_order_and_drains_on_close() {
        let registry: ConnRegistry<Vec<u8>> = ConnRegistry::new();
        let conn = registry.register(Vec::new());
        assert_eq!(conn.id(), 1);
        std::thread::scope(|scope| {
            let pump = {
                let conn = Arc::clone(&conn);
                scope.spawn(move || conn.pump())
            };
            for i in 0..50 {
                assert!(conn.send(&format!("line-{i}")));
            }
            conn.close();
            pump.join().unwrap();
        });
        let expected: String = (0..50).map(|i| format!("line-{i}\n")).collect();
        assert_eq!(text(&conn), expected);
        // Closed connections refuse further sends.
        assert!(!conn.send("late"));
    }

    #[test]
    fn no_cross_delivery_between_connections() {
        let registry: ConnRegistry<Vec<u8>> = ConnRegistry::new();
        let a = registry.register(Vec::new());
        let b = registry.register(Vec::new());
        assert_ne!(a.id(), b.id());
        std::thread::scope(|scope| {
            for conn in [&a, &b] {
                let conn = Arc::clone(conn);
                scope.spawn(move || conn.pump());
            }
            for i in 0..10 {
                assert!(registry.get(a.id()).unwrap().send(&format!("a{i}")));
                assert!(registry.get(b.id()).unwrap().send(&format!("b{i}")));
            }
            a.close();
            b.close();
        });
        assert!(text(&a).lines().all(|l| l.starts_with('a')));
        assert!(text(&b).lines().all(|l| l.starts_with('b')));
        assert_eq!(text(&a).lines().count(), 10);
        assert_eq!(text(&b).lines().count(), 10);
    }

    #[test]
    fn await_idle_waits_for_outstanding_then_returns_clean() {
        let registry: ConnRegistry<Vec<u8>> = ConnRegistry::new();
        let conn = registry.register(Vec::new());
        conn.begin();
        conn.begin();
        std::thread::scope(|scope| {
            let waiter = {
                let conn = Arc::clone(&conn);
                scope.spawn(move || conn.await_idle())
            };
            conn.send("one");
            conn.finish();
            conn.send("two");
            conn.finish();
            assert!(waiter.join().unwrap(), "clean idle, not dead");
        });
    }

    #[test]
    fn mark_dead_discards_the_outbox_and_unblocks_idle_waiters() {
        let registry: ConnRegistry<Vec<u8>> = ConnRegistry::new();
        let conn = registry.register(Vec::new());
        conn.begin();
        conn.send("never-written");
        std::thread::scope(|scope| {
            let pump = {
                let conn = Arc::clone(&conn);
                scope.spawn(move || conn.pump())
            };
            let waiter = {
                let conn = Arc::clone(&conn);
                scope.spawn(move || conn.await_idle())
            };
            conn.mark_dead();
            pump.join().unwrap();
            assert!(!waiter.join().unwrap(), "death reports unclean");
        });
        // The line may or may not have been pumped before death; dead
        // connections at least never accept more.
        assert!(!conn.send("after-death"));
        assert!(conn.is_dead());
        assert!(!registry.is_alive(conn.id()));
    }

    #[test]
    fn pump_write_error_marks_the_connection_dead() {
        /// A writer that fails after the first line.
        struct Flaky {
            wrote: usize,
        }
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.wrote > 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::BrokenPipe,
                        "peer reset",
                    ));
                }
                self.wrote += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let registry: ConnRegistry<Flaky> = ConnRegistry::new();
        let conn = registry.register(Flaky { wrote: 0 });
        conn.send("first");
        conn.send("second");
        std::thread::scope(|scope| {
            let conn = Arc::clone(&conn);
            scope.spawn(move || conn.pump());
        });
        assert!(conn.is_dead(), "a write error is an abrupt disconnect");
        assert!(!registry.is_alive(conn.id()));
    }

    #[test]
    fn registry_lifecycle_and_local_conn() {
        let registry: ConnRegistry<Vec<u8>> = ConnRegistry::new();
        assert!(registry.is_alive(LOCAL_CONN), "stdin is always alive");
        assert!(!registry.is_alive(7), "unknown ids are not");
        assert_eq!(registry.active(), 0);
        let conn = registry.register(Vec::new());
        assert_eq!(registry.active(), 1);
        assert!(registry.is_alive(conn.id()));
        let removed = registry.deregister(conn.id()).unwrap();
        assert_eq!(removed.id(), conn.id());
        assert_eq!(registry.active(), 0);
        assert!(!registry.is_alive(conn.id()));
        assert!(registry.deregister(conn.id()).is_none());
    }
}
