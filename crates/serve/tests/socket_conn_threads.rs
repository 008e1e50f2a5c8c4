//! A long-running socket server must not keep anything of a connection
//! once it has ended: each connection's reader and writer threads are
//! joined while the server runs, not only at shutdown. An unjoined
//! thread keeps its stack mapped, so the test counts the lines of
//! `/proc/self/maps` (one per mapping) around 64 sequential one-request
//! connections. Linux only, and a test binary of its own, so no other
//! test maps or unmaps memory in the same process meanwhile.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mbb_bigraph::generators;
use mbb_serve::socket::SocketFrontEnd;
use mbb_serve::{ShardedFleet, StreamConfig, StreamServer};

const CONNECTIONS: usize = 64;

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("procfs is mounted")
        .lines()
        .count()
}

/// One connection: a solve request, a half-close, then every response
/// line until the server closes its side.
fn one_request(addr: SocketAddr, id: usize) {
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    writeln!(sock, r#"{{"id": {id}, "graph": "g", "kind": "solve"}}"#).unwrap();
    sock.shutdown(Shutdown::Write).unwrap();
    let lines: Vec<String> = BufReader::new(sock).lines().map(Result::unwrap).collect();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"termination\""), "{lines:?}");
}

#[test]
fn ended_connections_release_their_threads() {
    let mut fleet = ShardedFleet::new();
    fleet
        .add_shard("g", generators::uniform_edges(20, 20, 80, 1))
        .unwrap();
    let bound = SocketFrontEnd::new(StreamServer::new(fleet, StreamConfig::default()))
        .with_tcp("127.0.0.1:0")
        .bind()
        .unwrap();
    let addr = bound.tcp_addr().unwrap();
    let handle = bound.shutdown_handle();
    let server = std::thread::spawn(move || bound.serve());

    // The first connection also starts the worker and fills the caches.
    one_request(addr, 0);
    let before = mappings();
    for id in 1..=CONNECTIONS {
        one_request(addr, id);
    }
    // The server joins a connection's threads on an accept-loop pass
    // after they end, so allow the last few a moment to be reaped.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut grown = mappings().saturating_sub(before);
    while grown >= CONNECTIONS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        grown = mappings().saturating_sub(before);
    }
    handle.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.completed, CONNECTIONS as u64 + 1);
    assert!(
        grown < CONNECTIONS,
        "/proc/self/maps grew by {grown} lines over {CONNECTIONS} ended connections"
    );
}
