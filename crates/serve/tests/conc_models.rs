//! Model-check suite for the real `Admission` queue — the type serving
//! production traffic in `crates/serve/src/stream.rs`, not a copy.
//!
//! Compiled (and run) only under the model facade:
//!
//! ```text
//! RUSTFLAGS="--cfg mbb_conc" cargo test -p mbb-serve --test conc_models
//! ```
//!
//! In a normal build this file compiles to an empty test binary, so
//! tier-1 `cargo test` is unaffected.
//!
//! Schedule-determinism notes (the model contract): every `Instant` fed
//! to a job is fixed before `explore` starts, must-shed deadlines are
//! far in the past and must-run deadlines far in the future, so no
//! wall-clock read inside the model ever changes a branch. Event sinks
//! use a plain `std` mutex — invisible to the scheduler, which is safe
//! because no model operation happens while it is held.
#![cfg(mbb_conc)]

use std::sync::{Arc, Mutex as StdMutex};
use std::time::{Duration, Instant};

use mbb_conc::model::{explore, ExploreConfig, Strategy};
use mbb_conc::thread;
use mbb_serve::mux::ConnRegistry;
use mbb_serve::stream::{worker_loop, Admission, Completion, StreamConfig, StreamEvent, StreamJob};
use mbb_serve::{QueryKind, QueryRequest};

use mbb_core::engine::MbbEngine;

fn tiny_engine() -> Arc<MbbEngine> {
    Arc::new(MbbEngine::new(mbb_bigraph::generators::uniform_edges(
        4, 4, 8, 1,
    )))
}

/// Sampling config for models whose trace length puts full enumeration
/// out of reach (every lock/unlock/wait/notify inside the real queue is
/// a scheduling choice point). 1500 seeded-random schedules; the caller
/// asserts ≥1000 came out distinct, so each run still certifies the
/// invariants across a broad slice of the interleaving space — and any
/// failing schedule is reproducible from the fixed seed.
fn sampled(seed: u64) -> ExploreConfig {
    ExploreConfig {
        max_schedules: 1500,
        max_steps: 20_000,
        strategy: Strategy::Random { seed },
        max_threads: 16,
    }
}

#[track_caller]
fn assert_broad(report: &mbb_conc::model::ExploreReport) {
    assert!(
        report.distinct_schedules >= 1000,
        "want >=1000 distinct schedules, got {} of {}",
        report.distinct_schedules,
        report.schedules
    );
}

fn job(
    id: u64,
    shard: usize,
    engine: &Arc<MbbEngine>,
    deadline: Option<Instant>,
    base: Instant,
) -> StreamJob {
    StreamJob::synthetic(
        QueryRequest::new(id, QueryKind::Solve),
        shard,
        format!("s{shard}"),
        Arc::clone(engine),
        deadline,
        base,
    )
}

/// The headline invariants: one producer, one real `worker_loop`
/// worker. In **every explored** schedule: no deadlock, the
/// expired-deadline job is shed and never produces a `Response`, live
/// jobs all complete, and the counters reconcile exactly.
#[test]
fn sheds_never_execute_and_queue_settles() {
    let engine = tiny_engine();
    let base = Instant::now();
    let past = base; // <= any later Instant::now() → must shed
    let future = base + Duration::from_secs(3600); // never expires in-test
    let report = explore(sampled(0x73_68_65_64), move || {
        let admission = Arc::new(Admission::new(1, &StreamConfig::default()));
        let responses = Arc::new(StdMutex::new(Vec::<u64>::new()));
        let sheds = Arc::new(StdMutex::new(Vec::<u64>::new()));

        let worker = {
            let admission = Arc::clone(&admission);
            let responses = Arc::clone(&responses);
            let sheds = Arc::clone(&sheds);
            thread::spawn(move || {
                // No model ops run inside this sink (std mutex only), so
                // holding it never interleaves with scheduler state.
                let sink = |_conn: u64, event: StreamEvent| match event {
                    StreamEvent::Response(r) => responses.lock().unwrap().push(r.id),
                    StreamEvent::Shed { id, .. } => sheds.lock().unwrap().push(id),
                    _ => {}
                };
                let alive = |_conn: u64| true;
                worker_loop(&admission, &sink, &alive);
            })
        };
        let producer = {
            let admission = Arc::clone(&admission);
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                admission.push(job(1, 0, &engine, Some(future), base));
                admission.push(job(2, 0, &engine, Some(past), base));
                admission.push(job(3, 0, &engine, None, base));
                admission.close();
            })
        };
        producer.join().unwrap();
        worker.join().unwrap();

        let responses = responses.lock().unwrap().clone();
        let sheds = sheds.lock().unwrap().clone();
        assert_eq!(sheds, vec![2], "exactly the expired job is shed");
        assert!(
            !responses.contains(&2),
            "a shed request must never produce a response"
        );
        let mut served = responses.clone();
        served.sort_unstable();
        assert_eq!(served, vec![1, 3], "both live jobs complete");

        let snap = admission.queue_snapshot();
        assert_eq!(snap.admitted, 3);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.depth, 0, "queue drained in every schedule");
        assert_eq!(snap.in_flight, 0);
    });
    assert_broad(&report);
}

/// EDF pop order across two concurrent producers: whatever interleaving
/// admitted them, once both producers have joined, pops come out in
/// deadline order with `None` deadlines last (FIFO among themselves is
/// covered by the tier-1 unit tests; across producers the seq order is
/// schedule-dependent, so only the deadline ordering is asserted here).
#[test]
fn edf_pop_order_holds_in_every_schedule() {
    let engine = tiny_engine();
    let base = Instant::now();
    let report = explore(sampled(0x65_64_66), move || {
        let admission = Arc::new(Admission::new(1, &StreamConfig::default()));
        let p1 = {
            let admission = Arc::clone(&admission);
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                admission.push(job(
                    1,
                    0,
                    &engine,
                    Some(base + Duration::from_secs(30)),
                    base,
                ));
                admission.push(job(2, 0, &engine, None, base));
            })
        };
        let p2 = {
            let admission = Arc::clone(&admission);
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                admission.push(job(
                    3,
                    0,
                    &engine,
                    Some(base + Duration::from_secs(10)),
                    base,
                ));
                admission.push(job(
                    4,
                    0,
                    &engine,
                    Some(base + Duration::from_secs(20)),
                    base,
                ));
            })
        };
        p1.join().unwrap();
        p2.join().unwrap();

        let mut popped = Vec::new();
        for _ in 0..4 {
            let job = admission.pop().expect("4 jobs queued");
            popped.push((job.deadline(), job.id()));
            admission.finish(Completion::Untracked);
        }
        // Deadlines first, soonest first, None strictly last.
        let deadline_ids: Vec<u64> = popped
            .iter()
            .filter(|(d, _)| d.is_some())
            .map(|&(_, id)| id)
            .collect();
        assert_eq!(
            deadline_ids,
            vec![3, 4, 1],
            "EDF order violated: {popped:?}"
        );
        assert_eq!(popped.last().map(|&(_, id)| id), Some(2), "None runs last");
    });
    assert_broad(&report);
}

/// Backpressure: with `queue_depth = 1` the producer must block rather
/// than overfill — in no schedule does the depth high-water mark exceed
/// the bound, and nothing is lost.
#[test]
fn bounded_depth_survives_every_schedule() {
    let engine = tiny_engine();
    let base = Instant::now();
    let report = explore(sampled(0x64_65_70), move || {
        let config = StreamConfig {
            queue_depth: 1,
            ..StreamConfig::default()
        };
        let admission = Arc::new(Admission::new(1, &config));
        let producer = {
            let admission = Arc::clone(&admission);
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                for id in 1..=3 {
                    admission.push(job(id, 0, &engine, None, base));
                }
                admission.close();
            })
        };
        let consumer = {
            let admission = Arc::clone(&admission);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(job) = admission.pop() {
                    got.push(job.id());
                    admission.finish(Completion::Untracked);
                }
                got
            })
        };
        producer.join().unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(got, vec![1, 2, 3], "deadline-free pushes drain FIFO");
        let snap = admission.queue_snapshot();
        assert_eq!(snap.admitted, 3);
        assert!(
            snap.max_depth <= 1,
            "depth bound violated: {}",
            snap.max_depth
        );
        assert_eq!(snap.depth, 0);
        assert_eq!(snap.in_flight, 0);
    });
    assert_broad(&report);
}

/// Drain blocks until queued **and in-flight** work retires, under every
/// interleaving of a consumer that pops before the drain is issued.
#[test]
fn drain_waits_for_in_flight_work() {
    let engine = tiny_engine();
    let base = Instant::now();
    let report = explore(sampled(0x64_72_6e), move || {
        let admission = Arc::new(Admission::new(1, &StreamConfig::default()));
        admission.push(job(1, 0, &engine, None, base));
        admission.push(job(2, 0, &engine, None, base));
        let consumer = {
            let admission = Arc::clone(&admission);
            thread::spawn(move || {
                for _ in 0..2 {
                    let job = admission.pop().expect("two jobs queued");
                    admission.finish(Completion::Executed {
                        shard: job.shard(),
                        search_nodes: 0,
                        orders_reused: 0,
                        queue_wait: Duration::ZERO,
                        service: Duration::ZERO,
                    });
                }
            })
        };
        let drainer = {
            let admission = Arc::clone(&admission);
            thread::spawn(move || admission.drain())
        };
        consumer.join().unwrap();
        let completed_at_drain = drainer.join().unwrap();
        assert_eq!(
            completed_at_drain, 2,
            "drain returned before the in-flight work retired"
        );
        let snap = admission.queue_snapshot();
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.in_flight, 0);
    });
    assert_broad(&report);
}

/// Bounded-exhaustive DFS over the real queue: a single push racing a
/// single pop-until-closed consumer. Even this minimal trace is too
/// long to enumerate fully (every internal lock/unlock/wait/notify is a
/// choice point), so the DFS runs to its 100k-schedule budget — a
/// *systematic* subtree of the interleaving space, each schedule
/// distinct by construction, complementing the random sampling above.
#[test]
fn single_job_handoff_survives_bounded_dfs() {
    let engine = tiny_engine();
    let base = Instant::now();
    let report = explore(ExploreConfig::exhaustive(), move || {
        let admission = Arc::new(Admission::new(1, &StreamConfig::default()));
        let producer = {
            let admission = Arc::clone(&admission);
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                admission.push(job(1, 0, &engine, None, base));
                admission.close();
            })
        };
        let consumer = {
            let admission = Arc::clone(&admission);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(job) = admission.pop() {
                    got.push(job.id());
                    admission.finish(Completion::Untracked);
                }
                got
            })
        };
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), vec![1]);
        let snap = admission.queue_snapshot();
        assert_eq!(snap.admitted, 1);
        assert_eq!((snap.depth, snap.in_flight), (0, 0));
    });
    assert!(
        report.distinct_schedules >= 1000,
        "DFS sweep too shallow: {} schedules",
        report.distinct_schedules
    );
}

/// The response mux (socket front-end): two connections, each with a
/// producer delivering its own responses through the shared registry
/// while per-connection pumps write them out. In every schedule: no
/// line is lost, no line crosses to the other connection's writer, and
/// per-connection order is preserved.
#[test]
fn mux_loses_nothing_and_never_cross_delivers() {
    let report = explore(sampled(0x6d_75_78), || {
        let registry: Arc<ConnRegistry<Vec<u8>>> = Arc::new(ConnRegistry::new());
        let a = registry.register(Vec::new());
        let b = registry.register(Vec::new());
        let pumps: Vec<_> = [Arc::clone(&a), Arc::clone(&b)]
            .into_iter()
            .map(|conn| thread::spawn(move || conn.pump()))
            .collect();
        let producers: Vec<_> = [Arc::clone(&a), Arc::clone(&b)]
            .into_iter()
            .map(|conn| {
                let registry = Arc::clone(&registry);
                thread::spawn(move || {
                    for n in 1..=2u32 {
                        conn.begin();
                        // Deliver through the registry, exactly as the
                        // worker sink does.
                        let target = registry.get(conn.id()).expect("registered");
                        assert!(target.send(&format!("c{}-{}", conn.id(), n)));
                        target.finish();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        for conn in [&a, &b] {
            assert!(conn.await_idle(), "no disconnect in this model");
            conn.close();
        }
        for p in pumps {
            p.join().unwrap();
        }
        for conn in [&a, &b] {
            let id = conn.id();
            let written = conn.inspect_writer(|w| String::from_utf8(w.clone()).unwrap());
            assert_eq!(
                written,
                format!("c{id}-1\nc{id}-2\n"),
                "connection {id} must see exactly its own lines, in order"
            );
            registry.deregister(id);
        }
        assert_eq!(registry.active(), 0);
    });
    assert_broad(&report);
}

/// Disconnect racing delivery: one thread sends a connection's response
/// while another marks it dead (the pump hit a broken pipe). In every
/// interleaving the system settles — `await_idle` never hangs, the
/// pump exits, and a dead connection's outbox is empty — whichever side
/// won the race.
#[test]
fn mux_disconnect_during_send_always_settles() {
    let report = explore(sampled(0x64_65_61_64), || {
        let registry: Arc<ConnRegistry<Vec<u8>>> = Arc::new(ConnRegistry::new());
        let conn = registry.register(Vec::new());
        conn.begin();
        let pump = {
            let conn = Arc::clone(&conn);
            thread::spawn(move || conn.pump())
        };
        let sender = {
            let conn = Arc::clone(&conn);
            thread::spawn(move || {
                let delivered = conn.send("r1");
                conn.finish();
                delivered
            })
        };
        let killer = {
            let conn = Arc::clone(&conn);
            thread::spawn(move || conn.mark_dead())
        };
        let delivered = sender.join().unwrap();
        killer.join().unwrap();
        // mark_dead ran, so the wait always resolves (possibly false).
        let clean = conn.await_idle();
        assert!(!clean, "a dead connection must report the disconnect");
        conn.close();
        pump.join().unwrap();
        assert!(conn.is_dead());
        assert!(!registry.is_alive(conn.id()), "dead conns are not alive");
        let written = conn.inspect_writer(|w| String::from_utf8(w.clone()).unwrap());
        if !delivered {
            assert!(
                written.is_empty(),
                "a refused send must never reach the wire: {written:?}"
            );
        }
        // Delivered lines may or may not have been flushed before the
        // death mark cleared the outbox — both are valid; what is never
        // valid is a duplicated or corrupted line.
        assert!(written == "r1\n" || written.is_empty(), "{written:?}");
    });
    assert_broad(&report);
}

/// Disconnect racing the worker's pop: a consumer drains the real queue
/// while `cancel_conn` concurrently rips out one connection's queued
/// jobs. In every schedule each job retires exactly once — popped or
/// cancelled, never both, never lost — and the queue is empty after.
#[test]
fn cancel_conn_races_pop_without_losing_jobs() {
    let engine = tiny_engine();
    let base = Instant::now();
    let report = explore(sampled(0x63_61_6e), move || {
        let admission = Arc::new(Admission::new(1, &StreamConfig::default()));
        admission.push(job(1, 0, &engine, None, base).with_conn(7));
        admission.push(job(2, 0, &engine, None, base).with_conn(8));
        admission.push(job(3, 0, &engine, None, base).with_conn(7));
        admission.close();
        let consumer = {
            let admission = Arc::clone(&admission);
            thread::spawn(move || {
                let mut popped = Vec::new();
                while let Some(job) = admission.pop() {
                    popped.push(job.id());
                    admission.finish(Completion::Untracked);
                }
                popped
            })
        };
        let canceller = {
            let admission = Arc::clone(&admission);
            thread::spawn(move || {
                admission
                    .cancel_conn(7)
                    .into_iter()
                    .map(|job| job.id())
                    .collect::<Vec<u64>>()
            })
        };
        let mut popped = consumer.join().unwrap();
        let cancelled = canceller.join().unwrap();
        assert!(
            !popped.contains(&2) || !cancelled.contains(&2),
            "job 2 belongs to conn 8 and can never be cancelled"
        );
        let mut retired = popped.clone();
        retired.extend(&cancelled);
        retired.sort_unstable();
        assert_eq!(
            retired,
            vec![1, 2, 3],
            "each job retires exactly once (popped {popped:?}, cancelled {cancelled:?})"
        );
        assert!(popped.contains(&2), "conn 8's job always executes");
        popped.sort_unstable();
        let snap = admission.queue_snapshot();
        assert_eq!(snap.depth, 0, "no job left behind");
        assert_eq!(snap.in_flight, 0);
    });
    assert_broad(&report);
}

/// Coverage gate from the acceptance criteria: ≥1000 **distinct**
/// schedules explored over the admission queue. Four model threads push
/// the model past the exhaustive cutoff into seeded-random sampling;
/// distinct traces are counted by the explore report.
#[test]
fn explores_at_least_1000_distinct_schedules() {
    let engine = tiny_engine();
    let base = Instant::now();
    let config = ExploreConfig {
        max_schedules: 1500,
        max_steps: 20_000,
        strategy: Strategy::Random { seed: 0x6d6262 },
        max_threads: 16,
    };
    let report = explore(config, move || {
        let admission = Arc::new(Admission::new(2, &StreamConfig::default()));
        let producers: Vec<_> = (0..2)
            .map(|shard| {
                let admission = Arc::clone(&admission);
                let engine = Arc::clone(&engine);
                thread::spawn(move || {
                    let id = shard as u64 * 10;
                    admission.push(job(id + 1, shard, &engine, None, base));
                    admission.push(job(
                        id + 2,
                        shard,
                        &engine,
                        Some(base + Duration::from_secs(5 + id)),
                        base,
                    ));
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let admission = Arc::clone(&admission);
                thread::spawn(move || {
                    let mut n = 0u32;
                    while let Some(_job) = admission.pop() {
                        admission.finish(Completion::Untracked);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        admission.close();
        let drained: u32 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(drained, 4, "every admitted job pops exactly once");
        let snap = admission.queue_snapshot();
        assert_eq!(snap.admitted, 4);
        assert_eq!(snap.depth, 0);
    });
    assert!(
        report.distinct_schedules >= 1000,
        "acceptance requires >=1000 distinct schedules, got {}",
        report.distinct_schedules
    );
}

/// The `ServeStats` conservation law, observed **mid-race**: while a
/// worker executes jobs and a canceller rips out one connection's
/// queued work, an observer repeatedly snapshots the counters. Every
/// snapshot is taken under the state lock, so in every schedule and at
/// every observation point the balance must hold exactly:
/// `admitted == completed + shed + disconnected + depth + in_flight`
/// (`rejected` is pre-admission and stays out of the law). This is the
/// invariant the `{"control": "stats"}` / `{"control": "metrics"}`
/// surfaces report from — a transiently unbalanced snapshot would mean
/// the wire can publish books that don't close.
#[test]
fn stats_snapshot_balances_at_every_observation() {
    let engine = tiny_engine();
    let base = Instant::now();
    let past = base;
    let future = base + Duration::from_secs(3600);
    let report = explore(sampled(0x62_61_6c), move || {
        let admission = Arc::new(Admission::new(1, &StreamConfig::default()));
        let worker = {
            let admission = Arc::clone(&admission);
            thread::spawn(move || {
                let sink = |_conn: u64, _event: StreamEvent| {};
                let alive = |_conn: u64| true;
                worker_loop(&admission, &sink, &alive);
            })
        };
        let producer = {
            let admission = Arc::clone(&admission);
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                admission.push(job(1, 0, &engine, Some(future), base).with_conn(7));
                admission.push(job(2, 0, &engine, Some(past), base));
                admission.push(job(3, 0, &engine, None, base).with_conn(7));
                admission.close();
            })
        };
        let canceller = {
            let admission = Arc::clone(&admission);
            thread::spawn(move || admission.cancel_conn(7).len() as u64)
        };
        let observer = {
            let admission = Arc::clone(&admission);
            thread::spawn(move || {
                for _ in 0..3 {
                    let snap = admission.queue_snapshot();
                    assert!(snap.is_balanced(), "books don't close mid-race: {snap:?}");
                }
            })
        };
        producer.join().unwrap();
        let cancelled = canceller.join().unwrap();
        observer.join().unwrap();
        worker.join().unwrap();

        let snap = admission.queue_snapshot();
        assert!(snap.is_balanced(), "final books don't close: {snap:?}");
        assert_eq!(snap.admitted, 3);
        assert_eq!((snap.depth, snap.in_flight), (0, 0), "fully retired");
        assert_eq!(snap.disconnected, cancelled, "cancellations all counted");
        assert_eq!(snap.rejected, 0, "nothing was rejected pre-admission");
        assert_eq!(
            snap.completed + snap.shed + snap.disconnected,
            3,
            "every admitted job retired exactly once: {snap:?}"
        );
    });
    assert_broad(&report);
}
