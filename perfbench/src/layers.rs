//! The layered pass of a traced run: the same queries, `m` and shard
//! count driven in-process through each layer of the serve stack in
//! turn, interleaved in short rounds so a slow phase of the host hits
//! every layer alike. Each layer's cost is process CPU time (every
//! thread) per query; a layer's self cost is its cost minus the layer
//! below it in the same round.

use crate::load::{closed_loop, Kind, Tag, DEPTH, MEASURE};
use crate::procfs;
use crate::Metric;
use hint_core::{
    Domain, HintMSubs, Interval, IntervalId, RangeQuery, RetunePolicy, Session, ShardedIndex,
    SubsConfig,
};
use serve::{duplex, Client, Request, ServeConfig, Server, Status, Transport};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The layers, bottom up.
const LAYERS: [&str; 6] = ["walk", "shard", "pool", "session", "duplex", "tcp"];
/// Rounds of the layered pass: at least `MIN_ROUNDS`, then more until
/// the time budget is spent, at most `MAX_ROUNDS`.
const MIN_ROUNDS: usize = 5;
const MAX_ROUNDS: usize = 31;
/// Writes applied to the in-process session before each timed seal.
const WRITES_PER_SEAL: usize = 500;
/// Timed seals.
const SEALS: usize = 3;

/// What the layered pass needs from the run.
pub struct Inputs<'a> {
    pub data: &'a [Interval],
    pub domain: u64,
    /// The unsharded index's `m`.
    pub m: u32,
    /// The served index, sealed; the pass clones it.
    pub sharded: &'a ShardedIndex<HintMSubs>,
    pub queries: &'a [RangeQuery],
    /// Queries per round.
    pub chunk: usize,
    /// Batch size for the pool and session layers: the served mean batch.
    pub batch: usize,
    pub budget: Duration,
}

/// A served client thread of the pass: runs each range of query
/// indices it is sent in a closed loop and answers with the results
/// it received.
fn served_worker<T: Transport>(
    mut client: Client<T>,
    queries: &[RangeQuery],
    jobs: mpsc::Receiver<Range<usize>>,
    done: mpsc::Sender<u64>,
) {
    let untraced = AtomicBool::new(false);
    for job in jobs {
        let mut it = job.clone();
        let mut results = 0u64;
        closed_loop(
            &mut client,
            DEPTH,
            &untraced,
            || {
                it.next().map(|i| {
                    (
                        Request::Query(queries[i]),
                        Tag {
                            kind: Kind::Range(i as u32),
                            phase: MEASURE,
                        },
                    )
                })
            },
            |d| {
                assert_eq!(d.reply.status, Status::Ok, "layered pass read failed");
                results += d.reply.count;
            },
        )
        .expect("layered pass connection");
        if done.send(results).is_err() {
            return;
        }
    }
}

/// Runs the pass and returns its per-layer metrics.
pub fn run(inp: &Inputs) -> Vec<Metric> {
    let mut out = Vec::new();
    let t = Instant::now();
    let mut flat = HintMSubs::build_with_domain(
        inp.data,
        Domain::new(0, inp.domain - 1, inp.m),
        SubsConfig::full(),
    );
    out.push(Metric::new(
        "hintm.build_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    ));
    flat.seal();
    let session = Session::with_retune(inp.sharded.clone(), RetunePolicy::Off);
    let mut server = Server::start(
        Session::with_retune(inp.sharded.clone(), RetunePolicy::Off),
        ServeConfig::default(),
    )
    .expect("start the layered server");
    let addr = server
        .listen_tcp(TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .expect("listen");

    let q = inp.queries;
    let mut costs: Vec<[f64; 6]> = Vec::new();
    let pool0 = session.pool().stats();
    let mut pooled_queries = 0u64;
    std::thread::scope(|s| {
        // two duplex and two TCP connections, one thread each
        let mut served: Vec<(mpsc::Sender<Range<usize>>, mpsc::Receiver<u64>)> = Vec::new();
        for c in 0..4 {
            let (job_tx, job_rx) = mpsc::channel();
            let (done_tx, done_rx) = mpsc::channel();
            let name = format!("bench-layer-{c}");
            let spawn = std::thread::Builder::new().name(name);
            if c < 2 {
                let (client_end, server_end) = duplex();
                server.attach(server_end);
                let client = Client::new(client_end).expect("duplex client");
                spawn.spawn_scoped(s, move || served_worker(client, q, job_rx, done_tx))
            } else {
                let stream = TcpStream::connect(addr).expect("connect");
                let client = Client::new(stream).expect("tcp client");
                spawn.spawn_scoped(s, move || served_worker(client, q, job_rx, done_tx))
            }
            .expect("spawn a layered client");
            served.push((job_tx, done_rx));
        }
        let mut ids: Vec<IntervalId> = Vec::new();
        let mut sinks: Vec<Vec<IntervalId>> = vec![Vec::new(); inp.batch];
        let started = Instant::now();
        let mut round = 0;
        while round < MIN_ROUNDS || (round < MAX_ROUNDS && started.elapsed() < inp.budget) {
            let lo = (round * inp.chunk) % (q.len() - inp.chunk + 1);
            let range = lo..(lo + inp.chunk).min(q.len());
            let chunk = &q[range.clone()];
            let mut cost = [0f64; 6];
            let mut totals = [0u64; 6];
            for (l, layer) in LAYERS.iter().enumerate() {
                let cpu0 = procfs::threads_run_ns();
                totals[l] = match *layer {
                    "walk" | "shard" => chunk
                        .iter()
                        .map(|&qq| {
                            ids.clear();
                            if l == 0 {
                                flat.query_sink(qq, &mut ids);
                            } else {
                                inp.sharded.query_sink(qq, &mut ids);
                            }
                            black_box(&ids).len() as u64
                        })
                        .sum(),
                    "pool" | "session" => chunk
                        .chunks(inp.batch)
                        .map(|b| {
                            let sinks = &mut sinks[..b.len()];
                            sinks.iter_mut().for_each(Vec::clear);
                            if *layer == "pool" {
                                session.pool().query_batch_merge(b, sinks);
                            } else {
                                session.query_batch_merge(b, sinks);
                            }
                            pooled_queries += b.len() as u64;
                            sinks.iter().map(|v| black_box(v).len() as u64).sum::<u64>()
                        })
                        .sum(),
                    _ => {
                        let conns = if *layer == "duplex" {
                            &served[..2]
                        } else {
                            &served[2..]
                        };
                        let mid = range.start + range.len() / 2;
                        conns[0]
                            .0
                            .send(range.start..mid)
                            .expect("layered client alive");
                        conns[1]
                            .0
                            .send(mid..range.end)
                            .expect("layered client alive");
                        conns
                            .iter()
                            .map(|c| c.1.recv().expect("layered client alive"))
                            .sum()
                    }
                };
                cost[l] = (procfs::threads_run_ns() - cpu0) as f64 / 1e3 / chunk.len() as f64;
            }
            assert!(
                totals.iter().all(|&t| t == totals[0]),
                "layers disagree on the results of one round: {totals:?}"
            );
            costs.push(cost);
            round += 1;
        }
        drop(served); // closes the job channels: the client threads end
    });
    let pool1 = session.pool().stats();
    server.shutdown();

    let median_of = |f: &dyn Fn(&[f64; 6]) -> f64| median(costs.iter().map(f).collect());
    out.push(Metric::new("hintm.walk_us", median_of(&|c| c[0]), "us"));
    for (l, name) in [
        "shard.self_us",
        "pool.self_us",
        "session.self_us",
        "serve.self_us",
        "transport.self_us",
    ]
    .iter()
    .enumerate()
    {
        out.push(Metric::new(name, median_of(&|c| c[l + 1] - c[l]), "us"));
    }
    println!(
        "layered pass: {} rounds of {} queries, batch {}",
        costs.len(),
        inp.chunk,
        inp.batch
    );
    let batches = (pool1.batches - pool0.batches).max(1) as f64;
    out.push(Metric::new(
        "pool.dispatched_per_batch",
        (pool1.dispatched - pool0.dispatched) as f64 / batches,
        "count",
    ));
    out.push(Metric::new(
        "shard.fanout",
        (pool1.routed - pool0.routed) as f64 / pooled_queries.max(1) as f64,
        "count",
    ));
    out.push(Metric::new(
        "shard.replicated",
        inp.sharded.replicated() as f64,
        "count",
    ));
    out.extend(writes(session, inp));
    out
}

/// Times inserts, deletes and `seal_if_dirty` on the in-process session:
/// [`SEALS`] times, half the writes insert fresh intervals and half
/// delete them again, then a seal.
fn writes(mut session: Session<HintMSubs>, inp: &Inputs) -> Vec<Metric> {
    let mut insert_ns = Vec::new();
    let mut delete_ns = Vec::new();
    let mut seal_ns = Vec::new();
    let mut next_id = 1u64 << 56;
    for r in 0..SEALS {
        let fresh: Vec<Interval> = (0..WRITES_PER_SEAL / 2)
            .map(|i| {
                let model = inp.data[(r * WRITES_PER_SEAL + i * 7919) % inp.data.len()];
                next_id += 1;
                Interval::new(next_id, model.st, model.end)
            })
            .collect();
        for s in &fresh {
            let t = Instant::now();
            session.try_insert(*s).expect("in-domain insert");
            insert_ns.push(t.elapsed().as_nanos() as f64);
        }
        for s in &fresh {
            let t = Instant::now();
            assert!(session.delete(s), "delete of a fresh insert");
            delete_ns.push(t.elapsed().as_nanos() as f64);
        }
        let t = Instant::now();
        session.seal_if_dirty();
        seal_ns.push(t.elapsed().as_nanos() as f64);
    }
    vec![
        Metric::new("session.insert_us", median(insert_ns) / 1e3, "us"),
        Metric::new("session.delete_us", median(delete_ns) / 1e3, "us"),
        Metric::new("session.seal_ms", median(seal_ns) / 1e6, "ms"),
    ]
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
