//! `serve_fleet`: a micro CNN (3×4×4 input, conv3×3 3→8, conv3×3 8→8,
//! identity residual, global average pool, linear 8→4) on seeded
//! `hermes_256` crossbars, served by a two-seat fleet: one
//! `Platform::local_shard` and one `TcpTransport` to an in-process
//! `ShardServer` over loopback, under the default `FleetPolicy` (round
//! robin, lease 1) and `BatchPolicy::new(8, 1 ms)`.
//!
//! One client thread keeps 32 requests outstanding through
//! `FleetHandle::submit` and `Pending::wait`. The executor costs a few
//! microseconds per image here, so the router, leases, scheduler, both
//! transports, the wire codec and thread hand-offs carry most of the cost.
//! A request's id is its global stream coordinate: with one client and
//! no refusals, the k-th accepted submit is coordinate k.

use crate::report::{peak_rss_mib, Outcome};
use crate::stats::{bit_identical, median, Latencies, TAIL};
use crate::trace::{layers, spanned, Tracer};
use crate::{images, op_count, phase_cap, Cfg, Setups, SETUP_GROUPS};
use aimc_platform::core::ArchConfig;
use aimc_platform::dnn::{
    he_init, AimcExecutor, ConvCfg, Executor, Graph, GraphBuilder, Shape, Tensor,
};
use aimc_platform::serve::{
    BatchPolicy, FleetHandle, FleetPolicy, Pending, Priority, QosClass, ShardTransport,
    TcpTransport,
};
use aimc_platform::wire::{
    decode_frame, encode_frame, Frame, IndexLease, ShardReply, ShardRequest,
};
use aimc_platform::xbar::XbarConfig;
use aimc_platform::{Backend, Parallelism, Platform};
use std::collections::VecDeque;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests the client keeps outstanding.
pub const WINDOW: usize = 32;
/// Requests per second on a 2-vCPU host.
const NOMINAL_REQ_PER_S: f64 = 36_000.0;
/// Fresh deployments timed per run; `setup_s` is their median.
const SETUPS: usize = 31;
const WARMUP: usize = 20_000;
/// Distinct images cycled through.
const POOL: usize = 1024;
/// Every this-many-th stream coordinate is checked against a solo executor.
const CHECK_EVERY: u64 = 64;
/// Requests per untraced or traced slice of the traced pass.
const SLICE: usize = 10_000;
const SHAPE: Shape = Shape::new(3, 4, 4);

const TAG_XBAR: u64 = 3;
const TAG_IMAGES: u64 = 4;

/// The served network.
pub fn micro_cnn() -> Graph {
    let mut b = GraphBuilder::new(SHAPE);
    let c0 = b.conv("c0", b.input(), ConvCfg::k3(3, 8, 1));
    let c1 = b.conv("c1", Some(c0), ConvCfg::k3(8, 8, 1));
    let r = b.residual("r", c1, c0, None);
    let gap = b.global_avgpool("gap", r);
    b.linear("fc", gap, 4);
    b.finish()
}

fn backend(cfg: &Cfg) -> Backend {
    Backend::analog(cfg.derive(TAG_XBAR), XbarConfig::hermes_256())
}

/// The request images.
pub fn pool(cfg: &Cfg) -> Vec<Tensor> {
    images(cfg.derive(TAG_IMAGES), POOL, SHAPE)
}

/// A running fleet and the thread serving its TCP seat.
pub struct Deployment {
    /// The router.
    pub fleet: FleetHandle,
    server: JoinHandle<std::io::Result<()>>,
}

impl Deployment {
    /// Shuts the fleet down (which ends the TCP seat's connection) and
    /// waits for the server thread.
    pub fn shutdown(self) -> Result<(), String> {
        self.fleet.shutdown();
        match self.server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve_fleet shard server: {e}")),
            Err(_) => Err("serve_fleet shard server panicked".into()),
        }
    }
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("serve_fleet {what}: {e}")
}

/// One complete deployment: graph, weights, mapping, both replicas
/// programmed, the server thread spawned, the TCP seat connected and the
/// fleet assembled.
pub fn deploy(cfg: &Cfg, mut tr: Option<&mut Tracer>) -> Result<Deployment, String> {
    let root = tr.as_mut().map(|t| t.open("bench.setup", None, 0));
    let graph = spanned(&mut tr, "dnn.graph", root, micro_cnn);
    let weights = spanned(&mut tr, "dnn.weights", root, || he_init(&graph, cfg.seed));
    let platform = spanned(&mut tr, "core.map", root, || {
        Platform::builder()
            .graph(graph)
            .arch(ArchConfig::small(4, 4))
            .weights(weights)
            .build()
    })
    .map_err(|e| err("build", e))?;
    let policy = BatchPolicy::new(8, Duration::from_millis(1));
    let backend = backend(cfg);
    let local = spanned(&mut tr, "serve.local_shard", root, || {
        platform.local_shard(policy, &backend)
    })
    .map_err(|e| err("local shard", e))?;
    let (server, addr) = spanned(&mut tr, "serve.shard_server", root, || {
        let server = platform
            .shard_server(policy, &backend)
            .map_err(|e| err("shard server", e))?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| err("bind", e))?;
        let addr = listener.local_addr().map_err(|e| err("bind", e))?;
        let thread = std::thread::Builder::new()
            .name("e2ebench-shard-server".into())
            .spawn(move || server.serve_next(&listener))
            .map_err(|e| err("spawn", e))?;
        Ok::<_, String>((thread, addr))
    })?;
    let tcp = spanned(&mut tr, "wire.connect", root, || {
        TcpTransport::connect(addr)
    })
    .map_err(|e| err("connect", e))?;
    let transports: Vec<Box<dyn ShardTransport>> = vec![Box::new(local), Box::new(tcp)];
    let fleet = spanned(&mut tr, "serve.fleet", root, || {
        platform.serve_fleet_with(transports, FleetPolicy::default())
    })
    .map_err(|e| err("fleet", e))?;
    if let (Some(t), Some(r)) = (tr, root) {
        t.close(r);
    }
    Ok(Deployment { fleet, server })
}

/// A request in flight.
struct InFlight {
    index: u64,
    slot: usize,
    t0: Instant,
    pending: Pending,
    /// The request's root span when tracing.
    span: Option<usize>,
}

/// Logits kept for checking: stream coordinate, pool image, logits.
pub type Sample = (u64, usize, Tensor);

/// The closed-loop client.
pub struct Client<'a> {
    fleet: &'a FleetHandle,
    pool: &'a [Tensor],
    next: u64,
    ring: VecDeque<InFlight>,
    check_every: u64,
    /// Kept logits.
    pub samples: Vec<Sample>,
    /// Requests submitted (accepted or refused).
    pub attempted: u64,
    /// Refusals, errors, and (after [`verify`]) mismatches.
    pub failed: u64,
}

impl<'a> Client<'a> {
    /// A client that keeps the logits of every `check_every`-th coordinate
    /// of the first `requests` (room reserved up front).
    pub fn new(
        fleet: &'a FleetHandle,
        pool: &'a [Tensor],
        check_every: u64,
        requests: usize,
    ) -> Self {
        Client {
            fleet,
            pool,
            next: 0,
            ring: VecDeque::with_capacity(WINDOW),
            check_every,
            samples: Vec::with_capacity(requests / check_every as usize + 2),
            attempted: 0,
            failed: 0,
        }
    }

    fn submit(&mut self, tr: &mut Option<&mut Tracer>) {
        let index = self.next;
        let slot = (index % self.pool.len() as u64) as usize;
        let image = self.pool[slot].clone();
        self.attempted += 1;
        let t0 = Instant::now();
        let (result, span) = match tr {
            Some(t) => {
                let req = t.open("bench.request", None, index);
                let s = t.open("serve.submit", Some(req), index);
                let r = self.fleet.submit(image);
                t.close(s);
                if r.is_err() {
                    t.close(req);
                }
                (r, Some(req))
            }
            None => (self.fleet.submit(image), None),
        };
        match result {
            Ok(pending) => {
                self.next += 1;
                self.ring.push_back(InFlight {
                    index,
                    slot,
                    t0,
                    pending,
                    span,
                });
            }
            Err(e) => {
                eprintln!("serve_fleet: submit refused: {e}");
                self.failed += 1;
            }
        }
    }

    fn complete(&mut self, lat: Option<&mut Latencies>, tr: &mut Option<&mut Tracer>) {
        let Some(f) = self.ring.pop_front() else {
            return;
        };
        let result = match (tr, f.span) {
            (Some(t), Some(req)) => {
                let w = t.open("serve.wait", Some(req), f.index);
                let r = f.pending.wait();
                t.close(w);
                t.close(req);
                r
            }
            _ => f.pending.wait(),
        };
        let dt = f.t0.elapsed();
        match result {
            Ok(logits) => {
                if let Some(l) = lat {
                    l.push(dt);
                }
                if f.index % self.check_every == 0 {
                    self.samples.push((f.index, f.slot, logits));
                }
            }
            Err(e) => {
                eprintln!("serve_fleet: request {} failed: {e}", f.index);
                self.failed += 1;
            }
        }
    }

    /// Submits `n` requests (fewer if `until` passes first), keeping
    /// [`WINDOW`] outstanding, then drains.
    pub fn run(
        &mut self,
        n: usize,
        until: Option<Instant>,
        mut lat: Option<&mut Latencies>,
        mut tr: Option<&mut Tracer>,
    ) {
        for i in 0..n {
            if i % 1024 == 1023 && until.is_some_and(|t| Instant::now() > t) {
                break;
            }
            if self.ring.len() == WINDOW {
                self.complete(lat.as_deref_mut(), &mut tr);
            }
            self.submit(&mut tr);
        }
        while !self.ring.is_empty() {
            self.complete(lat.as_deref_mut(), &mut tr);
        }
    }
}

/// A solo executor with the fleet's seeds.
pub fn reference(cfg: &Cfg) -> Result<AimcExecutor, String> {
    let graph = Arc::new(micro_cnn());
    let weights = Arc::new(he_init(&graph, cfg.seed));
    AimcExecutor::try_program_shared_with(
        graph,
        weights,
        &XbarConfig::hermes_256(),
        cfg.derive(TAG_XBAR),
        Parallelism::Serial,
    )
    .map_err(|e| format!("serve_fleet reference: {e}"))
}

/// Checks kept logits against the solo executor at each request's stream
/// coordinate (`try_infer_batch_indexed`); returns mismatches.
pub fn verify(exec: &AimcExecutor, pool: &[Tensor], samples: &[Sample]) -> u64 {
    let mut bad = 0;
    for chunk in samples.chunks(256) {
        let items: Vec<(u64, &Tensor)> = chunk
            .iter()
            .map(|(i, slot, _)| (*i, &pool[*slot]))
            .collect();
        match exec.try_infer_batch_indexed(&items, Parallelism::Threads(2)) {
            Ok(outs) => {
                for ((index, _, got), want) in chunk.iter().zip(&outs) {
                    if !bit_identical(std::slice::from_ref(got), std::slice::from_ref(want)) {
                        eprintln!("serve_fleet: logits at coordinate {index} differ from solo");
                        bad += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("serve_fleet: solo reference failed: {e}");
                bad += chunk.len() as u64;
            }
        }
    }
    bad
}

/// One fresh deployment's set-up time in seconds (the shutdown after it
/// is not timed).
fn fresh(cfg: &Cfg) -> Result<f64, String> {
    let t0 = Instant::now();
    let dep = deploy(cfg, None)?;
    let s = t0.elapsed().as_secs_f64();
    dep.shutdown()?;
    Ok(s)
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let dep = deploy(cfg, None)?;
    let pool = pool(cfg);
    let n = op_count(cfg.seconds, NOMINAL_REQ_PER_S, TAIL.min_samples());
    let mut client = Client::new(&dep.fleet, &pool, CHECK_EVERY, WARMUP + n);
    client.run(WARMUP, None, None, None);
    let mut setups = Setups::new(SETUPS);
    let mut lat = Latencies::with_capacity(n);
    let t0 = Instant::now();
    // The timed phase in SETUP_GROUPS slices with a set-up group before
    // each; the fleet drains at each slice's end.
    let slice = n.div_ceil(SETUP_GROUPS);
    let mut done = 0;
    while done < n && t0.elapsed() - setups.paused() <= phase_cap(cfg.seconds) {
        setups.group(|| fresh(cfg))?;
        let until = t0 + setups.paused() + phase_cap(cfg.seconds);
        let k = slice.min(n - done);
        client.run(k, Some(until), Some(&mut lat), None);
        done += k;
    }
    let wall = (t0.elapsed() - setups.paused()).as_secs_f64();
    let setup_s = setups.finish(|| fresh(cfg))?;
    let rss = peak_rss_mib();
    let (attempted, failed, samples) = (client.attempted, client.failed, client.samples);
    dep.shutdown()?;
    let mismatches = verify(&reference(cfg)?, &pool, &samples);

    let mut out = Outcome {
        attempted,
        failed: failed + mismatches,
        ..Outcome::default()
    };
    out.end_to_end(setup_s, &lat, 1, wall, rss);
    Ok(out)
}

/// `encode_frame` + `decode_frame` of one request and one reply frame, in
/// µs per request, and the bytes a request moves through the TCP seat
/// (lease 1: a lease frame, the request and the reply, each
/// length-prefixed). Errors if a frame does not survive the round trip.
fn codec(image: &Tensor, logits: &Tensor) -> Result<(f64, f64), String> {
    const ROUNDS: u32 = 20_000;
    let frames = [
        Frame::Request(ShardRequest {
            global_index: 1 << 20,
            class: QosClass::default(),
            image: image.clone(),
        }),
        Frame::Reply(ShardReply {
            global_index: 1 << 20,
            marked: false,
            outcome: Ok(logits.clone()),
        }),
    ];
    for f in &frames {
        let back = decode_frame(&encode_frame(f)).map_err(|e| format!("decode: {e}"))?;
        if back != *f {
            return Err("a frame changed across encode/decode".into());
        }
    }
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for f in &frames {
            let bytes = encode_frame(std::hint::black_box(f));
            std::hint::black_box(decode_frame(&bytes).map_err(|e| format!("decode: {e}"))?);
        }
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS);
    let lease = Frame::Lease(IndexLease::new(1 << 20, 1));
    let bytes: usize = [&lease, &frames[0], &frames[1]]
        .iter()
        .map(|f| 4 + encode_frame(f).len())
        .sum();
    Ok((us, bytes as f64))
}

/// The traced pass: spans around submit and wait, the fleet's own
/// statistics, the codec and the executor's share.
pub fn traced(cfg: &Cfg, epoch: Instant) -> Result<(Outcome, Tracer), String> {
    let half = op_count(cfg.seconds / 2.0, NOMINAL_REQ_PER_S, SLICE);
    let mut tr = Tracer::new(epoch, 3 * half + 64);
    let mut dep: Option<Deployment> = None;
    for _ in 0..3 {
        if let Some(d) = dep.take() {
            d.shutdown()?;
        }
        dep = Some(deploy(cfg, Some(&mut tr))?);
    }
    let dep = dep.expect("deployed");
    let pool = pool(cfg);
    let mut client = Client::new(&dep.fleet, &pool, CHECK_EVERY, WARMUP / 2 + 2 * half);
    client.run(WARMUP / 2, None, None, None);

    // Untraced and traced slices alternate, so both see the same host.
    let (mut plain, mut traced, mut done) = (Duration::ZERO, Duration::ZERO, 0);
    while done < half {
        let n = SLICE.min(half - done);
        let t0 = Instant::now();
        client.run(n, None, None, None);
        plain += t0.elapsed();
        let t0 = Instant::now();
        client.run(n, None, None, Some(&mut tr));
        traced += t0.elapsed();
        done += n;
    }
    // Read once, after the timed phase: it clones the sample vectors.
    let stats = dep.fleet.stats();
    let (attempted, failed, samples) = (client.attempted, client.failed, client.samples);
    dep.shutdown()?;
    let exec = reference(cfg)?;
    let mismatches = verify(&exec, &pool, &samples);

    // The executor's share: 8-image batches, as the seats dispatch them.
    let mut batch_us = Vec::with_capacity(500);
    for round in 0..500u64 {
        let items: Vec<(u64, &Tensor)> = (0..8u64)
            .map(|i| (round * 8 + i, &pool[(round * 8 + i) as usize % POOL]))
            .collect();
        let t0 = Instant::now();
        let r = Executor::infer_batch_indexed(&exec, &items, Parallelism::Serial);
        batch_us.push(t0.elapsed().as_secs_f64() * 1e6);
        r.map_err(|e| format!("serve_fleet micro infer: {e}"))?;
    }
    let logits = samples
        .first()
        .map(|s| s.2.clone())
        .ok_or("no request completed")?;
    let (codec_us, bytes) = codec(&pool[0], &logits)?;

    let mut out = Outcome {
        attempted,
        failed: failed + mismatches,
        ..Outcome::default()
    };
    let l = layers(tr.spans());
    let us = |name: &str| l.get(name).map_or(0.0, |l| l.p50_ns / 1e3);
    let agg = stats.aggregate();
    let ms = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e3);
    let seat_p50 = |i: usize| {
        ms(stats
            .shards
            .get(i)
            .and_then(|s| s.qos.class(Priority::Normal).latency_percentile(0.5)))
    };
    out.check(stats.shards.len() == 2 && agg.completed > 0, || {
        format!(
            "fleet stats show {} seats, {} completed",
            stats.shards.len(),
            agg.completed
        )
    });
    out.metric_note(
        "serve.submit_us_p50",
        us("serve.submit"),
        "us",
        "FleetHandle::submit span",
    );
    out.metric_note(
        "serve.wait_us_p50",
        us("serve.wait"),
        "us",
        "Pending::wait span",
    );
    out.metric_note(
        "serve.queue_wait_ms_p50",
        ms(agg.queue_wait_percentile(0.5)),
        "ms",
        "FleetStats::aggregate",
    );
    out.metric_note(
        "serve.queue_wait_ms_p99",
        ms(agg.queue_wait_percentile(0.99)),
        "ms",
        "FleetStats::aggregate",
    );
    out.metric_note(
        "serve.local.shard_latency_ms_p50",
        seat_p50(0),
        "ms",
        "local seat, qos class latencies",
    );
    out.metric_note(
        "serve.tcp.shard_latency_ms_p50",
        seat_p50(1),
        "ms",
        "TCP seat, qos class latencies",
    );
    out.metric_note(
        "serve.mean_batch",
        agg.mean_batch(),
        "images",
        "FleetStats::aggregate",
    );
    out.metric_note(
        "wire.codec_us_per_request",
        codec_us,
        "us",
        "encode + decode of a request and a reply frame",
    );
    out.metric_note(
        "wire.bytes_per_request",
        bytes,
        "bytes",
        "lease + request + reply frames, length-prefixed",
    );
    out.metric_note(
        "dnn.micro_infer_us_per_image",
        median(&batch_us) / 8.0,
        "us",
        "Executor::infer_batch_indexed on 8-image batches, Serial",
    );
    out.metric_note(
        "trace.overhead_pct.serve_fleet",
        (traced.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0,
        "%",
        format!("{half} traced against {half} untraced requests, interleaved"),
    );
    Ok((out, tr))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny fleet run: every coordinate is checked, all match the solo
    /// executor, and the same logits checked at shifted coordinates all
    /// fail — so the check really keys on the stream index.
    #[test]
    fn served_logits_match_solo_at_their_stream_index() {
        let cfg = Cfg {
            seed: 11,
            seconds: 1.0,
        };
        let dep = deploy(&cfg, None).unwrap();
        let pool = pool(&cfg);
        let mut client = Client::new(&dep.fleet, &pool, 1, 300);
        let mut lat = Latencies::with_capacity(300);
        client.run(300, None, Some(&mut lat), None);
        let stats = dep.fleet.stats();
        let mut samples = client.samples;
        assert_eq!((client.attempted, client.failed), (300, 0));
        assert_eq!(lat.sorted_ms().len(), 300);
        dep.shutdown().unwrap();
        // Both seats served: the TCP seat is on the checked path.
        assert!(stats.shards.iter().all(|s| s.completed > 0));

        let exec = reference(&cfg).unwrap();
        assert_eq!(samples.len(), 300);
        assert!(samples.iter().enumerate().all(|(k, s)| s.0 == k as u64));
        assert_eq!(verify(&exec, &pool, &samples), 0);
        for s in &mut samples {
            s.0 += 1;
        }
        assert_eq!(verify(&exec, &pool, &samples), 300);
    }

    #[test]
    fn codec_round_trips_and_counts_bytes() {
        let pool = pool(&Cfg {
            seed: 1,
            seconds: 1.0,
        });
        let logits = Tensor::zeros(Shape::new(4, 1, 1));
        let (us, bytes) = codec(&pool[0], &logits).unwrap();
        assert!(us > 0.0);
        // The image (48 f32) and the logits (4 f32) dominate the frames.
        assert!(bytes > (4 * (48 + 4)) as f64 && bytes < 1024.0, "{bytes}");
    }
}
