//! The remote transport: the `aimc-wire` shard protocol over a byte
//! stream.
//!
//! [`ShardServer`] is the host side — it owns a shard (any
//! [`ShardTransport`], typically a [`LocalTransport`](crate::LocalTransport)
//! whose replica was programmed from the fleet's seed) and serves the
//! protocol: [`ShardServer::serve_forever`] accepts concurrent
//! connections, each with its own protocol loop, so a dropped client can
//! reconnect to a still-programmed replica while other clients keep
//! streaming. [`TcpTransport`] is the router side — it implements
//! [`ShardTransport`] by encoding every operation as wire frames, so the
//! router cannot tell a remote shard from a local one.
//!
//! Both ends are stream-agnostic: a real `TcpStream`, or an in-memory
//! [`aimc_wire::duplex`] pipe in tests — the protocol bytes are identical.
//!
//! ## Flow control and correlation
//!
//! Requests and replies correlate by **global stream index** (unique per
//! request by construction — the router's index allocator never issues an
//! index twice between reprogram rewinds), so replies may arrive
//! interleaved with control replies on one connection. Control commands
//! are strictly one-outstanding-at-a-time (serialized client-side), so
//! control replies need no id at all. Routing blocks stay inside the
//! router: a request frame carries its own index, and nothing else is sent
//! per request.
//!
//! Backpressure is the shard's own bounded queue: when it fills, the
//! server stops reading frames, its `BufReader` fills (at most 8 KiB),
//! then the byte stream fills, and the client's `submit` blocks in
//! `write` — the same push-back a local submitter feels, propagated
//! through the pipe.
//!
//! Socket work per request is kept small:
//!
//! * each frame leaves in one write (prefix and payload together);
//! * both ends read through a `BufReader` set up before the handshake, so
//!   one `read` can yield several frames;
//! * the server's replier waits for its oldest reply, then sends it with
//!   every queued reply that is already complete in one write. The
//!   replies of one write share one pressure sample, taken at write time.
//!
//! ## Link death, reconnect, and go-back-N replay
//!
//! A transport built with [`TcpTransport::connect`] (or
//! [`TcpTransport::with_connector`]) survives link death: every submitted
//! request keeps its [`Flight`] buffered until its reply arrives, so when
//! the connection drops the transport re-dials (bounded
//! attempts with backoff, per [`RetryPolicy`]), announces itself with
//! `Hello { resumed: true }`, and retransmits every unacknowledged
//! request in ascending index order — go-back-N. Each request carries its
//! own index, so the replay order does not affect any logit, and the
//! server needs no routing information to serve it. Replay may re-execute a
//! request whose reply was lost in flight; that is harmless by
//! construction, because noise is keyed by the global coordinate
//! (re-running index `k` yields bit-identical logits) and the client
//! ignores a reply for an index it no longer has pending. Control
//! commands are level-based (drift to an absolute time, reprogram from
//! the seed), so the client resends one that was cut off mid-call.
//!
//! When the retry budget is exhausted the transport closes and parks its
//! unacknowledged flights instead of cancelling them — the fleet router
//! takes those back with [`ShardTransport::take_orphans`] and re-submits
//! each at its original coordinate, so eviction never shifts an index.

use crate::handle::{Flight, Pending, ServeError, ServeStats};
use crate::qos::{Priority, ShardLoad};
use crate::transport::ShardTransport;
use aimc_dnn::{ExecError, Tensor};
use aimc_parallel::Parallelism;
use aimc_wire::{
    append_frame, read_frame, write_frame, Frame, ReplyError, ShardReply, ShardRequest, ShardSpec,
    WireClassStats, WireStats,
};
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- server

/// Channel from the server's decode loop to its replier thread: one
/// `(global_index, completion)` entry per accepted request.
type ReplySender = Sender<(u64, Pending)>;
type ReplyReceiver = Receiver<(u64, Pending)>;

/// Serves one shard over the wire protocol (see the module docs).
///
/// The server is connection-oriented: [`ShardServer::serve_stream`] runs
/// the protocol loop for one client until it disconnects or sends
/// `Shutdown`, and [`ShardServer::serve_forever`] accepts connections
/// concurrently, each on its own session thread. The shard itself
/// outlives connections, so a dropped client can reconnect to a
/// still-programmed replica and replay its unacknowledged requests.
#[derive(Clone)]
pub struct ShardServer {
    shard: Arc<dyn ShardTransport>,
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServer").finish_non_exhaustive()
    }
}

impl ShardServer {
    /// Wraps a shard for serving. The shard's replica should already be
    /// programmed from the fleet's seed (the facade's
    /// `Platform::shard_server` does both).
    pub fn new(shard: Box<dyn ShardTransport>) -> Self {
        ShardServer {
            shard: Arc::from(shard),
        }
    }

    /// Accepts one connection on `listener` and serves it to completion
    /// (client disconnect or `Shutdown`).
    ///
    /// # Errors
    /// Accept or protocol-level I/O errors.
    pub fn serve_next(&self, listener: &TcpListener) -> io::Result<()> {
        let (stream, _peer) = listener.accept()?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        self.serve_stream(stream, writer)
    }

    /// Accepts connections until the shard shuts down, serving each on its
    /// own session thread — so a reconnecting client never waits behind an
    /// established one, and several routers can stream to one replica.
    ///
    /// Returns once the shard is closed (a client sent `Shutdown`, or the
    /// shard was shut down out-of-band) and every session has ended;
    /// sessions end when their client disconnects.
    ///
    /// # Errors
    /// Accept failures other than transient unreadiness.
    pub fn serve_forever(&self, listener: &TcpListener) -> io::Result<()> {
        // Non-blocking accept so shard shutdown is noticed promptly even
        // with no connection attempts arriving.
        listener.set_nonblocking(true)?;
        let mut sessions = Vec::new();
        while !self.shard.is_closed() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_nodelay(true).ok();
                    let writer = stream.try_clone()?;
                    let server = self.clone();
                    sessions.push(
                        std::thread::Builder::new()
                            .name("aimc-shard-session".into())
                            .spawn(move || {
                                let _ = server.serve_stream(stream, writer);
                            })
                            .expect("spawn shard session"),
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
            sessions.retain(|s| !s.is_finished());
        }
        for session in sessions {
            let _ = session.join();
        }
        Ok(())
    }

    /// Runs the protocol loop on an established connection: decodes frames
    /// from `reader`, drives the shard, and writes replies to `writer`.
    /// Returns on clean disconnect (EOF between frames) or after answering
    /// `Shutdown`; all replies for accepted requests are written before
    /// either return.
    ///
    /// The reader is buffered here, once for the whole session, so
    /// callers pass the raw stream.
    ///
    /// # Errors
    /// Protocol violations (`InvalidData`) or underlying I/O failures.
    pub fn serve_stream(
        &self,
        reader: impl Read,
        writer: impl Write + Send + 'static,
    ) -> io::Result<()> {
        let mut reader = BufReader::new(reader);
        let writer = Arc::new(Mutex::new(writer));
        // Completed requests flow back on their own thread: the shard
        // fulfills tickets in FIFO dispatch order, so one replier waiting
        // each Pending in turn streams replies without head-of-line cost.
        let (tx, rx): (ReplySender, ReplyReceiver) = mpsc::channel();
        let replier = {
            let writer = Arc::clone(&writer);
            let shard = Arc::clone(&self.shard);
            std::thread::Builder::new()
                .name("aimc-shard-replier".into())
                .spawn(move || reply_loop(&rx, &*writer, &*shard))
                .expect("spawn shard replier")
        };

        let result = self.frame_loop(&mut reader, &writer, &tx);
        // Settle the replier before returning so every accepted request's
        // reply is on the wire (or the link is known dead).
        drop(tx);
        let _ = replier.join();
        // `Shutdown` acks only after all replies above were written.
        if let Ok(true) = result {
            let _ = write_frame(&mut *writer.lock().unwrap(), &Frame::ShutdownDone);
        }
        result.map(|_| ())
    }

    /// The decode/dispatch loop. Returns `Ok(true)` when the client asked
    /// for shutdown, `Ok(false)` on clean disconnect.
    fn frame_loop(
        &self,
        reader: &mut impl Read,
        writer: &Arc<Mutex<impl Write + Send + 'static>>,
        tx: &Sender<(u64, Pending)>,
    ) -> io::Result<bool> {
        let reply = |frame: &Frame| write_frame(&mut *writer.lock().unwrap(), frame);
        loop {
            let frame = match read_frame(reader) {
                Ok(f) => f,
                // EOF between frames: the client hung up without Shutdown.
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
                Err(e) => return Err(e),
            };
            match frame {
                Frame::Hello { resumed: _ } => reply(&Frame::HelloAck)?,
                Frame::Request(ShardRequest {
                    global_index,
                    class,
                    image,
                }) => {
                    // The client's router already admitted the request, so
                    // the shard must not shed it.
                    let (flight, pending) = Flight::new(global_index, class, image, false);
                    match self.shard.submit(flight) {
                        Ok(()) => {
                            let _ = tx.send((global_index, pending));
                        }
                        Err(refused) => reply(&Frame::Reply(ShardReply {
                            global_index,
                            marked: false,
                            outcome: Err(reply_error(refused.1)),
                        }))?,
                    }
                }
                // Requests carry their own indices; a lease frame (no
                // current client sends one) adds nothing.
                Frame::Lease(_) => {}
                Frame::Drain => {
                    self.shard.drain();
                    reply(&Frame::DrainDone)?;
                }
                Frame::Shutdown => {
                    self.shard.shutdown();
                    // ShutdownDone is written by serve_stream after the
                    // replier settles, so it orders after every reply.
                    return Ok(true);
                }
                Frame::ApplyDrift(t_hours) => {
                    let modeled = self.shard.apply_drift(t_hours);
                    reply(&Frame::DriftDone(modeled))?;
                }
                Frame::Reprogram => {
                    let outcome = self.shard.reprogram().map_err(|e| e.to_string());
                    reply(&Frame::ReprogramDone(outcome))?;
                }
                Frame::SetParallelism(par) => {
                    self.shard.set_parallelism(par);
                    reply(&Frame::ParallelismSet)?;
                }
                Frame::StatsProbe => {
                    let stats = to_wire_stats(&self.shard.stats());
                    reply(&Frame::Stats(stats))?;
                }
                Frame::SpecProbe => {
                    reply(&Frame::Spec(self.shard.spec()))?;
                }
                // Server-to-client frames arriving at the server are a
                // protocol violation.
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected client frame: {other:?}"),
                    ))
                }
            }
        }
    }
}

/// The server's replier: waits for the oldest queued reply, then sends it
/// together with every queued reply that is already complete in one
/// write, until the frame loop hangs up.
///
/// ECN-style marking: the replies of one write carry the shard's pressure
/// bit sampled once, at write time (level-triggered, like a switch
/// marking packets while its queue is past the threshold).
///
/// Once the writer dies the channel is still drained — each remaining
/// `Pending` is waited (so `serve_stream` returns only after every
/// accepted request's shard ticket settled) and its reply discarded.
fn reply_loop(rx: &ReplyReceiver, writer: &Mutex<impl Write>, shard: &dyn ShardTransport) {
    let mut writer_alive = true;
    let mut done: Vec<(u64, Result<Tensor, ServeError>)> = Vec::new();
    let mut buf = Vec::new();
    let mut oldest = None;
    while let Some((global_index, pending)) = oldest.take().or_else(|| rx.recv().ok()) {
        done.push((global_index, pending.wait()));
        // Sweep in queue order, stopping at the first incomplete reply:
        // it becomes the next round's oldest.
        while let Ok((global_index, pending)) = rx.try_recv() {
            if !pending.is_ready() {
                oldest = Some((global_index, pending));
                break;
            }
            done.push((global_index, pending.wait()));
        }
        if writer_alive {
            let marked = shard.load().pressure;
            buf.clear();
            let encoded = done.drain(..).try_for_each(|(global_index, outcome)| {
                let frame = Frame::Reply(ShardReply {
                    global_index,
                    marked,
                    outcome: outcome.map_err(reply_error),
                });
                append_frame(&mut buf, &frame)
            });
            let mut w = writer.lock().unwrap();
            writer_alive = encoded
                .and_then(|()| w.write_all(&buf))
                .and_then(|()| w.flush())
                .is_ok();
        }
        done.clear();
    }
}

fn reply_error(e: ServeError) -> ReplyError {
    match e {
        ServeError::ShutDown | ServeError::NoShards => ReplyError::ShutDown,
        ServeError::Canceled => ReplyError::Canceled,
        ServeError::Exec(err) => ReplyError::Exec(err.to_string()),
        ServeError::Remote(msg) => ReplyError::Exec(msg),
        // Registry and admission errors never originate on a shard host
        // (its requests arrive admitted), but the mapping must stay total:
        // render them like any other execution failure.
        e @ (ServeError::UnknownModel(_)
        | ServeError::SpecMismatch(_)
        | ServeError::LiveFloor
        | ServeError::UnknownShard(_)
        | ServeError::Shed(_)
        | ServeError::DeadlineInfeasible { .. }) => ReplyError::Exec(e.to_string()),
    }
}

fn serve_error(e: ReplyError) -> ServeError {
    match e {
        ReplyError::ShutDown => ServeError::ShutDown,
        ReplyError::Canceled => ServeError::Canceled,
        ReplyError::Exec(msg) => ServeError::Remote(msg),
    }
}

fn ns(d: &Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn to_wire_stats(s: &ServeStats) -> WireStats {
    let mut classes: [WireClassStats; Priority::COUNT] = Default::default();
    for (wire, local) in classes.iter_mut().zip(&s.qos.classes) {
        *wire = WireClassStats {
            admitted: local.admitted,
            shed_queue_full: local.shed_queue_full,
            shed_class_budget: local.shed_class_budget,
            shed_overload: local.shed_overload,
            infeasible: local.infeasible,
            deadline_misses: local.deadline_misses,
            latencies_ns: local.latencies.iter().map(ns).collect(),
        };
    }
    WireStats {
        submitted: s.submitted,
        completed: s.completed,
        rejected: s.rejected,
        batches: s.batches,
        dispatched: s.dispatched,
        max_batch_observed: s.max_batch_observed as u64,
        ecn_marks: s.qos.ecn_marks,
        drift_age: s.drift_age,
        reprograms: s.reprograms,
        classes,
        queue_waits_ns: s.queue_waits.iter().map(ns).collect(),
    }
}

fn from_wire_stats(s: WireStats) -> ServeStats {
    let mut stats = ServeStats {
        submitted: s.submitted,
        completed: s.completed,
        rejected: s.rejected,
        batches: s.batches,
        dispatched: s.dispatched,
        max_batch_observed: s.max_batch_observed as usize,
        queue_waits: s
            .queue_waits_ns
            .into_iter()
            .map(Duration::from_nanos)
            .collect(),
        drift_age: s.drift_age,
        reprograms: s.reprograms,
        ..ServeStats::default()
    };
    stats.qos.ecn_marks = s.ecn_marks;
    for (local, wire) in stats.qos.classes.iter_mut().zip(s.classes) {
        local.admitted = wire.admitted;
        local.shed_queue_full = wire.shed_queue_full;
        local.shed_class_budget = wire.shed_class_budget;
        local.shed_overload = wire.shed_overload;
        local.infeasible = wire.infeasible;
        local.deadline_misses = wire.deadline_misses;
        local.latencies = wire
            .latencies_ns
            .into_iter()
            .map(Duration::from_nanos)
            .collect();
    }
    stats
}

// ---------------------------------------------------------------- client

/// Dials one fresh connection to a shard server.
///
/// A replay-capable [`TcpTransport`] keeps its connector for the
/// connection's whole lifetime: every time the link dies it re-dials
/// through it (within the [`RetryPolicy`] budget) and replays the
/// unacknowledged requests on the new stream. Tests implement this over
/// in-memory pipes (optionally wrapped in
/// [`aimc_wire::FaultyEnd`]) to script churn.
pub trait Connect: Send + Sync {
    /// Establishes a new connection, returning its reader and writer
    /// halves.
    ///
    /// # Errors
    /// Dial failures; the caller retries within its [`RetryPolicy`].
    fn connect(&self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)>;
}

/// Reconnect budget of a replay-capable transport: how many dials to
/// attempt after a link death, with linearly growing backoff between
/// them. Once the budget is exhausted the transport closes and parks its
/// unacknowledged flights for the router to re-route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    backoff: Duration,
}

impl RetryPolicy {
    /// At most `max_attempts` dials per outage, sleeping `backoff × n`
    /// before the n-th re-attempt.
    pub const fn new(max_attempts: u32, backoff: Duration) -> Self {
        RetryPolicy {
            max_attempts,
            backoff,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new(3, Duration::from_millis(10))
    }
}

/// The read half of a live link, buffered once before the handshake: a
/// `BufReader` dropped after the handshake would discard bytes it had
/// already read ahead.
type LinkReader = BufReader<Box<dyn Read + Send>>;

/// A TCP [`Connect`]or: re-dials the same address.
struct TcpConnector {
    addr: SocketAddr,
}

impl Connect for TcpConnector {
    fn connect(&self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone()?;
        Ok((Box::new(reader), Box::new(stream)))
    }
}

/// How a replay-capable transport re-establishes its link.
struct ReplayConfig {
    connector: Box<dyn Connect>,
    retry: RetryPolicy,
}

struct RemoteState {
    /// Flights submitted and not yet answered, by global index — the
    /// go-back-N retransmission buffer. A flight keeps its image so a
    /// reconnect can retransmit it, and leaves when its reply lands.
    pending: HashMap<u64, Flight>,
    /// Client-side refusals (the link was already closed) — the server
    /// never saw these, so they are merged into [`TcpTransport::stats`].
    rejected: u64,
    /// Last statistics snapshot fetched from the server; served after the
    /// link closes.
    last_stats: ServeStats,
    /// The shard's spec, fetched once over the wire and cached — a shard's
    /// identity never changes for the life of a connection.
    spec: Option<ShardSpec>,
    /// In-flight occupancy per priority class (client-side count).
    class_in_flight: [u64; Priority::COUNT],
    /// Latched congestion state: the `marked` bit of the most recent
    /// reply. Level-triggered like the server's marking — the router's
    /// pacer does its own edge detection.
    pressure: bool,
    /// Per-image service-time estimate from inter-reply gaps during busy
    /// periods (0 until two consecutive replies arrive with more work
    /// still outstanding).
    est_image_ns: u64,
    /// Arrival instant of the previous reply within the current busy
    /// period; `None` once the pipeline empties (so idle gaps never
    /// pollute the estimate).
    last_reply_at: Option<Instant>,
    /// Whether the link currently has a live writer. `false` during an
    /// outage (between link death and a successful replay); submissions
    /// wait on `state_cv` for it rather than racing the reconnect.
    link_up: bool,
    /// Flights stranded by a permanent link death, awaiting
    /// [`ShardTransport::take_orphans`].
    orphans: Vec<Flight>,
}

struct RemoteInner {
    writer: Mutex<Box<dyn Write + Send>>,
    state: Mutex<RemoteState>,
    /// Signals `pending` transitions (drain waits on it) and link
    /// up/down/epoch transitions.
    state_cv: Condvar,
    /// One-deep mailbox for control replies; the control lock serializes
    /// users, so depth one suffices.
    mailbox: Mutex<Option<Frame>>,
    mailbox_cv: Condvar,
    /// Serializes control commands (one outstanding per connection).
    control: Mutex<()>,
    /// Set on shutdown or permanent link death; checked lock-free on
    /// every path.
    closed: AtomicBool,
    /// Reconnect configuration; `None` for a transport over a fixed
    /// stream ([`TcpTransport::over`]), whose link death cancels instead
    /// of replaying.
    replay: Option<ReplayConfig>,
    /// Bumped on every link death, so a control call waiting for its
    /// reply can tell "the link I wrote on died" from a slow server and
    /// resend on the replacement link.
    link_epoch: AtomicU64,
    /// Set at the start of [`ShardTransport::shutdown`]: the EOF the
    /// server sends after `ShutdownDone` must not trigger a reconnect.
    shutting_down: AtomicBool,
}

impl RemoteInner {
    /// Marks the link permanently dead and cancels everything
    /// outstanding (each flight dropped settles as canceled).
    fn close_link(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let mut st = self.state.lock().unwrap();
        st.link_up = false;
        st.pending.clear();
        st.class_in_flight = [0; Priority::COUNT];
        drop(st);
        // A reply parked by a link that died mid-control must not be
        // misdelivered to the next control call.
        *self.mailbox.lock().unwrap() = None;
        self.state_cv.notify_all();
        self.mailbox_cv.notify_all();
    }

    /// Marks the link down (but recoverable): submissions start waiting,
    /// the epoch moves so in-flight control calls abandon the dead link,
    /// and any stale control reply is dropped.
    fn note_link_down(&self) {
        let mut st = self.state.lock().unwrap();
        st.link_up = false;
        st.last_reply_at = None;
        self.link_epoch.fetch_add(1, Ordering::SeqCst);
        drop(st);
        *self.mailbox.lock().unwrap() = None;
        self.state_cv.notify_all();
        self.mailbox_cv.notify_all();
    }

    /// Permanent link death after a spent retry budget: closes the
    /// transport but parks the unacknowledged flights — the router
    /// re-routes them at their original coordinates instead of surfacing
    /// cancellations.
    fn park_orphans(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let mut st = self.state.lock().unwrap();
        st.link_up = false;
        let stranded: Vec<Flight> = st.pending.drain().map(|(_, flight)| flight).collect();
        st.orphans.extend(stranded);
        st.class_in_flight = [0; Priority::COUNT];
        drop(st);
        *self.mailbox.lock().unwrap() = None;
        self.state_cv.notify_all();
        self.mailbox_cv.notify_all();
    }
}

/// The router's side of a remote shard: implements [`ShardTransport`] by
/// speaking the wire protocol to a [`ShardServer`] (see the module docs).
///
/// Despite the name, the transport runs over **any** byte stream:
/// [`TcpTransport::connect`] for sockets (reconnect-and-replay capable),
/// [`TcpTransport::with_connector`] for a custom dialer, and
/// [`TcpTransport::over`] for a fixed `Read + Write` pair — e.g. an
/// [`aimc_wire::duplex`] pipe in tests — whose link death cancels
/// outstanding requests instead of replaying. Clone-able; clones share
/// the connection.
///
/// A request whose image does not have the input shape of the shard's
/// spec is refused at submit with [`ServeError::Exec`], before anything is
/// registered or written, so the router releases its index as it does for
/// a local seat. A request the server refuses (a spec without an input
/// shape lets any image through) fails alone through its [`Pending`], but
/// keeps its coordinate: the transport accepted it before the reply.
#[derive(Clone)]
pub struct TcpTransport {
    inner: Arc<RemoteInner>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("closed", &self.inner.closed.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Connects to a [`ShardServer`] listening at `addr`, with the default
    /// [`RetryPolicy`] governing reconnect-and-replay on link death.
    ///
    /// # Errors
    /// Connection or handshake failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        Self::with_connector(Box::new(TcpConnector { addr }), RetryPolicy::default())
    }

    /// Connects through an arbitrary [`Connect`]or, keeping it for
    /// reconnect-and-replay under `retry` when the link dies.
    ///
    /// # Errors
    /// Initial dial or handshake failures.
    pub fn with_connector(connector: Box<dyn Connect>, retry: RetryPolicy) -> io::Result<Self> {
        let (reader, mut writer) = connector.connect()?;
        let mut reader = BufReader::new(reader);
        write_frame(&mut writer, &Frame::Hello { resumed: false })?;
        match read_frame(&mut reader)? {
            Frame::HelloAck => {}
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected HelloAck, got {other:?}"),
                ))
            }
        }
        Ok(Self::start(
            reader,
            writer,
            Some(ReplayConfig { connector, retry }),
        ))
    }

    /// Wraps an established duplex byte stream (reader half + writer
    /// half). A background thread consumes `reader` for the connection's
    /// lifetime. No reconnect is possible on a fixed stream, so link
    /// death cancels outstanding requests.
    pub fn over(reader: impl Read + Send + 'static, writer: impl Write + Send + 'static) -> Self {
        Self::start(BufReader::new(Box::new(reader)), Box::new(writer), None)
    }

    fn start(
        reader: LinkReader,
        writer: Box<dyn Write + Send>,
        replay: Option<ReplayConfig>,
    ) -> Self {
        let inner = Arc::new(RemoteInner {
            writer: Mutex::new(writer),
            state: Mutex::new(RemoteState {
                pending: HashMap::new(),
                rejected: 0,
                last_stats: ServeStats::default(),
                spec: None,
                class_in_flight: [0; Priority::COUNT],
                pressure: false,
                est_image_ns: 0,
                last_reply_at: None,
                link_up: true,
                orphans: Vec::new(),
            }),
            state_cv: Condvar::new(),
            mailbox: Mutex::new(None),
            mailbox_cv: Condvar::new(),
            control: Mutex::new(()),
            closed: AtomicBool::new(false),
            replay,
            link_epoch: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
        });
        let thread_inner = Arc::clone(&inner);
        // The thread settles everything in close_link/park_orphans before
        // exiting, so nothing needs to join it.
        std::thread::Builder::new()
            .name("aimc-remote-reader".into())
            .spawn(move || run_reader(reader, &thread_inner))
            .expect("spawn remote reader");
        TcpTransport { inner }
    }

    fn is_link_closed(&self) -> bool {
        self.inner.closed.load(Ordering::SeqCst)
    }

    /// Sends one control frame and blocks for its reply (control traffic
    /// is strictly one-outstanding, enforced by the control lock). On a
    /// replay-capable link a death mid-call resends the frame on the
    /// replacement link — control operations are level-based, so
    /// re-execution is safe.
    fn control(&self, request: &Frame) -> Result<Frame, ServeError> {
        let _serial = self.inner.control.lock().unwrap();
        loop {
            // Wait out any reconnect in progress before writing.
            {
                let mut st = self.inner.state.lock().unwrap();
                while !st.link_up {
                    if self.is_link_closed() {
                        return Err(ServeError::ShutDown);
                    }
                    st = self.inner.state_cv.wait(st).unwrap();
                }
            }
            let epoch = self.inner.link_epoch.load(Ordering::SeqCst);
            let write_ok = write_frame(&mut *self.inner.writer.lock().unwrap(), request).is_ok();
            if !write_ok {
                if self.inner.replay.is_none() {
                    self.inner.close_link();
                    return Err(ServeError::ShutDown);
                }
                // The reader thread notices the death and reconnects;
                // wait for the epoch to move (or the link to close) and
                // resend.
                self.wait_epoch_change(epoch);
                continue;
            }
            let mut mail = self.inner.mailbox.lock().unwrap();
            let reply = loop {
                if let Some(reply) = mail.take() {
                    break Some(reply);
                }
                if self.is_link_closed() {
                    return Err(ServeError::ShutDown);
                }
                if self.inner.link_epoch.load(Ordering::SeqCst) != epoch {
                    // Link died mid-call; the mailbox was flushed with it.
                    break None;
                }
                mail = self.inner.mailbox_cv.wait(mail).unwrap();
            };
            let Some(reply) = reply else { continue };
            if !control_reply_matches(request, &reply) {
                return Err(ServeError::Remote(format!(
                    "protocol violation: control reply {reply:?} does not answer {request:?}"
                )));
            }
            return Ok(reply);
        }
    }

    /// Blocks until the link epoch moves past `epoch` or the transport
    /// closes.
    fn wait_epoch_change(&self, epoch: u64) {
        let mut st = self.inner.state.lock().unwrap();
        while self.inner.link_epoch.load(Ordering::SeqCst) == epoch && !self.is_link_closed() {
            st = self.inner.state_cv.wait(st).unwrap();
        }
    }

    /// Waits until no submitted request is outstanding on this transport.
    fn wait_pending_empty(&self) {
        let mut st = self.inner.state.lock().unwrap();
        while !st.pending.is_empty() {
            st = self.inner.state_cv.wait(st).unwrap();
        }
    }
}

/// Whether `reply` is the reply type that answers control frame
/// `request`.
fn control_reply_matches(request: &Frame, reply: &Frame) -> bool {
    matches!(
        (request, reply),
        (Frame::Drain, Frame::DrainDone)
            | (Frame::Shutdown, Frame::ShutdownDone)
            | (Frame::ApplyDrift(_), Frame::DriftDone(_))
            | (Frame::Reprogram, Frame::ReprogramDone(_))
            | (Frame::SetParallelism(_), Frame::ParallelismSet)
            | (Frame::StatsProbe, Frame::Stats(_))
            | (Frame::SpecProbe, Frame::Spec(_))
    )
}

/// The reader thread: consumes replies until the link dies, then — on a
/// replay-capable transport — reconnects and retransmits go-back-N, or
/// parks the pendings as orphans once the retry budget is spent.
fn run_reader(mut reader: LinkReader, inner: &Arc<RemoteInner>) {
    loop {
        reader_loop(&mut reader, inner);
        // The link is dead: EOF, a decode error, or a protocol violation.
        let resumable = inner.replay.is_some()
            && !inner.shutting_down.load(Ordering::SeqCst)
            && !inner.closed.load(Ordering::SeqCst);
        if !resumable {
            inner.close_link();
            return;
        }
        inner.note_link_down();
        match reconnect_and_replay(inner) {
            Ok(new_reader) => reader = new_reader,
            Err(_) => {
                inner.park_orphans();
                return;
            }
        }
    }
}

fn reader_loop(reader: &mut impl Read, inner: &RemoteInner) {
    loop {
        match read_frame(reader) {
            Ok(Frame::Reply(ShardReply {
                global_index,
                marked,
                outcome,
            })) => {
                let now = Instant::now();
                let mut st = inner.state.lock().unwrap();
                // A duplicate reply (the original raced a replayed
                // re-execution) finds no entry and is dropped — both carry
                // bit-identical logits, so either serves.
                if let Some(flight) = st.pending.remove(&global_index) {
                    let rank = flight.class.priority.rank();
                    st.class_in_flight[rank] = st.class_in_flight[rank].saturating_sub(1);
                    // Level-triggered latch of the shard's pressure bit.
                    st.pressure = marked;
                    // Service-time estimate from inter-reply gaps, but only
                    // while more work is outstanding (a gap that includes
                    // pipeline idle time is not a service time).
                    if let Some(prev) = st.last_reply_at {
                        if !st.pending.is_empty() {
                            let gap = ns(&now.saturating_duration_since(prev));
                            st.est_image_ns = if st.est_image_ns == 0 {
                                gap
                            } else {
                                (3 * (st.est_image_ns as u128) + gap as u128).div_euclid(4) as u64
                            };
                        }
                    }
                    st.last_reply_at = (!st.pending.is_empty()).then_some(now);
                    flight.settle(outcome.map_err(serve_error));
                }
                drop(st);
                inner.state_cv.notify_all();
            }
            Ok(
                reply @ (Frame::DrainDone
                | Frame::ShutdownDone
                | Frame::DriftDone(_)
                | Frame::ReprogramDone(_)
                | Frame::ParallelismSet
                | Frame::Stats(_)
                | Frame::Spec(_)),
            ) => {
                *inner.mailbox.lock().unwrap() = Some(reply);
                inner.mailbox_cv.notify_all();
            }
            // Client-to-server frames echoed back, or decode/link errors:
            // the connection is unusable either way.
            Ok(_) | Err(_) => return,
        }
    }
}

/// Re-dials within the retry budget; on success the go-back-N replay has
/// already been written and the link marked up.
fn reconnect_and_replay(inner: &RemoteInner) -> io::Result<LinkReader> {
    let replay = inner.replay.as_ref().expect("reconnect needs a connector");
    let mut last = io::Error::new(io::ErrorKind::ConnectionRefused, "retry budget is zero");
    for attempt in 0..replay.retry.max_attempts {
        if attempt > 0 {
            std::thread::sleep(replay.retry.backoff.saturating_mul(attempt));
        }
        if inner.shutting_down.load(Ordering::SeqCst) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "shutting down"));
        }
        match try_resume(inner, replay) {
            Ok(reader) => return Ok(reader),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// One resume attempt: dial, handshake with `Hello { resumed: true }`,
/// then — under the writer lock, so no submission interleaves —
/// retransmit the unacknowledged requests in ascending index order
/// (go-back-N; each request carries its own index, so the replay order
/// does not affect any logit).
fn try_resume(inner: &RemoteInner, replay: &ReplayConfig) -> io::Result<LinkReader> {
    let (reader, mut writer) = replay.connector.connect()?;
    let mut reader = BufReader::new(reader);
    write_frame(&mut writer, &Frame::Hello { resumed: true })?;
    match read_frame(&mut reader)? {
        Frame::HelloAck => {}
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected HelloAck, got {other:?}"),
            ))
        }
    }
    let mut current = inner.writer.lock().unwrap();
    // Encode under the state lock; anything registered later writes its
    // own frame once the writer lock frees (submissions wait for link_up,
    // which is still false here).
    let mut backlog = Vec::new();
    {
        let mut st = inner.state.lock().unwrap();
        let mut indices: Vec<u64> = st.pending.keys().copied().collect();
        indices.sort_unstable();
        for index in indices {
            if let Some(flight) = st.pending.remove(&index) {
                let (flight, encoded) = encode_request(&mut backlog, flight);
                st.pending.insert(index, flight);
                encoded?;
            }
        }
    }
    writer.write_all(&backlog)?;
    writer.flush()?;
    *current = writer;
    drop(current);
    inner.state.lock().unwrap().link_up = true;
    inner.state_cv.notify_all();
    Ok(reader)
}

/// Appends the request frame of `flight` to `buf`. The image moves into
/// the frame and back, so nothing is copied.
fn encode_request(buf: &mut Vec<u8>, mut flight: Flight) -> (Flight, io::Result<()>) {
    let frame = Frame::Request(ShardRequest {
        global_index: flight.index,
        class: flight.class,
        image: flight.image,
    });
    let encoded = append_frame(buf, &frame);
    let Frame::Request(request) = frame else {
        unreachable!("a request frame stays a request frame")
    };
    flight.image = request.image;
    (flight, encoded)
}

impl ShardTransport for TcpTransport {
    fn submit(&self, flight: Flight) -> Result<(), Box<(Flight, ServeError)>> {
        let (index, rank) = (flight.index, flight.class.priority.rank());
        let mut bytes = Vec::new();
        let (flight, encoded) = encode_request(&mut bytes, flight);
        {
            let mut st = self.inner.state.lock().unwrap();
            if let Some(expected) = st.spec.as_ref().and_then(|spec| spec.input) {
                let got = flight.image.shape();
                if got != expected {
                    let e = ExecError::ShapeMismatch { expected, got };
                    return Err(Box::new((flight, ServeError::Exec(e))));
                }
            }
            // During an outage, wait for the replay to finish rather than
            // racing it: registering mid-replay could miss both the
            // snapshot and the new writer.
            while !st.link_up && !self.is_link_closed() {
                st = self.inner.state_cv.wait(st).unwrap();
            }
            if self.is_link_closed() {
                st.rejected += 1;
                return Err(Box::new((flight, ServeError::ShutDown)));
            }
            // Registered before the frame is written, so a reply can never
            // race past its slot — and so a link death between here and
            // the write leaves the flight in the replay buffer.
            st.pending.insert(index, flight);
            st.class_in_flight[rank] += 1;
        }
        let written = encoded.and_then(|()| {
            let mut w = self.inner.writer.lock().unwrap();
            w.write_all(&bytes)?;
            w.flush()
        });
        if written.is_ok() || (self.inner.replay.is_some() && !self.is_link_closed()) {
            // Sent, or the link died mid-submit but is recoverable: the
            // flight is registered, so the reconnect replay retransmits it.
            return Ok(());
        }
        // Permanently dead: take the flight back and refuse. It may have
        // moved to the orphan list if the park raced us; if a close raced
        // us, it was canceled with the link.
        let mut st = self.inner.state.lock().unwrap();
        let flight = match st.pending.remove(&index) {
            Some(flight) => {
                st.class_in_flight[rank] = st.class_in_flight[rank].saturating_sub(1);
                Some(flight)
            }
            None => {
                let pos = st.orphans.iter().position(|f| f.index == index);
                pos.map(|pos| st.orphans.swap_remove(pos))
            }
        };
        st.rejected += u64::from(flight.is_some());
        drop(st);
        if self.inner.replay.is_none() {
            self.inner.close_link();
        }
        match flight {
            Some(flight) => Err(Box::new((flight, ServeError::ShutDown))),
            None => Ok(()),
        }
    }

    fn load(&self) -> ShardLoad {
        let st = self.inner.state.lock().unwrap();
        ShardLoad {
            in_flight: st.pending.len() as u64,
            per_class: st.class_in_flight,
            pressure: st.pressure,
            est_image_ns: st.est_image_ns,
        }
    }

    fn in_flight(&self) -> u64 {
        self.inner.state.lock().unwrap().pending.len() as u64
    }

    fn drain(&self) {
        if !self.is_link_closed() {
            let _ = self.control(&Frame::Drain); // DrainDone or closed link
        }
        // DrainDone means the shard has drained, not that its replier has
        // written every reply: the last replies may still be in flight.
        // Waiting for `pending` to empty is what completes the drain — a
        // reply lands, a dead link cancels its pendings, or an exhausted
        // retry budget moves them to the orphan list.
        self.wait_pending_empty();
    }

    fn shutdown(&self) {
        // From here the reader must not reconnect: the EOF after
        // ShutdownDone is the server hanging up, not an outage.
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        if !self.is_link_closed() {
            self.drain();
            // Cache the final server statistics while the link still
            // works; stats() serves this snapshot after close.
            if let Ok(Frame::Stats(ws)) = self.control(&Frame::StatsProbe) {
                self.inner.state.lock().unwrap().last_stats = from_wire_stats(ws);
            }
            // ShutdownDone orders after every reply, so nothing is lost.
            let _ = self.control(&Frame::Shutdown);
            self.inner.close_link();
        }
        self.wait_pending_empty();
        // Orphans nobody harvested settle as cancellations at shutdown.
        self.inner.state.lock().unwrap().orphans.clear();
    }

    fn is_closed(&self) -> bool {
        self.is_link_closed()
    }

    fn take_orphans(&self) -> Vec<Flight> {
        std::mem::take(&mut self.inner.state.lock().unwrap().orphans)
    }

    fn stats(&self) -> ServeStats {
        if !self.is_link_closed() {
            if let Ok(Frame::Stats(ws)) = self.control(&Frame::StatsProbe) {
                self.inner.state.lock().unwrap().last_stats = from_wire_stats(ws);
            }
        }
        let st = self.inner.state.lock().unwrap();
        let mut stats = st.last_stats.clone();
        // Client-side refusals the server never saw.
        stats.rejected += st.rejected;
        stats
    }

    fn spec(&self) -> ShardSpec {
        if let Some(spec) = self.inner.state.lock().unwrap().spec.clone() {
            return spec;
        }
        if let Ok(Frame::Spec(spec)) = self.control(&Frame::SpecProbe) {
            self.inner.state.lock().unwrap().spec = Some(spec.clone());
            return spec;
        }
        // Dead link before the first probe: report the spec-less default.
        // The registry will group this transport with other defaults; a
        // transport that cannot even answer a probe is evicted on first
        // use anyway.
        ShardSpec::default()
    }

    fn apply_drift(&self, t_hours: f64) -> bool {
        matches!(
            self.control(&Frame::ApplyDrift(t_hours)),
            Ok(Frame::DriftDone(true))
        )
    }

    fn reprogram(&self) -> Result<(), ServeError> {
        match self.control(&Frame::Reprogram)? {
            Frame::ReprogramDone(Ok(())) => Ok(()),
            Frame::ReprogramDone(Err(msg)) => Err(ServeError::Remote(msg)),
            other => Err(ServeError::Remote(format!(
                "protocol violation: expected ReprogramDone, got {other:?}"
            ))),
        }
    }

    fn set_parallelism(&self, par: Parallelism) {
        let _ = self.control(&Frame::SetParallelism(par));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::QosClass;
    use crate::transport::testing::submit;
    use crate::transport::{LocalTransport, ShardControl};
    use crate::{BatchPolicy, FleetHandle, FleetPolicy, RoutePolicy};
    use aimc_dnn::{ExecError, Shape};
    use aimc_wire::{duplex, FaultPlan, FaultyEnd};
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicU32;

    fn tensor(v: f32) -> Tensor {
        Tensor::from_vec(Shape::new(1, 1, 1), vec![v])
    }

    #[derive(Default)]
    struct RecordingControl {
        drifts: Mutex<Vec<f64>>,
        reprograms: Mutex<u32>,
        pars: Mutex<Vec<Parallelism>>,
        fail_reprogram: bool,
    }

    impl ShardControl for Arc<RecordingControl> {
        fn apply_drift(&self, t_hours: f64) -> bool {
            self.drifts.lock().unwrap().push(t_hours);
            true
        }
        fn reprogram(&self) -> Result<(), ExecError> {
            if self.fail_reprogram {
                return Err(ExecError::MissingWeights {
                    node: Default::default(),
                    name: "fc".into(),
                });
            }
            *self.reprograms.lock().unwrap() += 1;
            Ok(())
        }
        fn set_parallelism(&self, par: Parallelism) {
            self.pars.lock().unwrap().push(par);
        }
    }

    /// A seat over `runner` under `policy`, with a recording control.
    fn seat(
        policy: BatchPolicy,
        runner: impl FnMut(&[u64], &[Tensor]) -> Result<Vec<Tensor>, ExecError> + Send + 'static,
        control: Arc<RecordingControl>,
    ) -> Arc<LocalTransport> {
        Arc::new(LocalTransport::spawn(
            policy,
            Box::new(runner),
            Box::new(control),
            ShardSpec::default(),
        ))
    }

    /// An echo shard: results encode (index, value) so tests can verify
    /// the coordinate each request ran at.
    fn echo_seat(control: Arc<RecordingControl>) -> Arc<LocalTransport> {
        seat(
            BatchPolicy::new(2, Duration::from_millis(1)),
            |indices: &[u64], inputs: &[Tensor]| {
                Ok(indices
                    .iter()
                    .zip(inputs)
                    .map(|(&i, t)| tensor(i as f32 * 1000.0 + t.data()[0]))
                    .collect())
            },
            control,
        )
    }

    /// An echo shard server (see [`echo_seat`]).
    fn echo_server(control: Arc<RecordingControl>) -> ShardServer {
        ShardServer {
            shard: echo_seat(control),
        }
    }

    /// An echo shard over a duplex pipe (the fixed-stream `over` path).
    fn piped_shard(control: Arc<RecordingControl>) -> (TcpTransport, std::thread::JoinHandle<()>) {
        let server = echo_server(control);
        let (client_end, server_end) = duplex();
        let server_thread = std::thread::spawn({
            let reader = server_end.clone();
            let writer = server_end;
            move || {
                server.serve_stream(reader, writer).unwrap();
            }
        });
        let reader = client_end.clone();
        (TcpTransport::over(reader, client_end), server_thread)
    }

    /// A [`Connect`]or over in-memory pipes: each dial spawns a fresh
    /// `serve_stream` session against the shared server and wires the
    /// client's writer through a scripted [`FaultyEnd`]. An exhausted
    /// script refuses further dials (a permanently dead host).
    struct PipeConnector {
        server: Arc<ShardServer>,
        plans: Mutex<VecDeque<FaultPlan>>,
        dials: AtomicU32,
    }

    impl PipeConnector {
        fn new(server: ShardServer, plans: Vec<FaultPlan>) -> Self {
            PipeConnector {
                server: Arc::new(server),
                plans: Mutex::new(plans.into()),
                dials: AtomicU32::new(0),
            }
        }
    }

    impl Connect for PipeConnector {
        fn connect(&self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
            let Some(plan) = self.plans.lock().unwrap().pop_front() else {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "host is gone",
                ));
            };
            self.dials.fetch_add(1, Ordering::SeqCst);
            let (client_end, server_end) = duplex();
            let server = Arc::clone(&self.server);
            std::thread::spawn(move || {
                let reader = server_end.clone();
                let writer = server_end.clone();
                let _ = server.serve_stream(reader, writer);
                // A finished session hangs up, so the client sees EOF.
                server_end.close();
            });
            let reader = client_end.clone();
            Ok((Box::new(reader), Box::new(FaultyEnd::new(client_end, plan))))
        }
    }

    #[test]
    fn requests_round_trip_with_their_coordinates() {
        let (t, server) = piped_shard(Arc::default());
        let pendings: Vec<Pending> = (0..6)
            .map(|i| submit(&t, 10 + i, tensor(i as f32), QosClass::default()).unwrap())
            .collect();
        for (i, p) in pendings.into_iter().enumerate() {
            assert_eq!(
                p.wait().unwrap().data(),
                &[(10 + i) as f32 * 1000.0 + i as f32],
                "request {i} evaluated at the wrong coordinate"
            );
        }
        t.drain();
        assert_eq!(t.in_flight(), 0);
        let stats = t.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        t.shutdown();
        assert!(t.is_closed());
        server.join().unwrap();
        // Post-shutdown submissions are refused client-side and merged
        // into the cached statistics.
        assert!(matches!(
            submit(&t, 99, tensor(0.0), QosClass::default()),
            Err(ServeError::ShutDown)
        ));
        let stats = t.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn control_surface_reaches_the_remote_shard() {
        let control = Arc::new(RecordingControl::default());
        let (t, server) = piped_shard(Arc::clone(&control));
        assert!(t.apply_drift(24.0));
        assert_eq!(*control.drifts.lock().unwrap(), vec![24.0]);
        t.reprogram().unwrap();
        assert_eq!(*control.reprograms.lock().unwrap(), 1);
        t.set_parallelism(Parallelism::Threads(3));
        assert_eq!(*control.pars.lock().unwrap(), vec![Parallelism::Threads(3)]);
        // The spec probe answers over the *live* link (regression: a Spec
        // reply must land in the control mailbox, not sever the link).
        assert_eq!(t.spec(), ShardSpec::default());
        let p = submit(&t, 0, tensor(5.0), QosClass::default()).unwrap();
        assert_eq!(p.wait().unwrap().data(), &[5.0]);
        t.shutdown();
        server.join().unwrap();
    }

    #[test]
    fn remote_reprogram_failure_carries_the_rendered_error() {
        let control = Arc::new(RecordingControl {
            fail_reprogram: true,
            ..Default::default()
        });
        let (t, server) = piped_shard(control);
        match t.reprogram() {
            Err(ServeError::Remote(msg)) => assert!(msg.contains("missing weights")),
            other => panic!("expected remote error, got {other:?}"),
        }
        t.shutdown();
        server.join().unwrap();
    }

    /// A vanished server cancels outstanding requests on a fixed-stream
    /// (`over`) transport instead of hanging the client, and later
    /// operations fail cleanly.
    #[test]
    fn dead_link_cancels_outstanding_requests() {
        let handle = seat(
            BatchPolicy::new(1, Duration::from_secs(3600)), // never flushes
            |_idx: &[u64], inputs: &[Tensor]| Ok(inputs.to_vec()),
            Arc::default(),
        );
        let server = ShardServer {
            shard: handle.clone(),
        };
        let (client_end, server_end) = duplex();
        let server_thread = std::thread::spawn({
            let reader = server_end.clone();
            let writer = server_end.clone();
            move || {
                let _ = server.serve_stream(reader, writer);
            }
        });
        let t = TcpTransport::over(client_end.clone(), client_end.clone());
        let p = submit(&t, 0, tensor(1.0), QosClass::default()).unwrap();
        assert_eq!(t.in_flight(), 1);
        // Sever the connection while the request sits in the coalescer.
        client_end.close();
        assert!(matches!(p.wait(), Err(ServeError::Canceled)));
        t.drain(); // returns immediately: nothing outstanding
        assert!(t.is_closed());
        assert!(!t.apply_drift(1.0));
        assert!(t.reprogram().is_err());
        handle.shutdown();
        server_thread.join().unwrap();
    }

    /// Regression for the replier short-circuit: after the client
    /// vanishes mid-stream, the replier must still wait every queued
    /// `Pending` (discarding the replies), so `serve_stream` returns only
    /// once all accepted requests' shard tickets settled.
    #[test]
    fn replier_waits_every_queued_reply_after_writer_death() {
        let handle = seat(
            BatchPolicy::new(1, Duration::ZERO),
            |indices: &[u64], inputs: &[Tensor]| {
                if indices[0] > 0 {
                    std::thread::sleep(Duration::from_millis(100));
                }
                Ok(inputs.to_vec())
            },
            Arc::default(),
        );
        let server = ShardServer {
            shard: handle.clone(),
        };
        let (client_end, server_end) = duplex();
        let server_thread = std::thread::spawn({
            let reader = server_end.clone();
            let writer = server_end;
            move || {
                let _ = server.serve_stream(reader, writer);
            }
        });
        let t = TcpTransport::over(client_end.clone(), client_end.clone());
        let p0 = submit(&t, 0, tensor(0.0), QosClass::default()).unwrap();
        let _p1 = submit(&t, 1, tensor(1.0), QosClass::default()).unwrap();
        let _p2 = submit(&t, 2, tensor(2.0), QosClass::default()).unwrap();
        p0.wait().unwrap();
        // Kill the connection while requests 1 and 2 (slow) still queue
        // behind the replier.
        client_end.close();
        server_thread.join().unwrap();
        // With the old `break` the join returned while tickets 1 and 2
        // were still executing; now all three have settled.
        assert_eq!(handle.stats().completed, 3);
        handle.shutdown();
    }

    /// A `Read` that copies every byte it yields into a shared log: the
    /// server's view of the wire.
    struct Tee<R> {
        inner: R,
        log: Arc<Mutex<Vec<u8>>>,
    }

    impl<R: Read> Read for Tee<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.log.lock().unwrap().extend_from_slice(&buf[..n]);
            Ok(n)
        }
    }

    /// The wire shape of a remote seat: after the handshake and the spec
    /// probe, the server receives exactly one `Request` frame per request
    /// routed to it and never a `Lease` frame — routing blocks stay inside
    /// the router even when each block routes whole to one seat.
    #[test]
    fn tcp_seat_receives_one_request_frame_per_request_and_no_lease() {
        let (client_end, server_end) = duplex();
        let log = Arc::new(Mutex::new(Vec::new()));
        let server = echo_server(Arc::default());
        let server_thread = std::thread::spawn({
            let reader = Tee {
                inner: server_end.clone(),
                log: Arc::clone(&log),
            };
            move || server.serve_stream(reader, server_end).unwrap()
        });
        // The handshake a dialled transport makes, over the fixed stream.
        let (mut reader, mut writer) = (client_end.clone(), client_end.clone());
        write_frame(&mut writer, &Frame::Hello { resumed: false }).unwrap();
        assert_eq!(read_frame(&mut reader).unwrap(), Frame::HelloAck);
        let local = LocalTransport::spawn(
            BatchPolicy::new(2, Duration::from_millis(1)),
            Box::new(|indices: &[u64], inputs: &[Tensor]| {
                Ok(indices
                    .iter()
                    .zip(inputs)
                    .map(|(&i, t)| tensor(i as f32 * 1000.0 + t.data()[0]))
                    .collect())
            }),
            Box::new(Arc::new(RecordingControl::default())),
            ShardSpec::default(),
        );
        let seats: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(local),
            Box::new(TcpTransport::over(reader, writer)),
        ];
        let fleet = FleetHandle::new(
            seats,
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(4),
        )
        .unwrap();
        let pendings: Vec<Pending> = (0..12)
            .map(|i| fleet.submit(tensor(i as f32)).unwrap())
            .collect();
        for (i, p) in pendings.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().data(), &[i as f32 * 1001.0]);
        }
        fleet.shutdown();
        server_thread.join().unwrap();

        let bytes = log.lock().unwrap().clone();
        let mut stream = bytes.as_slice();
        let mut frames = Vec::new();
        while !stream.is_empty() {
            frames.push(read_frame(&mut stream).unwrap());
        }
        assert_eq!(
            frames[..2],
            [Frame::Hello { resumed: false }, Frame::SpecProbe]
        );
        // Round robin in blocks of 4: the local seat takes [0, 4) and [8, 12),
        // the TCP seat the block [4, 8) — one frame per request.
        let requests: Vec<u64> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Request(r) => Some(r.global_index),
                _ => None,
            })
            .collect();
        assert_eq!(requests, vec![4, 5, 6, 7]);
        assert!(
            !frames.iter().any(|f| matches!(f, Frame::Lease(_))),
            "a lease frame crossed the wire: {frames:?}"
        );
    }

    /// A writer that records each `write` call's bytes separately.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The replier sends every queued reply that is already complete in
    /// one write, in queue order.
    #[test]
    fn replier_coalesces_ready_replies_into_one_write() {
        let (tx, rx) = mpsc::channel();
        for i in 0..3 {
            let (flight, pending) = Flight::new(i, QosClass::default(), tensor(0.0), false);
            flight.settle(Ok(tensor(i as f32)));
            tx.send((i, pending)).unwrap();
        }
        drop(tx);
        let shard = echo_seat(Arc::default());
        let writer = Mutex::new(WriteLog::default());
        reply_loop(&rx, &writer, &*shard);
        shard.shutdown();
        let writes = writer.into_inner().unwrap().0;
        assert_eq!(writes.len(), 1, "three ready replies, one write");
        let mut stream = writes[0].as_slice();
        for i in 0..3 {
            match read_frame(&mut stream).unwrap() {
                Frame::Reply(r) => {
                    assert_eq!(r.global_index, i);
                    assert_eq!(r.outcome.unwrap().data(), &[i as f32]);
                }
                other => panic!("expected a reply, got {other:?}"),
            }
        }
        assert!(stream.is_empty());
    }

    /// The server still accepts a `Lease` frame, which no client sends
    /// any more, and ignores it: the session goes on unchanged.
    #[test]
    fn server_accepts_and_ignores_a_lease_frame() {
        let server = echo_server(Arc::default());
        let (client_end, server_end) = duplex();
        let session = std::thread::spawn({
            let reader = server_end.clone();
            move || server.serve_stream(reader, server_end)
        });
        let (mut reader, mut writer) = (client_end.clone(), client_end);
        write_frame(&mut writer, &Frame::Lease(aimc_wire::IndexLease::new(0, 8))).unwrap();
        write_frame(
            &mut writer,
            &Frame::Request(ShardRequest {
                global_index: 3,
                class: QosClass::default(),
                image: tensor(5.0),
            }),
        )
        .unwrap();
        match read_frame(&mut reader).unwrap() {
            Frame::Reply(r) => {
                assert_eq!(r.global_index, 3);
                assert_eq!(r.outcome.unwrap().data(), &[3005.0]);
            }
            other => panic!("expected the request's reply, got {other:?}"),
        }
        write_frame(&mut writer, &Frame::Shutdown).unwrap();
        assert_eq!(read_frame(&mut reader).unwrap(), Frame::ShutdownDone);
        session.join().unwrap().unwrap();
    }

    /// A stale control reply parked by a dying link must not leak into
    /// the next control call.
    #[test]
    fn link_death_flushes_the_control_mailbox() {
        let (reader, _writer) = duplex();
        let t = TcpTransport::over(reader.clone(), reader);
        *t.inner.mailbox.lock().unwrap() = Some(Frame::DrainDone);
        t.inner.close_link();
        assert!(t.inner.mailbox.lock().unwrap().is_none());

        let (reader2, _writer2) = duplex();
        let t2 = TcpTransport::over(reader2.clone(), reader2);
        *t2.inner.mailbox.lock().unwrap() = Some(Frame::ParallelismSet);
        t2.inner.note_link_down();
        assert!(t2.inner.mailbox.lock().unwrap().is_none());
    }

    /// A control reply of the wrong type is a typed protocol error, not a
    /// silently misdelivered answer.
    #[test]
    fn mismatched_control_reply_is_a_protocol_error() {
        let (client_end, server_end) = duplex();
        let confused_server = std::thread::spawn(move || {
            let mut reader = server_end.clone();
            let mut writer = server_end;
            // Answer Reprogram with DrainDone — a confused peer.
            assert_eq!(read_frame(&mut reader).unwrap(), Frame::Reprogram);
            write_frame(&mut writer, &Frame::DrainDone).unwrap();
        });
        let t = TcpTransport::over(client_end.clone(), client_end);
        match t.reprogram() {
            Err(ServeError::Remote(msg)) => {
                assert!(msg.contains("protocol violation"), "got: {msg}");
            }
            other => panic!("expected protocol violation, got {other:?}"),
        }
        confused_server.join().unwrap();
    }

    /// The tentpole reconnect path: a mid-stream sever triggers a
    /// re-dial, a resumed hello, and a go-back-N replay of the
    /// unacknowledged requests — every caller's `Pending` settles with
    /// logits from the correct coordinate and nobody sees the outage.
    #[test]
    fn link_death_replays_unacknowledged_requests() {
        let connector = Arc::new(PipeConnector::new(
            echo_server(Arc::default()),
            vec![
                // Connection 1 dies on its 5th frame (Hello + 3 requests
                // pass); connection 2 is clean.
                FaultPlan::new(5).sever_after(4),
                FaultPlan::new(6),
            ],
        ));
        let t = TcpTransport::with_connector(
            Box::new(ArcConnector(Arc::clone(&connector))),
            RetryPolicy::new(5, Duration::from_millis(1)),
        )
        .unwrap();
        let pendings: Vec<Pending> = (0..8)
            .map(|i| submit(&t, i, tensor(i as f32 * 0.5), QosClass::default()).unwrap())
            .collect();
        for (i, p) in pendings.into_iter().enumerate() {
            assert_eq!(
                p.wait().unwrap().data(),
                &[i as f32 * 1000.0 + i as f32 * 0.5],
                "request {i} lost or re-run at the wrong coordinate"
            );
        }
        assert_eq!(connector.dials.load(Ordering::SeqCst), 2, "one reconnect");
        t.shutdown();
        assert!(t.is_closed());
    }

    /// Forwards [`Connect`] through an `Arc` so tests can keep a handle on
    /// the connector they hand to the transport.
    struct ArcConnector(Arc<PipeConnector>);

    impl Connect for ArcConnector {
        fn connect(&self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
            self.0.connect()
        }
    }

    /// When every reconnect attempt fails, the transport closes and parks
    /// its unacknowledged requests as orphans — fulfillable by a rescuer
    /// at their original coordinates — instead of cancelling them.
    #[test]
    fn reconnect_exhaustion_parks_orphans_for_rescue() {
        let handle = seat(
            // The batch never fills and the latency budget never fires, so
            // no reply is ever written: both requests stay unacknowledged.
            BatchPolicy::new(3, Duration::from_secs(3600)),
            |_idx: &[u64], inputs: &[Tensor]| Ok(inputs.to_vec()),
            Arc::default(),
        );
        let server = ShardServer {
            shard: handle.clone(),
        };
        // One connection that dies after its 2nd frame, then a dead host.
        let connector = PipeConnector::new(server, vec![FaultPlan::new(1).sever_after(2)]);
        let t = TcpTransport::with_connector(
            Box::new(connector),
            RetryPolicy::new(2, Duration::from_millis(5)),
        )
        .unwrap();
        let p0 = submit(&t, 0, tensor(0.5), QosClass::default()).unwrap();
        let p1 = submit(&t, 1, tensor(1.5), QosClass::default()).unwrap(); // severs the link
        let deadline = Instant::now() + Duration::from_secs(10);
        while !t.is_closed() {
            assert!(Instant::now() < deadline, "retry budget never exhausted");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut orphans = t.take_orphans();
        orphans.sort_by_key(|o| o.index);
        assert_eq!(
            orphans.iter().map(|o| o.index).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(t.take_orphans().len(), 0, "orphans are taken exactly once");
        // A rescuer fulfills the parked slots; the original Pendings see
        // the results as if nothing happened.
        for orphan in orphans {
            let v = tensor(orphan.index as f32 * 7.0);
            orphan.settle(Ok(v));
        }
        assert_eq!(p0.wait().unwrap().data(), &[0.0]);
        assert_eq!(p1.wait().unwrap().data(), &[7.0]);
        handle.shutdown();
    }

    /// The accept loop serves concurrent connections: a second client is
    /// answered while the first stays connected (serve_next would leave
    /// it waiting), and the loop exits once the shard shuts down.
    #[test]
    fn serve_forever_accepts_concurrent_clients() {
        let server = echo_server(Arc::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept_thread = {
            let server = server.clone();
            std::thread::spawn(move || server.serve_forever(&listener))
        };
        let a = TcpTransport::connect(addr).unwrap();
        let b = TcpTransport::connect(addr).unwrap();
        let pa = submit(&a, 0, tensor(1.0), QosClass::default()).unwrap();
        let pb = submit(&b, 1, tensor(2.0), QosClass::default()).unwrap();
        assert_eq!(pa.wait().unwrap().data(), &[1.0]);
        assert_eq!(pb.wait().unwrap().data(), &[1002.0]);
        b.shutdown();
        a.shutdown();
        accept_thread.join().unwrap().unwrap();
    }
}
