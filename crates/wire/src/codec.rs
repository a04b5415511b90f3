//! The hand-rolled byte codec.
//!
//! Layout: every frame is `u32 LE payload length` followed by the payload,
//! and every payload starts with a one-byte tag. All integers are
//! little-endian; `f32`/`f64` travel as their IEEE-754 bit patterns, so
//! tensor data survives the wire **bit for bit** (NaN payloads included).
//! Decoding is total: malformed input yields `io::ErrorKind::InvalidData`,
//! never a panic — the length prefix is also bounded, so a corrupt stream
//! cannot trigger an absurd allocation.

use crate::{
    ClassStats, Frame, IndexLease, Priority, QosClass, ReplyError, ServeStats, ShardReply,
    ShardRequest, ShardSpec,
};
use aimc_dnn::{Shape, Tensor};
use aimc_parallel::Parallelism;
use aimc_xbar::XbarConfig;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Wire sentinel for "no deadline" in a [`QosClass`] field (no request
/// legitimately waits 584 years).
const NO_DEADLINE_NS: u64 = u64::MAX;

/// Upper bound on an encoded frame, as a corruption guard: the largest
/// legitimate payload is one image/logits tensor (a few MB for the paper's
/// 3×256×256 inputs), far below this.
const MAX_FRAME_LEN: u32 = 1 << 28;

// Frame tags. Stable protocol constants — append, never renumber.
const TAG_REQUEST: u8 = 0;
const TAG_REPLY: u8 = 1;
const TAG_LEASE: u8 = 2;
const TAG_DRAIN: u8 = 3;
const TAG_DRAIN_DONE: u8 = 4;
const TAG_SHUTDOWN: u8 = 5;
const TAG_SHUTDOWN_DONE: u8 = 6;
const TAG_APPLY_DRIFT: u8 = 7;
const TAG_DRIFT_DONE: u8 = 8;
const TAG_REPROGRAM: u8 = 9;
const TAG_REPROGRAM_DONE: u8 = 10;
const TAG_SET_PARALLELISM: u8 = 11;
const TAG_PARALLELISM_SET: u8 = 12;
const TAG_STATS_PROBE: u8 = 13;
const TAG_STATS: u8 = 14;
const TAG_HELLO: u8 = 15;
const TAG_HELLO_ACK: u8 = 16;
// 17 was `ReplayLeases`, a retired advisory frame; it now decodes as an
// unknown tag and must not be reused.
const TAG_SPEC_PROBE: u8 = 18;
const TAG_SPEC: u8 = 19;

/// The tag byte of an encoded [`Frame::Request`] payload (the first byte
/// after the length prefix) — used by the fault injector to restrict
/// reordering to request frames.
pub(crate) const TAG_REQUEST_BYTE: u8 = TAG_REQUEST;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------- encoding

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_shape(buf: &mut Vec<u8>, shape: Shape) {
    put_u32(buf, shape.c as u32);
    put_u32(buf, shape.h as u32);
    put_u32(buf, shape.w as u32);
}

fn put_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    // One growth for the whole tensor: a fresh frame buffer would
    // otherwise double its way up to the image size.
    buf.reserve(12 + 4 * t.data().len());
    put_shape(buf, t.shape());
    for &v in t.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_class(buf: &mut Vec<u8>, class: QosClass) {
    buf.push(class.priority.rank() as u8);
    let deadline_ns = class
        .deadline
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(NO_DEADLINE_NS - 1))
        .map(|ns| ns.min(NO_DEADLINE_NS - 1))
        .unwrap_or(NO_DEADLINE_NS);
    put_u64(buf, deadline_ns);
}

fn put_parallelism(buf: &mut Vec<u8>, par: Parallelism) {
    match par {
        Parallelism::Serial => buf.push(0),
        Parallelism::Threads(n) => {
            buf.push(1);
            put_u64(buf, n as u64);
        }
    }
}

fn put_spec(buf: &mut Vec<u8>, spec: &ShardSpec) {
    put_str(buf, &spec.model_id);
    let cfg = &spec.xbar_cfg;
    put_u64(buf, cfg.rows as u64);
    put_u64(buf, cfg.cols as u64);
    put_u32(buf, cfg.weight_bits);
    put_u32(buf, cfg.dac_bits);
    put_u32(buf, cfg.adc_bits);
    put_f64(buf, cfg.prog_noise_sigma);
    put_f64(buf, cfg.read_noise_sigma);
    put_f64(buf, cfg.drift_nu);
    put_f64(buf, cfg.x_clip);
    put_f64(buf, cfg.adc_headroom);
    put_f64(buf, cfg.mvm_latency_ns);
    put_f64(buf, cfg.mvm_energy_nj);
    put_u64(buf, spec.seed);
    match spec.input {
        None => buf.push(0),
        Some(shape) => {
            buf.push(1);
            put_shape(buf, shape);
        }
    }
}

/// Durations travel as nanoseconds, saturating at `u64::MAX`.
fn put_durations(buf: &mut Vec<u8>, ds: &[Duration]) {
    put_u32(buf, ds.len() as u32);
    for d in ds {
        put_u64(buf, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }
}

fn put_stats(buf: &mut Vec<u8>, s: &ServeStats) {
    put_u64(buf, s.submitted);
    put_u64(buf, s.completed);
    put_u64(buf, s.rejected);
    put_u64(buf, s.batches);
    put_u64(buf, s.dispatched);
    put_u64(buf, s.max_batch_observed as u64);
    put_u64(buf, s.qos.ecn_marks);
    // Explicit class count: a decoder built against a different
    // Priority::COUNT must reject the snapshot instead of silently
    // truncating or misaligning the per-class ledgers.
    put_u32(buf, s.qos.classes.len() as u32);
    for c in &s.qos.classes {
        put_u64(buf, c.admitted);
        put_u64(buf, c.shed_queue_full);
        put_u64(buf, c.shed_class_budget);
        put_u64(buf, c.shed_overload);
        put_u64(buf, c.infeasible);
        put_u64(buf, c.deadline_misses);
        put_durations(buf, &c.latencies);
    }
    put_durations(buf, &s.queue_waits);
}

/// Encodes one frame to its payload bytes (tag + body, **without** the
/// length prefix — [`write_frame`] adds it).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    put_payload(&mut buf, frame);
    buf
}

/// Appends one frame's payload (tag + body) to `buf`.
fn put_payload(buf: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Request(req) => {
            buf.push(TAG_REQUEST);
            put_u64(buf, req.global_index);
            put_class(buf, req.class);
            put_tensor(buf, &req.image);
        }
        Frame::Reply(rep) => {
            buf.push(TAG_REPLY);
            put_u64(buf, rep.global_index);
            buf.push(u8::from(rep.marked));
            match &rep.outcome {
                Ok(t) => {
                    buf.push(0);
                    put_tensor(buf, t);
                }
                Err(ReplyError::ShutDown) => buf.push(1),
                Err(ReplyError::Canceled) => buf.push(2),
                Err(ReplyError::Exec(msg)) => {
                    buf.push(3);
                    put_str(buf, msg);
                }
            }
        }
        Frame::Lease(lease) => {
            buf.push(TAG_LEASE);
            put_u64(buf, lease.start);
            put_u64(buf, lease.len);
        }
        Frame::Drain => buf.push(TAG_DRAIN),
        Frame::DrainDone => buf.push(TAG_DRAIN_DONE),
        Frame::Shutdown => buf.push(TAG_SHUTDOWN),
        Frame::ShutdownDone => buf.push(TAG_SHUTDOWN_DONE),
        Frame::ApplyDrift(t) => {
            buf.push(TAG_APPLY_DRIFT);
            put_f64(buf, *t);
        }
        Frame::DriftDone(modeled) => {
            buf.push(TAG_DRIFT_DONE);
            buf.push(u8::from(*modeled));
        }
        Frame::Reprogram => buf.push(TAG_REPROGRAM),
        Frame::ReprogramDone(result) => {
            buf.push(TAG_REPROGRAM_DONE);
            match result {
                Ok(()) => buf.push(0),
                Err(msg) => {
                    buf.push(1);
                    put_str(buf, msg);
                }
            }
        }
        Frame::SetParallelism(par) => {
            buf.push(TAG_SET_PARALLELISM);
            put_parallelism(buf, *par);
        }
        Frame::ParallelismSet => buf.push(TAG_PARALLELISM_SET),
        Frame::StatsProbe => buf.push(TAG_STATS_PROBE),
        Frame::Stats(s) => {
            buf.push(TAG_STATS);
            put_stats(buf, s);
        }
        Frame::Hello { resumed, version } => {
            buf.push(TAG_HELLO);
            buf.push(u8::from(*resumed));
            put_u32(buf, *version);
        }
        Frame::HelloAck { version } => {
            buf.push(TAG_HELLO_ACK);
            put_u32(buf, *version);
        }
        Frame::SpecProbe => buf.push(TAG_SPEC_PROBE),
        Frame::Spec(spec) => {
            buf.push(TAG_SPEC);
            put_spec(buf, spec);
        }
    }
}

// ---------------------------------------------------------------- decoding

/// A cursor over a decoded payload with bounds-checked readers.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("frame payload truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("invalid UTF-8 in string field"))
    }

    fn shape(&mut self) -> io::Result<Shape> {
        let c = self.u32()? as usize;
        let h = self.u32()? as usize;
        let w = self.u32()? as usize;
        Ok(Shape::new(c, h, w))
    }

    fn tensor(&mut self) -> io::Result<Tensor> {
        let shape = self.shape()?;
        let numel = shape
            .c
            .checked_mul(shape.h)
            .and_then(|ch| ch.checked_mul(shape.w))
            .ok_or_else(|| bad("tensor shape overflows"))?;
        let bytes = self.take(
            numel
                .checked_mul(4)
                .ok_or_else(|| bad("tensor too large"))?,
        )?;
        let data = bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        Ok(Tensor::from_vec(shape, data))
    }

    fn class(&mut self) -> io::Result<QosClass> {
        let rank = self.u8()?;
        let priority = Priority::from_rank(rank)
            .ok_or_else(|| bad(format!("unknown priority rank {rank}")))?;
        let deadline_ns = self.u64()?;
        Ok(QosClass {
            priority,
            deadline: (deadline_ns != NO_DEADLINE_NS).then(|| Duration::from_nanos(deadline_ns)),
        })
    }

    fn parallelism(&mut self) -> io::Result<Parallelism> {
        match self.u8()? {
            0 => Ok(Parallelism::Serial),
            1 => Ok(Parallelism::Threads(self.u64()? as usize)),
            // 2 was `PinnedThreads`, a retired variant; it now decodes as
            // an unknown tag and must not be reused.
            t => Err(bad(format!("unknown parallelism tag {t}"))),
        }
    }

    fn durations(&mut self) -> io::Result<Vec<Duration>> {
        let n = self.u32()? as usize;
        let mut ds = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            ds.push(Duration::from_nanos(self.u64()?));
        }
        Ok(ds)
    }

    fn class_stats(&mut self) -> io::Result<ClassStats> {
        Ok(ClassStats {
            admitted: self.u64()?,
            shed_queue_full: self.u64()?,
            shed_class_budget: self.u64()?,
            shed_overload: self.u64()?,
            infeasible: self.u64()?,
            deadline_misses: self.u64()?,
            latencies: self.durations()?,
        })
    }

    fn spec(&mut self) -> io::Result<ShardSpec> {
        let model_id = self.str()?;
        let xbar_cfg = XbarConfig {
            rows: self.u64()? as usize,
            cols: self.u64()? as usize,
            weight_bits: self.u32()?,
            dac_bits: self.u32()?,
            adc_bits: self.u32()?,
            prog_noise_sigma: self.f64()?,
            read_noise_sigma: self.f64()?,
            drift_nu: self.f64()?,
            x_clip: self.f64()?,
            adc_headroom: self.f64()?,
            mvm_latency_ns: self.f64()?,
            mvm_energy_nj: self.f64()?,
        };
        let seed = self.u64()?;
        let input = match self.u8()? {
            0 => None,
            1 => Some(self.shape()?),
            t => return Err(bad(format!("unknown input-shape tag {t}"))),
        };
        Ok(ShardSpec {
            model_id,
            xbar_cfg,
            seed,
            input,
        })
    }

    fn stats(&mut self) -> io::Result<ServeStats> {
        let mut s = ServeStats {
            submitted: self.u64()?,
            completed: self.u64()?,
            rejected: self.u64()?,
            batches: self.u64()?,
            dispatched: self.u64()?,
            max_batch_observed: self.u64()? as usize,
            ..ServeStats::default()
        };
        s.qos.ecn_marks = self.u64()?;
        let n_classes = self.u32()? as usize;
        if n_classes != Priority::COUNT {
            return Err(bad(format!(
                "stats class count {n_classes} does not match protocol count {}",
                Priority::COUNT
            )));
        }
        for c in s.qos.classes.iter_mut() {
            *c = self.class_stats()?;
        }
        s.queue_waits = self.durations()?;
        Ok(s)
    }

    fn finish(self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes after frame payload"))
        }
    }
}

/// Decodes one frame from its payload bytes (the inverse of
/// [`encode_frame`]); rejects truncated, trailing, or unknown-tag input
/// with `InvalidData`.
pub fn decode_frame(payload: &[u8]) -> io::Result<Frame> {
    let mut cur = Cur {
        buf: payload,
        pos: 0,
    };
    let frame = match cur.u8()? {
        TAG_REQUEST => Frame::Request(ShardRequest {
            global_index: cur.u64()?,
            class: cur.class()?,
            image: cur.tensor()?,
        }),
        TAG_REPLY => {
            let global_index = cur.u64()?;
            let marked = cur.u8()? != 0;
            let outcome = match cur.u8()? {
                0 => Ok(cur.tensor()?),
                1 => Err(ReplyError::ShutDown),
                2 => Err(ReplyError::Canceled),
                3 => Err(ReplyError::Exec(cur.str()?)),
                t => return Err(bad(format!("unknown reply outcome tag {t}"))),
            };
            Frame::Reply(ShardReply {
                global_index,
                marked,
                outcome,
            })
        }
        TAG_LEASE => Frame::Lease(IndexLease {
            start: cur.u64()?,
            len: cur.u64()?,
        }),
        TAG_DRAIN => Frame::Drain,
        TAG_DRAIN_DONE => Frame::DrainDone,
        TAG_SHUTDOWN => Frame::Shutdown,
        TAG_SHUTDOWN_DONE => Frame::ShutdownDone,
        TAG_APPLY_DRIFT => Frame::ApplyDrift(cur.f64()?),
        TAG_DRIFT_DONE => Frame::DriftDone(cur.u8()? != 0),
        TAG_REPROGRAM => Frame::Reprogram,
        TAG_REPROGRAM_DONE => match cur.u8()? {
            0 => Frame::ReprogramDone(Ok(())),
            1 => Frame::ReprogramDone(Err(cur.str()?)),
            t => return Err(bad(format!("unknown reprogram outcome tag {t}"))),
        },
        TAG_SET_PARALLELISM => Frame::SetParallelism(cur.parallelism()?),
        TAG_PARALLELISM_SET => Frame::ParallelismSet,
        TAG_STATS_PROBE => Frame::StatsProbe,
        TAG_STATS => Frame::Stats(cur.stats()?),
        TAG_HELLO => Frame::Hello {
            resumed: cur.u8()? != 0,
            version: cur.u32()?,
        },
        TAG_HELLO_ACK => Frame::HelloAck {
            version: cur.u32()?,
        },
        TAG_SPEC_PROBE => Frame::SpecProbe,
        TAG_SPEC => Frame::Spec(cur.spec()?),
        t => return Err(bad(format!("unknown frame tag {t}"))),
    };
    cur.finish()?;
    Ok(frame)
}

// ---------------------------------------------------------------- framing

/// Appends one length-prefixed frame — exactly the bytes [`write_frame`]
/// writes — to `buf`, so several frames can leave in a single write.
///
/// # Errors
/// `InvalidData` if the payload exceeds the protocol maximum; `buf` is
/// then left as it was.
pub fn append_frame(buf: &mut Vec<u8>, frame: &Frame) -> io::Result<()> {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    put_payload(buf, frame);
    match u32::try_from(buf.len() - at - 4) {
        Ok(len) if len <= MAX_FRAME_LEN => {
            buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
            Ok(())
        }
        _ => {
            buf.truncate(at);
            Err(bad("frame exceeds protocol maximum"))
        }
    }
}

/// Writes one length-prefixed frame with a single `write_all` and flushes
/// the writer (a frame is a complete protocol action; latency beats
/// buffering here). Prefix and payload leave together: on a socket with
/// `TCP_NODELAY`, two writes would be two segments.
///
/// # Errors
/// Any I/O error from the underlying writer.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let mut buf = Vec::new();
    append_frame(&mut buf, frame)?;
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one length-prefixed frame.
///
/// # Errors
/// `UnexpectedEof` on a cleanly closed stream (no partial frame pending),
/// `InvalidData` on a malformed frame, or any underlying I/O error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(bad("frame length exceeds protocol maximum"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    decode_frame(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QosStats, PROTOCOL_VERSION};

    fn tensor(vals: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::new(1, 1, vals.len()), vals.to_vec())
    }

    #[test]
    fn request_reply_round_trip_is_bit_exact() {
        // NaN and negative zero: equality of the re-decoded tensor is
        // checked on raw bits, the same bar the fleet invariance sets.
        let image = tensor(&[1.5, -0.0, f32::NAN, f32::MIN_POSITIVE]);
        let frames = [
            Frame::Request(ShardRequest {
                global_index: u64::MAX,
                class: QosClass::high().with_deadline(Duration::from_micros(250)),
                image: image.clone(),
            }),
            Frame::Reply(ShardReply {
                global_index: 7,
                marked: true,
                outcome: Ok(image),
            }),
            Frame::Reply(ShardReply {
                global_index: 8,
                marked: false,
                outcome: Err(ReplyError::Exec("shape mismatch".into())),
            }),
        ];
        for f in &frames {
            let decoded = decode_frame(&encode_frame(f)).unwrap();
            match (f, &decoded) {
                (Frame::Request(a), Frame::Request(b)) => {
                    assert_eq!(a.global_index, b.global_index);
                    assert_eq!(a.class, b.class);
                    let bits =
                        |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&a.image), bits(&b.image));
                    assert_eq!(a.image.shape(), b.image.shape());
                }
                (Frame::Reply(a), Frame::Reply(b)) => {
                    assert_eq!(a.global_index, b.global_index);
                    assert_eq!(a.marked, b.marked);
                    match (&a.outcome, &b.outcome) {
                        (Ok(x), Ok(y)) => {
                            let bits = |t: &Tensor| {
                                t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            };
                            assert_eq!(bits(x), bits(y));
                        }
                        (Err(x), Err(y)) => assert_eq!(x, y),
                        _ => panic!("outcome kind changed over the wire"),
                    }
                }
                _ => panic!("frame kind changed over the wire"),
            }
        }
    }

    #[test]
    fn control_frames_round_trip() {
        let frames = [
            Frame::Hello {
                resumed: false,
                version: PROTOCOL_VERSION,
            },
            Frame::Hello {
                resumed: true,
                version: u32::MAX,
            },
            Frame::HelloAck {
                version: PROTOCOL_VERSION,
            },
            Frame::HelloAck { version: 0 },
            Frame::Lease(IndexLease::new(64, 16)),
            Frame::Drain,
            Frame::DrainDone,
            Frame::Shutdown,
            Frame::ShutdownDone,
            Frame::ApplyDrift(1e4),
            Frame::DriftDone(true),
            Frame::DriftDone(false),
            Frame::Reprogram,
            Frame::ReprogramDone(Ok(())),
            Frame::ReprogramDone(Err("weights missing".into())),
            Frame::SetParallelism(Parallelism::Serial),
            Frame::SetParallelism(Parallelism::Threads(8)),
            Frame::ParallelismSet,
            Frame::StatsProbe,
            Frame::Stats(ServeStats {
                submitted: 10,
                completed: 9,
                rejected: 1,
                batches: 4,
                dispatched: 9,
                max_batch_observed: 3,
                queue_waits: [0, 1_000, u64::MAX].map(Duration::from_nanos).to_vec(),
                qos: QosStats {
                    classes: [
                        ClassStats {
                            admitted: 4,
                            infeasible: 1,
                            deadline_misses: 2,
                            latencies: vec![Duration::from_nanos(10), Duration::from_nanos(20)],
                            ..ClassStats::default()
                        },
                        ClassStats {
                            admitted: 3,
                            shed_queue_full: 1,
                            shed_overload: 2,
                            latencies: vec![Duration::from_nanos(u64::MAX)],
                            ..ClassStats::default()
                        },
                        ClassStats {
                            admitted: 2,
                            shed_class_budget: 7,
                            shed_overload: 9,
                            deadline_misses: 1,
                            ..ClassStats::default()
                        },
                    ],
                    ecn_marks: 5,
                },
            }),
        ];
        for f in &frames {
            assert_eq!(&decode_frame(&encode_frame(f)).unwrap(), f);
        }
    }

    #[test]
    fn spec_frames_round_trip() {
        let frames = [
            Frame::SpecProbe,
            Frame::Spec(ShardSpec::golden("resnet18")),
            Frame::Spec(ShardSpec::default()),
            Frame::Spec(ShardSpec::analog(
                "vgg-a",
                XbarConfig::hermes_256().with_size(32, 4),
                0xDEAD_BEEF,
            )),
            Frame::Spec(ShardSpec {
                input: Some(Shape::new(3, 32, 32)),
                ..ShardSpec::analog("resnet18", XbarConfig::hermes_256(), 7)
            }),
            Frame::Spec(ShardSpec {
                model_id: String::new(), // empty ids survive too
                xbar_cfg: XbarConfig {
                    prog_noise_sigma: f64::MIN_POSITIVE,
                    read_noise_sigma: -0.0,
                    drift_nu: 0.05,
                    ..XbarConfig::ideal(1, 1)
                },
                seed: u64::MAX,
                input: Some(Shape::new(u32::MAX as usize, 1, 0)),
            }),
        ];
        for f in &frames {
            let decoded = decode_frame(&encode_frame(f)).unwrap();
            match (f, &decoded) {
                (Frame::SpecProbe, Frame::SpecProbe) => {}
                (Frame::Spec(a), Frame::Spec(b)) => {
                    assert_eq!(a.model_id, b.model_id);
                    assert_eq!(a.seed, b.seed);
                    assert_eq!(a.xbar_cfg, b.xbar_cfg);
                    assert_eq!(a.input, b.input);
                    // Sigmas compare on raw bits (the -0.0 case).
                    let (x, y) = (&a.xbar_cfg, &b.xbar_cfg);
                    assert_eq!(x.prog_noise_sigma.to_bits(), y.prog_noise_sigma.to_bits());
                    assert_eq!(x.read_noise_sigma.to_bits(), y.read_noise_sigma.to_bits());
                    assert_eq!(x.drift_nu.to_bits(), y.drift_nu.to_bits());
                }
                _ => panic!("frame kind changed over the wire"),
            }
        }
        // Truncations of a spec frame are decode errors, never panics.
        let good = encode_frame(&Frame::Spec(ShardSpec {
            input: Some(Shape::new(3, 8, 8)),
            ..ShardSpec::analog("m", XbarConfig::hermes_256(), 7)
        }));
        for cut in 0..good.len() {
            assert!(decode_frame(&good[..cut]).is_err());
        }
        // So is an unknown input-shape tag (the byte before the shape's
        // three u32s that end the payload).
        let mut bad_tag = good.clone();
        assert_eq!(bad_tag[good.len() - 13], 1);
        bad_tag[good.len() - 13] = 2;
        assert!(decode_frame(&bad_tag).is_err());
    }

    /// Seed and model id both split analog specs, and the golden
    /// constructor is seed-free: all golden shards of one model are
    /// replicas.
    #[test]
    fn spec_constructors_encode_the_grouping_rules() {
        let cfg = XbarConfig::hermes_256();
        let a = ShardSpec::analog("m", cfg.clone(), 7);
        assert_ne!(a, ShardSpec::analog("m", cfg.clone(), 8), "seed matters");
        assert_ne!(
            a,
            ShardSpec::analog("m2", cfg, 7),
            "model id matters even at equal device recipes"
        );
        assert_eq!(ShardSpec::golden("g"), ShardSpec::golden("g"));
        assert_eq!(ShardSpec::default().model_id, "default");
    }

    #[test]
    fn framing_round_trips_over_a_byte_stream() {
        let frames = [
            Frame::Drain,
            Frame::Request(ShardRequest {
                global_index: 3,
                class: QosClass::low(),
                image: tensor(&[1.0, 2.0]),
            }),
            Frame::StatsProbe,
        ];
        let mut stream = Vec::new();
        for f in &frames {
            write_frame(&mut stream, f).unwrap();
        }
        let mut r = stream.as_slice();
        for f in &frames {
            assert_eq!(&read_frame(&mut r).unwrap(), f);
        }
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    /// Counts the `write` calls a writer receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Prefix and payload leave in one `write` call per frame (on a
    /// `TCP_NODELAY` socket each write is a segment), and frames appended
    /// into one buffer are byte-identical to frames written one by one.
    #[test]
    fn write_frame_makes_one_write_per_frame() {
        let frames = [
            Frame::Hello {
                resumed: false,
                version: PROTOCOL_VERSION,
            },
            Frame::Request(ShardRequest {
                global_index: 9,
                class: QosClass::high(),
                image: tensor(&[0.5; 48]),
            }),
            Frame::Reply(ShardReply {
                global_index: 9,
                marked: true,
                outcome: Ok(tensor(&[1.0, -2.0, 3.0, 4.0])),
            }),
            Frame::Lease(IndexLease::new(4, 4)),
            Frame::Drain,
        ];
        let mut w = CountingWriter::default();
        let mut appended = Vec::new();
        for (n, f) in frames.iter().enumerate() {
            write_frame(&mut w, f).unwrap();
            assert_eq!(w.writes, n + 1, "frame {n} took more than one write");
            append_frame(&mut appended, f).unwrap();
        }
        assert_eq!(w.bytes, appended);
    }

    #[test]
    fn malformed_input_is_invalid_data_not_a_panic() {
        // Unknown tags, the retired `ReplayLeases` tag among them.
        for tag in [17, 200] {
            assert_eq!(
                decode_frame(&[tag]).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
        }
        // Unknown parallelism tags, the retired `PinnedThreads` tag 2
        // among them, even when a well-formed worker count follows.
        for tag in [2u8, 3, 255] {
            let mut frame = vec![TAG_SET_PARALLELISM, tag];
            frame.extend_from_slice(&6u64.to_le_bytes());
            assert_eq!(
                decode_frame(&frame).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
        }
        // Truncated payloads at every prefix of a valid frame.
        let good = encode_frame(&Frame::Request(ShardRequest {
            global_index: 1,
            class: QosClass::default().with_deadline(Duration::from_millis(5)),
            image: tensor(&[1.0, 2.0, 3.0]),
        }));
        for cut in 0..good.len() {
            assert!(
                decode_frame(&good[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_frame(&long).is_err());
        // Oversized declared length never allocates absurdly.
        let mut stream: &[u8] = &u32::MAX.to_le_bytes();
        assert_eq!(
            read_frame(&mut stream).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Tensor whose declared shape overflows usize.
        let mut evil = vec![TAG_REQUEST];
        evil.extend_from_slice(&0u64.to_le_bytes());
        evil.push(0); // valid priority rank
        evil.extend_from_slice(&u64::MAX.to_le_bytes()); // no deadline
        for _ in 0..3 {
            evil.extend_from_slice(&u32::MAX.to_le_bytes());
        }
        assert!(decode_frame(&evil).is_err());
        // Unknown priority rank is rejected, not wrapped around.
        let mut bad_rank = vec![TAG_REQUEST];
        bad_rank.extend_from_slice(&0u64.to_le_bytes());
        bad_rank.push(17);
        bad_rank.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&bad_rank).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// A stats snapshot whose class count disagrees with the protocol's
    /// [`Priority::COUNT`] (codec version skew) is a decode error — never
    /// a silent truncation of the per-class ledgers.
    #[test]
    fn mismatched_stats_class_count_is_a_decode_error() {
        let stats = ServeStats {
            submitted: 3,
            completed: 3,
            ..ServeStats::default()
        };
        let mut payload = encode_frame(&Frame::Stats(stats.clone()));
        // Round trip at the correct count first, so the tamper below is
        // provably the only difference.
        assert_eq!(decode_frame(&payload).unwrap(), Frame::Stats(stats));
        // The class-count field sits right after the tag byte and the
        // seven u64 counters.
        let count_at = 1 + 7 * 8;
        assert_eq!(
            u32::from_le_bytes(payload[count_at..count_at + 4].try_into().unwrap()),
            Priority::COUNT as u32
        );
        payload[count_at..count_at + 4].copy_from_slice(&2u32.to_le_bytes());
        let err = decode_frame(&payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("class count"),
            "error names the skew: {err}"
        );
    }

    /// A duration past `u64::MAX` nanoseconds (about 584 years) encodes as
    /// `u64::MAX` ns: the encode saturates instead of wrapping.
    #[test]
    fn stats_durations_saturate_at_u64_max_nanoseconds() {
        let mut stats = ServeStats {
            queue_waits: vec![Duration::MAX],
            ..ServeStats::default()
        };
        stats.qos.classes[0].latencies = vec![Duration::from_secs(u64::MAX)];
        let Frame::Stats(decoded) = decode_frame(&encode_frame(&Frame::Stats(stats))).unwrap()
        else {
            panic!("frame kind changed over the wire")
        };
        let saturated = Duration::from_nanos(u64::MAX);
        assert_eq!(decoded.queue_waits, vec![saturated]);
        assert_eq!(decoded.qos.classes[0].latencies, vec![saturated]);
    }
}
