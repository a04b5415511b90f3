//! Property tests for the wire codec: every frame the protocol can
//! express survives encode → decode unchanged, including the length-
//! prefixed stream framing — the property the remote fleet's bit-exact
//! invariance rests on.

use aimc_dnn::{Shape, Tensor};
use aimc_parallel::Parallelism;
use aimc_wire::{
    decode_frame, encode_frame, read_frame, write_frame, Frame, IndexLease, NoiseSpec, Priority,
    QosClass, ReplyError, ShardReply, ShardRequest, ShardSpec, WireClassStats, WireStats,
};
use aimc_xbar::XbarConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A random tensor with a small random shape; values include the full f32
/// range via raw bit patterns (NaNs excluded so `PartialEq` can witness
/// the round trip — bit-exactness for NaN is covered by the unit tests).
fn random_tensor(rng: &mut StdRng) -> Tensor {
    let shape = Shape::new(
        rng.gen_range(1usize..4),
        rng.gen_range(1usize..4),
        rng.gen_range(1usize..5),
    );
    let data = (0..shape.numel())
        .map(|_| loop {
            let v = f32::from_bits(rng.gen::<u32>());
            if !v.is_nan() {
                break v;
            }
        })
        .collect();
    Tensor::from_vec(shape, data)
}

fn random_string(rng: &mut StdRng) -> String {
    let n = rng.gen_range(0usize..24);
    (0..n)
        .map(|_| char::from(rng.gen_range(b' '..b'~')))
        .collect()
}

/// A random QoS class: any priority rank, deadline present or absent.
/// Deadlines stay below the codec's `u64::MAX` "no deadline" sentinel.
fn random_class(rng: &mut StdRng) -> QosClass {
    QosClass {
        priority: Priority::from_rank(rng.gen_range(0u8..Priority::COUNT as u8)).unwrap(),
        deadline: rng
            .gen::<bool>()
            .then(|| Duration::from_nanos(rng.gen_range(0..u64::MAX - 1))),
    }
}

fn random_class_stats(rng: &mut StdRng) -> WireClassStats {
    WireClassStats {
        admitted: rng.gen(),
        shed_queue_full: rng.gen(),
        shed_class_budget: rng.gen(),
        shed_overload: rng.gen(),
        infeasible: rng.gen(),
        deadline_misses: rng.gen(),
        latencies_ns: (0..rng.gen_range(0usize..16)).map(|_| rng.gen()).collect(),
    }
}

/// A random shard spec: arbitrary model id, geometry, noise channels,
/// seed and input shape, present or absent (non-NaN floats so `PartialEq`
/// can witness the round trip).
fn random_spec(rng: &mut StdRng) -> ShardSpec {
    let finite = |rng: &mut StdRng| {
        let v = f64::from_bits(rng.gen::<u64>()).abs() % 1e6;
        if v.is_finite() {
            v
        } else {
            0.5
        }
    };
    let mut cfg = XbarConfig::hermes_256()
        .with_size(rng.gen_range(1usize..1024), rng.gen_range(1usize..1024));
    cfg.weight_bits = rng.gen_range(1..16);
    cfg.prog_noise_sigma = finite(rng);
    cfg.read_noise_sigma = finite(rng);
    cfg.drift_nu = finite(rng);
    ShardSpec {
        model_id: random_string(rng),
        xbar_cfg: cfg,
        noise: NoiseSpec {
            prog_sigma: finite(rng),
            read_sigma: finite(rng),
            drift_nu: finite(rng),
        },
        seed: rng.gen(),
        input: rng.gen::<bool>().then(|| {
            Shape::new(
                rng.gen_range(1usize..512),
                rng.gen_range(1usize..512),
                rng.gen_range(1usize..512),
            )
        }),
    }
}

/// Draws one frame covering every variant and every nested outcome arm.
fn random_frame(rng: &mut StdRng) -> Frame {
    match rng.gen_range(0u32..19) {
        0 => Frame::Request(ShardRequest {
            global_index: rng.gen(),
            class: random_class(rng),
            image: random_tensor(rng),
        }),
        1 => Frame::Reply(ShardReply {
            global_index: rng.gen(),
            marked: rng.gen(),
            outcome: Ok(random_tensor(rng)),
        }),
        2 => Frame::Reply(ShardReply {
            global_index: rng.gen(),
            marked: rng.gen(),
            outcome: Err(match rng.gen_range(0u32..3) {
                0 => ReplyError::ShutDown,
                1 => ReplyError::Canceled,
                _ => ReplyError::Exec(random_string(rng)),
            }),
        }),
        3 => Frame::Lease(IndexLease::new(rng.gen(), rng.gen_range(0u64..1 << 20))),
        4 => Frame::Drain,
        5 => Frame::DrainDone,
        6 => Frame::Shutdown,
        7 => Frame::ShutdownDone,
        8 => Frame::ApplyDrift(f64::from_bits(rng.gen::<u64>() | 1).abs() % 1e9),
        9 => Frame::DriftDone(rng.gen()),
        10 => Frame::Reprogram,
        11 => Frame::ReprogramDone(if rng.gen() {
            Ok(())
        } else {
            Err(random_string(rng))
        }),
        12 => Frame::SetParallelism(if rng.gen() {
            Parallelism::Serial
        } else {
            Parallelism::Threads(rng.gen_range(0usize..256))
        }),
        13 => Frame::ParallelismSet,
        14 => Frame::StatsProbe,
        15 => Frame::Stats(WireStats {
            submitted: rng.gen(),
            completed: rng.gen(),
            rejected: rng.gen(),
            batches: rng.gen(),
            dispatched: rng.gen(),
            max_batch_observed: rng.gen(),
            ecn_marks: rng.gen(),
            drift_age: rng.gen(),
            reprograms: rng.gen(),
            classes: [
                random_class_stats(rng),
                random_class_stats(rng),
                random_class_stats(rng),
            ],
            queue_waits_ns: (0..rng.gen_range(0usize..64)).map(|_| rng.gen()).collect(),
        }),
        16 => Frame::SpecProbe,
        17 => Frame::Spec(random_spec(rng)),
        _ => Frame::Request(ShardRequest {
            global_index: 0,
            class: QosClass::default(),
            image: Tensor::zeros(Shape::new(1, 1, 1)),
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity for every frame.
    #[test]
    fn codec_round_trips_every_frame(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = random_frame(&mut rng);
        let decoded = decode_frame(&encode_frame(&frame)).unwrap();
        prop_assert_eq!(&decoded, &frame, "payload round trip changed the frame");
    }

    /// A whole stream of length-prefixed frames re-frames exactly, in
    /// order — no frame boundary depends on frame contents.
    #[test]
    fn stream_framing_round_trips(seed in any::<u64>(), n in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frames: Vec<Frame> = (0..n).map(|_| random_frame(&mut rng)).collect();
        let mut stream = Vec::new();
        for f in &frames {
            write_frame(&mut stream, f).unwrap();
        }
        let mut r = stream.as_slice();
        for f in &frames {
            prop_assert_eq!(&read_frame(&mut r).unwrap(), f);
        }
        prop_assert!(r.is_empty(), "framing consumed the wrong byte count");
    }

    /// Decoding never panics on arbitrary bytes: any mutation of a valid
    /// payload either decodes to some frame or fails cleanly.
    #[test]
    fn decode_is_total_on_corrupted_payloads(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut payload = encode_frame(&random_frame(&mut rng));
        for _ in 0..8 {
            match rng.gen_range(0u32..3) {
                0 if !payload.is_empty() => {
                    let i = rng.gen_range(0..payload.len());
                    payload[i] = rng.gen_range(0u8..=255);
                }
                1 => payload.truncate(rng.gen_range(0..=payload.len())),
                _ => payload.push(rng.gen_range(0u8..=255)),
            }
            let _ = decode_frame(&payload); // must not panic
        }
        prop_assert!(true);
    }
}
