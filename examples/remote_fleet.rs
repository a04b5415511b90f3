//! Distributed serving walkthrough: shards behind the wire protocol.
//!
//! Spins up **two `ShardServer`s on loopback TCP** — each hosting a
//! replica programmed from the same seed, exactly what two remote hosts
//! would run — then assembles a **mixed fleet** through
//! `Platform::serve_fleet_with`: one in-process shard (`local_shard`,
//! zero-copy) plus the two TCP transports, with a routing block length of
//! 4, so each seat receives runs of 4 consecutive requests.
//!
//! The payoff is the fleet invariance, extended across placement: the
//! served logits are **bit-identical** to a solo `Session::infer_one`
//! stream — crossing a socket changes nothing, because results are keyed
//! to global stream coordinates, not to where (or how) a request was
//! evaluated.
//!
//! ```text
//! cargo run --release --example remote_fleet
//! ```

use aimc_platform::prelude::*;
use aimc_platform::serve::RoutePolicy;
use std::net::TcpListener;
use std::time::Duration;

fn random_images(n: usize, shape: Shape, seed: u64) -> Vec<Tensor> {
    // Deterministic pseudo-images (xorshift), no RNG dependency needed.
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1 << 24) as f32 * 2.0 - 1.0
    };
    (0..n)
        .map(|_| Tensor::from_vec(shape, (0..shape.numel()).map(|_| next()).collect()))
        .collect()
}

fn main() -> Result<(), Error> {
    let platform = Platform::builder()
        .graph(resnet18_cifar(10))
        .arch(ArchConfig::small(8, 8))
        .he_weights(42)
        .build()?;
    let backend = Backend::analog(7, XbarConfig::hermes_256());
    let policy = BatchPolicy::new(4, Duration::from_millis(2));
    let shape = Shape::new(3, 32, 32);

    // --- Host side: two shard servers on loopback ---------------------------
    // On a real deployment each of these runs on its own machine; the only
    // thing they share with the router is the seed (and the wire protocol).
    let mut server_threads = Vec::new();
    let mut addrs = Vec::new();
    for host in 0..2 {
        let server = platform.shard_server(policy, &backend)?;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        println!("shard server {host} listening on {addr}");
        addrs.push(addr);
        server_threads.push(std::thread::spawn(move || {
            server.serve_next(&listener).expect("serve connection");
        }));
    }

    // --- Router side: one local shard + two TCP transports ------------------
    let mut transports: Vec<Box<dyn ShardTransport>> = Vec::new();
    transports.push(Box::new(platform.local_shard(policy, &backend)?));
    for addr in &addrs {
        transports.push(Box::new(TcpTransport::connect(addr).expect("connect")));
    }
    let fleet = platform.serve_fleet_with(
        transports,
        FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(4),
    )?;
    println!(
        "fleet: {} shards (1 local + 2 tcp), routing block length {}",
        fleet.shard_count(),
        fleet.lease_len()
    );

    // --- Serve a stream and compare with solo inference ---------------------
    let stream = random_images(12, shape, 100);
    let pendings: Vec<Pending> = stream
        .iter()
        .map(|x| fleet.submit(x.clone()).expect("fleet open"))
        .collect();
    let logits: Vec<Tensor> = pendings
        .into_iter()
        .map(|p| p.wait().expect("request completes"))
        .collect();

    let mut solo = platform.session();
    let reference: Vec<Tensor> = stream
        .iter()
        .map(|x| solo.infer_one(x, backend.clone()))
        .collect::<Result<_, _>>()?;
    println!(
        "12 requests over 3 shards: bit-identical to solo inference: {}",
        logits == reference
    );
    assert_eq!(logits, reference, "placement leaked into the results");

    // Per-shard statistics — remote stats travel back over the wire.
    for (i, s) in fleet.stats().shards.iter().enumerate() {
        println!(
            "  shard {i}: {} requests, {} batches, mean batch {:.2}",
            s.submitted,
            s.batches,
            s.mean_batch()
        );
    }

    fleet.shutdown();
    for t in server_threads {
        t.join().expect("server settles");
    }
    println!("same seed, any transport mix => identical logits");
    Ok(())
}
