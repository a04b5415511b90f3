//! Ablation: PCM conductance drift over deployment time. Non-volatile AIMC
//! stores weights once and infers for months (Sec. I: parameters "do not
//! need to be transferred from on- or off-chip storage"); drift slowly
//! decays conductances as `g(t) = g₀ (t/t₀)^{-ν}`. This study measures
//! classification agreement of the analog executor against the digital
//! golden model as a function of time since programming.
//!
//! ```text
//! cargo run --release -p aimc-bench --bin ablation_drift
//! ```

use aimc_core::ArchConfig;
use aimc_dnn::{resnet18_cifar, Shape, Tensor};
use aimc_platform::{Backend, Error, Platform};
use aimc_xbar::XbarConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Error> {
    // Functional study on the CIFAR-scale network: the timing platform is
    // irrelevant here, so compile onto the small configuration.
    let mut session = Platform::builder()
        .graph(resnet18_cifar(10))
        .arch(ArchConfig::small(8, 8))
        .he_weights(42)
        .build()?
        .session();

    let mut rng = StdRng::seed_from_u64(9);
    let n = 20;
    let images: Vec<Tensor> = (0..n)
        .map(|_| {
            let s = Shape::new(3, 32, 32);
            Tensor::from_vec(
                s,
                (0..s.numel())
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect(),
            )
        })
        .collect();
    let golden: Vec<usize> = session
        .infer(&images, Backend::Golden)?
        .iter()
        .map(|y| y.argmax())
        .collect();

    println!("Ablation — PCM drift vs classification agreement ({n} inputs)\n");
    println!(
        "{:<22} {:>12} {:>12}",
        "time since program", "g decay", "agreement"
    );
    let analog = Backend::analog(1, XbarConfig::hermes_256());
    for (label, hours) in [
        ("1 hour", 1.0),
        ("1 day", 24.0),
        ("1 month", 24.0 * 30.0),
        ("1 year", 24.0 * 365.0),
    ] {
        // Drift sets the time since programming, so no level needs fresh
        // arrays; the reprogram rewinds the session's stream, so every time
        // point evaluates the same read-noise coordinates.
        session.reprogram(&analog)?;
        session.apply_drift(hours)?;
        let agree = session
            .infer(&images, analog.clone())?
            .iter()
            .zip(&golden)
            .filter(|(y, &g)| y.argmax() == g)
            .count();
        let decay = hours.max(1.0).powf(-XbarConfig::hermes_256().drift_nu);
        println!(
            "{:<22} {:>11.1}% {:>9}/{:<2}",
            label,
            decay * 100.0,
            agree,
            n
        );
    }
    println!("\nnote: uniform drift mostly rescales logits; agreement degrades slowly —");
    println!("the known robustness of ratio-preserving drift (compensable by a single");
    println!("per-layer gain, as HERMES-class systems do).");
    Ok(())
}
