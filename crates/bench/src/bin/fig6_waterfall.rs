//! Regenerates **Fig. 6** — performance degradation from the 516-TOPS ideal
//! through global mapping, local mapping, intra-layer unbalance and
//! communication — plus the per-tier interconnect load behind the last
//! step.
//!
//! ```text
//! cargo run --release -p aimc-bench --bin fig6_waterfall [batch]
//! ```

use aimc_core::MappingStrategy;
use aimc_platform::{Error, RunSpec};

fn main() -> Result<(), Error> {
    let batch = aimc_bench::batch_from_args();
    let mut session = aimc_bench::paper_session(MappingStrategy::OnChipResiduals)?;
    session.run(RunSpec::batch(batch))?;
    let w = session.waterfall()?;
    println!("Fig. 6 — performance degradation by non-ideality (batch {batch})\n");
    println!("{}", w.render());
    let f = w.cumulative_factors();
    println!(
        "cumulative factors: global {:.1}x, local {:.1}x, unbalance {:.1}x, communication {:.1}x",
        f[0], f[1], f[2], f[3]
    );
    println!("paper:              global 1.6x, local 4.7x, unbalance 23.8x, communication 28.4x");
    println!("\nInterconnect load behind the communication step, per tier:\n");
    print!("{}", w.render_links());
    Ok(())
}
