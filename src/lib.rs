//! # aimc-platform — end-to-end DNN inference on a massively parallel
//! analog in-memory computing architecture
//!
//! Facade crate over the whole stack, reproduced from the DATE 2023 paper
//! *"End-to-End DNN Inference on a Massively Parallel Analog In Memory
//! Computing Architecture"* (Bruschi et al.):
//!
//! | layer | crate | contents |
//! |-------|-------|----------|
//! | simulation kernel | [`sim`] | event queue, simulated time, activity stats |
//! | analog device | [`xbar`] | PCM crossbar: noise, converters, MVM timing/energy |
//! | workloads | [`dnn`] | tensors, graphs, ResNet-18, golden + analog executors |
//! | interconnect | [`noc`] | quadrant-tree AXI network + HBM controller |
//! | cluster | [`cluster`] | IMA subsystem, digital kernels, L1, DMA |
//! | **mapping compiler** | [`core`] | splits, reduction trees, tiling, replication, residual placement |
//! | runtime | [`runtime`] | self-timed pipelined simulation + analyses |
//! | serving layer | [`serve`] | async micro-batch scheduler + transport-agnostic fleet router, batch-composition-invariant |
//! | wire protocol | [`wire`] | serializable shard command frames, hand-rolled codec, duplex test pipe |
//! | **facade** | this crate | [`Platform`] builder, [`Session`], unified [`Error`] |
//!
//! ## Quickstart
//!
//! The user-facing API is the [`Platform`] builder plus the [`Session`]
//! object: the builder compiles the workload onto the platform **once**
//! (caching the [`core::SystemMapping`]); the session then evaluates it
//! many times — timing runs, functional inference on either backend, and
//! the paper's headline metrics — without re-compiling or re-programming
//! anything:
//!
//! ```no_run
//! use aimc_platform::prelude::*;
//!
//! # fn main() -> Result<(), aimc_platform::Error> {
//! let mut session = Platform::builder()
//!     .graph(resnet18(256, 256, 1000))           // the paper's workload
//!     .arch(ArchConfig::paper())                 // the Table I platform
//!     .strategy(MappingStrategy::OnChipResiduals)
//!     .he_weights(42)                            // weights for functional inference
//!     .build()?                                  // mapping compiled here, once
//!     .session();
//!
//! // Timing: the event-driven pipeline simulator (cached per batch size).
//! let report = session.run(RunSpec::batch(16))?;
//! println!("{:.1} TOPS, {:.0} images/s", report.tops(), report.images_per_s());
//!
//! // Sec. VI headline metrics from the same run.
//! let headline = session.headline(&EnergyModel::default(), &AreaModel::default())?;
//! println!("{}", headline.render());
//!
//! // Functional inference: programmed crossbars are retained across calls.
//! let image = Tensor::zeros(Shape::new(3, 256, 256));
//! let golden = session.infer_one(&image, Backend::Golden)?;
//! let analog = session.infer_one(
//!     &image,
//!     Backend::analog(7, XbarConfig::hermes_256()),
//! )?;
//! assert_eq!(golden.shape(), analog.shape());
//! # Ok(())
//! # }
//! ```
//!
//! Every fallible step returns the unified [`Error`] — mapping failures,
//! crossbar programming failures, missing weights, and shape mismatches
//! are values, not panics.
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aimc_cluster as cluster;
pub use aimc_core as core;
pub use aimc_dnn as dnn;
pub use aimc_noc as noc;
pub use aimc_parallel as parallel;
pub use aimc_runtime as runtime;
pub use aimc_serve as serve;
pub use aimc_sim as sim;
pub use aimc_wire as wire;
pub use aimc_xbar as xbar;

mod error;
mod session;

pub use aimc_parallel::Parallelism;
pub use error::{BuildError, Error};
pub use session::{Backend, ModelGroup, Platform, PlatformBuilder, RunSpec, Session};

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use crate::{
        Backend, BuildError, Error, ModelGroup, Platform, PlatformBuilder, RunSpec, Session,
    };
    pub use aimc_core::{map_network, ArchConfig, MapError, MappingStrategy, SystemMapping};
    pub use aimc_dnn::{
        execute_golden, he_init, infer_golden, resnet18, resnet18_cifar, try_execute_golden,
        AimcExecutor, ConvCfg, ExecError, Executor, GoldenExecutor, Graph, GraphBuilder, Shape,
        Tensor, Weights,
    };
    pub use aimc_parallel::Parallelism;
    pub use aimc_runtime::{
        group_area_efficiency, link_loads, simulate, AreaModel, EnergyModel, Headline, LinkLoad,
        RunReport, SimError, Waterfall,
    };
    pub use aimc_serve::{
        AimdPacer, BatchPolicy, ClassStats, Connect, FleetHandle, FleetPolicy, FleetStats,
        LocalTransport, PacerConfig, Pending, Priority, QosClass, QosOrdering, QosStats,
        RecalHandle, RecalPolicy, RecalStats, Request, RetryPolicy, RoutePolicy, ServeError,
        ServeStats, ShardHealth, ShardLoad, ShardServer, ShardSpec, ShardTransport, ShedReason,
        TcpTransport,
    };
    pub use aimc_sim::SimTime;
    pub use aimc_xbar::{Crossbar, XbarConfig, XbarError};
}
