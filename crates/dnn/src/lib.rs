//! # aimc-dnn — DNN substrate
//!
//! Everything the platform needs to know about the workloads it executes:
//! tensors, layer definitions with shape/MAC/parameter inference, the network
//! DAG (Fig. 2A of the paper), a ResNet-18 builder matching the paper's
//! layer numbering, deterministic synthetic weights, and two functional
//! executors:
//!
//! * [`GoldenExecutor`] / [`execute_golden`] — digital f32 ground truth;
//! * [`AimcExecutor`] — the same graph with convolutions/FC evaluated on the
//!   modeled PCM crossbars of `aimc-xbar`, split across arrays exactly like
//!   the multi-cluster mapping of Sec. V-1 (via the shared [`ceil_split`]).
//!
//! Both implement the [`Executor`] trait — program once, then stream
//! images — with failures surfaced as [`ExecError`] values; the
//! `aimc-platform` facade selects between them via its `Backend` enum.
//!
//! The *timing* of execution is not modeled here — that is `aimc-core`
//! (mapping) plus `aimc-runtime` (pipelined simulation); this crate answers
//! structural questions (shapes, ops, parameters) and functional ones
//! (numerical results through analog arrays).
//!
//! ## Example
//! ```
//! use aimc_dnn::{resnet18, layer_group};
//! let g = resnet18(256, 256, 1000);
//! assert_eq!(g.len(), 28);                    // Fig. 2A: nodes 0..=27
//! assert_eq!(g.node(21).kind.params(), 2_359_296); // "2.3M parameters"
//! assert_eq!(layer_group(&g, 21), 5);         // Fig. 7 group "8x8x512"
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aimc_exec;
mod exec;
mod executor;
mod graph;
mod layer;
pub mod ops;
mod resnet;
mod tensor;
mod weights;
mod zoo;

pub use aimc_exec::AimcExecutor;
pub use aimc_parallel::Parallelism;
pub use exec::{execute_golden, infer_golden, skip_producer, try_execute_golden};
pub use executor::{ExecError, Executor, GoldenExecutor};
pub use graph::{Graph, GraphBuilder, Node, NodeId};
pub use layer::{ConvCfg, LayerKind};
pub use ops::ceil_split;
pub use resnet::{group_label, is_digital_layer, layer_group, resnet18, resnet18_cifar};
pub use tensor::{Shape, Tensor};
pub use weights::{he_init, Weights};
pub use zoo::{mobilenet_v1_lite, resnet34, resnet_basic, vgg, vgg11, vgg16};
