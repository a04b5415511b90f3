//! The unified functional-executor interface.
//!
//! Both functional backends — the digital f32 ground truth
//! ([`GoldenExecutor`]) and the analog crossbar model
//! ([`AimcExecutor`](crate::AimcExecutor)) — implement [`Executor`], so the
//! platform facade can program a backend once and feed it an arbitrary
//! stream of images ("configure once, evaluate many"). All failure modes
//! are surfaced as [`ExecError`] values instead of panics.

use crate::exec::try_execute_golden;
use crate::graph::{Graph, NodeId};
use crate::tensor::{Shape, Tensor};
use crate::weights::Weights;
use aimc_parallel::{try_map_indexed, Parallelism};
use aimc_xbar::XbarError;
use core::fmt;
use std::sync::Arc;

/// Errors from the functional executors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The input tensor does not match the graph's input shape.
    ShapeMismatch {
        /// Shape the graph expects.
        expected: Shape,
        /// Shape that was provided.
        got: Shape,
    },
    /// A parametric node has no weights.
    MissingWeights {
        /// The node lacking weights.
        node: NodeId,
        /// Its human-readable name.
        name: String,
    },
    /// Crossbar programming or evaluation failed.
    Xbar(XbarError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "input shape mismatch: graph expects {expected}, got {got}"
                )
            }
            ExecError::MissingWeights { node, name } => {
                write!(f, "missing weights for node {node} ({name})")
            }
            ExecError::Xbar(e) => write!(f, "crossbar: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<XbarError> for ExecError {
    fn from(e: XbarError) -> Self {
        ExecError::Xbar(e)
    }
}

/// A programmed functional backend: consumes images, produces logits.
///
/// Implementations hold whatever state the backend needs (programmed
/// crossbar tiles, weight tables) so that repeated [`Executor::infer_batch`]
/// calls do **not** re-program anything.
///
/// Inference is `&self` and every implementation is `Sync`: backends must
/// be safe to drive from the parallel execution engine, and — the hard
/// invariant of the platform — [`Executor::infer_batch`] must return
/// bit-identical outputs for every [`Parallelism`] setting.
pub trait Executor: Sync {
    /// Runs a batch of images, parallelizing across images up to `par`,
    /// and returns one output tensor per image.
    ///
    /// A backend with per-image stream state claims the batch's
    /// coordinates from its own counter (the analog executor takes the
    /// next `inputs.len()` image coordinates), so a sequence of calls
    /// replays exactly as one call over the same images would.
    ///
    /// # Errors
    /// The error of the lowest-indexed failing image, if any.
    fn infer_batch(&self, inputs: &[Tensor], par: Parallelism) -> Result<Vec<Tensor>, ExecError>;

    /// Runs a batch where **every image carries its own explicit global
    /// stream coordinate**: item `(k, x)` evaluates image `x` at stream
    /// coordinate `k`. The coordinates need not be contiguous, ordered, or
    /// related in any way — this is the router-facing entry point of the
    /// sharded serving fleet, where one shard evaluates whatever
    /// non-contiguous slice of the global request stream the router handed
    /// it.
    ///
    /// *Batch-composition invariance*, generalized: for a fixed seed, the
    /// logits produced for coordinate `k` are bit-identical no matter which
    /// batch (or which replica programmed from the same seed) evaluated it,
    /// because evaluation randomness is keyed to the coordinate, never to
    /// the position within a batch or the identity of the executor.
    ///
    /// Stateless backends ignore the coordinates (they are trivially
    /// composition-invariant); the analog executor keys its read-noise
    /// streams by the coordinate and advances its image counter past the
    /// batch's highest coordinate.
    ///
    /// # Errors
    /// The error of the lowest-indexed failing item, if any.
    fn infer_batch_indexed(
        &self,
        items: &[(u64, &Tensor)],
        par: Parallelism,
    ) -> Result<Vec<Tensor>, ExecError>;

    /// Images consumed from the backend's request stream so far — the next
    /// coordinate a counter-claiming call would use (0 for stateless
    /// backends, which have no stream state).
    fn images_seen(&self) -> u64 {
        0
    }

    /// Short label of the backend ("golden", "analog").
    fn backend_name(&self) -> &'static str;

    /// Number of crossbar tiles held by this backend (0 for digital).
    fn tile_count(&self) -> usize {
        0
    }

    /// Total analog MVMs evaluated since programming (0 for digital).
    fn total_mvms(&self) -> u64 {
        0
    }

    /// Applies conductance drift for `t_hours` since programming; returns
    /// whether the backend models drift (`false` for digital backends,
    /// which ignore the call).
    fn apply_drift(&mut self, _t_hours: f64) -> bool {
        false
    }
}

/// The digital f32 ground-truth backend behind [`Executor`].
///
/// Validates that every parametric node has weights at construction, so
/// inference can only fail on input-shape mismatches.
///
/// # Examples
/// ```
/// use aimc_dnn::{he_init, resnet18_cifar, Executor, GoldenExecutor, Parallelism, Shape, Tensor};
/// use std::sync::Arc;
/// let g = Arc::new(resnet18_cifar(10));
/// let w = Arc::new(he_init(&g, 0));
/// let exec = GoldenExecutor::from_shared(g, w).unwrap();
/// let images = [Tensor::zeros(Shape::new(3, 32, 32))];
/// let y = exec.infer_batch(&images, Parallelism::Serial).unwrap();
/// assert_eq!(y[0].shape(), Shape::new(10, 1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct GoldenExecutor {
    graph: Arc<Graph>,
    weights: Arc<Weights>,
}

impl GoldenExecutor {
    /// Builds a golden backend sharing already-owned graph/weights handles
    /// (no deep copy — used by the `aimc-platform` session, which keeps
    /// both behind `Arc`).
    ///
    /// # Errors
    /// Returns [`ExecError::MissingWeights`] if any parametric node lacks
    /// weights.
    pub fn from_shared(graph: Arc<Graph>, weights: Arc<Weights>) -> Result<Self, ExecError> {
        check_weights(&graph, &weights)?;
        Ok(GoldenExecutor { graph, weights })
    }

    /// Runs one image through the network.
    fn run(&self, input: &Tensor) -> Result<Tensor, ExecError> {
        let mut outs = try_execute_golden(&self.graph, &self.weights, input)?;
        Ok(outs.pop().expect("graph is non-empty"))
    }
}

impl Executor for GoldenExecutor {
    fn infer_batch(&self, inputs: &[Tensor], par: Parallelism) -> Result<Vec<Tensor>, ExecError> {
        try_map_indexed(par, inputs, |_, x| self.run(x))
    }

    fn infer_batch_indexed(
        &self,
        items: &[(u64, &Tensor)],
        par: Parallelism,
    ) -> Result<Vec<Tensor>, ExecError> {
        try_map_indexed(par, items, |_, (_, x)| self.run(x))
    }

    fn backend_name(&self) -> &'static str {
        "golden"
    }
}

/// Verifies that every parametric node of `graph` has weights.
pub(crate) fn check_weights(graph: &Graph, weights: &Weights) -> Result<(), ExecError> {
    use crate::layer::LayerKind;
    for node in graph.nodes() {
        let parametric = matches!(
            node.kind,
            LayerKind::Conv(_)
                | LayerKind::DepthwiseConv(_)
                | LayerKind::Linear { .. }
                | LayerKind::Residual {
                    projection: Some(_)
                }
        );
        if parametric && weights.get(node.id).is_none() {
            return Err(ExecError::MissingWeights {
                node: node.id,
                name: node.name.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::infer_golden;
    use crate::graph::GraphBuilder;
    use crate::layer::ConvCfg;
    use crate::weights::he_init;

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new(Shape::new(3, 8, 8));
        let c = b.conv("c", b.input(), ConvCfg::k3(3, 4, 1));
        let gap = b.global_avgpool("gap", c);
        b.linear("fc", gap, 2);
        b.finish()
    }

    fn golden(g: &Graph, w: &Weights) -> Result<GoldenExecutor, ExecError> {
        GoldenExecutor::from_shared(Arc::new(g.clone()), Arc::new(w.clone()))
    }

    /// One image through `exec`, serially.
    fn infer_one(exec: &dyn Executor, x: &Tensor) -> Result<Tensor, ExecError> {
        let mut y = exec.infer_batch(std::slice::from_ref(x), Parallelism::Serial)?;
        Ok(y.pop().expect("one image in, one out"))
    }

    #[test]
    fn golden_executor_matches_free_function() {
        let g = tiny();
        let w = he_init(&g, 1);
        let x = Tensor::zeros(g.input_shape());
        let exec = golden(&g, &w).unwrap();
        assert_eq!(infer_one(&exec, &x).unwrap(), infer_golden(&g, &w, &x));
        assert_eq!(exec.backend_name(), "golden");
        assert_eq!(exec.tile_count(), 0);
    }

    #[test]
    fn missing_weights_error_at_construction() {
        let g = tiny();
        let err = golden(&g, &Weights::new()).unwrap_err();
        assert!(err.to_string().contains("missing weights"));
        match err {
            ExecError::MissingWeights { node, name } => {
                assert_eq!(node, 0);
                assert_eq!(name, "c");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let g = tiny();
        let w = he_init(&g, 1);
        let exec = golden(&g, &w).unwrap();
        let err = infer_one(&exec, &Tensor::zeros(Shape::new(3, 4, 4))).unwrap_err();
        assert!(matches!(err, ExecError::ShapeMismatch { .. }));
        assert!(err.to_string().contains("input shape mismatch"));
    }

    #[test]
    fn works_as_trait_object() {
        let g = tiny();
        let w = he_init(&g, 1);
        let exec: Box<dyn Executor> = Box::new(golden(&g, &w).unwrap());
        let y = infer_one(exec.as_ref(), &Tensor::zeros(g.input_shape())).unwrap();
        assert_eq!(y.shape(), Shape::new(2, 1, 1));
    }

    /// The stateless default: explicit coordinates (contiguous, shuffled,
    /// or duplicated) never change a golden result — only the images do.
    #[test]
    fn golden_infer_batch_indexed_ignores_coordinates() {
        let g = tiny();
        let w = he_init(&g, 1);
        let exec = golden(&g, &w).unwrap();
        let images: Vec<Tensor> = (0..3)
            .map(|i| {
                let mut v = vec![0.0f32; g.input_shape().numel()];
                v.iter_mut()
                    .enumerate()
                    .for_each(|(j, x)| *x = ((i * 7 + j) % 13) as f32 / 13.0);
                Tensor::from_vec(g.input_shape(), v)
            })
            .collect();
        let solo: Vec<Tensor> = images
            .iter()
            .map(|x| infer_one(&exec, x).unwrap())
            .collect();
        let shuffled: Vec<(u64, &Tensor)> = vec![(9, &images[0]), (2, &images[1]), (2, &images[2])];
        let got = exec
            .infer_batch_indexed(&shuffled, Parallelism::Threads(2))
            .unwrap();
        assert_eq!(solo, got);
    }

    #[test]
    fn golden_infer_batch_is_parallelism_invariant() {
        let g = tiny();
        let w = he_init(&g, 1);
        let images: Vec<Tensor> = (0..5)
            .map(|i| {
                let mut v = vec![0.0f32; g.input_shape().numel()];
                v.iter_mut().enumerate().for_each(|(j, x)| {
                    *x = ((i * 31 + j) % 17) as f32 / 17.0 - 0.5;
                });
                Tensor::from_vec(g.input_shape(), v)
            })
            .collect();
        let exec = golden(&g, &w).unwrap();
        let serial = exec.infer_batch(&images, Parallelism::Serial).unwrap();
        let par = exec.infer_batch(&images, Parallelism::Threads(4)).unwrap();
        assert_eq!(serial, par);
        // Shape errors are reported by lowest index.
        let mut bad = images.clone();
        bad[2] = Tensor::zeros(Shape::new(1, 1, 1));
        bad[4] = Tensor::zeros(Shape::new(2, 2, 2));
        let err = exec.infer_batch(&bad, Parallelism::Threads(4)).unwrap_err();
        assert!(matches!(err, ExecError::ShapeMismatch { got, .. } if got == Shape::new(1, 1, 1)));
    }
}
