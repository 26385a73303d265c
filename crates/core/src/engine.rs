//! The engine abstraction Credo dispatches over (§3.1: "Based on a given
//! input graph and its metadata, Credo chooses the best from these
//! implementations before executing BP with that method").

use crate::opts::BpOptions;
use crate::stats::BpStats;
use credo_graph::BeliefGraph;
use tracing::Dispatch;

/// Which of the two §3.3 processing paradigms an engine uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Paradigm {
    /// Per-node processing: each node pulls all its parents' states.
    Node,
    /// Per-edge processing: each edge pushes one message, combined
    /// atomically at the destination.
    Edge,
    /// The traditional two-pass (non-loopy) schedule (§2.1).
    Tree,
}

impl std::fmt::Display for Paradigm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Paradigm::Node => write!(f, "Node"),
            Paradigm::Edge => write!(f, "Edge"),
            Paradigm::Tree => write!(f, "Tree"),
        }
    }
}

/// Where an engine executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Single-threaded CPU (the paper's "C" control implementations).
    CpuSequential,
    /// Multi-threaded CPU (the OpenMP-analogue engines).
    CpuParallel,
    /// The simulated GPU (the paper's CUDA implementations).
    GpuSimulated,
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Platform::CpuSequential => write!(f, "C"),
            Platform::CpuParallel => write!(f, "OpenMP"),
            Platform::GpuSimulated => write!(f, "CUDA"),
        }
    }
}

/// Errors an engine can raise before or during execution.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// This engine requires every node to share one belief cardinality
    /// (true of the parallel edge engines, whose atomic accumulators are
    /// flat arrays).
    NonUniformCardinality,
    /// The graph (plus working buffers) does not fit in the simulated
    /// device's VRAM (§3.6/§4.2: TW and OR exceed the GTX 1070's 8 GB).
    OutOfDeviceMemory {
        /// Bytes the engine tried to allocate.
        required: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// The graph failed structural validation.
    InvalidGraph(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NonUniformCardinality => {
                write!(f, "engine requires a uniform belief cardinality")
            }
            EngineError::OutOfDeviceMemory { required, capacity } => write!(
                f,
                "graph requires {required} bytes of device memory but only {capacity} available"
            ),
            EngineError::InvalidGraph(msg) => write!(f, "invalid graph: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A belief-propagation implementation.
pub trait BpEngine {
    /// Display name, e.g. `"C Edge"` or `"CUDA Node"`.
    fn name(&self) -> &'static str;

    /// Processing paradigm.
    fn paradigm(&self) -> Paradigm;

    /// Execution platform.
    fn platform(&self) -> Platform;

    /// Runs BP in place: `graph.beliefs_mut()` holds the posteriors on
    /// return. Engines treat the current beliefs as the starting state, so
    /// callers wanting a clean run should [`crate::run_fresh`].
    ///
    /// Equivalent to [`BpEngine::run_traced`] with the no-op recorder;
    /// results are bit-identical between the two.
    fn run(&self, graph: &mut BeliefGraph, opts: &BpOptions) -> Result<BpStats, EngineError> {
        self.run_traced(graph, opts, &Dispatch::none())
    }

    /// Runs BP in place like [`BpEngine::run`], emitting telemetry through
    /// `trace`: a `run` span wrapping per-`iteration` spans (with delta /
    /// update-count / queue-depth fields), plus queue and contention
    /// counters. With [`Dispatch::none`] every emission site reduces to an
    /// inlined branch, so the instrumented hot path stays within noise of
    /// an uninstrumented one.
    fn run_traced(
        &self,
        graph: &mut BeliefGraph,
        opts: &BpOptions,
        trace: &Dispatch,
    ) -> Result<BpStats, EngineError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings() {
        assert_eq!(Paradigm::Node.to_string(), "Node");
        assert_eq!(Platform::GpuSimulated.to_string(), "CUDA");
        assert_eq!(Platform::CpuSequential.to_string(), "C");
    }

    #[test]
    fn errors_format() {
        let e = EngineError::OutOfDeviceMemory {
            required: 100,
            capacity: 50,
        };
        assert!(e.to_string().contains("100"));
        assert!(EngineError::NonUniformCardinality
            .to_string()
            .contains("uniform"));
    }
}
