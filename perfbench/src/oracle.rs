//! In-process reference answers, computed outside every timed window.
//!
//! - `serve-warm-churn`: within [`WARM_TOLERANCE`] of a `WarmState::run_cold`
//!   on the same evidence (warm runs converge to the cold fixed point
//!   within the threshold).
//! - `route-warm-churn`: bitwise equal to a `ShardedSession` replaying
//!   the router's evidence sequence delta by delta.

use crate::procs::Res;
use crate::stream::StreamSpec;
use credo_core::{BpOptions, Dispatch, EvidenceDelta, ShardedSession, WarmState};
use credo_graph::generators::{synthetic, GenOptions};
use credo_graph::{BeliefGraph, ShardedExec};
use std::collections::BTreeMap;

/// Largest accepted |warm − cold| posterior difference.
pub const WARM_TOLERANCE: f32 = 1e-4;

pub type Posteriors = Vec<(u32, Vec<f32>)>;

/// The graph every `credo` process builds from `spec` (the CLI's default
/// generator seed is 42).
pub fn build_graph(nodes: usize, edges: usize) -> BeliefGraph {
    synthetic(nodes, edges, &GenOptions::new(2).with_seed(42))
}

/// The change from `current` evidence to the absolute `target` set, as
/// both the serve worker and the router derive it.
pub fn delta_to(current: &BTreeMap<u32, u32>, target: &[(u32, u32)]) -> EvidenceDelta {
    let want: BTreeMap<u32, u32> = target.iter().copied().collect();
    EvidenceDelta {
        observe: want
            .iter()
            .filter(|(v, s)| current.get(v) != Some(s))
            .map(|(&v, &s)| (v, s))
            .collect(),
        clear: current
            .keys()
            .filter(|v| !want.contains_key(v))
            .copied()
            .collect(),
    }
}

pub enum Oracle {
    /// Cold solves on one warm state (the evidence is rebound each time).
    Cold(Box<WarmState>),
    /// A sharded session that must see every request the router saw, in
    /// order; `next` is the index of the next request to replay.
    Sharded {
        sx: Box<ShardedExec>,
        session: Box<ShardedSession>,
        next: u64,
    },
}

impl Oracle {
    pub fn cold(graph: BeliefGraph) -> Oracle {
        Oracle::Cold(Box::new(WarmState::new(graph, 1)))
    }

    pub fn sharded(graph: &BeliefGraph, shards: usize) -> Res<Oracle> {
        let mut sx = Box::new(ShardedExec::compile(graph, shards));
        let session = Box::new(ShardedSession::new(&mut *sx, 1).map_err(|e| e.to_string())?);
        Ok(Oracle::Sharded {
            sx,
            session,
            next: 0,
        })
    }

    /// The reference answer to request `i` of `stream`. The sharded
    /// oracle replays every request up to `i` it has not seen yet.
    pub fn answer(&mut self, stream: &StreamSpec, i: u64) -> Res<Posteriors> {
        let req = stream.request(i);
        let opts = BpOptions::default();
        let none = Dispatch::none();
        match self {
            Oracle::Cold(state) => {
                let delta = delta_to(state.evidence(), &req.evidence);
                state.apply(&delta).map_err(|e| e.to_string())?;
                state.run_cold("oracle", &opts, &none, None);
                let plan = state.plan();
                Ok(req
                    .nodes
                    .iter()
                    .map(|&v| (v, plan.node_slice(state.beliefs(), v).to_vec()))
                    .collect())
            }
            Oracle::Sharded { sx, session, next } => {
                if i < *next {
                    return Err(format!("sharded oracle already replayed past request {i}"));
                }
                while *next <= i {
                    crate::procs::check_interrupt()?;
                    let ev = stream.evidence(*next);
                    let delta = delta_to(session.evidence(), &ev);
                    session
                        .apply_evidence(&mut **sx, &delta.observe, &delta.clear)
                        .map_err(|e| e.to_string())?;
                    session
                        .run("oracle", &mut **sx, &opts, &none)
                        .map_err(|e| e.to_string())?;
                    *next += 1;
                }
                let packed = session.beliefs();
                Ok(req
                    .nodes
                    .iter()
                    .map(|&v| (v, session.node_slice(&packed, v).to_vec()))
                    .collect())
            }
        }
    }

    /// Whether `got` matches `want`: bitwise for the sharded replay,
    /// within [`WARM_TOLERANCE`] for the cold oracle.
    pub fn agrees(&self, got: &Posteriors, want: &Posteriors) -> bool {
        let bitwise = matches!(self, Oracle::Sharded { .. });
        got.len() == want.len()
            && got.iter().zip(want).all(|((gv, gb), (wv, wb))| {
                gv == wv
                    && gb.len() == wb.len()
                    && gb.iter().zip(wb).all(|(x, y)| {
                        if bitwise {
                            x.to_bits() == y.to_bits()
                        } else {
                            (x - y).abs() <= WARM_TOLERANCE
                        }
                    })
            })
    }
}
