//! Fault-injection hook points for the RNIC model.
//!
//! The RNIC itself stays fault-free by default; a chaos layer (the
//! `smart-fault` crate) implements [`FaultHook`] and installs it on each
//! compute node. The hook is consulted once per work request, at post,
//! on the requester side — so a failed work request never partially
//! executes, and a recovery layer that reposts it gets exactly-once
//! semantics at the blade.
//!
//! Independent of the hook, [`Qp`] error state and
//! [`MemoryBlade`](crate::MemoryBlade) crash state are first-class model
//! state, checked under one rule whichever domain the blade lives in:
//! the QP at post and at departure (requester side), the crash state on
//! arrival (blade side). Each check is a `Cell` read with no time or RNG
//! cost, so installing no hook leaves healthy-path timing bit-identical
//! to a build without this module.

use std::rc::Rc;
use std::time::Duration;

use crate::qp::Qp;
use crate::types::{CqeError, WorkRequest};

/// What the injection checkpoint decided for one work request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectDecision {
    /// No fault: the request proceeds normally.
    Deliver,
    /// Latency spike: the request proceeds after an extra delay.
    Delay(Duration),
    /// The request fails with the given status before executing. The
    /// lifecycle still delivers a CQE (after the status-appropriate
    /// delay) so completion accounting stays conserved.
    Fail(CqeError),
}

/// A fault-injection policy consulted by the RNIC model.
///
/// Implementations must be deterministic: any randomness must come from
/// the simulation's seeded PRNG (e.g. `SimHandle::with_rng`).
pub trait FaultHook {
    /// Called once per work request at the post-time checkpoint.
    fn on_wr(&self, qp: &Qp, wr: &WorkRequest) -> InjectDecision;

    /// Called when a QP is created on a node this hook is installed on,
    /// letting the hook track QPs it may later force into the error
    /// state.
    fn on_qp_created(&self, qp: &Rc<Qp>) {
        let _ = qp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_compare() {
        assert_eq!(InjectDecision::Deliver, InjectDecision::Deliver);
        assert_ne!(
            InjectDecision::Fail(CqeError::Timeout),
            InjectDecision::Fail(CqeError::RnrNak)
        );
    }
}
