//! Completion demultiplexing: a dedicated polling coroutine per thread
//! drains the CQ, and syncing coroutines claim their entries.
//!
//! This mirrors SMART's implementation: "SMART also uses a dedicated
//! coroutine for each thread to poll CQs" (§5.1). Each drain charges the
//! thread CPU and replenishes credits (a per-thread hub), delivers the
//! batch into a [`Claims`] rendezvous and wakes only the claimers it
//! completed, in the order they began to wait.

use std::rc::Rc;
use std::time::Duration;

use smart_rnic::{Cq, Cqe};
use smart_rt::sync::{Claims, FifoResource};
use smart_rt::SimHandle;

use crate::throttle::WrThrottle;

/// Shared completion state between the polling coroutine and syncing
/// coroutines.
#[derive(Debug)]
pub struct CompletionHub {
    cq: Rc<Cq>,
    /// wr_id → completion.
    claims: Claims<Cqe>,
}

impl CompletionHub {
    /// Creates a hub over `cq` and spawns its polling coroutine.
    ///
    /// When `cpu` is given, each poll charges `cpu_poll +
    /// cpu_per_cqe × n` to that thread's CPU (the poller shares the CPU
    /// with the worker coroutines).
    ///
    /// When `throttle` is given, the poller replenishes its credits as
    /// completions drain (Algorithm 1 `SMARTPOLLCQ`) — crucially this
    /// happens in the *dedicated polling coroutine*, so a chunked post
    /// that stalls on credits is unblocked by completions of its own
    /// earlier chunks.
    pub fn start(
        handle: &SimHandle,
        cq: Rc<Cq>,
        cpu: Option<FifoResource>,
        throttle: Option<Rc<WrThrottle>>,
        cpu_poll: Duration,
        cpu_per_cqe: Duration,
    ) -> Rc<Self> {
        let hub = Rc::new(CompletionHub {
            cq: Rc::clone(&cq),
            claims: Claims::default(),
        });
        let pump = Rc::clone(&hub);
        handle.spawn(async move {
            let mut cqes = Vec::new();
            loop {
                pump.cq.wait_nonempty().await;
                pump.cq.drain_into(&mut cqes);
                if let Some(cpu) = &cpu {
                    cpu.use_for(cpu_poll + cpu_per_cqe * cqes.len() as u32)
                        .await;
                }
                if let Some(throttle) = &throttle {
                    throttle.replenish(cqes.len() as u64);
                }
                for cqe in cqes.drain(..) {
                    pump.claims.deliver(cqe.wr_id, cqe);
                }
                pump.claims.wake_ready();
            }
        });
        hub
    }

    /// The underlying completion queue.
    pub fn cq(&self) -> &Rc<Cq> {
        &self.cq
    }

    /// Completions delivered but not yet claimed.
    pub fn unclaimed(&self) -> usize {
        self.claims.unclaimed()
    }

    /// Waits until every id in `ids` has completed, removing and
    /// returning the entries in the order of `ids`.
    pub async fn claim(&self, ids: &[u64]) -> Vec<Cqe> {
        self.claims.claim(ids).await;
        ids.iter().map(|&id| self.claims.take(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_rnic::{Cqe, OpResult};
    use smart_rt::Simulation;

    #[test]
    fn claim_waits_for_all_ids_and_orders_results() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let cq = Cq::new();
        let hub = CompletionHub::start(
            &h,
            Rc::clone(&cq),
            None,
            None,
            Duration::ZERO,
            Duration::ZERO,
        );
        let cq2 = Rc::clone(&cq);
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(Duration::from_nanos(10)).await;
            cq2.push(Cqe {
                wr_id: 2,
                result: OpResult::Write,
            });
            h2.sleep(Duration::from_nanos(10)).await;
            cq2.push(Cqe {
                wr_id: 1,
                result: OpResult::Atomic(5),
            });
        });
        let hub2 = Rc::clone(&hub);
        let got = sim.block_on(async move { hub2.claim(&[1, 2]).await });
        assert_eq!(got[0].wr_id, 1);
        assert_eq!(got[1].wr_id, 2);
        assert_eq!(hub.unclaimed(), 0);
    }

    #[test]
    fn two_claimers_each_get_their_entries() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let cq = Cq::new();
        let hub = CompletionHub::start(
            &h,
            Rc::clone(&cq),
            None,
            None,
            Duration::ZERO,
            Duration::ZERO,
        );
        let a = {
            let hub = Rc::clone(&hub);
            sim.spawn(async move { hub.claim(&[10]).await })
        };
        let b = {
            let hub = Rc::clone(&hub);
            sim.spawn(async move { hub.claim(&[11]).await })
        };
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(Duration::from_nanos(5)).await;
            cq.push(Cqe {
                wr_id: 11,
                result: OpResult::Write,
            });
            cq.push(Cqe {
                wr_id: 10,
                result: OpResult::Write,
            });
        });
        sim.run_for(Duration::from_micros(1));
        assert_eq!(a.try_take().expect("a done")[0].wr_id, 10);
        assert_eq!(b.try_take().expect("b done")[0].wr_id, 11);
    }

    #[test]
    fn pump_charges_thread_cpu() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let cq = Cq::new();
        let cpu = FifoResource::new(h.clone());
        let _hub = CompletionHub::start(
            &h,
            Rc::clone(&cq),
            Some(cpu.clone()),
            None,
            Duration::from_nanos(80),
            Duration::from_nanos(30),
        );
        cq.push(Cqe {
            wr_id: 1,
            result: OpResult::Write,
        });
        sim.run_for(Duration::from_micros(1));
        assert_eq!(cpu.busy_time(), Duration::from_nanos(110));
    }
}
