use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::Wakeup;

/// Shared completion state between a spawned task and its [`JoinHandle`].
pub(crate) struct JoinState<T> {
    result: Option<T>,
    taken: bool,
    waker: Option<Wakeup>,
}

impl<T> Default for JoinState<T> {
    fn default() -> Self {
        JoinState {
            result: None,
            taken: false,
            waker: None,
        }
    }
}

impl<T> JoinState<T> {
    pub(crate) fn finish(state: &Rc<RefCell<Self>>, value: T) {
        let waker = {
            let mut s = state.borrow_mut();
            s.result = Some(value);
            s.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// Handle to a spawned task; awaiting it yields the task's output.
///
/// Unlike `std::thread::JoinHandle`, dropping a `JoinHandle` does **not**
/// cancel the task — it keeps running in the simulation (detached).
///
/// ```rust
/// use smart_rt::Simulation;
///
/// let mut sim = Simulation::new(0);
/// let h = sim.handle();
/// let value = sim.block_on(async move {
///     let j = h.spawn(async { 7u8 });
///     j.await
/// });
/// assert_eq!(value, 7);
/// ```
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> JoinHandle<T> {
    pub(crate) fn new(state: Rc<RefCell<JoinState<T>>>) -> Self {
        JoinHandle { state }
    }

    /// Whether the task has completed (its output may already be taken).
    pub fn is_finished(&self) -> bool {
        let s = self.state.borrow();
        s.result.is_some() || s.taken
    }

    /// Takes the output if the task completed and the output has not been
    /// taken yet.
    pub fn try_take(&self) -> Option<T> {
        let mut s = self.state.borrow_mut();
        let out = s.result.take();
        if out.is_some() {
            s.taken = true;
        }
        out
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics if the output was already taken via [`JoinHandle::try_take`]
    /// or by awaiting the handle twice.
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        if let Some(v) = s.result.take() {
            s.taken = true;
            return Poll::Ready(v);
        }
        assert!(!s.taken, "JoinHandle output already taken");
        s.waker = Some(Wakeup::of(cx));
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use crate::{Duration, Simulation};

    #[test]
    fn try_take_before_completion_is_none() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let j = sim.spawn(async move {
            h.sleep(Duration::from_nanos(10)).await;
            1u8
        });
        assert!(!j.is_finished());
        assert_eq!(j.try_take(), None);
        sim.run();
        assert!(j.is_finished());
        assert_eq!(j.try_take(), Some(1));
        assert_eq!(j.try_take(), None);
        assert!(j.is_finished());
    }

    #[test]
    fn detached_task_still_runs() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let flag = std::rc::Rc::new(std::cell::Cell::new(false));
        let flag2 = std::rc::Rc::clone(&flag);
        drop(sim.spawn(async move {
            h.sleep(Duration::from_nanos(5)).await;
            flag2.set(true);
        }));
        sim.run();
        assert!(flag.get());
    }

    #[test]
    fn await_join_handle_from_sibling_task() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let got = sim.block_on(async move {
            let h2 = h.clone();
            let j = h.spawn(async move {
                h2.sleep(Duration::from_nanos(50)).await;
                "done"
            });
            j.await
        });
        assert_eq!(got, "done");
    }
}
