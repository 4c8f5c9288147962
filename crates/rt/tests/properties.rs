//! Randomized (but fully seeded and deterministic) tests for the
//! simulation runtime's primitives. Each property is checked over many
//! `SimRng`-generated cases, replacing the earlier proptest suite with an
//! offline-friendly, reproducible equivalent.

use smart_rt::rng::SimRng;
use smart_rt::sync::{Bandwidth, Claims, FifoResource, Semaphore};
use smart_rt::{Duration, SimTime, Simulation};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

fn vec_of(rng: &mut SimRng, min_len: u64, max_len: u64, lo: u64, hi: u64) -> Vec<u64> {
    let len = rng.gen_range(min_len, max_len);
    (0..len).map(|_| rng.gen_range(lo, hi)).collect()
}

/// FIFO server: completion times are exactly the prefix sums of the
/// service times when all requests arrive together.
#[test]
fn fifo_resource_completions_are_prefix_sums() {
    let mut rng = SimRng::new(0xF1F0);
    for _ in 0..48 {
        let services = vec_of(&mut rng, 1, 40, 1, 10_000);
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let server = FifoResource::new(h.clone());
        let done = Rc::new(RefCell::new(Vec::new()));
        for &svc in &services {
            let s = server.clone();
            let h = h.clone();
            let done = Rc::clone(&done);
            sim.spawn(async move {
                s.use_for(Duration::from_nanos(svc)).await;
                done.borrow_mut().push(h.now().as_nanos());
            });
        }
        sim.run();
        let mut expect = Vec::new();
        let mut acc = 0;
        for &svc in &services {
            acc += svc;
            expect.push(acc);
        }
        assert_eq!(&*done.borrow(), &expect);
        assert_eq!(server.busy_time(), Duration::from_nanos(acc));
    }
}

/// Timers fire in deadline order regardless of spawn order, and the
/// clock ends at the max deadline.
#[test]
fn timers_fire_in_deadline_order() {
    let mut rng = SimRng::new(0x71AE);
    for _ in 0..48 {
        let delays = vec_of(&mut rng, 1, 50, 0, 1_000_000);
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let fired = Rc::new(RefCell::new(Vec::new()));
        for &d in &delays {
            let h = h.clone();
            let fired = Rc::clone(&fired);
            sim.spawn(async move {
                h.sleep(Duration::from_nanos(d)).await;
                fired.borrow_mut().push(h.now().as_nanos());
            });
        }
        sim.run();
        let fired = fired.borrow();
        assert!(fired.windows(2).all(|w| w[0] <= w[1]), "monotone firing");
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        assert_eq!(&*fired, &sorted);
        assert_eq!(sim.now().as_nanos(), *sorted.last().expect("nonempty"));
    }
}

/// Semaphore balance accounting: after an arbitrary interleaving of
/// acquires (that can all be satisfied) and releases, the balance is
/// exactly initial - acquired + released.
#[test]
fn semaphore_balance_accounting() {
    let mut rng = SimRng::new(0x5E4A);
    for _ in 0..64 {
        let init = rng.next_u64_below(100) as i64;
        let n_ops = rng.next_u64_below(50);
        let sem = Semaphore::new(init);
        let mut expected = init;
        for _ in 0..n_ops {
            let n = rng.next_u64_below(5);
            if rng.gen_bool(0.5) {
                sem.release(n);
                expected += n as i64;
            } else if sem.try_acquire(n) {
                expected -= n as i64;
            }
            assert_eq!(sem.available(), expected);
            assert!(sem.available() >= 0 || init < 0);
        }
    }
}

/// take_up_to never exceeds the balance or the request.
#[test]
fn take_up_to_is_bounded() {
    let mut rng = SimRng::new(0x7A4E);
    for _ in 0..128 {
        let init = rng.next_u64_below(64) as i64;
        let want = rng.next_u64_below(128);
        let sem = Semaphore::new(init);
        let got = sem.take_up_to(want);
        assert!(got <= want);
        assert!(got as i64 <= init);
        assert_eq!(sem.available(), init - got as i64);
    }
}

/// Bandwidth serialization: total transfer time equals bytes / rate.
#[test]
fn bandwidth_total_time_matches_rate() {
    let mut rng = SimRng::new(0xBA4D);
    for _ in 0..48 {
        let chunks = vec_of(&mut rng, 1, 20, 1, 100_000);
        let rate_gbps = rng.gen_range(1, 40);
        let mut sim = Simulation::new(2);
        let h = sim.handle();
        let link = Bandwidth::new(h.clone(), rate_gbps * 1_000_000_000);
        for &c in &chunks {
            let l = link.clone();
            sim.spawn(async move {
                l.transfer(c).await;
            });
        }
        sim.run();
        let total: u64 = chunks.iter().sum();
        let expect: u64 = chunks
            .iter()
            .map(|&c| c * 1_000_000_000 / (rate_gbps * 1_000_000_000))
            .sum();
        assert_eq!(sim.now().as_nanos(), expect);
        assert_eq!(link.transferred(), total);
    }
}

/// SimTime arithmetic is consistent with u64 arithmetic.
#[test]
fn simtime_arithmetic() {
    let mut rng = SimRng::new(0x51A7);
    for _ in 0..256 {
        let a = rng.next_u64_below(u64::MAX / 4);
        let d = rng.next_u64_below(u64::MAX / 4);
        let t = SimTime::from_nanos(a) + Duration::from_nanos(d);
        assert_eq!(t.as_nanos(), a + d);
        assert_eq!(t - SimTime::from_nanos(a), Duration::from_nanos(d));
        assert_eq!(
            t.saturating_since(SimTime::from_nanos(a + d + 1)),
            Duration::ZERO
        );
    }
}

/// Identical seeds produce identical executions (PRNG + scheduler).
#[test]
fn simulation_is_deterministic() {
    fn run(seed: u64, n: usize) -> Vec<u64> {
        let mut sim = Simulation::new(seed);
        let h = sim.handle();
        let out = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..n {
            let h = h.clone();
            let out = Rc::clone(&out);
            sim.spawn(async move {
                let d = h.rand_below(10_000) + 1;
                h.sleep(Duration::from_nanos(d)).await;
                out.borrow_mut().push(h.now().as_nanos());
            });
        }
        sim.run();
        let v = out.borrow().clone();
        v
    }
    let mut rng = SimRng::new(0xDE7E);
    for _ in 0..24 {
        let seed = rng.next_u64();
        let n = rng.gen_range(1, 20) as usize;
        assert_eq!(run(seed, n), run(seed, n));
    }
}

/// One claim under test, polled by hand with a waker that logs its index.
struct Claimer<'a> {
    idx: usize,
    ids: Vec<u64>,
    woken: bool,
    fut: Pin<Box<dyn Future<Output = Vec<u64>> + 'a>>,
    waker: Waker,
}

struct LogWaker {
    idx: usize,
    log: Arc<Mutex<Vec<usize>>>,
}

impl Wake for LogWaker {
    fn wake(self: Arc<Self>) {
        self.log.lock().expect("log lock").push(self.idx);
    }
}

impl<'a> Claimer<'a> {
    fn new(
        claims: &'a Claims<u64>,
        idx: usize,
        ids: Vec<u64>,
        log: &Arc<Mutex<Vec<usize>>>,
    ) -> Self {
        let owned = ids.clone();
        let log = Arc::clone(log);
        Claimer {
            idx,
            ids,
            woken: false,
            fut: Box::pin(async move {
                claims.claim(&owned).await;
                owned.iter().map(|&id| claims.take(id)).collect()
            }),
            waker: Waker::from(Arc::new(LogWaker { idx, log })),
        }
    }

    fn poll(&mut self) -> Poll<Vec<u64>> {
        self.fut
            .as_mut()
            .poll(&mut Context::from_waker(&self.waker))
    }

    fn complete(&self, delivered: &BTreeMap<u64, u64>) -> bool {
        self.ids.iter().all(|id| delivered.contains_key(id))
    }
}

/// Takes a resolved claim's values out of the reference, checking them.
fn consume(
    got: Vec<u64>,
    ids: &[u64],
    delivered: &mut BTreeMap<u64, u64>,
    taken: &mut BTreeSet<u64>,
) {
    let want: Vec<u64> = ids
        .iter()
        .map(|id| delivered.remove(id).expect("resolved claim's id delivered"))
        .collect();
    assert_eq!(got, want, "values in the order of the claim's ids");
    taken.extend(ids);
}

/// `Claims` against a `BTreeMap` reference over random interleavings of
/// claims (before, after and partly after delivery), deliveries, wakes,
/// re-polls and drops of pending claims. A wake must reach exactly the
/// claims completed and not yet woken, in registration order; a dropped
/// claim is never woken and its ids are claimable again.
#[test]
fn claims_match_a_btreemap_reference() {
    const IDS: u64 = 24;
    let mut rng = SimRng::new(0xC1A1);
    // How often each situation the test exists for came up.
    let (mut immediate, mut partial, mut batched, mut dropped, mut reclaimed) = (0, 0, 0, 0, 0);
    for _ in 0..64 {
        let claims: Claims<u64> = Claims::default();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut delivered: BTreeMap<u64, u64> = BTreeMap::new();
        let mut taken: BTreeSet<u64> = BTreeSet::new();
        let mut pending: Vec<Claimer> = Vec::new(); // registration order
                                                    // Ids of dropped pending claims, not claimed since.
        let mut freed: BTreeSet<u64> = BTreeSet::new();
        for idx in 0..300 {
            match rng.next_u64_below(5) {
                0 => {
                    let wanted: BTreeSet<u64> =
                        pending.iter().flat_map(|c| c.ids.clone()).collect();
                    let mut free: Vec<u64> = (0..IDS)
                        .filter(|id| !taken.contains(id) && !wanted.contains(id))
                        .collect();
                    let mut ids = Vec::new();
                    for _ in 0..rng.gen_range(1, 5).min(free.len() as u64) {
                        ids.push(free.swap_remove(rng.next_u64_below(free.len() as u64) as usize));
                    }
                    if ids.is_empty() {
                        continue;
                    }
                    let ready = ids.iter().filter(|id| delivered.contains_key(id)).count();
                    reclaimed += ids.iter().filter(|id| freed.remove(id)).count();
                    let mut c = Claimer::new(&claims, idx, ids, &log);
                    match c.poll() {
                        Poll::Ready(got) => {
                            assert_eq!(ready, c.ids.len(), "resolved with an id missing");
                            consume(got, &c.ids, &mut delivered, &mut taken);
                            immediate += 1;
                        }
                        Poll::Pending => {
                            assert!(ready < c.ids.len(), "all ids in, yet pending");
                            partial += usize::from(ready > 0);
                            pending.push(c);
                        }
                    }
                }
                1 => {
                    let open: Vec<u64> = (0..IDS)
                        .filter(|id| !taken.contains(id) && !delivered.contains_key(id))
                        .collect();
                    if open.is_empty() {
                        continue;
                    }
                    let id = open[rng.next_u64_below(open.len() as u64) as usize];
                    let value = rng.next_u64();
                    let awaited = pending.iter().any(|c| c.ids.contains(&id));
                    assert_eq!(claims.deliver(id, value), awaited);
                    delivered.insert(id, value);
                }
                2 => {
                    let expect: Vec<usize> = pending
                        .iter()
                        .filter(|c| !c.woken && c.complete(&delivered))
                        .map(|c| c.idx)
                        .collect();
                    claims.wake_ready();
                    let woke: Vec<usize> = log.lock().expect("log lock").drain(..).collect();
                    assert_eq!(
                        woke, expect,
                        "completed claims, once each, in registration order"
                    );
                    batched += usize::from(woke.len() > 1);
                    for c in pending.iter_mut().filter(|c| woke.contains(&c.idx)) {
                        c.woken = true;
                    }
                }
                3 if !pending.is_empty() => {
                    let i = rng.next_u64_below(pending.len() as u64) as usize;
                    let complete = pending[i].complete(&delivered);
                    match pending[i].poll() {
                        Poll::Ready(got) => {
                            assert!(complete, "resolved with an id missing");
                            let c = pending.remove(i);
                            consume(got, &c.ids, &mut delivered, &mut taken);
                        }
                        Poll::Pending => assert!(!complete, "all ids in, yet pending"),
                    }
                }
                4 if !pending.is_empty() => {
                    let i = rng.next_u64_below(pending.len() as u64) as usize;
                    dropped += usize::from(!pending[i].woken);
                    freed.extend(pending.remove(i).ids.iter().copied());
                }
                _ => {}
            }
            assert_eq!(claims.unclaimed(), delivered.len());
        }
        assert!(log.lock().expect("log lock").is_empty());
    }
    assert!(
        immediate > 0 && partial > 0 && batched > 0 && dropped > 0 && reclaimed > 0,
        "coverage: {immediate} immediate, {partial} partial, {batched} batched wakes, \
         {dropped} dropped, {reclaimed} ids reclaimed after a drop"
    );
}

#[test]
#[should_panic(expected = "claimed twice at once")]
fn claim_with_a_duplicate_id_panics_at_registration() {
    let claims: Claims<u64> = Claims::default();
    claims.deliver(1, 10);
    let log = Arc::new(Mutex::new(Vec::new()));
    let _ = Claimer::new(&claims, 0, vec![1, 2, 1], &log).poll();
}

#[test]
#[should_panic(expected = "already claimed")]
fn claim_of_an_awaited_id_panics_at_registration() {
    let claims: Claims<u64> = Claims::default();
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut first = Claimer::new(&claims, 0, vec![3, 4], &log);
    assert!(first.poll().is_pending());
    let _ = Claimer::new(&claims, 1, vec![4], &log).poll();
}
