//! Allocation gate for the runtime's event path: once slabs, queues and
//! the timer wheel have grown to their high-water marks, a timer event,
//! a `Notify` round, a semaphore hand-off, a queueing-model visit, a wake
//! by task id, a `DetMap` insert/remove and a `Claims` claim/deliver
//! round must not touch the allocator at all, and a PDES envelope only
//! for its payload box. Every simulated event of every workload runs
//! through these lines; one hidden `Vec` or `Arc` per event is the
//! difference between 45 and 75 host ns per event.
//!
//! Same counting allocator as `crates/trace/tests/no_alloc.rs`: counted
//! per thread, so the harness's parallel test threads cannot leak into a
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use smart_rt::detmap::DetMap;
use smart_rt::pdes::{DomainCtx, PdesBuilder};
use smart_rt::sync::{Claims, ContendedLock, FifoResource, Notify, Semaphore};
use smart_rt::{Duration, SimTime, Simulation};

struct CountingAlloc;

thread_local! {
    /// `const` and `Drop`-free: reading it never allocates or registers a
    /// destructor, which the allocator itself could not survive.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

// SAFETY: defers entirely to the system allocator; the counter is a
// thread-local cell with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Runs `sim` for `warm_up_ns` uncounted, then counts the allocations of
/// the next `measured_ns` of virtual time.
fn steady_state_allocations(sim: &mut Simulation, warm_up_ns: u64, measured_ns: u64) -> u64 {
    sim.run_until(SimTime::from_nanos(warm_up_ns));
    allocations(|| sim.run_until(SimTime::from_nanos(warm_up_ns + measured_ns)))
}

#[test]
fn sleep_fire_resleep_laps_are_allocation_free() {
    let mut sim = Simulation::new(1);
    let laps = Rc::new(Cell::new(0u64));
    for _ in 0..64 {
        let (h, laps) = (sim.handle(), Rc::clone(&laps));
        sim.spawn(async move {
            loop {
                h.sleep(Duration::from_nanos(100)).await;
                laps.set(laps.get() + 1);
            }
        });
    }
    let n = steady_state_allocations(&mut sim, 1_000, 1_000_000);
    assert_eq!(laps.get(), 64 * 10_010);
    assert_eq!(n, 0, "{n} allocations in 640 000 timer events");
}

#[test]
fn notify_all_rounds_are_allocation_free() {
    let mut sim = Simulation::new(2);
    let (ping, pong) = (Notify::new(), Notify::new());
    let released = Rc::new(Cell::new(0u64));
    for _ in 0..8 {
        let (ping, pong, released) = (ping.clone(), pong.clone(), Rc::clone(&released));
        sim.spawn(async move {
            loop {
                ping.notified().await;
                released.set(released.get() + 1);
                if released.get() % 8 == 0 {
                    pong.notify_one(); // the last of the round answers
                }
            }
        });
    }
    let h = sim.handle();
    sim.spawn(async move {
        loop {
            h.sleep(Duration::from_nanos(50)).await;
            ping.notify_all();
            pong.notified().await;
        }
    });
    let n = steady_state_allocations(&mut sim, 500, 500_000);
    assert_eq!(released.get(), 8 * 10_010);
    assert_eq!(n, 0, "{n} allocations in 10 000 notify_all rounds");
}

#[test]
fn fifo_and_lock_visits_are_allocation_free() {
    let mut sim = Simulation::new(3);
    let h = sim.handle();
    let fifo = FifoResource::new(h.clone());
    let lock = ContendedLock::new(h.clone(), Duration::from_nanos(3), 8);
    let visits = Rc::new(Cell::new(0u64));
    for _ in 0..4 {
        let (fifo, lock, visits) = (fifo.clone(), lock.clone(), Rc::clone(&visits));
        sim.spawn(async move {
            loop {
                fifo.use_for(Duration::from_nanos(10)).await;
                lock.exec(Duration::from_nanos(5)).await;
                visits.set(visits.get() + 1);
            }
        });
    }
    let n = steady_state_allocations(&mut sim, 1_000, 400_000);
    assert!(visits.get() > 10_000, "only {} visits", visits.get());
    assert_eq!(n, 0, "{n} allocations in {} fifo+lock visits", visits.get());
}

#[test]
fn semaphore_hand_offs_are_allocation_free() {
    let mut sim = Simulation::new(4);
    let h = sim.handle();
    let (there, back) = (Semaphore::new(0), Semaphore::new(1));
    let laps = Rc::new(Cell::new(0u64));
    {
        let (there, back) = (there.clone(), back.clone());
        sim.spawn(async move {
            loop {
                back.acquire(1).await;
                h.sleep(Duration::from_nanos(10)).await;
                there.release(1);
            }
        });
    }
    let counted = Rc::clone(&laps);
    sim.spawn(async move {
        loop {
            there.acquire(1).await;
            counted.set(counted.get() + 1);
            back.release(1);
        }
    });
    let n = steady_state_allocations(&mut sim, 100, 100_000);
    assert_eq!(laps.get(), 10_010);
    assert_eq!(n, 0, "{n} allocations in 10 000 hand-offs");
}

#[test]
fn detmap_steady_state_churn_is_allocation_free() {
    // The WR tables' life: a batch of fresh ascending ids in, the same
    // batch out, for ever. With tombstones every ~14 such pairs filled
    // the 16-slot table and bought an allocating rehash.
    let mut m: DetMap<u64> = DetMap::new();
    let mut next = 0u64;
    let mut lap = |m: &mut DetMap<u64>| {
        for id in next..next + 8 {
            m.insert(id, id);
        }
        for id in next..next + 8 {
            assert_eq!(m.remove(&id), Some(id));
        }
        next += 8;
    };
    lap(&mut m); // warm-up: the first insert allocates the table
    let n = allocations(|| (0..100_000).for_each(|_| lap(&mut m)));
    assert!(m.is_empty());
    assert_eq!(n, 0, "{n} allocations in 100 000 insert-8/remove-8 laps");
}

#[test]
fn claims_churn_is_allocation_free() {
    // The completion hub's life: eight claimers each wait on four fresh
    // ids per lap, delivered in four partial batches (every claimer's
    // j-th id in batch j, highest claimer first), one wake per batch.
    const CLAIMERS: u64 = 8;
    const IDS: u64 = 4;
    let mut sim = Simulation::new(6);
    let claims = Rc::new(Claims::default());
    let laps = Rc::new(Cell::new(0u64));
    for c in 0..CLAIMERS {
        let (claims, laps) = (Rc::clone(&claims), Rc::clone(&laps));
        sim.spawn(async move {
            for lap in 0.. {
                let base = lap * CLAIMERS * IDS + c * IDS;
                let ids: [u64; IDS as usize] = std::array::from_fn(|j| base + j as u64);
                claims.claim(&ids).await;
                for id in ids {
                    assert_eq!(claims.take(id), id);
                }
                laps.set(laps.get() + 1);
            }
        });
    }
    let h = sim.handle();
    sim.spawn(async move {
        for lap in 0.. {
            for j in 0..IDS {
                h.sleep(Duration::from_nanos(10)).await;
                for c in (0..CLAIMERS).rev() {
                    let id = lap * CLAIMERS * IDS + c * IDS + j;
                    claims.deliver(id, id);
                }
                claims.wake_ready();
            }
        }
    });
    let n = steady_state_allocations(&mut sim, 1_000, 400_000);
    assert_eq!(laps.get(), CLAIMERS * 10_025);
    assert_eq!(n, 0, "{n} allocations in 10 000 laps of 8 claims each");
}

/// A two-domain ping-pong of `round_trips` round trips over 100 ns
/// channels: one receiving task per side, none spawned per message.
fn pdes_ping_pong(round_trips: u64) {
    let mut b = PdesBuilder::new(7);
    let (a, z) = (b.domain_id(0), b.domain_id(1));
    let (ping_tx, ping_rx) = b.channel::<u64>(a, z, Duration::from_nanos(100));
    let (pong_tx, pong_rx) = b.channel::<u64>(z, a, Duration::from_nanos(100));
    b.add_domain("a", move |ctx| {
        let (tx, rx) = (ctx.bind_tx(ping_tx), ctx.bind_rx(pong_rx));
        ctx.handle().spawn(async move {
            for i in 0..round_trips {
                tx.send(i);
                assert_eq!(rx.recv().await, i);
            }
        });
        Box::new(|_: &DomainCtx| Vec::new())
    });
    b.add_domain("z", move |ctx| {
        let (rx, tx) = (ctx.bind_rx(ping_rx), ctx.bind_tx(pong_tx));
        ctx.handle().spawn(async move {
            loop {
                tx.send(rx.recv().await);
            }
        });
        Box::new(|_: &DomainCtx| Vec::new())
    });
    let report = b.run(1);
    assert_eq!(report.envelopes, 2 * round_trips);
    assert_eq!(report.domains[0].delivered, round_trips);
}

#[test]
fn pdes_round_trips_allocate_only_their_payload_boxes() {
    // Set-up, buffers and slabs cost the same in both runs; each extra
    // round trip adds two envelopes, each one boxed payload.
    let short = allocations(|| pdes_ping_pong(1_000));
    let long = allocations(|| pdes_ping_pong(2_000));
    assert_eq!(long - short, 2 * 1_000, "{short} vs {long} allocations");
}

#[test]
fn spawning_does_allocate() {
    // Guard against the gates passing vacuously (the counter not
    // counting): a spawn boxes its future.
    let sim = Simulation::new(5);
    let n = allocations(|| drop(sim.spawn(async {})));
    assert!(n > 0, "allocation counter is not observing the test binary");
}
