//! Seeded property test: domain partitions are semantically invisible.
//!
//! For a sweep of random small topologies (1–3 memory blades, 1–3
//! requesters driving fetch-and-add conversations over a pair of
//! fabric-latency channels), every [`DomainPlan`] partition — the
//! degenerate single-domain plan, one-domain-per-blade, and a seeded random
//! assignment — must produce the same per-requester event logs, the same
//! RNG draw counts and the same [`LogHistogram`] bytes as the sequential
//! single-domain reference. On top of that, re-running any one partition
//! with more worker threads must reproduce its artifact (including the
//! interleaved completion order across requesters) byte-for-byte: worker
//! count changes *where* domains run, never *what* they compute.
//!
//! The workload draws all randomness from explicitly seeded
//! [`SimRng`]s, never from the domain handle's RNG — domain seeds differ
//! per domain id, so a partition-independent workload must carry its own
//! seeds, exactly like the YCSB generators in the bench crates do.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use smart_rnic::{BladeId, DomainPlan, FabricConfig, OneSidedOp, RemoteAddr, WorkRequest};
use smart_rt::pdes::{DomainCtx, DomainId, PdesBuilder, RxToken, TxToken};
use smart_rt::rng::SimRng;
use smart_trace::LogHistogram;

/// Fixed per-request service time at the blade, nanoseconds.
const SERVICE_NS: u64 = 300;
/// Operations each requester performs.
const OPS: u64 = 4;

struct Topology {
    seed: u64,
    blades: u32,
    requesters: u32,
}

impl Topology {
    fn random(seed: u64) -> Topology {
        let mut rng = SimRng::new(0xF00D ^ seed.wrapping_mul(0x9E37_79B9));
        Topology {
            seed,
            blades: 1 + rng.next_u64_below(3) as u32,
            requesters: 1 + rng.next_u64_below(3) as u32,
        }
    }

    /// Requester `r` always talks to blade `r % blades`.
    fn blade_of(&self, r: u32) -> u32 {
        r % self.blades
    }
}

/// The three partitions under test for a topology: sequential reference,
/// one-domain-per-blade, and a seeded random blade→domain assignment
/// (which may be degenerate or mix shared and private domains).
fn partitions(topo: &Topology) -> Vec<(String, DomainPlan)> {
    let mut rng = SimRng::new(0xBEEF ^ topo.seed);
    let random: Vec<u32> = (0..topo.blades)
        .map(|_| rng.next_u64_below(u64::from(topo.blades) + 1) as u32)
        .collect();
    vec![
        ("single".into(), DomainPlan::single(1, topo.blades)),
        ("per-blade".into(), DomainPlan::per_blade(1, topo.blades)),
        (
            format!("random{random:?}"),
            DomainPlan::custom(vec![0], random),
        ),
    ]
}

/// One run of the workload under `plan`, hosted on `workers` threads.
/// Returns `(semantic, full)` artifacts: `semantic` (per-requester logs,
/// draw counts, histogram bytes) must be identical across *partitions*;
/// `full` additionally pins the interleaved completion order and must be
/// identical across *worker counts* for a fixed partition.
fn run_partition(topo: &Topology, plan: &DomainPlan, workers: usize) -> (String, String) {
    let fabric = FabricConfig::default();
    let lat_ns = fabric.one_way_latency.as_nanos() as u64;
    let mut b = PdesBuilder::new(0x5EED ^ topo.seed);

    // One private channel pair (work requests out, the cell's old value
    // back) and responder per crossing requester; None for requesters
    // whose blade shares domain 0 — they model the round trip with a
    // plain timer of the same duration. Responder endpoints are grouped
    // by owning domain, in requester order.
    type ResponderEnd = (u32, RxToken<WorkRequest>, TxToken<u64>);
    let mut responders: Vec<Vec<ResponderEnd>> = (0..plan.domains()).map(|_| Vec::new()).collect();
    let mut requester_ends: Vec<Option<(TxToken<WorkRequest>, RxToken<u64>)>> = Vec::new();
    for r in 0..topo.requesters {
        let blade = BladeId(topo.blade_of(r));
        if plan.blade_domain(blade) == DomainId(0) {
            requester_ends.push(None);
            continue;
        }
        let (d, lat) = (plan.blade_domain(blade), fabric.one_way_latency);
        let (req_tx, req_rx) = b.channel::<WorkRequest>(DomainId(0), d, lat);
        let (cpl_tx, cpl_rx) = b.channel::<u64>(d, DomainId(0), lat);
        responders[d.index()].push((r, req_rx, cpl_tx));
        requester_ends.push(Some((req_tx, cpl_rx)));
    }

    let topo_seed = topo.seed;
    let requesters = topo.requesters;
    let blade_of: Vec<u32> = (0..requesters).map(|r| topo.blade_of(r)).collect();
    b.add_domain("requesters", move |ctx: &DomainCtx| {
        let per_req: Rc<RefCell<Vec<String>>> =
            Rc::new(RefCell::new(vec![String::new(); requesters as usize]));
        let order: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        for (r, ends) in requester_ends.into_iter().enumerate() {
            let ends = ends.map(|(tx, rx)| (ctx.bind_tx(tx), ctx.bind_rx(rx)));
            let h = ctx.handle();
            let per_req = Rc::clone(&per_req);
            let order = Rc::clone(&order);
            let blade = blade_of[r];
            ctx.handle().spawn(async move {
                let mut rng = SimRng::new(topo_seed.wrapping_mul(1_000) + 77 + r as u64);
                let mut draws = 0u64;
                let mut cell = 0u64; // local mirror of the responder's cell
                let mut hist = LogHistogram::new();
                let mut log = String::new();
                for k in 0..OPS {
                    let think = rng.gen_range(1, 1_500);
                    draws += 1;
                    h.sleep(Duration::from_nanos(think)).await;
                    let add = rng.gen_range(1, 100);
                    draws += 1;
                    let t0 = h.now();
                    let old = match &ends {
                        Some((tx, rx)) => {
                            tx.send(WorkRequest {
                                wr_id: k,
                                op: OneSidedOp::Faa {
                                    addr: RemoteAddr::new(BladeId(blade), 0),
                                    add,
                                },
                            });
                            rx.recv().await
                        }
                        None => {
                            // Same-domain blade: the verb round trip is
                            // latency + service + latency of plain time.
                            h.sleep(Duration::from_nanos(2 * lat_ns + SERVICE_NS)).await;
                            let old = cell;
                            cell += add;
                            old
                        }
                    };
                    hist.record(h.now().as_nanos() - t0.as_nanos());
                    log.push_str(&format!("  k{k} t={} old={old}\n", h.now()));
                    order.borrow_mut().push(format!("t={} r{r} k{k}", h.now()));
                }
                per_req.borrow_mut()[r] = format!("r{r} draws={draws} hist={hist:?}\n{log}");
            });
        }
        Box::new(move |_: &DomainCtx| {
            let semantic = per_req.borrow().join("");
            let order = order.borrow().join("\n");
            format!("{semantic}--order--\n{order}\n").into_bytes()
        })
    });
    for (d, group) in responders.into_iter().enumerate().skip(1) {
        b.add_domain(&format!("blades-d{d}"), move |ctx: &DomainCtx| {
            for (_r, req_rx, cpl_tx) in group {
                let rx = ctx.bind_rx(req_rx);
                let tx = ctx.bind_tx(cpl_tx);
                let h = ctx.handle();
                ctx.handle().spawn(async move {
                    let mut cell = 0u64;
                    loop {
                        let wr = rx.recv().await;
                        h.sleep(Duration::from_nanos(SERVICE_NS)).await;
                        let old = cell;
                        if let OneSidedOp::Faa { add, .. } = wr.op {
                            cell += add;
                        }
                        tx.send(old);
                    }
                });
            }
            Box::new(|_: &DomainCtx| Vec::new())
        });
    }

    let crossing = (0..requesters)
        .filter(|&r| plan.blade_domain(BladeId(topo.blade_of(r))) != DomainId(0))
        .count() as u64;
    let report = b.run(workers);
    assert_eq!(
        report.envelopes,
        2 * OPS * crossing,
        "each crossing conversation ships one request and one completion per op"
    );
    let full = String::from_utf8(report.domains[0].artifact.clone()).unwrap();
    let semantic = full.split("--order--").next().unwrap().to_string();
    (semantic, full)
}

#[test]
fn random_partitions_match_the_sequential_reference() {
    for seed in 0..10u64 {
        let topo = Topology::random(seed);
        let reference = run_partition(&topo, &DomainPlan::single(1, topo.blades), 1);
        assert!(
            reference.0.contains("draws="),
            "seed {seed}: reference artifact is empty:\n{}",
            reference.0
        );
        for (name, plan) in partitions(&topo) {
            let seq = run_partition(&topo, &plan, 1);
            assert_eq!(
                seq.0, reference.0,
                "seed {seed}, partition {name}: semantic artifact diverged \
                 from the single-domain reference"
            );
            let par = run_partition(&topo, &plan, 3);
            assert_eq!(
                par.1, seq.1,
                "seed {seed}, partition {name}: full artifact (including \
                 completion order) diverged between 1 and 3 workers"
            );
        }
    }
}
