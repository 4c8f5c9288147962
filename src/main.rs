//! `smart-lab`: a command-line driver for ad-hoc experiments — the same
//! runners the figure benches use, with every knob on the command line.
//!
//! ```text
//! smart-lab micro --policy thread-aware --threads 96 --depth 8
//! smart-lab ht    --system smart --mix read-heavy --threads 48
//! smart-lab dtx   --system ford --workload smallbank --threads 32
//! smart-lab bt    --system smart-bt --mix read-only --threads 94
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use smart_bench::{
    run, BtParams, BtVariant, DtxParams, DtxWorkload, HtParams, MicroOp, MicrobenchSpec, Spec,
};
use smart_lab::smart::{QpPolicy, SmartConfig};
use smart_lab::smart_rt::Duration;
use smart_lab::smart_workloads::ycsb::Mix;

const USAGE: &str = "\
smart-lab — experiment driver for the SMART reproduction

USAGE:
  smart-lab <command> [--key value]...

COMMANDS:
  micro   raw RDMA micro-benchmark (Figures 3/4/13 style)
            --policy   shared | multiplexed | per-thread-qp |
                       per-thread-context | thread-aware   [thread-aware]
            --threads  N                                    [96]
            --depth    work requests per batch              [8]
            --op       read8 | write8 | cas                 [read8]
            --throttle on | off                             [off]
            --ms       measurement window, virtual ms       [5]
  ht      hash table (RACE / SMART-HT)
            --system   race | smart                         [smart]
            --mix      write-heavy | read-heavy | read-only |
                       update-only                          [read-heavy]
            --threads  N                                    [48]
            --keys     N                                    [200000]
            --ms       measurement window, virtual ms       [5]
  dtx     distributed transactions (FORD+ / SMART-DTX)
            --system   ford | smart                         [smart]
            --workload smallbank | tatp                     [smallbank]
            --threads  N                                    [48]
            --rows     N                                    [20000]
            --ms       measurement window, virtual ms       [5]
  bt      B+Tree (Sherman+ / Sherman+ w/ SL / SMART-BT)
            --system   sherman | sherman-sl | smart-bt      [smart-bt]
            --mix      write-heavy | read-heavy | read-only [read-only]
            --threads  N                                    [48]
            --keys     N                                    [200000]
            --ms       measurement window, virtual ms       [5]
  help    this text
";

struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(k) = it.next() {
            let Some(key) = k.strip_prefix("--") else {
                return Err(format!("expected --key, got {k:?}"));
            };
            let Some(v) = it.next() else {
                return Err(format!("--{key} is missing a value"));
            };
            map.insert(key.to_string(), v.clone());
        }
        Ok(Args(map))
    }

    fn get(&self, key: &str, default: &str) -> String {
        self.0
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        self.get(key, &default.to_string())
            .parse()
            .map_err(|_| format!("--{key} wants a number"))
    }

    fn u64(&self, key: &str, default: u64) -> Result<u64, String> {
        self.get(key, &default.to_string())
            .parse()
            .map_err(|_| format!("--{key} wants a number"))
    }
}

fn parse_policy(s: &str) -> Result<QpPolicy, String> {
    Ok(match s {
        "shared" => QpPolicy::SharedQp,
        "multiplexed" => QpPolicy::MultiplexedQp { threads_per_qp: 8 },
        "per-thread-qp" => QpPolicy::PerThreadQp,
        "per-thread-context" => QpPolicy::PerThreadContext,
        "thread-aware" => QpPolicy::ThreadAwareDoorbell,
        other => return Err(format!("unknown policy {other:?}")),
    })
}

fn parse_mix(s: &str) -> Result<Mix, String> {
    Ok(match s {
        "write-heavy" => Mix::WriteHeavy,
        "read-heavy" => Mix::ReadHeavy,
        "read-only" => Mix::ReadOnly,
        "update-only" => Mix::UpdateOnly,
        other => return Err(format!("unknown mix {other:?}")),
    })
}

fn cmd_micro(args: &Args) -> Result<(), String> {
    let threads = args.usize("threads", 96)?;
    let policy = parse_policy(&args.get("policy", "thread-aware"))?;
    let throttle = args.get("throttle", "off") == "on";
    let op = match args.get("op", "read8").as_str() {
        "read8" => MicroOp::Read(8),
        "write8" => MicroOp::Write(8),
        "cas" => MicroOp::Cas,
        other => return Err(format!("unknown op {other:?}")),
    };
    let cfg = SmartConfig::baseline(policy, threads).with_work_req_throttle(throttle);
    let mut spec = MicrobenchSpec::new(cfg, threads, args.usize("depth", 8)?);
    spec.op = op;
    spec.warmup = if throttle {
        Duration::from_millis(45)
    } else {
        Duration::from_millis(2)
    };
    spec.measure = Duration::from_millis(args.u64("ms", 5)?);
    let depth = spec.depth;
    let spec = Spec::Micro(spec);
    let r = run(&spec, &spec.single_plan(), 1).report;
    println!("micro {policy:?} threads={threads} depth={depth} op={op:?} throttle={throttle}");
    println!(
        "  {:.2} MOPS | {:.1} DRAM B/WR | WQE hit {:.3} | MTT hit {:.3}",
        r.mops, r.dram_bytes_per_op, r.wqe_hit_ratio, r.mtt_hit_ratio
    );
    Ok(())
}

fn smart_or_baseline(system: &str, threads: usize) -> Result<SmartConfig, String> {
    Ok(match system {
        "smart" => SmartConfig::smart_full(threads),
        "race" | "ford" | "baseline" => SmartConfig::baseline(QpPolicy::PerThreadQp, threads),
        other => return Err(format!("unknown system {other:?}")),
    })
}

fn cmd_ht(args: &Args) -> Result<(), String> {
    let threads = args.usize("threads", 48)?;
    let system = args.get("system", "smart");
    let mut p = HtParams::new(
        smart_or_baseline(&system, threads)?,
        threads,
        args.u64("keys", 200_000)?,
        parse_mix(&args.get("mix", "read-heavy"))?,
    );
    p.measure = Duration::from_millis(args.u64("ms", 5)?);
    let spec = Spec::Ht(p.clone());
    let r = run(&spec, &spec.single_plan(), 1).report;
    println!(
        "ht system={system} threads={threads} mix={:?} keys={}",
        p.mix, p.keys
    );
    println!(
        "  {:.3} Mops | p50 {:?} | p99 {:?} | {:.2} CAS retries/op",
        r.mops, r.median, r.p99, r.avg_retries
    );
    Ok(())
}

fn cmd_dtx(args: &Args) -> Result<(), String> {
    let threads = args.usize("threads", 48)?;
    let system = args.get("system", "smart");
    let workload = match args.get("workload", "smallbank").as_str() {
        "smallbank" => DtxWorkload::SmallBank,
        "tatp" => DtxWorkload::Tatp,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut p = DtxParams::new(
        smart_or_baseline(&system, threads)?,
        threads,
        workload,
        args.u64("rows", 20_000)?,
    );
    p.measure = Duration::from_millis(args.u64("ms", 5)?);
    let spec = Spec::Dtx(p.clone());
    let r = run(&spec, &spec.single_plan(), 1).report;
    println!(
        "dtx system={system} threads={threads} workload={workload:?} rows={}",
        p.rows
    );
    println!(
        "  {:.4} Mtxn/s | p50 {:?} | p99 {:?} | abort rate {:.2}%",
        r.mops,
        r.median,
        r.p99,
        r.abort_rate * 100.0
    );
    Ok(())
}

fn cmd_bt(args: &Args) -> Result<(), String> {
    let threads = args.usize("threads", 48)?;
    let variant = match args.get("system", "smart-bt").as_str() {
        "sherman" => BtVariant::ShermanPlus,
        "sherman-sl" => BtVariant::ShermanPlusSl,
        "smart-bt" => BtVariant::SmartBt,
        other => return Err(format!("unknown system {other:?}")),
    };
    let mut p = BtParams::new(
        variant,
        threads,
        args.u64("keys", 200_000)?,
        parse_mix(&args.get("mix", "read-only"))?,
    );
    p.measure = Duration::from_millis(args.u64("ms", 5)?);
    let spec = Spec::Bt(p.clone());
    let r = run(&spec, &spec.single_plan(), 1).report;
    println!(
        "bt system={} threads={threads} mix={:?} keys={}",
        variant.name(),
        p.mix,
        p.keys
    );
    println!(
        "  {:.3} Mops | p50 {:?} | p99 {:?}",
        r.mops, r.median, r.p99
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        print!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            print!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "micro" => cmd_micro(&args),
        "ht" => cmd_ht(&args),
        "dtx" => cmd_dtx(&args),
        "bt" => cmd_bt(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n");
            print!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
