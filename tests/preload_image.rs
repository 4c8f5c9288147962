//! Preload image gate: RACE's host-side load path (`load`, and the
//! subtable `split`s it triggers) must leave the blades byte-for-byte as
//! the golden pins them. Every simulated run starts from this image — a
//! lookup's fingerprint hits, a split's timing, every HT golden's counts —
//! so a faster load that moves one byte is a different simulation.
//!
//! Each case pins, per blade, an FNV-1a-64 of the whole region and the
//! allocation cursor (the offset an `alloc(8, 8)` probe returns after the
//! load), plus the table's subtable count and directory depth.
//!
//! Regenerate after an *intentional* layout change with:
//! `SMART_UPDATE_GOLDENS=1 cargo test -q --test preload_image`
//! and review the golden diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;

use smart_lab::smart_race::{RaceConfig, RaceHashTable};
use smart_lab::smart_rnic::{Cluster, ClusterConfig, MemoryBlade};
use smart_lab::smart_rt::Simulation;

/// FNV-1a-64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The hash-table benchmark's geometry (`smart-bench`'s `ht_table_config`):
/// 4096-bucket subtables, starting at the depth that would hold the keys
/// at 50 % occupancy if every slot could be used.
fn ht_geometry(keys: u64) -> RaceConfig {
    let buckets_per_subtable = 1usize << 12;
    let slots_per_subtable = (buckets_per_subtable * 8) as u64;
    let want = (keys * 2).max(slots_per_subtable);
    let depth = want
        .div_ceil(slots_per_subtable)
        .next_power_of_two()
        .trailing_zeros() as u8;
    RaceConfig {
        buckets_per_subtable,
        initial_depth: depth,
        ..Default::default()
    }
}

/// A table that splits often: 64-bucket subtables starting from one, so
/// the directory doubles over and over; small kv chunks roll over often.
fn small_geometry() -> RaceConfig {
    RaceConfig {
        buckets_per_subtable: 64,
        initial_depth: 0,
        kv_chunk_bytes: 4096,
        ..Default::default()
    }
}

/// Fingerprint of one loaded table: per-blade region hash and cursor,
/// then the subtable count and the table's `Debug` line, which carries
/// the directory's global depth and length.
fn image(name: &str, blades: &[Rc<MemoryBlade>], table: &RaceHashTable) -> String {
    let mut out = format!("case={name}\n");
    for b in blades {
        let bytes = b.read_bytes(0, b.region_bytes());
        let cursor = b.alloc(8, 8);
        writeln!(
            out,
            "blade{} region_bytes={} fnv1a64={:016x} cursor={cursor}",
            b.id().0,
            b.region_bytes(),
            fnv1a64(&bytes)
        )
        .unwrap();
    }
    writeln!(out, "subtables={}", table.subtable_count()).unwrap();
    writeln!(out, "directory={table:?}").unwrap();
    out
}

/// Builds a two-blade cluster of `region_bytes` blades and loads a table
/// with `cfg` through `fill`, checking every key in `expect` reads back.
fn case(
    name: &str,
    region_bytes: u64,
    cfg: RaceConfig,
    fill: impl Fn(&RaceHashTable),
    expect: impl Fn(&RaceHashTable),
) -> String {
    let sim = Simulation::new(1);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_region(1, 2, region_bytes));
    let table = RaceHashTable::create(cluster.blades(), cfg);
    fill(&table);
    expect(&table);
    image(name, cluster.blades(), &table)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/preload_image.fp.txt")
}

#[test]
fn preload_image_matches_golden() {
    let mut got = String::new();

    // The benchmark's geometry at 200 k keys: 16 subtables that split.
    const KEYS: u64 = 200_000;
    got += &case(
        "ht_200k",
        32 << 20,
        ht_geometry(KEYS),
        |t| {
            for k in 0..KEYS {
                t.load(&k.to_le_bytes(), &k.to_be_bytes());
            }
        },
        |t| {
            for k in (0..KEYS).step_by(997) {
                assert_eq!(
                    t.get_direct(&k.to_le_bytes()),
                    Some(k.to_be_bytes().to_vec())
                );
            }
        },
    );

    // One 64-bucket subtable grown by splits: the directory doubles.
    const SMALL: u64 = 20_000;
    got += &case(
        "small_splits",
        8 << 20,
        small_geometry(),
        |t| {
            for k in 0..SMALL {
                t.load(&k.to_le_bytes(), &k.to_be_bytes());
            }
        },
        |t| {
            for k in (0..SMALL).step_by(97) {
                assert_eq!(
                    t.get_direct(&k.to_le_bytes()),
                    Some(k.to_be_bytes().to_vec())
                );
            }
        },
    );

    // A reload of every third key with a new value: the overwrite path.
    const RELOAD: u64 = 60_000;
    let reloaded = |k: u64| (k * 7 + 1).to_le_bytes();
    got += &case(
        "reload_every_third",
        16 << 20,
        ht_geometry(RELOAD),
        |t| {
            for k in 0..RELOAD {
                t.load(&k.to_le_bytes(), &k.to_be_bytes());
            }
            for k in (0..RELOAD).step_by(3) {
                t.load(&k.to_le_bytes(), &reloaded(k));
            }
        },
        |t| {
            for k in (0..RELOAD).step_by(101) {
                let want = if k % 3 == 0 {
                    reloaded(k)
                } else {
                    k.to_be_bytes()
                };
                assert_eq!(t.get_direct(&k.to_le_bytes()), Some(want.to_vec()));
            }
        },
    );

    // Variable-length keys and values: blocks of several padded sizes,
    // on the small geometry so they also move through splits.
    const VARLEN: u64 = 20_000;
    got += &case(
        "varlen",
        8 << 20,
        small_geometry(),
        |t| {
            for k in 0..VARLEN {
                t.load(
                    format!("user{k}").as_bytes(),
                    format!("value-{k}").as_bytes(),
                );
            }
        },
        |t| {
            for k in (0..VARLEN).step_by(89) {
                assert_eq!(
                    t.get_direct(format!("user{k}").as_bytes()),
                    Some(format!("value-{k}").into_bytes())
                );
            }
        },
    );

    let path = golden_path();
    if std::env::var("SMART_UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; regenerate with SMART_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "the preload image moved; if the layout change is intentional, \
         regenerate with SMART_UPDATE_GOLDENS=1 and review the diff"
    );
}
