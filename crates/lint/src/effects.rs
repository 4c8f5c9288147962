//! The effect lattice of the `smart-flow` pass.
//!
//! An *effect signature* is the set of observable side-channels a fn can
//! touch, as a bitset over seven atoms:
//!
//! | atom | meaning |
//! |---|---|
//! | `Clock` | reads virtual time (`now`/`sleep`/`wake_at` on the sim handle) |
//! | `Rng` | draws from the seeded PRNG (`SimRng` methods, `with_rng`) |
//! | `SharedMut` | mutates `Rc`/`RefCell`/`Cell`/probe-cell shared state |
//! | `Fabric` | submits RNIC work (verb post, doorbell ring, CQE wait) |
//! | `Spawn` | creates a new coroutine on the executor |
//! | `Await` | contains a suspension point |
//! | `Alloc` | heap-allocates (`format!`/`vec!`/`Box::new`/`Rc::new`/`collect`…) |
//!
//! The lattice is the powerset ordered by inclusion; join is bitwise or.
//! [`crate::flow`] seeds intrinsic effects from each fn body and joins
//! them to a fixed point over the workspace call graph. This module owns
//! the bitset itself, the syntactic seed tables, the crate→domain map
//! the isolation rules use, and the `EFFECTS.json` baseline format the
//! `effect-drift` rule diffs against.

/// A set of effect atoms. Ordering/equality are derived from the raw
/// bits, so effect tables sort deterministically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Effects(pub u8);

/// `(bit, canonical name)` in canonical rendering order.
const ATOMS: &[(u8, &str)] = &[
    (1 << 0, "Clock"),
    (1 << 1, "Rng"),
    (1 << 2, "SharedMut"),
    (1 << 3, "Fabric"),
    (1 << 4, "Spawn"),
    (1 << 5, "Await"),
    (1 << 6, "Alloc"),
];

impl Effects {
    pub const EMPTY: Effects = Effects(0);
    pub const CLOCK: Effects = Effects(1 << 0);
    pub const RNG: Effects = Effects(1 << 1);
    pub const SHARED_MUT: Effects = Effects(1 << 2);
    pub const FABRIC: Effects = Effects(1 << 3);
    pub const SPAWN: Effects = Effects(1 << 4);
    pub const AWAIT: Effects = Effects(1 << 5);
    pub const ALLOC: Effects = Effects(1 << 6);

    pub fn join(self, other: Effects) -> Effects {
        Effects(self.0 | other.0)
    }

    pub fn contains(self, other: Effects) -> bool {
        self.0 & other.0 == other.0
    }

    /// The atom names present, in canonical order.
    pub fn names(self) -> Vec<&'static str> {
        ATOMS
            .iter()
            .filter(|(bit, _)| self.0 & bit != 0)
            .map(|&(_, name)| name)
            .collect()
    }

    /// Parses one canonical atom name.
    pub fn from_name(name: &str) -> Option<Effects> {
        ATOMS
            .iter()
            .find(|(_, n)| *n == name)
            .map(|&(bit, _)| Effects(bit))
    }

    /// Renders as `[Clock, Fabric]` (or `[]` for the pure signature).
    pub fn render(self) -> String {
        format!("[{}]", self.names().join(", "))
    }
}

// ---------------------------------------------------------------------------
// Syntactic seed tables
//
// A method *name* at a call site seeds the caller's intrinsic effects
// even when the callee edge cannot be resolved — these names are the
// simulation's primitive vocabulary, reserved by convention (and the
// kernel fns actually implementing them are seeded as roots by
// `intrinsic_root`, since their bodies bottom out in plain Cell reads).
// ---------------------------------------------------------------------------

/// Virtual-time observation methods (on `SimHandle`/`Simulation`/coros).
pub const CLOCK_METHODS: &[&str] = &["now", "sleep", "sleep_until", "wake_at"];

/// Seeded-PRNG draw methods (`SimRng` inherent API plus the handle's
/// scoped accessors).
pub const RNG_METHODS: &[&str] = &[
    "with_rng",
    "rand_below",
    "next_u64",
    "next_u64_below",
    "next_f64",
    "gen_range",
    "gen_bool",
    "fill_bytes",
];

/// RNIC verb-submission / completion-path methods: the only legal
/// carrier for cross-domain interaction.
pub const FABRIC_METHODS: &[&str] = &[
    "post_send",
    "post_send_as",
    "ring",
    "ring_as",
    "wait_nonempty",
];

/// Task-creation methods of the executor handles.
pub const SPAWN_METHODS: &[&str] = &["spawn", "spawn_detached"];

/// Interior-mutability write methods (`Cell::set`, `RefCell::borrow_mut`,
/// probe-cell registration).
pub const SHARED_MUT_METHODS: &[&str] = &["set", "borrow_mut", "probe_cell"];

/// Allocating method names.
pub const ALLOC_METHODS: &[&str] = &["to_string", "to_vec", "with_capacity", "collect"];

/// Allocating path calls, `(type, fn)`; `T::with_capacity(…)` also
/// seeds `Alloc`, whatever `T` is.
pub const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("String", "new"),
    ("Box", "new"),
    ("Box", "pin"),
    ("Rc", "new"),
    ("Arc", "new"),
];

/// Allocating macros, as `name!`.
pub const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Each seed table with the atom a call to one of its names seeds.
const SEEDS: [(Effects, &[&str]); 6] = [
    (Effects::CLOCK, CLOCK_METHODS),
    (Effects::RNG, RNG_METHODS),
    (Effects::FABRIC, FABRIC_METHODS),
    (Effects::SHARED_MUT, SHARED_MUT_METHODS),
    (Effects::ALLOC, ALLOC_METHODS),
    (Effects::SPAWN, SPAWN_METHODS),
];

/// The effect a method *name* seeds at its call site.
pub fn method_seed(name: &str) -> Effects {
    SEEDS
        .iter()
        .filter(|(_, names)| names.contains(&name))
        .fold(Effects::EMPTY, |e, &(atom, _)| e.join(atom))
}

/// The intrinsic effect a workspace fn *implements* (rather than calls):
/// the kernel clock/RNG accessors read plain cells, and the RNIC verb
/// paths are the fabric, so name-based call-site seeding alone would
/// leave the primitives themselves pure. Keyed by `(crate, fn name)`.
pub fn intrinsic_root(krate: &str, name: &str) -> Effects {
    let implemented = match krate {
        "rt" => Effects::CLOCK.join(Effects::RNG).join(Effects::SPAWN),
        "rnic" => Effects::FABRIC,
        _ => Effects::EMPTY,
    };
    Effects(method_seed(name).0 & implemented.0)
}

// ---------------------------------------------------------------------------
// Scheduling domains
// ---------------------------------------------------------------------------

/// The PDES scheduling domain a crate's code runs in. The parallel
/// simulation planned in ROADMAP #1 maps `Thread` and `Fabric` domains
/// to distinct OS threads with lookahead equal to the fabric latency, so
/// those two may interact **only** through `Fabric` edges; the kernel is
/// the scheduler itself and the observers are measurement layers that
/// never feed state back into the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// `trace`, `rt`: the event loop and its instrumentation substrate.
    Kernel,
    /// `rnic`: the NIC + cluster model; owns all fabric-side state.
    Fabric,
    /// `core` and the apps/serving layers: simulated-thread bodies.
    Thread,
    /// `check`, `fault`: sanitizer/chaos layers with read-mostly hooks.
    Observer,
}

impl Domain {
    pub fn name(self) -> &'static str {
        match self {
            Domain::Kernel => "kernel",
            Domain::Fabric => "fabric",
            Domain::Thread => "thread",
            Domain::Observer => "observer",
        }
    }
}

/// The domain of a workspace crate, if it is simulation code.
pub fn domain_of(krate: &str) -> Option<Domain> {
    match krate {
        "trace" | "rt" => Some(Domain::Kernel),
        "rnic" => Some(Domain::Fabric),
        "core" | "race" | "ford" | "sherman" | "workloads" | "serve" => Some(Domain::Thread),
        "check" | "fault" => Some(Domain::Observer),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// EFFECTS.json — the pinned-entry baseline
// ---------------------------------------------------------------------------

/// Workspace-relative path of the committed effect baseline.
pub const EFFECTS_PATH: &str = "crates/lint/EFFECTS.json";

/// One pinned entry point: a qualified fn name (`crate::Type::fn` or
/// `crate::fn`) and the effect set the baseline asserts for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinnedEntry {
    pub entry: String,
    pub effects: Effects,
    /// 1-based line in EFFECTS.json, for diagnostics.
    pub line: usize,
}

/// Parses the committed baseline. The format is a JSON array with one
/// object per line (`{"entry":"…","effects":["…",…]}`), line-oriented on
/// purpose so this zero-dependency crate can read it with plain string
/// scanning and diffs stay reviewable.
pub fn parse_effects_json(text: &str) -> Result<Vec<PinnedEntry>, String> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if !line.contains("\"entry\"") {
            continue;
        }
        let entry = field_str(line, "entry")
            .ok_or_else(|| format!("EFFECTS.json:{}: malformed entry line", i + 1))?;
        let list = line
            .find('[')
            .and_then(|a| line[a..].find(']').map(|b| &line[a + 1..a + b]))
            .ok_or_else(|| format!("EFFECTS.json:{}: missing effects array", i + 1))?;
        let mut effects = Effects::EMPTY;
        for name in list.split(',') {
            let name = name.trim().trim_matches('"');
            if name.is_empty() {
                continue;
            }
            let atom = Effects::from_name(name)
                .ok_or_else(|| format!("EFFECTS.json:{}: unknown effect atom `{name}`", i + 1))?;
            effects = effects.join(atom);
        }
        out.push(PinnedEntry {
            entry,
            effects,
            line: i + 1,
        });
    }
    Ok(out)
}

/// Extracts `"key":"value"` from a single JSON line.
fn field_str(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let at = line.find(&marker)? + marker.len();
    let end = line[at..].find('"')?;
    Some(line[at..at + end].to_string())
}

/// Renders the baseline file for `(entry, effects)` pairs, sorted by
/// entry name (one object per line; see [`parse_effects_json`]).
pub fn render_effects_json(entries: &[(String, Effects)]) -> String {
    let mut sorted: Vec<&(String, Effects)> = entries.iter().collect();
    sorted.sort();
    let mut out = String::from("[\n");
    for (i, (entry, eff)) in sorted.iter().enumerate() {
        let atoms: Vec<String> = eff.names().iter().map(|n| format!("\"{n}\"")).collect();
        out.push_str(&format!(
            "  {{\"entry\":\"{}\",\"effects\":[{}]}}{}\n",
            entry,
            atoms.join(","),
            if i + 1 == sorted.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_contains_and_canonical_order() {
        let e = Effects::FABRIC.join(Effects::CLOCK).join(Effects::AWAIT);
        assert!(e.contains(Effects::CLOCK));
        assert!(!e.contains(Effects::RNG));
        assert_eq!(e.names(), vec!["Clock", "Fabric", "Await"]);
        assert_eq!(e.render(), "[Clock, Fabric, Await]");
        assert_eq!(Effects::EMPTY.render(), "[]");
        assert_eq!(Effects::from_name("SharedMut"), Some(Effects::SHARED_MUT));
        assert_eq!(Effects::from_name("Nope"), None);
    }

    #[test]
    fn roots_cover_the_primitive_vocabulary() {
        assert_eq!(intrinsic_root("rt", "now"), Effects::CLOCK);
        assert_eq!(intrinsic_root("rt", "spawn"), Effects::SPAWN);
        assert_eq!(intrinsic_root("rt", "spawn_detached"), Effects::SPAWN);
        assert_eq!(intrinsic_root("rnic", "post_send"), Effects::FABRIC);
        assert_eq!(intrinsic_root("core", "now"), Effects::EMPTY);
        assert_eq!(intrinsic_root("rnic", "now"), Effects::EMPTY);
    }

    #[test]
    fn domains_partition_the_sim_crates() {
        for c in crate::rules::SIM_CRATES {
            assert!(domain_of(c).is_some(), "{c} must have a domain");
        }
        assert_eq!(domain_of("rt"), Some(Domain::Kernel));
        assert_eq!(domain_of("rnic"), Some(Domain::Fabric));
        assert_eq!(domain_of("serve"), Some(Domain::Thread));
        assert_eq!(domain_of("bench"), None);
    }

    #[test]
    fn effects_json_roundtrips() {
        let entries = vec![
            (
                "rt::SimHandle::now".to_string(),
                Effects::CLOCK.join(Effects::SHARED_MUT),
            ),
            ("core::SmartCoro::sync".to_string(), Effects::EMPTY),
        ];
        let text = render_effects_json(&entries);
        let parsed = parse_effects_json(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        // Rendering sorts by entry name.
        assert_eq!(parsed[0].entry, "core::SmartCoro::sync");
        assert_eq!(parsed[0].effects, Effects::EMPTY);
        assert_eq!(parsed[1].entry, "rt::SimHandle::now");
        assert_eq!(parsed[1].effects, Effects::CLOCK.join(Effects::SHARED_MUT));
        assert_eq!(parsed[1].line, 3);
    }

    #[test]
    fn effects_json_rejects_unknown_atoms() {
        let bad = "[\n  {\"entry\":\"rt::now\",\"effects\":[\"Clok\"]}\n]\n";
        assert!(parse_effects_json(bad).unwrap_err().contains("Clok"));
    }
}
