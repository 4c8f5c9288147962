//! Output: the `workload metric value unit` lines, the one-line result
//! the benchmark contract asks for, `out/results.json` and
//! `out/<workload>.spans.json`. JSON is written by hand — the package has
//! no dependencies beyond the repo's own crates.

use std::fmt::Write as _;

use crate::spans::{self_times_ns, Span};

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name from [`crate::metrics`].
    pub name: String,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric value.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: Rust's shortest round-trip form; non-finite values (which
/// JSON cannot carry) become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one JSON object a single-workload run prints as its last line.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics)
    )
}

/// `workload metric value unit` — the line format of the full run, which
/// the parent process also parses back from each child.
pub fn text_line(workload: &str, m: &Metric) -> String {
    format!("{workload} {} {:?} {}", m.name, m.value, m.unit)
}

/// Parses the metric out of a [`text_line`]; `None` for any other line.
pub fn parse_text_line(line: &str) -> Option<Metric> {
    let mut words = line.split(' ');
    let (_workload, name, value, unit) =
        (words.next()?, words.next()?, words.next()?, words.next()?);
    if words.next().is_some() {
        return None;
    }
    Some(Metric::new(name, value.parse().ok()?, unit))
}

/// Everything the full run learned about one workload.
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Whether every correctness check passed.
    pub correct: bool,
    /// End-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
    /// Free-text notes and failed checks, as printed by the children.
    pub notes: Vec<String>,
}

/// `out/results.json`.
pub fn results_json(
    seed: u64,
    seconds: f64,
    scale: f64,
    host_cpus: usize,
    results: &[WorkloadResult],
) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|r| {
            let notes: Vec<String> = r.notes.iter().map(|n| quote(n)).collect();
            format!(
                "    {{\"name\": {}, \"correct\": {}, \"end_to_end\": {}, \"per_layer\": {}, \"notes\": [{}]}}",
                quote(&r.name),
                r.correct,
                metrics_object(&r.end_to_end),
                metrics_object(&r.per_layer),
                notes.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"smart-benchmark/v1\",\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"scale\": {},\n  \"host_cpus\": {host_cpus},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        number(seconds),
        number(scale),
        workloads.join(",\n")
    )
}

/// `out/<workload>.spans.json`: every span of the traced repetition with
/// its parent and self time.
pub fn spans_json(workload: &str, repetition: usize, spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(&own)
        .enumerate()
        .map(|(id, (s, own_ns))| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "    {{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {own_ns}}}",
                quote(s.name),
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"repetition\": {repetition},\n  \"spans\": [\n{}\n  ]\n}}\n",
        quote(workload),
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let line = contract_line(
            true,
            1000,
            0,
            &[
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn text_lines_round_trip_all_digits() {
        let m = Metric::new("host_run_s", 2.170_123_456_789_012, "s");
        let line = text_line("micro_read", &m);
        assert_eq!(parse_text_line(&line), Some(m));
        assert_eq!(parse_text_line("# a note with several words"), None);
        assert_eq!(parse_text_line("w m not-a-number s"), None);
    }

    #[test]
    fn strings_are_escaped_and_non_finite_numbers_are_null() {
        assert_eq!(quote("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(0.1), "0.1");
    }

    #[test]
    fn results_json_nests_metrics_per_workload() {
        let r = WorkloadResult {
            name: "ht_read".to_string(),
            correct: true,
            end_to_end: vec![Metric::new("setup_s", 0.25, "s")],
            per_layer: vec![Metric::new("rt.events", 7.0, "count")],
            notes: vec!["3 repetitions".to_string()],
        };
        let json = results_json(42, 15.0, 1.0, 2, &[r]);
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains(
            "{\"name\": \"ht_read\", \"correct\": true, \
             \"end_to_end\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}, \
             \"per_layer\": {\"rt.events\": {\"value\": 7.0, \"unit\": \"count\"}}, \
             \"notes\": [\"3 repetitions\"]}"
        ));
    }

    #[test]
    fn spans_json_carries_parent_and_self_time() {
        let spans = [
            Span {
                name: "setup",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "setup.load",
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
            },
        ];
        let json = spans_json("ht_read", 1, &spans);
        assert!(json.contains("\"workload\": \"ht_read\""));
        assert!(json.contains(
            "{\"id\": 0, \"name\": \"setup\", \"start_ns\": 0, \"end_ns\": 100, \"parent\": null, \"self_ns\": 40}"
        ));
        assert!(json.contains(
            "{\"id\": 1, \"name\": \"setup.load\", \"start_ns\": 10, \"end_ns\": 70, \"parent\": 0, \"self_ns\": 60}"
        ));
    }
}
