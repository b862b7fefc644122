//! Metric assembly and printing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::run::{Outcome, Rec};
use crate::schedule::{Class, Workload};
use crate::stats::{mean, median, percentile};
use crate::trace::self_times;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric { name: name.into(), value, unit, n }
}

/// The slot names of the end-to-end latency metrics, in the order of
/// [`Workload::slots`].
pub const SLOTS: [&str; 3] = ["main", "side", "third"];

fn latencies(recs: &[&Rec], class: Class) -> Vec<f64> {
    recs.iter().filter(|r| r.ok && r.class == class).map(|r| r.ms).collect()
}

/// The end-to-end metrics of `BENCHMARK.json`, computed over `recs` (all
/// operations of an untraced run; the main phase of a traced one). A
/// percentile the samples cannot carry is left out and named in the
/// second list.
pub fn end_to_end(w: Workload, out: &Outcome, recs: &[&Rec]) -> (Vec<Metric>, Vec<String>) {
    let timed = recs.iter().filter(|r| r.ok).count();
    let mut metrics = vec![
        metric("setup_s", median(&out.setup_s).unwrap_or(0.0), "s", out.setup_s.len()),
        metric("rss_peak_mb", out.rss_peak_mb, "MiB", 1),
        metric("ops_per_s", timed as f64 / out.measured_s, "1/s", timed),
    ];
    let mut refused = Vec::new();
    let [main, side, third] = w.slots();
    for (slot, class, p) in
        [("main", main, 50.0), ("main", main, 90.0), ("side", side, 50.0), ("third", third, 50.0)]
    {
        let xs = latencies(recs, class);
        let name = format!("{slot}_p{}_ms", p as u32);
        match percentile(&xs, p) {
            Some(v) => metrics.push(metric(name, v, "ms", xs.len())),
            None => refused.push(format!(
                "{name}: {} {} samples cannot carry p{p}",
                xs.len(),
                class.name()
            )),
        }
    }
    (metrics, refused)
}

/// The figures under the class names: per class p50/p90 (or why a
/// percentile was refused) and the failure fraction.
pub fn named(w: Workload, out: &Outcome, recs: &[&Rec], e2e: &[Metric]) -> String {
    let mut s = String::new();
    let attempted = recs.len();
    let failed = recs.iter().filter(|r| !r.ok).count();
    let _ = writeln!(
        s,
        "  {:<28} {:>14} {:<6} {:>6}",
        "failed_frac",
        format!("{}", failed as f64 / attempted.max(1) as f64),
        "ratio",
        attempted
    );
    for m in e2e.iter().filter(|m| !SLOTS.iter().any(|slot| m.name.starts_with(slot))) {
        let _ = writeln!(s, "  {:<28} {:>14.6} {:<6} {:>6}", m.name, m.value, m.unit, m.n);
    }
    let (err, scored) = out.approx_err;
    let _ = writeln!(s, "  {:<28} {:>14.6} {:<6} {:>6}", "approx_err_mean", err, "ratio", scored);
    for (slot, class) in SLOTS.iter().zip(w.slots()) {
        let xs = latencies(recs, class);
        for p in [50.0, 90.0] {
            let name = format!("{}_p{}_ms", class.name(), p as u32);
            let value = match percentile(&xs, p) {
                Some(v) => format!("{v:.3}"),
                None => "refused".to_string(),
            };
            let alias = if p == 50.0 || *slot == "main" {
                format!("[{slot}_p{}_ms]", p as u32)
            } else {
                String::new()
            };
            let _ = writeln!(s, "  {name:<28} {value:>14} {:<6} {:>6} {alias}", "ms", xs.len());
        }
    }
    s
}

/// Span names whose median duration is a per-layer metric, with the
/// metric name and its unit scale (`1e3` for ms, `1e6` for µs).
const SPAN_METRICS: [(&str, &str, &str, f64); 19] = [
    ("serve.http.read", "serve.http.read_us", "us", 1e6),
    ("serve.json.parse", "serve.json.parse_us", "us", 1e6),
    ("serve.json.render", "serve.json.render_us", "us", 1e6),
    ("engine.plan", "engine.plan_us", "us", 1e6),
    ("sql.parse", "sql.parse_us", "us", 1e6),
    ("groupby.build", "groupby.build_ms", "ms", 1e3),
    ("stats.collect", "stats.collect_ms", "ms", 1e3),
    ("alloc.solve", "alloc.solve_us", "us", 1e6),
    ("sample.draw", "sample.draw_ms", "ms", 1e3),
    ("estimate", "estimate.ms", "ms", 1e3),
    ("confidence", "confidence.ms", "ms", 1e3),
    ("exact.scan", "exact.scan_ms", "ms", 1e3),
    ("join.build", "join.ms", "ms", 1e3),
    ("maintain.ingest", "maintain.ingest_ms", "ms", 1e3),
    ("maintain.rotate", "maintain.rotate_ms", "ms", 1e3),
    ("net.group_index", "net.pass_ms.group_index", "ms", 1e3),
    ("net.predicate_bitmap", "net.pass_ms.predicate_bitmap", "ms", 1e3),
    ("net.expr_values", "net.pass_ms.expr_values", "ms", 1e3),
    ("net.take_rows", "net.pass_ms.take_rows", "ms", 1e3),
];

/// Facts reported by median (or mean, for shares), with their units.
const FACT_METRICS: [(&str, &str, bool); 8] = [
    ("serve.http.writes_per_response", "count", false),
    ("serve.json.response_bytes", "bytes", false),
    ("groupby.strata", "count", false),
    ("groupby.sort_share", "ratio", true),
    ("stats.rows_per_s", "rows/s", false),
    ("sample.rows", "count", false),
    ("exact.rows_per_s", "rows/s", false),
    ("join.output_rows", "count", false),
];

/// Units of the counter metrics.
fn counter_unit(name: &str) -> &'static str {
    if name.ends_with("ratio") {
        "ratio"
    } else if name.ends_with("bytes_per_op") || name.ends_with("bytes_held") {
        "bytes"
    } else {
        "count"
    }
}

/// Every per-layer metric of a traced run.
pub fn per_layer(w: Workload, out: &Outcome) -> Result<Vec<Metric>, String> {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &out.spans {
        by_name.entry(s.name).or_default().push(s.len() as f64 / 1e9);
    }
    let mut m = Vec::new();
    let traced: Vec<&Rec> = out.recs.iter().filter(|r| r.handle_ms.is_some()).collect();
    for (slot, class) in SLOTS.iter().zip(w.slots()) {
        let of = |f: &dyn Fn(&Rec) -> f64| -> Vec<f64> {
            traced.iter().filter(|r| r.class == class).map(|r| f(r)).collect()
        };
        let transport = of(&|r| r.ms - r.handle_ms.unwrap_or(0.0));
        let handle = of(&|r| r.handle_ms.unwrap_or(0.0));
        let engine = of(&|r| r.engine_ms.unwrap_or(0.0));
        for (name, xs) in [
            ("serve.transport_ms", transport),
            ("serve.api.handle_ms", handle),
            ("engine.query_ms", engine),
        ] {
            let v = median(&xs)
                .ok_or_else(|| format!("{name}.{slot}: no traced {} operations", class.name()))?;
            m.push(metric(format!("{name}.{slot}"), v, "ms", xs.len()));
        }
    }
    for (span, name, unit, scale) in SPAN_METRICS {
        let xs = by_name.get(span).cloned().unwrap_or_default();
        let v = median(&xs).ok_or_else(|| format!("{name}: no {span} spans"))?;
        m.push(metric(name, v * scale, unit, xs.len()));
    }
    for (name, unit, share) in FACT_METRICS {
        let xs = out.facts.get(name);
        let v = if share { mean(&xs) } else { median(&xs) };
        m.push(metric(name, v.ok_or_else(|| format!("{name}: no observations"))?, unit, xs.len()));
    }
    for &(name, v) in &out.counters {
        m.push(metric(name, v, counter_unit(name), w.counter_window() * w.clients()));
    }
    Ok(m)
}

/// Median self time of the root spans (the client round trip minus the
/// remote passes inside it), milliseconds, with its sample count.
pub fn root_self_ms(out: &Outcome) -> (f64, usize) {
    let selfs = self_times(&out.spans);
    let xs: Vec<f64> = out
        .spans
        .iter()
        .filter(|s| s.name == "client.round_trip")
        .map(|s| selfs[&s.id] as f64 / 1e6)
        .collect();
    (median(&xs).unwrap_or(0.0), xs.len())
}

/// Print a metric table.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut s = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(s, "  {:<36} {:>16.6} {:<7} {:>6}", m.name, m.value, m.unit, m.n);
    }
    s
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys() {
        let line = json_line(true, 3, 0, &[metric("latency_ms", 1.25, "ms", 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
