//! `perfbench` — the repository benchmark: seeded closed-loop workloads
//! against an in-process `cvopt_serve::Server` over loopback HTTP, with
//! answer checks, end-to-end metrics, and a traced run that times every
//! layer the operations pass through.
//!
//! ```text
//! perfbench --workload <serve-hot|serve-cold|ingest-window|remote-shards|all>
//!           [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
//! it name every figure with its unit and sample count. Spans of a traced
//! run go to `.bench_out/spans-<workload>-<seed>.json`; an untraced run
//! leaves its end-to-end figures in `.bench_out/e2e-<workload>-<seed>.txt`
//! so a traced run of the same seed can report the tracing overhead.

mod data;
mod layers;
mod probe;
mod report;
mod run;
mod schedule;
mod stats;
mod trace;
mod wrap;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Args, Inputs, Rec};
use schedule::Workload;

/// Where spans and untraced figures are written, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

fn usage() -> &'static str {
    "usage: perfbench --workload <serve-hot|serve-cold|ingest-window|remote-shards|all> \
     [--seed N] [--seconds N] [--trace 0|1]"
}

fn parse_args() -> Result<(Option<Workload>, Args), String> {
    let mut workload = None;
    let mut all = false;
    let mut args = Args { workload: Workload::ServeHot, seed: 1, seconds: 22, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name == "all" {
                    all = true;
                } else {
                    workload =
                        Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    match (workload, all) {
        (Some(w), false) => Ok((Some(w), Args { workload: w, ..args })),
        (None, true) => Ok((None, args)),
        _ => Err(usage().to_string()),
    }
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match workload {
        Some(_) => bench(args),
        None => all(args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--workload all`: each workload in its own process (so each reports
/// its own peak memory), one after the other.
fn all(args: Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("{} exited with {status}", w.name()));
        }
    }
    Ok(())
}

fn bench(args: Args) -> Result<(), String> {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed);
    let out = run::run(args, &inputs)?;
    let attempted = out.recs.len();
    let failed = out.recs.iter().filter(|r| !r.ok).count();
    let rejected: u64 = out.recs.iter().map(|r| r.rejected).sum();
    let traced_only: Vec<&Rec> = out.recs.iter().filter(|r| !args.trace || !r.window).collect();
    let (e2e, refused) = report::end_to_end(w, &out, &traced_only);
    if !args.trace && !refused.is_empty() {
        return Err(refused.join("; "));
    }
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "perfbench {} seed {} ({mode}): {attempted} operations in {:.2} s, {failed} failed, {rejected} 503s retried, {} client(s)",
        w.name(),
        args.seed,
        out.measured_s,
        w.clients()
    );
    println!("end-to-end ({mode})\n{}", report::named(w, &out, &traced_only, &e2e));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let stem = format!("{}-{}", w.name(), args.seed);
    let ops: String = out
        .recs
        .iter()
        .map(|r| {
            format!(
                "{}\t{}\t{}\t{}\n",
                r.class.name(),
                r.stmt().map_or(-1, |s| s as i64),
                r.ms,
                r.ok
            )
        })
        .collect();
    let ops_file = format!("ops-{stem}-{}.tsv", u8::from(args.trace));
    std::fs::write(PathBuf::from(OUT_DIR).join(ops_file), ops).map_err(|e| e.to_string())?;
    let metrics = if args.trace {
        let layers = report::per_layer(w, &out)?;
        print!("{}", report::table("per-layer (traced)", &layers));
        let (self_ms, n) = report::root_self_ms(&out);
        println!("  client.round_trip self time p50 {self_ms:.3} ms over {n} spans");
        overhead(&PathBuf::from(OUT_DIR).join(format!("e2e-{stem}.txt")), &e2e);
        let spans = PathBuf::from(OUT_DIR).join(format!("spans-{stem}.json"));
        std::fs::write(&spans, trace::spans_json(&out.spans)).map_err(|e| e.to_string())?;
        println!("spans: {} written to {}", out.spans.len(), spans.display());
        layers
    } else {
        let saved: String = e2e.iter().map(|m| format!("{} {}\n", m.name, m.value)).collect();
        std::fs::write(PathBuf::from(OUT_DIR).join(format!("e2e-{stem}.txt")), saved)
            .map_err(|e| e.to_string())?;
        e2e
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not finite", bad.name));
    }
    println!("{}", report::json_line(failed == 0, attempted, failed, &metrics));
    Ok(())
}

/// Print traced minus untraced for each end-to-end metric, when an
/// untraced run of the same workload and seed left its figures.
fn overhead(path: &PathBuf, traced: &[report::Metric]) {
    let Ok(text) = std::fs::read_to_string(path) else {
        println!(
            "tracing overhead: no untraced figures at {} (run --trace 0 first)",
            path.display()
        );
        return;
    };
    println!("tracing overhead (traced median - untraced median)");
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (Some(name), Some(Ok(untraced))) = (parts.next(), parts.next().map(str::parse::<f64>))
        else {
            continue;
        };
        if let Some(m) = traced.iter().find(|m| m.name == name) {
            println!("  {name:<28} {:>14.6} {}", m.value - untraced, m.unit);
        }
    }
}
