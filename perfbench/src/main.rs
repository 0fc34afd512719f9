//! The repository benchmark: the paper path and three serving-farm
//! traffic mixes, timed from outside through the public entry points.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload farm_broot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run also
//! writes its spans to `.bench_spans/`. See `perfbench/README.md`.

mod farm;
mod metrics;
mod paper;
mod trace;

use farm::Mix;
use metrics::{Outcome, END_TO_END};
use std::path::PathBuf;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["paper_small", "farm_broot", "farm_cold", "farm_chaos"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .ok_or(format!("unknown workload {workload}; one of {WORKLOADS:?}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// The untraced figures of one workload: `report_s`, `qps`, `setup_s`.
fn measure(workload: &str, seed: u64, seconds: f64, tracer: &Tracer, out: &mut Outcome) {
    match workload {
        "paper_small" => paper::measure(seconds, tracer, out),
        "farm_broot" => farm::measure(Mix::Broot, seed, seconds, tracer, out),
        "farm_cold" => farm::measure(Mix::Cold, seed, seconds, tracer, out),
        "farm_chaos" => farm::measure(Mix::Chaos, seed, seconds, tracer, out),
        other => unreachable!("workload {other} passed argument parsing"),
    }
}

/// The traced run: every layer, each under the workload that exercises
/// it, plus the named workload measured untraced and traced for the
/// tracing overhead. Spans go to `.bench_spans/`.
fn traced(args: &Args, out: &mut Outcome) {
    // Layers first: the paper's demo experiments are memoized per
    // process, and timing them alone must pay their first call.
    let layers = Tracer::new(true);
    paper::layers(&layers, out);
    farm::constellation_layers(args.seed, &layers, out);
    farm::chaos_layers(args.seed, &layers, out);

    let budget = (args.seconds / 4.0).max(1.0);
    let e2e = Tracer::new(true);
    let mut figures = Vec::new();
    for tracer in [&Tracer::new(false), &e2e] {
        let mut run = Outcome::default();
        measure(args.workload, args.seed, budget, tracer, &mut run);
        figures.push(run.metrics["report_s"]);
        out.attempted += run.attempted;
        out.failed += run.failed;
        out.problems.extend(run.problems);
    }
    out.set(
        "bench.trace_overhead_pct",
        (figures[1] / figures[0] - 1.0) * 100.0,
    );

    let dir = PathBuf::from(".bench_spans");
    for (part, tracer) in [("e2e", &e2e), ("layers", &layers)] {
        let path = dir.join(format!("{}-{}-{part}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            out.problems
                .push(format!("writing {}: {e}", path.display()));
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let names: Vec<(String, &str)> = if args.trace {
        traced(&args, &mut out);
        metrics::per_layer()
    } else {
        measure(
            args.workload,
            args.seed,
            args.seconds,
            &Tracer::new(false),
            &mut out,
        );
        out.set("peak_rss_mb", metrics::peak_rss_mb());
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let line = out.result_line(&names);
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&argv(
            "--workload farm_cold --seed 9 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("farm_cold", 9, 20.0, true)
        );
        assert!(parse(&argv("--workload nope --seed 9 --seconds 20 --trace 1")).is_err());
        assert!(parse(&argv("--workload farm_cold --seed 9 --seconds 0 --trace 0")).is_err());
        assert!(parse(&argv("--workload farm_cold --seed 9 --seconds 5 --trace 2")).is_err());
        assert!(parse(&argv("--workload farm_cold --seconds 5 --trace 0")).is_err());
    }
}
