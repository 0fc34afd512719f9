//! The paper path: `Pipeline::run(Scale::Small)` then `experiments::run_all`,
//! the two calls `paper_report small` makes. The paper's inputs are fixed
//! inside `Scale::Small`, so this workload ignores the seed.

use crate::metrics::{fnv64, median, Outcome, PINNED_SECTIONS};
use crate::trace::{covered_ns, Tracer};
use netgeo::Region;
use roots_core::{experiments, Pipeline, Scale};
use std::hint::black_box;
use std::time::Instant;
use traces::gen::{generate_flows, ObservationWindow, TraceConfig};
use vantage::{MeasurementConfig, MeasurementEngine, World};

/// World builds timed before each report and after the last one, so
/// the set-up samples spread over the whole run.
const SETUP_BUILDS: usize = 3;

/// Reports per run even when one report takes more than half of
/// `--seconds`: a single slow report would otherwise be the median.
const MIN_REPORTS: usize = 2;

/// Largest share of `core.pipeline_s` by which the separately timed
/// stages may exceed the whole before the stage sums fail to reconcile.
/// The stages and the whole are timed in separate calls, so the bound
/// covers run-to-run noise on a shared machine.
pub const STAGE_TOLERANCE: f64 = 0.25;

/// Check each experiment's section of a `run_all` output against its
/// pinned digest; returns `id=digest` for each section that differs
/// (`id=missing` when absent).
pub fn check_sections(report: &str) -> Vec<String> {
    let registry = experiments::registry();
    let headers: Vec<(usize, &str)> = registry
        .iter()
        .filter_map(|e| {
            report
                .find(&format!("==== {} [{}] ====\n", e.id, e.paper_ref))
                .map(|at| (at, e.id))
        })
        .collect();
    let mut bad = Vec::new();
    for &(id, pinned) in &PINNED_SECTIONS {
        let Some(i) = headers.iter().position(|&(_, h)| h == id) else {
            bad.push(format!("{id}=missing"));
            continue;
        };
        let start = headers[i].0;
        let end = headers
            .iter()
            .map(|&(at, _)| at)
            .filter(|&at| at > start)
            .min()
            .unwrap_or(report.len());
        let digest = fnv64(&report.as_bytes()[start..end]);
        if digest != pinned {
            bad.push(format!("{id}={digest:#018x}"));
        }
    }
    bad
}

/// One report: the pipeline, then every experiment. Returns the wall
/// seconds and the measurement records the pipeline produced; freeing
/// the pipeline afterwards is not timed.
fn report(tracer: &Tracer, out: &mut Outcome) -> (f64, usize) {
    let started = Instant::now();
    let (pipeline, text) = tracer.span("core.report", None, |id| {
        let pipeline = tracer.span("core.pipeline", Some(id), |_| Pipeline::run(Scale::Small));
        let text = tracer.span("core.experiments", Some(id), |_| {
            experiments::run_all(&pipeline)
        });
        (pipeline, text)
    });
    let secs = started.elapsed().as_secs_f64();
    check(&text, out);
    (secs, pipeline.probes.len() + pipeline.transfers.len())
}

fn check(text: &str, out: &mut Outcome) {
    out.attempted += PINNED_SECTIONS.len() as u64;
    let bad = check_sections(text);
    if !bad.is_empty() {
        out.fail(
            bad.len() as u64,
            format!("paper sections missing or changed: {}", bad.join(" ")),
        );
    }
}

/// The untraced workload: as many reports as fit in `seconds`, but at
/// least `MIN_REPORTS`, with `setup_s` from world builds around them.
pub fn measure(seconds: f64, tracer: &Tracer, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut time_setup = || {
        for _ in 0..SETUP_BUILDS {
            let t = Instant::now();
            let world = black_box(World::build(&Scale::Small.world()));
            setups.push(t.elapsed().as_secs_f64());
            drop(world);
        }
    };
    let started = Instant::now();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    loop {
        time_setup();
        let (secs, records) = report(tracer, out);
        walls.push(secs);
        rates.push(records as f64 / secs);
        if walls.len() >= MIN_REPORTS && started.elapsed().as_secs_f64() + secs > seconds {
            break;
        }
    }
    time_setup();
    out.set("setup_s", median(&setups));
    out.set("report_s", median(&walls));
    out.set("qps", median(&rates));
}

/// The traced paper layers: the pipeline, each experiment alone, all
/// experiments through `run_all`, and the pipeline's stages called one
/// by one in the pipeline's own arrangement (measurement on this thread,
/// the three trace generators beside it).
pub fn layers(tracer: &Tracer, out: &mut Outcome) {
    let pipeline = tracer.span("core.pipeline", None, |_| Pipeline::run(Scale::Small));
    // Each experiment alone before `run_all`, so the experiments that
    // memoize per process pay their first call here.
    let mut alone = Vec::new();
    tracer.span("analysis.alone", None, |id| {
        for e in experiments::registry() {
            let secs = tracer.span(&format!("analysis.{}", e.id), Some(id), |_| {
                let t = Instant::now();
                black_box((e.run)(&pipeline));
                t.elapsed().as_secs_f64()
            });
            out.set(&format!("analysis.{}_s", e.id), secs);
            alone.push(secs);
        }
    });
    let text = tracer.span("core.experiments", None, |_| {
        experiments::run_all(&pipeline)
    });
    check(&text, out);
    drop(pipeline);

    let scale = Scale::Small;
    let (records, flows) = tracer.span("core.stages", None, |root| {
        let world = tracer.span("vantage.world", Some(root), |_| {
            World::build(&scale.world())
        });
        let config = MeasurementConfig {
            schedule: scale.schedule(),
            ..Default::default()
        };
        let engine = MeasurementEngine::new(&world, config);
        let seed = world.seed();
        let generate = |name: &str, mut cfg: TraceConfig, windows: Vec<ObservationWindow>| {
            tracer.span(name, Some(root), |_| {
                cfg.population.clients_per_family = scale.trace_clients();
                generate_flows(&cfg, &windows).len()
            })
        };
        std::thread::scope(|s| {
            let isp = s.spawn(|| {
                generate(
                    "traces.generate",
                    TraceConfig::isp(seed),
                    ObservationWindow::isp_windows(),
                )
            });
            let eu = s.spawn(|| {
                generate(
                    "traces.generate",
                    TraceConfig::ixp(Region::Europe, seed ^ 1),
                    ObservationWindow::ixp_windows(),
                )
            });
            let na = s.spawn(|| {
                generate(
                    "traces.generate",
                    TraceConfig::ixp(Region::NorthAmerica, seed ^ 2),
                    ObservationWindow::ixp_windows(),
                )
            });
            let sink = tracer.span("vantage.measure", Some(root), |_| {
                engine.run_parallel(scale.workers())
            });
            let flows: usize = [isp, eu, na]
                .into_iter()
                .map(|h| h.join().expect("trace generator panicked"))
                .sum();
            (sink.probes.len() + sink.transfers.len(), flows)
        })
    });

    let world_s = tracer.secs("vantage.world");
    let measure_s = tracer.secs("vantage.measure");
    let generators: Vec<(u64, u64)> = tracer
        .named("traces.generate")
        .iter()
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let traces_s = covered_ns(&generators) as f64 / 1e9;
    let pipeline_s = tracer.secs("core.pipeline");
    let unattributed = pipeline_s - world_s - measure_s.max(traces_s);
    if unattributed < -STAGE_TOLERANCE * pipeline_s {
        out.fail(
            0,
            format!(
                "paper stages do not reconcile: world {world_s:.3}s + max(measure {measure_s:.3}s, traces {traces_s:.3}s) > pipeline {pipeline_s:.3}s by more than {:.0}%",
                STAGE_TOLERANCE * 100.0
            ),
        );
    }
    let experiments_s = tracer.secs("core.experiments");
    let critical = alone.iter().copied().fold(0.0, f64::max);
    let serial: f64 = alone.iter().sum();
    // run_all spreads the experiments over worker threads: its wall time
    // lies between the slowest experiment and their serial sum.
    if experiments_s < critical * (1.0 - STAGE_TOLERANCE)
        || experiments_s > serial * (1.0 + STAGE_TOLERANCE)
    {
        out.fail(
            0,
            format!("experiments do not reconcile: run_all {experiments_s:.3}s outside [slowest {critical:.3}s, sum {serial:.3}s]"),
        );
    }
    out.set("vantage.world_s", world_s);
    out.set("vantage.measure_s", measure_s);
    out.set("vantage.measure_records", records as f64);
    out.set(
        "vantage.measure_ns_per_record",
        measure_s * 1e9 / records.max(1) as f64,
    );
    out.set("traces.generate_s", traces_s);
    out.set("traces.flows", flows as f64);
    out.set("core.pipeline_s", pipeline_s);
    out.set("core.pipeline_unattributed_s", unattributed);
    out.set("core.experiments_s", experiments_s);
    out.set("analysis.critical_s", critical);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_section_missing_from_an_empty_report_fails() {
        let bad = check_sections("");
        assert_eq!(bad.len(), PINNED_SECTIONS.len());
        assert!(bad.iter().all(|b| b.ends_with("=missing")));
    }

    #[test]
    fn a_changed_section_fails_and_names_its_digest() {
        let registry = experiments::registry();
        let e = &registry[0];
        let report = format!("==== {} [{}] ====\nnot the paper\n", e.id, e.paper_ref);
        let bad = check_sections(&report);
        let own = fnv64(report.as_bytes());
        assert!(bad.contains(&format!("{}={own:#018x}", e.id)));
        assert_eq!(bad.len(), PINNED_SECTIONS.len());
    }
}
