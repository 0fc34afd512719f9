//! The serving-farm workloads: `Farm::run` over the full constellation
//! under two query mixes, and `Farm::run_chaos` on a small farm under a
//! failure plan scaled to the arrival horizon.

use crate::metrics::{median, Outcome};
use crate::trace::{covered_ns, Tracer};
use dns_wire::RrType;
use netsim::rng::SimRng;
use netsim::types::Family;
use rootd::index::ZoneIndex;
use rootd::recovery::{run_control_plane, FailureKind};
use rootd::transport::UdpBatch;
use rootd::{
    Farm, FarmChaosConfig, FarmChaosReport, FarmConfig, FarmReport, FloodWindow, QueryMix,
};
use rss::RootLetter;
use std::hint::black_box;
use std::time::Instant;
use vantage::{World, WorldBuildConfig};

/// Seconds between the set-up samples a run takes while it measures:
/// spread over the whole run, they see the same machine as the calls.
const SETUP_EVERY_S: f64 = 1.0;

/// Largest share of `wall × shards` by which the letters' summed busy
/// time may exceed it before serve + driver time fails to reconcile.
pub const BUSY_TOLERANCE: f64 = 0.05;

/// Minimum share of legitimate queries a chaos run must answer.
const LEGIT_SERVED_FLOOR: f64 = 0.99;

/// The three farm workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The full constellation under `QueryMix::broot()`: every query is
    /// a cache hit.
    Broot,
    /// The full constellation with the same fractions but qtypes the
    /// answer cache does not precompile: most queries take the full
    /// answerer.
    Cold,
    /// A+B+C × 4 sites through `run_chaos` under crashes, a blackhole,
    /// a stall, a poisoned reload and a junk flood.
    Chaos,
}

impl Mix {
    pub fn name(self) -> &'static str {
        match self {
            Mix::Broot => "farm_broot",
            Mix::Cold => "farm_cold",
            Mix::Chaos => "farm_chaos",
        }
    }

    /// Queries per timed call: enough that one call takes ~0.1–0.3 s.
    fn queries(self) -> usize {
        match self {
            Mix::Broot => 1_000_000,
            Mix::Cold => 200_000,
            Mix::Chaos => 300_000,
        }
    }

    fn letters(self) -> (&'static [RootLetter], usize) {
        match self {
            Mix::Broot | Mix::Cold => (&RootLetter::ALL, usize::MAX),
            Mix::Chaos => (&[RootLetter::A, RootLetter::B, RootLetter::C], 4),
        }
    }
}

/// The B-Root fractions with qtypes drawn from PTR, SRV and HTTPS,
/// none of which the answer cache precompiles.
pub fn cold_mix() -> QueryMix {
    QueryMix {
        qtypes: vec![
            (RrType::Other(12), 1),
            (RrType::Other(33), 1),
            (RrType::Other(65), 1),
        ],
        ..QueryMix::broot()
    }
}

/// Worker shards: one per core, at most eight.
pub fn shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

pub fn farm_config(mix: Mix, seed: u64, shards: usize) -> FarmConfig {
    let mut cfg = FarmConfig::tiny(seed);
    cfg.queries = mix.queries();
    cfg.shards = shards;
    if mix == Mix::Cold {
        cfg.mix = cold_mix();
    }
    cfg
}

/// Failure and flood windows as shares of the arrival horizon: the
/// `farm_chaos_report` plan stretched to cover 10–60% of it.
/// `(letter, site position, kind, from, until)`.
const CHAOS_WINDOWS: [(RootLetter, usize, FailureKind, f64, f64); 4] = [
    (RootLetter::A, 1, FailureKind::Crash, 0.10, 0.40),
    (RootLetter::B, 0, FailureKind::Blackhole, 0.15, 0.35),
    (RootLetter::C, 1, FailureKind::Crash, 0.12, 0.38),
    (
        RootLetter::C,
        0,
        FailureKind::Stall { delay_ms: 250 },
        0.10,
        0.50,
    ),
];
const POISONED_RELOAD_AT: f64 = 0.25;
const FLOOD: (f64, f64, f64) = (0.20, 0.60, 8.0);

pub fn chaos_config(farm: &Farm, seed: u64, shards: usize) -> FarmChaosConfig {
    // Reload validation one day into the day-0 zone's RRSIG window:
    // clean zones pass, poisoned ones fail on their digest.
    let mut cfg = FarmChaosConfig::tiny(seed, 86_400);
    cfg.farm.queries = Mix::Chaos.queries();
    cfg.farm.shards = shards;
    let horizon = cfg.farm.queries as f64 * cfg.arrivals.interarrival_ms as f64;
    let at = |share: f64| (share * horizon) as u64;
    for (letter, pos, kind, from, until) in CHAOS_WINDOWS {
        let site = farm
            .deployment(letter)
            .expect("chaos farm serves letter")
            .sites[pos]
            .id
            .0;
        cfg.plan.add(letter, site, kind, (at(from), at(until)));
    }
    cfg.plan
        .add_poisoned_reload(RootLetter::B, at(POISONED_RELOAD_AT));
    cfg.floods.push(FloodWindow {
        start_ms: at(FLOOD.0),
        end_ms: at(FLOOD.1),
        amplification: FLOOD.2,
    });
    cfg
}

/// Share of the arrival horizon inside any failure or flood window.
pub fn chaos_window_share() -> f64 {
    const SCALE: f64 = 1e6;
    let mut windows: Vec<(u64, u64)> = CHAOS_WINDOWS
        .iter()
        .map(|&(_, _, _, from, until)| ((from * SCALE) as u64, (until * SCALE) as u64))
        .collect();
    windows.push(((FLOOD.0 * SCALE) as u64, (FLOOD.1 * SCALE) as u64));
    covered_ns(&windows) as f64 / SCALE
}

pub struct Built {
    pub world: World,
    pub farm: Farm,
}

/// World::build(tiny) then Farm::build, each in its own span.
fn build(mix: Mix, tracer: &Tracer) -> (Built, f64) {
    let (letters, cap) = mix.letters();
    let t = Instant::now();
    let built = tracer.span("rootd.setup", None, |id| {
        let world = tracer.span("rootd.setup.world", Some(id), |_| {
            World::build(&WorldBuildConfig::tiny())
        });
        let farm = tracer.span("rootd.farm.build", Some(id), |_| {
            Farm::build(
                &world.topology,
                &world.catalog,
                world.zone_at(0),
                letters,
                cap,
            )
        });
        Built { world, farm }
    });
    (built, t.elapsed().as_secs_f64())
}

/// One timed call and what it served.
pub enum Served {
    Plain(FarmReport),
    Chaos(Box<FarmChaosReport>),
}

impl Served {
    fn fingerprint(&self) -> u64 {
        match self {
            Served::Plain(r) => r.fingerprint(),
            Served::Chaos(r) => r.fingerprint(),
        }
    }

    pub fn busy_ns(&self) -> u64 {
        let letters = match self {
            Served::Plain(r) => &r.letters,
            Served::Chaos(r) => &r.letters,
        };
        letters.iter().map(|l| l.busy_ns).sum()
    }

    pub fn hit_ratio(&self) -> f64 {
        let (hits, fallbacks) = match self {
            Served::Plain(r) => (r.hits, r.fallbacks),
            Served::Chaos(r) => (r.hits, r.fallbacks),
        };
        hits as f64 / (hits + fallbacks).max(1) as f64
    }

    /// Operations attempted and failed, plus any broken check.
    fn check(&self) -> (u64, u64, Vec<String>) {
        match self {
            Served::Plain(r) => {
                let mut problems = r.violations();
                if r.dropped != 0 || r.responses != r.queries as u64 {
                    problems.push(format!(
                        "{} responses, {} dropped for {} queries",
                        r.responses, r.dropped, r.queries
                    ));
                }
                let q = r.queries as u64;
                (q, q - r.responses.min(q), problems)
            }
            Served::Chaos(r) => {
                let mut problems = r.violations();
                if r.legit_served_fraction() < LEGIT_SERVED_FLOOR {
                    problems.push(format!(
                        "legit served {:.4} < {LEGIT_SERVED_FLOOR}",
                        r.legit_served_fraction()
                    ));
                }
                if (r.reloads_rejected, r.reloads_accepted) != (1, 0) {
                    problems.push(format!(
                        "poisoned reload: {} rejected, {} accepted (want 1, 0)",
                        r.reloads_rejected, r.reloads_accepted
                    ));
                }
                (r.legit_offered, r.legit_offered - r.legit_served, problems)
            }
        }
    }
}

/// A farm under one mix, ready to serve.
pub struct Bench<'a> {
    pub mix: Mix,
    pub built: &'a Built,
    pub plain: FarmConfig,
    pub chaos: Option<FarmChaosConfig>,
}

impl<'a> Bench<'a> {
    pub fn new(mix: Mix, built: &'a Built, seed: u64, shards: usize) -> Bench<'a> {
        let chaos = (mix == Mix::Chaos).then(|| chaos_config(&built.farm, seed, shards));
        Bench {
            mix,
            plain: farm_config(mix, seed, shards),
            built,
            chaos,
        }
    }

    pub fn queries(&self) -> usize {
        self.plain.queries
    }

    /// One call of the workload's entry point with `shards` shards,
    /// timed from outside.
    pub fn call(&self, shards: usize, tracer: &Tracer) -> (Served, f64) {
        let t = Instant::now();
        let served = tracer.span(self.mix.name(), None, |_| match &self.chaos {
            Some(cfg) => {
                let mut cfg = cfg.clone();
                cfg.farm.shards = shards;
                Served::Chaos(Box::new(
                    self.built.farm.run_chaos(&self.built.world.topology, &cfg),
                ))
            }
            None => {
                let mut cfg = self.plain.clone();
                cfg.shards = shards;
                Served::Plain(self.built.farm.run(&cfg))
            }
        });
        (served, t.elapsed().as_secs_f64())
    }
}

/// Checks every call of one run against each other and the checks of
/// its workload.
pub struct Checker {
    fingerprint: Option<u64>,
}

impl Checker {
    pub fn new() -> Checker {
        Checker { fingerprint: None }
    }

    pub fn check(&mut self, served: &Served, out: &mut Outcome) {
        let (attempted, failed, mut problems) = served.check();
        let fp = served.fingerprint();
        match self.fingerprint {
            None => self.fingerprint = Some(fp),
            Some(first) if first != fp => problems.push(format!(
                "fingerprint {fp:#x} != {first:#x} for the same input"
            )),
            Some(_) => {}
        }
        out.attempted += attempted;
        out.failed += failed;
        if !problems.is_empty() {
            // A broken check voids the whole call.
            out.fail(attempted - failed, problems.join("; "));
        }
    }
}

/// The untraced workload: one warm-up call, then timed calls until
/// `seconds` have passed, with a timed set-up (a fresh world and farm,
/// dropped again) every `SETUP_EVERY_S` seconds.
pub fn measure(mix: Mix, seed: u64, seconds: f64, tracer: &Tracer, out: &mut Outcome) {
    let (built, first_setup) = build(mix, tracer);
    let bench = Bench::new(mix, &built, seed, shards());
    let mut checker = Checker::new();
    let (warm, _) = bench.call(bench.plain.shards, tracer);
    checker.check(&warm, out);
    let started = Instant::now();
    let (mut walls, mut rates, mut setups) = (Vec::new(), Vec::new(), vec![first_setup]);
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let (served, wall) = bench.call(bench.plain.shards, tracer);
        checker.check(&served, out);
        walls.push(wall);
        rates.push(bench.queries() as f64 / wall);
        if started.elapsed().as_secs_f64() >= setups.len() as f64 * SETUP_EVERY_S {
            setups.push(build(mix, tracer).1);
        }
    }
    out.set("setup_s", median(&setups));
    out.set("report_s", median(&walls));
    out.set("qps", median(&rates));
}

/// Timed calls per traced serving figure.
const TRACED_CALLS: usize = 5;

/// Per-query driver and serve time, and the reconciliation of the two
/// with `wall × shards`, over `TRACED_CALLS` calls.
fn serve_split(
    bench: &Bench,
    tracer: &Tracer,
    checker: &mut Checker,
    out: &mut Outcome,
) -> (Served, f64) {
    let shards = bench.plain.shards;
    let q = bench.queries() as f64;
    let (mut driver, mut serve, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..TRACED_CALLS {
        let (served, wall) = bench.call(shards, tracer);
        checker.check(&served, out);
        let capacity_ns = wall * 1e9 * shards as f64;
        let busy_ns = served.busy_ns() as f64;
        if busy_ns > capacity_ns * (1.0 + BUSY_TOLERANCE) {
            out.fail(
                0,
                format!(
                    "{}: serve time {busy_ns:.0} ns exceeds wall × shards {capacity_ns:.0} ns",
                    bench.mix.name()
                ),
            );
        }
        driver.push((capacity_ns - busy_ns) / q);
        serve.push(busy_ns / q);
        rates.push(q / wall);
        last = Some(served);
    }
    let name = bench.mix.name();
    out.set(
        &format!("rootd.farm.driver_ns_per_q.{name}"),
        median(&driver),
    );
    out.set(&format!("rootd.farm.serve_ns_per_q.{name}"), median(&serve));
    let last = last.expect("traced calls ran");
    out.set(&format!("rootd.cache.hit_ratio.{name}"), last.hit_ratio());
    (last, median(&rates))
}

/// The traced layers of the full-constellation farm under one mix.
fn serve_layers(bench: &Bench, tracer: &Tracer, out: &mut Outcome) {
    let name = bench.mix.name();
    let mut checker = Checker::new();
    let (warm, _) = bench.call(bench.plain.shards, tracer);
    checker.check(&warm, out);
    let (last, qps) = serve_split(bench, tracer, &mut checker, out);
    if let Served::Plain(r) = &last {
        out.set(&format!("rootd.farm.serve_p50_ns.{name}"), r.p50_ns as f64);
        out.set(&format!("rootd.farm.serve_p99_ns.{name}"), r.p99_ns as f64);
        out.set(&format!("rootd.farm.size_p50_b.{name}"), r.size_p50 as f64);
        out.set(&format!("rootd.farm.size_p99_b.{name}"), r.size_p99 as f64);
    }
    // One shard: the same answers, so the checker also compares its
    // fingerprint with the sharded calls'.
    let single: Vec<f64> = (0..2)
        .map(|_| {
            let (served, wall) = bench.call(1, tracer);
            checker.check(&served, out);
            bench.queries() as f64 / wall
        })
        .collect();
    let qps_1 = median(&single);
    out.set(&format!("rootd.farm.qps_1shard.{name}"), qps_1);
    out.set(&format!("rootd.farm.shard_scaling.{name}"), qps / qps_1);
}

/// `n` (letter, family, client) steering draws with the workload's
/// letter set, v6 share and client count, from `cfg.seed`.
pub fn steering_draws(
    letters: &[RootLetter],
    cfg: &FarmConfig,
    n: u64,
) -> Vec<(RootLetter, Family, usize)> {
    let rng = SimRng::new(cfg.seed);
    (0..n)
        .map(|g| {
            let mut r = rng.derive_ids(&[0x57ee, g]);
            let letter = letters[r.next_range(letters.len())];
            let family = if r.chance(cfg.v6_fraction) {
                Family::V6
            } else {
                Family::V4
            };
            (letter, family, g as usize % cfg.clients)
        })
        .collect()
}

/// A DNS query for `name` (presentation labels, no trailing dot) and
/// `qtype`, class IN, no EDNS.
pub fn query(id: u16, labels: &[&str], qtype: RrType) -> Vec<u8> {
    let mut q = vec![(id >> 8) as u8, id as u8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
    for label in labels {
        q.push(label.len() as u8);
        q.extend_from_slice(label.as_bytes());
    }
    q.push(0);
    q.extend_from_slice(&qtype.to_u16().to_be_bytes());
    q.extend_from_slice(&[0, 1]);
    q
}

/// Nanoseconds per query of `serve_udp_batch` over batches of `wires`,
/// and whether every query took the expected path.
fn engine_ns(engine: &rootd::Rootd, wires: &[Vec<u8>], expect_hit: bool) -> (f64, bool) {
    const BATCH: usize = 32;
    const ROUNDS: usize = 4_000;
    let mut batch = UdpBatch::new();
    let (mut busy_ns, mut served, mut as_expected) = (0u128, 0u64, true);
    for round in 0..ROUNDS {
        batch.clear();
        for i in 0..BATCH {
            batch.push_request(&wires[(round * BATCH + i) % wires.len()]);
        }
        let t = Instant::now();
        let tally = black_box(engine.serve_udp_batch(&mut batch));
        busy_ns += t.elapsed().as_nanos();
        served += BATCH as u64;
        let expected = if expect_hit {
            tally.hits
        } else {
            tally.fallbacks
        };
        as_expected &= expected == BATCH as u64;
    }
    (busy_ns as f64 / served as f64, as_expected)
}

/// Setup, steering and engine layers of the full-constellation farm,
/// then the serving layers under both full-farm mixes.
pub fn constellation_layers(seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let (built, _) = build(Mix::Broot, tracer);
    out.set("rootd.setup.world_s", tracer.secs("rootd.setup.world"));
    out.set("rootd.farm.build_s", tracer.secs("rootd.farm.build"));
    let index = tracer.span("rootd.index.build", None, |_| {
        ZoneIndex::build(built.world.zone_at(0))
    });
    out.set("rootd.index.build_s", tracer.secs("rootd.index.build"));

    // Steering: the workload's (letter, family, client) draws through
    // the public lookup.
    let farm = &built.farm;
    let letters = farm.letters();
    let draws = steering_draws(
        &letters,
        &farm_config(Mix::Broot, seed, shards()),
        1_000_000,
    );
    let steer_s = tracer.span("rootd.farm.steer", None, |_| {
        let t = Instant::now();
        let mut sum = 0u64;
        for &(letter, family, client) in &draws {
            sum += u64::from(farm.site_for(letter, family, client).unwrap_or(0));
        }
        black_box(sum);
        t.elapsed().as_secs_f64()
    });
    out.set("rootd.farm.steer_ns", steer_s * 1e9 / draws.len() as f64);

    // The engine alone: cached and fallback answers for TLD names.
    let site = farm.deployment(RootLetter::A).expect("farm serves A").sites[0]
        .id
        .0;
    let engine = farm
        .engine_at(RootLetter::A, site)
        .expect("engine at A's first site");
    let tlds = index.tld_labels();
    let wires = |qtype: RrType| -> Vec<Vec<u8>> {
        tlds.iter()
            .enumerate()
            .map(|(i, tld)| query(i as u16, &[tld.as_str()], qtype))
            .collect()
    };
    for (metric, qtype, hit) in [
        ("rootd.engine.hit_ns", RrType::Ns, true),
        ("rootd.engine.fallback_ns", RrType::Other(12), false),
    ] {
        let (ns, as_expected) =
            tracer.span(metric, None, |_| engine_ns(engine, &wires(qtype), hit));
        if !as_expected {
            out.fail(
                0,
                format!("{metric}: some {qtype:?} queries took the other serve path"),
            );
        }
        out.set(metric, ns);
    }
    drop(index);

    for mix in [Mix::Broot, Mix::Cold] {
        serve_layers(&Bench::new(mix, &built, seed, shards()), tracer, out);
    }
}

/// The chaos farm's control plane, failover counters, serving split and
/// the wall-time cost of the chaos path with nothing failing.
pub fn chaos_layers(seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let (built, _) = build(Mix::Chaos, tracer);
    let bench = Bench::new(Mix::Chaos, &built, seed, shards());
    let cfg = bench
        .chaos
        .as_ref()
        .expect("chaos bench has a chaos config");
    let farm = &built.farm;
    let topology = &built.world.topology;

    // The control plane alone, on the roster, plan and horizon run_chaos
    // gives it.
    let roster: Vec<(RootLetter, Vec<u32>)> = farm
        .letters()
        .into_iter()
        .map(|l| {
            let sites = farm.deployment(l).expect("farm serves letter").sites.iter();
            (l, sites.map(|s| s.id.0).collect())
        })
        .collect();
    let last_arrival = cfg
        .arrivals
        .attempt_at(cfg.farm.queries as u64, 1, cfg.hedge_timeout_ms);
    let horizon = last_arrival
        .max(
            cfg.plan
                .max_finite_end()
                .saturating_add(cfg.recovery.budget_ms()),
        )
        .saturating_add(4 * cfg.health.probe_interval_ms);
    let control_s = tracer.span("rootd.recovery.control_plane", None, |_| {
        let t = Instant::now();
        black_box(run_control_plane(
            &roster,
            &cfg.plan,
            &cfg.health,
            &cfg.recovery,
            horizon,
        ));
        t.elapsed().as_secs_f64()
    });
    out.set("rootd.recovery.control_plane_s", control_s);
    out.set("rootd.recovery.window_share", chaos_window_share());

    let mut checker = Checker::new();
    let (warm, _) = bench.call(bench.plain.shards, tracer);
    checker.check(&warm, out);
    let (last, _) = serve_split(&bench, tracer, &mut checker, out);
    if let Served::Chaos(r) = &last {
        out.set("rootd.recovery.probes", r.probes as f64);
        out.set("rootd.health.transitions", r.transitions.len() as f64);
        out.set("rootd.farm.steering_epochs", r.steering_epochs as f64);
        out.set("rootd.farm.hedged", r.served_hedged as f64);
        out.set("rootd.farm.late", r.late as f64);
        out.set("rootd.farm.shed_junk", r.shed_junk as f64);
        out.set("rootd.farm.shed_benign", r.shed_benign as f64);
        out.set("rootd.farm.unanswered", r.unanswered as f64);

        // The fault-free twin: every delivered answer must match it, and
        // it times the chaos path against the plain farm when nothing
        // fails. Pairs alternate which side runs first.
        let twin = cfg.twin();
        let (mut plain_walls, mut chaos_walls) = (Vec::new(), Vec::new());
        for pair in 0..2 * TRACED_CALLS {
            let time_plain = || {
                tracer.span("rootd.farm.healthy_plain", None, |_| {
                    let t = Instant::now();
                    black_box(farm.run(&cfg.farm));
                    t.elapsed().as_secs_f64()
                })
            };
            let time_twin = || {
                tracer.span("rootd.farm.healthy_chaos", None, |_| {
                    let t = Instant::now();
                    let report = farm.run_chaos(topology, &twin);
                    (t.elapsed().as_secs_f64(), report)
                })
            };
            let (p, (c, report)) = if pair % 2 == 0 {
                let p = time_plain();
                (p, time_twin())
            } else {
                let c = time_twin();
                (time_plain(), c)
            };
            plain_walls.push(p);
            chaos_walls.push(c);
            let mismatches = r.diff_twin(&report);
            if !mismatches.is_empty() {
                out.fail(
                    mismatches.len() as u64,
                    format!(
                        "{} chaos answers differ from the fault-free twin",
                        mismatches.len()
                    ),
                );
            }
        }
        out.set(
            "rootd.farm.healthy_overhead_wall_pct",
            (median(&chaos_walls) / median(&plain_walls) - 1.0) * 100.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_mix_keeps_the_broot_fractions() {
        let (cold, broot) = (cold_mix(), QueryMix::broot());
        assert_eq!(cold.nxdomain_fraction, broot.nxdomain_fraction);
        assert_eq!(cold.dnssec_fraction, broot.dnssec_fraction);
        assert_eq!(cold.chaos_fraction, broot.chaos_fraction);
        assert!(cold
            .qtypes
            .iter()
            .all(|(t, _)| matches!(t, RrType::Other(_))));
    }

    #[test]
    fn inputs_are_deterministic_in_the_seed() {
        let world = World::build(&WorldBuildConfig::tiny());
        let (letters, cap) = Mix::Chaos.letters();
        let farm = Farm::build(
            &world.topology,
            &world.catalog,
            world.zone_at(0),
            letters,
            cap,
        );
        for mix in [Mix::Broot, Mix::Cold] {
            let a = farm_config(mix, 7, 2);
            assert_eq!(format!("{a:?}"), format!("{:?}", farm_config(mix, 7, 2)));
            assert_eq!(a.queries, mix.queries());
            // The queries the farm generates from the config: same seed,
            // same answers; another seed, other answers.
            let run = |seed: u64| {
                let mut cfg = farm_config(mix, seed, 2);
                cfg.queries = 5_000;
                farm.run(&cfg).fingerprint()
            };
            assert_eq!(run(7), run(7));
            assert_ne!(run(7), run(8));
        }
        let a = chaos_config(&farm, 7, 2);
        assert_eq!(format!("{a:?}"), format!("{:?}", chaos_config(&farm, 7, 2)));
        assert_ne!(format!("{a:?}"), format!("{:?}", chaos_config(&farm, 8, 2)));
        let horizon = a.farm.queries as u64 * a.arrivals.interarrival_ms;
        let windows: Vec<_> = a.plan.all_windows().map(|(_, w)| *w).collect();
        assert_eq!(windows.len(), CHAOS_WINDOWS.len());
        assert!(windows
            .iter()
            .all(|w| w.start_ms >= horizon / 10 && w.end_ms <= horizon * 6 / 10));

        let cfg = farm_config(Mix::Broot, 7, 2);
        let draws = steering_draws(&RootLetter::ALL, &cfg, 1_000);
        assert_eq!(draws, steering_draws(&RootLetter::ALL, &cfg, 1_000));
        assert_ne!(
            draws,
            steering_draws(&RootLetter::ALL, &farm_config(Mix::Broot, 8, 2), 1_000)
        );
    }

    #[test]
    fn window_share_is_the_union_of_the_windows() {
        // Failures cover 10–50% and the flood 20–60%: together 10–60%.
        assert!((chaos_window_share() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn queries_hit_and_miss_the_cache_as_intended() {
        let world = World::build(&WorldBuildConfig::tiny());
        let farm = Farm::build(
            &world.topology,
            &world.catalog,
            world.zone_at(0),
            &[RootLetter::A],
            1,
        );
        let site = farm.deployment(RootLetter::A).unwrap().sites[0].id.0;
        let engine = farm.engine_at(RootLetter::A, site).unwrap();
        let index = ZoneIndex::build(world.zone_at(0));
        let tld = index.tld_labels().remove(0);
        for (qtype, hit) in [(RrType::Ns, true), (RrType::Other(12), false)] {
            let mut batch = UdpBatch::new();
            batch.push_request(&query(1, &[tld.as_str()], qtype));
            let tally = engine.serve_udp_batch(&mut batch);
            assert_eq!(
                (tally.hits, tally.fallbacks),
                (u64::from(hit), u64::from(!hit))
            );
            assert!(batch.response(0).is_some());
        }
    }
}
