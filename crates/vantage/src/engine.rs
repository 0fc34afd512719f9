//! The active measurement engine.
//!
//! Reproduces the Appendix F script's behaviour over the simulated world:
//! per scheduled round, every VP probes all 14 targets (a–m plus the second
//! b.root address) over IPv4 and IPv6 — site selection (with churn),
//! RTT, traceroute second-to-last hop, `hostname.bind` identity, and (from
//! 2023-07-31) a full AXFR. Observations stream into a
//! [`MeasurementSink`]; the compact [`records`](crate::records) keep even
//! large runs tractable.
//!
//! Determinism: all randomness derives from `(seed, vp, target, family,
//! round time)`, so a VP's observation stream is independent of every other
//! VP — which is also what makes [`MeasurementEngine::run_parallel`]
//! trivially correct: workers own disjoint VP ranges.

use crate::population::{Population, PopulationConfig, VantagePoint, VpFault};
use crate::records::{ProbeRecord, Target, TransferFault, TransferRecord};
use crate::schedule::{Round, Schedule};
use dns_crypto::validity::timestamp_to_date;
use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
use dns_zone::signer::ZoneKeys;
use dns_zone::Zone;
use netsim::anycast::{SiteId, SiteScope};
use netsim::churn::SelectionState;
use netsim::routing::{propagate, CandidateRoute};
use netsim::{ChurnModel, Family, RouteTable, RttModel, SimRng, Topology, TopologyConfig};
use parking_lot::Mutex;
use rss::catalog::{RootCatalog, WorldConfig};
use rss::RootLetter;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Everything a measurement needs: topology, catalog, routing, VPs, zones.
pub struct World {
    pub topology: Topology,
    pub catalog: RootCatalog,
    pub population: Population,
    /// Route tables indexed `[letter][family]`.
    route_tables: Vec<[RouteTable; 2]>,
    /// Attracting sites per `[letter][family]`: distinct sites selected by
    /// at least one AS — the pool an upstream path change can land on.
    attracting: Vec<[Vec<netsim::anycast::SiteId>; 2]>,
    /// The `hostname.bind` answer of every catalog row, indexed like
    /// `catalog.sites`. Identities are per-site constants, so every probe
    /// answered by a site shares its one allocation.
    identities: Vec<Arc<str>>,
    /// Zone keys (stable across the measurement; the root's actual keys
    /// also did not roll during the window).
    pub keys: ZoneKeys,
    /// Day-indexed zone cache.
    zone_cache: Mutex<HashMap<u32, Arc<Zone>>>,
    /// TLD count for generated zones.
    zone_tlds: usize,
    seed: u64,
    /// Sites currently withdrawn from service, per letter (sorted). The
    /// catalog keeps the full roster — withdrawal only removes the site
    /// from route propagation, so `SiteId`s stay stable across
    /// apply/revert cycles (the scenario engine depends on this).
    withdrawn: Vec<Vec<SiteId>>,
    /// When set, every generated zone uses this ZONEMD roll-out phase
    /// instead of the dated timeline (scenario override).
    zonemd_override: Option<RolloutPhase>,
}

/// World construction parameters.
#[derive(Debug, Clone)]
pub struct WorldBuildConfig {
    pub topology: TopologyConfig,
    pub catalog: WorldConfig,
    pub population: PopulationConfig,
    /// TLD delegations in generated zones (the real root has ~1.5k; smaller
    /// zones keep AXFR-heavy runs fast without changing any analysis).
    pub zone_tlds: usize,
    pub seed: u64,
}

impl Default for WorldBuildConfig {
    fn default() -> Self {
        WorldBuildConfig {
            topology: TopologyConfig::default(),
            catalog: WorldConfig::default(),
            population: PopulationConfig::default(),
            zone_tlds: 25,
            seed: 0x2023_0703,
        }
    }
}

impl WorldBuildConfig {
    /// A miniature world for unit tests: scaled-down sites and VPs.
    pub fn tiny() -> Self {
        WorldBuildConfig {
            topology: TopologyConfig {
                tier2_per_region: 5,
                stubs_per_region: [8, 12, 40, 25, 8, 10],
                ..Default::default()
            },
            catalog: WorldConfig {
                site_scale: 0.2,
                ..Default::default()
            },
            population: PopulationConfig::tiny(),
            zone_tlds: 8,
            seed: 0x2023_0703,
        }
    }
}

impl World {
    /// Build the world: topology → catalog (adds facility ASes) → routing
    /// tables for all 13 deployments × both families → VP population.
    pub fn build(cfg: &WorldBuildConfig) -> World {
        let mut topology = Topology::generate(&cfg.topology);
        let catalog = RootCatalog::build(&mut topology, &cfg.catalog);
        let mut route_tables = Vec::with_capacity(13);
        let mut attracting = Vec::with_capacity(13);
        for letter in RootLetter::ALL {
            let (tables, pool) = compute_letter_routing(&topology, &catalog, letter, &[]);
            route_tables.push(tables);
            attracting.push(pool);
        }
        let population = Population::synthesize(&topology, &cfg.population);
        let identities = catalog
            .sites
            .iter()
            .map(|row| Arc::from(observed_identity(row)))
            .collect();
        World {
            topology,
            catalog,
            population,
            route_tables,
            attracting,
            identities,
            keys: ZoneKeys::from_seed(cfg.seed ^ 0x5a5a),
            zone_cache: Mutex::new(HashMap::new()),
            zone_tlds: cfg.zone_tlds,
            seed: cfg.seed,
            withdrawn: vec![Vec::new(); 13],
            zonemd_override: None,
        }
    }

    /// Route table for `letter`/`family`.
    pub fn routes(&self, letter: RootLetter, family: Family) -> &RouteTable {
        &self.route_tables[letter.index()][family.index()]
    }

    /// Sites of `letter` that attract at least one AS in `family` — the
    /// pool an upstream path change can redirect a client to.
    pub fn attracting_sites(
        &self,
        letter: RootLetter,
        family: Family,
    ) -> &[netsim::anycast::SiteId] {
        &self.attracting[letter.index()][family.index()]
    }

    /// The zone published on the day containing `time`.
    ///
    /// Serial follows the root convention `YYYYMMDDnn`; signatures are
    /// incepted at day start and run two weeks; the ZONEMD phase follows
    /// the roll-out timeline.
    pub fn zone_at(&self, time: u32) -> Arc<Zone> {
        let day = time - time % 86400;
        if let Some(z) = self.zone_cache.lock().get(&day) {
            return z.clone();
        }
        let serial = serial_of_day(day);
        let zone = Arc::new(build_root_zone(
            &RootZoneConfig {
                serial,
                tld_count: self.zone_tlds,
                inception: day,
                expiration: day + 14 * 86400,
                rollout: self
                    .zonemd_override
                    .unwrap_or_else(|| RolloutPhase::at(day)),
            },
            &self.keys,
        ));
        self.zone_cache.lock().insert(day, zone.clone());
        zone
    }

    /// The base seed of this world.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Take `site` of `letter` out of service: it stops originating the
    /// service prefix and routing for that letter is recomputed. Returns
    /// `false` (and changes nothing) when the site is unknown or already
    /// withdrawn. `SiteId`s stay stable — the catalog roster is untouched.
    pub fn withdraw_site(&mut self, letter: RootLetter, site: SiteId) -> bool {
        let known = self
            .catalog
            .deployment(letter)
            .sites
            .iter()
            .any(|s| s.id == site);
        let w = &mut self.withdrawn[letter.index()];
        if !known || w.contains(&site) {
            return false;
        }
        w.push(site);
        w.sort_unstable();
        self.recompute_letter(letter);
        true
    }

    /// Put a withdrawn site back in service and recompute routing. Returns
    /// `false` when the site was not withdrawn.
    pub fn restore_site(&mut self, letter: RootLetter, site: SiteId) -> bool {
        let w = &mut self.withdrawn[letter.index()];
        let Some(pos) = w.iter().position(|&s| s == site) else {
            return false;
        };
        w.remove(pos);
        self.recompute_letter(letter);
        true
    }

    /// Sites of `letter` currently withdrawn from service (sorted).
    pub fn withdrawn_sites(&self, letter: RootLetter) -> &[SiteId] {
        &self.withdrawn[letter.index()]
    }

    /// Recompute route tables and attracting pools for one letter from the
    /// current topology and withdrawal set.
    pub fn recompute_letter(&mut self, letter: RootLetter) {
        let (tables, pool) = compute_letter_routing(
            &self.topology,
            &self.catalog,
            letter,
            &self.withdrawn[letter.index()],
        );
        self.route_tables[letter.index()] = tables;
        self.attracting[letter.index()] = pool;
    }

    /// Recompute routing for every letter — required after a topology-level
    /// change (e.g. a peering link failure) that affects all deployments.
    pub fn recompute_all(&mut self) {
        for letter in RootLetter::ALL {
            self.recompute_letter(letter);
        }
    }

    /// Order-independent fingerprint of `letter`'s routing state (both
    /// families, every AS, full candidate lists). Scenario apply→revert
    /// round-trips are checked against this hash.
    pub fn routing_hash(&self, letter: RootLetter) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for family in Family::BOTH {
            let table = self.routes(letter, family);
            for node in self.topology.nodes() {
                for c in table.candidates(node.id) {
                    mix(node.id.0 as u64);
                    mix(c.site.0 as u64);
                    mix(c.via.map(|a| a.0 as u64 + 1).unwrap_or(0));
                    mix(c.learned_from as u64);
                    mix(c.path.len() as u64);
                    mix(c.km as u64);
                }
            }
        }
        h
    }

    /// Force every generated zone into `phase` (or back to the dated
    /// timeline with `None`). Drops the zone cache, so zones are rebuilt
    /// lazily under the new phase.
    pub fn set_zonemd_override(&mut self, phase: Option<RolloutPhase>) {
        self.zonemd_override = phase;
        self.zone_cache.lock().clear();
    }

    /// The active ZONEMD phase override, if any.
    pub fn zonemd_override(&self) -> Option<RolloutPhase> {
        self.zonemd_override
    }
}

/// Route tables and attracting pools for one letter, excluding `withdrawn`
/// sites from propagation. Shared by [`World::build`] and the scenario
/// mutation paths so both compute routing identically.
fn compute_letter_routing(
    topology: &Topology,
    catalog: &RootCatalog,
    letter: RootLetter,
    withdrawn: &[SiteId],
) -> ([RouteTable; 2], [Vec<SiteId>; 2]) {
    let full = catalog.deployment(letter);
    let filtered;
    let d = if withdrawn.is_empty() {
        full
    } else {
        filtered = netsim::anycast::Deployment {
            name: full.name.clone(),
            sites: full
                .sites
                .iter()
                .filter(|s| !withdrawn.contains(&s.id))
                .cloned()
                .collect(),
        };
        &filtered
    };
    let tables = [
        propagate(topology, d, Family::V4),
        propagate(topology, d, Family::V6),
    ];
    let pool = std::array::from_fn(|fam| {
        let mut sites: Vec<SiteId> = topology
            .nodes()
            .iter()
            .filter_map(|n| tables[fam].best(n.id).map(|r| r.site))
            .collect();
        sites.sort_unstable();
        sites.dedup();
        sites
    });
    (tables, pool)
}

/// Where observations go. Implementations aggregate on the fly, so even
/// full-scale runs never hold the record stream in memory.
pub trait MeasurementSink {
    /// One active probe result.
    fn probe(&mut self, rec: ProbeRecord);
    /// One zone-transfer result.
    fn transfer(&mut self, rec: TransferRecord);
}

/// A sink that simply collects records (for tests and small runs).
#[derive(Debug, Default)]
pub struct VecSink {
    pub probes: Vec<ProbeRecord>,
    pub transfers: Vec<TransferRecord>,
}

impl MeasurementSink for VecSink {
    fn probe(&mut self, rec: ProbeRecord) {
        self.probes.push(rec);
    }
    fn transfer(&mut self, rec: TransferRecord) {
        self.transfers.push(rec);
    }
}

/// Stale-site fault window (the paper's Tokyo/Leeds d.root episodes).
#[derive(Debug, Clone)]
pub struct StaleWindow {
    pub letter: RootLetter,
    /// City name of the affected site(s).
    pub city: &'static str,
    /// Window (start, end) in wall-clock seconds.
    pub from: u32,
    pub until: u32,
    /// The stuck zone is the one from this timestamp's day.
    pub stuck_day: u32,
}

/// Clock-skew episode for a VP with `VpFault::SkewedClock`.
#[derive(Debug, Clone)]
pub struct SkewEpisode {
    pub from: u32,
    pub until: u32,
}

/// Per-letter behavioural overrides a scenario epoch can impose on the
/// engine. The neutral defaults draw no extra randomness and scale nothing,
/// so a config with neutral overrides is bit-identical to one without.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LetterOverrides {
    /// Extra multiplier on the letter's churn pressure (route flap burst).
    pub churn_boost: f64,
    /// Multiplier on every measured RTT (DDoS-style path inflation).
    pub rtt_factor: f64,
    /// When set, every site of the letter serves the zone of this day
    /// (letter-wide stale-zone degradation).
    pub stale_stuck_day: Option<u32>,
    /// Extra per-transfer bitflip probability (letter-wide corrupted
    /// transfers, on top of per-VP faulty-RAM flips).
    pub extra_bitflip_prob: f64,
}

impl Default for LetterOverrides {
    fn default() -> Self {
        LetterOverrides {
            churn_boost: 1.0,
            rtt_factor: 1.0,
            stale_stuck_day: None,
            extra_bitflip_prob: 0.0,
        }
    }
}

impl LetterOverrides {
    /// True when this override changes nothing.
    pub fn is_neutral(&self) -> bool {
        *self == LetterOverrides::default()
    }
}

/// Overrides for all 13 letters (indexed by [`RootLetter::index`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineOverrides {
    per_letter: [LetterOverrides; 13],
}

impl EngineOverrides {
    /// The override in force for `letter`.
    pub fn letter(&self, letter: RootLetter) -> &LetterOverrides {
        &self.per_letter[letter.index()]
    }

    /// Mutable override for `letter`.
    pub fn letter_mut(&mut self, letter: RootLetter) -> &mut LetterOverrides {
        &mut self.per_letter[letter.index()]
    }

    /// True when no letter has a non-neutral override.
    pub fn is_neutral(&self) -> bool {
        self.per_letter.iter().all(|o| o.is_neutral())
    }
}

/// Measurement parameters.
#[derive(Debug, Clone)]
pub struct MeasurementConfig {
    pub schedule: Schedule,
    pub churn: ChurnModel,
    pub rtt: RttModel,
    /// Probability that any single probe times out entirely.
    pub timeout_prob: f64,
    /// Probability that the traceroute's second-to-last hop is missing.
    pub missing_hop_prob: f64,
    /// Stale-site windows.
    pub stale_windows: Vec<StaleWindow>,
    /// Skew episodes (applied to every skewed-clock VP).
    pub skew_episodes: Vec<SkewEpisode>,
    /// Scenario-epoch behavioural overrides (neutral by default).
    pub overrides: EngineOverrides,
}

impl Default for MeasurementConfig {
    fn default() -> Self {
        use dns_crypto::validity::timestamp_from_ymd as ts;
        MeasurementConfig {
            schedule: Schedule::default(),
            churn: ChurnModel::default(),
            rtt: RttModel::default(),
            timeout_prob: 0.002,
            missing_hop_prob: 0.04,
            stale_windows: vec![
                // Table 2: d.root Tokyo, 2023-08-16 10:00–11:31 (≈12 obs).
                StaleWindow {
                    letter: RootLetter::D,
                    city: "tokyo",
                    from: ts("20230816100000").unwrap(),
                    until: ts("20230816113100").unwrap(),
                    stuck_day: ts("20230729000000").unwrap(),
                },
                // Table 2: d.root Leeds, 2023-10-06 10:00–13:31 (≈40 obs).
                StaleWindow {
                    letter: RootLetter::D,
                    city: "leeds",
                    from: ts("20231006100000").unwrap(),
                    until: ts("20231006133100").unwrap(),
                    stuck_day: ts("20230918000000").unwrap(),
                },
            ],
            skew_episodes: vec![
                // Short NTP-outage episodes crossing signing boundaries.
                SkewEpisode {
                    from: ts("20231002213000").unwrap(),
                    until: ts("20231003010000").unwrap(),
                },
                SkewEpisode {
                    from: ts("20231221220000").unwrap(),
                    until: ts("20231222030000").unwrap(),
                },
            ],
            overrides: EngineOverrides::default(),
        }
    }
}

/// Per-(vp, target, family) runtime state.
#[derive(Clone)]
struct ProbeState {
    selection: SelectionState,
    /// Cached base RTT per (candidate index, site) — the site matters
    /// because an upstream redirect can serve a site off the candidate's
    /// own facility. A client reaches a handful of such pairs per target,
    /// so a linear scan beats hashing.
    rtt_cache: Vec<(usize, SiteId, f64)>,
}

/// Probe states per VP: one per (target, family), laid out
/// `t_idx * 2 + family.index()` with `t_idx` the position in
/// [`Target::all`].
const STATES_PER_VP: usize = 14 * 2;

/// Fresh states for `vps` VPs (nothing probed yet).
fn initial_states(churn: &ChurnModel, vps: usize) -> Vec<ProbeState> {
    let fresh = ProbeState {
        selection: churn.initial(),
        rtt_cache: Vec::new(),
    };
    vec![fresh; vps * STATES_PER_VP]
}

/// Cross-call engine state: the per-(vp, target, family) churn selection
/// and RTT caches that normally live only for one `run` call.
///
/// The scenario engine runs a measurement in epoch slices (one
/// `run_rounds_session` call per epoch, with world mutations in between)
/// and needs the churn process to *continue* across the boundary rather
/// than restart — otherwise an event-free scenario would not reproduce the
/// continuous pipeline's record stream bit for bit.
#[derive(Default)]
pub struct EngineSession {
    /// Dense per-(vp, target, family) states, [`STATES_PER_VP`] per VP in
    /// VP order; sized to the population on first use.
    states: Vec<ProbeState>,
}

impl EngineSession {
    /// A fresh session (no VP has probed yet).
    pub fn new() -> EngineSession {
        EngineSession::default()
    }

    /// Invalidate state that depends on the routing ground truth: cached
    /// base RTTs (candidate indices may have shifted) and upstream
    /// redirects (the redirect target may no longer attract traffic).
    /// Call after any world mutation that recomputed route tables. The
    /// Markov position survives — it is re-validated against the new
    /// near-equal set on the next step.
    pub fn invalidate_routing(&mut self, churn: &ChurnModel) {
        for state in &mut self.states {
            state.rtt_cache.clear();
            churn.reset_override(&mut state.selection);
        }
    }
}

/// The engine.
pub struct MeasurementEngine<'w> {
    pub world: &'w World,
    pub config: MeasurementConfig,
}

impl<'w> MeasurementEngine<'w> {
    /// Create an engine over `world`.
    pub fn new(world: &'w World, config: MeasurementConfig) -> Self {
        MeasurementEngine { world, config }
    }

    /// Run the full measurement, streaming into `sink`.
    pub fn run<S: MeasurementSink>(&self, sink: &mut S) {
        let rounds: Vec<Round> = self.config.schedule.rounds().collect();
        self.run_vps(0..self.world.population.len() as u32, &rounds, sink);
    }

    /// Run the measurement in parallel over VP ranges; returns the merged
    /// record set. Each worker owns a disjoint VP range, so results are
    /// identical to a serial run up to record order (grouped by range).
    pub fn run_parallel(&self, workers: usize) -> VecSink {
        let rounds: Vec<Round> = self.config.schedule.rounds().collect();
        self.run_rounds_parallel(&rounds, workers)
    }

    /// [`run_parallel`](Self::run_parallel) over an explicit round list.
    /// Callers use this for focused re-measurement of specific rounds —
    /// e.g. the core pipeline covering stale-site windows a subsampled
    /// main schedule skipped. Per-probe randomness derives from
    /// `(seed, vp, target, family, round time)` and is independent of
    /// which other rounds run; only the churn selection state carries
    /// across rounds, exactly as a real re-measurement campaign would
    /// start from the routes in force when it began.
    pub fn run_rounds_parallel(&self, rounds: &[Round], workers: usize) -> VecSink {
        let mut session = EngineSession::new();
        self.run_rounds_session(&mut session, rounds, workers)
    }

    /// [`run_rounds_parallel`](Self::run_rounds_parallel) with explicit
    /// cross-call state: churn selection and RTT caches are taken from
    /// `session` and merged back afterwards, so consecutive calls behave
    /// exactly like one continuous run over the concatenated round list.
    pub fn run_rounds_session(
        &self,
        session: &mut EngineSession,
        rounds: &[Round],
        workers: usize,
    ) -> VecSink {
        let n = self.world.population.len() as u32;
        let workers = workers.clamp(1, (n as usize).max(1));
        let chunk = n.div_ceil(workers as u32);
        let slots = n as usize * STATES_PER_VP;
        if session.states.len() < slots {
            session.states = initial_states(&self.config.churn, n as usize);
        }
        // Partition the session state by worker VP range: the states are
        // laid out in VP order, so each worker borrows its contiguous slice
        // exclusively (same disjointness argument as the VPs).
        let mut rest = &mut session.states[..slots];
        let parts: Vec<VecSink> = crossbeam::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers as u32 {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                if lo >= hi {
                    continue;
                }
                let (states, tail) =
                    std::mem::take(&mut rest).split_at_mut((hi - lo) as usize * STATES_PER_VP);
                rest = tail;
                handles.push(scope.spawn(move |_| {
                    let mut sink = VecSink::default();
                    self.run_vps_with(states, lo..hi, rounds, &mut sink);
                    sink
                }));
            }
            // Joined in spawn order, which is VP-range order.
            handles
                .into_iter()
                .map(|h| h.join().expect("measurement worker panicked"))
                .collect()
        })
        .expect("worker panicked");
        // Merge into the first range's sink, reserving the summed size of
        // the others up front: growing the multi-hundred-MB record vectors
        // part by part would reallocate and copy them, and a fresh merged
        // sink would hold a second copy of the first range.
        let mut parts = parts.into_iter();
        let mut merged = parts.next().unwrap_or_default();
        let rest: Vec<VecSink> = parts.collect();
        merged
            .probes
            .reserve(rest.iter().map(|p| p.probes.len()).sum());
        merged
            .transfers
            .reserve(rest.iter().map(|p| p.transfers.len()).sum());
        for part in rest {
            merged.probes.extend(part.probes);
            merged.transfers.extend(part.transfers);
        }
        merged
    }

    /// Run the measurement for the VP range `vps` over the given rounds.
    fn run_vps<S: MeasurementSink>(&self, vps: Range<u32>, rounds: &[Round], sink: &mut S) {
        let mut states = initial_states(&self.config.churn, vps.len());
        self.run_vps_with(&mut states, vps, rounds, sink);
    }

    /// [`run_vps`](Self::run_vps) over caller-owned per-(vp, target,
    /// family) states, [`STATES_PER_VP`] per VP of `vps` in VP order.
    fn run_vps_with<S: MeasurementSink>(
        &self,
        states: &mut [ProbeState],
        vps: Range<u32>,
        rounds: &[Round],
        sink: &mut S,
    ) {
        let targets = Target::all();
        debug_assert_eq!(targets.len() * 2, STATES_PER_VP);
        let root_rng = SimRng::new(self.world.seed()).derive("measurement");
        // Near-equal candidate set of the current probe, reused across
        // probes so the step allocates nothing.
        let mut near = Vec::new();
        for round in rounds {
            for (vp_idx, vp_states) in vps.clone().zip(states.chunks_exact_mut(STATES_PER_VP)) {
                let vp = self.world.population.get(crate::population::VpId(vp_idx));
                for (t_idx, target) in targets.iter().enumerate() {
                    for family in Family::BOTH {
                        if family == Family::V6 && !vp.has_v6 {
                            continue;
                        }
                        let state = &mut vp_states[t_idx * 2 + family.index()];
                        // Integer-tuple stream derivation: the string
                        // version of this key (`format!("probe/…")`)
                        // allocated on every probe and dominated the
                        // profile; `t_idx` is stable because
                        // `Target::all()` is a fixed ordered list.
                        let mut rng = root_rng.derive_ids(&[
                            vp_idx as u64,
                            t_idx as u64,
                            family.index() as u64,
                            round.time as u64,
                        ]);
                        self.probe_once(
                            vp, *target, family, round.time, state, &mut near, &mut rng, sink,
                        );
                    }
                }
            }
        }
    }

    /// One probe: selection, RTT, traceroute tail, identity, AXFR. `near`
    /// is scratch for the near-equal candidate set, computed once and
    /// shared by the churn step and the serving-candidate resolution.
    #[allow(clippy::too_many_arguments)]
    fn probe_once<S: MeasurementSink>(
        &self,
        vp: &VantagePoint,
        target: Target,
        family: Family,
        time: u32,
        state: &mut ProbeState,
        near: &mut Vec<usize>,
        rng: &mut SimRng,
        sink: &mut S,
    ) {
        let world = self.world;
        let ov = self.config.overrides.letter(target.letter);
        let table = world.routes(target.letter, family);
        let cands = table.candidates(vp.asn);
        let timeout = rng.chance(self.config.timeout_prob);
        let site = if timeout {
            None
        } else {
            self.config.churn.near_equal_into(cands, near);
            self.config
                .churn
                .step_near(
                    cands,
                    near,
                    &mut state.selection,
                    rng,
                    churn_multiplier(target.letter, family) * ov.churn_boost,
                    world.attracting_sites(target.letter, family),
                )
                .0
        };
        let (rtt_ms, second_to_last_hop, identity, site_city) = match site {
            None => (None, None, None, None),
            Some(site_id) => {
                // Selected candidate (for path geometry).
                let cand_idx = resolve_candidate(cands, near, site_id);
                let row_idx = world.catalog.site_index(target.letter, site_id);
                let row = &world.catalog.sites[row_idx];
                let facility = row.facility;
                let cached = state
                    .rtt_cache
                    .iter()
                    .find(|&&(c, s, _)| c == cand_idx && s == site_id);
                let base = match cached {
                    Some(&(_, _, base)) => base,
                    None => {
                        let base = self.config.rtt.base_rtt_ms(
                            &world.topology,
                            &world.catalog.facilities,
                            vp.coord,
                            &cands[cand_idx],
                            facility,
                        );
                        state.rtt_cache.push((cand_idx, site_id, base));
                        base
                    }
                };
                let rtt = self.config.rtt.jittered(base, rng) * ov.rtt_factor;
                let hop = if rng.chance(self.config.missing_hop_prob) {
                    None
                } else {
                    Some(world.catalog.facilities.get(facility).edge_router())
                };
                let identity = world.identities[row_idx].clone();
                (Some(rtt), hop, Some(identity), Some(row.city.name))
            }
        };
        sink.probe(ProbeRecord {
            time,
            vp: vp.id,
            target,
            family,
            site,
            rtt_ms,
            second_to_last_hop,
            identity,
        });

        // AXFR (once active, every round, as the script does).
        if self.config.schedule.axfr_active(time) && site.is_some() {
            let vp_clock = self.vp_clock(vp, time);
            // A letter-wide degraded-behavior override beats the dated
            // per-site stale windows.
            let stale = ov
                .stale_stuck_day
                .or_else(|| self.stale_at(target.letter, site_city, time));
            let mut fault = if let Some(stuck_day) = stale {
                Some(TransferFault::Stale {
                    serial: serial_of_day(stuck_day),
                })
            } else {
                match vp.fault {
                    VpFault::FaultyRam { flip_prob } if rng.chance(flip_prob) => {
                        Some(TransferFault::Bitflip {
                            seed: rng.next_u64(),
                        })
                    }
                    _ => None,
                }
            };
            // Scenario-injected corruption: only draws randomness when the
            // override is active, so neutral configs stay bit-identical.
            if fault.is_none() && ov.extra_bitflip_prob > 0.0 && rng.chance(ov.extra_bitflip_prob) {
                fault = Some(TransferFault::Bitflip {
                    seed: rng.next_u64(),
                });
            }
            let serial = match fault {
                Some(TransferFault::Stale { serial }) => serial,
                _ => serial_of_day(time - time % 86400),
            };
            sink.transfer(TransferRecord {
                time,
                vp_clock,
                vp: vp.id,
                target,
                family,
                serial: Some(serial),
                fault,
            });
        }
    }

    /// Local clock of `vp` at wall-clock `time` (skew during episodes).
    pub fn vp_clock(&self, vp: &VantagePoint, time: u32) -> u32 {
        if let VpFault::SkewedClock { offset_secs } = vp.fault {
            let in_episode = self
                .config
                .skew_episodes
                .iter()
                .any(|e| time >= e.from && time < e.until);
            if in_episode {
                return (time as i64 + offset_secs).clamp(0, u32::MAX as i64) as u32;
            }
        }
        time
    }

    /// Whether the (letter, site-city) combination serves stale data at
    /// `time`; returns the stuck day.
    fn stale_at(
        &self,
        letter: RootLetter,
        site_city: Option<&'static str>,
        time: u32,
    ) -> Option<u32> {
        let city = site_city?;
        self.config
            .stale_windows
            .iter()
            .find(|w| w.letter == letter && w.city == city && time >= w.from && time < w.until)
            .map(|w| w.stuck_day)
    }
}

/// Resolve which candidate route carries this probe's traffic to `site`.
///
/// The churn model normally selects among the near-equal set, so the
/// common case is a near-equal candidate serving `site`. But an upstream
/// redirect can land the client on any attracting site of the deployment:
/// first fall back to *any* candidate that serves it (path geometry must
/// follow the route that actually reaches the site, not the local best —
/// using index 0 here systematically under-reported RTT for redirected
/// probes), and only when no candidate serves the site at all use the
/// local best route, since the packets still leave via it even though
/// they terminate elsewhere.
fn resolve_candidate(cands: &[CandidateRoute], near: &[usize], site: SiteId) -> usize {
    near.iter()
        .copied()
        .find(|&i| cands[i].site == site)
        .or_else(|| cands.iter().position(|c| c.site == site))
        .unwrap_or(0)
}

/// Per-deployment routing-stability multiplier, calibrated to the paper's
/// Figure 3: b.root's routing is markedly more stable than g.root's even
/// though both deploy six sites; g (and to a lesser degree c and h) also
/// flap more on IPv6. The paper observes this without a mechanism ("this
/// is surprising", §4.2); an AS-level simulator cannot derive it, so it is
/// an explicit behavioural parameter, like the traces' switch rates.
pub fn churn_multiplier(letter: RootLetter, family: Family) -> f64 {
    use RootLetter::*;
    match (letter, family) {
        (G, Family::V4) => 4.5,
        (G, Family::V6) => 8.0,
        (C, Family::V6) | (H, Family::V6) => 2.5,
        _ => 1.0,
    }
}

/// Serial of the zone generated on `day` (day-start timestamp):
/// `YYYYMMDD00`, computed without formatting (it runs once per transfer).
pub fn serial_of_day(day: u32) -> u32 {
    let (y, m, d) = timestamp_to_date(day);
    (y * 10_000 + m * 100 + d) * 100
}

/// What `hostname.bind` shows for a site: the mapped identifier when the
/// operator publishes one; an IATA-bearing hostname for `{a,c,j,e}`; a
/// stable-but-unmappable blob for the rest (the paper observed 1,604
/// distinct identifiers, 135 of which did not map — identifiers are
/// per-instance constants, not per-query noise).
fn observed_identity(row: &rss::catalog::RootSite) -> String {
    if let Some(id) = &row.instance_id {
        return id.clone();
    }
    if !row.letter.identifiers_mappable() {
        // j.root contributed 75 of the paper's 135 unmapped identifiers:
        // roughly a third of its instances report something that maps to
        // nothing. Site-id keyed, so the set of opaque instances is stable.
        if row.letter == RootLetter::J && row.site_id.0.is_multiple_of(3) {
            return format!("opaque-j{:04}", row.site_id.0);
        }
        // IATA code embedded in the node hostname, metro-granular.
        return format!("{}-{}{}", row.letter.ch(), row.iata, row.facility.0 % 4 + 1);
    }
    // Mappable operator, unmappable node: stable per site.
    format!("opaque-{}{:04}", row.letter.ch(), row.site_id.0)
}

/// How many sites of each scope a letter exposes to a VP — used by coverage
/// analyses and tests.
pub fn reachable_scopes(
    world: &World,
    letter: RootLetter,
    family: Family,
    vp_asn: netsim::AsId,
) -> (usize, usize) {
    let table = world.routes(letter, family);
    let d = world.catalog.deployment(letter);
    let mut global = 0;
    let mut local = 0;
    for c in table.candidates(vp_asn) {
        match d.site(c.site).scope {
            SiteScope::Global => global += 1,
            SiteScope::Local => local += 1,
        }
    }
    (global, local)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> World {
        World::build(&WorldBuildConfig::tiny())
    }

    fn short_config() -> MeasurementConfig {
        MeasurementConfig {
            schedule: Schedule::subsampled(400),
            ..Default::default()
        }
    }

    #[test]
    fn engine_produces_records() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        assert!(!sink.probes.is_empty());
        assert!(!sink.transfers.is_empty());
        // Probes cover all 14 targets.
        let targets: std::collections::HashSet<_> = sink.probes.iter().map(|p| p.target).collect();
        assert_eq!(targets.len(), 14);
    }

    #[test]
    fn v4_only_vps_never_probe_v6() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        for p in &sink.probes {
            if p.family == Family::V6 {
                assert!(world.population.get(p.vp).has_v6);
            }
        }
    }

    #[test]
    fn deterministic_runs() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let mut a = VecSink::default();
        engine.run(&mut a);
        let mut b = VecSink::default();
        engine.run(&mut b);
        assert_eq!(a.probes.len(), b.probes.len());
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.transfers, b.transfers);
    }

    #[test]
    fn parallel_matches_serial_content() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let mut serial = VecSink::default();
        engine.run(&mut serial);
        let parallel = engine.run_parallel(4);
        assert_eq!(serial.probes.len(), parallel.probes.len());
        // Same multiset; parallel merge preserves VP-range grouping so a
        // sort by (vp, time, target) aligns them.
        let keyf = |p: &ProbeRecord| (p.vp, p.time, p.target, p.family);
        let mut a = serial.probes.clone();
        let mut b = parallel.probes.clone();
        a.sort_by_key(keyf);
        b.sort_by_key(keyf);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_identical_across_worker_counts() {
        // Determinism golden test: the record set must be bit-identical
        // for any worker count once sorted by the documented key
        // (vp, time, target, family). Workers own disjoint VP ranges and
        // all per-probe randomness derives from
        // (seed, vp, target, family, round time), so worker count can
        // only permute record order, never content.
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let probe_key = |p: &ProbeRecord| (p.vp, p.time, p.target, p.family);
        let transfer_key = |t: &TransferRecord| (t.vp, t.time, t.target, t.family);
        let normalized = |workers: usize| {
            let mut sink = engine.run_parallel(workers);
            sink.probes.sort_by_key(probe_key);
            sink.transfers.sort_by_key(transfer_key);
            (sink.probes, sink.transfers)
        };
        let base = normalized(1);
        for workers in [2, 8] {
            let run = normalized(workers);
            assert_eq!(base.0, run.0, "probes differ at {workers} workers");
            assert_eq!(base.1, run.1, "transfers differ at {workers} workers");
        }
    }

    #[test]
    fn session_split_matches_continuous_run() {
        // Epoch-slicing contract: running the schedule in two
        // `run_rounds_session` calls over the same session (even with
        // different worker counts) yields the exact record stream of one
        // continuous run — churn state carries across the boundary.
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let rounds: Vec<Round> = engine.config.schedule.rounds().collect();
        let continuous = engine.run_rounds_parallel(&rounds, 3);
        let (head, tail) = rounds.split_at(rounds.len() / 2);
        let mut session = EngineSession::new();
        let mut sliced = engine.run_rounds_session(&mut session, head, 3);
        let second = engine.run_rounds_session(&mut session, tail, 2);
        sliced.probes.extend(second.probes);
        sliced.transfers.extend(second.transfers);
        let probe_key = |p: &ProbeRecord| (p.vp, p.time, p.target, p.family);
        let transfer_key = |t: &TransferRecord| (t.vp, t.time, t.target, t.family);
        let normalize = |mut s: VecSink| {
            s.probes.sort_by_key(probe_key);
            s.transfers.sort_by_key(transfer_key);
            (s.probes, s.transfers)
        };
        assert_eq!(normalize(continuous), normalize(sliced));
    }

    #[test]
    fn neutral_overrides_change_nothing() {
        let world = tiny_world();
        let base = MeasurementEngine::new(&world, short_config());
        let mut cfg = short_config();
        // Explicitly-neutral override values must not perturb the stream.
        *cfg.overrides.letter_mut(RootLetter::G) = LetterOverrides::default();
        assert!(cfg.overrides.is_neutral());
        let overridden = MeasurementEngine::new(&world, cfg);
        let mut a = VecSink::default();
        base.run(&mut a);
        let mut b = VecSink::default();
        overridden.run(&mut b);
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.transfers, b.transfers);
    }

    #[test]
    fn override_knobs_bite() {
        let world = tiny_world();
        let mut cfg = short_config();
        {
            let ov = cfg.overrides.letter_mut(RootLetter::K);
            ov.rtt_factor = 10.0;
            ov.extra_bitflip_prob = 1.0;
        }
        let engine = MeasurementEngine::new(&world, cfg);
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        let base_engine = MeasurementEngine::new(&world, short_config());
        let mut base = VecSink::default();
        base_engine.run(&mut base);
        // RTT inflation: every K probe with an RTT is exactly 10× its
        // baseline counterpart (same rng stream, scaled after jitter).
        let rtts = |s: &VecSink| -> Vec<f64> {
            s.probes
                .iter()
                .filter(|p| p.target.letter == RootLetter::K)
                .filter_map(|p| p.rtt_ms)
                .collect()
        };
        let (inflated, baseline) = (rtts(&sink), rtts(&base));
        assert_eq!(inflated.len(), baseline.len());
        assert!(!inflated.is_empty());
        for (i, b) in inflated.iter().zip(&baseline) {
            assert!((i - b * 10.0).abs() < 1e-9);
        }
        // Certain corruption: every K transfer carries a bitflip fault.
        let k_transfers: Vec<_> = sink
            .transfers
            .iter()
            .filter(|t| t.target.letter == RootLetter::K)
            .collect();
        assert!(!k_transfers.is_empty());
        for t in k_transfers {
            assert!(
                matches!(t.fault, Some(TransferFault::Bitflip { .. })),
                "unflipped K transfer"
            );
        }
        // Other letters are untouched.
        let a_probes = |s: &VecSink| -> Vec<_> {
            s.probes
                .iter()
                .filter(|p| p.target.letter == RootLetter::A)
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(a_probes(&sink), a_probes(&base));
    }

    #[test]
    fn withdraw_and_restore_round_trips_routing() {
        let mut world = tiny_world();
        let letter = RootLetter::F;
        let before = world.routing_hash(letter);
        let site = world.catalog.deployment(letter).sites[0].id;
        assert!(world.withdraw_site(letter, site));
        // Withdrawn: no AS may select the site any more.
        for family in Family::BOTH {
            assert!(!world.attracting_sites(letter, family).contains(&site));
        }
        assert_ne!(world.routing_hash(letter), before, "withdrawal is a no-op");
        // Double-withdraw and unknown sites are rejected.
        assert!(!world.withdraw_site(letter, site));
        assert!(!world.withdraw_site(letter, SiteId(9999)));
        assert!(world.restore_site(letter, site));
        assert_eq!(world.routing_hash(letter), before);
        assert!(!world.restore_site(letter, site));
    }

    #[test]
    fn zonemd_override_changes_generated_zones() {
        let mut world = tiny_world();
        let t = crate::schedule::MEASUREMENT_START + 100;
        let before = world.zone_at(t);
        world.set_zonemd_override(Some(RolloutPhase::Validating));
        let forced = world.zone_at(t);
        assert!(!Arc::ptr_eq(&before, &forced));
        world.set_zonemd_override(None);
        let after = world.zone_at(t);
        // Same config as the original build (fresh cache, equal content).
        assert_eq!(before.serial(), after.serial());
    }

    #[test]
    fn run_rounds_parallel_covers_exactly_given_rounds() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let rounds: Vec<Round> = engine.config.schedule.rounds().take(3).collect();
        let sink = engine.run_rounds_parallel(&rounds, 2);
        let times: std::collections::BTreeSet<u32> = sink.probes.iter().map(|p| p.time).collect();
        let expected: std::collections::BTreeSet<u32> = rounds.iter().map(|r| r.time).collect();
        assert_eq!(times, expected);
    }

    #[test]
    fn resolve_candidate_prefers_serving_route() {
        use netsim::types::LearnedFrom;
        let mk = |site: u32, len: usize| CandidateRoute {
            site: SiteId(site),
            via: Some(netsim::AsId(100 + site)),
            learned_from: LearnedFrom::Provider,
            path: vec![netsim::AsId(1); len],
            km: 1000,
        };
        let cands = vec![mk(10, 2), mk(11, 2), mk(12, 5)];
        let near = vec![0, 1];
        // Near-equal candidate serving the site wins.
        assert_eq!(resolve_candidate(&cands, &near, SiteId(11)), 1);
        // Upstream redirect to a site outside the near set must resolve
        // to the candidate that actually serves it — the old fallback to
        // index 0 mis-attributed the path geometry.
        assert_eq!(resolve_candidate(&cands, &near, SiteId(12)), 2);
        // Site no candidate serves: packets leave via the local best.
        assert_eq!(resolve_candidate(&cands, &near, SiteId(99)), 0);
    }

    #[test]
    fn redirected_probes_use_serving_candidate_geometry() {
        // End-to-end shape of the bugfix: force an upstream override to a
        // site the near-equal set does not serve and check the engine's
        // resolution against the full candidate list for every VP.
        let world = tiny_world();
        let churn = ChurnModel::default();
        for letter in [RootLetter::D, RootLetter::G] {
            let table = world.routes(letter, Family::V4);
            for vp in world.population.vps().iter().take(50) {
                let cands = table.candidates(vp.asn);
                let near = churn.near_equal(table, vp.asn);
                for pool_site in world.attracting_sites(letter, Family::V4) {
                    let idx = resolve_candidate(cands, &near, *pool_site);
                    if let Some(serving) = cands.iter().position(|c| c.site == *pool_site) {
                        assert_eq!(
                            cands[idx].site, *pool_site,
                            "candidate {serving} serves the redirect site but {idx} was picked"
                        );
                    } else {
                        assert_eq!(idx, 0, "no serving candidate: fall back to best route");
                    }
                }
            }
        }
    }

    #[test]
    fn rtts_are_positive_and_bounded() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        for p in &sink.probes {
            if let Some(rtt) = p.rtt_ms {
                assert!(rtt > 0.0 && rtt < 2000.0, "rtt {rtt}");
            }
        }
    }

    #[test]
    fn transfers_only_after_axfr_date() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        for t in &sink.transfers {
            assert!(engine.config.schedule.axfr_active(t.time));
        }
    }

    #[test]
    fn zone_cache_returns_same_day_zone() {
        let world = tiny_world();
        let z1 = world.zone_at(crate::schedule::MEASUREMENT_START + 100);
        let z2 = world.zone_at(crate::schedule::MEASUREMENT_START + 50_000);
        assert!(Arc::ptr_eq(&z1, &z2));
        let z3 = world.zone_at(crate::schedule::MEASUREMENT_START + 100_000);
        assert!(!Arc::ptr_eq(&z1, &z3));
    }

    #[test]
    fn zone_serial_follows_root_convention() {
        let world = tiny_world();
        let z = world.zone_at(crate::schedule::MEASUREMENT_START);
        assert_eq!(z.serial().unwrap(), 2023070300);
    }

    #[test]
    fn skewed_vp_clock_differs_in_episode() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, MeasurementConfig::default());
        let skewed = world
            .population
            .vps()
            .iter()
            .find(|v| matches!(v.fault, VpFault::SkewedClock { .. }))
            .expect("population has a skewed VP");
        let ep = &engine.config.skew_episodes[0];
        assert_ne!(engine.vp_clock(skewed, ep.from + 10), ep.from + 10);
        assert_eq!(engine.vp_clock(skewed, ep.from - 10), ep.from - 10);
        let healthy = world
            .population
            .vps()
            .iter()
            .find(|v| matches!(v.fault, VpFault::None))
            .unwrap();
        assert_eq!(engine.vp_clock(healthy, ep.from + 10), ep.from + 10);
    }

    #[test]
    fn stale_window_tags_transfers() {
        use dns_crypto::validity::timestamp_from_ymd as ts;
        let world = tiny_world();
        // A schedule slice covering the Leeds window at full resolution.
        let cfg = MeasurementConfig {
            schedule: Schedule {
                start: ts("20231006090000").unwrap(),
                end: ts("20231006150000").unwrap(),
                subsample: 1,
                ..Schedule::default()
            },
            ..Default::default()
        };
        let engine = MeasurementEngine::new(&world, cfg);
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        let stale: Vec<&TransferRecord> = sink
            .transfers
            .iter()
            .filter(|t| matches!(t.fault, Some(TransferFault::Stale { .. })))
            .collect();
        // The tiny world may or may not route any VP to a Leeds d.root site;
        // if it does, the stale fault must be tagged with the stuck serial.
        for t in &stale {
            assert_eq!(t.target.letter, RootLetter::D);
            match t.fault {
                Some(TransferFault::Stale { serial }) => {
                    assert_eq!(serial, 2023091800);
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn reachable_scopes_counts_candidates() {
        let world = tiny_world();
        let vp = &world.population.vps()[0];
        // f.root deploys both scopes; every VP must at least reach globals.
        let (global, local) = reachable_scopes(&world, RootLetter::F, Family::V4, vp.asn);
        assert!(global > 0, "no global candidates");
        // Candidate totals bounded by the deployment size.
        let total_sites = world.catalog.deployment(RootLetter::F).sites.len();
        assert!(global + local <= total_sites);
        // Letters without local sites never yield local candidates.
        let (_, b_local) = reachable_scopes(&world, RootLetter::B, Family::V4, vp.asn);
        assert_eq!(b_local, 0);
    }

    #[test]
    fn fig3_calibration_full_resolution() {
        // Step the churn process at the paper's full round count for a VP
        // sample; median changes must land near Figure 3's values
        // (b.root ≈ 8 for both families; g.root ≈ 36 v4 / 64 v6).
        let world = World::build(&WorldBuildConfig::default());
        let churn = ChurnModel::default();
        let rounds = Schedule::default().round_count();
        let median_changes = |letter: RootLetter, family: Family| -> u64 {
            let table = world.routes(letter, family);
            let mut counts: Vec<u64> = Vec::new();
            let rng_root = SimRng::new(1).derive("fig3-calib");
            for vp in world.population.vps().iter().take(150) {
                if family == Family::V6 && !vp.has_v6 {
                    continue;
                }
                let mut rng = rng_root.derive(&format!("{}/{}", vp.id.0, letter.ch()));
                let mut state = churn.initial();
                let mut prev = None;
                let mut changes = 0;
                for _ in 0..rounds {
                    let cur = churn.step_full(
                        table,
                        vp.asn,
                        &mut state,
                        &mut rng,
                        churn_multiplier(letter, family),
                        world.attracting_sites(letter, family),
                    );
                    if prev.is_some() && cur != prev {
                        changes += 1;
                    }
                    prev = cur;
                }
                counts.push(changes);
            }
            counts.sort_unstable();
            counts[counts.len() / 2]
        };
        let b4 = median_changes(RootLetter::B, Family::V4);
        let g4 = median_changes(RootLetter::G, Family::V4);
        let g6 = median_changes(RootLetter::G, Family::V6);
        // Bands around the paper's 8 / 36 / 64.
        assert!((1..=25).contains(&b4), "b.root v4 median {b4}");
        assert!((15..=80).contains(&g4), "g.root v4 median {g4}");
        assert!(g6 > g4, "g v6 ({g6}) should exceed v4 ({g4})");
        assert!(g4 > b4, "g ({g4}) should exceed b ({b4})");
    }

    #[test]
    fn identity_table_matches_observed_identity() {
        for world in [tiny_world(), World::build(&WorldBuildConfig::default())] {
            assert_eq!(world.identities.len(), world.catalog.sites.len());
            for (row, shared) in world.catalog.sites.iter().zip(&world.identities) {
                assert_eq!(**shared, *observed_identity(row));
            }
        }
    }

    #[test]
    fn probes_share_their_site_identity() {
        let world = tiny_world();
        let engine = MeasurementEngine::new(&world, short_config());
        let sink = engine.run_parallel(2);
        let mut answered = 0;
        for p in &sink.probes {
            let (Some(site), Some(id)) = (p.site, &p.identity) else {
                assert!(p.site.is_none() && p.identity.is_none());
                continue;
            };
            let row = world.catalog.site_index(p.target.letter, site);
            assert!(Arc::ptr_eq(id, &world.identities[row]));
            answered += 1;
        }
        assert!(answered > 0);
    }

    #[test]
    fn serial_of_day_formats() {
        use dns_crypto::validity::timestamp_from_ymd as ts;
        assert_eq!(serial_of_day(ts("20231127000000").unwrap()), 2023112700);
        // The arithmetic serial equals the formatted date for every day a
        // `u32` timestamp can name.
        for day in (0..=u32::MAX / 86400).map(|d| d * 86400) {
            let ymd = dns_crypto::validity::timestamp_to_ymd(day);
            assert_eq!(serial_of_day(day), ymd[..8].parse::<u32>().unwrap() * 100);
        }
    }
}
