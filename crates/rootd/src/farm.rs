//! The full-constellation serving farm.
//!
//! The paper measures the root as thirteen independently operated anycast
//! deployments — and its §6 churn analysis only makes sense against the
//! *whole* constellation, not one letter at a time. This module instantiates
//! that deployment surface in one process: every letter from the `rss`
//! catalog becomes a `LetterFarm` whose per-site [`Rootd`] engines share
//! one epoch-swapped [`SharedState`] (the zone index and the identity-free
//! answer cache are built **once** for the whole farm — the root zone is the
//! same bytes behind every letter — while CHAOS identity answers stay
//! per-site). Queries are steered to sites by the same Gao-Rexford
//! catchment computation the measurement layer uses, per address family.
//!
//! The farm serves through the batched datagram path
//! ([`Rootd::serve_udp_batch`] over [`UdpBatch`]): shards fill
//! per-(letter, site) request slabs and flush them through one
//! lock-acquire per batch. Shards partition the global query index
//! contiguously, every per-query decision (content, letter, family,
//! client) derives from that global index alone, and shard tallies merge
//! in shard-id order — so every counter, site distribution, and
//! response-size quantile in a [`FarmReport`] is bit-identical for any
//! shard count (a test sweeps 1..=8).
//!
//! Throughput is reported two ways, deliberately: `wall_qps` is total
//! queries over wall-clock time — on an N-core box the shards genuinely
//! overlap and this is the honest machine rate; `aggregate_qps` is the sum
//! over letters of (queries served / time spent inside that letter's serve
//! batches), i.e. the constellation's serving capacity when each letter's
//! flushes run uncontended, measured rather than extrapolated. DESIGN §15
//! discusses the distinction and the contention between the two.

use crate::cache::AnswerCache;
use crate::engine::{ReloadError, Rootd, SharedState, SiteIdentity};
use crate::health::{HealthConfig, SiteStatus};
use crate::index::ZoneIndex;
use crate::loadgen::{
    fill_query, ArrivalSchedule, LatencyHistogram, QueryClass, QueryMix, QueryTemplates,
};
use crate::recovery::{run_control_plane, ControlPlane, FailurePlan, RecoveryLog, RecoveryPolicy};
use crate::transport::UdpBatch;
use dns_zone::Zone;
use netsim::anycast::Deployment;
use netsim::rng::SimRng;
use netsim::routing::propagate;
use netsim::topology::Topology;
use netsim::types::{AsId, Family, Tier};
use rss::catalog::RootCatalog;
use rss::RootLetter;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stream tag for per-query steering draws (letter, family). Separate
/// from `QUERY_TAG` so adding a steering decision never shifts query
/// content, and vice versa.
const STEER_TAG: u64 = 0xfa24;

/// Stream tag for per-query content draws ([`fill_query`]).
const QUERY_TAG: u64 = 0x51e7;

/// Stream tag for per-query overload-shedding draws (chaos runs only).
const SHED_TAG: u64 = 0x5ed0;

/// One letter's slice of the farm: per-site engines over one shared,
/// epoch-swapped serving state, plus the per-family steering tables.
struct LetterFarm {
    letter: RootLetter,
    shared: SharedState,
    /// Per-site engines, catalog order (capped at build time).
    engines: Vec<Arc<Rootd>>,
    /// Site ids, parallel to `engines`.
    site_ids: Vec<u32>,
    /// The (possibly capped) deployment steering was computed against.
    deployment: Deployment,
    /// `steer[family][client position] -> engine slot`, from the
    /// Gao-Rexford catchment computation. Position indexes the farm's
    /// stub-AS client pool; slot 0 is the fallback for routeless clients.
    steer: [Vec<u16>; 2],
}

impl LetterFarm {
    fn slot(&self, family: usize, client_idx: usize) -> usize {
        let table = &self.steer[family];
        if table.is_empty() {
            0
        } else {
            table[client_idx % table.len()] as usize
        }
    }
}

/// The whole constellation: one `LetterFarm` per requested letter, a
/// shared client pool (the topology's stub ASes), and the TLD label set
/// query templates are cut from.
pub struct Farm {
    letters: Vec<LetterFarm>,
    clients: Vec<AsId>,
    tlds: Vec<String>,
    /// The zone epoch the farm was built from — kept so chaos runs can
    /// derive poisoned copies to push at the validated reload path.
    zone: Arc<Zone>,
}

/// Farm run parameters.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Total queries across the whole constellation.
    pub queries: usize,
    /// Worker shards. Shards own contiguous global-index ranges; every
    /// deterministic output is independent of this.
    pub shards: usize,
    /// Datagrams per [`UdpBatch`] flush.
    pub batch: usize,
    /// Simulated clients (positions into the stub-AS pool).
    pub clients: usize,
    /// Master seed for steering and content streams.
    pub seed: u64,
    pub mix: QueryMix,
    /// Fraction of queries arriving over IPv6 (steered by the v6
    /// catchment table).
    pub v6_fraction: f64,
}

impl FarmConfig {
    /// A smoke-test-sized run.
    pub fn tiny(seed: u64) -> FarmConfig {
        FarmConfig {
            queries: 20_000,
            shards: 2,
            batch: 32,
            clients: 64,
            seed,
            mix: QueryMix::broot(),
            v6_fraction: 0.3,
        }
    }
}

/// One letter's share of a [`FarmReport`].
#[derive(Debug, Clone)]
pub struct LetterLoad {
    pub letter: RootLetter,
    /// Sites serving this letter.
    pub sites: usize,
    /// Queries this letter answered.
    pub queries: u64,
    /// Nanoseconds spent inside this letter's serve batches.
    pub busy_ns: u64,
    /// Busy-time serving rate: `queries / busy_seconds`.
    pub qps: f64,
}

/// What one farm run measured.
#[derive(Debug, Clone)]
pub struct FarmReport {
    pub queries: usize,
    pub elapsed: Duration,
    /// Total queries over wall-clock time (all letters, all shards).
    pub wall_qps: f64,
    /// Sum of per-letter busy-time rates — the constellation's aggregate
    /// serving capacity with each letter's batches uncontended.
    pub aggregate_qps: f64,
    pub letters: Vec<LetterLoad>,
    /// Answer-cache hits / full-path fallbacks / unserveable datagrams.
    pub hits: u64,
    pub fallbacks: u64,
    pub dropped: u64,
    pub responses: u64,
    pub nxdomain: u64,
    pub referrals: u64,
    pub truncated: u64,
    /// Batch-amortised serve latency quantiles (flush time split evenly
    /// across its datagrams). Timing-dependent: excluded from
    /// [`FarmReport::fingerprint`].
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Response-size quantiles (bytes). Deterministic.
    pub size_p50: u64,
    pub size_p99: u64,
    /// Responses per (letter, site id), letter-major, site-sorted.
    pub per_site: Vec<(RootLetter, u32, u64)>,
}

impl FarmReport {
    /// Order-sensitive FNV digest over every deterministic field — equal
    /// fingerprints mean the runs answered the same queries the same way
    /// and distributed them across the same sites. Wall-clock and latency
    /// fields are deliberately excluded.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        mix(self.queries as u64);
        mix(self.hits);
        mix(self.fallbacks);
        mix(self.dropped);
        mix(self.responses);
        mix(self.nxdomain);
        mix(self.referrals);
        mix(self.truncated);
        mix(self.size_p50);
        mix(self.size_p99);
        for l in &self.letters {
            mix(l.letter.index() as u64);
            mix(l.sites as u64);
            mix(l.queries);
        }
        for &(letter, site, n) in &self.per_site {
            mix(letter.index() as u64);
            mix(u64::from(site));
            mix(n);
        }
        h
    }

    /// Internal-consistency checks; a healthy run returns an empty list.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.hits + self.fallbacks + self.dropped != self.queries as u64 {
            v.push(format!(
                "serve outcomes {}+{}+{} != queries {}",
                self.hits, self.fallbacks, self.dropped, self.queries
            ));
        }
        if self.responses != self.queries as u64 - self.dropped {
            v.push(format!(
                "responses {} != queries {} - dropped {}",
                self.responses, self.queries, self.dropped
            ));
        }
        let per_letter: u64 = self.letters.iter().map(|l| l.queries).sum();
        if per_letter != self.queries as u64 {
            v.push(format!(
                "per-letter queries sum {} != queries {}",
                per_letter, self.queries
            ));
        }
        let per_site: u64 = self.per_site.iter().map(|&(_, _, n)| n).sum();
        if per_site != self.responses {
            v.push(format!(
                "per-site responses sum {} != responses {}",
                per_site, self.responses
            ));
        }
        v
    }

    /// Metric pairs in the flat label→value shape `BENCH_results.json`
    /// uses: the two throughput views, latency quantiles, and one
    /// busy-rate per letter.
    pub fn metrics(&self, prefix: &str) -> Vec<(String, f64)> {
        let mut out = vec![
            (format!("{prefix}/aggregate_qps"), self.aggregate_qps),
            (format!("{prefix}/wall_qps"), self.wall_qps),
            (format!("{prefix}/p50_ns"), self.p50_ns as f64),
            (format!("{prefix}/p99_ns"), self.p99_ns as f64),
        ];
        for l in &self.letters {
            out.push((format!("{prefix}/qps_{}", l.letter.ch()), l.qps));
        }
        out
    }

    /// The seeded, machine-independent counters only — byte-identical
    /// across runs and shard counts (timing lives in [`FarmReport::render`]).
    pub fn render_counts(&self) -> String {
        let sites: usize = self.letters.iter().map(|l| l.sites).sum();
        let mut out = format!(
            "letters        {:>12}\nsites          {:>12}\nqueries        {:>12}\nresponses      {:>12}\ncache hits     {:>12}\nfallbacks      {:>12}\ndropped        {:>12}\nnxdomain       {:>12}\nreferrals      {:>12}\ntruncated      {:>12}\nsize p50       {:>12} B\nsize p99       {:>12} B\n",
            self.letters.len(),
            sites,
            self.queries,
            self.responses,
            self.hits,
            self.fallbacks,
            self.dropped,
            self.nxdomain,
            self.referrals,
            self.truncated,
            self.size_p50,
            self.size_p99,
        );
        for l in &self.letters {
            out.push_str(&format!(
                "  {}.root  sites {:>3}  queries {:>10}\n",
                l.letter.ch(),
                l.sites,
                l.queries,
            ));
        }
        out
    }

    /// Human-readable summary: constellation totals, both throughput
    /// views, and a per-letter table.
    pub fn render(&self) -> String {
        let sites: usize = self.letters.iter().map(|l| l.sites).sum();
        let mut out = format!(
            "letters        {:>12}\nsites          {:>12}\nqueries        {:>12}\nresponses      {:>12}\ncache hits     {:>12}\nfallbacks      {:>12}\ndropped        {:>12}\nnxdomain       {:>12}\nreferrals      {:>12}\ntruncated      {:>12}\nelapsed        {:>12.3} s\nwall clock     {:>12.0} q/s\naggregate      {:>12.0} q/s (sum of per-letter busy rates)\nserve p50      {:>12} ns\nserve p99      {:>12} ns\nsize p50       {:>12} B\nsize p99       {:>12} B\n",
            self.letters.len(),
            sites,
            self.queries,
            self.responses,
            self.hits,
            self.fallbacks,
            self.dropped,
            self.nxdomain,
            self.referrals,
            self.truncated,
            self.elapsed.as_secs_f64(),
            self.wall_qps,
            self.aggregate_qps,
            self.p50_ns,
            self.p99_ns,
            self.size_p50,
            self.size_p99,
        );
        for l in &self.letters {
            out.push_str(&format!(
                "  {}.root  sites {:>3}  queries {:>10}  busy {:>9.3} ms  rate {:>12.0} q/s\n",
                l.letter.ch(),
                l.sites,
                l.queries,
                l.busy_ns as f64 / 1e6,
                l.qps,
            ));
        }
        out
    }
}

/// Per-shard tallies, merged in shard-id order after the threads join.
struct ShardStats {
    letter_queries: Vec<u64>,
    letter_busy_ns: Vec<u64>,
    /// `[letter][slot] -> responses`.
    site_counts: Vec<Vec<u64>>,
    hits: u64,
    fallbacks: u64,
    dropped: u64,
    responses: u64,
    nxdomain: u64,
    referrals: u64,
    truncated: u64,
    latency: LatencyHistogram,
    sizes: LatencyHistogram,
}

impl ShardStats {
    fn new(slots_per_letter: &[usize]) -> ShardStats {
        ShardStats {
            letter_queries: vec![0; slots_per_letter.len()],
            letter_busy_ns: vec![0; slots_per_letter.len()],
            site_counts: slots_per_letter.iter().map(|&n| vec![0; n]).collect(),
            hits: 0,
            fallbacks: 0,
            dropped: 0,
            responses: 0,
            nxdomain: 0,
            referrals: 0,
            truncated: 0,
            latency: LatencyHistogram::new(),
            sizes: LatencyHistogram::new(),
        }
    }

    /// Classify one response datagram by header bytes (the loadgen
    /// discipline: the client side stays cheap).
    fn classify(&mut self, resp: &[u8]) {
        self.responses += 1;
        if resp.len() < 12 {
            return;
        }
        if resp[2] & 0x02 != 0 {
            self.truncated += 1;
        }
        match resp[3] & 0x0f {
            3 => self.nxdomain += 1,
            0 => {
                let ancount = u16::from_be_bytes([resp[6], resp[7]]);
                let nscount = u16::from_be_bytes([resp[8], resp[9]]);
                if ancount == 0 && nscount > 0 {
                    self.referrals += 1;
                }
            }
            _ => {}
        }
    }

    /// Serve one full batch through `engine`, timing the flush and
    /// splitting its cost evenly across the batch's datagrams.
    fn flush(&mut self, engine: &Rootd, letter_idx: usize, slot: usize, batch: &mut UdpBatch) {
        if batch.is_empty() {
            return;
        }
        let n = batch.len() as u64;
        let t0 = Instant::now();
        let tally = engine.serve_udp_batch(batch);
        let dt = t0.elapsed().as_nanos() as u64;
        self.letter_queries[letter_idx] += n;
        self.letter_busy_ns[letter_idx] += dt;
        self.hits += tally.hits;
        self.fallbacks += tally.fallbacks;
        self.dropped += tally.dropped;
        let per_query = dt / n;
        for _ in 0..n {
            self.latency.record(per_query);
        }
        for i in 0..batch.len() {
            if let Some(resp) = batch.response(i) {
                self.site_counts[letter_idx][slot] += 1;
                self.sizes.record(resp.len() as u64);
                self.classify(resp);
            }
        }
        batch.clear();
    }
}

impl Farm {
    /// Build the constellation: one shared zone index and one shared
    /// zone-only answer cache for the whole farm, per-site engines (with
    /// per-site CHAOS identity) for every requested letter, capped at
    /// `max_sites_per_letter` sites per letter (`usize::MAX` for the full
    /// catalog), and both address families' catchment tables computed
    /// against the capped deployments.
    pub fn build(
        topology: &Topology,
        catalog: &RootCatalog,
        zone: Arc<Zone>,
        letters: &[RootLetter],
        max_sites_per_letter: usize,
    ) -> Farm {
        assert!(!letters.is_empty(), "farm needs at least one letter");
        let index = Arc::new(ZoneIndex::build(Arc::clone(&zone)));
        let cache = Arc::new(AnswerCache::build_zone(&index));
        let tlds = index.tld_labels();
        let clients: Vec<AsId> = topology
            .nodes()
            .iter()
            .filter(|n| n.tier == Tier::Stub)
            .map(|n| n.id)
            .collect();
        let farms = letters
            .iter()
            .map(|&letter| {
                let shared = SharedState::with_parts(Arc::clone(&index), Arc::clone(&cache));
                let mut engines = Vec::new();
                let mut site_ids = Vec::new();
                for site in catalog.sites_of(letter).take(max_sites_per_letter.max(1)) {
                    let mut engine =
                        Rootd::with_shared_state(&shared, SiteIdentity::for_site(site));
                    engine.letter = Some(letter);
                    engines.push(Arc::new(engine));
                    site_ids.push(site.site_id.0);
                }
                // Steering must route over the sites the farm actually
                // serves: announce only the kept sites.
                let full = catalog.deployment(letter);
                let deployment = Deployment {
                    name: full.name.clone(),
                    sites: full
                        .sites
                        .iter()
                        .filter(|s| site_ids.contains(&s.id.0))
                        .cloned()
                        .collect(),
                };
                let steer = [Family::V4, Family::V6].map(|family| {
                    let routes = propagate(topology, &deployment, family);
                    clients
                        .iter()
                        .map(|&asn| {
                            routes
                                .best(asn)
                                .and_then(|c| site_ids.iter().position(|&id| id == c.site.0))
                                .unwrap_or(0) as u16
                        })
                        .collect()
                });
                LetterFarm {
                    letter,
                    shared,
                    engines,
                    site_ids,
                    deployment,
                    steer,
                }
            })
            .collect();
        Farm {
            letters: farms,
            clients,
            tlds,
            zone,
        }
    }

    /// The letters this farm serves, in build order.
    pub fn letters(&self) -> Vec<RootLetter> {
        self.letters.iter().map(|lf| lf.letter).collect()
    }

    /// Total site engines across all letters.
    pub fn site_count(&self) -> usize {
        self.letters.iter().map(|lf| lf.engines.len()).sum()
    }

    /// Size of the stub-AS client pool steering is computed over.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// The stub-AS client pool, in steering-table order: position `p` in
    /// this slice is the client position [`Farm::site_for`] resolves.
    pub fn clients(&self) -> &[AsId] {
        &self.clients
    }

    /// The (capped) deployment `letter`'s steering was computed against.
    pub fn deployment(&self, letter: RootLetter) -> Option<&Deployment> {
        self.farm_of(letter).map(|lf| &lf.deployment)
    }

    /// The site id client position `client_idx` is steered to for
    /// `letter` over `family`.
    pub fn site_for(&self, letter: RootLetter, family: Family, client_idx: usize) -> Option<u32> {
        let lf = self.farm_of(letter)?;
        let fam = usize::from(family == Family::V6);
        Some(lf.site_ids[lf.slot(fam, client_idx)])
    }

    /// The engine serving `letter` at `site_id`.
    pub fn engine_at(&self, letter: RootLetter, site_id: u32) -> Option<&Arc<Rootd>> {
        let lf = self.farm_of(letter)?;
        let slot = lf.site_ids.iter().position(|&id| id == site_id)?;
        Some(&lf.engines[slot])
    }

    /// Current zone-epoch generation of `letter`'s shared state.
    pub fn generation(&self, letter: RootLetter) -> Option<u64> {
        self.farm_of(letter).map(|lf| lf.shared.generation())
    }

    /// Swap a new zone epoch into `letter`'s shared state — every site
    /// engine of that letter sees it atomically; other letters are
    /// untouched. The zone is validated (ZONEMD digest, then RRSIG
    /// validity at `now`) **before** anything is swapped: a poisoned push
    /// rolls back atomically — the generation is unchanged and the old
    /// `ServingState` keeps serving. Returns the new generation on
    /// success.
    pub fn reload_letter(
        &self,
        letter: RootLetter,
        zone: Arc<Zone>,
        now: u32,
    ) -> Result<u64, ReloadError> {
        match self.farm_of(letter) {
            Some(lf) => lf.shared.try_reload(zone, now),
            None => Err(ReloadError::UnknownLetter),
        }
    }

    fn farm_of(&self, letter: RootLetter) -> Option<&LetterFarm> {
        self.letters.iter().find(|lf| lf.letter == letter)
    }

    /// Run `cfg.queries` steered queries through the constellation over
    /// `cfg.shards` worker shards.
    ///
    /// Shard `t` owns global indices `[t*per_shard, ...)`; per query `g`,
    /// the steering stream (`STEER_TAG`) draws the letter and family,
    /// `g % clients` names the client, and the content stream
    /// (`QUERY_TAG`) fills the wire bytes — all pure functions of `g`,
    /// so every deterministic report field is shard-count-invariant.
    pub fn run(&self, cfg: &FarmConfig) -> FarmReport {
        let shards = cfg.shards.max(1);
        let clients = cfg.clients.max(1);
        let batch_cap = cfg.batch.max(1);
        let nletters = self.letters.len();
        let per_shard = cfg.queries.div_ceil(shards);
        let slots_per_letter: Vec<usize> = self.letters.iter().map(|lf| lf.engines.len()).collect();
        let slots_per_letter = &slots_per_letter;
        let templates = QueryTemplates::build(&self.tlds);
        let templates = &templates;
        let pool = self.clients.len().max(1);
        let started = Instant::now();
        let mut stats: Vec<(usize, ShardStats)> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shards);
            for t in 0..shards {
                let first = t * per_shard;
                let count = per_shard.min(cfg.queries.saturating_sub(first));
                handles.push(scope.spawn(move || {
                    let mut stats = ShardStats::new(slots_per_letter);
                    // One request slab per (letter, site): queries
                    // accumulate and flush through one lock acquire.
                    let mut batches: Vec<Vec<UdpBatch>> = slots_per_letter
                        .iter()
                        .map(|&n| (0..n).map(|_| UdpBatch::new()).collect())
                        .collect();
                    let mut wire = Vec::with_capacity(64);
                    for i in 0..count {
                        let g = (first + i) as u64;
                        let mut steer = SimRng::new(cfg.seed).derive_ids(&[STEER_TAG, g]);
                        let letter_idx = steer.next_range(nletters);
                        let fam = usize::from(steer.chance(cfg.v6_fraction));
                        let client_idx = (g as usize % clients) % pool;
                        let lf = &self.letters[letter_idx];
                        let slot = lf.slot(fam, client_idx);
                        let mut qrng = SimRng::new(cfg.seed).derive_ids(&[QUERY_TAG, g]);
                        fill_query(&cfg.mix, templates, &mut qrng, &mut wire);
                        let batch = &mut batches[letter_idx][slot];
                        batch.push_request(&wire);
                        if batch.len() >= batch_cap {
                            stats.flush(&lf.engines[slot], letter_idx, slot, batch);
                        }
                    }
                    for (letter_idx, letter_batches) in batches.iter_mut().enumerate() {
                        for (slot, batch) in letter_batches.iter_mut().enumerate() {
                            stats.flush(
                                &self.letters[letter_idx].engines[slot],
                                letter_idx,
                                slot,
                                batch,
                            );
                        }
                    }
                    (t, stats)
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let elapsed = started.elapsed();
        // Ordered merge, same discipline as the load generator: fold
        // shard tallies in shard-id order no matter how the scheduler
        // finished them.
        stats.sort_by_key(|&(shard, _)| shard);
        let mut merged = ShardStats::new(slots_per_letter);
        for (_, s) in &stats {
            for (a, b) in merged.letter_queries.iter_mut().zip(&s.letter_queries) {
                *a += b;
            }
            for (a, b) in merged.letter_busy_ns.iter_mut().zip(&s.letter_busy_ns) {
                *a += b;
            }
            for (al, bl) in merged.site_counts.iter_mut().zip(&s.site_counts) {
                for (a, b) in al.iter_mut().zip(bl) {
                    *a += b;
                }
            }
            merged.hits += s.hits;
            merged.fallbacks += s.fallbacks;
            merged.dropped += s.dropped;
            merged.responses += s.responses;
            merged.nxdomain += s.nxdomain;
            merged.referrals += s.referrals;
            merged.truncated += s.truncated;
            merged.latency.merge(&s.latency);
            merged.sizes.merge(&s.sizes);
        }
        let letters: Vec<LetterLoad> = self
            .letters
            .iter()
            .enumerate()
            .map(|(i, lf)| {
                let queries = merged.letter_queries[i];
                let busy_ns = merged.letter_busy_ns[i];
                LetterLoad {
                    letter: lf.letter,
                    sites: lf.engines.len(),
                    queries,
                    busy_ns,
                    qps: queries as f64 / (busy_ns.max(1) as f64 / 1e9),
                }
            })
            .collect();
        let mut per_site = Vec::new();
        for (i, lf) in self.letters.iter().enumerate() {
            for (slot, &n) in merged.site_counts[i].iter().enumerate() {
                if n > 0 {
                    per_site.push((lf.letter, lf.site_ids[slot], n));
                }
            }
        }
        FarmReport {
            queries: cfg.queries,
            elapsed,
            wall_qps: cfg.queries as f64 / elapsed.as_secs_f64().max(1e-9),
            aggregate_qps: letters.iter().map(|l| l.qps).sum(),
            letters,
            hits: merged.hits,
            fallbacks: merged.fallbacks,
            dropped: merged.dropped,
            responses: merged.responses,
            nxdomain: merged.nxdomain,
            referrals: merged.referrals,
            truncated: merged.truncated,
            p50_ns: merged.latency.quantile(0.50),
            p99_ns: merged.latency.quantile(0.99),
            size_p50: merged.sizes.quantile(0.50),
            size_p99: merged.sizes.quantile(0.99),
            per_site,
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos runs: failure injection, health-checked failover, overload shedding.
// ---------------------------------------------------------------------------

/// A junk-amplification flood window: inside `[start_ms, end_ms)` every
/// junk-class query counts as `amplification` offered datagrams when the
/// shedding policy sizes a site's ingress (the water-torture shape: the
/// flood is junk, the infrastructure cost is real).
#[derive(Debug, Clone, Copy)]
pub struct FloodWindow {
    pub start_ms: u64,
    pub end_ms: u64,
    pub amplification: f64,
}

/// Parameters of a chaos run: the healthy-farm config plus the failure
/// schedule and the resilience policies played against it.
#[derive(Debug, Clone)]
pub struct FarmChaosConfig {
    pub farm: FarmConfig,
    /// The deterministic failure schedule (crashes, stalls, blackholes,
    /// poisoned reloads) on the shared virtual clock.
    pub plan: FailurePlan,
    pub health: HealthConfig,
    pub recovery: RecoveryPolicy,
    /// Client arrivals on the virtual-ms axis; failure windows hit
    /// exactly the queries that arrive inside them, on any shard count.
    pub arrivals: ArrivalSchedule,
    /// How long a client waits on a dead site before hedging its one
    /// retry to the next-best catchment.
    pub hedge_timeout_ms: u64,
    /// A site sheds once its offered load exceeds `shed_headroom` times
    /// its healthy-baseline share.
    pub shed_headroom: f64,
    /// Junk-amplification floods overlaid on the failure schedule.
    pub floods: Vec<FloodWindow>,
    /// Wall-clock second reload validation runs at (must fall inside the
    /// zone's RRSIG validity window for clean zones to be accepted).
    pub validate_now_s: u32,
}

impl FarmChaosConfig {
    /// A smoke-test-sized chaos run with an empty failure plan — add
    /// windows to `plan` / `floods` to inject faults.
    pub fn tiny(seed: u64, validate_now_s: u32) -> FarmChaosConfig {
        FarmChaosConfig {
            farm: FarmConfig::tiny(seed),
            plan: FailurePlan::none(seed),
            health: HealthConfig::default(),
            recovery: RecoveryPolicy::default(),
            arrivals: ArrivalSchedule {
                start_ms: 0,
                interarrival_ms: 1,
            },
            hedge_timeout_ms: 300,
            shed_headroom: 2.0,
            floods: Vec::new(),
            validate_now_s,
        }
    }

    /// The fault-free twin of this config: same seed, same traffic, same
    /// steering — no failures, no floods. Every answer a chaos run
    /// delivers must be byte-identical to what the twin serves.
    pub fn twin(&self) -> FarmChaosConfig {
        let mut t = self.clone();
        t.plan = FailurePlan::none(self.plan.seed);
        t.floods.clear();
        t
    }
}

/// Per-query outcome, packed into [`FarmChaosReport::flags`] bits 2..=4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// Answered by the first steered site.
    Served = 0,
    /// First site was dark; the hedged retry landed elsewhere.
    ServedHedged = 1,
    /// Dropped at ingress by the overload-shedding policy.
    Shed = 2,
    /// First site dark and the hedge found no live alternative.
    Unanswered = 3,
    /// Reached an engine but was unserveable (malformed datagram).
    EngineDropped = 4,
}

/// What one chaos run measured. `flags` and `digests` are per global
/// query index: flags pack class (bits 0..=1: 0 benign, 1 junk,
/// 2 chaos), outcome (bits 2..=4) and a late bit (5); digests are a
/// per-response word-at-a-time digest of the delivered bytes (0 = no
/// response), which is what [`FarmChaosReport::diff_twin`] compares for
/// byte-identity.
#[derive(Debug, Clone)]
pub struct FarmChaosReport {
    pub queries: usize,
    pub elapsed: Duration,
    pub wall_qps: f64,
    /// Sum of per-letter busy-time serving rates, as in [`FarmReport`].
    pub aggregate_qps: f64,
    pub letters: Vec<LetterLoad>,
    pub hits: u64,
    pub fallbacks: u64,
    pub served: u64,
    pub served_hedged: u64,
    pub shed_junk: u64,
    pub shed_benign: u64,
    pub unanswered: u64,
    pub engine_dropped: u64,
    /// Served, but through a stalled shard (late answer).
    pub late: u64,
    pub legit_offered: u64,
    pub legit_served: u64,
    pub junk_offered: u64,
    pub junk_served: u64,
    pub hedges_attempted: u64,
    /// Poisoned pushes the validated reload path refused / let through.
    pub reloads_rejected: u64,
    pub reloads_accepted: u64,
    /// Distinct steering epochs across all letters (>1 means failover
    /// re-steering happened).
    pub steering_epochs: usize,
    /// Watchdog probes the control plane fired.
    pub probes: u64,
    /// Health transitions: `(letter position, slot, at_ms, status)`.
    pub transitions: Vec<(u8, u8, u64, SiteStatus)>,
    /// Crash incidents and their restart ladders.
    pub recoveries: Vec<RecoveryLog>,
    /// The failure plan's own fingerprint (mixed into the report's).
    pub plan_fp: u64,
    pub flags: Vec<u8>,
    pub digests: Vec<u64>,
    /// Violations observed while applying the reload schedule (a corrupt
    /// zone activating, a rejected reload moving the generation).
    pub reload_violations: Vec<String>,
}

impl FarmChaosReport {
    /// Fraction of legitimate (non-junk) queries that got an answer —
    /// the degraded-service headline the acceptance gate holds at ≥0.99.
    pub fn legit_served_fraction(&self) -> f64 {
        if self.legit_offered == 0 {
            1.0
        } else {
            self.legit_served as f64 / self.legit_offered as f64
        }
    }

    fn outcome_of(flag: u8) -> u8 {
        (flag >> 2) & 0x07
    }

    fn class_of(flag: u8) -> u8 {
        flag & 0x03
    }

    /// Order-sensitive FNV digest over every deterministic field — the
    /// replay-identity of the whole run: traffic, steering, health
    /// transitions, restart ladders, sheds, and every delivered byte.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        mix(self.queries as u64);
        mix(self.hits);
        mix(self.fallbacks);
        mix(self.served);
        mix(self.served_hedged);
        mix(self.shed_junk);
        mix(self.shed_benign);
        mix(self.unanswered);
        mix(self.engine_dropped);
        mix(self.late);
        mix(self.legit_offered);
        mix(self.legit_served);
        mix(self.junk_offered);
        mix(self.junk_served);
        mix(self.hedges_attempted);
        mix(self.reloads_rejected);
        mix(self.reloads_accepted);
        mix(self.steering_epochs as u64);
        mix(self.probes);
        for l in &self.letters {
            mix(l.letter.index() as u64);
            mix(l.queries);
        }
        for &(li, slot, t, status) in &self.transitions {
            mix(u64::from(li));
            mix(u64::from(slot));
            mix(t);
            mix(status.id());
        }
        for r in &self.recoveries {
            mix(r.letter.index() as u64);
            mix(u64::from(r.site_id));
            mix(r.failed_at);
            mix(r.detected_at);
            mix(u64::from(r.attempts));
            mix(r.recovered_at.map_or(u64::MAX, |t| t));
        }
        for &f in &self.flags {
            mix(u64::from(f));
        }
        for &d in &self.digests {
            mix(d);
        }
        h ^ self.plan_fp
    }

    /// Internal-consistency checks plus any reload violations; a sound
    /// run returns an empty list.
    pub fn violations(&self) -> Vec<String> {
        let mut v = self.reload_violations.clone();
        let outcomes = self.served
            + self.served_hedged
            + self.shed_junk
            + self.shed_benign
            + self.unanswered
            + self.engine_dropped;
        if outcomes != self.queries as u64 {
            v.push(format!("outcomes {outcomes} != queries {}", self.queries));
        }
        if self.legit_offered + self.junk_offered != self.queries as u64 {
            v.push(format!(
                "offered split {}+{} != queries {}",
                self.legit_offered, self.junk_offered, self.queries
            ));
        }
        if self.legit_served > self.legit_offered {
            v.push(format!(
                "legit served {} > offered {}",
                self.legit_served, self.legit_offered
            ));
        }
        for (g, (&f, &d)) in self.flags.iter().zip(&self.digests).enumerate() {
            let answered = Self::outcome_of(f) <= 1;
            if answered != (d != 0) {
                v.push(format!("query {g}: outcome/digest mismatch (flag {f:#x})"));
                break;
            }
        }
        v
    }

    /// Global indices of answered non-CHAOS queries whose delivered
    /// bytes differ from the fault-free twin's (CHAOS identity answers
    /// legitimately differ when the hedge lands at another site). Empty
    /// means every delivered answer was byte-identical to a healthy farm.
    pub fn diff_twin(&self, twin: &FarmChaosReport) -> Vec<u64> {
        self.flags
            .iter()
            .zip(&self.digests)
            .zip(twin.flags.iter().zip(&twin.digests))
            .enumerate()
            .filter(|&(_, ((&f, &d), (&tf, &td)))| {
                Self::outcome_of(f) <= 1
                    && Self::class_of(f) != 2
                    && Self::outcome_of(tf) <= 1
                    && d != td
            })
            .map(|(g, _)| g as u64)
            .collect()
    }

    /// Metric pairs for `BENCH_results.json` and the bench guard.
    pub fn metrics(&self, prefix: &str) -> Vec<(String, f64)> {
        vec![
            (
                format!("{prefix}/degraded_served_fraction"),
                self.legit_served_fraction(),
            ),
            (format!("{prefix}/aggregate_qps"), self.aggregate_qps),
            (format!("{prefix}/shed_junk"), self.shed_junk as f64),
            (format!("{prefix}/shed_benign"), self.shed_benign as f64),
            (format!("{prefix}/unanswered"), self.unanswered as f64),
        ]
    }

    /// Human-readable summary of the run.
    pub fn render(&self) -> String {
        let mut out = format!(
            "queries          {:>12}\nserved           {:>12}\n  hedged         {:>12}\n  late           {:>12}\nshed junk        {:>12}\nshed benign      {:>12}\nunanswered       {:>12}\nengine dropped   {:>12}\nlegit served     {:>12} / {} ({:.4})\nhedges attempted {:>12}\nreloads rejected {:>12}\nreloads accepted {:>12}\nsteering epochs  {:>12}\nprobes           {:>12}\nrecoveries       {:>12}\nelapsed          {:>12.3} s\naggregate        {:>12.0} q/s\n",
            self.queries,
            self.served + self.served_hedged,
            self.served_hedged,
            self.late,
            self.shed_junk,
            self.shed_benign,
            self.unanswered,
            self.engine_dropped,
            self.legit_served,
            self.legit_offered,
            self.legit_served_fraction(),
            self.hedges_attempted,
            self.reloads_rejected,
            self.reloads_accepted,
            self.steering_epochs,
            self.probes,
            self.recoveries.len(),
            self.elapsed.as_secs_f64(),
            self.aggregate_qps,
        );
        for r in &self.recoveries {
            out.push_str(&format!(
                "  {}.root site {:>3}  down {:>7} ms  detected {:>7} ms  attempts {}  {}\n",
                r.letter.ch(),
                r.site_id,
                r.failed_at,
                r.detected_at,
                r.attempts,
                match r.recovered_at {
                    Some(t) => format!("recovered {t} ms"),
                    None => "NOT RECOVERED".to_string(),
                },
            ));
        }
        out
    }
}

/// One steering epoch of one letter: the failover tables and offered
/// weights in force from `start_ms` until the next epoch.
#[derive(Debug, PartialEq)]
struct EpochSteer {
    start_ms: u64,
    /// `steer[family][client position] -> engine slot` over the live
    /// (non-Dead) sites; slot indices stay those of the full roster.
    steer: [Vec<u16>; 2],
    /// Normalized offered-load share per slot under this epoch's tables.
    weights: Vec<f64>,
}

/// Word-at-a-time digest of one delivered response, salted with the
/// global query index: the length and `g` seed the state, each 8-byte
/// little-endian word (the tail zero-padded) goes through one folded
/// 64×64→128 multiply, and a last multiply avalanches the result. Never
/// 0, so 0 unambiguously means "no response".
fn digest_response(g: u64, resp: &[u8]) -> u64 {
    const K0: u64 = 0xa076_1d64_78bd_642f;
    const K1: u64 = 0xe703_7ed1_a0b4_28db;
    let fold = |a: u64, b: u64| {
        let m = u128::from(a) * u128::from(b);
        m as u64 ^ (m >> 64) as u64
    };
    let mut h = fold(g ^ K0, resp.len() as u64 ^ K1);
    let mut words = resp.chunks_exact(8);
    for w in &mut words {
        h = fold(h ^ u64::from_le_bytes(w.try_into().unwrap()), K1);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = fold(h ^ u64::from_le_bytes(last), K1);
    }
    fold(h ^ K0, K1) | 1
}

/// Shed probabilities `(junk, benign)` for a slot whose offered share is
/// `w` against healthy baseline `wb`: junk is amplified by `amp`, the cap
/// is `headroom` over the larger of the baseline share and an even
/// split, junk sheds first, benign only for what junk cannot absorb.
fn shed_probs(w: f64, wb: f64, nslots: usize, j: f64, amp: f64, headroom: f64) -> (f64, f64) {
    if w <= 0.0 {
        return (0.0, 0.0);
    }
    let offered = w * (1.0 + j * (amp - 1.0));
    let cap = headroom * wb.max(1.0 / nslots as f64);
    let excess = offered - cap;
    if excess <= 0.0 {
        return (0.0, 0.0);
    }
    let junk_offered = w * j * amp;
    let p_junk = if junk_offered > 0.0 {
        (excess / junk_offered).min(1.0)
    } else {
        0.0
    };
    let excess2 = excess - junk_offered;
    let benign_offered = w * (1.0 - j);
    let p_benign = if excess2 > 0.0 && benign_offered > 0.0 {
        (excess2 / benign_offered).min(1.0)
    } else {
        0.0
    };
    (p_junk, p_benign)
}

/// Normalized offered-load share per slot under `steer`, over the
/// configured client-position distribution and family split.
fn offered_weights(
    steer: &[Vec<u16>; 2],
    nslots: usize,
    clients: usize,
    pool: usize,
    v6_fraction: f64,
) -> Vec<f64> {
    let mut w = vec![0.0; nslots];
    for c in 0..clients {
        let pos = c % pool;
        for (fi, famp) in [(0usize, 1.0 - v6_fraction), (1usize, v6_fraction)] {
            let table = &steer[fi];
            let slot = if table.is_empty() {
                0
            } else {
                table[pos % table.len()] as usize
            };
            w[slot] += famp / clients as f64;
        }
    }
    w
}

fn epoch_at(epochs: &[EpochSteer], t: u64) -> &EpochSteer {
    let i = epochs.partition_point(|e| e.start_ms <= t);
    &epochs[i.max(1) - 1]
}

fn flood_amp_at(floods: &[FloodWindow], t: u64) -> f64 {
    floods
        .iter()
        .filter(|f| t >= f.start_ms && t < f.end_ms)
        .map(|f| f.amplification)
        .fold(1.0, f64::max)
}

/// Pending outcome of one batched datagram:
/// `(global index, class, hedged, late)`, resolved at flush time.
type BatchMeta = Vec<(u64, u8, bool, bool)>;

/// Per-shard chaos tallies (merged in shard-id order).
#[derive(Clone)]
struct ChaosShard {
    letter_queries: Vec<u64>,
    letter_busy_ns: Vec<u64>,
    hits: u64,
    fallbacks: u64,
    served: u64,
    served_hedged: u64,
    shed_junk: u64,
    shed_benign: u64,
    unanswered: u64,
    engine_dropped: u64,
    late: u64,
    legit_offered: u64,
    legit_served: u64,
    junk_offered: u64,
    junk_served: u64,
    hedges_attempted: u64,
}

impl ChaosShard {
    fn new(nletters: usize) -> ChaosShard {
        ChaosShard {
            letter_queries: vec![0; nletters],
            letter_busy_ns: vec![0; nletters],
            hits: 0,
            fallbacks: 0,
            served: 0,
            served_hedged: 0,
            shed_junk: 0,
            shed_benign: 0,
            unanswered: 0,
            engine_dropped: 0,
            late: 0,
            legit_offered: 0,
            legit_served: 0,
            junk_offered: 0,
            junk_served: 0,
            hedges_attempted: 0,
        }
    }

    /// Serve one batch and resolve every entry's outcome: digest the
    /// delivered bytes into the shard's global-index slices.
    #[allow(clippy::too_many_arguments)]
    fn flush(
        &mut self,
        engine: &Rootd,
        letter_idx: usize,
        batch: &mut UdpBatch,
        meta: &mut BatchMeta,
        first: usize,
        digests: &mut [u64],
        flags: &mut [u8],
    ) {
        if batch.is_empty() {
            meta.clear();
            return;
        }
        let n = batch.len() as u64;
        let t0 = Instant::now();
        let tally = engine.serve_udp_batch(batch);
        let dt = t0.elapsed().as_nanos() as u64;
        self.letter_queries[letter_idx] += n;
        self.letter_busy_ns[letter_idx] += dt;
        self.hits += tally.hits;
        self.fallbacks += tally.fallbacks;
        for (i, &(g, class, hedged, is_late)) in meta.iter().enumerate() {
            let local = g as usize - first;
            match batch.response(i) {
                Some(resp) => {
                    digests[local] = digest_response(g, resp);
                    let outcome = if hedged {
                        self.served_hedged += 1;
                        ChaosOutcome::ServedHedged
                    } else {
                        self.served += 1;
                        ChaosOutcome::Served
                    };
                    if is_late {
                        self.late += 1;
                    }
                    if class == 1 {
                        self.junk_served += 1;
                    } else {
                        self.legit_served += 1;
                    }
                    flags[local] = class | ((outcome as u8) << 2) | (u8::from(is_late) << 5);
                }
                None => {
                    self.engine_dropped += 1;
                    flags[local] = class | ((ChaosOutcome::EngineDropped as u8) << 2);
                }
            }
        }
        batch.clear();
        meta.clear();
    }
}

impl Farm {
    /// Precompute every letter's steering epochs from the control
    /// plane's health timelines: Dead sites are withdrawn from the
    /// letter's anycast announcement and catchments recomputed through
    /// the same Gao-Rexford propagation as at build time — failover *is*
    /// a BGP withdrawal, not a special path. Each distinct (letter,
    /// dead-mask, family) propagation runs once, spread over up to
    /// `cfg.farm.shards` threads; the epochs are assembled in (letter,
    /// epoch) order, so they are the same for any thread count.
    fn chaos_steering(
        &self,
        topology: &Topology,
        control: &ControlPlane,
        cfg: &FarmChaosConfig,
    ) -> Vec<Vec<EpochSteer>> {
        let pool = self.clients.len().max(1);
        let clients = cfg.farm.clients.max(1);
        let timelines: Vec<Vec<(u64, Vec<bool>)>> = control
            .letters
            .iter()
            .map(|lc| lc.timeline.steering_epochs())
            .collect();
        let live_ids = |lf: &LetterFarm, dead: &[bool]| -> Vec<u32> {
            lf.site_ids
                .iter()
                .enumerate()
                .filter(|&(slot, _)| !dead.get(slot).copied().unwrap_or(false))
                .map(|(_, &id)| id)
                .collect()
        };
        // Distinct withdrawals, first-seen order. All-live masks keep the
        // base tables — and so do all-dead ones, where steering is moot:
        // every query hedges into the void.
        let mut masks: Vec<(usize, &[bool])> = Vec::new();
        for (li, (lf, epochs)) in self.letters.iter().zip(&timelines).enumerate() {
            for (_, dead) in epochs {
                let live = live_ids(lf, dead).len();
                if live != 0 && live != lf.site_ids.len() && !masks.contains(&(li, dead)) {
                    masks.push((li, dead));
                }
            }
        }
        let jobs: Vec<(usize, &[bool], Family)> = masks
            .iter()
            .flat_map(|&(li, dead)| [Family::V4, Family::V6].map(|family| (li, dead, family)))
            .collect();
        let withdraw = |&(li, dead, family): &(usize, &[bool], Family)| -> Vec<u16> {
            let lf = &self.letters[li];
            let live = live_ids(lf, dead);
            let withdrawn = Deployment {
                name: lf.deployment.name.clone(),
                sites: lf
                    .deployment
                    .sites
                    .iter()
                    .filter(|s| live.contains(&s.id.0))
                    .cloned()
                    .collect(),
            };
            let fallback = lf
                .site_ids
                .iter()
                .position(|id| live.contains(id))
                .unwrap_or(0) as u16;
            let routes = propagate(topology, &withdrawn, family);
            self.clients
                .iter()
                .map(|&asn| {
                    routes
                        .best(asn)
                        .and_then(|c| lf.site_ids.iter().position(|&id| id == c.site.0))
                        .map(|slot| slot as u16)
                        .unwrap_or(fallback)
                })
                .collect()
        };
        let withdraw = &withdraw;
        let per_thread = jobs.len().div_ceil(cfg.farm.shards.max(1)).max(1);
        let tables: Vec<Vec<u16>> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .chunks(per_thread)
                .map(|chunk| scope.spawn(move || chunk.iter().map(withdraw).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        self.letters
            .iter()
            .zip(&timelines)
            .enumerate()
            .map(|(li, (lf, epochs))| {
                epochs
                    .iter()
                    .map(|(start_ms, dead)| {
                        let steer = match masks.iter().position(|&m| m == (li, dead.as_slice())) {
                            Some(k) => [tables[2 * k].clone(), tables[2 * k + 1].clone()],
                            None => lf.steer.clone(),
                        };
                        let weights = offered_weights(
                            &steer,
                            lf.engines.len(),
                            clients,
                            pool,
                            cfg.farm.v6_fraction,
                        );
                        EpochSteer {
                            start_ms: *start_ms,
                            steer,
                            weights,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Run the control plane over the farm's roster up to the chaos
    /// horizon: health timelines, ground-truth outage/stall tables,
    /// restart ladders.
    fn chaos_control(&self, cfg: &FarmChaosConfig) -> ControlPlane {
        let roster: Vec<(RootLetter, Vec<u32>)> = self
            .letters
            .iter()
            .map(|lf| (lf.letter, lf.site_ids.clone()))
            .collect();
        let last_arrival =
            cfg.arrivals
                .attempt_at(cfg.farm.queries as u64, 1, cfg.hedge_timeout_ms);
        let horizon = last_arrival
            .max(
                cfg.plan
                    .max_finite_end()
                    .saturating_add(cfg.recovery.budget_ms()),
            )
            .saturating_add(4 * cfg.health.probe_interval_ms);
        run_control_plane(&roster, &cfg.plan, &cfg.health, &cfg.recovery, horizon)
    }

    /// Apply the plan's poisoned reloads through the validated reload
    /// path. Every push must be refused with the generation unchanged —
    /// anything else is recorded as a violation.
    fn apply_poisoned_reloads(&self, cfg: &FarmChaosConfig) -> (u64, u64, Vec<String>) {
        let mut rejected = 0u64;
        let mut accepted = 0u64;
        let mut violations = Vec::new();
        let mut pushes = cfg.plan.poisoned_reloads.clone();
        pushes.sort_by_key(|p| (p.at_ms, p.letter));
        for p in &pushes {
            let mut poisoned = (*self.zone).clone();
            if dns_zone::corrupt::flip_rrsig_bit(&mut poisoned, p.flip_seed).is_none() {
                violations.push(format!(
                    "poisoned reload at {} ms: zone has no RRSIG to corrupt",
                    p.at_ms
                ));
                continue;
            }
            let before = self.generation(p.letter);
            match self.reload_letter(p.letter, Arc::new(poisoned), cfg.validate_now_s) {
                Err(_) => {
                    rejected += 1;
                    if self.generation(p.letter) != before {
                        violations.push(format!(
                            "{}.root: rejected reload moved generation {:?} -> {:?}",
                            p.letter.ch(),
                            before,
                            self.generation(p.letter)
                        ));
                    }
                }
                Ok(generation) => {
                    accepted += 1;
                    violations.push(format!(
                        "{}.root: CORRUPT ZONE ACTIVATED as generation {generation}",
                        p.letter.ch()
                    ));
                }
            }
        }
        (rejected, accepted, violations)
    }

    /// Run the constellation through the failure schedule: the control
    /// plane (health probes, failover steering, restart ladders) runs
    /// first as a discrete-event program on the virtual clock, producing
    /// piecewise-constant timelines; the sharded data plane then serves
    /// every query against those timelines — per-query steering, hedging
    /// and shedding are pure functions of the global query index, so the
    /// whole report is bit-identical for any shard count.
    pub fn run_chaos(&self, topology: &Topology, cfg: &FarmChaosConfig) -> FarmChaosReport {
        let shards = cfg.farm.shards.max(1);
        let clients = cfg.farm.clients.max(1);
        let batch_cap = cfg.farm.batch.max(1);
        let nletters = self.letters.len();
        let per_shard = cfg.farm.queries.div_ceil(shards).max(1);
        let templates = QueryTemplates::build(&self.tlds);
        let templates = &templates;
        let pool = self.clients.len().max(1);
        // Expected junk share of the mix (chaos-class templates return
        // before the junk draw; the small apex correction is ignored —
        // the headroom factor dwarfs it).
        let junk_frac = (1.0 - cfg.farm.mix.chaos_fraction) * cfg.farm.mix.nxdomain_fraction;

        // Poisoned reloads first: all must bounce off validation, so the
        // serving state the data plane reads is unchanged.
        let (reloads_rejected, reloads_accepted, reload_violations) =
            self.apply_poisoned_reloads(cfg);

        let control = self.chaos_control(cfg);
        let epochs = self.chaos_steering(topology, &control, cfg);
        let epochs = &epochs;
        let control = &control;
        // Healthy-baseline offered shares anchor the shedding cap, so
        // failover redistribution — not the baseline split — is what
        // gets charged against headroom.
        let base_weights: Vec<Vec<f64>> = self
            .letters
            .iter()
            .map(|lf| {
                offered_weights(
                    &lf.steer,
                    lf.engines.len(),
                    clients,
                    pool,
                    cfg.farm.v6_fraction,
                )
            })
            .collect();
        let base_weights = &base_weights;

        let mut digests = vec![0u64; cfg.farm.queries];
        let mut flags = vec![0u8; cfg.farm.queries];
        let started = Instant::now();
        let mut stats: Vec<(usize, ChaosShard)> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shards);
            let mut dig_rest: &mut [u64] = &mut digests;
            let mut flag_rest: &mut [u8] = &mut flags;
            for t in 0..shards {
                let first = t * per_shard;
                let count = per_shard.min(cfg.farm.queries.saturating_sub(first));
                let (dig, rest) = std::mem::take(&mut dig_rest).split_at_mut(count);
                dig_rest = rest;
                let (flg, rest) = std::mem::take(&mut flag_rest).split_at_mut(count);
                flag_rest = rest;
                handles.push(scope.spawn(move || {
                    let mut stats = ChaosShard::new(nletters);
                    let slots_per_letter: Vec<usize> =
                        self.letters.iter().map(|lf| lf.engines.len()).collect();
                    let mut batches: Vec<Vec<UdpBatch>> = slots_per_letter
                        .iter()
                        .map(|&n| (0..n).map(|_| UdpBatch::new()).collect())
                        .collect();
                    let mut metas: Vec<Vec<BatchMeta>> = slots_per_letter
                        .iter()
                        .map(|&n| (0..n).map(|_| Vec::new()).collect())
                        .collect();
                    let mut wire = Vec::with_capacity(64);
                    for i in 0..count {
                        let g = (first + i) as u64;
                        let mut steer = SimRng::new(cfg.farm.seed).derive_ids(&[STEER_TAG, g]);
                        let letter_idx = steer.next_range(nletters);
                        let fam = usize::from(steer.chance(cfg.farm.v6_fraction));
                        let client_idx = (g as usize % clients) % pool;
                        let lf = &self.letters[letter_idx];
                        let lc = &control.letters[letter_idx];
                        let t_arr = cfg.arrivals.attempt_at(g, 0, 0);
                        let mut qrng = SimRng::new(cfg.farm.seed).derive_ids(&[QUERY_TAG, g]);
                        let class = match fill_query(&cfg.farm.mix, templates, &mut qrng, &mut wire)
                        {
                            QueryClass::Chaos => 2u8,
                            QueryClass::Junk => 1,
                            QueryClass::Apex | QueryClass::Tld => 0,
                        };
                        if class == 1 {
                            stats.junk_offered += 1;
                        } else {
                            stats.legit_offered += 1;
                        }
                        let epoch = epoch_at(&epochs[letter_idx], t_arr);
                        let table = &epoch.steer[fam];
                        let slot = if table.is_empty() {
                            0
                        } else {
                            table[client_idx % table.len()] as usize
                        };
                        // Ingress shedding at the steered site.
                        let amp = flood_amp_at(&cfg.floods, t_arr);
                        let (p_junk, p_benign) = shed_probs(
                            epoch.weights[slot],
                            base_weights[letter_idx][slot],
                            lf.engines.len(),
                            junk_frac,
                            amp,
                            cfg.shed_headroom,
                        );
                        let p = if class == 1 { p_junk } else { p_benign };
                        if p > 0.0
                            && SimRng::new(cfg.farm.seed)
                                .derive_ids(&[SHED_TAG, g])
                                .chance(p)
                        {
                            if class == 1 {
                                stats.shed_junk += 1;
                            } else {
                                stats.shed_benign += 1;
                            }
                            flg[i] = class | ((ChaosOutcome::Shed as u8) << 2);
                            continue;
                        }
                        // Ground truth beats belief: a dark site eats the
                        // datagram whether or not the watchdog knows yet.
                        let (serve_slot, serve_t, hedged) = if lc.down_at(slot, t_arr) {
                            stats.hedges_attempted += 1;
                            let t2 = t_arr + cfg.hedge_timeout_ms;
                            let epoch2 = epoch_at(&epochs[letter_idx], t2);
                            let table2 = &epoch2.steer[fam];
                            let routed = if table2.is_empty() {
                                0
                            } else {
                                table2[client_idx % table2.len()] as usize
                            };
                            // If steering already withdrew the dead site,
                            // the retry follows the new catchment;
                            // otherwise (watchdog hasn't caught up yet)
                            // the client falls back to the next site it
                            // still believes is in rotation.
                            let nslots = lf.engines.len();
                            let slot2 = if routed != slot {
                                Some(routed)
                            } else {
                                (1..nslots)
                                    .map(|k| (slot + k) % nslots)
                                    .find(|&s| lc.timeline.status_at(s, t2).in_rotation())
                            };
                            match slot2 {
                                Some(s2) if !lc.down_at(s2, t2) => (s2, t2, true),
                                _ => {
                                    stats.unanswered += 1;
                                    flg[i] = class | ((ChaosOutcome::Unanswered as u8) << 2);
                                    continue;
                                }
                            }
                        } else {
                            (slot, t_arr, false)
                        };
                        let is_late = lc.stall_delay_at(serve_slot, serve_t).is_some();
                        let batch = &mut batches[letter_idx][serve_slot];
                        batch.push_request(&wire);
                        metas[letter_idx][serve_slot].push((g, class, hedged, is_late));
                        if batch.len() >= batch_cap {
                            stats.flush(
                                &lf.engines[serve_slot],
                                letter_idx,
                                batch,
                                &mut metas[letter_idx][serve_slot],
                                first,
                                dig,
                                flg,
                            );
                        }
                    }
                    for (letter_idx, letter_batches) in batches.iter_mut().enumerate() {
                        for (slot, batch) in letter_batches.iter_mut().enumerate() {
                            stats.flush(
                                &self.letters[letter_idx].engines[slot],
                                letter_idx,
                                batch,
                                &mut metas[letter_idx][slot],
                                first,
                                dig,
                                flg,
                            );
                        }
                    }
                    (t, stats)
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let elapsed = started.elapsed();
        stats.sort_by_key(|&(shard, _)| shard);
        let mut merged = ChaosShard::new(nletters);
        for (_, s) in &stats {
            for (a, b) in merged.letter_queries.iter_mut().zip(&s.letter_queries) {
                *a += b;
            }
            for (a, b) in merged.letter_busy_ns.iter_mut().zip(&s.letter_busy_ns) {
                *a += b;
            }
            merged.hits += s.hits;
            merged.fallbacks += s.fallbacks;
            merged.served += s.served;
            merged.served_hedged += s.served_hedged;
            merged.shed_junk += s.shed_junk;
            merged.shed_benign += s.shed_benign;
            merged.unanswered += s.unanswered;
            merged.engine_dropped += s.engine_dropped;
            merged.late += s.late;
            merged.legit_offered += s.legit_offered;
            merged.legit_served += s.legit_served;
            merged.junk_offered += s.junk_offered;
            merged.junk_served += s.junk_served;
            merged.hedges_attempted += s.hedges_attempted;
        }
        let letters: Vec<LetterLoad> = self
            .letters
            .iter()
            .enumerate()
            .map(|(i, lf)| {
                let queries = merged.letter_queries[i];
                let busy_ns = merged.letter_busy_ns[i];
                LetterLoad {
                    letter: lf.letter,
                    sites: lf.engines.len(),
                    queries,
                    busy_ns,
                    qps: queries as f64 / (busy_ns.max(1) as f64 / 1e9),
                }
            })
            .collect();
        let transitions: Vec<(u8, u8, u64, SiteStatus)> = control
            .letters
            .iter()
            .enumerate()
            .flat_map(|(li, lc)| {
                lc.timeline
                    .events()
                    .into_iter()
                    .map(move |(slot, t, status)| (li as u8, slot as u8, t, status))
            })
            .collect();
        FarmChaosReport {
            queries: cfg.farm.queries,
            elapsed,
            wall_qps: cfg.farm.queries as f64 / elapsed.as_secs_f64().max(1e-9),
            aggregate_qps: letters.iter().map(|l| l.qps).sum(),
            letters,
            hits: merged.hits,
            fallbacks: merged.fallbacks,
            served: merged.served,
            served_hedged: merged.served_hedged,
            shed_junk: merged.shed_junk,
            shed_benign: merged.shed_benign,
            unanswered: merged.unanswered,
            engine_dropped: merged.engine_dropped,
            late: merged.late,
            legit_offered: merged.legit_offered,
            legit_served: merged.legit_served,
            junk_offered: merged.junk_offered,
            junk_served: merged.junk_served,
            hedges_attempted: merged.hedges_attempted,
            reloads_rejected,
            reloads_accepted,
            steering_epochs: epochs.iter().map(Vec::len).sum(),
            probes: control.probes,
            transitions,
            recoveries: control.recoveries.clone(),
            plan_fp: cfg.plan.fold_fingerprint(0xcbf2_9ce4_8422_2325),
            flags,
            digests,
            reload_violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::edns::{set_edns, Edns};
    use dns_wire::rdata::Rdata;
    use dns_wire::{Message, Name, Question, Rcode, RrType};
    use dns_zone::rollout::RolloutPhase;
    use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
    use dns_zone::signer::ZoneKeys;
    use netsim::topology::TopologyConfig;
    use rss::catalog::WorldConfig;

    fn world() -> (Topology, RootCatalog, Arc<Zone>) {
        let mut topology = Topology::generate(&TopologyConfig {
            tier2_per_region: 4,
            stubs_per_region: [4, 8, 16, 12, 4, 6],
            ..Default::default()
        });
        let catalog = RootCatalog::build(
            &mut topology,
            &WorldConfig {
                site_scale: 0.05,
                ..Default::default()
            },
        );
        let zone = build_root_zone(
            &RootZoneConfig {
                tld_count: 12,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(3),
        );
        (topology, catalog, Arc::new(zone))
    }

    fn small_farm() -> (Topology, RootCatalog, Arc<Zone>, Farm) {
        let (topology, catalog, zone) = world();
        let farm = Farm::build(
            &topology,
            &catalog,
            Arc::clone(&zone),
            &[RootLetter::A, RootLetter::B],
            4,
        );
        (topology, catalog, zone, farm)
    }

    #[test]
    fn farm_counters_cover_every_query() {
        let (_, _, _, farm) = small_farm();
        let mut cfg = FarmConfig::tiny(41);
        cfg.queries = 6_000;
        let report = farm.run(&cfg);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert_eq!(
            report.hits + report.fallbacks + report.dropped,
            report.queries as u64
        );
        assert!(report.hits > 0, "cached path must dominate: {report:?}");
        assert!(report.nxdomain > 0 && report.referrals > 0);
        assert!(report.aggregate_qps > 0.0 && report.wall_qps > 0.0);
        // Both letters drew load, and load spread across sites.
        assert!(report.letters.iter().all(|l| l.queries > 0));
        assert!(report.per_site.len() > 2, "{:?}", report.per_site);
    }

    #[test]
    fn farm_report_is_bit_identical_across_shard_counts() {
        let (_, _, _, farm) = small_farm();
        let mut cfg = FarmConfig::tiny(7);
        cfg.queries = 4_000;
        cfg.shards = 1;
        let baseline = farm.run(&cfg);
        let base_fp = baseline.fingerprint();
        for shards in 2..=8 {
            cfg.shards = shards;
            let report = farm.run(&cfg);
            assert_eq!(report.fingerprint(), base_fp, "shards={shards}");
            assert_eq!(report.hits, baseline.hits, "shards={shards}");
            assert_eq!(report.per_site, baseline.per_site, "shards={shards}");
            assert_eq!(
                (report.size_p50, report.size_p99),
                (baseline.size_p50, baseline.size_p99),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn steering_matches_a_fresh_catchment_computation() {
        let (topology, _, _, farm) = small_farm();
        for letter in [RootLetter::A, RootLetter::B] {
            let deployment = farm.deployment(letter).unwrap();
            for family in [Family::V4, Family::V6] {
                let routes = propagate(&topology, deployment, family);
                let mut steered_off_default = 0;
                for (pos, &asn) in farm.clients.iter().enumerate() {
                    let got = farm.site_for(letter, family, pos).unwrap();
                    if let Some(best) = routes.best(asn) {
                        assert_eq!(got, best.site.0, "{letter:?} {family:?} client {pos}");
                        if got != farm.farm_of(letter).unwrap().site_ids[0] {
                            steered_off_default += 1;
                        }
                    }
                }
                assert!(
                    steered_off_default > 0,
                    "{letter:?} {family:?}: catchments must use >1 site"
                );
            }
        }
    }

    #[test]
    fn digest_golden_vectors() {
        // Pinned so that any change to the digest is a deliberate one.
        let inputs: [(u64, &[u8]); 3] = [
            (0, b""),
            (7, b"root"),
            (300_000, b"the roots go deep: '.' under change"),
        ];
        let got: Vec<u64> = inputs
            .iter()
            .map(|&(g, bytes)| digest_response(g, bytes))
            .collect();
        assert_eq!(
            got,
            vec![
                0x832f_f0d4_5093_5051,
                0x2369_096d_c00a_6429,
                0x59b5_12b5_788a_7361
            ]
        );
    }

    #[test]
    fn digest_sees_every_bit_of_real_responses() {
        let (_, _, _, farm) = small_farm();
        let site = farm.letters[0].site_ids[0];
        let engine = farm.engine_at(RootLetter::A, site).unwrap();
        let tld = Name::parse(&format!("www.{}.", farm.tlds[0])).unwrap();
        let mut queries = [
            Message::query(1, Question::new(tld, RrType::A)),
            Message::query(
                2,
                Question::new(Name::parse("nosuchtld12345.").unwrap(), RrType::A),
            ),
            Message::query(
                3,
                Question::chaos_txt(Name::parse("version.bind.").unwrap()),
            ),
        ];
        let mut batch = UdpBatch::new();
        for q in &mut queries {
            set_edns(q, &Edns::dnssec());
            batch.push_request(&q.to_wire());
        }
        let tally = engine.serve_udp_batch(&mut batch);
        assert!(tally.hits >= 1, "the referral comes from the answer cache");
        let responses: Vec<Vec<u8>> = (0..batch.len())
            .map(|i| batch.response(i).expect("answered").to_vec())
            .collect();
        let decoded: Vec<Message> = responses
            .iter()
            .map(|r| Message::from_wire(r).unwrap())
            .collect();
        assert!(decoded[0]
            .authorities
            .iter()
            .any(|r| r.rr_type == RrType::Ns));
        assert_eq!(decoded[1].header.rcode, Rcode::NxDomain);
        assert!(matches!(decoded[2].answers[0].rdata, Rdata::Txt(_)));
        for (k, resp) in responses.iter().enumerate() {
            let g = 1_000 + k as u64;
            let d = digest_response(g, resp);
            assert_ne!(d, 0);
            assert_ne!(d, digest_response(g + 1, resp), "response {k}: g vs g+1");
            let mut flipped = resp.clone();
            for bit in 0..resp.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(digest_response(g, &flipped), d, "response {k}: bit {bit}");
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            assert_ne!(
                digest_response(g, &resp[..resp.len() - 1]),
                d,
                "response {k}: truncated"
            );
            let mut extended = resp.clone();
            extended.push(0);
            assert_ne!(digest_response(g, &extended), d, "response {k}: extended");
        }
    }

    #[test]
    fn chaos_steering_is_identical_across_thread_counts() {
        let (topology, catalog, zone) = world();
        let farm = Farm::build(
            &topology,
            &catalog,
            zone,
            &[RootLetter::A, RootLetter::B, RootLetter::C],
            4,
        );
        let mut cfg = chaos_cfg(31, 6_000);
        let site = |li: usize, pos: usize| farm.letters[li].site_ids[pos];
        cfg.plan.add(
            RootLetter::A,
            site(0, 1),
            crate::recovery::FailureKind::Crash,
            (600, 2_400),
        );
        cfg.plan.add(
            RootLetter::B,
            site(1, 0),
            crate::recovery::FailureKind::Blackhole,
            (900, 2_100),
        );
        cfg.plan.add(
            RootLetter::C,
            site(2, 1),
            crate::recovery::FailureKind::Crash,
            (700, 2_300),
        );
        cfg.plan.add(
            RootLetter::C,
            site(2, 0),
            crate::recovery::FailureKind::Stall { delay_ms: 250 },
            (600, 3_000),
        );
        let control = farm.chaos_control(&cfg);
        cfg.farm.shards = 1;
        let serial = farm.chaos_steering(&topology, &control, &cfg);
        assert!(
            serial.iter().all(|epochs| epochs.len() > 1),
            "every letter must re-steer: {:?}",
            serial.iter().map(Vec::len).collect::<Vec<_>>()
        );
        for threads in [2, 4] {
            cfg.farm.shards = threads;
            assert_eq!(
                farm.chaos_steering(&topology, &control, &cfg),
                serial,
                "threads={threads}"
            );
        }
    }

    /// A second inside the default zone config's RRSIG validity window.
    fn validate_now() -> u32 {
        RootZoneConfig::default().inception + 86_400
    }

    #[test]
    fn reload_swaps_one_letter_without_touching_the_others() {
        let (_, _, _, farm) = small_farm();
        assert_eq!(farm.generation(RootLetter::A), Some(0));
        assert_eq!(farm.generation(RootLetter::B), Some(0));
        let zone2 = build_root_zone(
            &RootZoneConfig {
                tld_count: 15,
                rollout: RolloutPhase::Validating,
                ..Default::default()
            },
            &ZoneKeys::from_seed(9),
        );
        assert_eq!(
            farm.reload_letter(RootLetter::B, Arc::new(zone2), validate_now()),
            Ok(1)
        );
        assert_eq!(farm.generation(RootLetter::B), Some(1));
        assert_eq!(farm.generation(RootLetter::A), Some(0));
        assert_eq!(
            farm.reload_letter(
                RootLetter::C,
                {
                    let (_, _, zone) = world();
                    zone
                },
                validate_now()
            ),
            Err(ReloadError::UnknownLetter)
        );
        // The farm still serves after the swap.
        let mut cfg = FarmConfig::tiny(3);
        cfg.queries = 2_000;
        let report = farm.run(&cfg);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert!(report.responses > 0);
    }

    #[test]
    fn poisoned_reload_rolls_back_atomically_and_keeps_serving() {
        let (_, _, zone, farm) = small_farm();
        let before = farm.run(&FarmConfig::tiny(5));
        let mut poisoned = (*zone).clone();
        assert!(dns_zone::corrupt::flip_rrsig_bit(&mut poisoned, 0xbad).is_some());
        let err = farm.reload_letter(RootLetter::B, Arc::new(poisoned), validate_now());
        assert!(err.is_err(), "corrupt zone must be refused: {err:?}");
        // Atomic rollback: generation unchanged, old state keeps serving
        // the exact same bytes.
        assert_eq!(farm.generation(RootLetter::B), Some(0));
        let after = farm.run(&FarmConfig::tiny(5));
        assert_eq!(after.fingerprint(), before.fingerprint());
    }

    fn chaos_cfg(seed: u64, queries: usize) -> FarmChaosConfig {
        let mut cfg = FarmChaosConfig::tiny(seed, validate_now());
        cfg.farm.queries = queries;
        cfg
    }

    #[test]
    fn chaos_with_empty_plan_serves_everything_like_a_healthy_run() {
        let (topology, _, _, farm) = small_farm();
        let cfg = chaos_cfg(11, 4_000);
        let report = farm.run_chaos(&topology, &cfg);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert_eq!(report.served, 4_000);
        assert_eq!(
            report.served_hedged
                + report.shed_junk
                + report.shed_benign
                + report.unanswered
                + report.engine_dropped,
            0
        );
        assert_eq!(report.legit_served_fraction(), 1.0);
        assert_eq!(report.probes, 0, "no faults, no watchdog events");
        assert!(report.recoveries.is_empty());
        // Same serving outcomes as the plain farm path: the chaos layer
        // adds nothing when nothing fails.
        let base = farm.run(&cfg.farm);
        assert_eq!(report.hits, base.hits);
        assert_eq!(report.fallbacks, base.fallbacks);
    }

    #[test]
    fn chaos_report_is_bit_identical_across_shard_counts_and_seed_sensitive() {
        let (topology, _, _, farm) = small_farm();
        let mut cfg = chaos_cfg(7, 3_000);
        let a0 = farm.letters[0].site_ids[0];
        let a1 = farm.letters[0].site_ids[1];
        let b0 = farm.letters[1].site_ids[0];
        cfg.plan.add(
            RootLetter::A,
            a1,
            crate::recovery::FailureKind::Crash,
            (400, 1_500),
        );
        cfg.plan.add(
            RootLetter::B,
            b0,
            crate::recovery::FailureKind::Blackhole,
            (500, 1_200),
        );
        cfg.plan.add(
            RootLetter::A,
            a0,
            crate::recovery::FailureKind::Stall { delay_ms: 300 },
            (200, 2_000),
        );
        cfg.plan.add_poisoned_reload(RootLetter::B, 900);
        cfg.floods.push(FloodWindow {
            start_ms: 800,
            end_ms: 1_600,
            amplification: 8.0,
        });
        cfg.farm.shards = 1;
        let baseline = farm.run_chaos(&topology, &cfg);
        assert_eq!(baseline.violations(), Vec::<String>::new());
        let base_fp = baseline.fingerprint();
        for shards in 2..=8 {
            cfg.farm.shards = shards;
            let report = farm.run_chaos(&topology, &cfg);
            assert_eq!(report.fingerprint(), base_fp, "shards={shards}");
            assert_eq!(report.flags, baseline.flags, "shards={shards}");
            assert_eq!(report.digests, baseline.digests, "shards={shards}");
        }
        let mut other = cfg.clone();
        other.farm.seed = 8;
        other.plan = FailurePlan::none(8);
        assert_ne!(
            farm.run_chaos(&topology, &other).fingerprint(),
            base_fp,
            "different seed and plan must change the replay identity"
        );
    }

    #[test]
    fn failover_hedging_keeps_legit_service_and_answers_byte_identical() {
        let (topology, _, _, farm) = small_farm();
        let mut cfg = chaos_cfg(19, 6_000);
        let a1 = farm.letters[0].site_ids[1];
        let b0 = farm.letters[1].site_ids[0];
        cfg.plan.add(
            RootLetter::A,
            a1,
            crate::recovery::FailureKind::Crash,
            (500, 2_500),
        );
        cfg.plan.add(
            RootLetter::B,
            b0,
            crate::recovery::FailureKind::Blackhole,
            (800, 2_000),
        );
        let report = farm.run_chaos(&topology, &cfg);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert!(report.served_hedged > 0, "{}", report.render());
        assert!(
            report.legit_served_fraction() >= 0.99,
            "legit service under failover: {}",
            report.render()
        );
        assert!(
            report.steering_epochs > farm.letters.len(),
            "dead sites must cut steering epochs"
        );
        assert_eq!(report.recoveries.len(), 1, "one crash incident");
        assert!(report.recoveries[0].converged(), "{:?}", report.recoveries);
        // Every delivered answer matches the fault-free twin byte for
        // byte.
        let twin = farm.run_chaos(&topology, &cfg.twin());
        assert_eq!(report.diff_twin(&twin), Vec::<u64>::new());
    }

    #[test]
    fn overload_shedding_drops_junk_before_benign() {
        let (topology, _, _, farm) = small_farm();
        let mut cfg = chaos_cfg(23, 6_000);
        cfg.floods.push(FloodWindow {
            start_ms: 0,
            end_ms: 4_000,
            amplification: 6.0,
        });
        let report = farm.run_chaos(&topology, &cfg);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert!(report.shed_junk > 0, "flood must trigger shedding");
        assert_eq!(
            report.shed_benign, 0,
            "junk absorbs the whole excess at this amplification"
        );
        assert_eq!(
            report.legit_served_fraction(),
            1.0,
            "benign traffic rides out the flood untouched"
        );
    }

    #[test]
    fn chaos_poisoned_reload_is_rejected_and_generation_holds() {
        let (topology, _, _, farm) = small_farm();
        let mut cfg = chaos_cfg(29, 2_000);
        cfg.plan.add_poisoned_reload(RootLetter::B, 700);
        let report = farm.run_chaos(&topology, &cfg);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert_eq!(report.reloads_rejected, 1);
        assert_eq!(report.reloads_accepted, 0);
        assert_eq!(farm.generation(RootLetter::B), Some(0));
    }
}
