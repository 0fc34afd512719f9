//! Root site catalog and world builder.
//!
//! [`SiteCounts`] encodes the per-region global/local site counts for every
//! letter, as reported by root-servers.org and reproduced in the paper's
//! Table 4 ("# Sites" rows). [`RootCatalog::build`] turns those counts into
//! concrete sites placed at shared colocation facilities — sharing is what
//! produces the §5 co-location signal — and registers hosting ASes and
//! anycast deployments into a `netsim` topology.

use crate::letters::{BRootPhase, RootLetter};
use netgeo::{City, CityDb, Region};
use netsim::anycast::{Deployment, FacilityId, FacilityTable, Site, SiteId, SiteScope};
use netsim::{AsId, Relation, SimRng, Tier, Topology};
use serde::{Deserialize, Serialize};

/// Global/local site counts for one letter in one region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteCounts {
    pub global: u32,
    pub local: u32,
}

impl SiteCounts {
    /// Total sites.
    pub fn total(self) -> u32 {
        self.global + self.local
    }
}

/// Per-region ground truth for all letters, Table 4 order
/// (Africa, Asia, Europe, North America, South America, Oceania).
///
/// Row source: the paper's Table 4 "# Sites" data (global, local).
pub fn ground_truth(letter: RootLetter, region: Region) -> SiteCounts {
    use RootLetter::*;
    let (global, local) = match (letter, region) {
        (A, Region::Africa) => (0, 0),
        (A, Region::Asia) => (6, 2),
        (A, Region::Europe) => (12, 7),
        (A, Region::NorthAmerica) => (13, 14),
        (A, Region::SouthAmerica) => (0, 0),
        (A, Region::Oceania) => (2, 0),

        (B, Region::Africa) => (0, 0),
        (B, Region::Asia) => (1, 0),
        (B, Region::Europe) => (1, 0),
        (B, Region::NorthAmerica) => (3, 0),
        (B, Region::SouthAmerica) => (1, 0),
        (B, Region::Oceania) => (0, 0),

        (C, Region::Africa) => (0, 0),
        (C, Region::Asia) => (2, 0),
        (C, Region::Europe) => (4, 0),
        (C, Region::NorthAmerica) => (5, 0),
        (C, Region::SouthAmerica) => (1, 0),
        (C, Region::Oceania) => (0, 0),

        (D, Region::Africa) => (0, 42),
        (D, Region::Asia) => (2, 39),
        (D, Region::Europe) => (9, 39),
        (D, Region::NorthAmerica) => (12, 49),
        (D, Region::SouthAmerica) => (0, 12),
        (D, Region::Oceania) => (0, 5),

        (E, Region::Africa) => (0, 43),
        (E, Region::Asia) => (8, 34),
        (E, Region::Europe) => (33, 22),
        (E, Region::NorthAmerica) => (45, 30),
        (E, Region::SouthAmerica) => (5, 13),
        (E, Region::Oceania) => (6, 5),

        (F, Region::Africa) => (3, 25),
        (F, Region::Asia) => (13, 84),
        (F, Region::Europe) => (46, 26),
        (F, Region::NorthAmerica) => (54, 34),
        (F, Region::SouthAmerica) => (4, 40),
        (F, Region::Oceania) => (9, 7),

        (G, Region::Africa) => (0, 0),
        (G, Region::Asia) => (1, 0),
        (G, Region::Europe) => (2, 0),
        (G, Region::NorthAmerica) => (3, 0),
        (G, Region::SouthAmerica) => (0, 0),
        (G, Region::Oceania) => (0, 0),

        (H, Region::Africa) => (1, 0),
        (H, Region::Asia) => (3, 0),
        (H, Region::Europe) => (2, 0),
        (H, Region::NorthAmerica) => (4, 0),
        (H, Region::SouthAmerica) => (1, 0),
        (H, Region::Oceania) => (1, 0),

        (I, Region::Africa) => (3, 0),
        (I, Region::Asia) => (24, 0),
        (I, Region::Europe) => (25, 0),
        (I, Region::NorthAmerica) => (16, 0),
        (I, Region::SouthAmerica) => (10, 0),
        (I, Region::Oceania) => (3, 0),

        (J, Region::Africa) => (0, 8),
        (J, Region::Asia) => (16, 11),
        (J, Region::Europe) => (18, 34),
        (J, Region::NorthAmerica) => (20, 24),
        (J, Region::SouthAmerica) => (4, 6),
        (J, Region::Oceania) => (3, 2),

        (K, Region::Africa) => (2, 0),
        (K, Region::Asia) => (34, 9),
        (K, Region::Europe) => (44, 2),
        (K, Region::NorthAmerica) => (17, 0),
        (K, Region::SouthAmerica) => (6, 0),
        (K, Region::Oceania) => (2, 0),

        (L, Region::Africa) => (11, 0),
        (L, Region::Asia) => (25, 0),
        (L, Region::Europe) => (33, 0),
        (L, Region::NorthAmerica) => (22, 0),
        (L, Region::SouthAmerica) => (23, 0),
        (L, Region::Oceania) => (18, 0),

        (M, Region::Africa) => (0, 0),
        (M, Region::Asia) => (5, 7),
        (M, Region::Europe) => (1, 0),
        (M, Region::NorthAmerica) => (1, 0),
        (M, Region::SouthAmerica) => (0, 0),
        (M, Region::Oceania) => (0, 2),
    };
    SiteCounts { global, local }
}

/// Worldwide counts (sum over regions).
pub fn worldwide(letter: RootLetter) -> SiteCounts {
    let mut total = SiteCounts::default();
    for region in Region::ALL {
        let c = ground_truth(letter, region);
        total.global += c.global;
        total.local += c.local;
    }
    total
}

/// One concrete root site in the built world.
#[derive(Debug, Clone)]
pub struct RootSite {
    pub letter: RootLetter,
    pub site_id: SiteId,
    pub facility: FacilityId,
    pub scope: SiteScope,
    pub region: Region,
    /// City hosting the facility.
    pub city: &'static City,
    /// The instance identifier the site reports via `hostname.bind` /
    /// `id.server`. `None` models letters/instances that report nothing
    /// mappable (the paper's 135 unmapped identifiers).
    pub instance_id: Option<String>,
    /// The IATA code embedded in the node hostname — the paper's fallback
    /// for `{a,c,j,e}`.root (makes same-metro instances indistinguishable).
    pub iata: &'static str,
}

/// World-building parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Scale factor applied to all site counts (1.0 = paper's full RSS;
    /// smaller worlds run faster in tests).
    pub site_scale: f64,
    /// Maximum facilities per city; letters landing on the same facility
    /// are co-located.
    pub facilities_per_city: u8,
    /// Probability that a site is placed at its region's *hub IXP*
    /// facility. Root operators concentrate at the big exchanges — that is
    /// what produces clients seeing up to 12 letters behind one last hop
    /// (§5) while typical VPs see only a few.
    pub hub_probability: f64,
    /// Fraction of mappable instances that nonetheless report an identifier
    /// the catalog cannot map (the paper: 135/1604 unmapped).
    pub unmappable_fraction: f64,
    /// Seed for placement decisions.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            site_scale: 1.0,
            facilities_per_city: 14,
            hub_probability: 0.10,
            unmappable_fraction: 0.08,
            seed: DEFAULT_SEED,
        }
    }
}

/// The hub-IXP city per region (the region's dominant exchange).
fn hub_city(region: Region) -> &'static City {
    let name = match region {
        Region::Africa => "johannesburg",
        Region::Asia => "singapore",
        Region::Europe => "frankfurt",
        Region::NorthAmerica => "ashburn",
        Region::SouthAmerica => "saopaulo",
        Region::Oceania => "sydney",
    };
    CityDb::by_name(name).expect("hub city exists")
}

/// "2023-07-03", the measurement start, as a seed constant.
const DEFAULT_SEED: u64 = 0x2023_0703;

/// The built root server system.
#[derive(Debug, Clone)]
pub struct RootCatalog {
    /// All sites, all letters.
    pub sites: Vec<RootSite>,
    /// One deployment per letter (b.root's old and new addresses share the
    /// same physical deployment, as they did in reality).
    pub deployments: Vec<Deployment>,
    /// Shared facility table.
    pub facilities: FacilityTable,
    /// Index into `sites` of each letter's first row: rows are pushed
    /// letter by letter with sequential site ids, so `(letter, site)` sits
    /// at `letter_start[letter] + site`.
    letter_start: [usize; 13],
}

impl RootCatalog {
    /// Build the catalog into `topology`, adding facility host ASes and
    /// registering anycast origins.
    pub fn build(topology: &mut Topology, cfg: &WorldConfig) -> Self {
        let mut rng = SimRng::new(cfg.seed).derive("catalog");
        let mut facilities = FacilityTable::new();
        let mut facility_host: Vec<AsId> = Vec::new();
        let mut sites: Vec<RootSite> = Vec::new();
        let mut deployments: Vec<Deployment> = Vec::new();
        let mut letter_start = [0usize; 13];

        // Pre-create facility host ASes lazily, keyed by (city, index).
        let get_facility = |topology: &mut Topology,
                            facilities: &mut FacilityTable,
                            facility_host: &mut Vec<AsId>,
                            rng: &mut SimRng,
                            city: &'static City,
                            index: u8|
         -> FacilityId {
            if let Some(id) = facilities.find(city, index) {
                return id;
            }
            // The facility operator AS: a colo/IXP network homed in the
            // city, customer of two regional tier-2s, peering with several.
            let host = topology.add_as(
                format!("colo-{}-{}", city.iata, index),
                Tier::Tier2,
                city,
                true,
            );
            let regional: Vec<AsId> = topology
                .nodes()
                .iter()
                .filter(|n| n.tier == Tier::Tier2 && n.region == city.region && n.id != host)
                .map(|n| n.id)
                .collect();
            if !regional.is_empty() {
                let p1 = *rng.pick(&regional);
                topology.add_link(host, p1, Relation::Provider, true, true);
                let p2 = *rng.pick(&regional);
                if p2 != p1 {
                    topology.add_link(host, p2, Relation::Provider, true, true);
                }
                // IXP-style peering with a handful of regional networks.
                for _ in 0..4 {
                    let peer = *rng.pick(&regional);
                    if peer != p1 && peer != p2 {
                        topology.add_link(host, peer, Relation::Peer, true, true);
                    }
                }
            } else {
                // Degenerate tiny topology: hook to any tier-1.
                let t1 = topology
                    .nodes()
                    .iter()
                    .find(|n| n.tier == Tier::Tier1)
                    .map(|n| n.id)
                    .expect("topology has a tier-1");
                topology.add_link(host, t1, Relation::Provider, true, true);
            }
            let id = facilities.add(city, index, host);
            facility_host.push(host);
            id
        };

        for letter in RootLetter::ALL {
            letter_start[letter.index()] = sites.len();
            let mut letter_sites: Vec<Site> = Vec::new();
            for region in Region::ALL {
                let counts = ground_truth(letter, region);
                let cities: Vec<&'static City> = CityDb::in_region(region).collect();
                let scaled = |n: u32| -> u32 {
                    if n == 0 {
                        0
                    } else {
                        ((n as f64 * cfg.site_scale).round() as u32).max(1)
                    }
                };
                for (scope, count) in [
                    (SiteScope::Global, scaled(counts.global)),
                    (SiteScope::Local, scaled(counts.local)),
                ] {
                    for k in 0..count {
                        // Placement: the regional hub IXP with probability
                        // `hub_probability` (all letters pile up there —
                        // the §5 co-location hot spots), otherwise a random
                        // city facility. The paper's two stale d.root sites
                        // (Tokyo and Leeds, Table 2) are pinned so the
                        // fault-injection windows always have a target.
                        let pinned = if letter == RootLetter::D && k == 0 {
                            match region {
                                Region::Asia => CityDb::by_name("tokyo"),
                                Region::Europe => CityDb::by_name("leeds"),
                                _ => None,
                            }
                        } else {
                            None
                        };
                        let (city, index) = if let Some(city) = pinned {
                            (city, 0u8)
                        } else if rng.chance(cfg.hub_probability) {
                            (hub_city(region), 0u8)
                        } else {
                            (
                                cities[rng.next_range(cities.len())],
                                biased_facility_index(rng.next_f64(), cfg.facilities_per_city),
                            )
                        };
                        let fac = get_facility(
                            topology,
                            &mut facilities,
                            &mut facility_host,
                            &mut rng,
                            city,
                            index,
                        );
                        let host_as = facilities.get(fac).host_as;
                        let site_id = SiteId(letter_sites.len() as u32);
                        let stem = format!("{}{}{}", city.iata, index + 1, letter.ch());
                        // The operator announces from its own AS at the
                        // facility: customer of the colo fabric plus 1-2
                        // independently chosen regional transits. Different
                        // letters at the same facility thus have distinct
                        // upstreams and decorrelated catchments — what
                        // keeps co-location prevalent-but-partial (§5)
                        // instead of total.
                        let origin_as = topology.add_as(
                            format!("op-{}-{}", letter.ch(), stem),
                            Tier::Stub,
                            city,
                            true,
                        );
                        topology.add_link(origin_as, host_as, Relation::Provider, true, true);
                        let regional: Vec<AsId> = topology
                            .nodes()
                            .iter()
                            .filter(|n| {
                                n.tier == Tier::Tier2 && n.region == city.region && n.id != host_as
                            })
                            .map(|n| n.id)
                            .collect();
                        if !regional.is_empty() {
                            let extra = 1 + rng.next_range(2);
                            for _ in 0..extra {
                                let p = *rng.pick(&regional);
                                topology.add_link(origin_as, p, Relation::Provider, true, true);
                            }
                        }
                        letter_sites.push(Site {
                            id: site_id,
                            facility: fac,
                            scope,
                            origin_as,
                            instance_stem: stem.clone(),
                        });
                        // Mappable letters publish an identifier for most
                        // sites; a small fraction stays unmappable (part of
                        // the paper's 135 unmapped identifiers).
                        let instance_id = if letter.identifiers_mappable()
                            && !rng.chance(cfg.unmappable_fraction * 0.4)
                        {
                            Some(instance_identifier(letter, city.iata, index, k))
                        } else {
                            None
                        };
                        sites.push(RootSite {
                            letter,
                            site_id,
                            facility: fac,
                            scope,
                            region,
                            city,
                            instance_id,
                            iata: city.iata,
                        });
                    }
                }
            }
            deployments.push(Deployment {
                name: letter.host_name(),
                sites: letter_sites,
            });
        }

        RootCatalog {
            sites,
            deployments,
            facilities,
            letter_start,
        }
    }

    /// The deployment for `letter`.
    pub fn deployment(&self, letter: RootLetter) -> &Deployment {
        &self.deployments[letter.index()]
    }

    /// Catalog rows for `letter`.
    pub fn sites_of(&self, letter: RootLetter) -> impl Iterator<Item = &RootSite> {
        self.sites.iter().filter(move |s| s.letter == letter)
    }

    /// Look up the catalog row for a (letter, site) pair.
    pub fn site(&self, letter: RootLetter, site: SiteId) -> &RootSite {
        &self.sites[self.site_index(letter, site)]
    }

    /// Position of the (letter, site) row in [`sites`](Self::sites): the
    /// per-letter offset guess is O(1) and verified, with a scan as the
    /// fallback (as [`Deployment::site`] does for its own roster).
    pub fn site_index(&self, letter: RootLetter, site: SiteId) -> usize {
        let guess = self.letter_start[letter.index()] + site.0 as usize;
        match self.sites.get(guess) {
            Some(s) if s.letter == letter && s.site_id == site => guess,
            _ => self
                .sites
                .iter()
                .position(|s| s.letter == letter && s.site_id == site)
                .expect("site exists in catalog"),
        }
    }

    /// Try to map an observed identifier (a `hostname.bind` answer) back to
    /// a site of `letter` — the §4.2 coverage-matching step. For letters
    /// without mappable identifiers, falls back to the IATA code, returning
    /// the *first* site in that metro (indistinguishability, as the paper
    /// notes).
    pub fn map_identifier(&self, letter: RootLetter, observed: &str) -> Option<&RootSite> {
        // Exact identifier match first.
        if let Some(site) = self
            .sites
            .iter()
            .find(|s| s.letter == letter && s.instance_id.as_deref() == Some(observed))
        {
            return Some(site);
        }
        // IATA fallback: find a 3-letter city code inside the identifier.
        let lowered = observed.to_ascii_lowercase();
        self.sites
            .iter()
            .filter(|s| s.letter == letter)
            .find(|s| lowered.contains(s.iata))
    }

    /// The b.root service address phase is a property of time, not of the
    /// deployment — physical sites stayed put across the renumbering.
    pub fn b_root_phase_at(&self, now: u32) -> BRootPhase {
        crate::letters::Renumbering::B_ROOT.phase_at(now)
    }
}

/// Skew facility choice toward index 0 (the bigger colo in town).
fn biased_facility_index(u: f64, max: u8) -> u8 {
    // P(0) ≈ 0.3, remainder split over the rest.
    if u < 0.3 || max <= 1 {
        0
    } else {
        1 + ((u - 0.3) / 0.7 * (max as f64 - 1.0)) as u8
    }
}

/// Per-operator identifier conventions (shapes modelled on public reality).
fn instance_identifier(letter: RootLetter, iata: &str, fac_index: u8, k: u32) -> String {
    match letter {
        RootLetter::B => format!("b{}-{}", fac_index + 1, iata),
        RootLetter::D => format!("{}{}.droot.maxgigapop.net", iata, k + 1),
        RootLetter::F => format!(
            "{}{}{}.f.root-servers.org",
            iata,
            fac_index + 1,
            (b'a' + (k % 3) as u8) as char
        ),
        RootLetter::G => format!("grootns-{}{}", iata, fac_index + 1),
        RootLetter::H => format!("{:03}.{}.h.root-servers.org", k + 1, iata),
        RootLetter::I => format!("s1.{}{}", iata, k + 1),
        RootLetter::K => format!("ns{}.{}.k.ripe.net", k + 1, iata),
        RootLetter::L => format!("{}{}.l.root-servers.org", iata, fac_index as u32 + k + 1),
        RootLetter::M => format!("m-{}{}", iata, k + 1),
        // {a,c,j,e} never reach here (not mappable).
        _ => format!("{}-{}{}", letter.ch(), iata, k + 1),
    }
}

/// The default seed constant is referenced by `WorldConfig::default`; the
/// odd literal above documents intent ("roots 2023-07-01").
pub const WORLD_SEED: u64 = DEFAULT_SEED;

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::TopologyConfig;

    fn built() -> (Topology, RootCatalog) {
        let mut t = Topology::generate(&TopologyConfig::default());
        let cat = RootCatalog::build(
            &mut t,
            &WorldConfig {
                site_scale: 1.0,
                ..Default::default()
            },
        );
        (t, cat)
    }

    #[test]
    fn ground_truth_matches_table1_scale() {
        // Worldwide sums must be near the paper's Table 1 (exact for the
        // letters whose Table 4 rows are unambiguous).
        assert_eq!(worldwide(RootLetter::B).total(), 6);
        assert_eq!(worldwide(RootLetter::C).total(), 12);
        assert_eq!(worldwide(RootLetter::G).total(), 6);
        assert_eq!(worldwide(RootLetter::H).total(), 12);
        assert_eq!(worldwide(RootLetter::I).total(), 81);
        assert_eq!(worldwide(RootLetter::L).total(), 132);
        assert_eq!(worldwide(RootLetter::F).global, 129);
        assert_eq!(worldwide(RootLetter::F).local, 216);
        assert_eq!(worldwide(RootLetter::K).global, 105);
        assert_eq!(worldwide(RootLetter::K).local, 11);
        assert_eq!(worldwide(RootLetter::M).local, 9);
    }

    #[test]
    fn no_local_site_letters() {
        for l in [
            RootLetter::B,
            RootLetter::C,
            RootLetter::G,
            RootLetter::H,
            RootLetter::I,
            RootLetter::L,
        ] {
            assert_eq!(worldwide(l).local, 0, "{l}");
        }
    }

    #[test]
    fn build_produces_all_letters() {
        let (_, cat) = built();
        assert_eq!(cat.deployments.len(), 13);
        for l in RootLetter::ALL {
            let expected = worldwide(l).total() as usize;
            assert_eq!(cat.deployment(l).sites.len(), expected, "{l}");
            assert_eq!(cat.sites_of(l).count(), expected);
        }
    }

    #[test]
    fn facilities_are_shared_across_letters() {
        let (_, cat) = built();
        // Count letters per facility; some facility must host many.
        let mut per_fac: std::collections::HashMap<
            FacilityId,
            std::collections::HashSet<RootLetter>,
        > = std::collections::HashMap::new();
        for s in &cat.sites {
            per_fac.entry(s.facility).or_default().insert(s.letter);
        }
        let max_letters = per_fac.values().map(|s| s.len()).max().unwrap();
        assert!(max_letters >= 5, "max co-located letters: {max_letters}");
    }

    #[test]
    fn m_root_is_asia_pacific_focused() {
        let (_, cat) = built();
        let m_sites: Vec<&RootSite> = cat.sites_of(RootLetter::M).collect();
        let apac = m_sites
            .iter()
            .filter(|s| matches!(s.region, Region::Asia | Region::Oceania))
            .count();
        // Paper: only 2 sites outside Asia-Pacific.
        assert_eq!(m_sites.len() - apac, 2);
    }

    #[test]
    fn identifier_mapping_round_trips() {
        let (_, cat) = built();
        let mut mapped = 0;
        let mut total = 0;
        for s in &cat.sites {
            total += 1;
            if let Some(id) = &s.instance_id {
                let hit = cat.map_identifier(s.letter, id).expect("maps");
                assert_eq!(hit.letter, s.letter);
                mapped += 1;
            }
        }
        // Most identifiers map; some are unmappable (the paper: 135/1604).
        assert!(mapped as f64 / total as f64 > 0.5);
    }

    #[test]
    fn iata_fallback_maps_unmappable_letters() {
        let (_, cat) = built();
        let a_site = cat.sites_of(RootLetter::A).next().unwrap();
        let observed = format!("rootns-{}2", a_site.iata);
        let hit = cat
            .map_identifier(RootLetter::A, &observed)
            .expect("IATA fallback");
        assert_eq!(hit.iata, a_site.iata);
    }

    #[test]
    fn scaled_world_is_smaller() {
        let mut t = Topology::generate(&TopologyConfig::default());
        let cat = RootCatalog::build(
            &mut t,
            &WorldConfig {
                site_scale: 0.25,
                ..Default::default()
            },
        );
        let f_total = cat.deployment(RootLetter::F).sites.len();
        assert!(f_total < 120, "scaled f.root has {f_total} sites");
        // Every letter retains at least its regional presence.
        assert!(cat.deployment(RootLetter::B).sites.len() >= 4);
    }

    #[test]
    fn b_phase_flips_at_change_date() {
        let (_, cat) = built();
        assert_eq!(
            cat.b_root_phase_at(crate::letters::B_ROOT_CHANGE_DATE - 1),
            BRootPhase::Old
        );
        assert_eq!(
            cat.b_root_phase_at(crate::letters::B_ROOT_CHANGE_DATE),
            BRootPhase::New
        );
    }

    #[test]
    fn indexed_site_lookup_matches_scan() {
        let scan = |cat: &RootCatalog, letter: RootLetter, site: SiteId| {
            cat.sites
                .iter()
                .position(|s| s.letter == letter && s.site_id == site)
                .expect("row exists")
        };
        let (_, full) = built();
        let mut t = Topology::generate(&TopologyConfig::default());
        let mut tiny = RootCatalog::build(
            &mut t,
            &WorldConfig {
                site_scale: 0.2,
                ..Default::default()
            },
        );
        for cat in [&full, &tiny] {
            for row in &cat.sites {
                let at = scan(cat, row.letter, row.site_id);
                assert_eq!(cat.site_index(row.letter, row.site_id), at);
                assert!(std::ptr::eq(
                    cat.site(row.letter, row.site_id),
                    &cat.sites[at]
                ));
            }
        }
        // A roster edited after the build invalidates the offsets; the
        // verified guess falls back to the scan.
        tiny.sites.remove(0);
        for row in &tiny.sites {
            assert_eq!(
                tiny.site_index(row.letter, row.site_id),
                scan(&tiny, row.letter, row.site_id)
            );
        }
    }

    #[test]
    fn deterministic_build() {
        let (_, a) = built();
        let (_, b) = built();
        assert_eq!(a.sites.len(), b.sites.len());
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.city.name, y.city.name);
            assert_eq!(x.instance_id, y.instance_id);
            assert_eq!(x.facility, y.facility);
        }
    }
}
