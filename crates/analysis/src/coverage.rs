//! Site coverage (§4.2): match observed instance identifiers back to the
//! catalog and report, per letter, how many global/local sites the vantage
//! points observed — worldwide (Table 1) and per region (Table 4); the
//! per-site observed/unobserved lists back Figures 1 and 11.

use netgeo::Region;
use netsim::anycast::{SiteId, SiteScope};
use rss::catalog::RootCatalog;
use rss::RootLetter;
use std::collections::HashSet;
use vantage::records::ProbeRecord;

/// One row of coverage counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageRow {
    pub global_sites: u32,
    pub global_covered: u32,
    pub local_sites: u32,
    pub local_covered: u32,
}

impl CoverageRow {
    /// Total sites.
    pub fn total_sites(&self) -> u32 {
        self.global_sites + self.local_sites
    }

    /// Total covered.
    pub fn total_covered(&self) -> u32 {
        self.global_covered + self.local_covered
    }

    /// Coverage percentage for globals, `None` when no global sites.
    pub fn global_pct(&self) -> Option<f64> {
        pct(self.global_covered, self.global_sites)
    }

    /// Coverage percentage for locals.
    pub fn local_pct(&self) -> Option<f64> {
        pct(self.local_covered, self.local_sites)
    }

    /// Coverage percentage overall.
    pub fn total_pct(&self) -> Option<f64> {
        pct(self.total_covered(), self.total_sites())
    }
}

fn pct(cov: u32, total: u32) -> Option<f64> {
    if total == 0 {
        None
    } else {
        Some(cov as f64 * 100.0 / total as f64)
    }
}

/// Full coverage report: worldwide and per region, plus identifier-mapping
/// statistics and per-site observation flags.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Worldwide rows, indexed by letter.
    pub worldwide: [CoverageRow; 13],
    /// Per-region rows `[region][letter]`.
    pub per_region: [[CoverageRow; 13]; 6],
    /// Identifiers observed in total.
    pub observed_identifiers: usize,
    /// Identifiers that mapped to a catalog site.
    pub mapped_identifiers: usize,
    /// Observed flags per (letter, site id) — Figure 1/11 raw data.
    pub observed_sites: HashSet<(RootLetter, SiteId)>,
}

impl CoverageReport {
    /// Match every probe's observed identity against the catalog.
    pub fn compute(catalog: &RootCatalog, probes: &[ProbeRecord]) -> CoverageReport {
        let mut distinct_ids: HashSet<(RootLetter, &str)> = HashSet::new();
        let mut observed_sites: HashSet<(RootLetter, SiteId)> = HashSet::new();
        // Collect distinct (letter, identifier) pairs first — mapping work
        // is per distinct identifier, as in the paper (1,604 observed ids).
        // The probe knows the true site; coverage "via identifier" is what
        // the paper measures, so only mapped identifiers count. A site
        // answers with one identifier, so a per-(letter, site) memo of the
        // last one seen spares the set all but each site's first probe; the
        // set borrows the probes' identifiers instead of copying them.
        let mut last: Vec<Vec<Option<&str>>> = RootLetter::ALL
            .iter()
            .map(|&l| vec![None; catalog.deployment(l).sites.len()])
            .collect();
        for p in probes {
            let Some(id) = p.identity.as_deref() else {
                continue;
            };
            let memo = p
                .site
                .and_then(|site| last[p.target.letter.index()].get_mut(site.0 as usize));
            if let Some(memo) = memo {
                if *memo == Some(id) {
                    continue;
                }
                *memo = Some(id);
            }
            distinct_ids.insert((p.target.letter, id));
        }
        let mut mapped = 0;
        for (letter, id) in &distinct_ids {
            if let Some(site) = catalog.map_identifier(*letter, id) {
                mapped += 1;
                observed_sites.insert((*letter, site.site_id));
                // IATA-fallback letters are metro-granular: mark every site
                // of the letter in that metro observed (indistinguishable).
                if !letter.identifiers_mappable() {
                    for s in catalog.sites_of(*letter) {
                        if s.iata == site.iata {
                            observed_sites.insert((*letter, s.site_id));
                        }
                    }
                }
            }
        }

        let mut worldwide = [CoverageRow::default(); 13];
        let mut per_region = [[CoverageRow::default(); 13]; 6];
        for site in &catalog.sites {
            let li = site.letter.index();
            let ri = site.region.index();
            let covered = observed_sites.contains(&(site.letter, site.site_id));
            let (w, r) = (&mut worldwide[li], &mut per_region[ri][li]);
            match site.scope {
                SiteScope::Global => {
                    w.global_sites += 1;
                    r.global_sites += 1;
                    if covered {
                        w.global_covered += 1;
                        r.global_covered += 1;
                    }
                }
                SiteScope::Local => {
                    w.local_sites += 1;
                    r.local_sites += 1;
                    if covered {
                        w.local_covered += 1;
                        r.local_covered += 1;
                    }
                }
            }
        }
        CoverageReport {
            worldwide,
            per_region,
            observed_identifiers: distinct_ids.len(),
            mapped_identifiers: mapped,
            observed_sites,
        }
    }

    /// Render the Table 1 equivalent (worldwide coverage).
    pub fn render_table1(&self) -> String {
        let mut out = String::from(
            "Table 1: Coverage of root sites (worldwide)\n\
             Root | Glob# Cov %Cov | Loc# Cov %Cov | Tot# Cov %Cov\n",
        );
        for letter in RootLetter::ALL {
            let row = &self.worldwide[letter.index()];
            out.push_str(&format!(
                "  {}  | {:4} {:4} {} | {:4} {:4} {} | {:4} {:4} {}\n",
                letter.ch(),
                row.global_sites,
                row.global_covered,
                fmt_pct(row.global_pct()),
                row.local_sites,
                row.local_covered,
                fmt_pct(row.local_pct()),
                row.total_sites(),
                row.total_covered(),
                fmt_pct(row.total_pct()),
            ));
        }
        out.push_str(&format!(
            "identifiers observed: {}, mapped: {}\n",
            self.observed_identifiers, self.mapped_identifiers
        ));
        out
    }

    /// Render the Table 4 equivalent (per-region coverage).
    pub fn render_table4(&self) -> String {
        let mut out = String::from("Table 4: Coverage of root sites per region\n");
        for region in Region::ALL {
            out.push_str(&format!("-- {region} --\n"));
            for letter in RootLetter::ALL {
                let row = &self.per_region[region.index()][letter.index()];
                if row.total_sites() == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "  {} | global {:3}/{:3} {} | local {:3}/{:3} {}\n",
                    letter.ch(),
                    row.global_covered,
                    row.global_sites,
                    fmt_pct(row.global_pct()),
                    row.local_covered,
                    row.local_sites,
                    fmt_pct(row.local_pct()),
                ));
            }
        }
        out
    }

    /// Figure 1b / Figure 11 data: per-site (city, scope, observed) rows
    /// for one letter.
    pub fn site_map(&self, catalog: &RootCatalog, letter: RootLetter) -> Vec<SiteMapEntry> {
        catalog
            .sites_of(letter)
            .map(|s| SiteMapEntry {
                city: s.city.name,
                region: s.region,
                scope: s.scope,
                observed: self.observed_sites.contains(&(letter, s.site_id)),
            })
            .collect()
    }
}

/// One dot on the Figure 1/11 coverage maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteMapEntry {
    pub city: &'static str,
    pub region: Region,
    pub scope: SiteScope,
    pub observed: bool,
}

fn fmt_pct(p: Option<f64>) -> String {
    match p {
        Some(v) => format!("{v:5.1}%"),
        None => "    -".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage::{
        MeasurementConfig, MeasurementEngine, Schedule, VecSink, World, WorldBuildConfig,
    };

    fn run_small() -> (World, Vec<ProbeRecord>) {
        let world = World::build(&WorldBuildConfig::tiny());
        let cfg = MeasurementConfig {
            schedule: Schedule::subsampled(100),
            ..Default::default()
        };
        let engine = MeasurementEngine::new(&world, cfg);
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        (world, sink.probes)
    }

    #[test]
    fn coverage_counts_are_consistent() {
        let (world, probes) = run_small();
        let report = CoverageReport::compute(&world.catalog, &probes);
        for letter in RootLetter::ALL {
            let row = &report.worldwide[letter.index()];
            assert!(row.global_covered <= row.global_sites, "{letter}");
            assert!(row.local_covered <= row.local_sites, "{letter}");
            // Region rows sum to worldwide.
            let mut sum = CoverageRow::default();
            for region in Region::ALL {
                let r = &report.per_region[region.index()][letter.index()];
                sum.global_sites += r.global_sites;
                sum.global_covered += r.global_covered;
                sum.local_sites += r.local_sites;
                sum.local_covered += r.local_covered;
            }
            assert_eq!(sum, *row, "{letter}");
        }
    }

    #[test]
    fn some_sites_observed_and_some_not() {
        let (world, probes) = run_small();
        let report = CoverageReport::compute(&world.catalog, &probes);
        let covered: u32 = report.worldwide.iter().map(|r| r.total_covered()).sum();
        let total: u32 = report.worldwide.iter().map(|r| r.total_sites()).sum();
        assert!(covered > 0, "nothing covered");
        assert!(
            covered < total,
            "everything covered — local sites should hide"
        );
    }

    #[test]
    fn global_coverage_beats_local() {
        // The paper's headline: good global coverage, partial local.
        let (world, probes) = run_small();
        let report = CoverageReport::compute(&world.catalog, &probes);
        let mut g_cov = 0u32;
        let mut g_tot = 0u32;
        let mut l_cov = 0u32;
        let mut l_tot = 0u32;
        for row in &report.worldwide {
            g_cov += row.global_covered;
            g_tot += row.global_sites;
            l_cov += row.local_covered;
            l_tot += row.local_sites;
        }
        let g = g_cov as f64 / g_tot as f64;
        let l = l_cov as f64 / l_tot.max(1) as f64;
        assert!(g > l, "global {g:.2} should exceed local {l:.2}");
    }

    #[test]
    fn renderers_produce_all_letters() {
        let (world, probes) = run_small();
        let report = CoverageReport::compute(&world.catalog, &probes);
        let t1 = report.render_table1();
        for l in RootLetter::ALL {
            assert!(t1.contains(&format!("  {}  |", l.ch())), "missing {l}");
        }
        let t4 = report.render_table4();
        assert!(t4.contains("Europe"));
    }

    #[test]
    fn site_map_lists_every_site() {
        let (world, probes) = run_small();
        let report = CoverageReport::compute(&world.catalog, &probes);
        for letter in RootLetter::ALL {
            let map = report.site_map(&world.catalog, letter);
            assert_eq!(map.len(), world.catalog.sites_of(letter).count());
        }
    }

    #[test]
    fn site_memo_counts_every_distinct_identifier() {
        // Streams the engine never emits: unshared allocations, a site
        // whose identifier alternates, identifiers without a site.
        let (world, mut probes) = run_small();
        probes.reverse();
        for (i, p) in probes.iter_mut().enumerate() {
            if let Some(id) = &p.identity {
                p.identity = Some(match i % 3 {
                    0 => std::sync::Arc::from(format!("{id}")),
                    1 => std::sync::Arc::from(format!("x{i}")),
                    _ => continue,
                });
            }
            if i % 7 == 0 {
                p.site = None;
            }
        }
        let distinct: HashSet<(RootLetter, &str)> = probes
            .iter()
            .filter_map(|p| Some((p.target.letter, p.identity.as_deref()?)))
            .collect();
        let report = CoverageReport::compute(&world.catalog, &probes);
        assert_eq!(report.observed_identifiers, distinct.len());
        let mapped = distinct
            .iter()
            .filter(|(l, id)| world.catalog.map_identifier(*l, id).is_some())
            .count();
        assert_eq!(report.mapped_identifiers, mapped);
    }

    #[test]
    fn empty_probes_zero_coverage() {
        let world = World::build(&WorldBuildConfig::tiny());
        let report = CoverageReport::compute(&world.catalog, &[]);
        assert_eq!(report.observed_identifiers, 0);
        for row in &report.worldwide {
            assert_eq!(row.total_covered(), 0);
        }
    }
}
