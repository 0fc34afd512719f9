//! Distance inflation (§6, Figure 5): for each request, compare the
//! distance from the VP to the geographically closest *global* site of the
//! deployment with the distance to the site that actually answered.
//!
//! Requests routed to their closest global site fall on the diagonal;
//! requests at a closer local site fall below; requests routed to a more
//! distant instance fall above.

use netsim::anycast::SiteScope;
use netsim::Family;
use rss::catalog::RootCatalog;
use vantage::population::Population;
use vantage::records::{ProbeRecord, Target};

/// One Figure 5 point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistancePoint {
    /// Distance to the closest global site (km).
    pub closest_global_km: f64,
    /// Distance to the answering site (km).
    pub actual_km: f64,
}

impl DistancePoint {
    /// On/below the diagonal (within `slack_km`): the request reached its
    /// closest global site or something even closer (a local site).
    pub fn is_optimal(&self, slack_km: f64) -> bool {
        self.actual_km <= self.closest_global_km + slack_km
    }

    /// Extra distance over optimal (0 when below the diagonal).
    pub fn inflation_km(&self) -> f64 {
        (self.actual_km - self.closest_global_km).max(0.0)
    }
}

/// Distance analysis for one (target, family).
#[derive(Debug, Clone)]
pub struct DistanceResult {
    pub target: Target,
    pub family: Family,
    pub points: Vec<DistancePoint>,
    /// Per-VP mean inflation (the per-client view in §6).
    pub per_vp_inflation_km: Vec<f64>,
}

impl DistanceResult {
    /// Compute from the probe stream.
    pub fn compute(
        catalog: &RootCatalog,
        population: &Population,
        probes: &[ProbeRecord],
        target: Target,
        family: Family,
    ) -> DistanceResult {
        let letter = target.letter;
        // Pre-compute global site coordinates for the letter.
        let globals: Vec<netgeo::Coord> = catalog
            .sites_of(letter)
            .filter(|s| s.scope == SiteScope::Global)
            .map(|s| s.city.coord)
            .collect();
        // The closest global site depends only on the VP: computed on its
        // first matching probe, then reused.
        let mut closest_of: Vec<Option<f64>> = vec![None; population.len()];
        let mut points = Vec::new();
        let mut per_vp: std::collections::HashMap<vantage::population::VpId, (f64, u32)> =
            std::collections::HashMap::new();
        for p in probes {
            if p.target != target || p.family != family {
                continue;
            }
            let Some(site) = p.site else { continue };
            let vp = population.get(p.vp);
            let closest = *closest_of[p.vp.0 as usize].get_or_insert_with(|| {
                globals
                    .iter()
                    .map(|c| vp.coord.distance_km(c))
                    .fold(f64::INFINITY, f64::min)
            });
            if !closest.is_finite() {
                continue;
            }
            let row = catalog.site(letter, site);
            let actual = vp.coord.distance_km(&row.city.coord);
            let pt = DistancePoint {
                closest_global_km: closest,
                actual_km: actual,
            };
            points.push(pt);
            let e = per_vp.entry(p.vp).or_insert((0.0, 0));
            e.0 += pt.inflation_km();
            e.1 += 1;
        }
        let per_vp_inflation_km = per_vp.values().map(|(sum, n)| sum / *n as f64).collect();
        DistanceResult {
            target,
            family,
            points,
            per_vp_inflation_km,
        }
    }

    /// Fraction of requests on/below the diagonal (closest global or
    /// closer local). Paper: 78–82% for b/m.root.
    pub fn optimal_fraction(&self, slack_km: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let hits = self
            .points
            .iter()
            .filter(|p| p.is_optimal(slack_km))
            .count();
        hits as f64 / self.points.len() as f64
    }

    /// Fraction of *clients* whose mean extra distance is below `km`.
    /// Paper: 79.5% of b.root clients under 1,000 km.
    pub fn clients_below_inflation(&self, km: f64) -> f64 {
        if self.per_vp_inflation_km.is_empty() {
            return 0.0;
        }
        let hits = self.per_vp_inflation_km.iter().filter(|&&v| v < km).count();
        hits as f64 / self.per_vp_inflation_km.len() as f64
    }

    /// Maximum inflation observed (paper: tails up to ~15,000 km).
    pub fn max_inflation_km(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.inflation_km())
            .fold(0.0, f64::max)
    }

    /// Render one Figure 5 panel.
    pub fn render(&self) -> String {
        format!(
            "Figure 5 [{} {}]: {} requests | optimal(<=100km slack): {:.1}% | \
             clients <1000km extra: {:.1}% | max inflation: {:.0} km\n",
            self.target.label(),
            self.family.label(),
            self.points.len(),
            self.optimal_fraction(100.0) * 100.0,
            self.clients_below_inflation(1000.0) * 100.0,
            self.max_inflation_km()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rss::{BRootPhase, RootLetter};
    use vantage::{
        MeasurementConfig, MeasurementEngine, Schedule, VecSink, World, WorldBuildConfig,
    };

    fn run() -> (World, Vec<ProbeRecord>) {
        let world = World::build(&WorldBuildConfig::tiny());
        let engine = MeasurementEngine::new(
            &world,
            MeasurementConfig {
                schedule: Schedule::subsampled(150),
                ..Default::default()
            },
        );
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        (world, sink.probes)
    }

    fn target(letter: RootLetter) -> Target {
        Target {
            letter,
            b_phase: BRootPhase::Old,
        }
    }

    #[test]
    fn produces_points_for_measured_targets() {
        let (world, probes) = run();
        for letter in [RootLetter::B, RootLetter::M] {
            for family in Family::BOTH {
                let r = DistanceResult::compute(
                    &world.catalog,
                    &world.population,
                    &probes,
                    target(letter),
                    family,
                );
                assert!(!r.points.is_empty(), "{letter} {family}");
            }
        }
    }

    #[test]
    fn majority_of_requests_near_optimal() {
        // Shape target (Figure 5): for the sparse deployments the paper
        // plots (b.root, m.root), ~80% of requests land on/below the
        // diagonal.
        let (world, probes) = run();
        for letter in [RootLetter::B, RootLetter::M] {
            let r = DistanceResult::compute(
                &world.catalog,
                &world.population,
                &probes,
                target(letter),
                Family::V4,
            );
            let frac = r.optimal_fraction(300.0);
            assert!(frac > 0.6, "{letter}: optimal fraction {frac}");
        }
    }

    #[test]
    fn dense_deployments_less_often_optimal() {
        // Koch et al. / §2: large deployments are less likely to route a
        // client to the geographically closest replica.
        let (world, probes) = run();
        let frac = |letter: RootLetter| {
            DistanceResult::compute(
                &world.catalog,
                &world.population,
                &probes,
                target(letter),
                Family::V4,
            )
            .optimal_fraction(300.0)
        };
        assert!(frac(RootLetter::B) > frac(RootLetter::L));
    }

    #[test]
    fn inflation_nonnegative_and_bounded() {
        let (world, probes) = run();
        let r = DistanceResult::compute(
            &world.catalog,
            &world.population,
            &probes,
            target(RootLetter::K),
            Family::V4,
        );
        for p in &r.points {
            assert!(p.inflation_km() >= 0.0);
            assert!(p.actual_km < 21_000.0, "over half circumference");
        }
    }

    #[test]
    fn small_deployment_has_larger_closest_distance() {
        // b.root (6 sites) is geometrically farther from clients than
        // l.root (132 sites): the closest-global distance must be larger.
        let (world, probes) = run();
        let mean_closest = |letter: RootLetter| {
            let r = DistanceResult::compute(
                &world.catalog,
                &world.population,
                &probes,
                target(letter),
                Family::V4,
            );
            let s: f64 = r.points.iter().map(|p| p.closest_global_km).sum();
            s / r.points.len() as f64
        };
        assert!(mean_closest(RootLetter::B) > mean_closest(RootLetter::L));
    }

    #[test]
    fn render_mentions_target() {
        let (world, probes) = run();
        let r = DistanceResult::compute(
            &world.catalog,
            &world.population,
            &probes,
            target(RootLetter::M),
            Family::V6,
        );
        let txt = r.render();
        assert!(txt.contains("m.root"));
        assert!(txt.contains("IPv6"));
    }
}
