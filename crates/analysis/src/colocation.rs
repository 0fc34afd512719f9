//! Server co-location (§5, Figure 4): reduced redundancy from shared
//! second-to-last traceroute hops.
//!
//! For each VP and family, take the second-to-last hop observed toward each
//! of the 13 letters; the *reduced redundancy* is the total number of
//! observed hops minus the number of unique hops. Missing hops count as
//! unique, so the measure is a lower bound — exactly as the paper computes
//! it.

use netgeo::Region;
use netsim::Family;
use rss::BRootPhase;
use std::collections::{HashMap, HashSet};
use vantage::population::{Population, VpId};
use vantage::records::ProbeRecord;

/// Reduced redundancy of one VP in one family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReducedRedundancy {
    pub vp: VpId,
    pub family: Family,
    /// Letters for which a hop (or a missing marker) was observed.
    pub letters_observed: u32,
    /// total observed hops − unique hops (0..=12).
    pub reduced: u32,
}

/// Co-location analysis results.
#[derive(Debug, Clone)]
pub struct ColocationResult {
    pub per_vp: Vec<ReducedRedundancy>,
}

impl ColocationResult {
    /// Compute from the probe stream, using each VP's most recent observed
    /// second-to-last hop per letter (the paper's per-VP view).
    ///
    /// b.root's two addresses share physical sites; only the old-address
    /// target is used so each letter contributes exactly one hop.
    pub fn compute(probes: &[ProbeRecord]) -> ColocationResult {
        // Latest (time, hop) per (vp, family, letter), addressed densely:
        // `(vp * 2 + family) * 13 + letter`. Ties in time keep the later
        // record of the stream.
        let vps = probes
            .iter()
            .map(|p| p.vp.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut latest: Vec<Option<(u32, Option<u64>)>> = vec![None; vps * 2 * 13];
        for p in probes {
            if p.target.b_phase != BRootPhase::Old || p.site.is_none() {
                continue;
            }
            let slot = (p.vp.0 as usize * 2 + p.family.index()) * 13 + p.target.letter.index();
            if latest[slot].is_none_or(|(time, _)| p.time >= time) {
                latest[slot] = Some((p.time, p.second_to_last_hop));
            }
        }
        // One row per (vp, family) with any observed letter, in
        // (vp, family) order.
        let per_vp = latest
            .chunks_exact(13)
            .enumerate()
            .filter_map(|(row, letters)| {
                let hops: Vec<Option<u64>> = letters.iter().flatten().map(|&(_, h)| h).collect();
                if hops.is_empty() {
                    return None;
                }
                let total = hops.len() as u32;
                let mut unique: HashSet<u64> = HashSet::new();
                let mut missing = 0u32;
                for h in &hops {
                    match h {
                        Some(r) => {
                            unique.insert(*r);
                        }
                        None => missing += 1, // missing counts as unique
                    }
                }
                let unique_count = unique.len() as u32 + missing;
                Some(ReducedRedundancy {
                    vp: VpId((row / 2) as u32),
                    family: Family::BOTH[row % 2],
                    letters_observed: total,
                    reduced: total - unique_count,
                })
            })
            .collect();
        ColocationResult { per_vp }
    }

    /// Fraction of VPs observing co-location of at least `k` letters
    /// (reduced redundancy ≥ k−1). The paper's headline uses k = 2.
    pub fn fraction_with_colocation(&self, k: u32) -> f64 {
        if self.per_vp.is_empty() {
            return 0.0;
        }
        // Per VP (any family): max reduced across families.
        let mut per_vp_max: HashMap<VpId, u32> = HashMap::new();
        for r in &self.per_vp {
            let e = per_vp_max.entry(r.vp).or_insert(0);
            *e = (*e).max(r.reduced);
        }
        let hits = per_vp_max
            .values()
            .filter(|&&red| red >= k.saturating_sub(1))
            .count();
        hits as f64 / per_vp_max.len() as f64
    }

    /// Maximum reduced redundancy seen anywhere.
    pub fn max_reduced(&self) -> u32 {
        self.per_vp.iter().map(|r| r.reduced).max().unwrap_or(0)
    }

    /// Figure 4: histogram of reduced redundancy per region per family.
    /// Returns `[region][family][reduced_redundancy 0..=12] = #VPs`.
    pub fn histogram_by_region(&self, population: &Population) -> [[Vec<u32>; 2]; 6] {
        let mut hist: [[Vec<u32>; 2]; 6] =
            std::array::from_fn(|_| [vec![0u32; 13], vec![0u32; 13]]);
        for r in &self.per_vp {
            let region = population.get(r.vp).region;
            let bucket = (r.reduced as usize).min(12);
            hist[region.index()][r.family.index()][bucket] += 1;
        }
        hist
    }

    /// Mean reduced redundancy per region/family (the `avg(v4)`/`avg(v6)`
    /// annotations in Figure 4).
    pub fn mean_by_region(&self, population: &Population) -> [[f64; 2]; 6] {
        let mut sum = [[0f64; 2]; 6];
        let mut n = [[0u32; 2]; 6];
        for r in &self.per_vp {
            let region = population.get(r.vp).region;
            sum[region.index()][r.family.index()] += r.reduced as f64;
            n[region.index()][r.family.index()] += 1;
        }
        let mut out = [[0f64; 2]; 6];
        for region in 0..6 {
            for fam in 0..2 {
                out[region][fam] = if n[region][fam] == 0 {
                    0.0
                } else {
                    sum[region][fam] / n[region][fam] as f64
                };
            }
        }
        out
    }

    /// Render the Figure 4 equivalent.
    pub fn render_fig4(&self, population: &Population) -> String {
        let hist = self.histogram_by_region(population);
        let means = self.mean_by_region(population);
        let mut out = String::from("Figure 4: reduced redundancy due to shared last hop\n");
        for region in Region::ALL {
            out.push_str(&format!(
                "-- {} -- avg(v4)={:.2} avg(v6)={:.2}\n",
                region,
                means[region.index()][0],
                means[region.index()][1],
            ));
            for (fam_idx, fam) in Family::BOTH.iter().enumerate() {
                let h = &hist[region.index()][fam_idx];
                let counts: Vec<String> = h.iter().map(|c| format!("{c:4}")).collect();
                out.push_str(&format!("   {}: {}\n", fam.label(), counts.join(" ")));
            }
        }
        out.push_str(&format!(
            "VPs observing >=2 co-located letters: {:.1}%  (max reduced: {})\n",
            self.fraction_with_colocation(2) * 100.0,
            self.max_reduced()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rss::RootLetter;
    use vantage::records::Target;

    fn probe(
        vp: u32,
        letter: RootLetter,
        family: Family,
        hop: Option<u64>,
        time: u32,
    ) -> ProbeRecord {
        ProbeRecord {
            time,
            vp: VpId(vp),
            target: Target {
                letter,
                b_phase: BRootPhase::Old,
            },
            family,
            site: Some(netsim::anycast::SiteId(0)),
            rtt_ms: Some(5.0),
            second_to_last_hop: hop,
            identity: None,
        }
    }

    #[test]
    fn shared_hops_reduce_redundancy() {
        // 3 letters, two share hop 7.
        let probes = vec![
            probe(0, RootLetter::A, Family::V4, Some(7), 1),
            probe(0, RootLetter::B, Family::V4, Some(7), 1),
            probe(0, RootLetter::C, Family::V4, Some(9), 1),
        ];
        let r = ColocationResult::compute(&probes);
        assert_eq!(r.per_vp.len(), 1);
        assert_eq!(r.per_vp[0].reduced, 1);
        assert_eq!(r.per_vp[0].letters_observed, 3);
    }

    #[test]
    fn missing_hops_count_as_unique() {
        let probes = vec![
            probe(0, RootLetter::A, Family::V4, None, 1),
            probe(0, RootLetter::B, Family::V4, None, 1),
            probe(0, RootLetter::C, Family::V4, Some(7), 1),
        ];
        let r = ColocationResult::compute(&probes);
        assert_eq!(r.per_vp[0].reduced, 0);
    }

    #[test]
    fn latest_observation_wins() {
        let probes = vec![
            probe(0, RootLetter::A, Family::V4, Some(7), 1),
            probe(0, RootLetter::B, Family::V4, Some(7), 1),
            // Later, A moves to a different hop.
            probe(0, RootLetter::A, Family::V4, Some(8), 2),
        ];
        let r = ColocationResult::compute(&probes);
        assert_eq!(r.per_vp[0].reduced, 0);
    }

    #[test]
    fn appended_earlier_rounds_and_time_ties() {
        let mut unanswered = probe(9, RootLetter::B, Family::V4, Some(5), 9);
        unanswered.site = None;
        let probes = vec![
            probe(9, RootLetter::A, Family::V4, Some(5), 3),
            probe(9, RootLetter::B, Family::V4, Some(6), 3),
            // A re-measured earlier round appended last does not win...
            probe(9, RootLetter::B, Family::V4, Some(5), 2),
            // ...nor does an unanswered probe; a tie keeps the later record.
            unanswered,
            probe(9, RootLetter::A, Family::V4, Some(6), 3),
        ];
        let r = ColocationResult::compute(&probes);
        assert_eq!(r.per_vp.len(), 1);
        assert_eq!((r.per_vp[0].vp, r.per_vp[0].reduced), (VpId(9), 1));
    }

    #[test]
    fn all_thirteen_at_one_facility_gives_twelve() {
        let probes: Vec<ProbeRecord> = RootLetter::ALL
            .iter()
            .map(|l| probe(0, *l, Family::V6, Some(42), 1))
            .collect();
        let r = ColocationResult::compute(&probes);
        assert_eq!(r.per_vp[0].reduced, 12);
        assert_eq!(r.max_reduced(), 12);
    }

    #[test]
    fn fraction_with_colocation_counts_vps() {
        let mut probes = vec![
            // VP0: co-location.
            probe(0, RootLetter::A, Family::V4, Some(1), 1),
            probe(0, RootLetter::B, Family::V4, Some(1), 1),
            // VP1: none.
            probe(1, RootLetter::A, Family::V4, Some(2), 1),
            probe(1, RootLetter::B, Family::V4, Some(3), 1),
        ];
        probes.push(probe(2, RootLetter::A, Family::V4, Some(4), 1));
        let r = ColocationResult::compute(&probes);
        let frac = r.fraction_with_colocation(2);
        assert!((frac - 1.0 / 3.0).abs() < 1e-9, "{frac}");
    }

    #[test]
    fn new_b_address_ignored() {
        let mut p = probe(0, RootLetter::B, Family::V4, Some(1), 1);
        p.target.b_phase = BRootPhase::New;
        let r = ColocationResult::compute(&[p]);
        assert!(r.per_vp.is_empty());
    }

    #[test]
    fn families_tracked_separately() {
        let probes = vec![
            probe(0, RootLetter::A, Family::V4, Some(1), 1),
            probe(0, RootLetter::B, Family::V4, Some(1), 1),
            probe(0, RootLetter::A, Family::V6, Some(2), 1),
            probe(0, RootLetter::B, Family::V6, Some(3), 1),
        ];
        let r = ColocationResult::compute(&probes);
        let v4 = r.per_vp.iter().find(|x| x.family == Family::V4).unwrap();
        let v6 = r.per_vp.iter().find(|x| x.family == Family::V6).unwrap();
        assert_eq!(v4.reduced, 1);
        assert_eq!(v6.reduced, 0);
    }
}
