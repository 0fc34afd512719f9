//! Site stability (§4.2, Figure 3): per VP, count *changes* — two
//! subsequent measurements reaching different sites — over the whole
//! measurement, per target and address family; render as a complementary
//! eCDF.

use crate::stats::Ecdf;
use netsim::anycast::SiteId;
use netsim::Family;
use rss::{BRootPhase, RootLetter};
use std::collections::HashMap;
use vantage::population::VpId;
use vantage::records::{ProbeRecord, Target};

/// Change-event counts and their eCDF for one (target, family).
#[derive(Debug, Clone)]
pub struct StabilitySeries {
    pub target: Target,
    pub family: Family,
    /// Changes per VP.
    pub changes_per_vp: HashMap<VpId, u64>,
    /// eCDF over the per-VP change counts.
    pub ecdf: Ecdf,
}

impl StabilitySeries {
    /// Median number of changes a VP experienced.
    pub fn median_changes(&self) -> Option<u64> {
        self.ecdf.median()
    }

    /// Maximum changes any VP experienced (the long tail).
    pub fn max_changes(&self) -> u64 {
        self.ecdf.values.last().copied().unwrap_or(0)
    }
}

/// Stability result across all targets and families.
#[derive(Debug, Clone)]
pub struct StabilityResult {
    pub series: Vec<StabilitySeries>,
}

/// Dense (target, family) slots per VP: `letter * 4 + b_phase * 2 +
/// family`. Slot order is `(target, family)` order, so a slot-major walk
/// visits keys in `(vp, target, family)` order.
const SLOTS_PER_VP: usize = 13 * 2 * 2;

fn slot(target: Target, family: Family) -> usize {
    (target.letter.index() * 2 + target.b_phase as usize) * 2 + family.index()
}

fn slot_key(slot: usize) -> (Target, Family) {
    let target = Target {
        letter: RootLetter::from_index(slot / 4).expect("slot within 13 letters"),
        b_phase: [BRootPhase::Old, BRootPhase::New][slot / 2 % 2],
    };
    (target, Family::BOTH[slot % 2])
}

impl StabilityResult {
    /// Count change events from the probe stream: two answered probes of
    /// one (vp, target, family), at increasing times, reaching different
    /// sites.
    ///
    /// Answered probes are bucketed by the dense (vp, target, family) key
    /// with a stable counting sort, and each bucket is put in time order
    /// before it is folded. The engine emits rounds in order, so buckets
    /// arrive sorted except for re-measured rounds appended after the main
    /// schedule; the stable sort keeps equal times in stream order.
    pub fn compute(probes: &[ProbeRecord]) -> StabilityResult {
        let key = |p: &ProbeRecord| p.vp.0 as usize * SLOTS_PER_VP + slot(p.target, p.family);
        let keys = probes
            .iter()
            .map(|p| (p.vp.0 as usize + 1) * SLOTS_PER_VP)
            .max()
            .unwrap_or(0);
        // Bucket bounds: `start[k]..start[k + 1]` holds key `k`.
        let mut start = vec![0usize; keys + 1];
        for p in probes.iter().filter(|p| p.site.is_some()) {
            start[key(p) + 1] += 1;
        }
        for k in 0..keys {
            start[k + 1] += start[k];
        }
        let mut cursor = start.clone();
        let mut entries = vec![(0u32, SiteId(0)); start[keys]];
        for p in probes {
            if let Some(site) = p.site {
                let at = &mut cursor[key(p)];
                entries[*at] = (p.time, site);
                *at += 1;
            }
        }
        let mut per_slot: Vec<HashMap<VpId, u64>> = vec![HashMap::new(); SLOTS_PER_VP];
        for k in 0..keys {
            let bucket = &mut entries[start[k]..start[k + 1]];
            if bucket.is_empty() {
                continue;
            }
            if bucket.windows(2).any(|w| w[0].0 > w[1].0) {
                bucket.sort_by_key(|&(time, _)| time);
            }
            let mut changes = 0;
            for w in bucket.windows(2) {
                let ((prev_time, prev), (time, site)) = (w[0], w[1]);
                if prev_time < time && prev != site {
                    changes += 1;
                }
            }
            per_slot[k % SLOTS_PER_VP].insert(VpId((k / SLOTS_PER_VP) as u32), changes);
        }
        let series = per_slot
            .into_iter()
            .enumerate()
            .filter(|(_, changes_per_vp)| !changes_per_vp.is_empty())
            .map(|(slot, changes_per_vp)| {
                let (target, family) = slot_key(slot);
                let samples: Vec<u64> = changes_per_vp.values().copied().collect();
                StabilitySeries {
                    target,
                    family,
                    ecdf: Ecdf::from_samples(samples),
                    changes_per_vp,
                }
            })
            .collect();
        StabilityResult { series }
    }

    /// Fetch the series for one (target, family).
    pub fn series_for(&self, target: Target, family: Family) -> Option<&StabilitySeries> {
        self.series
            .iter()
            .find(|s| s.target == target && s.family == family)
    }

    /// Render the Figure 3 equivalent for a set of targets.
    pub fn render_fig3(&self, targets: &[Target]) -> String {
        let mut out = String::from("Figure 3: complementary eCDF of site-change events per VP\n");
        for t in targets {
            for family in Family::BOTH {
                if let Some(s) = self.series_for(*t, family) {
                    out.push_str(&format!(
                        "  {:14} {:4}: median {:4} max {:6} | CCDF@10 {:.2} CCDF@100 {:.2}\n",
                        t.label(),
                        family.label(),
                        s.median_changes().unwrap_or(0),
                        s.max_changes(),
                        s.ecdf.ccdf(10),
                        s.ecdf.ccdf(100),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rss::{BRootPhase, RootLetter};
    use vantage::records::Target;

    fn probe(
        vp: u32,
        time: u32,
        site: Option<u32>,
        letter: RootLetter,
        family: Family,
    ) -> ProbeRecord {
        ProbeRecord {
            time,
            vp: VpId(vp),
            target: Target {
                letter,
                b_phase: BRootPhase::Old,
            },
            family,
            site: site.map(netsim::anycast::SiteId),
            rtt_ms: Some(10.0),
            second_to_last_hop: None,
            identity: None,
        }
    }

    #[test]
    fn counts_changes_between_consecutive_rounds() {
        let probes = vec![
            probe(0, 100, Some(1), RootLetter::G, Family::V4),
            probe(0, 200, Some(1), RootLetter::G, Family::V4),
            probe(0, 300, Some(2), RootLetter::G, Family::V4),
            probe(0, 400, Some(1), RootLetter::G, Family::V4),
            probe(0, 500, Some(1), RootLetter::G, Family::V4),
        ];
        let r = StabilityResult::compute(&probes);
        let s = r
            .series_for(
                Target {
                    letter: RootLetter::G,
                    b_phase: BRootPhase::Old,
                },
                Family::V4,
            )
            .unwrap();
        assert_eq!(s.changes_per_vp[&VpId(0)], 2);
    }

    #[test]
    fn unreachable_probes_skipped() {
        let probes = vec![
            probe(0, 100, Some(1), RootLetter::B, Family::V4),
            probe(0, 200, None, RootLetter::B, Family::V4),
            probe(0, 300, Some(1), RootLetter::B, Family::V4),
        ];
        let r = StabilityResult::compute(&probes);
        let s = r
            .series_for(
                Target {
                    letter: RootLetter::B,
                    b_phase: BRootPhase::Old,
                },
                Family::V4,
            )
            .unwrap();
        // The timeout round does not create a change.
        assert_eq!(s.changes_per_vp[&VpId(0)], 0);
    }

    #[test]
    fn families_counted_separately() {
        let probes = vec![
            probe(0, 100, Some(1), RootLetter::C, Family::V4),
            probe(0, 200, Some(1), RootLetter::C, Family::V4),
            probe(0, 100, Some(1), RootLetter::C, Family::V6),
            probe(0, 200, Some(2), RootLetter::C, Family::V6),
        ];
        let r = StabilityResult::compute(&probes);
        let t = Target {
            letter: RootLetter::C,
            b_phase: BRootPhase::Old,
        };
        assert_eq!(
            r.series_for(t, Family::V4).unwrap().changes_per_vp[&VpId(0)],
            0
        );
        assert_eq!(
            r.series_for(t, Family::V6).unwrap().changes_per_vp[&VpId(0)],
            1
        );
    }

    #[test]
    fn out_of_order_input_handled() {
        let probes = vec![
            probe(0, 300, Some(2), RootLetter::G, Family::V4),
            probe(0, 100, Some(1), RootLetter::G, Family::V4),
            probe(0, 200, Some(1), RootLetter::G, Family::V4),
        ];
        let r = StabilityResult::compute(&probes);
        let s = &r.series[0];
        assert_eq!(s.changes_per_vp[&VpId(0)], 1);
    }

    #[test]
    fn median_and_ccdf() {
        let mut probes = Vec::new();
        // VP 0: stable (0 changes); VP 1: flappy (3 changes).
        for (i, site) in [1u32, 1, 1, 1].iter().enumerate() {
            probes.push(probe(
                0,
                100 * (i as u32 + 1),
                Some(*site),
                RootLetter::A,
                Family::V4,
            ));
        }
        for (i, site) in [1u32, 2, 1, 2].iter().enumerate() {
            probes.push(probe(
                1,
                100 * (i as u32 + 1),
                Some(*site),
                RootLetter::A,
                Family::V4,
            ));
        }
        let r = StabilityResult::compute(&probes);
        let s = &r.series[0];
        assert_eq!(s.ecdf.n, 2);
        assert_eq!(s.max_changes(), 3);
        assert!((s.ecdf.ccdf(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn render_contains_labels() {
        let probes = vec![
            probe(0, 100, Some(1), RootLetter::B, Family::V4),
            probe(0, 200, Some(1), RootLetter::B, Family::V4),
        ];
        let r = StabilityResult::compute(&probes);
        let txt = r.render_fig3(&[Target {
            letter: RootLetter::B,
            b_phase: BRootPhase::Old,
        }]);
        assert!(txt.contains("b.root"));
        assert!(txt.contains("IPv4"));
    }
}
