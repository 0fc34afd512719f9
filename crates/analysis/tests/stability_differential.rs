//! Differential test for Figure 3's change counting: the bucketed
//! `StabilityResult::compute` must agree series for series with the
//! straightforward reference — one global sort by (vp, target, family,
//! time) folded through a hash map — on generated probe streams.

use analysis::stability::{StabilityResult, StabilitySeries};
use netsim::anycast::SiteId;
use netsim::Family;
use proptest::prelude::*;
use std::collections::HashMap;
use vantage::population::VpId;
use vantage::records::{ProbeRecord, Target};

/// The sort-plus-`HashMap` fold `compute` replaced, kept as the oracle.
fn reference(probes: &[ProbeRecord]) -> Vec<StabilitySeries> {
    #[derive(Default)]
    struct State {
        prev: Option<SiteId>,
        prev_time: u32,
        changes: u64,
        initialized: bool,
    }
    let mut per_key: HashMap<(VpId, Target, Family), State> = HashMap::new();
    let mut ordered: Vec<&ProbeRecord> = probes.iter().collect();
    ordered.sort_by_key(|p| (p.vp, p.target, p.family, p.time));
    for p in ordered {
        let Some(site) = p.site else { continue };
        let st = per_key.entry((p.vp, p.target, p.family)).or_default();
        if st.initialized && st.prev_time < p.time && st.prev != Some(site) {
            st.changes += 1;
        }
        st.prev = Some(site);
        st.prev_time = p.time;
        st.initialized = true;
    }
    let mut grouped: HashMap<(Target, Family), HashMap<VpId, u64>> = HashMap::new();
    for ((vp, target, family), st) in per_key {
        grouped
            .entry((target, family))
            .or_default()
            .insert(vp, st.changes);
    }
    let mut series: Vec<StabilitySeries> = grouped
        .into_iter()
        .map(|((target, family), changes_per_vp)| StabilitySeries {
            target,
            family,
            ecdf: analysis::stats::Ecdf::from_samples(changes_per_vp.values().copied().collect()),
            changes_per_vp,
        })
        .collect();
    series.sort_by_key(|s| (s.target, s.family));
    series
}

/// Shape of one generated stream.
#[derive(Debug, Clone)]
struct StreamSpec {
    seed: u64,
    vps: usize,
    rounds: usize,
    sites: u32,
    /// Per-mille chance a probe went unanswered (`site: None`).
    unanswered: usize,
    /// Per-mille chance a round reuses the previous round's time.
    repeat_time: usize,
    /// Re-measured rounds appended after the main schedule, at earlier
    /// times (the stale-window re-measurement's shape).
    appended: usize,
    /// 0 = engine order, 1 = fully shuffled, 2 = reversed.
    order: usize,
}

fn spec() -> impl Strategy<Value = StreamSpec> {
    (
        any::<u64>(),
        1usize..7,
        1usize..40,
        1u32..5,
        0usize..400,
        0usize..300,
        0usize..8,
        0usize..3,
    )
        .prop_map(
            |(seed, vps, rounds, sites, unanswered, repeat_time, appended, order)| StreamSpec {
                seed,
                vps,
                rounds,
                sites,
                unanswered,
                repeat_time,
                appended,
                order,
            },
        )
}

/// Emit probe records the way the engine does (round → vp → target →
/// family), with sparse VP ids, V4-only VPs, sticky-but-flapping sites,
/// unanswered probes, repeated round times and appended earlier rounds.
fn stream(spec: &StreamSpec) -> Vec<ProbeRecord> {
    let mut rng = TestRng::new(spec.seed);
    let chance = |rng: &mut TestRng, per_mille: usize| rng.below(1000) < per_mille;
    let targets: Vec<Target> = Target::all()
        .into_iter()
        .filter(|_| rng.below(3) > 0)
        .collect();
    let vps: Vec<(VpId, bool)> = (0..spec.vps)
        .map(|i| (VpId(i as u32 * 3 + rng.below(3) as u32), rng.below(4) > 0))
        .collect();
    let mut times = Vec::with_capacity(spec.rounds + spec.appended);
    let mut t = 1_000u32;
    for _ in 0..spec.rounds {
        if times.is_empty() || !chance(&mut rng, spec.repeat_time) {
            t += 1 + rng.below(900) as u32;
        }
        times.push(t);
    }
    for _ in 0..spec.appended {
        times.push(1_000 + rng.below((t - 1_000 + 1) as usize) as u32);
    }
    let mut current: HashMap<(VpId, Target, Family), u32> = HashMap::new();
    let mut out = Vec::new();
    for &time in &times {
        for &(vp, has_v6) in &vps {
            for &target in &targets {
                for family in Family::BOTH {
                    if family == Family::V6 && !has_v6 {
                        continue;
                    }
                    let site = current
                        .entry((vp, target, family))
                        .or_insert_with(|| rng.below(spec.sites as usize) as u32);
                    if rng.below(4) == 0 {
                        *site = rng.below(spec.sites as usize) as u32;
                    }
                    let answered = !chance(&mut rng, spec.unanswered);
                    out.push(ProbeRecord {
                        time,
                        vp,
                        target,
                        family,
                        site: answered.then_some(SiteId(*site)),
                        rtt_ms: answered.then_some(10.0),
                        second_to_last_hop: None,
                        identity: None,
                    });
                }
            }
        }
    }
    match spec.order {
        1 => {
            for i in (1..out.len()).rev() {
                let j = rng.below(i + 1);
                out.swap(i, j);
            }
        }
        2 => out.reverse(),
        _ => {}
    }
    out
}

fn assert_same(got: &StabilityResult, want: &[StabilitySeries]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.series.len(), want.len());
    for (g, w) in got.series.iter().zip(want) {
        prop_assert_eq!((g.target, g.family), (w.target, w.family));
        prop_assert_eq!(&g.changes_per_vp, &w.changes_per_vp);
        prop_assert_eq!(&g.ecdf, &w.ecdf);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bucketed_fold_matches_sorted_reference(spec in spec()) {
        let probes = stream(&spec);
        assert_same(&StabilityResult::compute(&probes), &reference(&probes))?;
    }
}

#[test]
fn empty_and_all_unanswered_streams() {
    assert!(StabilityResult::compute(&[]).series.is_empty());
    let spec = StreamSpec {
        seed: 7,
        vps: 3,
        rounds: 5,
        sites: 2,
        unanswered: 1000,
        repeat_time: 0,
        appended: 2,
        order: 0,
    };
    let probes = stream(&spec);
    assert!(!probes.is_empty());
    assert!(StabilityResult::compute(&probes).series.is_empty());
    assert!(reference(&probes).is_empty());
}
