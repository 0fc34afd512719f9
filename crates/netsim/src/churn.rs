//! Route churn: the process by which a client's selected anycast site
//! changes between measurement rounds.
//!
//! Real-world churn comes from BGP updates, tie-break flaps, and traffic
//! engineering. The model is a two-state Markov chain over the AS's
//! candidate list: in the *stable* state the previous selection is kept; a
//! flip re-selects among the candidates that are *near-equal* to the best
//! (same Gao-Rexford class, path length within one hop). The flip pressure
//! grows with the number of near-equal candidates — deployments whose sites
//! look alike from a client (like g.root's six similar sites in the paper)
//! flap more than deployments with one clearly-best path (b.root), which is
//! how Figure 3's per-letter differences emerge without hard-coding them.
//!
//! An ablation alternative (`FlipModel::Iid`) re-rolls independently each
//! round; `cargo bench -p bench --bench ablations` contrasts the tails.

use crate::anycast::SiteId;
use crate::rng::SimRng;
use crate::routing::{CandidateRoute, RouteTable};
use crate::types::AsId;

/// Which stochastic process drives flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipModel {
    /// Two-state Markov chain (sticky selection) — the default.
    Markov,
    /// Independent re-selection each round (ablation).
    Iid,
}

/// Churn model parameters.
#[derive(Debug, Clone)]
pub struct ChurnModel {
    /// Base per-round flip probability when ≥2 near-equal candidates exist.
    pub base_flip_prob: f64,
    /// Additional flip probability per extra near-equal candidate.
    pub per_candidate_prob: f64,
    /// Per-round probability that a path change *upstream* redirects the
    /// client to a different site it has no local alternative for —
    /// single-homed stubs still experience site changes this way, which is
    /// why even b.root's median VP saw 8 changes in the paper.
    pub upstream_flip_prob: f64,
    /// Candidates within this many extra AS hops of the best count as
    /// near-equal.
    pub near_equal_slack: usize,
    /// Stochastic process.
    pub model: FlipModel,
}

impl Default for ChurnModel {
    fn default() -> Self {
        // Calibrated against Figure 3's full-resolution medians: a VP with
        // two near-equal candidates flips ≈0.0008/round, i.e. ≈8 changes
        // over the paper's ~10k rounds (b.root's median); per-letter
        // multipliers (see `vantage::engine::churn_multiplier`) produce
        // g.root's 36 (v4) / 64 (v6).
        ChurnModel {
            base_flip_prob: 0.0004,
            per_candidate_prob: 0.0002,
            upstream_flip_prob: 0.0007,
            near_equal_slack: 1,
            model: FlipModel::Markov,
        }
    }
}

/// Per-(client, deployment, family) selection state across rounds.
#[derive(Debug, Clone)]
pub struct SelectionState {
    /// Index into the near-equal candidate set.
    current: usize,
    /// A persistent upstream redirection, if one is in effect.
    upstream_override: Option<SiteId>,
}

/// What a churn step did to a client's selection — the observable event
/// behind a site change, exposed so callers (the scenario engine, the
/// stability analyses) can see *why* a selection moved instead of
/// re-deriving it from opaque state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEventKind {
    /// A local tie-break flip to a different near-equal candidate.
    LocalFlip { from: SiteId, to: SiteId },
    /// An upstream path change redirected the client to `to`.
    UpstreamRedirect { to: SiteId },
    /// An upstream path change restored the locally-best selection.
    UpstreamRestore,
}

/// One entry of a per-round churn event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Round index the event happened in.
    pub round: u32,
    /// The AS whose selection changed.
    pub asn: AsId,
    pub kind: ChurnEventKind,
}

/// A deterministic per-round event log: which ASes flipped in which round
/// and how. Entries are sorted by `(round, asn)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnLog {
    pub events: Vec<ChurnEvent>,
}

impl ChurnLog {
    /// Distinct ASes affected by any logged event, ascending.
    pub fn affected_ases(&self) -> Vec<AsId> {
        let mut ases: Vec<AsId> = self.events.iter().map(|e| e.asn).collect();
        ases.sort_unstable_by_key(|a| a.0);
        ases.dedup();
        ases
    }

    /// Events of one round.
    pub fn in_round(&self, round: u32) -> impl Iterator<Item = &ChurnEvent> {
        self.events.iter().filter(move |e| e.round == round)
    }

    /// An order-sensitive fingerprint of the whole log (for golden tests).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for e in &self.events {
            mix(e.round as u64);
            mix(e.asn.0 as u64);
            match e.kind {
                ChurnEventKind::LocalFlip { from, to } => {
                    mix(1);
                    mix(from.0 as u64);
                    mix(to.0 as u64);
                }
                ChurnEventKind::UpstreamRedirect { to } => {
                    mix(2);
                    mix(to.0 as u64);
                }
                ChurnEventKind::UpstreamRestore => mix(3),
            }
        }
        h
    }
}

impl ChurnModel {
    /// The near-equal candidate indices for `asn` (indices into
    /// `table.candidates(asn)`).
    pub fn near_equal(&self, table: &RouteTable, asn: AsId) -> Vec<usize> {
        let mut out = Vec::new();
        self.near_equal_into(table.candidates(asn), &mut out);
        out
    }

    /// [`ChurnModel::near_equal`] over an AS's candidate list, written into
    /// a caller-owned buffer (cleared first) so a per-probe caller computes
    /// the set once per step without allocating.
    pub fn near_equal_into(&self, cands: &[CandidateRoute], out: &mut Vec<usize>) {
        out.clear();
        let Some(best) = cands.first() else {
            return;
        };
        out.extend(
            cands
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    c.learned_from == best.learned_from
                        && c.path_len() <= best.path_len() + self.near_equal_slack
                })
                .map(|(i, _)| i),
        );
    }

    /// Initial selection (the best route).
    pub fn initial(&self) -> SelectionState {
        SelectionState {
            current: 0,
            upstream_override: None,
        }
    }

    /// Drop any upstream redirect from `state`, keeping the local Markov
    /// position. Callers use this after the routing ground truth changed
    /// (a site withdrawal, a link failure): the redirect may point at a
    /// site that no longer attracts traffic, while the local selection
    /// index is re-validated against the new near-equal set on the next
    /// step anyway.
    pub fn reset_override(&self, state: &mut SelectionState) {
        state.upstream_override = None;
    }

    /// Advance one measurement round; returns the selected site, or `None`
    /// when the destination is unreachable for this AS/family.
    pub fn step(
        &self,
        table: &RouteTable,
        asn: AsId,
        state: &mut SelectionState,
        rng: &mut SimRng,
    ) -> Option<SiteId> {
        self.step_full(table, asn, state, rng, 1.0, &[])
    }

    /// [`ChurnModel::step`] with the flip pressure scaled by `multiplier`
    /// and an `upstream_pool` of sites an upstream path change can land
    /// the client on. Deployments differ in routing stability for reasons
    /// invisible to an AS-level model (the paper's g-vs-b finding, §4.2),
    /// so callers calibrate the multiplier per deployment.
    pub fn step_full(
        &self,
        table: &RouteTable,
        asn: AsId,
        state: &mut SelectionState,
        rng: &mut SimRng,
        multiplier: f64,
        upstream_pool: &[SiteId],
    ) -> Option<SiteId> {
        self.step_observed(table, asn, state, rng, multiplier, upstream_pool)
            .0
    }

    /// [`ChurnModel::step_full`] that also reports what happened: the event
    /// kind when this round changed the selection mechanism, `None` on a
    /// quiet round. Draws exactly the same random variates as `step_full`,
    /// so observed and unobserved runs stay bit-identical.
    pub fn step_observed(
        &self,
        table: &RouteTable,
        asn: AsId,
        state: &mut SelectionState,
        rng: &mut SimRng,
        multiplier: f64,
        upstream_pool: &[SiteId],
    ) -> (Option<SiteId>, Option<ChurnEventKind>) {
        let cands = table.candidates(asn);
        let near = self.near_equal(table, asn);
        self.step_near(cands, &near, state, rng, multiplier, upstream_pool)
    }

    /// One [`ChurnModel::step_observed`] round over a precomputed
    /// candidate list and its near-equal set (from
    /// [`ChurnModel::near_equal_into`]): callers that need the set again
    /// after the step (the measurement engine resolves the serving
    /// candidate from it) compute it once. Draws exactly the same random
    /// variates as `step_observed`.
    pub fn step_near(
        &self,
        cands: &[CandidateRoute],
        near: &[usize],
        state: &mut SelectionState,
        rng: &mut SimRng,
        multiplier: f64,
        upstream_pool: &[SiteId],
    ) -> (Option<SiteId>, Option<ChurnEventKind>) {
        if near.is_empty() {
            return (None, None);
        }
        if state.current >= near.len() {
            state.current = 0;
        }
        let site_of = |idx: usize| cands[near[idx]].site;
        let mut event = None;
        match self.model {
            FlipModel::Markov => {
                // Upstream path change: redirect (or clear a redirect).
                if !upstream_pool.is_empty()
                    && rng.chance((self.upstream_flip_prob * multiplier).min(1.0))
                {
                    state.upstream_override =
                        if state.upstream_override.is_some() && rng.chance(0.5) {
                            // Half the upstream events restore the local best.
                            event = Some(ChurnEventKind::UpstreamRestore);
                            None
                        } else {
                            let to = *rng.pick(upstream_pool);
                            event = Some(ChurnEventKind::UpstreamRedirect { to });
                            Some(to)
                        };
                }
                if near.len() > 1 {
                    let p = (self.base_flip_prob
                        + self.per_candidate_prob * (near.len() - 1) as f64)
                        * multiplier;
                    if rng.chance(p.min(1.0)) {
                        // Local flip: move to a different near-equal
                        // candidate and drop any upstream redirect.
                        let from = state
                            .upstream_override
                            .unwrap_or_else(|| site_of(state.current));
                        let mut next = rng.next_range(near.len() - 1);
                        if next >= state.current {
                            next += 1;
                        }
                        state.current = next;
                        state.upstream_override = None;
                        event = Some(ChurnEventKind::LocalFlip {
                            from,
                            to: site_of(next),
                        });
                    }
                }
            }
            FlipModel::Iid => {
                state.current = rng.next_range(near.len());
            }
        }
        if let Some(site) = state.upstream_override {
            return (Some(site), event);
        }
        (Some(site_of(state.current)), event)
    }

    /// Replay `rounds` churn rounds for every AS in `ases` against a fixed
    /// route table and return the deterministic per-round event log. Each
    /// AS gets its own rng stream derived from `root`, so the log depends
    /// only on (model parameters, table, ases, rounds, root seed) — the
    /// scenario engine composes with churn through this log rather than by
    /// mutating routes itself.
    pub fn round_log(
        &self,
        table: &RouteTable,
        ases: &[AsId],
        rounds: u32,
        root: &SimRng,
        multiplier: f64,
        upstream_pool: &[SiteId],
    ) -> ChurnLog {
        let mut log = ChurnLog::default();
        for &asn in ases {
            let mut rng = root.derive_ids(&[asn.0 as u64]);
            let mut state = self.initial();
            for round in 0..rounds {
                let (_, event) =
                    self.step_observed(table, asn, &mut state, &mut rng, multiplier, upstream_pool);
                if let Some(kind) = event {
                    log.events.push(ChurnEvent { round, asn, kind });
                }
            }
        }
        log.events.sort_by_key(|e| (e.round, e.asn.0));
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anycast::{Deployment, FacilityId, Site, SiteScope};
    use crate::routing::propagate;
    use crate::topology::{Topology, TopologyConfig};
    use crate::types::Family;
    use netgeo::Region;

    fn world(n_sites: usize) -> (Topology, Deployment) {
        let t = Topology::generate(&TopologyConfig::default());
        let mut sites = Vec::new();
        let regions = [
            Region::Europe,
            Region::NorthAmerica,
            Region::Asia,
            Region::SouthAmerica,
            Region::Oceania,
            Region::Africa,
        ];
        for i in 0..n_sites {
            let region = regions[i % regions.len()];
            let host = t.stubs_in(region)[i / regions.len() + 1];
            sites.push(Site {
                id: SiteId(i as u32),
                facility: FacilityId(i as u32),
                scope: SiteScope::Global,
                origin_as: host,
                instance_stem: format!("s{i}"),
            });
        }
        (
            t,
            Deployment {
                name: "d".into(),
                sites,
            },
        )
    }

    #[test]
    fn stable_without_flips() {
        let (t, d) = world(4);
        let table = propagate(&t, &d, Family::V4);
        let model = ChurnModel {
            base_flip_prob: 0.0,
            per_candidate_prob: 0.0,
            ..Default::default()
        };
        let mut rng = SimRng::new(1);
        let asn = t.stubs_in(Region::Europe)[5];
        let mut state = model.initial();
        let first = model.step(&table, asn, &mut state, &mut rng);
        for _ in 0..100 {
            assert_eq!(model.step(&table, asn, &mut state, &mut rng), first);
        }
    }

    #[test]
    fn flips_happen_with_pressure() {
        let (t, d) = world(6);
        let table = propagate(&t, &d, Family::V4);
        let model = ChurnModel {
            base_flip_prob: 0.2,
            per_candidate_prob: 0.1,
            near_equal_slack: 3,
            ..Default::default()
        };
        let mut rng = SimRng::new(2);
        // Find an AS with multiple near-equal candidates.
        let asn = t
            .nodes()
            .iter()
            .map(|n| n.id)
            .find(|&a| model.near_equal(&table, a).len() >= 2)
            .expect("some AS has alternatives");
        let mut state = model.initial();
        let mut changes = 0;
        let mut prev = model.step(&table, asn, &mut state, &mut rng);
        for _ in 0..500 {
            let cur = model.step(&table, asn, &mut state, &mut rng);
            if cur != prev {
                changes += 1;
            }
            prev = cur;
        }
        assert!(changes > 10, "only {changes} changes");
    }

    #[test]
    fn iid_flips_more_than_markov() {
        let (t, d) = world(6);
        let table = propagate(&t, &d, Family::V4);
        let mk = |model| ChurnModel {
            base_flip_prob: 0.05,
            per_candidate_prob: 0.01,
            near_equal_slack: 3,
            model,
            ..Default::default()
        };
        let count_changes = |model: &ChurnModel, seed: u64| {
            let mut rng = SimRng::new(seed);
            let asn = t
                .nodes()
                .iter()
                .map(|n| n.id)
                .find(|&a| model.near_equal(&table, a).len() >= 3)
                .expect("alternatives exist");
            let mut state = model.initial();
            let mut changes = 0;
            let mut prev = model.step(&table, asn, &mut state, &mut rng);
            for _ in 0..1000 {
                let cur = model.step(&table, asn, &mut state, &mut rng);
                if cur != prev {
                    changes += 1;
                }
                prev = cur;
            }
            changes
        };
        let markov = count_changes(&mk(FlipModel::Markov), 3);
        let iid = count_changes(&mk(FlipModel::Iid), 3);
        assert!(iid > markov * 3, "iid {iid} vs markov {markov}");
    }

    #[test]
    fn unreachable_yields_none() {
        let (t, d) = world(2);
        let table = propagate(&t, &d, Family::V6);
        let model = ChurnModel::default();
        let mut rng = SimRng::new(4);
        let v4_only = t.nodes().iter().find(|n| !n.has_v6).unwrap().id;
        let mut state = model.initial();
        assert_eq!(model.step(&table, v4_only, &mut state, &mut rng), None);
    }

    #[test]
    fn step_observed_matches_step_full() {
        let (t, d) = world(6);
        let table = propagate(&t, &d, Family::V4);
        let model = ChurnModel {
            base_flip_prob: 0.05,
            per_candidate_prob: 0.02,
            upstream_flip_prob: 0.05,
            near_equal_slack: 3,
            ..Default::default()
        };
        let pool = [SiteId(0), SiteId(3)];
        for &asn in &t.stubs_in(Region::Asia)[..6] {
            let mut rng_a = SimRng::new(77).derive_ids(&[asn.0 as u64]);
            let mut rng_b = rng_a.clone();
            let mut st_a = model.initial();
            let mut st_b = model.initial();
            for _ in 0..300 {
                let plain = model.step_full(&table, asn, &mut st_a, &mut rng_a, 1.0, &pool);
                let (observed, _) =
                    model.step_observed(&table, asn, &mut st_b, &mut rng_b, 1.0, &pool);
                assert_eq!(plain, observed);
            }
        }
    }

    #[test]
    fn round_log_events_explain_site_changes() {
        let (t, d) = world(6);
        let table = propagate(&t, &d, Family::V4);
        let model = ChurnModel {
            base_flip_prob: 0.05,
            per_candidate_prob: 0.02,
            upstream_flip_prob: 0.05,
            near_equal_slack: 3,
            ..Default::default()
        };
        let pool = [SiteId(0), SiteId(3)];
        let root = SimRng::new(0xC0FFEE).derive("churn-log");
        for &asn in &t.stubs_in(Region::Europe)[..4] {
            let mut rng = root.derive_ids(&[asn.0 as u64]);
            let mut state = model.initial();
            let mut prev = None;
            for round in 0..200u32 {
                let (site, event) =
                    model.step_observed(&table, asn, &mut state, &mut rng, 1.0, &pool);
                // A quiet round never changes the selected site.
                if event.is_none() && round > 0 {
                    assert_eq!(site, prev, "silent change for AS{} round {round}", asn.0);
                }
                prev = site;
            }
        }
    }

    #[test]
    fn round_log_golden() {
        // Pins the exact event stream for a fixed (world, model, seed):
        // the scenario engine composes with churn through this log, so its
        // contents are part of the public deterministic contract.
        let (t, d) = world(6);
        let table = propagate(&t, &d, Family::V4);
        let model = ChurnModel {
            base_flip_prob: 0.05,
            per_candidate_prob: 0.02,
            upstream_flip_prob: 0.05,
            near_equal_slack: 3,
            ..Default::default()
        };
        let ases: Vec<AsId> = t.stubs_in(Region::Europe)[..8].to_vec();
        let pool = [SiteId(0), SiteId(3)];
        let root = SimRng::new(0xC0FFEE).derive("churn-log");
        let log = model.round_log(&table, &ases, 200, &root, 1.0, &pool);

        // Deterministic replay.
        assert_eq!(log, model.round_log(&table, &ases, 200, &root, 1.0, &pool));
        // Sorted by (round, asn).
        for w in log.events.windows(2) {
            assert!((w[0].round, w[0].asn.0) <= (w[1].round, w[1].asn.0));
        }
        assert!(!log.events.is_empty());
        assert!(!log.affected_ases().is_empty());
        // Golden pin (update only on a deliberate model change).
        println!(
            "churn golden: len={} fp={:#x} first={:?}",
            log.events.len(),
            log.fingerprint(),
            log.events.first()
        );
        assert_eq!(log.events.len(), GOLDEN_LEN);
        assert_eq!(log.fingerprint(), GOLDEN_FP);
        assert_eq!(
            log.events[0],
            ChurnEvent {
                round: 2,
                asn: AsId(132),
                kind: ChurnEventKind::LocalFlip {
                    from: SiteId(2),
                    to: SiteId(0),
                },
            }
        );
    }

    #[test]
    fn step_near_with_a_reused_buffer_matches_step_full() {
        // The measurement engine's pattern: one near-equal buffer shared
        // by every AS, recomputed before each step.
        let (t, d) = world(6);
        let table = propagate(&t, &d, Family::V4);
        let model = ChurnModel {
            base_flip_prob: 0.2,
            per_candidate_prob: 0.1,
            upstream_flip_prob: 0.1,
            near_equal_slack: 3,
            ..Default::default()
        };
        let pool: Vec<SiteId> = d.sites.iter().map(|s| s.id).collect();
        let mut near = vec![usize::MAX; 8];
        for node in t.nodes().iter().take(60) {
            let (mut st_a, mut st_b) = (model.initial(), model.initial());
            let mut rng_a = SimRng::new(node.id.0 as u64);
            let mut rng_b = rng_a.clone();
            for _ in 0..50 {
                let full = model.step_full(&table, node.id, &mut st_a, &mut rng_a, 1.5, &pool);
                let cands = table.candidates(node.id);
                model.near_equal_into(cands, &mut near);
                assert_eq!(near, model.near_equal(&table, node.id));
                let (stepped, _) = model.step_near(cands, &near, &mut st_b, &mut rng_b, 1.5, &pool);
                assert_eq!(full, stepped);
            }
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "same draws");
        }
    }

    // Pinned by `round_log_golden`.
    const GOLDEN_LEN: usize = 132;
    const GOLDEN_FP: u64 = 0x6eac_cf2f_8feb_5307;

    #[test]
    fn near_equal_excludes_worse_class() {
        let (t, d) = world(3);
        let table = propagate(&t, &d, Family::V4);
        let model = ChurnModel {
            near_equal_slack: 100, // only class should constrain
            ..Default::default()
        };
        for node in t.nodes() {
            let near = model.near_equal(&table, node.id);
            let cands = table.candidates(node.id);
            if let Some(best) = cands.first() {
                for idx in near {
                    assert_eq!(cands[idx].learned_from, best.learned_from);
                }
            }
        }
    }
}
