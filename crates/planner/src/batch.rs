//! The batch worker pool.
//!
//! Same discipline as `vantage`'s `run_parallel`: the candidate list is
//! cut into contiguous index ranges, each worker owns its range
//! exclusively with a private [`EvalContext`], finished parts land in a
//! mutex'd vector tagged with their range start, and the merge sorts by
//! that tag — so the output is bit-identical for any worker count, which
//! [`scores_fingerprint`] makes cheap to assert.

use crate::eval::{CandidateScore, EvalContext, TimelineSpec};
use crate::moves::CandidatePlan;
use parking_lot::Mutex;
use rss::RootLetter;
use vantage::World;

/// Evaluate `plans` for `letter` across `workers` threads. Scores come
/// back in plan order regardless of worker count.
pub fn evaluate_batch(
    world: &World,
    letter: RootLetter,
    plans: &[CandidatePlan],
    workers: usize,
    timeline: Option<TimelineSpec>,
) -> Vec<CandidateScore> {
    let workers = workers.clamp(1, plans.len().max(1));
    if workers == 1 {
        let mut ctx = EvalContext::new(world, letter, timeline);
        return plans.iter().map(|p| ctx.evaluate(p)).collect();
    }
    let chunk = plans.len().div_ceil(workers);
    let results: Mutex<Vec<(usize, Vec<CandidateScore>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(plans.len());
            if lo >= hi {
                continue;
            }
            let results = &results;
            scope.spawn(move || {
                let mut ctx = EvalContext::new(world, letter, timeline);
                let part: Vec<CandidateScore> =
                    plans[lo..hi].iter().map(|p| ctx.evaluate(p)).collect();
                results.lock().push((lo, part));
            });
        }
    });
    let mut parts = results.into_inner();
    parts.sort_by_key(|(lo, _)| *lo);
    parts.into_iter().flat_map(|(_, part)| part).collect()
}

/// Order-sensitive digest over every score's ranking-relevant numbers
/// (exact f64 bit patterns, not rounded displays). Equal fingerprints ⇒
/// the sweeps scored and would rank identically.
pub fn scores_fingerprint(scores: &[CandidateScore]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for s in scores {
        mix(u64::from(s.id));
        mix(s.delta.rtt_combined().to_bits());
        mix(s.delta.locality.to_bits());
        mix(s.delta.loss.to_bits());
        mix(s.delta.shift.to_bits());
        mix(s.churn.to_bits());
        match &s.worst_epoch {
            Some(e) => {
                mix(e.epoch as u64 + 1);
                mix(e.delta.rtt_combined().to_bits());
                mix(e.churn.to_bits());
            }
            None => mix(0),
        }
    }
    h
}
