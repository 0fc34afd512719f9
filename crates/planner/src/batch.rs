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
    let parts: Vec<Vec<CandidateScore>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| (w * chunk, ((w + 1) * chunk).min(plans.len())))
            .filter(|(lo, hi)| lo < hi)
            .map(|(lo, hi)| {
                scope.spawn(move || {
                    let mut ctx = EvalContext::new(world, letter, timeline);
                    plans[lo..hi]
                        .iter()
                        .map(|p| ctx.evaluate(p))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // Joined in chunk order, so the merge order is the plan order.
        handles
            .into_iter()
            .map(|h| h.join().expect("planner worker panicked"))
            .collect()
    });
    parts.into_iter().flatten().collect()
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
