//! Quantiles from raw samples, and flip-to-round attribution.
//!
//! Percentiles use the nearest-rank definition over the sorted samples,
//! so every reported value is one that was actually measured. A
//! percentile is refused unless at least ten samples lie beyond it: with
//! fewer, the tail is one or two unlucky requests, not a distribution.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A quantile and the number of samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub n: usize,
}

/// The nearest-rank `p`-quantile (0 < p < 1) of `samples`, or an error
/// naming why it is refused.
pub fn quantile(samples: &[f64], p: f64) -> Result<Quantile, String> {
    let n = samples.len();
    if n == 0 {
        return Err("no samples".to_string());
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it, has {beyond} of {n}",
            p * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Quantile {
        value: sorted[rank - 1],
        n,
    })
}

/// The median of any non-empty sample (no tail requirement: a median of
/// a handful of repeats is how set-up time is reported).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// One event's round as the feeder saw it: when the event was due, and
/// how many verdict flips its `ok` response reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Round {
    pub due: f64,
    pub flips: u64,
}

/// Notifications matched to the rounds that produced them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Attribution {
    /// `(round index, arrival − due)` per attributed notification.
    pub latencies: Vec<(usize, f64)>,
    /// Notifications beyond the total flip count, or that would have
    /// arrived before their round's event was due.
    pub unmatched: usize,
}

/// Attributes notifications to rounds in order: the server enqueues a
/// round's flips before answering its event, so the k-th notification
/// belongs to the round whose cumulative flip count first reaches k.
/// `rounds` is in response order, `arrivals` in arrival order.
pub fn attribute(rounds: &[Round], arrivals: &[f64]) -> Attribution {
    let mut out = Attribution::default();
    let mut round = 0usize;
    let mut left = rounds.first().map_or(0, |r| r.flips);
    for &t in arrivals {
        while round < rounds.len() && left == 0 {
            round += 1;
            left = rounds.get(round).map_or(0, |r| r.flips);
        }
        if round >= rounds.len() {
            out.unmatched += 1;
            continue;
        }
        left -= 1;
        let latency = t - rounds[round].due;
        if latency < 0.0 {
            out.unmatched += 1;
        } else {
            out.latencies.push((round, latency));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_uses_measured_values() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            quantile(&s, 0.5).unwrap(),
            Quantile {
                value: 50.0,
                n: 100
            }
        );
        assert_eq!(quantile(&s, 0.9).unwrap().value, 90.0);
        // Order of the input does not matter.
        let mut r = s.clone();
        r.reverse();
        assert_eq!(quantile(&r, 0.9).unwrap().value, 90.0);
    }

    #[test]
    fn refuses_thin_tails() {
        let s: Vec<f64> = (0..99).map(f64::from).collect();
        // p90 of 99 samples has 9 beyond it.
        assert!(quantile(&s, 0.9).is_err());
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(quantile(&s, 0.9).is_ok());
        assert!(quantile(&s, 0.99).is_err());
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.99).unwrap().value, 989.0);
        assert!(quantile(&[], 0.5).is_err());
        assert!(quantile(&[1.0; 19], 0.5).is_err());
        assert!(quantile(&[1.0; 20], 0.5).is_ok());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    fn rounds(spec: &[(f64, u64)]) -> Vec<Round> {
        spec.iter()
            .map(|&(due, flips)| Round { due, flips })
            .collect()
    }

    #[test]
    fn attributes_notifications_in_round_order() {
        // Round 0 flips 2, round 1 none, round 2 flips 1.
        let r = rounds(&[(0.0, 2), (1.0, 0), (2.0, 1)]);
        let a = attribute(&r, &[0.5, 0.7, 2.25]);
        assert_eq!(a.latencies, vec![(0, 0.5), (0, 0.7), (2, 0.25)]);
        assert_eq!(a.unmatched, 0);
    }

    #[test]
    fn late_pushes_still_attribute_to_their_round() {
        // Both rounds' flips arrive in one push after round 1 answered.
        let r = rounds(&[(0.0, 1), (1.0, 2)]);
        let a = attribute(&r, &[1.5, 1.5, 1.5]);
        assert_eq!(a.latencies, vec![(0, 1.5), (1, 0.5), (1, 0.5)]);
    }

    #[test]
    fn surplus_and_impossible_arrivals_are_unmatched() {
        let r = rounds(&[(1.0, 1)]);
        // Arrives before its event was due: cannot be this round's flip.
        let a = attribute(&r, &[0.5]);
        assert_eq!(a.unmatched, 1);
        assert!(a.latencies.is_empty());
        // More notifications than flips.
        let a = attribute(&r, &[1.2, 1.3]);
        assert_eq!(a.latencies, vec![(0, 1.2 - 1.0)]);
        assert_eq!(a.unmatched, 1);
        // No rounds at all.
        assert_eq!(attribute(&[], &[1.0]).unmatched, 1);
        // Rounds that never flipped leave every arrival unmatched.
        assert_eq!(
            attribute(&rounds(&[(0.0, 0), (1.0, 0)]), &[2.0]).unmatched,
            1
        );
    }
}
