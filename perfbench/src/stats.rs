//! Order statistics over per-op timings, and the rule that decides
//! which tail percentile a run may report.

/// The tail quantile the benchmark reports as `op_ms.p90`.
pub const TAIL_Q: f64 = 0.90;

/// A tail percentile is only reported when at least this many samples
/// lie beyond it; with fewer, one outlier moves it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample
/// with at least a share `q` of the samples at or below it.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n`.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The highest of `candidates` (ascending quantiles) that leaves at
/// least [`MIN_BEYOND`] of `n` samples beyond it, if any does.
#[must_use]
pub fn reportable_tail(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// The fewest samples for which `q` is reportable.
#[must_use]
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= MIN_BEYOND)
        .expect("some n qualifies")
}

/// Median of an unsorted sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Op times divided by the reference passes timed next to them.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalised {
    /// Each op's time over the median reference pass of its block, in
    /// op order.
    pub ratios: Vec<f64>,
    /// The median ratio of each block that holds an op.
    pub block_medians: Vec<f64>,
}

/// Normalises `ops`, given as (block, ms), by `block_refs[block]`, the
/// reference passes timed among that block's ops.
#[must_use]
pub fn normalise(ops: &[(usize, f64)], block_refs: &[Vec<f64>]) -> Normalised {
    let reference: Vec<f64> = block_refs.iter().map(|r| median(r)).collect();
    let ratios: Vec<f64> = ops.iter().map(|&(b, ms)| ms / reference[b]).collect();
    let mut by_block = vec![Vec::new(); block_refs.len()];
    for (&(b, _), &r) in ops.iter().zip(&ratios) {
        by_block[b].push(r);
    }
    let block_medians = by_block
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    Normalised {
        ratios,
        block_medians,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(min_samples_for(TAIL_Q), 100);
        assert_eq!(samples_beyond(100, TAIL_Q), 10);
        assert_eq!(samples_beyond(99, TAIL_Q), 9);
        assert_eq!(reportable_tail(99, &[0.5, 0.9, 0.99]), Some(0.5));
        assert_eq!(reportable_tail(100, &[0.5, 0.9, 0.99]), Some(0.9));
        assert_eq!(reportable_tail(999, &[0.5, 0.9, 0.99]), Some(0.9));
        assert_eq!(reportable_tail(1000, &[0.5, 0.9, 0.99]), Some(0.99));
        assert_eq!(reportable_tail(15, &[0.5, 0.9, 0.99]), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn each_op_is_divided_by_its_own_block_reference() {
        // The machine runs twice as slow in block 1, ops and reference
        // alike: the ratios do not move.
        let refs = vec![vec![4.0, 4.2, 3.8], vec![8.0, 8.4, 7.6], vec![4.0]];
        let ops = [(0, 100.0), (0, 104.0), (1, 200.0), (1, 208.0), (1, 200.0)];
        let n = normalise(&ops, &refs);
        assert_eq!(n.ratios, vec![25.0, 26.0, 25.0, 26.0, 25.0]);
        // Block 2 timed a reference pass but no op.
        assert_eq!(n.block_medians, vec![25.0, 25.0]);
    }
}
