//! Function 1 of the paper: relative error of the statistical mean,
//! `ABS((AVG(Raw) − AVG(Sam)) / AVG(Raw))`.

use super::{AccuracyLoss, REL_EPS};
use crate::sampling::{run_incremental_greedy, IncrementalEval};
use tabula_storage::agg::SumCount;
use tabula_storage::{RowId, Table};

/// Statistical-mean accuracy loss over one numeric target attribute.
#[derive(Debug, Clone)]
pub struct MeanLoss {
    /// Column index of the target attribute.
    attr: usize,
}

impl MeanLoss {
    /// Loss over the numeric column at index `attr`.
    pub fn new(attr: usize) -> Self {
        MeanLoss { attr }
    }

    #[inline]
    fn value(&self, table: &Table, row: RowId) -> f64 {
        table
            .column(self.attr)
            .as_f64_slice()
            .map(|s| s[row as usize])
            .or_else(|| table.column(self.attr).as_i64_slice().map(|s| s[row as usize] as f64))
            .expect("MeanLoss target attribute must be numeric")
    }

    /// The relative error between a raw mean and a sample mean, with the
    /// conventions the trait contract requires.
    pub(crate) fn relative_error(raw: Option<f64>, sample: Option<f64>) -> f64 {
        match (raw, sample) {
            (None, _) => 0.0,
            (Some(_), None) => f64::INFINITY,
            (Some(r), Some(s)) => (r - s).abs() / r.abs().max(REL_EPS),
        }
    }
}

/// Relative widening of [`MeanLoss`]'s interval-join key range: far above
/// the few ulps of rounding in `finish` and in the range endpoints.
const KEY_SLACK: f64 = 1e-9;

/// Sample context: the sample's mean.
pub struct MeanCtx {
    mean: Option<f64>,
}

impl AccuracyLoss for MeanLoss {
    type State = SumCount;
    type SampleCtx = MeanCtx;

    fn name(&self) -> &'static str {
        "statistical_mean"
    }

    fn state_depends_on_sample(&self) -> bool {
        false
    }

    fn prepare(&self, table: &Table, sample: &[RowId]) -> MeanCtx {
        let mut sc = SumCount::default();
        for &r in sample {
            sc.add(self.value(table, r));
        }
        MeanCtx { mean: sc.mean() }
    }

    fn fold(&self, _ctx: &MeanCtx, state: &mut SumCount, table: &Table, row: RowId) {
        state.add(self.value(table, row));
    }

    fn finish(&self, ctx: &MeanCtx, state: &SumCount) -> f64 {
        Self::relative_error(state.mean(), ctx.mean)
    }

    fn state_key(&self, state: &SumCount) -> Option<f64> {
        state.mean()
    }

    /// With raw mean `r` and sample mean `s`, `finish ≤ θ` means
    /// `|r − s| ≤ θ·max(|r|, REL_EPS)`. For θ < 1 that holds only if
    /// `r` lies between `s/(1+θ)` and `s/(1−θ)` (when `|r| ≥ REL_EPS`) or
    /// within `REL_EPS` of `s` (when `|r| < REL_EPS`); the range is the
    /// hull of both. `finish` rounds at most twice (subtract, divide), so
    /// a computed `finish ≤ θ` implies the exact loss is at most
    /// θ·(1 + `KEY_SLACK`); the hull is taken at that widened θ and its
    /// endpoints are widened by the same relative slack for their own
    /// rounding.
    fn key_range(&self, ctx: &MeanCtx, theta: f64) -> Option<(f64, f64)> {
        let s = ctx.mean.filter(|s| s.is_finite())?;
        let t = theta * (1.0 + KEY_SLACK);
        if !(0.0..1.0).contains(&t) {
            return None;
        }
        let (a, b) = (s / (1.0 + t), s / (1.0 - t));
        let lo = a.min(b).min(s - REL_EPS);
        let hi = a.max(b).max(s + REL_EPS);
        let range = (lo - lo.abs() * KEY_SLACK, hi + hi.abs() * KEY_SLACK);
        (range.0.is_finite() && range.1.is_finite()).then_some(range)
    }

    fn signature(&self, table: &Table, rows: &[RowId]) -> [f64; 2] {
        if rows.is_empty() {
            return [0.0, 0.0];
        }
        let sum: f64 = rows.iter().map(|&r| self.value(table, r)).sum();
        [sum / rows.len() as f64, 0.0]
    }

    fn sample_greedy(&self, table: &Table, raw: &[RowId], theta: f64) -> Vec<RowId> {
        let values: Vec<f64> = raw.iter().map(|&r| self.value(table, r)).collect();
        let mut raw_state = SumCount::default();
        for &v in &values {
            raw_state.add(v);
        }
        let eval = MeanGreedy { values, raw_mean: raw_state.mean(), sample: SumCount::default() };
        run_incremental_greedy(eval, raw, theta)
    }
}

/// Incremental greedy evaluator: O(1) per candidate.
struct MeanGreedy {
    /// Target values aligned with the raw row list.
    values: Vec<f64>,
    raw_mean: Option<f64>,
    sample: SumCount,
}

impl IncrementalEval for MeanGreedy {
    fn current(&self) -> f64 {
        MeanLoss::relative_error(self.raw_mean, self.sample.mean())
    }

    fn loss_if_added(&self, idx: usize) -> f64 {
        let mut s = self.sample;
        s.add(self.values[idx]);
        MeanLoss::relative_error(self.raw_mean, s.mean())
    }

    fn add(&mut self, idx: usize) {
        self.sample.add(self.values[idx]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_storage::{ColumnType, Field, Schema, TableBuilder};

    fn table(values: &[f64]) -> Table {
        let schema = Schema::new(vec![Field::new("v", ColumnType::Float64)]);
        let mut b = TableBuilder::new(schema);
        for &v in values {
            b.push_row(&[v.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn exact_relative_error() {
        let t = table(&[2.0, 4.0, 6.0, 8.0]); // mean 5
        let loss = MeanLoss::new(0);
        let all: Vec<RowId> = t.all_rows();
        // Sample {4, 6}: mean 5 → zero loss.
        assert!(loss.loss(&t, &all, &[1, 2]) < 1e-12);
        // Sample {2}: mean 2 → |5−2|/5 = 0.6.
        assert!((loss.loss(&t, &all, &[0]) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn raw_mean_near_zero_is_guarded() {
        let t = table(&[-1.0, 1.0]); // mean 0
        let loss = MeanLoss::new(0);
        let l = loss.loss(&t, &[0, 1], &[0]);
        assert!(l.is_finite() && l > 0.0); // guarded, not NaN/∞ division
    }

    #[test]
    fn greedy_reaches_tight_threshold() {
        let values: Vec<f64> = (0..200).map(|i| (i % 37) as f64 + 0.5).collect();
        let t = table(&values);
        let loss = MeanLoss::new(0);
        let all: Vec<RowId> = t.all_rows();
        for theta in [0.2, 0.05, 0.01, 0.001] {
            let sample = loss.sample_greedy(&t, &all, theta);
            let achieved = loss.loss(&t, &all, &sample);
            assert!(achieved <= theta, "θ={theta}: achieved {achieved}");
            // Tight thresholds should still need only a handful of tuples:
            // the greedy picks values that steer the sample mean directly.
            assert!(sample.len() <= 10, "θ={theta}: sample size {}", sample.len());
        }
    }

    #[test]
    fn works_on_integer_columns() {
        let schema = Schema::new(vec![Field::new("v", ColumnType::Int64)]);
        let mut b = TableBuilder::new(schema);
        for v in [1i64, 2, 3, 4] {
            b.push_row(&[v.into()]).unwrap();
        }
        let t = b.finish();
        let loss = MeanLoss::new(0);
        assert!((loss.loss(&t, &[0, 1, 2, 3], &[1, 2]) - 0.0).abs() < 1e-12);
    }
}
