//! Failure accounting: every operation the benchmark attempts and every
//! check it makes on an answer is counted here, by kind. `failed ÷
//! attempted` is the run's error rate, and any failure makes the run
//! incorrect (non-zero exit).

use std::collections::BTreeMap;
use std::sync::Arc;

use tabula_core::loss::{AccuracyLoss, LOSS_EPS};
use tabula_core::SampleProvenance;
use tabula_storage::{RowId, Table, Value};

/// A kind of operation or check, named in the run record.
pub type Kind = &'static str;

/// A dashboard query returned an error.
pub const QUERY_ERROR: Kind = "query_error";
/// A served answer differs from `SamplingCube::query` on its generation.
pub const ANSWER_MISMATCH: Kind = "answer_mismatch";
/// A served answer is further than θ from the raw rows of its cell.
pub const THETA: Kind = "theta";
/// The reloaded snapshot answers differently from the built cube.
pub const SNAPSHOT_MISMATCH: Kind = "snapshot_mismatch";
/// An append was refused.
pub const APPEND_REFUSED: Kind = "append_refused";
/// A fold failed (the ingest pipeline halted).
pub const FOLD_ERROR: Kind = "fold_error";
/// An acknowledged row is missing or altered after `flush`.
pub const ACKED_UNREADABLE: Kind = "acked_unreadable";
/// A cube build or restart failed, or repeated builds disagree.
pub const BUILD: Kind = "build";
/// The paced producer fell behind its schedule by more than the bound.
pub const LOADGEN_LATE: Kind = "loadgen_late";
/// The benchmark's freshness disagrees with the pipeline's own.
pub const FRESHNESS_AGREEMENT: Kind = "freshness_agreement";

/// First failures kept verbatim for the record.
const MAX_NOTES: usize = 20;

/// Attempted and failed counts per kind.
#[derive(Debug, Default)]
pub struct Tally {
    kinds: BTreeMap<Kind, (u64, u64)>,
    notes: Vec<String>,
}

impl Tally {
    /// Count `attempted` operations of `kind`, `failed` of which failed.
    pub fn add(&mut self, kind: Kind, attempted: u64, failed: u64) {
        let e = self.kinds.entry(kind).or_default();
        e.0 += attempted;
        e.1 += failed;
    }

    /// Count one check; on failure keep `note()` for the record.
    pub fn check(&mut self, kind: Kind, ok: bool, note: impl FnOnce() -> String) -> bool {
        self.add(kind, 1, u64::from(!ok));
        if !ok && self.notes.len() < MAX_NOTES {
            self.notes.push(format!("{kind}: {}", note()));
        }
        ok
    }

    /// Keep a failure note without counting (the count came in bulk).
    pub fn note(&mut self, msg: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(msg);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.kinds.values().map(|v| v.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.kinds.values().map(|v| v.1).sum()
    }

    /// `(attempted, failed)` of one kind.
    #[cfg(test)]
    pub fn of(&self, kind: Kind) -> (u64, u64) {
        self.kinds.get(kind).copied().unwrap_or_default()
    }

    pub fn kinds(&self) -> &BTreeMap<Kind, (u64, u64)> {
        &self.kinds
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// An answer as the checks see it: row ids plus where they came from.
#[derive(Clone, Debug)]
pub struct Expected {
    pub rows: Arc<Vec<RowId>>,
    pub provenance: SampleProvenance,
}

/// Whether a served answer equals the expected one. Served rows are
/// normally the very `Arc` the cube holds, so the common case is one
/// pointer comparison; anything else falls back to comparing the ids.
#[inline]
pub fn same_answer(rows: &Arc<Vec<RowId>>, provenance: SampleProvenance, exp: &Expected) -> bool {
    provenance == exp.provenance && (Arc::ptr_eq(rows, &exp.rows) || **rows == *exp.rows)
}

/// Whether `sample` answers the cell whose raw rows are `raw` within θ.
pub fn within_theta<L: AccuracyLoss>(
    loss: &L,
    table: &Table,
    raw: &[RowId],
    sample: &[RowId],
    theta: f64,
) -> (bool, f64) {
    let achieved = loss.loss(table, raw, sample);
    (achieved <= theta + LOSS_EPS, achieved)
}

/// Count the acknowledged rows that are not readable, unchanged, at the
/// end of `table`: row `base + i` must equal `acked(i)` for every
/// `i < n_acked`.
pub fn unreadable_acked_rows(
    table: &Table,
    base: usize,
    n_acked: usize,
    acked: impl Fn(usize) -> Vec<Value>,
) -> usize {
    if table.len() < base {
        return n_acked;
    }
    let present = (table.len() - base).min(n_acked);
    let altered = (0..present).filter(|&i| table.row(base + i) != acked(i)).count();
    altered + (n_acked - present)
}

#[cfg(test)]
mod tests {
    //! Each kind of failure the benchmark claims to count is provoked
    //! here and must show up in the tally.

    use super::*;
    use crate::run::{check_snapshot_answers, count_append, count_fold, serve_checked};
    use tabula_core::loss::MeanLoss;
    use tabula_core::{SamplingCube, SamplingCubeBuilder};
    use tabula_data::{TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};
    use tabula_ingest::{IngestConfig, IngestError, Ingestor};
    use tabula_serve::Server;
    use tabula_storage::Predicate;

    fn table(rows: usize, seed: u64) -> Arc<Table> {
        Arc::new(TaxiGenerator::new(TaxiConfig { rows, seed }).generate())
    }

    fn cube(t: &Arc<Table>, theta: f64, seed: u64) -> SamplingCube {
        let fare = t.schema().index_of("fare_amount").unwrap();
        SamplingCubeBuilder::new(Arc::clone(t), &CUBED_ATTRIBUTES[..3], MeanLoss::new(fare), theta)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn a_query_error_is_counted() {
        let t = table(2_000, 1);
        let srv = Server::new(Arc::new(cube(&t, 0.05, 1))).unwrap();
        let mut tally = Tally::default();
        // `fare_amount` is not a cubed attribute: the server refuses it.
        let bad = Predicate::eq("fare_amount", 1.0);
        assert!(!serve_checked(&srv, &bad, None, &mut tally));
        assert_eq!(tally.of(QUERY_ERROR), (1, 1));
    }

    #[test]
    fn a_served_answer_that_differs_from_the_cube_is_counted() {
        let t = table(2_000, 1);
        let srv = Server::new(Arc::new(cube(&t, 0.05, 1))).unwrap();
        let q = Workload::new(&CUBED_ATTRIBUTES[..3]).generate(&t, 1, 3).unwrap();
        let mut tally = Tally::default();
        let right = srv.cube().query(&q[0].predicate).unwrap();
        let good = Expected { rows: right.rows.clone(), provenance: right.provenance };
        assert!(serve_checked(&srv, &q[0].predicate, Some(&good), &mut tally));
        let mut other = (*right.rows).clone();
        other.pop();
        let wrong = Expected { rows: Arc::new(other), provenance: right.provenance };
        assert!(!serve_checked(&srv, &q[0].predicate, Some(&wrong), &mut tally));
        let wrong_prov =
            Expected { rows: right.rows.clone(), provenance: SampleProvenance::Global };
        if right.provenance != SampleProvenance::Global {
            assert!(!serve_checked(&srv, &q[0].predicate, Some(&wrong_prov), &mut tally));
            assert_eq!(tally.of(ANSWER_MISMATCH), (3, 2));
        } else {
            assert_eq!(tally.of(ANSWER_MISMATCH), (2, 1));
        }
    }

    #[test]
    fn an_answer_beyond_theta_is_counted() {
        let t = table(5_000, 2);
        let fare = t.schema().index_of("fare_amount").unwrap();
        let loss = MeanLoss::new(fare);
        let raw: Vec<RowId> = t.all_rows();
        // The single most expensive fare is a far worse mean than 5 %.
        let priciest = *raw
            .iter()
            .max_by(|&&a, &&b| {
                let (Value::Float64(x), Value::Float64(y)) =
                    (t.value(a as usize, fare), t.value(b as usize, fare))
                else {
                    panic!("fare is a float column")
                };
                x.total_cmp(&y)
            })
            .unwrap();
        let mut tally = Tally::default();
        let (ok, achieved) = within_theta(&loss, &t, &raw, &[priciest], 0.05);
        tally.check(THETA, ok, || format!("loss {achieved}"));
        let (ok, _) = within_theta(&loss, &t, &raw, &raw, 0.05);
        tally.check(THETA, ok, String::new);
        assert_eq!(tally.of(THETA), (2, 1));
    }

    #[test]
    fn a_reloaded_cube_that_answers_differently_is_counted() {
        let t = table(4_000, 3);
        let built = cube(&t, 0.05, 3);
        // Stand-in for a bad reload: a cube built under another θ.
        let other = cube(&t, 0.01, 3);
        let queries: Vec<Predicate> = Workload::new(&CUBED_ATTRIBUTES[..3])
            .generate(&t, 50, 4)
            .unwrap()
            .into_iter()
            .map(|q| q.predicate)
            .collect();
        let mut tally = Tally::default();
        check_snapshot_answers(&built, &built, &queries, &mut tally);
        assert_eq!(tally.of(SNAPSHOT_MISMATCH), (50, 0));
        check_snapshot_answers(&built, &other, &queries, &mut tally);
        assert!(tally.of(SNAPSHOT_MISMATCH).1 > 0, "{:?}", tally.of(SNAPSHOT_MISMATCH));
    }

    #[test]
    fn refused_appends_fold_errors_and_unreadable_rows_are_counted() {
        let t = table(2_000, 5);
        let fare = t.schema().index_of("fare_amount").unwrap();
        let srv = Arc::new(Server::new(Arc::new(cube(&t, 0.05, 5))).unwrap());
        let ingestor =
            Ingestor::start(Arc::clone(&srv), MeanLoss::new(fare), IngestConfig::default());
        let mut tally = Tally::default();
        // A malformed row is refused at the producer.
        assert!(!count_append(&mut tally, &ingestor.append(vec![vec![Value::Int64(1)]])));
        let feed = table(10, 6);
        let batch = (0..feed.len()).map(|i| feed.row(i)).collect();
        assert!(count_append(&mut tally, &ingestor.append(batch)));
        assert_eq!(tally.of(APPEND_REFUSED), (2, 1));

        // An acked row that is not in the table after flush is counted,
        // and so is one whose values changed.
        ingestor.flush().unwrap();
        let served = srv.cube();
        assert_eq!(unreadable_acked_rows(served.table(), t.len(), feed.len(), |i| feed.row(i)), 0);
        assert_eq!(unreadable_acked_rows(&t, t.len(), feed.len(), |i| feed.row(i)), feed.len());
        let shifted =
            unreadable_acked_rows(served.table(), t.len() - 1, feed.len(), |i| feed.row(i));
        assert!(shifted > 0);

        // After shutdown the log is closed: a further append is refused.
        let log = Arc::clone(ingestor.log());
        let stats = ingestor.shutdown();
        assert!(!count_append(&mut tally, &log.append(vec![feed.row(0)])));
        assert_eq!(tally.of(APPEND_REFUSED), (3, 2));

        // A fold failure surfaces as an error from flush or shutdown, and
        // is counted wherever it surfaces.
        assert!(count_fold(&mut tally, "shutdown", &stats));
        let halted: Result<u64, IngestError> = Err(IngestError::Fold("refresh failed".into()));
        assert!(!count_fold(&mut tally, "flush", &halted));
        assert_eq!(tally.of(FOLD_ERROR), (2, 1));
        assert_eq!(tally.failed(), 3);
        assert_eq!(tally.attempted(), 5);
    }
}
