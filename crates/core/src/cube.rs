//! The materialized sampling cube: the artifact queried by the dashboard.
//!
//! Physical layout (paper Figure 4): a **cube table** mapping each iceberg
//! cell to a sample id, and a **sample table** holding the persisted
//! representative samples. Queries whose cell is *not* in the cube table
//! are answered with the **global sample** — the dry run proved its loss
//! is within θ for those cells, so the guarantee holds either way.

use crate::{CoreError, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;
use tabula_obs::ProvenanceCounters;
use tabula_storage::cube::CellKey;
use tabula_storage::{CmpOp, FxHashMap, Predicate, RowId, Table};

/// Where a query answer's sample came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleProvenance {
    /// A materialized local (representative) sample; payload is the
    /// sample-table id.
    Local(u32),
    /// The global random sample.
    Global,
    /// The query's cell cannot exist (a predicate value outside the
    /// attribute's domain), so the raw answer is empty.
    EmptyDomain,
}

/// Answer to a dashboard query: row ids of the sample plus provenance.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// Sample rows (ids into the raw table the cube was built over).
    pub rows: Arc<Vec<RowId>>,
    /// Which path produced them.
    pub provenance: SampleProvenance,
}

impl QueryAnswer {
    /// Number of tuples the dashboard will receive.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the answer carries no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Materialize the sample as a standalone table (what actually gets
    /// shipped to the visualization tool).
    pub fn materialize(&self, table: &Table) -> Table {
        table.take(&self.rows)
    }

    /// [`materialize`](Self::materialize) into an existing table of the
    /// same schema, reusing its column buffer capacity — the serving and
    /// incremental-refresh paths rematerialize answers round after round,
    /// and a kept scratch table makes that allocation-free at steady state.
    /// Returns `false` (leaving `out` untouched beyond cleared columns) on
    /// a schema mismatch.
    pub fn materialize_into(&self, table: &Table, out: &mut Table) -> bool {
        table.take_into(&self.rows, out)
    }
}

/// Per-stage build statistics reported by the benchmark harness.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BuildStats {
    /// Wall time of the dry-run stage.
    pub dry_run: Duration,
    /// Wall time of the real-run stage.
    pub real_run: Duration,
    /// Wall time of SamGraph construction + Algorithm 3.
    pub selection: Duration,
    /// Total initialization wall time.
    pub total: Duration,
    /// Populated cells across the whole cube lattice.
    pub total_cells: usize,
    /// Iceberg cells found by the dry run.
    pub iceberg_cells: usize,
    /// Cuboids processed / skipped by the real run.
    pub cuboids_processed: usize,
    /// Cuboids skipped because they held no iceberg cells.
    pub cuboids_skipped: usize,
    /// Always 0: the real run has one fetch path (see
    /// [`RealRunStats`](crate::realrun::RealRunStats)). Kept for the
    /// snapshot's JSON `stats` block and benchmark records.
    pub prune_plans: usize,
    /// Always 0, like [`prune_plans`](Self::prune_plans).
    pub group_all_plans: usize,
    /// Local samples drawn before representative selection.
    pub samples_before_selection: usize,
    /// Samples persisted after selection.
    pub samples_after_selection: usize,
    /// Edges of the SamGraph (0 when selection is disabled).
    pub samgraph_edges: usize,
    /// Tuples in the global sample.
    pub global_sample_size: usize,
}

/// Memory footprint of the cube's three physical components (paper §V-B).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MemoryBreakdown {
    /// Bytes of the global sample's tuples.
    pub global_bytes: usize,
    /// Bytes of the cube table (cell keys + sample ids).
    pub cube_table_bytes: usize,
    /// Bytes of the persisted samples' tuples.
    pub sample_table_bytes: usize,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.global_bytes + self.cube_table_bytes + self.sample_table_bytes
    }
}

/// The queryable materialized sampling cube.
#[derive(Debug, Clone)]
pub struct SamplingCube {
    table: Arc<Table>,
    attrs: Vec<String>,
    cols: Vec<usize>,
    theta: f64,
    cube_table: FxHashMap<CellKey, u32>,
    samples: Vec<Arc<Vec<RowId>>>,
    global_sample: Arc<Vec<RowId>>,
    stats: BuildStats,
    /// Where each query answer came from (one relaxed counter bump per
    /// query; clones share the same counters).
    provenance: ProvenanceCounters,
}

impl SamplingCube {
    /// Assemble a cube. Used by the builder; not part of the typical user
    /// path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        table: Arc<Table>,
        attrs: Vec<String>,
        cols: Vec<usize>,
        theta: f64,
        cube_table: FxHashMap<CellKey, u32>,
        samples: Vec<Arc<Vec<RowId>>>,
        global_sample: Arc<Vec<RowId>>,
        stats: BuildStats,
    ) -> Self {
        SamplingCube {
            table,
            attrs,
            cols,
            theta,
            cube_table,
            samples,
            global_sample,
            stats,
            provenance: ProvenanceCounters::global(),
        }
    }

    /// Re-home this cube's provenance counters in `registry` (they default
    /// to the process-wide registry). Use a private [`tabula_obs::Registry`]
    /// when isolated accounting is needed, e.g. in tests or benchmarks.
    pub fn with_registry(mut self, registry: &tabula_obs::Registry) -> Self {
        self.provenance = ProvenanceCounters::in_registry(registry);
        self
    }

    /// The cube's provenance counters (local hits / global-sample
    /// fallbacks / empty-domain misses).
    pub fn provenance_counters(&self) -> &ProvenanceCounters {
        &self.provenance
    }

    /// The raw table the cube was built over.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The cubed attribute names, in cube order.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// The cubed attributes' column indexes in the raw table, in cube
    /// order (parallel to [`SamplingCube::attrs`]).
    pub fn cubed_cols(&self) -> &[usize] {
        &self.cols
    }

    /// The accuracy-loss threshold the cube guarantees.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Build statistics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Number of materialized (iceberg) cells in the cube table.
    pub fn materialized_cells(&self) -> usize {
        self.cube_table.len()
    }

    /// Number of persisted samples in the sample table.
    pub fn persisted_samples(&self) -> usize {
        self.samples.len()
    }

    /// The global sample's row ids.
    pub fn global_sample(&self) -> &Arc<Vec<RowId>> {
        &self.global_sample
    }

    /// Answer `SELECT sample FROM cube WHERE <pred>`.
    ///
    /// Every predicate term must be an equality on a cubed attribute (the
    /// paper: "the attributes in the WHERE clause must be a subset of the
    /// cubed attributes").
    pub fn query(&self, pred: &Predicate) -> Result<QueryAnswer> {
        let cell = self.cell_for_predicate(pred)?;
        match cell {
            Some(cell) => Ok(self.query_cell(&cell)),
            None => {
                self.provenance.record_cell_miss();
                Ok(QueryAnswer {
                    rows: Arc::new(Vec::new()),
                    provenance: SampleProvenance::EmptyDomain,
                })
            }
        }
    }

    /// Answer a query already resolved to a cube cell.
    pub fn query_cell(&self, cell: &CellKey) -> QueryAnswer {
        match self.cube_table.get(cell) {
            Some(&sample_id) => {
                self.provenance.record_local_hit();
                QueryAnswer {
                    rows: Arc::clone(&self.samples[sample_id as usize]),
                    provenance: SampleProvenance::Local(sample_id),
                }
            }
            None => {
                self.provenance.record_global_hit();
                QueryAnswer {
                    rows: Arc::clone(&self.global_sample),
                    provenance: SampleProvenance::Global,
                }
            }
        }
    }

    /// Resolve a predicate to a cube cell. `Ok(None)` means some predicate
    /// value is outside its attribute's domain (the raw answer is empty).
    pub fn cell_for_predicate(&self, pred: &Predicate) -> Result<Option<CellKey>> {
        let mut codes: Vec<Option<u32>> = vec![None; self.attrs.len()];
        for term in pred.terms() {
            if term.op != CmpOp::Eq {
                return Err(CoreError::Config(format!(
                    "sampling-cube queries support equality predicates only (column {})",
                    term.column
                )));
            }
            let pos = self
                .attrs
                .iter()
                .position(|a| a == &term.column)
                .ok_or_else(|| CoreError::NotCubedAttribute(term.column.clone()))?;
            let cat = self.table.cat(self.cols[pos])?;
            match cat.lookup(&term.value) {
                Some(code) => {
                    if codes[pos].is_some_and(|c| c != code) {
                        // Contradictory equality terms: empty answer.
                        return Ok(None);
                    }
                    codes[pos] = Some(code);
                }
                None => return Ok(None),
            }
        }
        Ok(Some(CellKey::new(codes)))
    }

    /// The paper's memory-footprint accounting: bytes of the three
    /// physical components, counting each persisted sample tuple at the
    /// table's row width (what materializing it in the data system costs).
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        let row = self.table.row_bytes();
        let n = self.attrs.len();
        // Cell key: n × (1 presence byte + 4 code bytes), plus a 4-byte
        // sample id and nominal hash-table slot overhead.
        let per_entry = n * 5 + 4 + 16;
        MemoryBreakdown {
            global_bytes: self.global_sample.len() * row,
            cube_table_bytes: self.cube_table.len() * per_entry,
            sample_table_bytes: self.samples.iter().map(|s| s.len() * row).sum(),
        }
    }

    /// Iterate the cube table (cell → sample id) in unspecified order.
    pub fn cube_table(&self) -> impl Iterator<Item = (&CellKey, u32)> + '_ {
        self.cube_table.iter().map(|(k, &v)| (k, v))
    }

    /// A persisted sample's rows by id.
    pub fn sample(&self, id: u32) -> &Arc<Vec<RowId>> {
        &self.samples[id as usize]
    }
}

/// Serializable form of a cube (row ids only; pair with the same raw
/// table when loading).
#[derive(Serialize, Deserialize)]
pub struct CubePersist {
    /// Cubed attribute names.
    pub attrs: Vec<String>,
    /// Loss threshold.
    pub theta: f64,
    /// Cube table as (cell, sample id) pairs.
    pub cube_table: Vec<(CellKey, u32)>,
    /// Sample table.
    pub samples: Vec<Vec<RowId>>,
    /// Global sample.
    pub global_sample: Vec<RowId>,
    /// Build statistics.
    pub stats: BuildStats,
}

impl SamplingCube {
    /// Extract the serializable state.
    pub fn to_persist(&self) -> CubePersist {
        let mut cube_table: Vec<(CellKey, u32)> =
            self.cube_table.iter().map(|(k, &v)| (k.clone(), v)).collect();
        cube_table.sort_by(|a, b| a.0.codes.cmp(&b.0.codes));
        CubePersist {
            attrs: self.attrs.clone(),
            theta: self.theta,
            cube_table,
            samples: self.samples.iter().map(|s| s.as_ref().clone()).collect(),
            global_sample: self.global_sample.as_ref().clone(),
            stats: self.stats.clone(),
        }
    }

    /// Rebuild a cube from persisted state plus the raw table it was
    /// built over.
    pub fn from_persist(persist: CubePersist, table: Arc<Table>) -> Result<Self> {
        let cols: Vec<usize> = persist
            .attrs
            .iter()
            .map(|a| table.schema().index_of(a))
            .collect::<std::result::Result<_, _>>()?;
        Ok(SamplingCube {
            table,
            attrs: persist.attrs,
            cols,
            theta: persist.theta,
            cube_table: persist.cube_table.into_iter().collect(),
            samples: persist.samples.into_iter().map(Arc::new).collect(),
            global_sample: Arc::new(persist.global_sample),
            stats: persist.stats,
            provenance: ProvenanceCounters::global(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{MaterializationMode, SamplingCubeBuilder};
    use crate::loss::MeanLoss;
    use tabula_data::example_dcm_table;

    fn cube() -> SamplingCube {
        let t = Arc::new(example_dcm_table());
        let fare = t.schema().index_of("fare").unwrap();
        SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], MeanLoss::new(fare), 0.10)
            .seed(1)
            .mode(MaterializationMode::Tabula)
            .build()
            .unwrap()
    }

    #[test]
    fn query_hits_local_sample_for_iceberg_cells() {
        let c = cube();
        assert!(c.materialized_cells() > 0);
        // Find some materialized cell and query it by predicate.
        let (cell, sample_id) = {
            let (k, v) = c.cube_table().next().unwrap();
            (k.clone(), v)
        };
        let answer = c.query_cell(&cell);
        assert_eq!(answer.provenance, SampleProvenance::Local(sample_id));
        assert!(!answer.is_empty());
    }

    #[test]
    fn query_falls_back_to_global_sample() {
        let c = cube();
        // Query a cell that should not be iceberg: the D = "[5,10)" slice
        // (fares near the global mean in the mini table). If it happens to
        // be materialized under this seed, use ALL instead — whichever is
        // absent from the cube table.
        let all_cell = CellKey::new(vec![None, None, None]);
        let ans = c.query_cell(&all_cell);
        match ans.provenance {
            SampleProvenance::Global => {
                assert_eq!(ans.rows.len(), c.global_sample().len());
            }
            SampleProvenance::Local(_) => { /* legitimate if ALL is iceberg */ }
            SampleProvenance::EmptyDomain => panic!("ALL cell cannot be empty-domain"),
        }
    }

    #[test]
    fn out_of_domain_value_yields_empty_answer() {
        let c = cube();
        let ans = c.query(&Predicate::eq("M", "bitcoin")).unwrap();
        assert_eq!(ans.provenance, SampleProvenance::EmptyDomain);
        assert!(ans.is_empty());
        assert_eq!(ans.materialize(c.table()).len(), 0);
    }

    #[test]
    fn non_cubed_attribute_is_rejected() {
        let c = cube();
        assert!(matches!(
            c.query(&Predicate::eq("fare", 5.0)),
            Err(CoreError::NotCubedAttribute(_))
        ));
        let range = Predicate::all().and("C", CmpOp::Gt, 1i64);
        assert!(matches!(c.query(&range), Err(CoreError::Config(_))));
    }

    #[test]
    fn contradictory_equalities_are_empty() {
        let c = cube();
        let p = Predicate::eq("M", "cash").and("M", CmpOp::Eq, "credit");
        let ans = c.query(&p).unwrap();
        assert_eq!(ans.provenance, SampleProvenance::EmptyDomain);
    }

    #[test]
    fn memory_breakdown_is_consistent() {
        let c = cube();
        let m = c.memory_breakdown();
        assert!(m.global_bytes > 0);
        assert_eq!(m.total(), m.global_bytes + m.cube_table_bytes + m.sample_table_bytes);
        // Sample table dominated by actual tuples.
        let row = c.table().row_bytes();
        let expected: usize =
            (0..c.persisted_samples() as u32).map(|i| c.sample(i).len() * row).sum();
        assert_eq!(m.sample_table_bytes, expected);
    }

    #[test]
    fn persistence_round_trip() {
        let c = cube();
        let json = serde_json::to_string(&c.to_persist()).unwrap();
        let persist: CubePersist = serde_json::from_str(&json).unwrap();
        let back = SamplingCube::from_persist(persist, Arc::clone(c.table())).unwrap();
        assert_eq!(back.materialized_cells(), c.materialized_cells());
        assert_eq!(back.persisted_samples(), c.persisted_samples());
        // Same query, same answer.
        let p = Predicate::eq("M", "dispute");
        let a = c.query(&p).unwrap();
        let b = back.query(&p).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.provenance, b.provenance);
    }

    #[test]
    fn materialized_answer_has_sample_tuples() {
        let c = cube();
        let ans = c.query(&Predicate::eq("M", "dispute")).unwrap();
        let mat = ans.materialize(c.table());
        assert_eq!(mat.len(), ans.len());
        assert_eq!(mat.schema(), c.table().schema());
    }
}
