//! The three workloads. Every workload runs the same lifecycle — build,
//! snapshot and restart, serve, ingest under reads — so every metric is
//! measured on every workload; what differs is the data, the loss, and
//! which phase gets most of the measured time.

use tabula_data::meters_to_norm;

/// Accuracy-loss function cubed by a workload.
#[derive(Clone, Copy, Debug)]
pub enum LossKind {
    /// Relative error of mean(fare_amount), threshold θ as a fraction.
    Mean { theta: f64 },
    /// Heat-map average minimum distance over `pickup`, θ in metres.
    Heatmap { meters: f64 },
}

impl LossKind {
    pub fn theta(self) -> f64 {
        match self {
            LossKind::Mean { theta } => theta,
            LossKind::Heatmap { meters } => meters_to_norm(meters),
        }
    }

    pub fn describe(self) -> String {
        match self {
            LossKind::Mean { theta } => format!("mean(fare_amount) theta={theta}"),
            LossKind::Heatmap { meters } => format!("heatmap(pickup) theta={meters}m"),
        }
    }
}

/// One workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Rows of the generated base table.
    pub rows: usize,
    /// Cubed attributes (a prefix of `CUBED_ATTRIBUTES`).
    pub attrs: usize,
    pub loss: LossKind,
    /// Builds per run; `setup_s` is their median.
    pub builds: usize,
    /// Snapshot reloads per run; `restart_s` is their median.
    pub restarts: usize,
    /// Closed-loop clients of the query phase.
    pub clients: usize,
    /// Length of the seeded zoom/pan session the clients replay.
    pub session: usize,
    /// Share of `--seconds` spent in the query phase; the rest goes to
    /// the ingest phase. At 0 the query metrics come from the reader
    /// that runs beside ingestion.
    pub query_share: f64,
    /// Served answers checked against θ on the raw rows, per phase.
    pub theta_cells: usize,
}

/// Cells of the fixed query set the reader beside ingestion replays.
pub const READ_CELLS: usize = 400;
/// Open-loop producer: rows per second, in batches of this many rows.
pub const FEED_ROWS_PER_SEC: f64 = 20_000.0;
pub const BATCH_ROWS: usize = 1_000;

/// Revisit probability of the dashboard session (a pan back re-issues a
/// recently seen view).
pub const REVISIT: f64 = 0.4;

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "cold_start",
        why: "1M-row mean build: real-run fetch, greedy sampling and the SamGraph join dominate; \
              the only large snapshot write and reload, then serving beside 1M-row folds",
        rows: 1_000_000,
        attrs: 5,
        loss: LossKind::Mean { theta: 0.05 },
        builds: 5,
        restarts: 11,
        clients: 1,
        session: 0,
        query_share: 0.0,
        theta_cells: 48,
    },
    Spec {
        name: "heatmap_session",
        why: "the paper's geospatial case: heat-map loss, two zoom/pan clients whose session \
              overflows the 64 MB answer cache",
        rows: 200_000,
        attrs: 5,
        loss: LossKind::Heatmap { meters: 500.0 },
        builds: 7,
        restarts: 21,
        clients: 2,
        session: 600_000,
        query_share: 0.65,
        theta_cells: 12,
    },
    Spec {
        name: "ingest_under_reads",
        why: "20k rows/s of appends beside a closed-loop reader: every fold reruns O(table) work \
              and invalidates the answer cache",
        rows: 200_000,
        attrs: 3,
        loss: LossKind::Mean { theta: 0.05 },
        builds: 21,
        restarts: 21,
        clients: 1,
        session: 0,
        query_share: 0.0,
        theta_cells: 48,
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}
