//! The batch part: the paper's two headline pipelines on one pool.
//!
//! (a) `hdbscan`: `hdbscan_memogfk` → `dendrogram_par` → `condense_tree` →
//! `extract_eom` on GeoLife-like 3D points. (b) `emst`: `emst_memogfk` →
//! `dendrogram_par` on Household-like 7D points. Reps alternate (a), (b).

use crate::alloc;
use crate::inputs::{self, MIN_CLUSTER_SIZE, MIN_PTS};
use crate::report::{median, Metrics, Tally};
use crate::traced::{traced, SelfTimes};
use parclust::{
    condense_tree, dendrogram_par, emst_boruvka, emst_memogfk, extract_eom, hdbscan_gantao,
    hdbscan_memogfk, Edge, Point, Stats,
};
use rayon::ThreadPool;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Hdbscan,
    Emst,
}

impl Op {
    pub const ALL: [Op; 2] = [Op::Hdbscan, Op::Emst];

    pub fn name(self) -> &'static str {
        match self {
            Op::Hdbscan => "hdbscan",
            Op::Emst => "emst",
        }
    }
}

/// What one op run produced, for the output checks.
#[derive(PartialEq)]
pub struct Output {
    pub edges: Vec<Edge>,
    /// EOM labels (op (a) only).
    pub labels: Vec<u32>,
}

/// Timings of one op run. `stats` holds the pipeline's own phase split.
pub struct OpRun {
    pub wall_s: f64,
    pub stats: Stats,
    pub dendrogram_s: f64,
    pub condense_s: f64,
    pub eom_s: f64,
    /// Peak heap above what was live when the op started.
    pub peak_bytes: usize,
}

impl OpRun {
    /// Wall time the named layers account for.
    fn attributed_s(&self) -> f64 {
        let s = &self.stats;
        s.build_tree
            + s.core_dist
            + s.wspd
            + s.kruskal
            + self.dendrogram_s
            + self.condense_s
            + self.eom_s
    }
}

pub struct Batch {
    pub pool: ThreadPool,
    hdbscan_points: Vec<Point<3>>,
    emst_points: Vec<Point<7>>,
    /// Outputs of the untimed warm-up, which every rep must reproduce.
    reference: Vec<Output>,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot = t0.elapsed().as_secs_f64();
    out
}

impl Batch {
    /// Generate the inputs, build the pool, and warm up each op once.
    pub fn setup(seed: u64, threads: usize) -> Batch {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("the batch pool spawns its worker threads");
        let mut batch = Batch {
            pool,
            hdbscan_points: inputs::hdbscan_points(seed),
            emst_points: inputs::emst_points(seed),
            reference: Vec::new(),
        };
        batch.reference = Op::ALL.iter().map(|&op| batch.run(op).1).collect();
        batch
    }

    /// One timed run of `op` on the batch pool.
    pub fn run(&self, op: Op) -> (OpRun, Output) {
        let live_before = alloc::live();
        alloc::reset_peak();
        let t0 = Instant::now();
        let (mut dendrogram_s, mut condense_s, mut eom_s) = (0.0, 0.0, 0.0);
        let (stats, output) = self.pool.install(|| match op {
            Op::Hdbscan => {
                let pts = &self.hdbscan_points;
                let h = hdbscan_memogfk(pts, MIN_PTS);
                let d = timed(&mut dendrogram_s, || dendrogram_par(pts.len(), &h.edges, 0));
                let ct = timed(&mut condense_s, || condense_tree(&d, MIN_CLUSTER_SIZE));
                let labels = timed(&mut eom_s, || extract_eom(&ct));
                let edges = h.edges;
                (h.stats, Output { edges, labels })
            }
            Op::Emst => {
                let pts = &self.emst_points;
                let e = emst_memogfk(pts);
                let d = timed(&mut dendrogram_s, || dendrogram_par(pts.len(), &e.edges, 0));
                drop(d);
                let edges = e.edges;
                (
                    e.stats,
                    Output {
                        edges,
                        labels: Vec::new(),
                    },
                )
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let run = OpRun {
            wall_s,
            stats,
            dendrogram_s,
            condense_s,
            eom_s,
            peak_bytes: alloc::peak().saturating_sub(live_before),
        };
        (run, output)
    }

    fn n(&self, op: Op) -> usize {
        match op {
            Op::Hdbscan => self.hdbscan_points.len(),
            Op::Emst => self.emst_points.len(),
        }
    }

    /// The MSTs of the warm-up must match an independent algorithm:
    /// `hdbscan_gantao` for (a), `emst_boruvka` for (b), compared as
    /// sorted edge weights, bit for bit.
    pub fn check_references(&self, tally: &mut Tally) {
        fn sorted_bits(edges: &[Edge]) -> Vec<u64> {
            let mut w: Vec<u64> = edges.iter().map(|e| e.w.to_bits()).collect();
            w.sort_unstable();
            w
        }
        let (gantao, boruvka) = self.pool.install(|| {
            (
                hdbscan_gantao(&self.hdbscan_points, MIN_PTS).edges,
                emst_boruvka(&self.emst_points).edges,
            )
        });
        for (op, other, name) in [
            (Op::Hdbscan, gantao, "hdbscan_gantao"),
            (Op::Emst, boruvka, "emst_boruvka"),
        ] {
            let ours = &self.reference[op as usize].edges;
            tally.check(
                ours.len() + 1 == self.n(op) && sorted_bits(ours) == sorted_bits(&other),
                || format!("{} MST weights differ from {name}", op.name()),
            );
        }
    }
}

/// The timed reps of a run, plus the pool's scheduler counters over them.
#[derive(Default)]
pub struct BatchSamples {
    pub runs: [Vec<OpRun>; 2],
    pool_jobs: u64,
    pool_steal_hits: u64,
    pool_steal_attempts: u64,
    pool_parks: u64,
}

impl BatchSamples {
    pub fn reps(&self) -> usize {
        self.runs[1].len()
    }

    /// Median wall time of `op`.
    pub fn wall_s(&self, op: Op) -> f64 {
        median(
            &self.runs[op as usize]
                .iter()
                .map(|r| r.wall_s)
                .collect::<Vec<_>>(),
        )
    }
}

/// One rep: (a) then (b). Each output must equal the warm-up's.
pub fn unit(batch: &Batch, samples: &mut BatchSamples, tally: &mut Tally) {
    let before = batch.pool.metrics();
    for op in Op::ALL {
        let (run, out) = batch.run(op);
        let same = out == batch.reference[op as usize];
        tally.op(same);
        tally.check(same, || {
            format!("{} rep output differs from the warm-up", op.name())
        });
        samples.runs[op as usize].push(run);
    }
    let after = batch.pool.metrics();
    samples.pool_jobs += after.total_jobs() - before.total_jobs();
    samples.pool_steal_hits += after.total_steal_hits() - before.total_steal_hits();
    samples.pool_steal_attempts += after.total_steal_attempts() - before.total_steal_attempts();
    samples.pool_parks += after.total_parks() - before.total_parks();
}

/// One traced run of `op`: its timings and per-span self times.
pub struct TracedOp {
    run: OpRun,
    spans: SelfTimes,
}

pub fn traced_op(batch: &Batch, op: Op, tally: &mut Tally) -> TracedOp {
    let ((run, out), spans, complete) = traced(marker(op), || {
        let _window = match op {
            Op::Hdbscan => parclust_obs::span!("bench.hdbscan"),
            Op::Emst => parclust_obs::span!("bench.emst"),
        };
        batch.run(op)
    });
    tally.op(out == batch.reference[op as usize]);
    tally.check(complete, || {
        format!("trace ring wrapped during traced {}", op.name())
    });
    TracedOp { run, spans }
}

fn marker(op: Op) -> &'static str {
    match op {
        Op::Hdbscan => "bench.hdbscan",
        Op::Emst => "bench.emst",
    }
}

/// Per-layer metrics of one op: medians of the untraced reps for the
/// `Stats` timings and the timed calls, spans and attribution from the
/// traced run, exact work counts from `Stats`.
pub fn layer_metrics(batch: &Batch, op: Op, samples: &BatchSamples, t: &TracedOp, m: &mut Metrics) {
    let runs = &samples.runs[op as usize];
    let med = |f: &dyn Fn(&OpRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let p = op.name();
    let span = |name: &str| t.spans.get(name).copied().unwrap_or(0.0);
    let s = &t.run.stats;

    m.put(
        format!("{p}.kdtree.build_s"),
        med(&|r| r.stats.build_tree),
        "s",
    );
    if op == Op::Hdbscan {
        m.put("hdbscan.kdtree.knn_all_s", med(&|r| r.stats.core_dist), "s");
    }
    m.put(format!("{p}.wspd.get_rho_s"), span("wspd.get_rho"), "s");
    m.put(format!("{p}.wspd.get_pairs_s"), span("wspd.get_pairs"), "s");
    m.put(format!("{p}.wspd.rounds"), s.rounds as f64, "count");
    m.put(
        format!("{p}.wspd.pairs_materialized"),
        s.pairs_materialized as f64,
        "count",
    );
    m.put(
        format!("{p}.wspd.peak_live_pairs"),
        s.peak_live_pairs as f64,
        "count",
    );
    m.put(format!("{p}.bccp.calls"), s.bccp_calls as f64, "count");
    m.put(format!("{p}.mst.kruskal_s"), med(&|r| r.stats.kruskal), "s");
    m.put(
        format!("{p}.mst.kept_ratio"),
        (batch.n(op) - 1) as f64 / s.pairs_materialized as f64,
        "ratio",
    );
    m.put(
        format!("{p}.dendrogram.build_s"),
        med(&|r| r.dendrogram_s),
        "s",
    );
    if op == Op::Hdbscan {
        m.put("hdbscan.extract.condense_s", med(&|r| r.condense_s), "s");
        m.put("hdbscan.extract.eom_s", med(&|r| r.eom_s), "s");
    }
    m.put(
        format!("{p}.peak_heap_mb"),
        med(&|r| r.peak_bytes as f64) / alloc::MB,
        "MB",
    );
    m.put(
        format!("{p}.unattributed_s"),
        t.run.wall_s - t.run.attributed_s(),
        "s",
    );
    m.put(
        format!("{p}.trace_overhead_pct"),
        (t.run.wall_s / med(&|r| r.wall_s) - 1.0) * 100.0,
        "%",
    );
}

/// The batch pool's scheduler counters, per rep (one (a) plus one (b)).
pub fn pool_metrics(samples: &BatchSamples, m: &mut Metrics) {
    let reps = samples.reps() as f64;
    m.put("pool.jobs", samples.pool_jobs as f64 / reps, "count");
    m.put(
        "pool.steal_hit_ratio",
        samples.pool_steal_hits as f64 / samples.pool_steal_attempts.max(1) as f64,
        "ratio",
    );
    m.put("pool.parks", samples.pool_parks as f64 / reps, "count");
}
