//! The two serving parts of every run, reads and writes beside reads,
//! against two in-process servers started through `http::start`.
//!
//! The `read` server holds a static SS-varden model, registered through
//! `EngineHandle::new` so the benchmark keeps its `QueryEngine`; it runs 1
//! connection worker and a query pool as wide as the machine, and the read
//! units drive it closed loop over one keep-alive connection. The `mutate`
//! server holds a `DynEntry` with the default `DynConfig` and runs 2
//! connection workers, one per connection: the writer's and the open-loop
//! reader's. Each write unit first registers a fresh `DynEntry` from the
//! same base artifact, so every unit inserts into a model of the same size
//! however many units ran before it; with one model for the whole run, the
//! model grew with every unit and insert latency with it, so a slower
//! host ran fewer units and measured cheaper inserts.
//!
//! Server-side mutations run on rayon's global pool, because connection
//! workers are plain threads outside any pool; [`split_cpus`] gives that
//! pool and the mutate server's query pool half the CPUs each, so a write
//! and a read beside it never run more threads than there are CPUs.

use crate::inputs::{self, stream, MIN_CLUSTER_SIZE, MIN_PTS};
use crate::report::{median, quantile, Metrics, Tally, P90_MIN_SAMPLES};
use crate::traced::{traced, SelfTimes};
use parclust::{count_clusters, extract_eom_eps, single_linkage_cut, Point, NOISE};
use parclust_dyn::{DynConfig, DynamicModel, MutationBatch};
use parclust_serve::{
    start, AssignRequest, AssignResponse, Client, ClusterModel, DynEntry, EngineHandle,
    LabelingSpec, ModelRegistry, QueryEngine, Server, ServerConfig,
};
use rand::prelude::*;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const READ_ID: &str = "read";
const MUTATE_ID: &str = "mutate";
const READ_ASSIGN: &str = "/models/read/assign_binary";
const READ_CUT: &str = "/models/read/cut";
const MUTATE_ASSIGN: &str = "/models/mutate/assign_binary";
const MUTATE_INSERT: &str = "/models/mutate/insert";
const MUTATE_EOM: &str = "/models/mutate/eom";

/// Points per `assign_binary` request.
const ASSIGN_POINTS: usize = 256;
/// One request in this many is a cut; the rest are assigns.
const CUT_EVERY: u64 = 10;
/// Points inserted and live points deleted per insert request.
const INSERTS_PER_BATCH: usize = 64;
const DELETES_PER_BATCH: usize = 16;
/// Read requests per read unit.
const READ_UNIT: usize = 50;
/// Inserts per write unit. Units are short so that each run's inserts come
/// from many short windows spread over the run: the host's speed changes
/// over seconds, and 10-insert units (~2 s each at 20k points) left
/// `insert_p50_ms` resting on about a dozen windows per run.
const MUTATE_UNIT: usize = 3;
/// Reader period during mutate units (100 req/s).
const READER_PERIOD: Duration = Duration::from_millis(10);
/// Read requests the traced run sends through a fresh in-process engine.
const ENGINE_PROBE_REQUESTS: u64 = 1000;
/// Times the traced run replays the first write unit's batches.
const REPLAY_ROUNDS: usize = 4;
/// Every this-many-th read request is kept and checked in-process.
const SAMPLE_EVERY: u64 = 97;

const EOM: LabelingSpec = LabelingSpec::Eom {
    cluster_selection_epsilon: 0.0,
};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Row-major coordinates to points.
fn to_points(flat: &[f64]) -> Vec<Point<3>> {
    flat.chunks_exact(3)
        .map(|c| Point([c[0], c[1], c[2]]))
        .collect()
}

/// `count` points drawn uniformly from the box `[lo, hi]`, row-major.
fn uniform_coords(rng: &mut StdRng, lo: Point<3>, hi: Point<3>, count: usize) -> Vec<f64> {
    (0..count * 3)
        .map(|k| rng.gen_range(lo.0[k % 3]..hi.0[k % 3]))
        .collect()
}

fn assign_frame(model_id: &str, coords: Vec<f64>) -> AssignRequest {
    AssignRequest {
        model_id: model_id.to_string(),
        spec: EOM,
        max_dist: f64::INFINITY,
        dims: 3,
        coords,
    }
}

/// A decoded `assign_binary` answer with the expected number of points.
fn decode_assign(reply: std::io::Result<(u16, Vec<u8>)>, count: usize) -> Option<AssignResponse> {
    match reply {
        Ok((200, body)) => AssignResponse::decode(&body)
            .ok()
            .filter(|r| r.labels.len() == count && r.distances.len() == count),
        _ => None,
    }
}

/// The read request sequence: 9 in 10 assign 256 points drawn uniformly
/// from the data set's bounding box under the EOM labeling (a label-cache
/// hit); 1 in 10 is a cut at a fresh random eps (a miss).
struct ReadSeq {
    rng: StdRng,
    lo: Point<3>,
    hi: Point<3>,
    max_eps: f64,
    i: u64,
}

enum ReadReq {
    Assign(Vec<f64>),
    Cut(f64),
}

impl ReadSeq {
    fn new(seed: u64, model: &ClusterModel<3>, (lo, hi): (Point<3>, Point<3>)) -> ReadSeq {
        let max_eps = model
            .dendrogram
            .height
            .iter()
            .copied()
            .filter(|h| h.is_finite())
            .fold(0.0, f64::max);
        ReadSeq {
            rng: inputs::rng(seed, stream::READ_REQUESTS),
            lo,
            hi,
            max_eps,
            i: 0,
        }
    }

    fn next(&mut self) -> ReadReq {
        self.i += 1;
        if self.i.is_multiple_of(CUT_EVERY) {
            ReadReq::Cut(self.rng.gen_range(0.0..self.max_eps))
        } else {
            ReadReq::Assign(uniform_coords(
                &mut self.rng,
                self.lo,
                self.hi,
                ASSIGN_POINTS,
            ))
        }
    }
}

/// What the server answered to one insert.
struct InsertReport {
    version: u64,
    n: u64,
    path: String,
    recomputed: u64,
}

impl InsertReport {
    fn parse(v: &Value) -> Option<InsertReport> {
        Some(InsertReport {
            version: v.get("version")?.as_u64()?,
            n: v.get("n")?.as_u64()?,
            path: v.get("path")?.as_str()?.to_string(),
            recomputed: v.get("recomputed")?.as_u64()?,
        })
    }
}

/// The mutation sequence and a mirror of the served live point set.
/// Inserts are live points plus a small jitter; deletes are distinct random
/// live indices. Batches are built from the JSON text the server will
/// parse, so the mirror holds exactly the server's coordinates.
struct Mutations {
    rng: StdRng,
    /// The base model's points, where every write unit starts.
    base: Vec<Point<3>>,
    live: Vec<Point<3>>,
    jitter: f64,
    /// Every batch sent since the last reset, and the server's answers.
    sent: Vec<MutationBatch<3>>,
    reports: Vec<InsertReport>,
}

impl Mutations {
    /// Back to the base model, as a fresh `DynEntry` holds it.
    fn reset(&mut self) {
        self.live.clone_from(&self.base);
        self.sent.clear();
        self.reports.clear();
    }

    fn next(&mut self) -> (MutationBatch<3>, Value) {
        let rng = &mut self.rng;
        let points: Vec<Value> = (0..INSERTS_PER_BATCH)
            .map(|_| {
                let p = self.live[rng.gen_range(0..self.live.len())];
                Value::Array(
                    p.0.iter()
                        .map(|&c| Value::Float(c + rng.gen_range(-self.jitter..self.jitter)))
                        .collect(),
                )
            })
            .collect();
        let mut deletes: Vec<usize> = Vec::with_capacity(DELETES_PER_BATCH);
        while deletes.len() < DELETES_PER_BATCH {
            let i = rng.gen_range(0..self.live.len());
            if !deletes.contains(&i) {
                deletes.push(i);
            }
        }
        let body = Value::Object(vec![
            ("points".to_string(), Value::Array(points)),
            (
                "deletes".to_string(),
                Value::Array(deletes.iter().map(|&i| Value::UInt(i as u64)).collect()),
            ),
        ]);
        let parsed = serde_json::from_str(&body.to_json_string()).expect("own JSON parses");
        let inserts = parsed
            .get("points")
            .and_then(Value::as_array)
            .expect("points array")
            .iter()
            .map(|p| {
                let c: Vec<f64> = p
                    .as_array()
                    .expect("coordinate array")
                    .iter()
                    .map(|x| x.as_f64().expect("coordinate"))
                    .collect();
                Point([c[0], c[1], c[2]])
            })
            .collect();
        (MutationBatch { inserts, deletes }, body)
    }

    /// Apply an accepted batch to the mirror: deletes first, survivors in
    /// order, inserts appended.
    fn commit(&mut self, batch: MutationBatch<3>, report: InsertReport) {
        let mut dead = vec![false; self.live.len()];
        for &i in &batch.deletes {
            dead[i] = true;
        }
        let mut k = 0;
        self.live.retain(|_| {
            k += 1;
            !dead[k - 1]
        });
        self.live.extend_from_slice(&batch.inserts);
        self.sent.push(batch);
        self.reports.push(report);
    }

    /// Send the next batch on `client`; returns its latency if accepted.
    fn send(&mut self, client: &mut Client, tally: &mut Tally) -> Option<Duration> {
        let (batch, body) = self.next();
        let t0 = Instant::now();
        let reply = client.post(MUTATE_INSERT, &body);
        let dt = t0.elapsed();
        let expected_version = self.reports.last().map_or(2, |r| r.version + 1);
        let expected_n = (self.live.len() - batch.deletes.len() + batch.inserts.len()) as u64;
        let report = match reply {
            Ok((200, v)) => InsertReport::parse(&v),
            _ => None,
        };
        let ok = report.is_some();
        tally.op(ok);
        let report = report?;
        tally.check(
            report.version == expected_version && report.n == expected_n,
            || {
                format!(
                    "insert answered version {} n {}, expected {expected_version} n {expected_n}",
                    report.version, report.n
                )
            },
        );
        self.commit(batch, report);
        Some(dt)
    }
}

/// Caps rayon's global pool, which runs the mutate server's inserts, at
/// half of `threads` and returns the width left for the mutate server's
/// query pool. Must run before anything uses the global pool.
pub fn split_cpus(threads: usize) -> usize {
    let writes = (threads / 2).max(1);
    // Called while the process is still single-threaded, so no other
    // thread reads the environment meanwhile.
    std::env::set_var("RAYON_NUM_THREADS", writes.to_string());
    (threads - writes).max(1)
}

fn connect(server: &Server) -> std::io::Result<Client> {
    let mut c = Client::connect(server.addr())?;
    c.get("/healthz")?;
    Ok(c)
}

/// A fresh dynamic model over the base artifact, registered as the mutate
/// server's model in place of the one before.
fn register_base(registry: &ModelRegistry, base: &[u8]) -> std::io::Result<()> {
    let model = ClusterModel::<3>::from_bytes(base)?;
    let entry = DynEntry::from_artifact(model, base.to_vec(), DynConfig::default())?;
    registry
        .insert_dynamic(MUTATE_ID, entry)
        .map_err(std::io::Error::other)
}

/// The write units' reader's next request: 256 points drawn uniformly from
/// the dynamic data set's bounding box.
fn reader_frame(rng: &mut StdRng, (lo, hi): (Point<3>, Point<3>)) -> Vec<u8> {
    assign_frame(MUTATE_ID, uniform_coords(rng, lo, hi, ASSIGN_POINTS)).encode()
}

/// The two running servers, their connections, and the state both serving
/// parts need.
pub struct Served {
    read_server: Server,
    mutate_server: Server,
    mutate_registry: Arc<ModelRegistry>,
    /// The read units' connection to the read server.
    client: Client,
    /// The mutate server's writer and open-loop reader connections.
    writer: Client,
    reader: Client,
    read_model: Arc<ClusterModel<3>>,
    read_engine: Arc<QueryEngine<3>>,
    /// The dynamic model's base artifact: every write unit starts from it,
    /// and so does the in-process replay.
    mutate_base: Vec<u8>,
    /// The data sets' bounding boxes, where requests draw their points.
    read_box: (Point<3>, Point<3>),
    mutate_box: (Point<3>, Point<3>),
    /// Draws the reader's requests.
    reader_rng: StdRng,
    /// Draws the reader's starting phase in each mutate unit.
    arrivals: StdRng,
    mutations: Mutations,
    seed: u64,
}

impl Served {
    /// Build both models on `pool`, start both servers (the mutate server's
    /// query pool `mutate_query_threads` wide), open the three connections, and
    /// send one of each request untimed.
    pub fn setup(
        seed: u64,
        mutate_n: usize,
        pool: &rayon::ThreadPool,
        mutate_query_threads: usize,
        tally: &mut Tally,
    ) -> std::io::Result<Served> {
        let read_input = inputs::read_points(seed);
        let read_box = (read_input.lo, read_input.hi);
        let read_points = read_input.points;
        let mutate_input = inputs::mutate_points(seed, mutate_n);
        let mutate_points = mutate_input.points;
        let (read_model, mutate_model) = pool.install(|| {
            (
                ClusterModel::build(&read_points, MIN_PTS, MIN_CLUSTER_SIZE),
                ClusterModel::build(&mutate_points, MIN_PTS, MIN_CLUSTER_SIZE),
            )
        });
        let read_model = Arc::new(read_model);
        let read_engine = Arc::new(QueryEngine::new(Arc::clone(&read_model)));
        let read_registry = Arc::new(ModelRegistry::new());
        read_registry
            .insert(
                READ_ID,
                Arc::new(EngineHandle::new(Arc::clone(&read_engine))),
            )
            .map_err(std::io::Error::other)?;
        let side = (mutate_n as f64).sqrt();
        let mutate_base = mutate_model.to_bytes()?;
        let mutate_registry = Arc::new(ModelRegistry::new());
        register_base(&mutate_registry, &mutate_base)?;

        let read_server = start(
            read_registry,
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 1,
                pool_threads: pool.current_num_threads(),
            },
        )?;
        let mutate_server = start(
            Arc::clone(&mutate_registry),
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                pool_threads: mutate_query_threads,
            },
        )?;
        let client = connect(&read_server)?;
        let writer = connect(&mutate_server)?;
        let reader = connect(&mutate_server)?;

        let mut served = Served {
            read_server,
            mutate_server,
            mutate_registry,
            client,
            writer,
            reader,
            read_model,
            read_engine,
            mutate_base,
            read_box,
            mutate_box: (mutate_input.lo, mutate_input.hi),
            reader_rng: inputs::rng(seed, stream::READER),
            arrivals: inputs::rng(seed, stream::ARRIVALS),
            mutations: Mutations {
                rng: inputs::rng(seed, stream::MUTATIONS),
                base: mutate_points.clone(),
                live: mutate_points,
                jitter: 0.002 * side,
                sent: Vec::new(),
                reports: Vec::new(),
            },
            seed,
        };
        served.warm_up(tally);
        Ok(served)
    }

    /// One request of each kind. The read warm-up draws from a stream apart
    /// from the measured sequence; the insert is the sequence's batch 0.
    fn warm_up(&mut self, tally: &mut Tally) {
        let mut seq = ReadSeq::new(self.seed ^ 0xA5A5, &self.read_model, self.read_box);
        let coords = uniform_coords(&mut seq.rng, seq.lo, seq.hi, ASSIGN_POINTS);
        let frame = assign_frame(READ_ID, coords).encode();
        tally.op(
            decode_assign(self.client.post_binary(READ_ASSIGN, &frame), ASSIGN_POINTS).is_some(),
        );
        let cut = serde_json::json!({"eps": seq.max_eps * 0.5, "include_labels": false});
        tally.op(matches!(self.client.post(READ_CUT, &cut), Ok((200, _))));
        self.mutations.send(&mut self.writer, tally);
        let frame = reader_frame(&mut self.reader_rng, self.mutate_box);
        tally.op(decode_assign(
            self.reader.post_binary(MUTATE_ASSIGN, &frame),
            ASSIGN_POINTS,
        )
        .is_some());
    }

    /// Close the connections, then stop and join both servers.
    pub fn shutdown(self) {
        drop(self.client);
        drop(self.writer);
        drop(self.reader);
        self.read_server.shutdown();
        self.mutate_server.shutdown();
    }
}

/// Samples of every read unit of a run, and the sequence they follow.
pub struct ReadSamples {
    seq: ReadSeq,
    assign_ms: Vec<f64>,
    cut_ms: Vec<f64>,
    points: usize,
    busy_s: f64,
    sampled_assigns: Vec<(Vec<f64>, AssignResponse)>,
    sampled_cuts: Vec<(f64, u64, u64)>,
}

impl ReadSamples {
    pub fn new(s: &Served) -> ReadSamples {
        ReadSamples {
            seq: ReadSeq::new(s.seed, &s.read_model, s.read_box),
            assign_ms: Vec::new(),
            cut_ms: Vec::new(),
            points: 0,
            busy_s: 0.0,
            sampled_assigns: Vec::new(),
            sampled_cuts: Vec::new(),
        }
    }

    /// Whether a p90 of assigns and a median of cuts can be reported.
    pub fn enough(&self) -> bool {
        self.assign_ms.len() >= P90_MIN_SAMPLES && self.cut_ms.len() >= 10
    }
}

/// [`READ_UNIT`] requests of the read sequence, closed loop on one
/// connection. Sampled answers are kept for [`check_reads`].
pub fn read_unit(s: &mut Served, r: &mut ReadSamples, tally: &mut Tally) {
    let start = Instant::now();
    for _ in 0..READ_UNIT {
        let keep = r.seq.i.is_multiple_of(SAMPLE_EVERY);
        match r.seq.next() {
            ReadReq::Assign(coords) => {
                let req = assign_frame(READ_ID, coords);
                let t0 = Instant::now();
                let reply = s.client.post_binary(READ_ASSIGN, &req.encode());
                let resp = decode_assign(reply, ASSIGN_POINTS);
                let dt = t0.elapsed();
                tally.op(resp.is_some());
                if let Some(resp) = resp {
                    r.assign_ms.push(ms(dt));
                    r.points += ASSIGN_POINTS;
                    if keep {
                        r.sampled_assigns.push((req.coords, resp));
                    }
                }
            }
            ReadReq::Cut(eps) => {
                let body = serde_json::json!({"eps": eps, "include_labels": false});
                let t0 = Instant::now();
                let reply = s.client.post(READ_CUT, &body);
                let dt = t0.elapsed();
                let counts = match reply {
                    Ok((200, v)) => v
                        .get("num_clusters")
                        .and_then(Value::as_u64)
                        .zip(v.get("noise").and_then(Value::as_u64)),
                    _ => None,
                };
                tally.op(counts.is_some());
                if let Some((clusters, noise)) = counts {
                    r.cut_ms.push(ms(dt));
                    if keep || r.sampled_cuts.is_empty() {
                        r.sampled_cuts.push((eps, clusters, noise));
                    }
                }
            }
        }
    }
    r.busy_s += start.elapsed().as_secs_f64();
}

/// Sampled answers must equal the in-process engine's: assigns through
/// `assign_batch`, cuts through `single_linkage_cut`.
pub fn check_reads(s: &Served, r: &ReadSamples, pool: &rayon::ThreadPool, tally: &mut Tally) {
    for (coords, resp) in &r.sampled_assigns {
        let local = pool.install(|| {
            s.read_engine
                .assign_batch(&to_points(coords), EOM, f64::INFINITY)
        });
        let same = local.iter().zip(&resp.labels).all(|(a, &l)| a.label == l)
            && local
                .iter()
                .zip(&resp.neighbors)
                .all(|(a, &n)| a.neighbor == n)
            && local
                .iter()
                .zip(&resp.distances)
                .all(|(a, &d)| a.distance.to_bits() == d.to_bits());
        tally.check(same, || {
            "served assign differs from in-process assign_batch".into()
        });
    }
    for &(eps, clusters, noise) in &r.sampled_cuts {
        let labels = single_linkage_cut(&s.read_model.dendrogram, eps);
        let local_noise = labels.iter().filter(|&&l| l == NOISE).count() as u64;
        tally.check(
            count_clusters(&labels) as u64 == clusters && local_noise == noise,
            || format!("served cut at eps {eps} differs from single_linkage_cut"),
        );
    }
}

/// Samples of every mutate unit of a run.
#[derive(Default)]
pub struct MutateSamples {
    insert_ms: Vec<f64>,
    read_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// The first write unit's batches and the server's answers, for the
    /// in-process replay.
    first_unit: Vec<(MutationBatch<3>, InsertReport)>,
}

impl MutateSamples {
    /// Whether insert and reader p90s can be reported.
    pub fn enough(&self) -> bool {
        self.insert_ms.len() >= P90_MIN_SAMPLES && self.read_ms.len() >= P90_MIN_SAMPLES
    }
}

/// The writer first registers a fresh dynamic model over the base artifact,
/// then sends [`MUTATE_UNIT`] closed-loop inserts on one connection.
/// Reader, meanwhile: 256-point assigns on the other, open loop at a fixed
/// 100 req/s, timed from each request's due time. The schedule starts at a
/// seeded random phase, so reads do not meet the same point of every
/// unit's first insert.
pub fn mutate_unit(
    s: &mut Served,
    w: &mut MutateSamples,
    tally: &mut Tally,
) -> std::io::Result<()> {
    register_base(&s.mutate_registry, &s.mutate_base)?;
    s.mutations.reset();
    let stop = AtomicBool::new(false);
    let Served {
        writer,
        reader,
        mutate_box,
        reader_rng,
        arrivals,
        mutations,
        ..
    } = s;
    let t0 = Instant::now() + READER_PERIOD.mul_f64(arrivals.gen_range(0.0..1.0));
    let (read_ok, read_failed) = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(|| {
            let (mut lat, mut late) = (Vec::new(), Vec::new());
            let mut failed = 0u64;
            let mut i = 0u32;
            // Acquire pairs with the writer's Release store of `stop`.
            while !stop.load(Ordering::Acquire) {
                let due = t0 + READER_PERIOD * i;
                i += 1;
                let frame = reader_frame(reader_rng, *mutate_box);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let reply = reader.post_binary(MUTATE_ASSIGN, &frame);
                let good = decode_assign(reply, ASSIGN_POINTS).is_some();
                let done = Instant::now();
                if good {
                    lat.push(ms(done - due));
                    late.push(ms(sent - due));
                } else {
                    failed += 1;
                }
            }
            (lat, late, failed)
        });
        for _ in 0..MUTATE_UNIT {
            match mutations.send(writer, tally) {
                Some(dt) => w.insert_ms.push(ms(dt)),
                None => break,
            }
        }
        stop.store(true, Ordering::Release);
        let (lat, late, failed) = reader_thread
            .join()
            .expect("the reader thread does not panic");
        let ok = lat.len() as u64;
        w.read_ms.extend(lat);
        w.late_ms.extend(late);
        (ok, failed)
    });
    tally.ops(read_ok, read_failed);
    if w.first_unit.is_empty() {
        w.first_unit = std::mem::take(&mut mutations.sent)
            .into_iter()
            .zip(std::mem::take(&mut mutations.reports))
            .collect();
    }
    Ok(())
}

/// The final served EOM labeling must equal a from-scratch build over the
/// final live points.
pub fn check_final_labels(s: &mut Served, pool: &rayon::ThreadPool, tally: &mut Tally) {
    let served: Option<Vec<u32>> = match s.writer.post(MUTATE_EOM, &serde_json::json!({})) {
        Ok((200, v)) => v.get("labels").and_then(Value::as_array).map(|a| {
            a.iter()
                .map(|l| l.as_u64().map_or(NOISE, |x| x as u32))
                .collect()
        }),
        _ => None,
    };
    tally.op(served.is_some());
    let live = &s.mutations.live;
    let scratch = pool.install(|| ClusterModel::build(live, MIN_PTS, MIN_CLUSTER_SIZE));
    let expected = extract_eom_eps(&scratch.condensed, 0.0);
    tally.check(served.as_ref() == Some(&expected), || {
        "final served EOM labels differ from a from-scratch build".into()
    });
}

/// End-to-end serve metrics.
pub fn e2e_metrics(r: &ReadSamples, w: &MutateSamples, m: &mut Metrics) {
    m.put("assign_p50_ms", median(&r.assign_ms), "ms");
    m.put("assign_p90_ms", p90(&r.assign_ms), "ms");
    m.put("assign_pts_per_s", r.points as f64 / r.busy_s, "1/s");
    m.put("cut_p50_ms", median(&r.cut_ms), "ms");
    m.put("insert_p50_ms", median(&w.insert_ms), "ms");
    m.put("insert_p90_ms", p90(&w.insert_ms), "ms");
    m.put("read_p50_ms", median(&w.read_ms), "ms");
    m.put("read_p90_ms", p90(&w.read_ms), "ms");
}

/// A p90 only where ten samples lie beyond it; NaN (unmeasured) otherwise.
fn p90(samples: &[f64]) -> f64 {
    if samples.len() < P90_MIN_SAMPLES {
        f64::NAN
    } else {
        quantile(samples, 0.9)
    }
}

/// Traced-run probes of the serve layers, in process:
/// the read sequence's first requests through a fresh `QueryEngine` over the
/// served model, and the first write unit's insert batches replayed through
/// `DynamicModel::apply` with tracing on.
pub fn layer_metrics(
    s: &Served,
    pool: &rayon::ThreadPool,
    r: &ReadSamples,
    w: &MutateSamples,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    // Engine probe: a fresh engine sees the same sequence the server did.
    let engine = QueryEngine::new(Arc::clone(&s.read_model));
    let mut seq = ReadSeq::new(s.seed, &s.read_model, s.read_box);
    let (mut assign_ms, mut miss_ms) = (Vec::new(), Vec::new());
    for _ in 0..ENGINE_PROBE_REQUESTS {
        match seq.next() {
            ReadReq::Assign(coords) => {
                let queries = to_points(&coords);
                let t0 = Instant::now();
                let out = pool.install(|| engine.assign_batch(&queries, EOM, f64::INFINITY));
                assign_ms.push(ms(t0.elapsed()));
                tally.op(out.len() == ASSIGN_POINTS);
            }
            ReadReq::Cut(eps) => {
                let t0 = Instant::now();
                let out = engine.labeling(LabelingSpec::Cut { eps });
                miss_ms.push(ms(t0.elapsed()));
                tally.op(out.labels.len() == s.read_model.len());
            }
        }
    }
    let assign_batch_ms = median(&assign_ms);
    let miss = median(&miss_ms);
    let computed = engine.labelings_computed();
    m.put("engine.assign_batch_ms", assign_batch_ms, "ms");
    m.put(
        "http.assign_overhead_ms",
        median(&r.assign_ms) - assign_batch_ms,
        "ms",
    );
    m.put("engine.labeling_miss_ms", miss, "ms");
    m.put("http.cut_overhead_ms", median(&r.cut_ms) - miss, "ms");
    m.put("engine.labelings_computed", computed as f64, "count");
    m.put(
        "engine.label_hit_ratio",
        1.0 - computed as f64 / ENGINE_PROBE_REQUESTS as f64,
        "ratio",
    );

    // Mutation replay: the first write unit's batches, from the same base,
    // REPLAY_ROUNDS times over.
    let mut apply_ms = Vec::new();
    let mut spans = SelfTimes::new();
    for _ in 0..REPLAY_ROUNDS {
        let base = ClusterModel::<3>::from_bytes(&s.mutate_base).expect("own artifact loads");
        let mut model = DynamicModel::from_parts(
            base.points,
            base.min_pts,
            base.min_cluster_size,
            DynConfig::default(),
            base.core_distances,
            base.dendrogram,
            base.condensed,
            1,
        )
        .expect("own artifact reassembles");
        for (j, (batch, served)) in w.first_unit.iter().enumerate() {
            let ((report, dt), times, complete) = traced("bench.mutate", || {
                let _window = parclust_obs::span!("bench.mutate");
                let t0 = Instant::now();
                (model.apply(batch), t0.elapsed())
            });
            let same = report.as_ref().is_ok_and(|rep| {
                rep.version == served.version
                    && rep.n as u64 == served.n
                    && rep.path.as_str() == served.path
                    && rep.recomputed as u64 == served.recomputed
            });
            tally.op(same);
            tally.check(same, || {
                format!("replayed insert {j} differs from the served one")
            });
            tally.check(complete, || {
                format!("trace ring wrapped during replayed insert {j}")
            });
            apply_ms.push(ms(dt));
            for (name, t) in times {
                *spans.entry(name).or_default() += t;
            }
        }
    }
    let replayed = apply_ms.len();
    let per_batch_ms = |name: &str| spans.get(name).copied().unwrap_or(0.0) * 1e3 / replayed as f64;
    let apply = median(&apply_ms);
    m.put("dyn.apply_ms", apply, "ms");
    m.put("mutate.kdtree.build_ms", per_batch_ms("kdtree.build"), "ms");
    m.put("mutate.wspd.get_rho_ms", per_batch_ms("wspd.get_rho"), "ms");
    m.put(
        "mutate.wspd.get_pairs_ms",
        per_batch_ms("wspd.get_pairs"),
        "ms",
    );
    m.put("mutate.mst.kruskal_ms", per_batch_ms("mst.kruskal"), "ms");
    m.put(
        "mutate.dendrogram.build_ms",
        per_batch_ms("dendrogram.build"),
        "ms",
    );
    let mut paths: BTreeMap<&str, u64> = BTreeMap::new();
    for (_, rep) in &w.first_unit {
        *paths.entry(rep.path.as_str()).or_default() += 1;
    }
    m.put(
        "dyn.merge_batches",
        paths.get("merge").copied().unwrap_or(0) as f64,
        "count",
    );
    m.put(
        "dyn.rebuild_batches",
        paths.get("rebuild").copied().unwrap_or(0) as f64,
        "count",
    );
    m.put(
        "dyn.recomputed_pts",
        w.first_unit.iter().map(|(_, r)| r.recomputed).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "serve.insert_overhead_ms",
        median(&w.insert_ms) - apply,
        "ms",
    );
    m.put("read.gen_late_ms", quantile(&w.late_ms, 0.9), "ms");
}
