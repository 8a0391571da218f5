//! parclust end-to-end benchmark.
//!
//! ```text
//! benchsuite --workload <batch|serve-mutate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process sets up all three parts (batch clustering, served reads,
//! writes beside reads) three times over; the median set-up is `setup_s`.
//! It then runs small units of the three parts, interleaved, for
//! `--seconds`: the workload's own part (`batch`: the batch pipelines;
//! `serve-mutate`: the writes beside reads) gets half the time, the other
//! two a quarter each, so every run reports every end-to-end metric and
//! each part's samples span the whole run. Every output is checked outside
//! the timed regions. `--trace 1` adds the traced run and prints the
//! per-layer metrics instead of the end-to-end ones. The last stdout line
//! is the JSON result.

mod alloc;
mod batch;
mod inputs;
mod report;
mod serve;
mod traced;

use batch::{Batch, Op};
use report::{median, Metrics, Tally};
use serve::Served;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of the timed run that goes to the workload's own part; the other
/// two parts get half the rest each.
const OWN_SHARE: f64 = 0.5;
/// A run goes on past `--seconds` until every reported p90 has its
/// samples, but never longer than this beyond it.
const OVERRUN: Duration = Duration::from_secs(30);
/// Minimum reps of each batch op, for a median.
const MIN_REPS: usize = 3;

/// The three parts of every run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Part {
    /// The two batch pipelines.
    Batch,
    /// Closed-loop reads of the static model.
    Reads,
    /// Inserts into the dynamic model, with the open-loop reader beside them.
    Writes,
}

impl Part {
    const ALL: [Part; 3] = [Part::Batch, Part::Reads, Part::Writes];
}

/// A workload: which part gets half of every run, and how large the
/// dynamic model is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Batch,
    ServeMutate,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "batch" => Some(Workload::Batch),
            "serve-mutate" => Some(Workload::ServeMutate),
            _ => None,
        }
    }

    fn own_part(self) -> Part {
        match self {
            Workload::Batch => Part::Batch,
            Workload::ServeMutate => Part::Writes,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| bad("expected batch or serve-mutate"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("expected 0 < seconds <= 120"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchsuite: {e}");
            eprintln!(
                "usage: benchsuite --workload <batch|serve-mutate> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("benchsuite: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> std::io::Result<String> {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mutate_query_threads = serve::split_cpus(threads);
    let mutate_n = if args.workload == Workload::ServeMutate {
        inputs::MUTATE_N
    } else {
        inputs::MUTATE_PROBE_N
    };
    eprintln!(
        "benchsuite: workload {:?}, seed {}, {} s, {threads} threads",
        args.workload, args.seed, args.seconds
    );
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let mut state: Option<(Batch, Served)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, served)) = state.take() {
            served.shutdown();
        }
        let t0 = Instant::now();
        let batch = Batch::setup(args.seed, threads);
        let served = Served::setup(
            args.seed,
            mutate_n,
            &batch.pool,
            mutate_query_threads,
            &mut tally,
        )?;
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((batch, served));
    }
    let (batch, mut served) = state.expect("at least one set-up");

    // The timed run: units of the three parts, interleaved so that each
    // part's share of elapsed time tracks its target. Every part's samples
    // then span the whole run, not one window of it.
    let share = |p: Part| {
        if p == args.workload.own_part() {
            OWN_SHARE
        } else {
            (1.0 - OWN_SHARE) / 2.0
        }
    };
    let mut batch_samples = batch::BatchSamples::default();
    let mut reads = serve::ReadSamples::new(&served);
    let mut writes = serve::MutateSamples::default();
    let mut used = [0.0f64; 3];
    let budget = Duration::from_secs_f64(args.seconds);
    alloc::reset_run_peak();
    let start = Instant::now();
    loop {
        let enough = [
            batch_samples.reps() >= MIN_REPS,
            reads.enough(),
            writes.enough(),
        ];
        let in_budget = start.elapsed() < budget;
        if start.elapsed() >= budget + OVERRUN {
            break;
        }
        let next = (0..3)
            .filter(|&i| in_budget || !enough[i])
            .min_by(|&i, &j| {
                (used[i] / share(Part::ALL[i])).total_cmp(&(used[j] / share(Part::ALL[j])))
            });
        let Some(i) = next else { break };
        let t0 = Instant::now();
        match Part::ALL[i] {
            Part::Batch => batch::unit(&batch, &mut batch_samples, &mut tally),
            Part::Reads => serve::read_unit(&mut served, &mut reads, &mut tally),
            Part::Writes => serve::mutate_unit(&mut served, &mut writes, &mut tally)?,
        }
        used[i] += t0.elapsed().as_secs_f64();
    }
    let peak_heap_mb = alloc::run_peak() as f64 / alloc::MB;
    eprintln!(
        "benchsuite: timed {:.1} s: batch {:.1} s ({} reps), reads {:.1} s, writes {:.1} s",
        start.elapsed().as_secs_f64(),
        used[0],
        batch_samples.reps(),
        used[1],
        used[2]
    );

    batch.check_references(&mut tally);
    serve::check_reads(&served, &reads, &batch.pool, &mut tally);
    serve::check_final_labels(&mut served, &batch.pool, &mut tally);

    let mut m = Metrics::default();
    if args.trace {
        for op in Op::ALL {
            let t = batch::traced_op(&batch, op, &mut tally);
            batch::layer_metrics(&batch, op, &batch_samples, &t, &mut m);
        }
        batch::pool_metrics(&batch_samples, &mut m);
        serve::layer_metrics(&served, &batch.pool, &reads, &writes, &mut tally, &mut m);
    } else {
        m.put("setup_s", median(&setup_s), "s");
        m.put("peak_heap_mb", peak_heap_mb, "MB");
        m.put("hdbscan_s", batch_samples.wall_s(Op::Hdbscan), "s");
        m.put("emst_s", batch_samples.wall_s(Op::Emst), "s");
        serve::e2e_metrics(&reads, &writes, &mut m);
    }
    served.shutdown();
    Ok(m.to_json(&tally))
}
