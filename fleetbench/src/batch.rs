//! The `batch` workload: em-batch plan → `execute` → `verify_run` on
//! disk over an S-DA CSV, landmark explainer, 500 samples,
//! `threads = nproc`, many shards.
//!
//! It runs the explainer layers of `serve_cold` without HTTP, plus the
//! durable commit protocol (`write_sync`, `rename_durable`, manifest
//! append) that no serving workload touches. `execute` commits each
//! shard serially between compute phases, so commit cost shows directly
//! in `records_per_s`.
//!
//! A run plans once per set-up (`create_plan` trains and persists the
//! matcher), then executes copies of the last plan back to back until
//! `--seconds` have been spent inside `execute`. A [`SiteClock`] hook
//! that never fires stamps each shard's commit; the interval between
//! commits is the shard latency behind `p50_ms`/`p95_ms`.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use em_batch::plan::{self, PlanConfig, RunPlan};
use em_batch::{
    atomic, execute, hash, manifest, verify_run, FailSite, FailpointHook, ManifestEntry,
    NoFailpoints, RunMode,
};
use em_codec::explain::{run_explain, ExplainOptions, ExplainRequest, ExplainerKind};
use em_codec::json::Value;
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{dataset_to_csv, EmDataset};
use em_matchers::{load_logistic_file, FeatureExtractor, LogisticMatcher};

use crate::replay::{self, Counts};
use crate::report::{peak_rss_mb, Layers, Report, Runner, REPLAY_ROOT};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::stats;

/// Records per job, drawn from S-DA by seed.
const RECORDS: usize = 1200;
/// Shards per job.
const SHARDS: usize = 200;
/// Perturbation samples per explanation (the paper's setting).
const N_SAMPLES: usize = 500;
/// Latency limit for a shard's compute and commit, milliseconds.
pub const LIMIT_MS: f64 = 100.0;
/// Jobs of the traced run, alternating unhooked and hooked.
const TRACE_JOBS: usize = 4;
/// Output lines checked against a direct `run_explain` per run.
const SAMPLE_LINES: usize = 16;

/// A failpoint hook that never fires and stamps the sites it is asked
/// about.
#[derive(Debug)]
pub struct SiteClock {
    every_site: bool,
    marks: Mutex<Vec<(FailSite, usize, Instant)>>,
}

impl SiteClock {
    /// Stamps only `AfterManifest`: one clock read per committed shard.
    pub fn commits() -> SiteClock {
        SiteClock {
            every_site: false,
            marks: Mutex::new(Vec::new()),
        }
    }

    /// Stamps every commit-protocol site.
    pub fn every_site() -> SiteClock {
        SiteClock {
            every_site: true,
            marks: Mutex::new(Vec::new()),
        }
    }

    fn take(&self) -> Vec<(FailSite, usize, Instant)> {
        std::mem::take(&mut *self.marks.lock().expect("clock poisoned"))
    }
}

impl FailpointHook for SiteClock {
    fn should_fail(&self, site: FailSite, shard: usize) -> bool {
        if self.every_site || site == FailSite::AfterManifest {
            self.marks
                .lock()
                .expect("clock poisoned")
                .push((site, shard, Instant::now()));
        }
        false
    }
}

fn io<E: std::fmt::Display>(e: E) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Writes the seeded input CSV and plans a run over it.
fn plan_once(runner: &Runner, round: usize) -> std::io::Result<PathBuf> {
    let full = MagellanBenchmark::default().generate(DatasetId::SDa);
    let mut rng = Rng::new(runner.seed, 0x6261_7463);
    let mut order: Vec<usize> = (0..full.len()).collect();
    rng.shuffle(&mut order);
    let records = order[..RECORDS.min(full.len())]
        .iter()
        .map(|&i| full.records()[i].clone())
        .collect();
    let input = EmDataset::new(full.name(), full.schema().clone(), records);
    let csv = runner.work.join(format!("input-{round}.csv"));
    std::fs::write(&csv, dataset_to_csv(&input))?;
    let dir = runner.work.join(format!("plan-{round}"));
    plan::create_plan(
        &csv,
        &dir,
        &PlanConfig {
            shards: SHARDS,
            seed: runner.seed & (plan::SEED_LIMIT - 1),
            explainer: ExplainerKind::Landmark,
            n_samples: N_SAMPLES,
            threads: runner.nproc,
        },
    )
    .map_err(io)?;
    Ok(dir)
}

/// A fresh run directory holding a copy of `plan_dir`'s plan and model.
fn job_dir(runner: &Runner, plan_dir: &Path, job: usize) -> std::io::Result<PathBuf> {
    let dir = runner.work.join(format!("job-{job}"));
    std::fs::create_dir_all(&dir)?;
    for file in [plan::PLAN_FILE, plan::MODEL_FILE] {
        std::fs::copy(plan_dir.join(file), dir.join(file))?;
    }
    Ok(dir)
}

/// Every byte a job committed: shard files in order, then the manifest.
fn committed_bytes(dir: &Path) -> std::io::Result<Vec<u8>> {
    let plan = RunPlan::load(dir).map_err(io)?;
    let mut bytes = Vec::new();
    for shard in 0..plan.shards {
        bytes.extend(std::fs::read(plan.shard_path(dir, shard))?);
    }
    bytes.extend(std::fs::read(dir.join(plan::MANIFEST_FILE))?);
    Ok(bytes)
}

/// The matcher `execute` scores with, loaded the same way.
fn load_matcher(dir: &Path, dataset: &EmDataset) -> std::io::Result<LogisticMatcher> {
    let model = load_logistic_file(&dir.join(plan::MODEL_FILE), dataset.schema()).map_err(io)?;
    Ok(LogisticMatcher::from_parts(
        FeatureExtractor::fit(dataset),
        model,
    ))
}

/// The committed output lines of a job, in record order.
fn output_lines(dir: &Path, plan: &RunPlan) -> std::io::Result<Vec<String>> {
    let mut lines = Vec::with_capacity(plan.records);
    for shard in 0..plan.shards {
        let text = std::fs::read_to_string(plan.shard_path(dir, shard))?;
        lines.extend(text.lines().map(str::to_string));
    }
    Ok(lines)
}

fn request_for(plan: &RunPlan, dataset: &EmDataset, index: usize) -> ExplainRequest {
    ExplainRequest {
        pair: dataset.records()[index].pair.clone(),
        explainer: plan.explainer,
        options: ExplainOptions {
            n_samples: plan.n_samples,
            seed: plan.record_seed(index),
            threads: 1,
            ..ExplainOptions::default()
        },
    }
}

/// `verify_run` must be clean and a seeded sample of output lines must
/// equal a direct `run_explain` at `RunPlan::record_seed(index)`.
fn check_job(dir: &Path, runner: &Runner, report: &mut Report) -> std::io::Result<()> {
    let verdict = verify_run(dir).map_err(io)?;
    if !verdict.is_complete_and_ok() {
        report.fail_check(format!(
            "verify_run {}: {:?}",
            dir.display(),
            verdict.problems
        ));
    }
    let plan = RunPlan::load(dir).map_err(io)?;
    let dataset = plan::read_input(Path::new(&plan.input)).map_err(io)?;
    let matcher = load_matcher(dir, &dataset)?;
    let lines = output_lines(dir, &plan)?;
    let mut rng = Rng::new(runner.seed, 0x6c69_6e65);
    for _ in 0..SAMPLE_LINES {
        let index = rng.below(plan.records);
        let direct = run_explain(
            &matcher,
            dataset.schema(),
            &request_for(&plan, &dataset, index),
        )
        .to_json();
        let served = lines
            .get(index)
            .and_then(|l| Value::parse(l).ok())
            .and_then(|v| v.get("response").map(Value::to_json));
        if served.as_deref() != Some(direct.as_str()) {
            report.fail_check(format!(
                "output line {index} differs from a direct run_explain"
            ));
        }
    }
    Ok(())
}

/// Plans `runner.setups` times (the first timed from process start).
fn setup(runner: &Runner, started: Instant) -> std::io::Result<(PathBuf, Vec<f64>)> {
    let mut times = Vec::new();
    let mut dir = None;
    for round in 0..runner.setups.max(1) {
        let t0 = if round == 0 { started } else { Instant::now() };
        dir = Some(plan_once(runner, round)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((dir.expect("at least one setup"), times))
}

/// Runs the batch workload with tracing off: the end-to-end metrics.
pub fn run(runner: &Runner, started: Instant) -> std::io::Result<Report> {
    let (plan_dir, setups) = setup(runner, started)?;
    let budget = Duration::from_secs_f64(runner.seconds);
    let mut spent = Duration::ZERO;
    // Per job: shard intervals, records/s, good records/s.
    let mut shard_ms = Vec::new();
    let mut rates = Vec::new();
    let mut goodput = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    let mut jobs = 0usize;
    let mut failed = 0usize;
    let mut problems = Vec::new();
    let mut rss = 0.0;
    while spent < budget || jobs == 0 {
        let dir = job_dir(runner, &plan_dir, jobs)?;
        let clock = SiteClock::commits();
        let cpu0 = crate::report::cpu_secs();
        let t0 = Instant::now();
        let outcome = execute(&dir, RunMode::Fresh, None, &clock, em_obs::noop());
        let wall = t0.elapsed();
        let cpu = crate::report::cpu_secs() - cpu0;
        spent += wall;
        jobs += 1;
        rss = peak_rss_mb();
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                failed += RECORDS;
                problems.push(format!("execute failed: {e}"));
                continue;
            }
        };
        let plan = RunPlan::load(&dir).map_err(io)?;
        let mut previous = t0;
        let mut good = 0;
        for (_, shard, at) in clock.take() {
            let ms = at.duration_since(previous).as_secs_f64() * 1e3;
            previous = at;
            shard_ms.push(ms);
            if ms <= LIMIT_MS {
                good += plan.shard_range(shard).len();
            }
        }
        rates.push(outcome.records_explained as f64 / wall.as_secs_f64());
        cpu_ms.push(cpu * 1e3 / outcome.records_explained.max(1) as f64);
        goodput.push(good as f64 / wall.as_secs_f64());
        // Every job executes the same plan: its committed bytes must
        // repeat exactly. The first job is kept for the line sample.
        let bytes = committed_bytes(&dir)?;
        match &reference {
            None => reference = Some(bytes),
            Some(first) if *first != bytes => {
                problems.push(format!("job {} committed different bytes", jobs - 1))
            }
            Some(_) => std::fs::remove_dir_all(&dir)?,
        }
    }
    let mut report = Report::new(jobs * RECORDS, failed);
    for p in problems {
        report.fail_check(p);
    }
    check_job(&runner.work.join("job-0"), runner, &mut report)?;
    report.setup(&setups);
    report.latency(&shard_ms);
    report.rate("goodput_rps", &goodput, "req/s");
    report.rate("records_per_s", &rates, "records/s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("cpu_ms_per_record", stats::median(&cpu_ms), "ms");
    report.note(format!(
        "{jobs} jobs of {RECORDS} records in {SHARDS} shards, {:.3} s inside execute; p50/p95 are per-shard compute+commit intervals, limit {LIMIT_MS} ms; rates are per job",
        spent.as_secs_f64()
    ));
    Ok(report)
}

/// Runs the batch workload's traced run: the per-layer metrics.
pub fn run_traced(runner: &Runner, started: Instant) -> std::io::Result<Report> {
    let (plan_dir, setups) = setup(runner, started)?;

    // Unhooked and hooked jobs alternate, so host drift falls on both
    // sides of `bench.trace_overhead`.
    let mut walls = [Duration::ZERO; 2];
    let mut marks = Vec::new();
    let mut dirs = Vec::new();
    for job in 0..TRACE_JOBS {
        let dir = job_dir(runner, &plan_dir, job)?;
        let hooked = job % 2 == 1;
        let clock = SiteClock::every_site();
        let hook: &dyn FailpointHook = if hooked { &clock } else { &NoFailpoints };
        let t0 = Instant::now();
        execute(&dir, RunMode::Fresh, None, hook, em_obs::noop()).map_err(io)?;
        walls[usize::from(hooked)] += t0.elapsed();
        if hooked {
            marks.push((t0, clock.take()));
        }
        dirs.push(dir);
    }
    let (reference, traced) = (dirs[0].clone(), dirs[1].clone());
    let traced_wall = walls[1];
    let untraced = walls[0];

    let plan = RunPlan::load(&traced).map_err(io)?;
    let mut report = Report::new(plan.records, 0);
    report.setup(&setups);
    let expected = committed_bytes(&reference)?;
    for dir in &dirs[1..] {
        if committed_bytes(dir)? != expected {
            report.fail_check(format!(
                "{}: shard files and manifest differ from the unhooked run's",
                dir.display()
            ));
        }
    }
    check_job(&traced, runner, &mut report)?;

    // Per-shard phases from the site stamps: compute runs from the
    // previous shard's commit (or the start of `execute`) to
    // BeforeWrite; then write, rename and manifest append.
    let mut phase: [Vec<f64>; 4] = Default::default();
    for (t0, stamps) in marks {
        let mut previous = t0;
        let mut at_site = [t0; 4];
        for (site, _, at) in stamps {
            let i = FailSite::all()
                .iter()
                .position(|s| *s == site)
                .expect("known site");
            at_site[i] = at;
            if site == FailSite::AfterManifest {
                let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
                phase[0].push(ms(previous, at_site[0]));
                phase[1].push(ms(at_site[0], at_site[1]));
                phase[2].push(ms(at_site[1], at_site[2]));
                phase[3].push(ms(at_site[2], at_site[3]));
                previous = at;
            }
        }
    }
    let commit_ms: f64 = phase[1..].iter().flatten().sum();
    report.per_layer("em-batch.compute_ms", stats::median(&phase[0]));
    report.per_layer("em-batch.write_ms", stats::median(&phase[1]));
    report.per_layer("em-batch.rename_ms", stats::median(&phase[2]));
    report.per_layer("em-batch.manifest_ms", stats::median(&phase[3]));
    report.per_layer(
        "em-batch.commit_share",
        commit_ms / (traced_wall.as_secs_f64() * 1e3),
    );
    report.per_layer(
        "bench.trace_overhead",
        traced_wall.as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );

    let (rec, counts, unfaithful, bodies) = replay_job(runner, &traced, &plan)?;
    if unfaithful > 0 {
        report.fail_check(format!(
            "{unfaithful} replayed records did not reproduce the committed coefficients"
        ));
    }
    report.layer_metrics(&Layers::from_recorder(&rec), &counts, plan.records);
    report.per_layer("em-codec.body_bytes", stats::median(&bodies));
    report.write_spans(&rec, runner)?;
    Ok(report)
}

/// Replays a committed job single-threaded, shard by shard in the order
/// `execute` runs it: each record's landmark explanation step by step
/// and the encode of its response, then the shard's commit (`content_hash`,
/// `write_sync`, `rename_durable`, manifest `append`) into a throwaway run
/// directory.
fn replay_job(
    runner: &Runner,
    dir: &Path,
    plan: &RunPlan,
) -> std::io::Result<(Recorder, Counts, usize, Vec<f64>)> {
    let dataset = plan::read_input(Path::new(&plan.input)).map_err(io)?;
    let matcher = load_matcher(dir, &dataset)?;
    let schema = dataset.schema();
    let lines = output_lines(dir, plan)?;
    let replay_dir = runner.work.join("replay");
    std::fs::create_dir_all(replay_dir.join(plan::SHARD_DIR))?;
    let manifest_path = replay_dir.join(plan::MANIFEST_FILE);

    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let mut unfaithful = 0;
    let mut bodies = Vec::new();
    for shard in 0..plan.shards {
        let root = rec.enter(REPLAY_ROOT, shard as u64);
        let mut shard_bytes = Vec::new();
        for index in plan.shard_range(shard) {
            let id = index as u64;
            let record = rec.enter("replay.record", id);
            let request = request_for(plan, &dataset, index);
            let coefficients = replay::landmark(
                &mut rec,
                id,
                &matcher,
                schema,
                &request.pair,
                &request.options,
                &mut counts,
            );
            let line = lines.get(index).and_then(|l| Value::parse(l).ok());
            let response = line.as_ref().and_then(|l| l.get("response"));
            let served = response.and_then(replay::served_coefficients);
            unfaithful +=
                usize::from(!served.is_some_and(|s| replay::same_bits(&s, &coefficients)));
            if let Some(line) = &line {
                let encoded = rec.time("em-codec.to_json", id, || line.to_json());
                bodies.push(response.map_or(0, |r| r.to_json().len()) as f64);
                shard_bytes.extend(encoded.into_bytes());
                shard_bytes.push(b'\n');
            }
            rec.exit(record);
        }
        let id = shard as u64;
        let dst = plan.shard_path(&replay_dir, shard);
        let tmp = atomic::tmp_path(&dst);
        let digest = rec.time("em-batch.content_hash", id, || {
            hash::content_hash(&shard_bytes)
        });
        rec.time("em-batch.write_sync", id, || {
            atomic::write_sync(&tmp, &shard_bytes)
        })?;
        rec.time("em-batch.rename_durable", id, || {
            atomic::rename_durable(&tmp, &dst)
        })?;
        let entry = ManifestEntry {
            shard,
            records: plan.shard_range(shard).len(),
            hash: digest,
        };
        rec.time("em-batch.manifest_append", id, || {
            manifest::append(&manifest_path, &entry)
        })
        .map_err(io)?;
        rec.exit(root);
    }
    if std::fs::read(&manifest_path)? != std::fs::read(dir.join(plan::MANIFEST_FILE))? {
        unfaithful += 1;
    }
    Ok((rec, counts, unfaithful, bodies))
}
