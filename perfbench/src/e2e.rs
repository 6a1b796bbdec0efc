//! End-to-end metrics (`--trace 0`) and the checked run loop every
//! mode shares.

use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use snapbpf_fleet::{conserves_invocations, FuncStats, RunOutput, Runner};
use snapbpf_sim::Tracer;

use crate::calib;
use crate::report::Report;
use crate::stats::{median, quartiles, tail_level, Buckets};
use crate::workload::{cluster_threads, generate, Input, Kind};

/// Fresh-process set-ups timed per run; `setup_s` is their median.
/// They are spread evenly over the timed window, so a slow spell of
/// the machine touches few of them.
const SETUP_REPS: usize = 9;

/// A child that has not exited after this long is killed and the
/// benchmark fails.
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);

/// The generated schedules of one benchmark run, the first result of
/// each (the reference every later run of it must reproduce), and the
/// run's operation counts and correctness verdicts.
pub struct Session {
    kind: Kind,
    inputs: Vec<Input>,
    refs: Vec<Option<RunOutput>>,
    /// Counts and check outcomes so far.
    pub report: Report,
}

impl Session {
    /// Generates every schedule of the run seeded with `seed`.
    pub fn new(kind: Kind, seed: u64) -> Session {
        let n = kind.schedules();
        Session {
            kind,
            inputs: (0..n).map(|i| generate(kind, seed, i)).collect(),
            refs: (0..n).map(|_| None).collect(),
            report: Report::default(),
        }
    }

    /// Number of schedules.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Generated input `idx`.
    pub fn input(&self, idx: usize) -> &Input {
        &self.inputs[idx]
    }

    /// The first result of schedule `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule has not run yet.
    pub fn reference(&self, idx: usize) -> &RunOutput {
        self.refs[idx].as_ref().expect("schedule ran")
    }

    /// Runs schedule `idx` on `threads` worker threads (cluster only),
    /// under `tracer` when given, and checks the result: invocation
    /// conservation on the aggregate and every function, and equality
    /// with the schedule's first result (repeat determinism; on the
    /// cluster also thread-count determinism). Returns the output and
    /// the host wall seconds of the `Runner::run` call alone.
    ///
    /// # Errors
    ///
    /// A simulator error ends the benchmark.
    pub fn run(
        &mut self,
        idx: usize,
        threads: usize,
        tracer: Option<&Tracer>,
    ) -> Result<(RunOutput, f64), String> {
        let input = &self.inputs[idx];
        let mut runner = Runner::new(&input.cfg)
            .workloads(&input.functions)
            .threads(threads);
        if let Some(t) = tracer {
            runner = runner.tracer(t);
        }
        let start = Instant::now();
        let out = runner
            .run()
            .map_err(|e| format!("{}: {e}", self.kind.name()))?;
        let wall = start.elapsed().as_secs_f64();

        let agg = out.aggregate();
        let mut ok = true;
        let per_function = match &out {
            RunOutput::Fleet(r) => &r.per_function,
            RunOutput::Cluster(r) => &r.per_function,
        };
        for stats in std::iter::once(agg).chain(per_function) {
            if !conserves_invocations(stats) {
                ok = false;
                self.report.fail(format!(
                    "schedule {idx}: {} breaks invocation conservation",
                    stats.name
                ));
            }
        }
        match &self.refs[idx] {
            None => self.refs[idx] = Some(out.clone()),
            Some(reference) if *reference != out => {
                ok = false;
                self.report.fail(format!(
                    "schedule {idx} (threads {threads}, traced {}) differs from its first run",
                    tracer.is_some()
                ));
            }
            Some(_) => {}
        }
        self.report.attempted += agg.arrivals;
        self.report.failed += if ok {
            agg.shed + agg.failed
        } else {
            agg.arrivals
        };
        Ok((out, wall))
    }

    /// Every schedule's reference aggregate merged into one record.
    pub fn pooled(&self) -> FuncStats {
        let mut all = FuncStats::new("all");
        for r in self.refs.iter().flatten() {
            all.merge(r.aggregate());
        }
        all
    }
}

/// A short, exact summary of a run's aggregate, compared between the
/// set-up child and the parent's first run of the same schedule.
fn fingerprint(agg: &FuncStats) -> String {
    format!(
        "{} {} {} {} {} {}",
        agg.arrivals,
        agg.completions,
        agg.cold_starts,
        agg.shed,
        agg.e2e.mean().to_bits(),
        agg.restore.mean().to_bits()
    )
}

/// The set-up child: generates schedule 0 and runs it once, then
/// prints its fingerprint. The parent times this process from spawn
/// to exit, so `setup_s` covers process start, input generation and
/// the first run, including any process-wide state the program fills.
pub fn setup_child(kind: Kind, seed: u64) -> Result<(), String> {
    let input = generate(kind, seed, 0);
    let out = Runner::new(&input.cfg)
        .workloads(&input.functions)
        .threads(cluster_threads())
        .run()
        .map_err(|e| e.to_string())?;
    println!(
        "setup-fingerprint {} rss {}",
        fingerprint(out.aggregate()),
        peak_rss_mib()?
    );
    Ok(())
}

/// One timed fresh-process set-up.
struct Setup {
    secs: f64,
    fingerprint: String,
    /// The child's peak resident set, MiB.
    rss_mib: f64,
}

/// Times one fresh-process set-up.
fn time_setup(kind: Kind, seed: u64) -> Result<Setup, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["--setup-child", "--workload", kind.name(), "--seed"])
        .arg(seed.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the set-up child: {e}"))?;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if start.elapsed() > SETUP_TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            return Err("set-up child timed out".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let secs = start.elapsed().as_secs_f64();
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut out)
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("set-up child failed: {status}"));
    }
    let line = out
        .lines()
        .find_map(|l| l.strip_prefix("setup-fingerprint "))
        .ok_or("set-up child printed no fingerprint")?;
    let (fingerprint, rss) = line
        .split_once(" rss ")
        .ok_or("set-up child printed no peak RSS")?;
    Ok(Setup {
        secs,
        fingerprint: fingerprint.to_owned(),
        rss_mib: rss.parse().map_err(|e| format!("set-up child RSS: {e}"))?,
    })
}

/// This process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Virtual-time metrics over `all` (the pooled reference aggregates).
fn virtual_metrics(report: &mut Report, all: &FuncStats) {
    let e2e = Buckets::of(&all.e2e);
    let cold = Buckets::of(&all.restore).without_zeros(all.warm_starts);
    if cold.count() != all.cold_starts {
        report.fail(format!(
            "restore histogram holds {} non-zero samples for {} cold starts",
            cold.count(),
            all.cold_starts
        ));
    }
    let tail = tail_level(cold.count());
    println!(
        "virtual-time samples: e2e n={} cold starts n={} (tail level p{tail})",
        e2e.count(),
        cold.count()
    );
    report.metric("e2e_p50_ms", e2e.percentile(50.0) / 1e6, "ms");
    report.metric("e2e_p99_ms", e2e.percentile(99.0) / 1e6, "ms");
    report.metric("cold_start_p50_ms", cold.percentile(50.0) / 1e6, "ms");
    report.metric("cold_start_tail_ms", cold.percentile(tail) / 1e6, "ms");
    report.metric(
        "completed_ratio",
        all.completions as f64 / all.arrivals.max(1) as f64,
        "ratio",
    );
}

/// `--trace 0`: untraced runs cycling through the schedules for
/// `seconds`, with the fresh-process set-ups interleaved and a
/// machine-speed probe after every run and set-up, then the
/// end-to-end metrics. Host times are in reference seconds (see
/// [`calib`]).
pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut s = Session::new(kind, seed);
    let threads = cluster_threads();
    let exponent = kind.contention_exponent();
    let mut rates = Vec::new();
    let mut raw_rates = Vec::new();
    let mut speeds = Vec::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut before = calib::probe();
    let mut i = 0usize;
    // Every schedule runs once, at least one runs twice, every set-up
    // is timed, and the loop goes on until the budget is spent.
    while i <= s.len() || setups.len() < SETUP_REPS || start.elapsed() < budget {
        let due = budget.mul_f64(setups.len() as f64 / SETUP_REPS as f64);
        if setups.len() < SETUP_REPS && start.elapsed() >= due {
            let setup = time_setup(kind, seed)?;
            let after = calib::probe();
            setup_secs.push(setup.secs * calib::speed(before, after, exponent));
            setups.push(setup);
            before = after;
            continue;
        }
        let idx = i % s.len();
        let (out, wall) = s.run(idx, threads, None)?;
        let after = calib::probe();
        // The process's first run pays one-off allocator and page
        // faulting costs that `setup_s` already measures.
        if i > 0 {
            let speed = calib::speed(before, after, exponent);
            let raw = out.aggregate().arrivals as f64 / wall;
            raw_rates.push(raw);
            rates.push(raw / speed);
            speeds.push(speed);
        }
        before = after;
        if i == 0 && kind.is_cluster() && threads != 1 {
            // Thread-count determinism: the serial engine must
            // reproduce the parallel reference field for field.
            s.run(idx, 1, None)?;
            before = calib::probe();
        }
        i += 1;
    }
    let (q1, q3) = quartiles(&raw_rates).unwrap_or_default();
    let (s1, s3) = quartiles(&speeds).unwrap_or_default();
    println!(
        "{} timed runs over {} schedules in {:.1} s; host inv/s median {:.1} (quartiles {q1:.1} .. {q3:.1}); \
         machine speed median {:.3} (quartiles {s1:.3} .. {s3:.3})",
        rates.len(),
        s.len(),
        start.elapsed().as_secs_f64(),
        median(&raw_rates),
        median(&speeds)
    );

    let fp = fingerprint(s.reference(0).aggregate());
    if setups.iter().any(|c| c.fingerprint != fp) {
        s.report
            .fail("a set-up child's first result differs from the parent's".into());
    }

    let all = s.pooled();
    let mut report = std::mem::take(&mut s.report);
    report.metric("sim_inv_per_s", median(&rates), "1/s");
    let setup_rss: Vec<f64> = setups.iter().map(|c| c.rss_mib).collect();
    report.metric("setup_s", median(&setup_secs), "s");
    report.metric("peak_rss_mib", median(&setup_rss), "MiB");
    virtual_metrics(&mut report, &all);
    Ok(report)
}
