//! Per-layer metrics (`--trace 1`): a traced run of schedule 0 beside
//! untraced ones, the run's deterministic work counters, host-time
//! probes of each layer, and the host-time ledger that attributes the
//! traced wall time to layers.

use std::time::{Duration, Instant};

use snapbpf_sim::{MetricsRegistry, Tracer};

use crate::e2e::Session;
use crate::probes::{self, World};
use crate::report::Report;
use crate::stats::{median, Buckets};
use crate::workload::{cluster_threads, Kind};

/// Restore stages as the metrics registry names them, with the
/// per-layer metric each mean is reported as.
const STAGES: [(&str, &str); 4] = [
    ("metadata-load", "core.stage.metadata_load_ms"),
    ("prefetch-issue", "core.stage.prefetch_issue_ms"),
    ("overlay-setup", "core.stage.overlay_setup_ms"),
    ("resume", "core.stage.resume_ms"),
];

/// Counters reported as they are, under their registry names.
const COUNTS: [&str; 31] = [
    "ebpf.verifier.programs",
    "ebpf.verifier.cache_hits",
    "ebpf.verifier.insns_processed",
    "ebpf.opt.programs",
    "ebpf.opt.cache_hits",
    "ebpf.opt.insns_before",
    "ebpf.opt.insns_after",
    "ebpf.prog.insns",
    "ebpf.prog.invocations",
    "ebpf.map.updates",
    "ebpf.map.creates",
    "ebpf.prefetch.pages",
    "ebpf.prefetch.ranges",
    "ebpf.ring.drops",
    "mem.cache.hits",
    "mem.cache.misses",
    "mem.cache.inserts",
    "mem.cache.pressure_evictions",
    "mem.cache.dedup_hits",
    "storage.read.requests",
    "storage.read.bytes",
    "vmm.guest.minor_faults",
    "vmm.guest.major_faults",
    "vmm.guest.pv_anon_faults",
    "vmm.guest.cow_breaks",
    "vmm.uffd.faults",
    "fleet.cold_starts",
    "fleet.warm_hits",
    "fleet.pool_evictions",
    "fleet.pool_expirations",
    "cluster.snapshot_fetches",
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Interpolated percentile `p` of registry histogram `name`, divided
/// by `scale` (0 when the histogram is absent or empty).
fn hist_pct(m: &MetricsRegistry, name: &str, p: f64, scale: f64) -> f64 {
    m.histogram(name)
        .map_or(0.0, |h| Buckets::of(h).percentile(p) / scale)
}

/// Host-time probe results, ns per call; a layer the workload's run
/// never called reads 0 and is not probed.
#[derive(Default)]
struct Probes {
    verify: f64,
    verify_optimized: f64,
    optimize: f64,
    interp_per_insn: f64,
    attach_hit: f64,
    attach_miss: f64,
    cache_lookup: f64,
    cache_insert: f64,
    read: f64,
}

fn probe(s: &Session, m: &MetricsRegistry) -> Result<Probes, String> {
    let input = s.input(0);
    let world = World::build(&input.cfg, &input.functions)?;
    let mut p = Probes::default();
    if m.counter("ebpf.verifier.programs") > 0 {
        (p.verify, p.verify_optimized) = probes::verify_ns(&world)?;
        p.attach_hit = probes::attach_hit_ns(&world)?;
        p.attach_miss = probes::attach_miss_ns(&world)?;
    }
    if m.counter("ebpf.opt.programs") > 0 {
        p.optimize = probes::optimize_ns(&world)?;
    }
    if m.counter("ebpf.prog.insns") > 0 {
        p.interp_per_insn = probes::interp_ns_per_insn(&world)?;
    }
    if m.counter("mem.cache.hits") + m.counter("mem.cache.misses") > 0 {
        (p.cache_lookup, p.cache_insert) = probes::cache_ns(&world)?;
    }
    let requests = m.counter("storage.read.requests");
    if requests > 0 {
        let pages = (m.counter("storage.read.bytes") / 4096).div_ceil(requests);
        p.read = probes::read_ns(&world, pages)?;
    }
    Ok(p)
}

/// `--trace 1`: untraced, serial (cluster only) and traced runs of
/// schedule 0 alternating for half the budget, then the probes, then
/// the per-layer report.
pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut s = Session::new(kind, seed);
    let threads = cluster_threads();
    let (mut plain, mut traced, mut serial) = (Vec::new(), Vec::new(), Vec::new());
    let mut events = 0usize;
    let budget = Duration::from_secs(seconds) / 2;
    let start = Instant::now();
    while plain.len() < 3 || start.elapsed() < budget {
        plain.push(s.run(0, threads, None)?.1);
        if kind.is_cluster() {
            serial.push(s.run(0, 1, None)?.1);
        }
        // The traced run is serial: the ledger adds up per-call costs,
        // which sum to the wall time only on one thread.
        let tracer = Tracer::recording();
        traced.push(s.run(0, 1, Some(&tracer))?.1);
        // Spans stay in memory for the run and are dropped here.
        events = events.max(tracer.take_events().len());
    }
    // The untraced runs at the traced run's thread count.
    let untraced = if kind.is_cluster() { &serial } else { &plain };
    let mut report = std::mem::take(&mut s.report);
    let out = s.reference(0);
    let m = out.metrics();
    println!(
        "{} untraced and {} traced runs of schedule 0; {events} trace events per traced run",
        plain.len(),
        traced.len()
    );

    let p = probe(&s, m)?;
    let c = |name: &str| m.counter(name);

    // Per-layer counts and ratios.
    for name in COUNTS {
        report.metric(name, c(name) as f64, "count");
    }
    let agg = out.aggregate();
    report.metric("fleet.shed", agg.shed as f64, "count");
    report.metric("fleet.failed", agg.failed as f64, "count");
    report.metric(
        "ebpf.verifier.hit_ratio",
        ratio(c("ebpf.verifier.cache_hits"), c("ebpf.verifier.programs")),
        "ratio",
    );
    let before = c("ebpf.opt.insns_before");
    report.metric(
        "ebpf.opt.shrink",
        ratio(before.saturating_sub(c("ebpf.opt.insns_after")), before),
        "ratio",
    );
    report.metric(
        "mem.cache.hit_ratio",
        ratio(
            c("mem.cache.hits"),
            c("mem.cache.hits") + c("mem.cache.misses"),
        ),
        "ratio",
    );
    // Virtual-time layer figures.
    report.metric(
        "storage.read.latency_p99_us",
        hist_pct(m, "storage.read.latency_ns", 99.0, 1e3),
        "us",
    );
    report.metric(
        "storage.queue.depth_max",
        m.histogram("storage.queue.depth")
            .and_then(|h| h.max())
            .unwrap_or(0) as f64,
        "count",
    );
    report.metric(
        "vmm.uffd.wait_p99_us",
        hist_pct(m, "vmm.uffd.wait_ns", 99.0, 1e3),
        "us",
    );
    for (stage, name) in STAGES {
        let mean = m
            .histogram(&format!("core.restore.stage.{stage}_ns"))
            .map_or(0.0, |h| h.mean());
        report.metric(name, mean / 1e6, "ms");
    }
    report.metric(
        "fleet.queue_wait_p99_ms",
        Buckets::of(&agg.queue_wait).percentile(99.0) / 1e6,
        "ms",
    );

    // Host-time probes, ns per call.
    report.metric("ebpf.verify_ns", p.verify, "ns");
    report.metric("ebpf.optimize_ns", p.optimize, "ns");
    report.metric("ebpf.interp_ns_per_insn", p.interp_per_insn, "ns");
    report.metric("kernel.attach_hit_ns", p.attach_hit, "ns");
    report.metric("kernel.attach_miss_ns", p.attach_miss, "ns");
    report.metric("mem.cache_lookup_ns", p.cache_lookup, "ns");
    report.metric("mem.cache_insert_ns", p.cache_insert, "ns");
    report.metric("storage.read_ns", p.read, "ns");

    // Host-time ledger: probe cost times the traced run's call count,
    // as a share of the traced run's wall time.
    let traced_ns = median(&traced) * 1e9;
    let verify_misses = c("ebpf.verifier.programs").saturating_sub(c("ebpf.verifier.cache_hits"));
    let opt_misses = c("ebpf.opt.programs").saturating_sub(c("ebpf.opt.cache_hits"));
    let shares = [
        (
            "ebpf.verify.host_share",
            verify_misses as f64 * p.verify + opt_misses as f64 * p.verify_optimized,
        ),
        ("ebpf.opt.host_share", opt_misses as f64 * p.optimize),
        (
            "ebpf.interp.host_share",
            c("ebpf.prog.insns") as f64 * p.interp_per_insn,
        ),
        (
            "kernel.attach.host_share",
            c("ebpf.verifier.programs") as f64 * p.attach_hit,
        ),
        (
            "mem.cache.host_share",
            (c("mem.cache.hits") + c("mem.cache.misses")) as f64 * p.cache_lookup
                + c("mem.cache.inserts") as f64 * p.cache_insert,
        ),
        (
            "storage.host_share",
            c("storage.read.requests") as f64 * p.read,
        ),
    ];
    let mut attributed = 0.0;
    for (name, ns) in shares {
        let share = ns / traced_ns;
        attributed += share;
        report.metric(name, share, "ratio");
    }
    report.metric("unattributed.host_share", 1.0 - attributed, "ratio");
    report.metric(
        "trace.overhead",
        median(&traced) / median(untraced),
        "ratio",
    );
    report.metric(
        "fleet.parallel_speedup",
        if kind.is_cluster() {
            median(&serial) / median(&plain)
        } else {
            0.0
        },
        "ratio",
    );
    Ok(report)
}
