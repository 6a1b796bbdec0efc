//! Determinism tests for the parallel epoch/barrier cluster engine
//! (DESIGN.md §11): any worker-thread count must reproduce the
//! single-threaded run exactly — field-identical [`ClusterResult`]s
//! and byte-identical Chrome traces — because threads only change
//! which OS core advances a host, never the virtual-time order the
//! merged outputs are assembled in.

use snapbpf::{StrategyError, StrategyKind};
use snapbpf_fleet::{
    ClusterResult, FaultSchedule, FleetConfig, HostView, PlacementKind, PlacementPolicy, Runner,
    SnapshotDistribution,
};
use snapbpf_sim::{chrome_trace_json, SimDuration, Tracer};
use snapbpf_testkit::{small_cluster_cfg, small_suite};
use snapbpf_workloads::Workload;

/// One traced cluster run at the given worker-thread count, returning
/// the full result and the serialized Chrome trace.
fn traced_run(
    cfg: &FleetConfig,
    workloads: &[Workload],
    threads: usize,
) -> (ClusterResult, String) {
    let tracer = Tracer::recording();
    let r = Runner::new(cfg)
        .workloads(workloads)
        .tracer(&tracer)
        .threads(threads)
        .run()
        .unwrap()
        .into_cluster()
        .unwrap();
    let json = chrome_trace_json(&tracer.take_events(), Some(&r.metrics));
    (r, json.pretty())
}

/// The acceptance property: for every placement policy and both
/// snapshot-distribution modes, threads = 2, 3, and 0 ("all cores")
/// reproduce the threads = 1 run field for field and the trace byte
/// for byte.
#[test]
fn any_thread_count_matches_the_serial_run_exactly() {
    let workloads = small_suite();
    for placement in PlacementKind::ALL {
        for distribution in [
            SnapshotDistribution::Local,
            SnapshotDistribution::remote_10g(),
        ] {
            let mut cfg = small_cluster_cfg(StrategyKind::SnapBpf, 4, 160.0);
            cfg.placement = placement;
            cfg.distribution = distribution;
            let (serial, serial_trace) = traced_run(&cfg, &workloads, 1);
            for threads in [2usize, 3, 0] {
                let (parallel, parallel_trace) = traced_run(&cfg, &workloads, threads);
                assert_eq!(
                    serial,
                    parallel,
                    "{} + {:?}: threads={threads} must reproduce the serial result",
                    placement.label(),
                    cfg.distribution
                );
                assert_eq!(
                    serial_trace,
                    parallel_trace,
                    "{} + {:?}: threads={threads} must serialize a byte-identical trace",
                    placement.label(),
                    cfg.distribution
                );
            }
        }
    }
}

/// Epoch-merge interleaving stress: odd host and thread counts (so
/// hosts wrap unevenly onto workers) across several arrival seeds.
/// If the barrier merge consulted arrival order per worker instead of
/// host order, some seed here would interleave two hosts' events
/// differently and break byte equality.
#[test]
fn epoch_merge_is_seed_stable_under_odd_sharding() {
    let workloads = small_suite();
    for seed in [3u64, 11, 1234] {
        let mut cfg = small_cluster_cfg(StrategyKind::SnapBpf, 5, 200.0).with_seed(seed);
        cfg.placement = PlacementKind::LeastLoaded;
        cfg.distribution = SnapshotDistribution::remote_10g();
        let (serial, serial_trace) = traced_run(&cfg, &workloads, 1);
        let (parallel, parallel_trace) = traced_run(&cfg, &workloads, 3);
        assert_eq!(serial, parallel, "seed {seed}: results diverged");
        assert_eq!(serial_trace, parallel_trace, "seed {seed}: traces diverged");
    }
}

/// The telemetry acceptance property: the windowed per-function
/// series — scheduler samples plus the in-kernel eBPF telemetry
/// drained from ring/stats maps — serialize to byte-identical JSON
/// at any thread count, across placement policies and seeds. The
/// series carry f64 sums, so this only holds because per-host
/// registries merge in ascending host order at the epoch barrier,
/// never in thread-completion order.
#[test]
fn windowed_series_json_is_byte_identical_at_any_thread_count() {
    let workloads = small_suite();
    for placement in [PlacementKind::Hash, PlacementKind::Locality] {
        for seed in [7u64, 42] {
            let mut cfg = small_cluster_cfg(StrategyKind::SnapBpf, 4, 160.0).with_seed(seed);
            cfg.placement = placement;
            let (serial, _) = traced_run(&cfg, &workloads, 1);
            let serial_json = serial.series.to_json().compact();
            assert!(
                !serial.series.is_empty(),
                "{} seed {seed}: a SnapBPF cluster run records series",
                placement.label()
            );
            for threads in [2usize, 3, 0] {
                let (parallel, _) = traced_run(&cfg, &workloads, threads);
                assert_eq!(
                    serial_json,
                    parallel.series.to_json().compact(),
                    "{} seed {seed}: threads={threads} series JSON diverged",
                    placement.label()
                );
            }
        }
    }
}

/// The scenario battery's determinism pin: a crash epoch (host 0
/// dies mid-run with retry on, host 2 drains later) still yields
/// byte-identical traces and field-identical results at any
/// worker-thread count. Fault epochs insert a barrier mid-stream; if
/// any worker raced past it, the abort/evict/re-place cascade would
/// interleave differently and some placement here would diverge.
#[test]
fn crash_epochs_match_the_serial_run_exactly() {
    let workloads = small_suite();
    for placement in PlacementKind::ALL {
        let mut cfg = small_cluster_cfg(StrategyKind::SnapBpf, 4, 200.0).with_faults(
            FaultSchedule::none()
                .crash(0, SimDuration::from_millis(150))
                .drain(2, SimDuration::from_millis(300))
                .retrying(SimDuration::from_millis(2)),
        );
        cfg.placement = placement;
        cfg.distribution = SnapshotDistribution::remote_10g();
        let (serial, serial_trace) = traced_run(&cfg, &workloads, 1);
        assert_eq!(
            serial.aggregate.arrivals,
            serial.aggregate.completions
                + serial.aggregate.shed
                + serial.aggregate.failed
                + serial.aggregate.retried,
            "{}: faulted run must conserve invocations",
            placement.label()
        );
        for threads in [2usize, 3, 0] {
            let (parallel, parallel_trace) = traced_run(&cfg, &workloads, threads);
            assert_eq!(
                serial,
                parallel,
                "{}: threads={threads} must reproduce the serial crash run",
                placement.label()
            );
            assert_eq!(
                serial_trace,
                parallel_trace,
                "{}: threads={threads} must serialize a byte-identical crash trace",
                placement.label()
            );
        }
    }
}

/// A custom policy that always places one past the end of the host
/// range.
struct RoguePlacement;

impl PlacementPolicy for RoguePlacement {
    fn label(&self) -> &'static str {
        "rogue"
    }

    fn place(&mut self, _func_name: &str, hosts: &[HostView]) -> usize {
        hosts.len()
    }
}

/// Regression: an out-of-range placement decision from a
/// caller-supplied policy is a clean [`StrategyError::Config`], not a
/// panic (the driver used to `assert!` here).
#[test]
fn out_of_range_placement_is_a_config_error_not_a_panic() {
    let workloads = small_suite();
    let cfg = small_cluster_cfg(StrategyKind::SnapBpf, 3, 120.0);
    for threads in [1usize, 2] {
        let err = Runner::new(&cfg)
            .workloads(&workloads)
            .placement(Box::new(RoguePlacement))
            .threads(threads)
            .run()
            .unwrap_err();
        assert!(matches!(err, StrategyError::Config(_)), "got {err}");
        assert!(err.to_string().contains("host"), "{err}");
    }
}

/// The hosts of one run share a program store, so each program shape
/// is verified and optimized once per run; every host still counts
/// its loads as if it had done the work. The merged load counters are
/// the per-host sums: equal at any thread count, and equal to the
/// values pinned from when each host kept a store of its own.
#[test]
fn shared_program_store_keeps_every_load_counter() {
    let workloads = small_suite();
    let cfg = small_cluster_cfg(StrategyKind::SnapBpf, 8, 320.0);
    let load_counters = |threads| {
        let r = Runner::new(&cfg)
            .workloads(&workloads)
            .threads(threads)
            .run()
            .unwrap()
            .into_cluster()
            .unwrap();
        r.metrics
            .counters()
            .filter(|(name, _)| name.starts_with("ebpf.verifier.") || name.starts_with("ebpf.opt."))
            .map(|(name, v)| (name.to_string(), v))
            .collect::<Vec<_>>()
    };
    let serial = load_counters(1);
    assert_eq!(serial, load_counters(2));
    let pinned = [
        ("ebpf.opt.cache_hits", 3),
        ("ebpf.opt.insns_after", 666),
        ("ebpf.opt.insns_before", 720),
        ("ebpf.opt.programs", 6),
        ("ebpf.verifier.cache_hits", 3),
        ("ebpf.verifier.dead_insns", 0),
        ("ebpf.verifier.insns_processed", 2856),
        ("ebpf.verifier.programs", 6),
        ("ebpf.verifier.states_pruned", 129),
    ];
    let pinned: Vec<_> = pinned.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    assert_eq!(serial, pinned);
}
