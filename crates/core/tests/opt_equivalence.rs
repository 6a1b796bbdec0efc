//! Optimizer equivalence on the shipped prefetch builders: with the
//! host kernel's optimizer on vs off, both the looped prefetch
//! program and its telemetry-instrumented variant must issue the
//! identical prefetch-range sequence, produce byte-identical
//! telemetry, and leave identical stat slots — while executing
//! measurably fewer instructions per invocation.

use snapbpf::{
    build_prefetch_program, build_prefetch_program_cascade, build_prefetch_program_telemetry,
    groups_map_def, groups_map_image, WsGroup, GROUPS_CURSOR_SLOT,
};
use snapbpf_kernel::{HostKernel, KernelConfig, PAGE_CACHE_ADD_HOOK};
use snapbpf_sim::{SimTime, TraceValue, Tracer};
use snapbpf_storage::{Disk, SsdModel};

fn groups() -> Vec<WsGroup> {
    vec![
        WsGroup {
            start: 1000,
            len: 16,
            earliest_ns: 0,
        },
        WsGroup {
            start: 200,
            len: 8,
            earliest_ns: 1,
        },
        WsGroup {
            start: 4000,
            len: 4,
            earliest_ns: 2,
        },
    ]
}

/// Everything observable from one restore run: the ordered prefetch
/// ranges, the raw (undecoded) ring records, the merged per-CPU stat
/// slots, and the mean dynamic instruction count per invocation.
#[derive(Debug, PartialEq)]
struct RunObservables {
    ranges: Vec<(u64, u64)>,
    ring_bytes: Vec<Vec<u8>>,
    stats: Vec<u64>,
    mean_insns: u64,
}

fn run(
    optimize: bool,
    telemetry: bool,
    build: impl FnOnce(
        snapbpf_storage::FileId,
        snapbpf_ebpf::MapId,
        Option<(snapbpf_ebpf::MapId, snapbpf_ebpf::MapId)>,
    ) -> snapbpf_ebpf::Program,
) -> RunObservables {
    let groups = groups();
    let mut k = HostKernel::new(
        Disk::new(Box::new(SsdModel::micron_5300())),
        KernelConfig::default(),
    );
    k.set_optimizer(optimize);
    let tracer = Tracer::recording();
    k.install_tracer(&tracer);
    k.set_readahead(false);
    let snap = k.disk_mut().create_file("snap", 8192).unwrap();
    let map = k.create_map(groups_map_def(groups.len() as u32)).unwrap();
    k.load_map_from_user(map, 0, &groups_map_image(&groups))
        .unwrap();
    let tel = if telemetry {
        let ring = k.create_map(snapbpf_ebpf::telemetry_ring_def()).unwrap();
        let stats = k.create_map(snapbpf_ebpf::telemetry_stats_def()).unwrap();
        Some((ring, stats))
    } else {
        None
    };
    let prog = build(snap, map, tel);
    let probe = k.load_and_attach(PAGE_CACHE_ADD_HOOK, &prog).unwrap();

    k.trigger_access(SimTime::ZERO, snap, 0).unwrap();

    // The optimized image must still satisfy every behavioral
    // postcondition of the original.
    for g in &groups {
        for p in g.start..g.end() {
            assert!(k.page_state(snap, p).is_some(), "page {p} missing");
        }
    }
    assert!(!k.probe_enabled(probe), "program must disable itself");
    assert_eq!(
        k.maps().array_load_u64(map, GROUPS_CURSOR_SLOT).unwrap(),
        groups.len() as u64
    );

    let ranges = tracer
        .take_events()
        .into_iter()
        .filter(|e| e.name == "prefetch-range")
        .map(|e| {
            let field = |key: &str| {
                e.args
                    .iter()
                    .find_map(|(k, v)| match v {
                        TraceValue::U64(n) if *k == key => Some(*n),
                        _ => None,
                    })
                    .expect("u64 arg present")
            };
            (field("start_page"), field("pages"))
        })
        .collect();

    let (mut ring_bytes, mut stats) = (Vec::new(), Vec::new());
    if let Some((ring, stat_map)) = tel {
        while let Some(raw) = k.maps_mut().ring_pop(ring).unwrap() {
            ring_bytes.push(raw);
        }
        for slot in [
            snapbpf_ebpf::STAT_SLOT_ISSUED,
            snapbpf_ebpf::STAT_SLOT_PAGES,
            snapbpf_ebpf::STAT_SLOT_ENOSPC,
        ] {
            stats.push(k.maps().percpu_load_merged_u64(stat_map, slot).unwrap());
        }
        assert_eq!(k.maps().ring_dropped(ring).unwrap(), 0);
    }

    let m = tracer.metrics_snapshot();
    let hist = m
        .histogram("ebpf.prog.insns_per_invocation")
        .expect("prefetch runs record per-invocation instruction counts");
    RunObservables {
        ranges,
        ring_bytes,
        stats,
        mean_insns: hist.mean().round() as u64,
    }
}

/// Asserts full observable equivalence and returns the
/// (unoptimized, optimized) mean instruction counts.
fn assert_equivalent(
    telemetry: bool,
    build: impl Fn(
        snapbpf_storage::FileId,
        snapbpf_ebpf::MapId,
        Option<(snapbpf_ebpf::MapId, snapbpf_ebpf::MapId)>,
    ) -> snapbpf_ebpf::Program,
) -> (u64, u64) {
    let base = run(false, telemetry, &build);
    let opt = run(true, telemetry, &build);
    assert_eq!(opt.ranges, base.ranges, "prefetch ranges diverged");
    assert!(!base.ranges.is_empty());
    assert_eq!(
        opt.ring_bytes, base.ring_bytes,
        "telemetry ring bytes diverged"
    );
    assert_eq!(opt.stats, base.stats, "stat slots diverged");
    assert!(
        opt.mean_insns <= base.mean_insns,
        "optimizer must never add dynamic instructions ({} -> {})",
        base.mean_insns,
        opt.mean_insns
    );
    (base.mean_insns, opt.mean_insns)
}

#[test]
fn looped_prefetch_is_equivalent_and_at_least_10_percent_cheaper() {
    let (base, opt) = assert_equivalent(false, |snap, map, _| {
        build_prefetch_program(snap, map, groups().len() as u32)
    });
    assert!(
        (opt as f64) <= (base as f64) * 0.90,
        "expected >= 10% dynamic insn reduction, got {base} -> {opt}"
    );
}

#[test]
fn telemetry_prefetch_is_equivalent_and_at_least_15_percent_cheaper() {
    // On the fleet workloads (more groups per invocation, so the
    // optimized loop body dominates) the reduction exceeds 20% — see
    // the pinned `ebpf.prog.insns_per_invocation` means in the fleet
    // goldens. This 3-group micro case carries proportionally more
    // fixed prologue cost, so the floor here is 15%.
    let (base, opt) = assert_equivalent(true, |snap, map, tel| {
        let (ring, stats) = tel.unwrap();
        build_prefetch_program_telemetry(snap, map, groups().len() as u32, ring, stats)
    });
    assert!(
        (opt as f64) <= (base as f64) * 0.85,
        "expected >= 15% dynamic insn reduction, got {base} -> {opt}"
    );
}

#[test]
fn cascade_prefetch_is_equivalent() {
    // The cascade baseline has no loop for the heavy passes to chew
    // on; equivalence must still hold (reduction is not required).
    assert_equivalent(false, |snap, map, _| {
        build_prefetch_program_cascade(snap, map)
    });
}

/// The kfunc the host kernel registers (mirrors `HostKernel`'s
/// table), so liveness sees the same call signatures as a real load.
const HOST_KFUNCS: &[snapbpf_ebpf::KfuncSig] = &[snapbpf_ebpf::KfuncSig {
    name: "snapbpf_prefetch",
    args: 3,
}];

/// Renders the optimized image of every shipped builder, once at the
/// `opt-report` sizes (4096 capture samples, 256 groups) and once at
/// one of each, with the optimizer's round and instruction counts.
fn optimized_images() -> String {
    use snapbpf::{build_capture_program, wset_map_def};
    use snapbpf_storage::Disk;
    use std::fmt::Write as _;

    let mut out = String::new();
    for (samples, max_groups) in [(4096, 256), (1, 1)] {
        let mut k = HostKernel::new(
            Disk::new(Box::new(SsdModel::micron_5300())),
            KernelConfig::default(),
        );
        let snap = k.disk_mut().create_file("snap", 8192).unwrap();
        let wset = k.create_map(wset_map_def(samples)).unwrap();
        let groups = k.create_map(groups_map_def(max_groups)).unwrap();
        let ring = k.create_map(snapbpf_ebpf::telemetry_ring_def()).unwrap();
        let stats = k.create_map(snapbpf_ebpf::telemetry_stats_def()).unwrap();
        let programs = [
            build_capture_program(snap, wset, samples),
            build_prefetch_program(snap, groups, max_groups),
            build_prefetch_program_telemetry(snap, groups, max_groups, ring, stats),
            build_prefetch_program_cascade(snap, groups),
        ];
        for prog in &programs {
            let (image, s) = snapbpf_ebpf::PassManager::new().optimize(prog, k.maps(), HOST_KFUNCS);
            let _ = writeln!(
                out,
                "== {} (samples={samples}, max_groups={max_groups}): rounds={} insns_before={} insns_after={}",
                prog.name(),
                s.rounds,
                s.insns_before,
                s.insns_after
            );
            let _ = write!(out, "{image}");
        }
    }
    out
}

/// Pins every optimized image byte for byte, so a change to the pass
/// pipeline that alters any shipped program shows up as a diff. Bless
/// intentional changes with `UPDATE_GOLDEN=1 cargo test -p snapbpf
/// --test opt_equivalence` and inspect the diff.
#[test]
fn golden_optimized_images() {
    let actual = optimized_images();
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/opt_images.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden file {} missing; bless with UPDATE_GOLDEN=1 cargo test -p snapbpf --test opt_equivalence",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "optimized images changed; if intentional, bless with UPDATE_GOLDEN=1 cargo test -p snapbpf --test opt_equivalence"
    );
}
