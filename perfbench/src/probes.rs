//! Host-time probes: each times one layer's public API from outside,
//! on inputs shaped like a workload's (the shipped prefetch program at
//! each function's recorded group count, the functions' working-set
//! page keys, the run's mean read size), and reports nanoseconds per
//! call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use snapbpf::strategies::SnapBpf;
use snapbpf::{
    build_prefetch_program_telemetry, groups_map_def, groups_map_image, FunctionCtx, Strategy,
    WsGroup,
};
use snapbpf_ebpf::{
    telemetry_ring_def, telemetry_stats_def, Interpreter, KfuncHost, KfuncSig, PassManager,
    Program, VerifiedProgram, Verifier,
};
use snapbpf_fleet::FleetConfig;
use snapbpf_kernel::{HostKernel, KernelConfig, PAGE_CACHE_ADD_HOOK};
use snapbpf_mem::{FrameId, PageCache, PageKey, PageState};
use snapbpf_sim::{SimTime, SplitMix64};
use snapbpf_storage::{Disk, FileId, IoPath};
use snapbpf_vmm::Snapshot;
use snapbpf_workloads::{FunctionMix, Workload};

/// The kfunc the host kernel registers (`HostKernel::new`).
const KFUNCS: &[KfuncSig] = &[KfuncSig {
    name: "snapbpf_prefetch",
    args: 3,
}];

/// Wall-clock budget of one probe; every probe also makes at least
/// one full pass over its inputs.
const PROBE_BUDGET: Duration = Duration::from_millis(400);

/// One deployed function as the probes see it.
struct Func {
    /// Snapshot memory file on the world kernel's disk.
    file: FileId,
    pages: u64,
    groups: Vec<WsGroup>,
    /// The telemetry prefetch program against the world kernel's
    /// maps, at this function's group count.
    program: Program,
}

/// A host kernel holding every function of a workload with its
/// recorded working set, plus the workload's kernel configuration.
pub struct World {
    cfg: FleetConfig,
    kernel: HostKernel,
    funcs: Vec<Func>,
}

fn kernel_config(cfg: &FleetConfig) -> KernelConfig {
    let mut k = KernelConfig::default();
    if let Some(pages) = cfg.memory_pages {
        k.total_memory_pages = pages;
    }
    k.page_cache_budget_pages = cfg.cache_budget_pages;
    k
}

/// Builds the telemetry prefetch program for `groups` against fresh
/// maps on `kernel`, loading the groups image as a restore would.
fn program_on(
    kernel: &mut HostKernel,
    file: FileId,
    groups: &[WsGroup],
) -> Result<Program, String> {
    let n = u32::try_from(groups.len()).map_err(|e| e.to_string())?;
    let map = kernel
        .create_map(groups_map_def(n))
        .map_err(|e| e.to_string())?;
    kernel
        .load_map_from_user(map, 0, &groups_map_image(groups))
        .map_err(|e| e.to_string())?;
    let ring = kernel
        .create_map(telemetry_ring_def())
        .map_err(|e| e.to_string())?;
    let stats = kernel
        .create_map(telemetry_stats_def())
        .map_err(|e| e.to_string())?;
    Ok(build_prefetch_program_telemetry(file, map, n, ring, stats))
}

impl World {
    /// Creates every function's snapshot and records its working set
    /// with SnapBPF's capture program, as a host does at deployment.
    pub fn build(cfg: &FleetConfig, functions: &[Workload]) -> Result<World, String> {
        let mut kernel = HostKernel::new(Disk::new(cfg.device.build()), kernel_config(cfg));
        let mut t = SimTime::ZERO;
        let mut recorded = Vec::new();
        for w in functions {
            let workload = w.scaled(cfg.scale);
            let (snapshot, t_snap) =
                Snapshot::create(t, workload.name(), workload.snapshot_pages(), &mut kernel)
                    .map_err(|e| e.to_string())?;
            let mut strategy = SnapBpf::full();
            let ctx = FunctionCtx { workload, snapshot };
            t = strategy
                .record(t_snap, &mut kernel, &ctx)
                .map_err(|e| e.to_string())?;
            recorded.push((ctx.snapshot, strategy.groups().to_vec()));
        }
        let mut funcs = Vec::new();
        for (snapshot, groups) in recorded {
            let program = program_on(&mut kernel, snapshot.memory_file(), &groups)?;
            funcs.push(Func {
                file: snapshot.memory_file(),
                pages: snapshot.memory_pages(),
                groups,
                program,
            });
        }
        Ok(World {
            cfg: cfg.clone(),
            kernel,
            funcs,
        })
    }
}

/// Runs `pass` (which returns the calls it made) until `PROBE_BUDGET`
/// is spent and at least one pass ran; returns ns per call.
fn per_call(mut pass: impl FnMut() -> Result<u64, String>) -> Result<f64, String> {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < PROBE_BUDGET {
        calls += pass()?;
    }
    Ok(start.elapsed().as_nanos() as f64 / calls as f64)
}

/// `Verifier::verify` per call: (original programs, optimized images).
pub fn verify_ns(world: &World) -> Result<(f64, f64), String> {
    let verifier = Verifier::new(world.kernel.maps(), KFUNCS);
    let optimized: Vec<Program> = world
        .funcs
        .iter()
        .map(|f| {
            PassManager::new()
                .optimize(&f.program, world.kernel.maps(), KFUNCS)
                .0
        })
        .collect();
    let time = |programs: Vec<&Program>| {
        per_call(|| {
            for p in &programs {
                black_box(verifier.verify(p).map_err(|e| e.to_string())?);
            }
            Ok(programs.len() as u64)
        })
    };
    Ok((
        time(world.funcs.iter().map(|f| &f.program).collect())?,
        time(optimized.iter().collect())?,
    ))
}

/// `PassManager::optimize` per call.
pub fn optimize_ns(world: &World) -> Result<f64, String> {
    per_call(|| {
        for f in &world.funcs {
            black_box(PassManager::new().optimize(&f.program, world.kernel.maps(), KFUNCS));
        }
        Ok(world.funcs.len() as u64)
    })
}

/// The prefetch kfunc with the kernel's argument checks but no I/O.
struct CountingKfunc(u64);

impl KfuncHost for CountingKfunc {
    fn call_kfunc(&mut self, index: u32, args: [u64; 5]) -> Result<u64, String> {
        if index != 0 || args[2] == 0 {
            return Err(format!("unexpected kfunc call #{index} {args:?}"));
        }
        self.0 += args[2];
        Ok(0)
    }
}

/// `Interpreter::run` on each function's optimized, verified prefetch
/// program, fired as the page-cache hook fires it; ns per executed
/// instruction. Every run gets a fresh copy of the maps (untimed), so
/// the telemetry ring never fills.
pub fn interp_ns_per_insn(world: &World) -> Result<f64, String> {
    let maps = world.kernel.maps();
    let verified: Vec<(VerifiedProgram, u64)> = world
        .funcs
        .iter()
        .map(|f| {
            let (opt, _) = PassManager::new().optimize(&f.program, maps, KFUNCS);
            Verifier::new(maps, KFUNCS)
                .verify(&opt)
                .map(|v| (v, u64::from(f.file.as_u32())))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut interp = Interpreter::new();
    let mut busy = Duration::ZERO;
    let mut insns = 0u64;
    let start = Instant::now();
    while insns == 0 || start.elapsed() < PROBE_BUDGET {
        for (program, file) in &verified {
            let mut fresh = maps.clone();
            let mut kfunc = CountingKfunc(0);
            let ctx = [*file, 0, 1_000_000];
            let t = Instant::now();
            let outcome = interp
                .run(program, &ctx, &mut fresh, &mut kfunc)
                .map_err(|e| format!("prefetch program failed: {e}"))?;
            busy += t.elapsed();
            insns += outcome.insns_executed;
            black_box(kfunc.0);
        }
    }
    Ok(busy.as_nanos() as f64 / insns as f64)
}

/// `HostKernel::load_and_attach` (with its `detach`) of every
/// function's program on a kernel that loaded each once already: the
/// per-load cost when every cache hits.
pub fn attach_hit_ns(world: &World) -> Result<f64, String> {
    let mut kernel = HostKernel::new(
        Disk::new(world.cfg.device.build()),
        kernel_config(&world.cfg),
    );
    let mut programs = Vec::new();
    for f in &world.funcs {
        let file = kernel
            .disk_mut()
            .create_file(&format!("f{}", programs.len()), f.pages)
            .map_err(|e| e.to_string())?;
        let program = program_on(&mut kernel, file, &f.groups)?;
        let probe = kernel
            .load_and_attach(PAGE_CACHE_ADD_HOOK, &program)
            .map_err(|e| e.to_string())?;
        kernel.detach(probe).map_err(|e| e.to_string())?;
        programs.push(program);
    }
    per_call(|| {
        for p in &programs {
            let probe = kernel
                .load_and_attach(PAGE_CACHE_ADD_HOOK, p)
                .map_err(|e| e.to_string())?;
            kernel.detach(probe).map_err(|e| e.to_string())?;
        }
        Ok(programs.len() as u64)
    })
}

/// `HostKernel::load_and_attach` of each function's program on a
/// freshly booted kernel (built untimed): verify, optimize and
/// re-verify all miss.
pub fn attach_miss_ns(world: &World) -> Result<f64, String> {
    let mut busy = Duration::ZERO;
    let mut calls = 0u64;
    let start = Instant::now();
    while calls == 0 || start.elapsed() < PROBE_BUDGET {
        for f in &world.funcs {
            let mut kernel = HostKernel::new(
                Disk::new(world.cfg.device.build()),
                kernel_config(&world.cfg),
            );
            let file = kernel
                .disk_mut()
                .create_file("f", f.pages)
                .map_err(|e| e.to_string())?;
            let program = program_on(&mut kernel, file, &f.groups)?;
            let t = Instant::now();
            black_box(
                kernel
                    .load_and_attach(PAGE_CACHE_ADD_HOOK, &program)
                    .map_err(|e| e.to_string())?,
            );
            busy += t.elapsed();
            calls += 1;
        }
    }
    Ok(busy.as_nanos() as f64 / calls as f64)
}

/// Working-set page keys of the functions, in the order a stream of
/// restores drawn from the workload's popularity mix touches them.
fn page_stream(
    world: &World,
    files: &[FileId],
    restores: usize,
    rng: &mut SplitMix64,
) -> Vec<PageKey> {
    let mix = FunctionMix::azure_like(world.funcs.len());
    let mut keys = Vec::new();
    for _ in 0..restores {
        let f = mix.pick(rng);
        for g in &world.funcs[f].groups {
            keys.extend((g.start..g.end()).map(|p| PageKey::new(files[f], p)));
        }
    }
    keys
}

/// `PageCache::insert` per call (with the LRU eviction the workload's
/// budget forces), and `PageCache::lookup` per call on a cache warmed
/// by the same restore stream.
pub fn cache_ns(world: &World) -> Result<(f64, f64), String> {
    let budget = world.cfg.cache_budget_pages.unwrap_or(u64::MAX);
    let own: Vec<FileId> = world.funcs.iter().map(|f| f.file).collect();
    // Insert: every key is new, because each restore of the stream
    // lands in files no earlier restore since the last reset used.
    let mut disk = Disk::new(world.cfg.device.build());
    let generations: Vec<Vec<FileId>> = (0..64)
        .map(|g| {
            world
                .funcs
                .iter()
                .enumerate()
                .map(|(i, f)| disk.create_file(&format!("g{g}f{i}"), f.pages))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut rng = SplitMix64::new(0x9A6E_CAC4E);
    let mut cache = PageCache::new();
    let mut generation = 0usize;
    let mut frame = 0u64;
    let (mut busy, mut inserts) = (Duration::ZERO, 0u64);
    let start = Instant::now();
    while inserts == 0 || start.elapsed() < PROBE_BUDGET {
        if generation == generations.len() {
            // Start over with an empty cache: reusing a generation's
            // files would re-insert keys still cached.
            cache = PageCache::new();
            generation = 0;
        }
        let keys = page_stream(world, &generations[generation], 1, &mut rng);
        generation += 1;
        let t = Instant::now();
        for &key in &keys {
            frame += 1;
            cache
                .insert(key, FrameId::new(frame), PageState::Resident)
                .map_err(|e| e.to_string())?;
            if cache.len() > budget {
                black_box(cache.evict_lru(cache.len() - budget));
            }
        }
        busy += t.elapsed();
        inserts += keys.len() as u64;
    }
    let insert_ns = busy.as_nanos() as f64 / inserts as f64;
    let mut cache = PageCache::new();
    let mut frame = 0u64;
    for key in page_stream(world, &own, 64, &mut rng) {
        if cache.get(key).is_none() {
            frame += 1;
            cache
                .insert(key, FrameId::new(frame), PageState::Resident)
                .map_err(|e| e.to_string())?;
            if cache.len() > budget {
                cache.evict_lru(cache.len() - budget);
            }
        }
    }
    let lookups = page_stream(world, &own, 16, &mut rng);
    let lookup_ns = per_call(|| {
        for &key in &lookups {
            black_box(cache.lookup(key));
        }
        Ok(lookups.len() as u64)
    })?;
    Ok((lookup_ns, insert_ns))
}

/// `Disk` reads of `pages_per_read` pages at random offsets of the
/// functions' snapshot files: per file, one `read_file_pages` and then
/// a `read_file_runs` batch of eight; ns per read request.
pub fn read_ns(world: &World, pages_per_read: u64) -> Result<f64, String> {
    let mut disk = Disk::new(world.cfg.device.build());
    let files: Vec<(FileId, u64)> = world
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| {
            disk.create_file(&format!("s{i}"), f.pages)
                .map(|id| (id, f.pages))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut rng = SplitMix64::new(0xD15C);
    let mut now = SimTime::ZERO;
    per_call(|| {
        let mut calls = 0;
        for &(file, pages) in &files {
            let len = pages_per_read.clamp(1, pages);
            let mut offset = || rng.next_below(pages - len + 1);
            let done = disk
                .read_file_pages(now, file, offset(), len, IoPath::Direct)
                .map_err(|e| e.to_string())?;
            let runs: Vec<(u64, u64)> = (0..8).map(|_| (offset(), len)).collect();
            let batch = disk
                .read_file_runs(done.done_at, file, &runs, IoPath::Direct)
                .map_err(|e| e.to_string())?;
            now = batch.last().map_or(done.done_at, |c| c.done_at);
            calls += 9;
        }
        Ok(calls)
    })
}
