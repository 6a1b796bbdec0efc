//! The load pipeline behind one structural cache: a run-wide
//! [`ProgramStore`] seen through per-host [`ProgramCache`] views.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use snapbpf_sim::Tracer;

use crate::insn::Insn;
use crate::map::{MapDef, MapId, MapSet};
use crate::opt::{OptStats, PassManager};
use crate::program::Program;
use crate::verify::{KfuncSig, VerifiedProgram, Verifier, VerifierLog, VerifierStats, VerifyError};

#[derive(Debug, PartialEq, Eq, Hash)]
struct ShapeKey {
    insns: Vec<Insn>,
    defs: Vec<MapDef>,
    kfuncs: Vec<KfuncSig>,
}

#[derive(Debug)]
struct Shape {
    /// Insertion index in the store; keys the views' seen-sets.
    id: usize,
    /// The stats of the first accepted logless walk. A rejection is
    /// never stored: its error names the caller's maps. Locked across
    /// the walk, so concurrent first loads walk the shape once.
    verdict: Mutex<Option<VerifierStats>>,
    /// Set once the optimizer has run on this shape.
    opt: OnceLock<CachedOpt>,
}

impl Shape {
    /// The stored verdict replayed for `program`, or a walk of it
    /// that is stored when accepted.
    fn verify(
        &self,
        program: &Program,
        maps: &MapSet,
        kfuncs: &[KfuncSig],
    ) -> Result<VerifiedProgram, VerifyError> {
        let mut verdict = self.verdict.lock().expect("a verifier walk panicked");
        if let Some(stats) = &*verdict {
            return Ok(VerifiedProgram::replayed(program.clone(), stats.clone()));
        }
        let result = Verifier::new(maps, kfuncs).verify(program);
        if let Ok(verified) = &result {
            *verdict = Some(verified.stats().clone());
        }
        result
    }
}

#[derive(Debug)]
struct CachedOpt {
    /// The re-verified optimized image in slot form; `None` when
    /// re-verification rejected it and the original is attached.
    image: Option<Vec<Insn>>,
    stats: OptStats,
}

/// What one view has already counted for a shape.
#[derive(Debug, Default, Clone, Copy)]
struct Seen {
    /// A logless load verified this shape here; logged loads always walk.
    verified: bool,
    /// An optimizing load attached this shape here.
    optimized: bool,
}

/// `insns` with every map reference replaced by `f(map)`.
fn remap(insns: &[Insn], f: impl Fn(MapId) -> MapId) -> Vec<Insn> {
    let remap = |insn| match insn {
        Insn::LoadMapRef { dst, map } => Insn::LoadMapRef { dst, map: f(map) },
        other => other,
    };
    insns.iter().copied().map(remap).collect()
}

/// The verdicts and optimizer results of every program *shape* one
/// run has loaded, shared by all its [`ProgramCache`] views — one per
/// host, on any thread. Each shape is walked and optimized at most
/// once per store.
#[derive(Debug, Default)]
pub struct ProgramStore {
    shapes: Mutex<HashMap<ShapeKey, Arc<Shape>>>,
}

impl ProgramStore {
    fn shape(&self, key: ShapeKey) -> Arc<Shape> {
        let mut shapes = self.shapes.lock().expect("a store lookup panicked");
        let id = shapes.len();
        let shape = shapes.entry(key).or_insert_with(|| {
            Arc::new(Shape {
                id,
                verdict: Mutex::default(),
                opt: OnceLock::new(),
            })
        });
        Arc::clone(shape)
    }

    /// Distinct program shapes with a stored verdict.
    pub fn len(&self) -> usize {
        let shapes = self.shapes.lock().expect("a store lookup panicked");
        let stored = |s: &&Arc<Shape>| {
            s.verdict
                .lock()
                .expect("a verifier walk panicked")
                .is_some()
        };
        shapes.values().filter(stored).count()
    }

    /// Whether no verdict has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The load pipeline — verify, optimize, silent re-verify — run once
/// per program *shape*: the instructions with each map reference
/// renumbered to its first-occurrence slot (`[A, B, A]` → `[0, 1, 0]`),
/// the [`MapDef`] of each slot, and the kfunc table. The verifier reads
/// a map only for its definition, so one shape means one verdict;
/// slots keep aliasing in the key, so a hit's image is rebased slot by
/// slot onto the caller's maps. Keys are compared whole: a hash
/// collision can never admit an unverified image. Failed
/// verifications are never cached.
///
/// The work lives in a [`ProgramStore`] that views may share; a view
/// keeps its own tracer and which shapes it has seen. A view's first
/// load of a shape replays the stored walk and optimizer stats, so its
/// counters read exactly as if it had done the work itself, whichever
/// view did it.
#[derive(Debug, Default)]
pub struct ProgramCache {
    store: Arc<ProgramStore>,
    seen: HashMap<usize, Seen>,
    trace: Tracer,
}

impl ProgramCache {
    /// A view over `store`, which other views may share.
    pub fn new(store: Arc<ProgramStore>) -> Self {
        ProgramCache {
            store,
            seen: HashMap::new(),
            trace: Tracer::default(),
        }
    }

    /// Attaches the structured trace handle load metrics go to.
    pub fn set_tracer(&mut self, trace: Tracer) {
        self.trace = trace;
    }

    /// Verifies `program` and, when `optimize` is set, optimizes it
    /// and silently re-verifies the result, falling back to the
    /// original on rejection. Returns the image to attach (or the
    /// rejection) and, when `log` is set, the verifier log of a walk
    /// that never takes a cached verdict; the optimizer's result may
    /// still come from the cache.
    pub fn load(
        &mut self,
        program: &Program,
        maps: &MapSet,
        kfuncs: &[KfuncSig],
        optimize: bool,
        log: bool,
    ) -> (Result<VerifiedProgram, VerifyError>, Option<VerifierLog>) {
        let mut slots = Vec::new();
        let mut defs = Vec::new();
        for insn in program.insns() {
            if let Insn::LoadMapRef { map, .. } = insn {
                if !slots.contains(map) {
                    slots.push(*map);
                    // An unknown map leaves no shape; the walk rejects it.
                    defs.extend(maps.def(*map).ok());
                }
            }
        }
        let slot_of = |m| {
            let slot = slots.iter().position(|s| *s == m);
            MapId::from_raw(slot.expect("references only the program's maps") as u32)
        };
        let shape = (defs.len() == slots.len()).then(|| {
            self.store.shape(ShapeKey {
                insns: remap(program.insns(), slot_of),
                defs,
                kfuncs: kfuncs.to_vec(),
            })
        });
        let seen = shape.as_ref().and_then(|s| self.seen.get(&s.id));
        let verify_hit = !log && seen.is_some_and(|seen| seen.verified);

        let trace = &self.trace;
        let mut stats = VerifierStats::default();
        let mut verifier_log = None;
        let result = if log {
            let (result, log) = Verifier::new(maps, kfuncs).verify_logged(program);
            stats = log.stats().clone();
            verifier_log = Some(log);
            result
        } else if verify_hit {
            trace.incr("ebpf.verifier.cache_hits");
            Ok(VerifiedProgram::cached(program.clone()))
        } else {
            let result = match &shape {
                Some(shape) => shape.verify(program, maps, kfuncs),
                None => Verifier::new(maps, kfuncs).verify(program),
            };
            if let Ok(verified) = &result {
                stats = verified.stats().clone();
            }
            result
        };
        trace.add("ebpf.verifier.insns_processed", stats.insns_processed);
        trace.add("ebpf.verifier.states_pruned", stats.states_pruned);
        trace.add("ebpf.verifier.dead_insns", stats.dead_insns);
        let depth = stats.peak_branch_depth as u64;
        trace.observe("ebpf.verifier.peak_branch_depth", depth);
        let verified = match result {
            Ok(verified) => verified,
            Err(e) => {
                trace.incr("ebpf.verifier.rejections");
                return (Err(e), verifier_log);
            }
        };
        trace.incr("ebpf.verifier.programs");
        let shape = shape.expect("the verifier rejects unknown maps");
        let seen = self.seen.entry(shape.id).or_default();
        seen.verified |= !log;
        if !optimize {
            return (Ok(verified), verifier_log);
        }

        if seen.optimized {
            trace.incr("ebpf.opt.cache_hits");
        }
        seen.optimized = true;
        let cached = shape.opt.get_or_init(|| {
            let (optimized, stats) = PassManager::new().optimize(program, maps, kfuncs);
            // Silent: the verifier metrics cover only the program the
            // author wrote.
            let accepted = Verifier::new(maps, kfuncs).verify(&optimized).is_ok();
            let image = accepted.then(|| remap(optimized.insns(), slot_of));
            CachedOpt { image, stats }
        });
        trace.incr("ebpf.opt.programs");
        trace.add("ebpf.opt.insns_before", cached.stats.insns_before);
        trace.add("ebpf.opt.insns_after", cached.stats.insns_after);
        let image = match &cached.image {
            Some(image) => {
                let rebased = remap(image, |s| slots[s.as_u32() as usize]);
                VerifiedProgram::cached(Program::from_raw(program.name().to_string(), rebased))
            }
            None => {
                trace.incr("ebpf.opt.reverify_rejections");
                verified
            }
        };
        (Ok(image), verifier_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AccessSize, HelperId, JmpCond, Reg};
    use crate::program::ProgramBuilder;
    use crate::verify::VerifyErrorKind;

    /// A null-checked store to slot 0 of `m`.
    fn lookup_program(name: &str, m: MapId) -> Program {
        let mut b = ProgramBuilder::new(name);
        let out = b.label();
        b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
            .store_imm(Reg::R0, 0, 1, AccessSize::B8)
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        b.build().unwrap()
    }

    /// A view over `store` reporting into a fresh metrics-only tracer.
    fn view(store: &Arc<ProgramStore>) -> (ProgramCache, Tracer) {
        let trace = Tracer::noop();
        let mut cache = ProgramCache::new(Arc::clone(store));
        cache.set_tracer(trace.clone());
        (cache, trace)
    }

    /// A view over a store of its own.
    fn traced() -> (ProgramCache, Tracer) {
        view(&Arc::default())
    }

    /// A fresh map set holding one array map, and the lookup program
    /// over it: one host's view of the shared shape.
    fn host() -> (MapSet, Program) {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::array(8, 16)).unwrap();
        (maps, lookup_program("p", m))
    }

    fn load(cache: &mut ProgramCache, maps: &MapSet, program: &Program) -> VerifiedProgram {
        cache.load(program, maps, &[], true, false).0.unwrap()
    }

    /// (walked insns, verifier hits, optimizer hits, optimizer runs)
    fn work(trace: &Tracer) -> [u64; 4] {
        [
            "ebpf.verifier.insns_processed",
            "ebpf.verifier.cache_hits",
            "ebpf.opt.cache_hits",
            "ebpf.opt.programs",
        ]
        .map(|name| trace.counter(name))
    }

    #[test]
    fn cache_skips_reverification_of_identical_shapes() {
        let mut maps = MapSet::new();
        let a = maps.create(MapDef::array(8, 16)).unwrap();
        let b = maps.create(MapDef::array(8, 16)).unwrap();
        let (mut cache, trace) = traced();

        load(&mut cache, &maps, &lookup_program("p1", a));
        let [walked, ..] = work(&trace);
        assert!(walked > 0, "first load walks");
        assert_eq!((cache.store.len(), work(&trace)), (1, [walked, 0, 0, 1]));

        // Different map id, identical definition: verifier-equivalent.
        let second = load(&mut cache, &maps, &lookup_program("p2", b));
        assert_eq!(second.states_explored(), 0, "cache hit does no work");
        assert_eq!((cache.store.len(), work(&trace)), (1, [walked, 1, 1, 2]));
        assert_eq!(second.program().name(), "p2");
        assert!(second.program().insns().iter().all(|insn| match insn {
            Insn::LoadMapRef { map, .. } => *map == b,
            _ => true,
        }));
    }

    #[test]
    fn cache_distinguishes_map_shapes() {
        let mut maps = MapSet::new();
        let small = maps.create(MapDef::array(8, 16)).unwrap();
        let big = maps.create(MapDef::array(8, 1024)).unwrap();
        let (mut cache, trace) = traced();

        load(&mut cache, &maps, &lookup_program("p", small));
        let [walked, ..] = work(&trace);
        load(&mut cache, &maps, &lookup_program("p", big));
        assert_eq!(
            work(&trace),
            [2 * walked, 0, 0, 2],
            "different max_entries is a different shape"
        );
        assert_eq!(cache.store.len(), 2);
    }

    #[test]
    fn cache_never_stores_failures() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::array(8, 16)).unwrap();
        let mut b = ProgramBuilder::new("bad");
        b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            // Missing null check.
            .load(Reg::R0, Reg::R0, 0, AccessSize::B8)
            .exit();
        let prog = b.build().unwrap();
        let (mut cache, trace) = traced();
        for _ in 0..2 {
            let (result, _) = cache.load(&prog, &maps, &[], true, false);
            let kind = result.unwrap_err().kind;
            assert!(matches!(kind, VerifyErrorKind::PossiblyNull(_)));
        }
        assert!(cache.store.is_empty());
        assert_eq!(work(&trace)[1..], [0, 0, 0]);
        assert_eq!(trace.counter("ebpf.verifier.rejections"), 2);
    }

    #[test]
    fn verdicts_and_optimizer_results_fill_in_independently() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::array(8, 16)).unwrap();
        let prog = lookup_program("p", m);
        let (mut cache, trace) = traced();

        // A logged walk with the optimizer off caches neither part.
        let (logged, log) = cache.load(&prog, &maps, &[], false, true);
        assert_eq!(logged.unwrap().program(), &prog);
        assert!(log.is_some());
        let [walked, ..] = work(&trace);
        // An optimizer-off load caches only the verdict ...
        cache.load(&prog, &maps, &[], false, false).0.unwrap();
        assert_eq!(work(&trace), [2 * walked, 0, 0, 0]);
        // ... which the first optimizing load reuses.
        load(&mut cache, &maps, &prog);
        assert_eq!(work(&trace), [2 * walked, 1, 0, 1]);
        load(&mut cache, &maps, &prog);
        assert_eq!(work(&trace), [2 * walked, 2, 1, 2]);
        // A cached verdict never stands in for a log.
        let (_, log) = cache.load(&prog, &maps, &[], true, true);
        assert!(log.is_some());
        assert_eq!(work(&trace), [3 * walked, 2, 2, 3]);
        assert_eq!(cache.store.len(), 1);
    }

    #[test]
    fn views_over_one_store_count_work_they_did_not_repeat() {
        let store = Arc::default();
        let (maps_a, prog_a) = host();
        let (maps_b, prog_b) = host();
        let (mut first, first_trace) = view(&store);
        let (mut second, second_trace) = view(&store);

        load(&mut first, &maps_a, &prog_a);
        let [walked, ..] = work(&first_trace);
        assert!(walked > 0, "first load walks");
        // The second host's first load replays the stored work: its
        // counters read value for value as if it had walked and
        // optimized, and the store still holds the one shape.
        load(&mut second, &maps_b, &prog_b);
        assert_eq!(store.len(), 1);
        assert_eq!(
            second_trace.metrics_snapshot(),
            first_trace.metrics_snapshot()
        );
        // Its next load is a hit, as on a private store.
        load(&mut second, &maps_b, &prog_b);
        assert_eq!(work(&second_trace), [walked, 1, 1, 2]);
        assert_eq!(work(&first_trace), [walked, 0, 0, 1]);
    }

    #[test]
    fn concurrent_first_loads_of_one_shape_agree() {
        const THREADS: usize = 4;
        let store = Arc::default();
        let start = std::sync::Barrier::new(THREADS);
        let runs: Vec<_> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let (maps, prog) = host();
                        let (mut cache, trace) = view(&store);
                        start.wait();
                        let image = load(&mut cache, &maps, &prog);
                        (trace.metrics_snapshot(), image)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(store.len(), 1);
        let (metrics, image) = &runs[0];
        assert!(metrics.counter("ebpf.verifier.insns_processed") > 0);
        assert_eq!(metrics.counter("ebpf.opt.programs"), 1);
        let (maps, prog) = host();
        assert_eq!(
            image,
            &load(&mut traced().0, &maps, &prog),
            "as on a private store"
        );
        assert!(runs.iter().all(|run| run == &runs[0]));
    }

    #[test]
    fn views_share_the_verdict_but_optimize_only_on_request() {
        let store = Arc::default();
        let (maps, prog) = host();
        let (mut plain, plain_trace) = view(&store);
        let (mut optimizing, optimizing_trace) = view(&store);
        let optimized = |store: &ProgramStore| {
            let shapes = store.shapes.lock().unwrap();
            shapes.values().filter(|s| s.opt.get().is_some()).count()
        };

        let unoptimized = plain.load(&prog, &maps, &[], false, false).0.unwrap();
        assert_eq!(unoptimized.program(), &prog);
        assert_eq!(optimized(&store), 0);
        let [walked, ..] = work(&plain_trace);
        assert_eq!(work(&plain_trace), [walked, 0, 0, 0]);

        load(&mut optimizing, &maps, &prog);
        assert_eq!(optimized(&store), 1);
        assert_eq!(work(&optimizing_trace), [walked, 0, 0, 1]);
        assert_eq!(work(&plain_trace), [walked, 0, 0, 0]);

        // A replayed verdict carries the stored walk's stats, so the
        // attached program never depends on which view walked first.
        let (mut late, _) = view(&store);
        let replayed = late.load(&prog, &maps, &[], false, false).0.unwrap();
        assert!(replayed.states_explored() > 0);
        assert_eq!(replayed, unoptimized);
        assert_eq!(store.len(), 1);
    }
}
