//! The load pipeline behind one structural cache: [`ProgramCache`].

use std::collections::hash_map::{Entry, HashMap};

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

#[derive(Debug, Default)]
struct Shape {
    /// A logless load verified this shape; logged loads always walk.
    verified: bool,
    /// Set once the optimizer has run on this shape.
    opt: Option<CachedOpt>,
}

#[derive(Debug)]
struct CachedOpt {
    /// The re-verified optimized image in slot form; `None` when
    /// re-verification rejected it and the original is attached.
    image: Option<Vec<Insn>>,
    stats: OptStats,
}

/// `insns` with every map reference replaced by `f(map)`.
fn remap(insns: &[Insn], f: impl Fn(MapId) -> MapId) -> Vec<Insn> {
    let remap = |insn| match insn {
        Insn::LoadMapRef { dst, map } => Insn::LoadMapRef { dst, map: f(map) },
        other => other,
    };
    insns.iter().copied().map(remap).collect()
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
#[derive(Debug, Default)]
pub struct ProgramCache {
    shapes: HashMap<ShapeKey, Shape>,
    trace: Tracer,
}

impl ProgramCache {
    /// Attaches the structured trace handle load metrics go to.
    pub fn set_tracer(&mut self, trace: Tracer) {
        self.trace = trace;
    }

    /// Distinct program shapes with an accepted load.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
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
            self.shapes.entry(ShapeKey {
                insns: remap(program.insns(), slot_of),
                defs,
                kfuncs: kfuncs.to_vec(),
            })
        });
        let verify_hit = !log && matches!(&shape, Some(Entry::Occupied(e)) if e.get().verified);

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
            let result = Verifier::new(maps, kfuncs).verify(program);
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
        let shape = shape
            .expect("the verifier rejects unknown maps")
            .or_default();
        shape.verified |= !log;
        if !optimize {
            return (Ok(verified), verifier_log);
        }

        if shape.opt.is_some() {
            trace.incr("ebpf.opt.cache_hits");
        }
        let cached = shape.opt.get_or_insert_with(|| {
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

    /// A cache reporting into a fresh metrics-only tracer.
    fn traced() -> (ProgramCache, Tracer) {
        let trace = Tracer::noop();
        let mut cache = ProgramCache::default();
        cache.set_tracer(trace.clone());
        (cache, trace)
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
        assert_eq!((cache.len(), work(&trace)), (1, [walked, 0, 0, 1]));

        // Different map id, identical definition: verifier-equivalent.
        let second = load(&mut cache, &maps, &lookup_program("p2", b));
        assert_eq!(second.states_explored(), 0, "cache hit does no work");
        assert_eq!((cache.len(), work(&trace)), (1, [walked, 1, 1, 2]));
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
        assert_eq!(cache.len(), 2);
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
        assert!(cache.is_empty());
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
        assert_eq!(cache.len(), 1);
    }
}
