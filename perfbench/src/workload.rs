//! The three benchmark workloads and the inputs generated for them.
//!
//! The benchmark owns input generation: it draws the open-loop
//! Poisson arrival schedule and the function picked by each arrival
//! from the seed, and hands the simulator a recorded schedule
//! ([`TraceArrival`]). The simulator therefore sees only generated
//! inputs, never the benchmark's seed.

use snapbpf::StrategyKind;
use snapbpf_fleet::{FleetConfig, PlacementKind, RestoreMode, SnapshotDistribution};
use snapbpf_sim::{ArrivalProcess, SimDuration, SimTime, SplitMix64, TraceArrival, TracePoint};
use snapbpf_workloads::{FunctionMix, Workload};

/// Workload scale every configuration runs at (the fleet default).
pub const SCALE: f64 = 0.05;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// SnapBPF on an 8-host cluster, warm keep-alive pools.
    ClusterWarm,
    /// SnapBPF on one host, every invocation a cold start.
    ColdSnapBpf,
    /// REAP on one host, the same arrivals as `ColdSnapBpf`.
    ColdReap,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::ClusterWarm, Kind::ColdSnapBpf, Kind::ColdReap];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ClusterWarm => "cluster-warm",
            Kind::ColdSnapBpf => "cold-snapbpf",
            Kind::ColdReap => "cold-reap",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload runs on the multi-host cluster engine.
    pub fn is_cluster(self) -> bool {
        self == Kind::ClusterWarm
    }

    /// The functions the workload deploys: the eight-function suite
    /// front on the cluster, the whole suite on one host.
    pub fn functions(self) -> Vec<Workload> {
        let suite = Workload::suite();
        match self {
            Kind::ClusterWarm => suite.into_iter().take(8).collect(),
            Kind::ColdSnapBpf | Kind::ColdReap => suite,
        }
    }

    /// Independent arrival schedules one benchmark run simulates.
    /// Every virtual-time metric pools the completions of all of
    /// them, so a seed's tail latency rests on this many times the
    /// samples of one schedule. The count is fixed, so virtual
    /// metrics never depend on how many timed repeats fit in the
    /// run's wall-clock budget.
    pub fn schedules(self) -> u64 {
        match self {
            Kind::ClusterWarm => 16,
            Kind::ColdSnapBpf | Kind::ColdReap => 20,
        }
    }

    /// How much harder contention on the benchmark's box slows the
    /// workload than the machine-speed kernel, as an exponent on the
    /// kernel's slowdown (see `calib`). REAP's fault path, hash-map
    /// work on maps that grow with every restore, is hit harder: the
    /// log of `cold-reap`'s per-run throughput against the log of the
    /// kernel time had slope 1.34 (r = 0.80 over 446 runs). The SnapBPF
    /// workloads' slopes straddled 1 (0.75-1.17).
    pub fn contention_exponent(self) -> f64 {
        match self {
            Kind::ColdReap => 1.3,
            Kind::ClusterWarm | Kind::ColdSnapBpf => 1.0,
        }
    }

    /// Aggregate Poisson arrival rate, requests per virtual second.
    fn rate_rps(self) -> f64 {
        match self {
            Kind::ClusterWarm => 3200.0,
            Kind::ColdSnapBpf | Kind::ColdReap => 100.0,
        }
    }

    /// Virtual length of one arrival schedule.
    fn duration(self) -> SimDuration {
        match self {
            Kind::ClusterWarm => SimDuration::from_secs(2),
            Kind::ColdSnapBpf | Kind::ColdReap => SimDuration::from_secs(10),
        }
    }

    /// The run configuration, without its arrival schedule.
    fn base_config(self, n_functions: usize) -> FleetConfig {
        let strategy = match self {
            Kind::ColdReap => StrategyKind::Reap,
            Kind::ClusterWarm | Kind::ColdSnapBpf => StrategyKind::SnapBpf,
        };
        let mut cfg = FleetConfig::new(strategy, n_functions, self.rate_rps()).at_scale(SCALE);
        cfg.max_concurrency = 32;
        cfg.queue_depth = 512;
        match self {
            // Snapshots are local to every host: under a remote
            // registry, cold starts mix a few fixed transfer times and
            // their median jumps between those modes from seed to seed.
            Kind::ClusterWarm => cfg
                .sharded(8, PlacementKind::Locality)
                .with_distribution(SnapshotDistribution::Local),
            // The budget is about half the ~11.4k pages the cold
            // workloads insert into an unbounded page cache. Restores
            // are serialized so that REAP's working-set fetch is part
            // of its cold start, as in REAP itself; pipelined, REAP
            // resumes the guest after a fixed 3 ms and the fetch
            // shows only as execution time.
            Kind::ColdSnapBpf | Kind::ColdReap => cfg
                .cold_only()
                .with_cache_budget(6_000)
                .restore_mode(RestoreMode::Serialized),
        }
    }
}

/// One generated input: the functions plus a configuration whose
/// arrivals are a recorded schedule drawn from a sub-seed.
pub struct Input {
    /// The deployed functions, in mix order.
    pub functions: Vec<Workload>,
    /// The run configuration.
    pub cfg: FleetConfig,
}

/// Generates schedule `index` of a benchmark run seeded with `seed`:
/// Poisson arrival times at the workload's rate and, per arrival, a
/// function drawn from the Azure-like popularity mix.
pub fn generate(kind: Kind, seed: u64, index: u64) -> Input {
    let functions = kind.functions();
    let mix = FunctionMix::azure_like(functions.len());
    let sub_seed = SplitMix64::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    let mut pick = SplitMix64::new(sub_seed ^ 0x5EED_F0E1_C7A1_D0E5);
    let horizon = SimTime::ZERO + kind.duration();
    let points: Vec<TracePoint> = ArrivalProcess::Poisson {
        rate_rps: kind.rate_rps(),
    }
    .generator(sub_seed)
    .take_until(horizon)
    .into_iter()
    .map(|at| TracePoint {
        offset: at.saturating_since(SimTime::ZERO),
        func: u32::try_from(mix.pick(&mut pick)).expect("function index fits u32"),
    })
    .collect();
    let cfg = kind
        .base_config(functions.len())
        .replaying(TraceArrival::new(points, kind.duration()));
    Input { functions, cfg }
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker threads of the measured cluster runs: `min(2, nproc)`.
pub fn cluster_threads() -> usize {
    nproc().min(2)
}
