//! Cluster placement policies: which host serves an arrival.
//!
//! A cluster run consults a [`PlacementPolicy`] once
//! per arrival, handing it a snapshot of every host's scheduling
//! state as plain-data [`HostView`]s (no borrows of live host
//! structures, so policies are unit- and property-testable in
//! isolation). Three policies cover the design space the literature
//! converges on:
//!
//! * [`HashPlacement`] — stateless consistent (rendezvous) hashing on
//!   the *function name*: a function always lands on the same host
//!   regardless of load, giving perfect snapshot affinity but no load
//!   awareness. Keyed on the name — not the index — so the mapping is
//!   stable under reorderings of the function mix.
//! * [`LeastLoadedPlacement`] — classic join-the-shortest-queue on
//!   (in-flight + queued), ignoring data locality entirely.
//! * [`LocalityPlacement`] — snapshot-locality-aware: prefer a host
//!   holding a live warm sandbox for the function, then the host
//!   whose page cache holds the most of the function's snapshot
//!   (restores there hit memory instead of disk), falling back to
//!   least-loaded for first-touch placements. This is the policy that
//!   compounds with SnapBPF: its restores populate the page cache
//!   with exactly the pages the next restore needs, so locality keeps
//!   routing the function into its own cache footprint.

/// One host's scheduling state at a placement decision, as plain
/// data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostView {
    /// Host index in the cluster, `0..hosts`.
    pub host: usize,
    /// Sandboxes currently restoring or running.
    pub in_flight: usize,
    /// Requests waiting in the admission queue.
    pub queued: usize,
    /// Live parked warm sandboxes for the function being placed.
    pub warm_parked: usize,
    /// Pages of the function's snapshot resident (or in flight) in
    /// this host's page cache.
    pub cached_snapshot_pages: u64,
}

impl HostView {
    /// Total work on the host: in-flight plus queued.
    pub fn load(&self) -> usize {
        self.in_flight + self.queued
    }
}

/// A routing decision procedure over the hosts of a cluster.
pub trait PlacementPolicy {
    /// Short label for figures and traces.
    fn label(&self) -> &'static str;

    /// Picks the host for one arrival of the function named
    /// `func_name`. `hosts` is non-empty and indexed by host; the
    /// returned index must be one of `hosts[i].host`.
    fn place(&mut self, func_name: &str, hosts: &[HostView]) -> usize;
}

/// One SplitMix64-style finalization round: decorrelates the
/// (function, host) score pairs rendezvous hashing compares.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Stateless consistent hashing on the function name (see module
/// docs). Rendezvous (highest-random-weight) form: each host scores
/// `mix(hash(name) ^ host)` and the highest score wins, so removing
/// a host only remaps the functions that lived there.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPlacement;

impl PlacementPolicy for HashPlacement {
    fn label(&self) -> &'static str {
        "hash"
    }

    fn place(&mut self, func_name: &str, hosts: &[HostView]) -> usize {
        let key = snapbpf_sim::fnv1a(func_name.as_bytes());
        hosts
            .iter()
            .max_by_key(|v| {
                (
                    mix(key ^ (v.host as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    v.host,
                )
            })
            .expect("placement over at least one host")
            .host
    }
}

/// Join-the-shortest-queue (see module docs). Ties break toward the
/// lowest host index for determinism.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoadedPlacement;

impl PlacementPolicy for LeastLoadedPlacement {
    fn label(&self) -> &'static str {
        "least-loaded"
    }

    fn place(&mut self, _func_name: &str, hosts: &[HostView]) -> usize {
        hosts
            .iter()
            .min_by_key(|v| (v.load(), v.host))
            .expect("placement over at least one host")
            .host
    }
}

/// Snapshot-locality-aware placement (see module docs): warm sandbox
/// first, then warmest page cache, then least-loaded first touch —
/// with a load escape valve. Pure stickiness would inherit consistent
/// hashing's failure mode (a popular function pins its host until the
/// queue convoys), so a locality candidate is only taken while its
/// load stays within [`LocalityPlacement::ESCAPE_FACTOR`] of the
/// least-loaded host's; beyond that the arrival overflows to the
/// least-loaded host, which then builds its own cache footprint and
/// shares the function's load from the next decision on.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalityPlacement;

impl LocalityPlacement {
    /// A locality candidate is abandoned once its load exceeds
    /// `ESCAPE_FACTOR * (min_load + 1)` — affinity is worth a
    /// moderately longer queue (cache hits repay it) but not a
    /// convoy.
    pub const ESCAPE_FACTOR: usize = 2;

    fn within_escape(v: &HostView, min_load: usize) -> bool {
        v.load() <= Self::ESCAPE_FACTOR * (min_load + 1)
    }
}

impl PlacementPolicy for LocalityPlacement {
    fn label(&self) -> &'static str {
        "locality"
    }

    fn place(&mut self, func_name: &str, hosts: &[HostView]) -> usize {
        let min_load = hosts
            .iter()
            .map(HostView::load)
            .min()
            .expect("placement over at least one host");
        let best = |key: fn(&HostView) -> u64| {
            hosts
                .iter()
                .filter(|v| key(v) > 0 && Self::within_escape(v, min_load))
                .max_by(|a, b| {
                    (
                        key(a),
                        std::cmp::Reverse(a.load()),
                        std::cmp::Reverse(a.host),
                    )
                        .cmp(&(
                            key(b),
                            std::cmp::Reverse(b.load()),
                            std::cmp::Reverse(b.host),
                        ))
                })
        };
        if let Some(v) = best(|v| v.warm_parked as u64) {
            return v.host;
        }
        if let Some(v) = best(|v| v.cached_snapshot_pages) {
            return v.host;
        }
        LeastLoadedPlacement.place(func_name, hosts)
    }
}

/// Which placement policy a cluster run uses — the plain-data,
/// comparable form carried by [`crate::FleetConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementKind {
    /// [`HashPlacement`].
    #[default]
    Hash,
    /// [`LeastLoadedPlacement`].
    LeastLoaded,
    /// [`LocalityPlacement`].
    Locality,
}

impl PlacementKind {
    /// Every policy, in figure order.
    pub const ALL: [PlacementKind; 3] = [
        PlacementKind::Hash,
        PlacementKind::LeastLoaded,
        PlacementKind::Locality,
    ];

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn PlacementPolicy> {
        match self {
            PlacementKind::Hash => Box::new(HashPlacement),
            PlacementKind::LeastLoaded => Box::new(LeastLoadedPlacement),
            PlacementKind::Locality => Box::new(LocalityPlacement),
        }
    }

    /// Short label for figures and traces.
    pub fn label(&self) -> &'static str {
        match self {
            PlacementKind::Hash => "hash",
            PlacementKind::LeastLoaded => "least-loaded",
            PlacementKind::Locality => "locality",
        }
    }

    /// Parses a label back into a kind (CLI surface).
    pub fn parse(s: &str) -> Option<PlacementKind> {
        PlacementKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle(n: usize) -> Vec<HostView> {
        (0..n)
            .map(|host| HostView {
                host,
                in_flight: 0,
                queued: 0,
                warm_parked: 0,
                cached_snapshot_pages: 0,
            })
            .collect()
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let views = idle(4);
        let mut p = HashPlacement;
        let names = ["json", "html", "pyaes", "image", "chameleon", "matmul"];
        let picks: Vec<usize> = names.iter().map(|n| p.place(n, &views)).collect();
        assert_eq!(
            picks,
            names.iter().map(|n| p.place(n, &views)).collect::<Vec<_>>(),
            "same name, same host"
        );
        let distinct: std::collections::BTreeSet<usize> = picks.iter().copied().collect();
        assert!(
            distinct.len() > 1,
            "six functions over four hosts should not all collide: {picks:?}"
        );
        for &h in &picks {
            assert!(h < 4);
        }
    }

    #[test]
    fn hash_ignores_load_least_loaded_follows_it() {
        let mut views = idle(3);
        views[0].in_flight = 9;
        views[1].queued = 2;
        let mut hash = HashPlacement;
        let mut ll = LeastLoadedPlacement;
        assert_eq!(hash.place("json", &idle(3)), hash.place("json", &views));
        assert_eq!(ll.place("json", &views), 2, "host 2 is idle");
        views[2].in_flight = 1;
        views[1].queued = 0;
        assert_eq!(ll.place("json", &views), 1, "lowest load wins");
    }

    #[test]
    fn rendezvous_hash_is_minimally_disruptive() {
        // Dropping one host only remaps names that lived on it.
        let mut p = HashPlacement;
        let full = idle(4);
        let names = ["json", "html", "pyaes", "image", "chameleon", "matmul"];
        for name in names {
            let before = p.place(name, &full);
            let survivors: Vec<HostView> = full.iter().copied().filter(|v| v.host != 3).collect();
            let after = p.place(name, &survivors);
            if before != 3 {
                assert_eq!(before, after, "{name} moved although its host survived");
            } else {
                assert!(after < 3);
            }
        }
    }

    #[test]
    fn locality_prefers_warm_then_cache_then_load() {
        let mut p = LocalityPlacement;
        let mut views = idle(3);
        // No signal at all: least-loaded fallback (all idle → host 0).
        assert_eq!(p.place("json", &views), 0);
        // A page-cache footprint beats nothing...
        views[2].cached_snapshot_pages = 64;
        assert_eq!(p.place("json", &views), 2);
        // ...a bigger footprint beats a smaller one...
        views[1].cached_snapshot_pages = 640;
        assert_eq!(p.place("json", &views), 1);
        // ...and a live warm sandbox trumps any cache footprint.
        views[0].warm_parked = 1;
        assert_eq!(p.place("json", &views), 0);
        // Among equal cache footprints, the less-loaded host wins.
        views[0].warm_parked = 0;
        views[1].cached_snapshot_pages = 64;
        views[1].in_flight = 5;
        assert_eq!(p.place("json", &views), 2);
    }

    #[test]
    fn kind_round_trips_labels() {
        for kind in PlacementKind::ALL {
            assert_eq!(PlacementKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.build().label(), kind.label());
        }
        assert_eq!(PlacementKind::parse("nope"), None);
        assert_eq!(PlacementKind::default(), PlacementKind::Hash);
    }
}
