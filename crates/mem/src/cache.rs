//! The OS page cache model.
//!
//! The page cache is the centrepiece of SnapBPF's memory story: pages
//! prefetched from the snapshot file land here, are **shared by every
//! VM sandbox mapping the same snapshot**, and therefore deduplicate
//! naturally (paper §3.1). The model is a map from `(file, page)` to
//! a host frame with an LRU list for eviction and an *in-flight*
//! state so concurrent faults on a page being read from disk wait for
//! the same I/O instead of issuing duplicates.

use std::collections::HashMap;
use std::fmt;

use snapbpf_sim::{FnvBuildHasher, SimTime, Tracer, PAGE_SIZE, TID_KERNEL};
use snapbpf_storage::FileId;

use crate::frame::FrameId;

/// Key of a page-cache entry: a page of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// The file.
    pub file: FileId,
    /// Page index within the file.
    pub page: u64,
}

impl PageKey {
    /// Creates a key.
    pub const fn new(file: FileId, page: u64) -> Self {
        PageKey { file, page }
    }
}

impl fmt::Display for PageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.page)
    }
}

/// State of a cached page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// The read from storage is outstanding; data is usable at
    /// `ready_at`.
    InFlight {
        /// Completion time of the backing I/O.
        ready_at: SimTime,
    },
    /// The page holds valid data.
    Resident,
}

/// Read-only view of a cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageView {
    /// Backing host frame.
    pub frame: FrameId,
    /// Current state.
    pub state: PageState,
    /// Number of address-space mappings currently pinning the page.
    pub mapcount: u32,
}

impl PageView {
    /// The time at which the page's data is (or was) available:
    /// `ready_at` for in-flight pages, `SimTime::ZERO` for resident
    /// ones.
    pub fn available_at(&self) -> SimTime {
        match self.state {
            PageState::InFlight { ready_at } => ready_at,
            PageState::Resident => SimTime::ZERO,
        }
    }
}

/// Errors returned by [`PageCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// Inserting a key that is already cached.
    AlreadyCached(PageKey),
    /// Operating on a key that is not cached.
    NotCached(PageKey),
    /// Unmapping a page whose mapcount is already zero.
    NotMapped(PageKey),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::AlreadyCached(k) => write!(f, "page already cached: {k}"),
            CacheError::NotCached(k) => write!(f, "page not cached: {k}"),
            CacheError::NotMapped(k) => write!(f, "page not mapped: {k}"),
        }
    }
}

impl std::error::Error for CacheError {}

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: PageKey,
    frame: FrameId,
    state: PageState,
    mapcount: u32,
    prev: usize,
    next: usize,
}

/// The page cache: `(file, page) -> frame` with LRU ordering.
///
/// # Examples
///
/// ```
/// use snapbpf_mem::{PageCache, PageKey, PageState, FrameId};
/// use snapbpf_sim::SimTime;
/// use snapbpf_storage::{Disk, SsdModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut disk = Disk::new(Box::new(SsdModel::micron_5300()));
/// let file = disk.create_file("snap", 64)?;
/// let mut cache = PageCache::new();
///
/// let key = PageKey::new(file, 3);
/// cache.insert(key, FrameId::new(100), PageState::InFlight { ready_at: SimTime::from_micros(80) })?;
/// cache.mark_resident(key)?;
/// assert_eq!(cache.get(key).unwrap().state, PageState::Resident);
/// assert_eq!(cache.resident_pages(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageCache {
    /// Seed-free FNV keeps iteration order a pure function of the
    /// insert/remove history, so bulk paths like
    /// [`PageCache::drain_unmapped`] are deterministic across runs.
    index: HashMap<PageKey, usize, FnvBuildHasher>,
    /// Cached pages per file, maintained on insert/remove so
    /// placement probes never scan the whole index.
    per_file: HashMap<FileId, u64, FnvBuildHasher>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Most-recently-used node.
    head: usize,
    /// Least-recently-used node.
    tail: usize,
    resident: u64,
    in_flight: u64,
    /// Cumulative counters.
    hits: u64,
    misses: u64,
    evictions: u64,
    trace: Tracer,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PageCache {
            head: NIL,
            tail: NIL,
            ..PageCache::default()
        }
    }

    /// Number of cached pages (resident + in-flight).
    pub fn len(&self) -> u64 {
        self.resident + self.in_flight
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Number of in-flight pages.
    pub fn in_flight_pages(&self) -> u64 {
        self.in_flight
    }

    /// Cumulative lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cumulative evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Attaches the structured trace handle hit/miss/insert/evict
    /// and dedup metrics report through.
    pub fn set_tracer(&mut self, trace: Tracer) {
        self.trace = trace;
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up a page, bumping it to most-recently-used on hit.
    /// Counts a hit or miss.
    pub fn lookup(&mut self, key: PageKey) -> Option<PageView> {
        match self.index.get(&key).copied() {
            Some(idx) => {
                self.detach(idx);
                self.push_front(idx);
                self.hits += 1;
                self.trace.incr("mem.cache.hits");
                let n = &self.nodes[idx];
                Some(PageView {
                    frame: n.frame,
                    state: n.state,
                    mapcount: n.mapcount,
                })
            }
            None => {
                self.misses += 1;
                self.trace.incr("mem.cache.misses");
                None
            }
        }
    }

    /// Peeks at a page without affecting LRU order or hit counters.
    pub fn get(&self, key: PageKey) -> Option<PageView> {
        self.index.get(&key).map(|&idx| {
            let n = &self.nodes[idx];
            PageView {
                frame: n.frame,
                state: n.state,
                mapcount: n.mapcount,
            }
        })
    }

    /// Inserts a page backed by `frame`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::AlreadyCached`] if the key is present.
    pub fn insert(
        &mut self,
        key: PageKey,
        frame: FrameId,
        state: PageState,
    ) -> Result<(), CacheError> {
        if self.index.contains_key(&key) {
            return Err(CacheError::AlreadyCached(key));
        }
        let node = Node {
            key,
            frame,
            state,
            mapcount: 0,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.push_front(idx);
        self.index.insert(key, idx);
        *self.per_file.entry(key.file).or_insert(0) += 1;
        match state {
            PageState::Resident => self.resident += 1,
            PageState::InFlight { .. } => self.in_flight += 1,
        }
        self.trace.incr("mem.cache.inserts");
        Ok(())
    }

    /// Transitions an in-flight page to resident. Idempotent for
    /// already-resident pages.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::NotCached`] for an unknown key.
    pub fn mark_resident(&mut self, key: PageKey) -> Result<(), CacheError> {
        let idx = *self.index.get(&key).ok_or(CacheError::NotCached(key))?;
        if let PageState::InFlight { .. } = self.nodes[idx].state {
            self.nodes[idx].state = PageState::Resident;
            self.in_flight -= 1;
            self.resident += 1;
        }
        Ok(())
    }

    /// Increments the mapcount (a VM mapped the page).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::NotCached`] for an unknown key.
    pub fn map_page(&mut self, key: PageKey) -> Result<(), CacheError> {
        let idx = *self.index.get(&key).ok_or(CacheError::NotCached(key))?;
        if self.nodes[idx].mapcount > 0 {
            // Another sandbox already maps this frame: the shared
            // cache just deduplicated one page of memory (§3.1).
            self.trace.incr("mem.cache.dedup_hits");
            self.trace.add("mem.cache.dedup_bytes", PAGE_SIZE);
        }
        self.nodes[idx].mapcount += 1;
        Ok(())
    }

    /// Decrements the mapcount (a VM unmapped the page).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::NotCached`] for an unknown key and
    /// [`CacheError::NotMapped`] when the mapcount is zero.
    pub fn unmap_page(&mut self, key: PageKey) -> Result<(), CacheError> {
        let idx = *self.index.get(&key).ok_or(CacheError::NotCached(key))?;
        if self.nodes[idx].mapcount == 0 {
            return Err(CacheError::NotMapped(key));
        }
        self.nodes[idx].mapcount -= 1;
        Ok(())
    }

    /// Removes a page outright, returning its frame.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::NotCached`] for an unknown key.
    pub fn remove(&mut self, key: PageKey) -> Result<FrameId, CacheError> {
        let idx = self.index.remove(&key).ok_or(CacheError::NotCached(key))?;
        match self.per_file.get_mut(&key.file) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.per_file.remove(&key.file);
            }
        }
        self.detach(idx);
        match self.nodes[idx].state {
            PageState::Resident => self.resident -= 1,
            PageState::InFlight { .. } => self.in_flight -= 1,
        }
        self.free.push(idx);
        Ok(self.nodes[idx].frame)
    }

    /// Evicts up to `want` least-recently-used pages that are
    /// resident and unmapped, returning the freed `(key, frame)`
    /// pairs (the caller returns the frames to the buddy allocator).
    pub fn evict_lru(&mut self, want: u64) -> Vec<(PageKey, FrameId)> {
        let mut victims = Vec::new();
        let mut cursor = self.tail;
        while victims.len() < want as usize && cursor != NIL {
            let idx = cursor;
            cursor = self.nodes[idx].prev;
            let n = &self.nodes[idx];
            if n.mapcount == 0 && n.state == PageState::Resident {
                victims.push(n.key);
            }
        }
        let evicted: Vec<(PageKey, FrameId)> = victims
            .into_iter()
            .map(|key| {
                let frame = self.remove(key).expect("victim vanished");
                self.evictions += 1;
                (key, frame)
            })
            .collect();
        if !evicted.is_empty() {
            self.trace.add("mem.cache.evictions", evicted.len() as u64);
            if self.trace.events_enabled() {
                self.trace.instant_now(
                    "mem",
                    "cache-evict",
                    TID_KERNEL,
                    vec![("asked", want.into()), ("evicted", evicted.len().into())],
                );
            }
        }
        evicted
    }

    /// Iterates over all cached keys of a file (unordered).
    pub fn pages_of_file(&self, file: FileId) -> impl Iterator<Item = PageKey> + '_ {
        self.index.keys().copied().filter(move |k| k.file == file)
    }

    /// Number of cached pages (resident + in-flight) belonging to
    /// `file`, in O(1).
    ///
    /// Placement policies probe this per arrival per host, so it is
    /// maintained incrementally rather than derived by scanning the
    /// index like [`PageCache::pages_of_file`].
    pub fn file_page_count(&self, file: FileId) -> u64 {
        self.per_file.get(&file).copied().unwrap_or(0)
    }

    /// Removes every entry whose mapcount is zero (regardless of
    /// state), returning the freed `(key, frame)` pairs — the
    /// `drop_caches` path used between experiment phases.
    pub fn drain_unmapped(&mut self) -> Vec<(PageKey, FrameId)> {
        let keys: Vec<PageKey> = self
            .index
            .iter()
            .filter(|(_, &idx)| self.nodes[idx].mapcount == 0)
            .map(|(&k, _)| k)
            .collect();
        keys.into_iter()
            .map(|k| (k, self.remove(k).expect("key vanished")))
            .collect()
    }

    /// Drops every page of `file`, returning the freed frames.
    pub fn drop_file(&mut self, file: FileId) -> Vec<FrameId> {
        let keys: Vec<PageKey> = self.pages_of_file(file).collect();
        keys.into_iter()
            .map(|k| self.remove(k).expect("key vanished"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(n: u32) -> FileId {
        // FileId construction is only possible through Disk; mint ids
        // by creating files on a scratch disk.
        let mut disk =
            snapbpf_storage::Disk::new(Box::new(snapbpf_storage::SsdModel::micron_5300()));
        let mut last = None;
        for i in 0..=n {
            last = Some(disk.create_file(&format!("f{i}"), 1).unwrap());
        }
        last.unwrap()
    }

    fn key(f: FileId, page: u64) -> PageKey {
        PageKey::new(f, page)
    }

    #[test]
    fn insert_lookup_remove() {
        let f = file(0);
        let mut c = PageCache::new();
        c.insert(key(f, 1), FrameId::new(10), PageState::Resident)
            .unwrap();
        assert_eq!(c.len(), 1);
        let v = c.lookup(key(f, 1)).unwrap();
        assert_eq!(v.frame, FrameId::new(10));
        assert_eq!(c.hits(), 1);
        assert!(c.lookup(key(f, 2)).is_none());
        assert_eq!(c.misses(), 1);
        assert_eq!(c.remove(key(f, 1)).unwrap(), FrameId::new(10));
        assert!(c.is_empty());
    }

    #[test]
    fn double_insert_rejected() {
        let f = file(0);
        let mut c = PageCache::new();
        c.insert(key(f, 1), FrameId::new(1), PageState::Resident)
            .unwrap();
        assert_eq!(
            c.insert(key(f, 1), FrameId::new(2), PageState::Resident),
            Err(CacheError::AlreadyCached(key(f, 1)))
        );
    }

    #[test]
    fn in_flight_transitions() {
        let f = file(0);
        let mut c = PageCache::new();
        let k = key(f, 0);
        c.insert(
            k,
            FrameId::new(5),
            PageState::InFlight {
                ready_at: SimTime::from_micros(10),
            },
        )
        .unwrap();
        assert_eq!(c.in_flight_pages(), 1);
        assert_eq!(c.resident_pages(), 0);
        assert_eq!(c.get(k).unwrap().available_at(), SimTime::from_micros(10));
        c.mark_resident(k).unwrap();
        assert_eq!(c.in_flight_pages(), 0);
        assert_eq!(c.resident_pages(), 1);
        // Idempotent.
        c.mark_resident(k).unwrap();
        assert_eq!(c.resident_pages(), 1);
    }

    #[test]
    fn lru_order_governs_eviction() {
        let f = file(0);
        let mut c = PageCache::new();
        for p in 0..4 {
            c.insert(key(f, p), FrameId::new(p), PageState::Resident)
                .unwrap();
        }
        // Touch page 0 so page 1 becomes the LRU.
        c.lookup(key(f, 0));
        let evicted = c.evict_lru(2);
        let keys: Vec<u64> = evicted.iter().map(|(k, _)| k.page).collect();
        assert_eq!(keys, vec![1, 2]);
        assert_eq!(c.evictions(), 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn mapped_pages_are_not_evicted() {
        let f = file(0);
        let mut c = PageCache::new();
        c.insert(key(f, 0), FrameId::new(0), PageState::Resident)
            .unwrap();
        c.insert(key(f, 1), FrameId::new(1), PageState::Resident)
            .unwrap();
        c.map_page(key(f, 0)).unwrap();
        let evicted = c.evict_lru(10);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0.page, 1);
        c.unmap_page(key(f, 0)).unwrap();
        assert_eq!(c.evict_lru(10).len(), 1);
    }

    #[test]
    fn in_flight_pages_are_not_evicted() {
        let f = file(0);
        let mut c = PageCache::new();
        c.insert(
            key(f, 0),
            FrameId::new(0),
            PageState::InFlight {
                ready_at: SimTime::ZERO,
            },
        )
        .unwrap();
        assert!(c.evict_lru(1).is_empty());
    }

    #[test]
    fn unmap_underflow_detected() {
        let f = file(0);
        let mut c = PageCache::new();
        c.insert(key(f, 0), FrameId::new(0), PageState::Resident)
            .unwrap();
        assert_eq!(
            c.unmap_page(key(f, 0)),
            Err(CacheError::NotMapped(key(f, 0)))
        );
    }

    #[test]
    fn missing_key_errors() {
        let f = file(0);
        let mut c = PageCache::new();
        let k = key(f, 9);
        assert_eq!(c.mark_resident(k), Err(CacheError::NotCached(k)));
        assert_eq!(c.map_page(k), Err(CacheError::NotCached(k)));
        assert_eq!(c.remove(k), Err(CacheError::NotCached(k)));
    }

    #[test]
    fn drop_file_only_touches_that_file() {
        let fa = file(0);
        let fb = file(1);
        assert_ne!(fa, fb);
        let mut c = PageCache::new();
        for p in 0..5 {
            c.insert(key(fa, p), FrameId::new(p), PageState::Resident)
                .unwrap();
            c.insert(key(fb, p), FrameId::new(100 + p), PageState::Resident)
                .unwrap();
        }
        let freed = c.drop_file(fa);
        assert_eq!(freed.len(), 5);
        assert_eq!(c.len(), 5);
        assert_eq!(c.pages_of_file(fb).count(), 5);
        assert_eq!(c.pages_of_file(fa).count(), 0);
    }

    #[test]
    fn per_file_counts_track_inserts_and_removals() {
        let fa = file(0);
        let fb = file(1);
        let mut c = PageCache::new();
        assert_eq!(c.file_page_count(fa), 0);
        for p in 0..7 {
            c.insert(key(fa, p), FrameId::new(p), PageState::Resident)
                .unwrap();
        }
        c.insert(key(fb, 0), FrameId::new(99), PageState::Resident)
            .unwrap();
        assert_eq!(c.file_page_count(fa), 7);
        assert_eq!(c.file_page_count(fb), 1);
        assert_eq!(c.file_page_count(fa), c.pages_of_file(fa).count() as u64);
        c.remove(key(fa, 3)).unwrap();
        assert_eq!(c.file_page_count(fa), 6);
        let evicted = c.evict_lru(100);
        assert_eq!(evicted.len(), 7);
        assert_eq!(c.file_page_count(fa), 0);
        assert_eq!(c.file_page_count(fb), 0);
    }

    #[test]
    fn slab_reuses_slots() {
        let f = file(0);
        let mut c = PageCache::new();
        for round in 0..3 {
            for p in 0..100 {
                c.insert(key(f, p), FrameId::new(p), PageState::Resident)
                    .unwrap();
            }
            assert_eq!(c.len(), 100, "round {round}");
            for p in 0..100 {
                c.remove(key(f, p)).unwrap();
            }
        }
        // Node storage must not have grown beyond one round's worth.
        assert!(c.nodes.len() <= 100);
    }

    #[test]
    fn error_display() {
        let f = file(0);
        assert!(CacheError::AlreadyCached(key(f, 1))
            .to_string()
            .contains("already"));
        assert!(CacheError::NotCached(key(f, 1))
            .to_string()
            .contains("not cached"));
    }

    #[test]
    fn cache_reports_trace_metrics() {
        let f = file(0);
        let mut c = PageCache::new();
        let tr = Tracer::recording();
        c.set_tracer(tr.clone());
        c.insert(key(f, 0), FrameId::new(1), PageState::Resident)
            .unwrap();
        assert!(c.lookup(key(f, 0)).is_some());
        assert!(c.lookup(key(f, 9)).is_none());
        // Two sandboxes map the same page: the second map is a dedup
        // hit; the first is not.
        c.map_page(key(f, 0)).unwrap();
        c.map_page(key(f, 0)).unwrap();
        c.unmap_page(key(f, 0)).unwrap();
        c.unmap_page(key(f, 0)).unwrap();
        assert_eq!(c.evict_lru(4).len(), 1);
        assert_eq!(tr.counter("mem.cache.hits"), 1);
        assert_eq!(tr.counter("mem.cache.misses"), 1);
        assert_eq!(tr.counter("mem.cache.inserts"), 1);
        assert_eq!(tr.counter("mem.cache.evictions"), 1);
        assert_eq!(tr.counter("mem.cache.dedup_hits"), 1);
        assert_eq!(tr.counter("mem.cache.dedup_bytes"), 4096);
        let events = tr.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "cache-evict");
    }
}
