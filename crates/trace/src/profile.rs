//! The compact versioned binary profile format.
//!
//! A profile is the durable form of one recorded (or trace-derived)
//! workload: anonymized stable function ids with the memory/duration
//! metadata the simulator needs to re-instantiate each function,
//! plus the full arrival topology as (offset, function) events. The
//! encoding is deliberately simple and self-checking:
//!
//! ```text
//! magic    4 B   "SBTP"
//! version  u16   format version (currently 1)
//! nfuncs   u32   function count
//! per function:
//!   id           u16 length + UTF-8 bytes (anonymized, e.g. "f03")
//!   snapshot_mib u64
//!   ws_pages     u64
//!   compute_us   u64
//!   invocations  u64   (event count naming this function)
//! span_ns  u64   nominal span of the schedule
//! nevents  u64
//! events   per event: LEB128 delta-ns since the previous event,
//!          then LEB128 function index (events are offset-sorted,
//!          so deltas are non-negative and varints stay short)
//! checksum u64   FNV-1a 64 over every preceding byte
//! ```
//!
//! All fixed-width integers are little-endian. The checksum makes a
//! truncated or bit-flipped profile fail loading instead of
//! replaying a silently different schedule.

use std::fmt;

use snapbpf_sim::{fnv1a, SimDuration, TraceArrival, TracePoint};
use snapbpf_workloads::Workload;

const MAGIC: &[u8; 4] = b"SBTP";
const VERSION: u16 = 1;

/// Why a profile failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// The byte stream ended before the format said it would.
    Truncated,
    /// The stream does not start with the profile magic.
    BadMagic,
    /// The format version is newer than this loader understands.
    UnsupportedVersion(u16),
    /// The trailing checksum does not match the content.
    BadChecksum,
    /// A function id is not valid UTF-8.
    BadUtf8,
    /// An event names a function index past the function table.
    FuncOutOfRange,
    /// Bytes remain after the checksum.
    TrailingBytes,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Truncated => write!(f, "profile truncated"),
            ProfileError::BadMagic => write!(f, "not a profile (bad magic)"),
            ProfileError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported profile version {v} (loader supports {VERSION})"
                )
            }
            ProfileError::BadChecksum => write!(f, "profile checksum mismatch"),
            ProfileError::BadUtf8 => write!(f, "profile function id is not UTF-8"),
            ProfileError::FuncOutOfRange => {
                write!(f, "profile event names a function past the function table")
            }
            ProfileError::TrailingBytes => write!(f, "trailing bytes after profile checksum"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Metadata of one profiled function: an anonymized stable id plus
/// the dimensions that identify its behaviour to the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncMeta {
    /// Anonymized stable id (`f00`, `f01`, …) — profiles carry no
    /// workload or customer names.
    pub id: String,
    /// Snapshot (guest memory) size, MiB.
    pub snapshot_mib: u64,
    /// Working-set size, pages.
    pub ws_pages: u64,
    /// Mean compute time, microseconds.
    pub compute_us: u64,
    /// Invocations of this function in the profile's events.
    pub invocations: u64,
}

/// One recorded workload: function metadata plus the full arrival
/// topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    funcs: Vec<FuncMeta>,
    span: SimDuration,
    events: Vec<TracePoint>,
}

impl Profile {
    /// Builds a profile. Events are sorted by (offset, function) and
    /// each function's invocation count is recounted from them, so
    /// the metadata can never disagree with the topology.
    ///
    /// # Panics
    ///
    /// Panics if an event names a function index past `funcs`.
    pub fn new(funcs: Vec<FuncMeta>, mut events: Vec<TracePoint>, span: SimDuration) -> Profile {
        events.sort_unstable();
        let mut funcs = funcs;
        for f in &mut funcs {
            f.invocations = 0;
        }
        for e in &events {
            let slot = funcs
                .get_mut(e.func as usize)
                .expect("profile event must name a listed function");
            slot.invocations += 1;
        }
        Profile {
            funcs,
            span,
            events,
        }
    }

    /// The function table, in index order.
    pub fn funcs(&self) -> &[FuncMeta] {
        &self.funcs
    }

    /// The arrival events, sorted by (offset, function).
    pub fn events(&self) -> &[TracePoint] {
        &self.events
    }

    /// Nominal span of the schedule.
    pub fn span(&self) -> SimDuration {
        self.span
    }

    /// Number of arrival events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the profile holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The replayable schedule this profile describes (loop and
    /// scale controls are applied by the caller on the result).
    pub fn arrivals(&self) -> TraceArrival {
        TraceArrival::new(self.events.clone(), self.span)
    }

    /// Maps each profiled function back onto the evaluation suite by
    /// its metadata: an exact (snapshot, working set, compute) match
    /// when one exists, otherwise the suite workload at the smallest
    /// log-scale distance — metadata-driven, so profiles recorded
    /// elsewhere still resolve to the closest modeled behaviour.
    pub fn resolve_workloads(&self) -> Vec<Workload> {
        let suite = Workload::suite();
        self.funcs
            .iter()
            .map(|m| {
                *suite
                    .iter()
                    .min_by(|a, b| {
                        meta_distance(m, a)
                            .partial_cmp(&meta_distance(m, b))
                            .expect("distances are finite")
                    })
                    .expect("the workload suite is non-empty")
            })
            .collect()
    }

    /// Serializes the profile (format documented on the module).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.events.len() * 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.funcs.len() as u32).to_le_bytes());
        for f in &self.funcs {
            out.extend_from_slice(&(f.id.len() as u16).to_le_bytes());
            out.extend_from_slice(f.id.as_bytes());
            out.extend_from_slice(&f.snapshot_mib.to_le_bytes());
            out.extend_from_slice(&f.ws_pages.to_le_bytes());
            out.extend_from_slice(&f.compute_us.to_le_bytes());
            out.extend_from_slice(&f.invocations.to_le_bytes());
        }
        out.extend_from_slice(&self.span.as_nanos().to_le_bytes());
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        let mut prev = 0u64;
        for e in &self.events {
            let ns = e.offset.as_nanos();
            write_varint(&mut out, ns - prev);
            write_varint(&mut out, u64::from(e.func));
            prev = ns;
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Loads a profile, verifying magic, version, structure, and
    /// checksum.
    ///
    /// # Errors
    ///
    /// Any [`ProfileError`] the byte stream earns.
    pub fn from_bytes(bytes: &[u8]) -> Result<Profile, ProfileError> {
        if bytes.len() < MAGIC.len() + 2 + 8 {
            return Err(ProfileError::Truncated);
        }
        if &bytes[..4] != MAGIC {
            return Err(ProfileError::BadMagic);
        }
        let body_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_len..].try_into().expect("8 bytes"));
        if fnv1a(&bytes[..body_len]) != stored {
            return Err(ProfileError::BadChecksum);
        }
        let mut r = Reader {
            bytes: &bytes[..body_len],
            pos: 4,
        };
        let version = r.u16()?;
        if version != VERSION {
            return Err(ProfileError::UnsupportedVersion(version));
        }
        let nfuncs = r.u32()? as usize;
        let mut funcs = Vec::with_capacity(nfuncs.min(1024));
        for _ in 0..nfuncs {
            let id_len = r.u16()? as usize;
            let id =
                String::from_utf8(r.take(id_len)?.to_vec()).map_err(|_| ProfileError::BadUtf8)?;
            funcs.push(FuncMeta {
                id,
                snapshot_mib: r.u64()?,
                ws_pages: r.u64()?,
                compute_us: r.u64()?,
                invocations: r.u64()?,
            });
        }
        let span = SimDuration::from_nanos(r.u64()?);
        let nevents = r.u64()? as usize;
        let mut events = Vec::with_capacity(nevents.min(1 << 20));
        let mut prev = 0u64;
        for _ in 0..nevents {
            let delta = r.varint()?;
            let func = r.varint()?;
            if func >= nfuncs as u64 {
                return Err(ProfileError::FuncOutOfRange);
            }
            prev += delta;
            events.push(TracePoint {
                offset: SimDuration::from_nanos(prev),
                func: func as u32,
            });
        }
        if r.pos != r.bytes.len() {
            return Err(ProfileError::TrailingBytes);
        }
        Ok(Profile::new(funcs, events, span))
    }
}

/// Log-scale distance between a profiled function's metadata and a
/// suite workload (unscaled spec). Ratios, not differences, so a
/// 128 vs 256 MiB mismatch counts the same at every magnitude.
fn meta_distance(m: &FuncMeta, w: &Workload) -> f64 {
    let s = w.spec();
    let d = |a: u64, b: u64| {
        let (a, b) = (a.max(1) as f64, b.max(1) as f64);
        (a.ln() - b.ln()).abs()
    };
    d(m.snapshot_mib, s.snapshot_mib)
        + d(m.ws_pages, s.ws_pages())
        + d(m.compute_us, (s.compute_ms * 1000.0).round() as u64)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProfileError> {
        let end = self.pos.checked_add(n).ok_or(ProfileError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ProfileError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, ProfileError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 B")))
    }

    fn u32(&mut self) -> Result<u32, ProfileError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 B")))
    }

    fn u64(&mut self) -> Result<u64, ProfileError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 B")))
    }

    fn varint(&mut self) -> Result<u64, ProfileError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.take(1)?[0];
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(ProfileError::Truncated);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: &str, snap: u64, ws: u64, us: u64) -> FuncMeta {
        FuncMeta {
            id: id.to_owned(),
            snapshot_mib: snap,
            ws_pages: ws,
            compute_us: us,
            invocations: 0,
        }
    }

    fn sample() -> Profile {
        Profile::new(
            vec![
                meta("f00", 128, 3072, 8_000),
                meta("f01", 512, 66560, 60_000),
            ],
            vec![
                TracePoint {
                    offset: SimDuration::from_millis(7),
                    func: 1,
                },
                TracePoint {
                    offset: SimDuration::from_millis(2),
                    func: 0,
                },
                TracePoint {
                    offset: SimDuration::from_millis(40),
                    func: 0,
                },
            ],
            SimDuration::from_millis(50),
        )
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let p = sample();
        let bytes = p.to_bytes();
        let q = Profile::from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
        assert_eq!(bytes, q.to_bytes());
    }

    #[test]
    fn invocations_are_recounted() {
        let p = sample();
        assert_eq!(p.funcs()[0].invocations, 2);
        assert_eq!(p.funcs()[1].invocations, 1);
        assert_eq!(p.len(), 3);
        // Sorted by offset.
        assert_eq!(p.events()[0].func, 0);
        assert_eq!(p.events()[1].func, 1);
    }

    #[test]
    fn corruption_is_detected() {
        let p = sample();
        let bytes = p.to_bytes();
        // The checksum guard runs first, so a mid-stream truncation
        // surfaces as a checksum mismatch rather than a short read.
        assert_eq!(
            Profile::from_bytes(&bytes[..bytes.len() - 3]),
            Err(ProfileError::BadChecksum),
        );
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert_eq!(
            Profile::from_bytes(&flipped),
            Err(ProfileError::BadChecksum)
        );
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            Profile::from_bytes(&wrong_magic),
            Err(ProfileError::BadMagic)
        );
        assert_eq!(Profile::from_bytes(b"SB"), Err(ProfileError::Truncated));
    }

    #[test]
    fn unsupported_version_is_reported() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 9; // version lives right after the magic
        let body = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body]).to_le_bytes();
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&sum);
        assert_eq!(
            Profile::from_bytes(&bytes),
            Err(ProfileError::UnsupportedVersion(9)),
        );
    }

    #[test]
    fn arrivals_replay_the_topology() {
        let p = sample();
        let t = p.arrivals();
        assert_eq!(t.len(), 3);
        assert_eq!(t.span(), SimDuration::from_millis(50));
        let drawn = snapbpf_sim::ArrivalSchedule::draw(&t, 1, t.total_duration());
        assert_eq!(drawn.len(), 3);
        assert_eq!(drawn[0].func, Some(0));
    }

    #[test]
    fn metadata_resolves_to_suite_workloads() {
        // Exact metadata of json (128 MiB, 12 MiB ws, 8 ms) and bert
        // (512 MiB, 260 MiB ws, 60 ms).
        let p = Profile::new(
            vec![
                meta("f00", 128, 3072, 8_000),
                meta("f01", 512, 66560, 60_000),
            ],
            Vec::new(),
            SimDuration::from_secs(1),
        );
        let resolved = p.resolve_workloads();
        assert_eq!(resolved[0].name(), "json");
        assert_eq!(resolved[1].name(), "bert");
        // Near-miss metadata still lands on the closest profile.
        let near = Profile::new(
            vec![meta("f00", 140, 3000, 9_000)],
            Vec::new(),
            SimDuration::from_secs(1),
        );
        assert_eq!(near.resolve_workloads()[0].name(), "json");
    }

    #[test]
    fn varints_cover_the_range() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut r = Reader {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.pos, buf.len());
        }
    }
}
