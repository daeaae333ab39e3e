//! Versioned, checksummed engine checkpoints and the resumable replay
//! driver.
//!
//! PR 6 made billion-address replays routine, which makes a single pass
//! long enough to die mid-flight — to an OOM kill, a CI timeout, a
//! preempted worker — and without a durable image of engine state every
//! such death throws the whole pass away. Hua (2023)'s first principles
//! for big-memory systems treat durability of memory-resident state as a
//! prerequisite, not a feature; in that spirit the one-pass engine's
//! state is *small* relative to the trace (`O(U)` for `U` distinct
//! addresses, versus `O(|trace|)` work), so persisting it every `2²⁴`
//! addresses buys kill-anywhere resumability for a few percent of replay
//! time.
//!
//! The checkpoint image ([`StackDistance::snapshot`]) is a versioned
//! little-endian binary record: magic `"KBSD"`, format version, the
//! backend tag and address bound, the logical clock and access/compulsory
//! counters (the **trace cursor** — the engine's access count is exactly
//! the number of trace positions consumed), the live recency stack bottom
//! → top, the distance histogram, the optional first-touch log, and a
//! trailing FNV-1a checksum. The recency stack is stored *logically* (the
//! live addresses in recency order), not as the physical slot bitmap:
//! [`StackDistance::restore`] rebuilds the marker tree, slot map, and
//! last-access index from it, re-based like a fresh compaction — so a
//! restored engine is bit-identical in every observable (pinned by
//! proptest at adversarial cut points), and the format survives internal
//! layout changes. Corrupted or truncated images are rejected by checksum
//! with a typed [`CheckpointError`], never undefined behavior.
//!
//! [`resumable_replay`] is the driver: restore-if-valid-else-fresh, skip
//! the consumed prefix, observe the rest under an optional
//! [`CheckpointPolicy`] (atomic tmp-then-rename writes every N
//! addresses), an optional wall-clock deadline, and a deterministic
//! [`FaultPlan`](crate::faults::FaultPlan). The segmented engine
//! ([`crate::segmented`]) runs the same driver per worker with
//! per-segment images plus a manifest.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::faults::{FaultPlan, InjectedFault};
use crate::profstore::PROFILE_VERSION;
use crate::stackdist::StackDistance;

/// Leading magic of every checkpoint image (`K`ung `B`alance
/// `S`tack-`D`istance).
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"KBSD";

/// Current checkpoint format version. Bumped on any layout change; images
/// from other versions are rejected with
/// [`CheckpointError::UnsupportedVersion`] rather than misread.
///
/// **v2** (the current format) extends v1 with the tagged engine's dirty
/// write-back state: a second histogram of closed dirty-chain gaps plus
/// the per-line open chains. v1 images (from builds before the
/// device-realistic traffic model) are rejected cleanly — re-run the
/// producing replay to regenerate them.
pub const CHECKPOINT_VERSION: u16 = 2;

/// How often the driver polls an armed wall-clock deadline, in addresses.
const DEADLINE_POLL: u64 = 1 << 20;

/// 64-bit FNV-1a over `bytes` — the checkpoint integrity checksum. Not
/// cryptographic (checkpoints are trusted-local artifacts); it exists to
/// catch truncation and torn or bit-rotted writes deterministically.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why an image was rejected or could not be persisted — a `KBSD`
/// engine checkpoint or a `KBCP` profile image
/// ([`crate::profstore`]), which share this integrity discipline.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The image is shorter than its fixed header + checksum.
    Truncated {
        /// Bytes actually present.
        len: usize,
    },
    /// The image does not start with its format's magic
    /// ([`CHECKPOINT_MAGIC`] or [`crate::PROFILE_MAGIC`]).
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The image's format version is not the one this build reads
    /// ([`CHECKPOINT_VERSION`] or [`crate::PROFILE_VERSION`]) — written
    /// by a different build, so its layout cannot be trusted.
    UnsupportedVersion {
        /// The version found in the image.
        found: u16,
    },
    /// The trailing FNV-1a checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the image.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The image passed the checksum but violates a structural invariant
    /// (internal inconsistency — e.g. a duplicate address in the recency
    /// stack, or an address beyond the declared bound).
    Corrupt {
        /// The violated invariant.
        reason: &'static str,
    },
    /// Filesystem failure while persisting or loading an image.
    Io(io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { len } => {
                write!(f, "image truncated: only {len} bytes")
            }
            CheckpointError::BadMagic { found } => {
                write!(f, "not a KBSD or KBCP image: bad magic {found:?}")
            }
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "unsupported image version {found} (this build reads KBSD v{CHECKPOINT_VERSION}, \
                 KBCP v{PROFILE_VERSION})"
            ),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "image checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Corrupt { reason } => write!(f, "corrupt image: {reason}"),
            CheckpointError::Io(e) => write!(f, "image I/O failure: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Little-endian binary writer that appends an FNV-1a checksum on
/// [`ByteWriter::finish`].
#[derive(Debug, Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64_slice(&mut self, vs: &[u64]) {
        for &v in vs {
            self.u64(v);
        }
    }

    /// Seals the image: payload followed by `fnv1a(payload)`.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Little-endian binary reader over a checksum-verified payload.
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Splits `bytes` into payload + trailing checksum and verifies the
    /// checksum before any field is interpreted.
    pub(crate) fn verified(bytes: &'a [u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < 8 {
            return Err(CheckpointError::Truncated { len: bytes.len() });
        }
        let (payload, sum) = bytes.split_at(bytes.len() - 8);
        let mut sum_bytes = [0u8; 8];
        sum_bytes.copy_from_slice(sum);
        let stored = u64::from_le_bytes(sum_bytes);
        let computed = fnv1a(payload);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        Ok(ByteReader { payload, pos: 0 })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Corrupt {
            reason: "field length overflows",
        })?;
        if end > self.payload.len() {
            return Err(CheckpointError::Truncated {
                len: self.payload.len(),
            });
        }
        let out = &self.payload[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads `len` u64s, refusing up front when the payload cannot hold
    /// them (so a corrupt length can never trigger a huge allocation).
    pub(crate) fn u64_vec(&mut self, len: u64) -> Result<Vec<u64>, CheckpointError> {
        let remaining = (self.payload.len() - self.pos) as u64 / 8;
        if len > remaining {
            return Err(CheckpointError::Corrupt {
                reason: "declared length exceeds payload",
            });
        }
        let n = usize::try_from(len).map_err(|_| CheckpointError::Corrupt {
            reason: "declared length overflows",
        })?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Asserts every payload byte was consumed (trailing garbage is
    /// structural corruption, not slack).
    pub(crate) fn expect_end(&self) -> Result<(), CheckpointError> {
        if self.pos != self.payload.len() {
            return Err(CheckpointError::Corrupt {
                reason: "trailing bytes after final field",
            });
        }
        Ok(())
    }
}

/// Where and how often a resumable replay persists engine snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory holding the image files (created on first write).
    pub dir: PathBuf,
    /// Addresses between persisted snapshots (≥ 1; the default of `2²⁴`
    /// costs a few percent of replay time on the billion-address tier).
    pub every: u64,
}

/// The default checkpoint interval, in addresses.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1 << 24;

impl CheckpointPolicy {
    /// A policy writing into `dir` every `every` addresses (clamped ≥ 1).
    #[must_use]
    pub fn every(dir: impl Into<PathBuf>, every: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            dir: dir.into(),
            every: every.max(1),
        }
    }

    /// The image path for the named replay (`<dir>/<name>.ckpt`).
    #[must_use]
    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.ckpt"))
    }
}

/// Atomically persists `bytes` at `path`, creating its directory first:
/// the bytes land in the sibling `<file name>.tmp`, which is then renamed
/// over `path`, so a reader (or a resume after SIGKILL) sees either the
/// previous complete image or the new one, never a torn write.
///
/// # Errors
///
/// [`CheckpointError::Io`] when the directory, tmp write, or rename
/// fails.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    replace_atomic(path, bytes)?;
    Ok(())
}

/// The one atomic publish, behind [`write_atomic`] and every profile-store
/// write (images and manifest): write the sibling `<file name>.tmp`, then
/// rename it over `path`. The profile store's `fsck` removes any `*.tmp`
/// an interrupted publish leaves behind.
///
/// # Errors
///
/// The failing write or rename.
pub(crate) fn replace_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// Loads an image's bytes, treating a missing (or unreadable) file as "no
/// checkpoint" — resumability must never make a fresh start an error.
#[must_use]
pub fn load(path: &Path) -> Option<Vec<u8>> {
    fs::read(path).ok()
}

/// Why a resumable replay stopped before finishing its trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReplayInterrupt {
    /// A [`FaultPlan`] trigger fired.
    Fault(InjectedFault),
    /// The armed wall-clock deadline passed mid-replay (progress was
    /// checkpointed first when a policy is armed, so a retry resumes).
    DeadlineExceeded,
    /// A checkpoint could not be persisted.
    Checkpoint(CheckpointError),
}

impl fmt::Display for ReplayInterrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayInterrupt::Fault(fault) => write!(f, "replay interrupted: {fault}"),
            ReplayInterrupt::DeadlineExceeded => {
                write!(f, "replay interrupted: wall-clock deadline exceeded")
            }
            ReplayInterrupt::Checkpoint(e) => write!(f, "replay interrupted: {e}"),
        }
    }
}

impl std::error::Error for ReplayInterrupt {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayInterrupt::Fault(fault) => Some(fault),
            ReplayInterrupt::DeadlineExceeded => None,
            ReplayInterrupt::Checkpoint(e) => Some(e),
        }
    }
}

impl From<InjectedFault> for ReplayInterrupt {
    fn from(f: InjectedFault) -> Self {
        ReplayInterrupt::Fault(f)
    }
}

impl From<CheckpointError> for ReplayInterrupt {
    fn from(e: CheckpointError) -> Self {
        ReplayInterrupt::Checkpoint(e)
    }
}

/// Knobs for one resumable replay (see [`resumable_replay`]).
#[derive(Debug)]
pub struct ReplayControl<'a> {
    /// Image name within the policy directory (`<name>.ckpt`).
    pub name: &'a str,
    /// Snapshot persistence policy; `None` replays without durability.
    pub policy: Option<&'a CheckpointPolicy>,
    /// Deterministic fault schedule (use a `FaultPlan::none()` for real
    /// runs).
    pub faults: &'a FaultPlan,
    /// Hard wall-clock deadline, polled every [`DEADLINE_POLL`] addresses.
    pub deadline: Option<Instant>,
    /// On completion: `true` persists a final full-state image (segmented
    /// workers, so a later resume skips the whole range); `false` removes
    /// the image (the run is done, nothing to resume).
    pub persist_final: bool,
}

/// No faults: the default `FaultPlan` shared by plain replays.
pub(crate) static NO_FAULTS: FaultPlan = FaultPlan::none();

impl<'a> ReplayControl<'a> {
    /// A control block with everything off: no checkpoints, no faults, no
    /// deadline.
    #[must_use]
    pub fn new(name: &'a str) -> ReplayControl<'a> {
        ReplayControl {
            name,
            policy: None,
            faults: &NO_FAULTS,
            deadline: None,
            persist_final: false,
        }
    }
}

/// What a finished [`resumable_replay`] did on the durability side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// `Some(pos)` when the replay resumed from an image at trace
    /// position `pos` instead of starting fresh.
    pub resumed_at: Option<u64>,
    /// Snapshots persisted during this run.
    pub checkpoints_written: u64,
}

/// Persists `engine`'s snapshot at `path`, applying any armed
/// checkpoint-corruption fault (a flipped payload byte the checksum must
/// catch on restore).
fn write_checkpoint(
    path: &Path,
    engine: &StackDistance,
    faults: &FaultPlan,
) -> Result<(), CheckpointError> {
    let mut bytes = engine.snapshot();
    if faults.take_checkpoint_corruption() {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
    }
    write_atomic(path, &bytes)
}

/// The resumable replay driver: restores the named image if a valid one
/// exists (otherwise builds a fresh engine with `fresh`), skips the
/// already-consumed trace prefix, and observes the remaining `len −
/// resumed` addresses — persisting snapshots per the policy, honoring the
/// deadline, and consuming armed faults. A run killed at *any* point and
/// re-invoked with the same arguments finishes with an engine
/// bit-identical to an uninterrupted replay (pinned by proptest).
///
/// Invalid images — truncated, checksum-failed, or claiming more
/// accesses than `len` — are discarded and the replay starts fresh:
/// corruption costs the progress since the last good image, never
/// correctness.
///
/// # Errors
///
/// [`ReplayInterrupt`] when a fault fires, the deadline passes (progress
/// checkpointed first when a policy is armed), or a snapshot cannot be
/// persisted.
pub fn resumable_replay<I>(
    len: u64,
    addrs: I,
    fresh: impl FnOnce() -> StackDistance,
    ctl: &ReplayControl<'_>,
) -> Result<(StackDistance, ReplayStats), ReplayInterrupt>
where
    I: IntoIterator<Item = u64>,
{
    let mut stats = ReplayStats::default();
    let path = ctl.policy.map(|p| p.file(ctl.name));
    let mut engine = None;
    if let Some(path) = &path {
        if let Some(bytes) = load(path) {
            if let Ok(e) = StackDistance::restore(&bytes) {
                if e.accesses() <= len {
                    stats.resumed_at = Some(e.accesses());
                    engine = Some(e);
                }
            }
        }
    }
    let mut engine = engine.unwrap_or_else(fresh);

    let done = engine.accesses();
    let mut iter = addrs.into_iter();
    if done > 0 {
        // Position the stream past the already-replayed prefix. `nth` is
        // O(1) for the workspace's seekable trace iterators and O(done)
        // worst case — still far cheaper than re-observing.
        let skip = usize::try_from(done - 1).map_err(|_| CheckpointError::Corrupt {
            reason: "resume position overflows usize",
        })?;
        iter.nth(skip);
    }

    let every = ctl.policy.map(|p| p.every.max(1));
    let mut pos = done;
    // Countdown counters keep the per-address cost to a decrement + branch
    // (no division) — checkpointing must stay within a few percent of the
    // plain replay.
    let mut until_ckpt = every.map(|e| e - pos % e);
    let mut until_poll = DEADLINE_POLL - pos % DEADLINE_POLL;
    let armed = ctl.faults.is_armed();

    for addr in iter {
        if armed {
            ctl.faults.check_observe(pos)?;
        }
        engine.observe(addr);
        pos += 1;
        if let (Some(c), Some(path)) = (&mut until_ckpt, &path) {
            *c -= 1;
            if *c == 0 {
                *c = every.unwrap_or(1);
                if pos < len {
                    write_checkpoint(path, &engine, ctl.faults)?;
                    stats.checkpoints_written += 1;
                }
            }
        }
        until_poll -= 1;
        if until_poll == 0 {
            until_poll = DEADLINE_POLL;
            if let Some(dl) = ctl.deadline {
                if Instant::now() >= dl {
                    if let Some(path) = &path {
                        write_checkpoint(path, &engine, ctl.faults)?;
                    }
                    return Err(ReplayInterrupt::DeadlineExceeded);
                }
            }
        }
    }

    if let Some(path) = &path {
        if ctl.persist_final {
            write_checkpoint(path, &engine, ctl.faults)?;
            stats.checkpoints_written += 1;
        } else {
            let _ = fs::remove_file(path);
        }
    }
    Ok((engine, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(len: u64) -> impl Iterator<Item = u64> + Clone {
        (0..len).map(|i| (i * 7 + i * i) % 53)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("balance-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::with_capacity(64);
        w.bytes(b"ABCD");
        w.u8(7);
        w.u16(513);
        w.u64(u64::MAX - 3);
        w.u64_slice(&[1, 2, 3]);
        let bytes = w.finish();
        let mut r = ByteReader::verified(&bytes).unwrap();
        assert_eq!(r.array::<4>().unwrap(), *b"ABCD");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u64_vec(3).unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn any_flipped_byte_fails_verification() {
        let mut w = ByteWriter::with_capacity(32);
        w.u64_slice(&[10, 20, 30]);
        let bytes = w.finish();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(
                    ByteReader::verified(&bad),
                    Err(CheckpointError::ChecksumMismatch { .. })
                ),
                "flip at byte {i} must be caught"
            );
        }
    }

    #[test]
    fn truncation_is_rejected_typed() {
        let mut w = ByteWriter::with_capacity(32);
        w.u64(42);
        let bytes = w.finish();
        for cut in 0..8 {
            let err = ByteReader::verified(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, CheckpointError::Truncated { .. }), "cut {cut}");
        }
        // Long enough for a checksum but the payload is short of a u64.
        let empty = ByteWriter::with_capacity(8).finish();
        let mut r = ByteReader::verified(&empty).unwrap();
        assert!(matches!(
            r.u64(),
            Err(CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_vec_length_is_refused_before_allocating() {
        let mut w = ByteWriter::with_capacity(16);
        w.u64(3);
        let bytes = w.finish();
        let mut r = ByteReader::verified(&bytes).unwrap();
        assert!(matches!(
            r.u64_vec(u64::MAX),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn uninterrupted_resumable_replay_matches_plain() {
        let len = 5000u64;
        let (engine, stats) = resumable_replay(
            len,
            trace(len),
            StackDistance::new,
            &ReplayControl::new("plain"),
        )
        .unwrap();
        assert_eq!(stats, ReplayStats::default());
        let mut plain = StackDistance::new();
        plain.observe_trace(trace(len));
        assert_eq!(engine.into_profile(), plain.into_profile());
    }

    #[test]
    fn killed_replay_resumes_bit_identically() {
        let len = 50_000u64;
        let dir = tmp_dir("resume");
        let policy = CheckpointPolicy::every(&dir, 1000);
        let faults = FaultPlan::none().with_die_at(17_777);
        let ctl = ReplayControl {
            name: "replay",
            policy: Some(&policy),
            faults: &faults,
            deadline: None,
            persist_final: false,
        };
        let err = resumable_replay(len, trace(len), StackDistance::new, &ctl).unwrap_err();
        assert!(matches!(err, ReplayInterrupt::Fault(InjectedFault::Die { at: 17_777 })));

        // Second invocation: fault consumed, resumes from the last image.
        let (engine, stats) = resumable_replay(len, trace(len), StackDistance::new, &ctl).unwrap();
        assert_eq!(stats.resumed_at, Some(17_000));
        let mut plain = StackDistance::new();
        plain.observe_trace(trace(len));
        assert_eq!(engine.into_profile(), plain.into_profile());
        assert!(!policy.file("replay").exists(), "image removed on completion");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_image_falls_back_to_fresh_start() {
        let len = 4000u64;
        let dir = tmp_dir("corrupt");
        let policy = CheckpointPolicy::every(&dir, 500);
        // Corrupt every image this run writes, then die.
        let faults = FaultPlan::none()
            .with_die_at(2200)
            .with_corrupt_checkpoints(u32::MAX);
        let ctl = ReplayControl {
            name: "replay",
            policy: Some(&policy),
            faults: &faults,
            deadline: None,
            persist_final: false,
        };
        let _ = resumable_replay(len, trace(len), StackDistance::new, &ctl).unwrap_err();
        assert!(policy.file("replay").exists());
        assert!(
            StackDistance::restore(&load(&policy.file("replay")).unwrap()).is_err(),
            "the persisted image really is corrupt"
        );

        // Resume: the corrupt image is discarded, the run starts fresh and
        // still finishes with the exact profile.
        let clean = FaultPlan::none();
        let ctl = ReplayControl { faults: &clean, ..ctl };
        let (engine, stats) = resumable_replay(len, trace(len), StackDistance::new, &ctl).unwrap();
        assert_eq!(stats.resumed_at, None, "corrupt image must not resume");
        let mut plain = StackDistance::new();
        plain.observe_trace(trace(len));
        assert_eq!(engine.into_profile(), plain.into_profile());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_final_leaves_a_complete_image() {
        let len = 1500u64;
        let dir = tmp_dir("final");
        let policy = CheckpointPolicy::every(&dir, 1 << 30);
        let ctl = ReplayControl {
            name: "seg_0",
            policy: Some(&policy),
            faults: &NO_FAULTS,
            deadline: None,
            persist_final: true,
        };
        let (engine, _) = resumable_replay(len, trace(len), StackDistance::new, &ctl).unwrap();
        let restored = StackDistance::restore(&load(&policy.file("seg_0")).unwrap()).unwrap();
        assert_eq!(restored.accesses(), len);
        assert_eq!(restored.into_profile(), engine.into_profile());

        // Re-running resumes at the end and observes nothing.
        let (engine2, stats) =
            resumable_replay(len, trace(len), StackDistance::new, &ctl).unwrap();
        assert_eq!(stats.resumed_at, Some(len));
        let mut plain = StackDistance::new();
        plain.observe_trace(trace(len));
        assert_eq!(engine2.into_profile(), plain.into_profile());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn past_deadline_interrupts_and_checkpoints() {
        let len = DEADLINE_POLL + 10;
        let dir = tmp_dir("deadline");
        let policy = CheckpointPolicy::every(&dir, u64::MAX >> 1);
        let ctl = ReplayControl {
            name: "replay",
            policy: Some(&policy),
            faults: &NO_FAULTS,
            deadline: Some(Instant::now()),
            persist_final: false,
        };
        let err =
            resumable_replay(len, (0..len).map(|i| i % 31), StackDistance::new, &ctl).unwrap_err();
        assert!(matches!(err, ReplayInterrupt::DeadlineExceeded));
        // Progress was persisted at the poll point, so a retry resumes.
        let restored = StackDistance::restore(&load(&policy.file("replay")).unwrap()).unwrap();
        assert_eq!(restored.accesses(), DEADLINE_POLL);
        let _ = fs::remove_dir_all(&dir);
    }
}
