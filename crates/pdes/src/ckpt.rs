//! Deterministic checkpoint/restore and the crash-recovery supervisor.
//!
//! Long Time Warp runs must survive failure without losing committed work.
//! This module provides the three pieces that turn the kernel into a
//! restartable service:
//!
//! 1. **Snapshots** — at configurable GVT-commit boundaries
//!    ([`EngineConfig::checkpoint_every`](crate::config::EngineConfig::checkpoint_every)),
//!    each kernel serializes the complete *committed*
//!    machine state into a versioned, checksummed binary file: per-LP model
//!    state (via [`Model::save_state`](crate::model::Model::save_state)),
//!    RNG stream positions, the pending-event frontier above GVT, the engine
//!    counters, and the PR-5 audit fingerprint of every LP. The format is
//!    dependency-free (no serde): a little-endian byte stream built by
//!    [`CkptWriter`] / parsed by [`CkptReader`], ending in a 64-bit FNV-1a
//!    checksum over everything before it.
//! 2. **Resume** — [`Run::resume`](crate::Run::resume) rebuilds a run from
//!    a snapshot and continues it. Because a snapshot captures a
//!    *sequentially consistent frame* (every LP at the GVT commit horizon
//!    plus exactly the frontier events), the resumed run commits output
//!    bit-identical to an uninterrupted run — on either kernel, with either
//!    rollback mechanism, any scheduler, and any PE count.
//! 3. **Supervision** — [`Run::supervised`](crate::Run::supervised) wraps
//!    whichever kernel the run uses in a bounded retry loop with exponential
//!    backoff: on a retryable failure ([`RunError::PePanic`] /
//!    [`RunError::GvtStalled`]) it scans the checkpoint directory
//!    newest-first, decodes each snapshot into a boot frame — checking its
//!    checksum and per-LP audit fingerprints, falling back to the previous
//!    snapshot on mismatch — and boots the next attempt from the first frame
//!    that decodes, or cold-restarts if none does. The recovery is recorded
//!    in the result's [`EngineStats`] restore counters and
//!    [`Telemetry::resumed_rounds`](crate::obs::Telemetry::resumed_rounds).
//!
//! Crash injection for tests lives in [`fault`](crate::fault):
//! [`FaultPlan::with_kill`](crate::fault::FaultPlan::with_kill) panics a
//! chosen PE at a chosen event count, and
//! [`FaultPlan::with_poison_ckpt`](crate::fault::FaultPlan::with_poison_ckpt)
//! truncates the nth snapshot mid-file right after it is written.
//!
//! ## Why a snapshot is kernel- and PE-count-independent
//!
//! The parallel kernel captures at a quiescent GVT round: after fossil
//! collection every PE rolls its KPs back to the GVT horizon, anti-messages
//! cancel all speculative children, and the machine settles until the global
//! send/receive counters agree. What remains is exactly the committed LP
//! states at GVT plus the pending events generated by committed events —
//! the same frame the sequential kernel reaches after executing every event
//! below GVT in key order. Restored events are re-issued from the init id
//! space (ids never affect committed order), so the frontier can be
//! repartitioned over any number of PEs.
//!
//! [`RunError::PePanic`]: crate::error::RunError::PePanic
//! [`RunError::GvtStalled`]: crate::error::RunError::GvtStalled

use std::borrow::Cow;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::arena::EventArena;
use crate::audit::{lp_fingerprint, AuditHasher};
use crate::config::EngineConfig;
use crate::error::{FailureCause, RunError};
use crate::event::{EventKey, LpId, QueueEntry};
use crate::model::Model;
use crate::obs::{FlightRecorder, ObsKind, ObsRecord};
use crate::rng::{Clcg4, ReversibleRng};
use crate::scheduler::EventQueue;
use crate::stats::{EngineStats, RunResult};
use crate::time::VirtualTime;

/// Leading magic bytes of every snapshot file.
const MAGIC: [u8; 8] = *b"PDESCKPT";
/// Current snapshot format version.
const VERSION: u32 = 1;
/// Snapshots retained per directory (newest N; older ones are pruned). Two
/// gives the supervisor a fallback when the newest write was torn/poisoned.
const KEEP_SNAPSHOTS: usize = 2;

/// FNV-1a 64-bit over a byte slice (the snapshot trailer checksum).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = AuditHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem error while writing, reading, or pruning snapshots.
    Io(String),
    /// The snapshot bytes are malformed: bad magic/version, truncated
    /// stream, or a checksum that does not match the contents.
    Corrupt(String),
    /// The model does not implement the checkpoint hooks
    /// ([`Model::save_state`](crate::model::Model::save_state) and
    /// friends) but checkpointing was requested.
    Unsupported(String),
    /// The snapshot is intact but does not belong to this run: different
    /// seed, horizon, or LP count — or an LP's restored state hashes to a
    /// different audit fingerprint than the one recorded at capture.
    Mismatch(String),
}

impl CkptError {
    /// Shorthand for [`CkptError::Unsupported`].
    pub fn unsupported(what: impl Into<String>) -> Self {
        CkptError::Unsupported(format!(
            "{} is not implemented for this model (checkpointing needs the \
             Model::save_state/load_state/save_payload/load_payload hooks)",
            what.into()
        ))
    }

    fn corrupt(what: impl Into<String>) -> Self {
        CkptError::Corrupt(what.into())
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(m) => write!(f, "checkpoint I/O error: {m}"),
            CkptError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            CkptError::Unsupported(m) => write!(f, "checkpoint unsupported: {m}"),
            CkptError::Mismatch(m) => write!(f, "snapshot mismatch: {m}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<CkptError> for RunError {
    fn from(e: CkptError) -> RunError {
        RunError::Checkpoint {
            reason: e.to_string(),
        }
    }
}

impl From<CkptError> for FailureCause {
    fn from(e: CkptError) -> FailureCause {
        FailureCause::Ckpt {
            reason: e.to_string(),
        }
    }
}

/// Byte sink for snapshot serialization. All integers are little-endian;
/// models write their state through the typed methods from
/// [`Model::save_state`](crate::model::Model::save_state) /
/// [`save_payload`](crate::model::Model::save_payload).
#[derive(Default)]
pub struct CkptWriter {
    buf: Vec<u8>,
}

impl CkptWriter {
    /// An empty writer.
    pub fn new() -> Self {
        CkptWriter::default()
    }

    /// Append one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a boolean as one byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Append raw bytes (the caller is responsible for length framing).
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Forget the contents but keep the allocation — the capture paths
    /// serialize thousands of LP states and payloads through one reused
    /// writer instead of allocating a fresh one per record.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Borrow the accumulated bytes (pair with [`clear`](Self::clear) when
    /// reusing the writer).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Destination for the snapshot body layout. Two implementations:
/// [`CkptWriter`] accumulates in memory (tests, [`Snapshot::encode`]), and
/// [`StreamSink`] pushes straight to a file while hashing — the capture path
/// never assembles the multi-megabyte snapshot image in memory.
trait CkptSink {
    /// Append bytes (hashed into the trailer checksum where applicable).
    fn put(&mut self, bytes: &[u8]) -> Result<(), CkptError>;

    fn put_u32(&mut self, v: u32) -> Result<(), CkptError> {
        self.put(&v.to_le_bytes())
    }

    fn put_u64(&mut self, v: u64) -> Result<(), CkptError> {
        self.put(&v.to_le_bytes())
    }
}

impl CkptSink for CkptWriter {
    fn put(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        self.bytes(bytes);
        Ok(())
    }
}

/// Buffered file sink that folds every body byte into an incremental
/// FNV-1a — the streamed file carries exactly the checksum [`fnv1a`] would
/// compute over the assembled image, so [`Snapshot::decode`] cannot tell the
/// two write paths apart.
struct StreamSink<W: std::io::Write> {
    inner: W,
    hasher: AuditHasher,
    written: u64,
}

impl<W: std::io::Write> StreamSink<W> {
    fn new(inner: W) -> Self {
        StreamSink {
            inner,
            hasher: AuditHasher::new(),
            written: 0,
        }
    }

    fn put_raw(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        self.inner
            .write_all(bytes)
            .map_err(|e| CkptError::Io(format!("write snapshot stream: {e}")))?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    /// Append the (unhashed) checksum trailer, flush, and return the total
    /// byte count.
    fn finish(mut self) -> Result<u64, CkptError> {
        let checksum = self.hasher.finish();
        self.put_raw(&checksum.to_le_bytes())?;
        self.inner
            .flush()
            .map_err(|e| CkptError::Io(format!("flush snapshot stream: {e}")))?;
        Ok(self.written)
    }
}

impl<W: std::io::Write> CkptSink for StreamSink<W> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        self.hasher.write_bytes(bytes);
        self.put_raw(bytes)
    }
}

/// Byte cursor for snapshot deserialization; every read is bounds-checked
/// and returns [`CkptError::Corrupt`] on a truncated stream.
pub struct CkptReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        CkptReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.pos + n > self.buf.len() {
            return Err(CkptError::corrupt(format!(
                "truncated stream: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a boolean byte (`0`/`1`; anything else is corruption).
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CkptError::corrupt(format!("bad boolean byte {b:#04x}"))),
        }
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        self.take(n)
    }

    /// Unread bytes left in the stream.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// One LP's serialized state inside a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct LpRecord {
    pub(crate) lp: LpId,
    pub(crate) rng_s: [u64; 4],
    pub(crate) rng_count: u64,
    /// [`lp_fingerprint`] of `(audit_state digest, rng)` at capture —
    /// re-verified against the decoded state on restore.
    pub(crate) fingerprint: u64,
    pub(crate) state: Vec<u8>,
}

/// One pending (frontier) event inside a snapshot. Event *ids* are not
/// stored: committed order never depends on them, and restore re-issues
/// fresh ids from the init id space.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct EventRecord {
    pub(crate) recv_time: u64,
    pub(crate) dst: u32,
    pub(crate) tie: u64,
    pub(crate) src: u32,
    pub(crate) send_time: u64,
    pub(crate) payload: Vec<u8>,
}

impl EventRecord {
    pub(crate) fn key(&self) -> EventKey {
        EventKey {
            recv_time: VirtualTime(self.recv_time),
            dst: self.dst,
            tie: self.tie,
            src: self.src,
            send_time: VirtualTime(self.send_time),
        }
    }

    pub(crate) fn from_key(key: &EventKey, payload: Vec<u8>) -> Self {
        EventRecord {
            recv_time: key.recv_time.0,
            dst: key.dst,
            tie: key.tie,
            src: key.src,
            send_time: key.send_time.0,
            payload,
        }
    }
}

/// One PE's contribution to a parallel capture (or the whole capture, for
/// the sequential kernel): its LPs, its slice of the pending frontier, and
/// its engine counters.
pub(crate) struct CkptPart {
    pub(crate) lps: Vec<LpRecord>,
    pub(crate) events: Vec<EventRecord>,
    pub(crate) stats: EngineStats,
}

/// A decoded snapshot: the complete committed machine state at one GVT
/// boundary. Obtain one with [`read_snapshot`]; resume from it with
/// [`Run::resume`](crate::Run::resume) on either kernel.
/// Internals are deliberately opaque — the binary layout is the contract.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub(crate) seed: u64,
    pub(crate) end_time: u64,
    pub(crate) n_lps: u64,
    pub(crate) gvt: u64,
    pub(crate) round: u64,
    pub(crate) stats: EngineStats,
    pub(crate) lps: Vec<LpRecord>,
    pub(crate) events: Vec<EventRecord>,
}

impl Snapshot {
    /// The GVT (ticks) this snapshot was captured at: everything below it is
    /// committed and baked into the LP states; the stored frontier events
    /// are all at or above it.
    pub fn gvt(&self) -> u64 {
        self.gvt
    }

    /// The GVT round counter at capture (also the filename discriminator).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of pending frontier events carried by this snapshot.
    pub fn n_pending(&self) -> usize {
        self.events.len()
    }

    /// Merge per-PE capture parts into one canonical snapshot of the run
    /// `config` describes: LPs sorted by id, events in total [`EventKey`]
    /// order, counters summed. The parts cover every LP exactly once.
    fn assemble(config: &EngineConfig, gvt: u64, round: u64, parts: Vec<CkptPart>) -> Snapshot {
        let mut stats = EngineStats::default();
        let mut lps = Vec::new();
        let mut events = Vec::new();
        for part in parts {
            stats.merge(&part.stats);
            lps.extend(part.lps);
            events.extend(part.events);
        }
        stats.wall_time = Duration::ZERO;
        stats.prof = Default::default();
        lps.sort_by_key(|r| r.lp);
        events.sort_by_key(|e| e.key());
        Snapshot {
            seed: config.seed,
            end_time: config.end_time.0,
            n_lps: lps.len() as u64,
            gvt,
            round,
            stats,
            lps,
            events,
        }
    }

    /// Serialize to the on-disk format (including the trailing checksum),
    /// assembling the whole image in memory. The run-time capture path uses
    /// [`write_snapshot`] instead, which streams the identical bytes to disk;
    /// this stays as the reference encoding for tests and small snapshots.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = CkptWriter::new();
        self.write_body(&mut w).expect("Vec sink is infallible");
        let checksum = fnv1a(&w.buf);
        w.u64(checksum);
        w.into_bytes()
    }

    /// Emit the snapshot body (everything before the checksum trailer) in
    /// on-disk field order. The single source of truth for the write layout:
    /// both [`encode`](Self::encode) and the streaming file path call this,
    /// which is what keeps the two byte-identical.
    fn write_body<S: CkptSink>(&self, w: &mut S) -> Result<(), CkptError> {
        w.put(&MAGIC)?;
        w.put_u32(VERSION)?;
        w.put_u64(self.seed)?;
        w.put_u64(self.end_time)?;
        w.put_u64(self.n_lps)?;
        w.put_u64(self.gvt)?;
        w.put_u64(self.round)?;
        write_stats(w, &self.stats)?;
        w.put_u64(self.lps.len() as u64)?;
        for lp in &self.lps {
            w.put_u32(lp.lp)?;
            for s in lp.rng_s {
                w.put_u64(s)?;
            }
            w.put_u64(lp.rng_count)?;
            w.put_u64(lp.fingerprint)?;
            w.put_u64(lp.state.len() as u64)?;
            w.put(&lp.state)?;
        }
        w.put_u64(self.events.len() as u64)?;
        for ev in &self.events {
            w.put_u64(ev.recv_time)?;
            w.put_u32(ev.dst)?;
            w.put_u64(ev.tie)?;
            w.put_u32(ev.src)?;
            w.put_u64(ev.send_time)?;
            w.put_u64(ev.payload.len() as u64)?;
            w.put(&ev.payload)?;
        }
        Ok(())
    }

    /// Parse and checksum-verify the on-disk format.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CkptError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(CkptError::corrupt(format!(
                "file too short ({} bytes) to be a snapshot",
                bytes.len()
            )));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().unwrap());
        let computed = fnv1a(body);
        if stored != computed {
            return Err(CkptError::corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        let mut r = CkptReader::new(body);
        if r.bytes(MAGIC.len())? != MAGIC {
            return Err(CkptError::corrupt("bad magic (not a pdes snapshot)"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CkptError::corrupt(format!(
                "unsupported snapshot version {version} (this build reads {VERSION})"
            )));
        }
        let seed = r.u64()?;
        let end_time = r.u64()?;
        let n_lps = r.u64()?;
        let gvt = r.u64()?;
        let round = r.u64()?;
        let stats = read_stats(&mut r)?;
        let n_lp_records = r.u64()?;
        if n_lp_records > n_lps {
            return Err(CkptError::corrupt(format!(
                "{n_lp_records} LP records for {n_lps} LPs"
            )));
        }
        let mut lps = Vec::with_capacity(n_lp_records as usize);
        for _ in 0..n_lp_records {
            let lp = r.u32()?;
            let mut rng_s = [0u64; 4];
            for s in &mut rng_s {
                *s = r.u64()?;
            }
            let rng_count = r.u64()?;
            let fingerprint = r.u64()?;
            let state_len = r.u64()? as usize;
            let state = r.bytes(state_len)?.to_vec();
            lps.push(LpRecord {
                lp,
                rng_s,
                rng_count,
                fingerprint,
                state,
            });
        }
        let n_events = r.u64()?;
        let mut events = Vec::with_capacity(n_events.min(1 << 20) as usize);
        for _ in 0..n_events {
            let recv_time = r.u64()?;
            let dst = r.u32()?;
            let tie = r.u64()?;
            let src = r.u32()?;
            let send_time = r.u64()?;
            let payload_len = r.u64()? as usize;
            let payload = r.bytes(payload_len)?.to_vec();
            events.push(EventRecord {
                recv_time,
                dst,
                tie,
                src,
                send_time,
                payload,
            });
        }
        if r.remaining() != 0 {
            return Err(CkptError::corrupt(format!(
                "{} trailing bytes after snapshot body",
                r.remaining()
            )));
        }
        Ok(Snapshot {
            seed,
            end_time,
            n_lps,
            gvt,
            round,
            stats,
            lps,
            events,
        })
    }
}

/// Serialize the engine counters (fixed field order — part of the format).
fn write_stats<S: CkptSink>(w: &mut S, s: &EngineStats) -> Result<(), CkptError> {
    for v in [
        s.events_processed,
        s.events_committed,
        s.events_rolled_back,
        s.primary_rollbacks,
        s.secondary_rollbacks,
        s.anti_messages,
        s.remote_events,
        s.gvt_rounds,
        s.fossils_collected,
        s.batches_flushed,
        s.batched_messages,
        s.ring_full_stalls,
        s.pool_hits,
        s.pool_misses,
    ] {
        w.put_u64(v)?;
    }
    for v in s.rollback_lengths {
        w.put_u64(v)?;
    }
    for v in [
        s.injected_delays,
        s.injected_duplicates,
        s.injected_reorders,
        s.duplicates_dropped,
        s.antis_deferred,
        s.early_annihilations,
        s.checkpoints_written,
        s.checkpoint_bytes,
        s.restores_attempted,
        s.restores_succeeded,
        s.recovery_retries,
    ] {
        w.put_u64(v)?;
    }
    Ok(())
}

/// Inverse of [`write_stats`]. Fields are read in declaration order; the
/// struct literal evaluates them top to bottom, matching the write order.
fn read_stats(r: &mut CkptReader<'_>) -> Result<EngineStats, CkptError> {
    Ok(EngineStats {
        events_processed: r.u64()?,
        events_committed: r.u64()?,
        events_rolled_back: r.u64()?,
        primary_rollbacks: r.u64()?,
        secondary_rollbacks: r.u64()?,
        anti_messages: r.u64()?,
        remote_events: r.u64()?,
        gvt_rounds: r.u64()?,
        fossils_collected: r.u64()?,
        batches_flushed: r.u64()?,
        batched_messages: r.u64()?,
        ring_full_stalls: r.u64()?,
        pool_hits: r.u64()?,
        pool_misses: r.u64()?,
        rollback_lengths: {
            let mut buckets = [0u64; 8];
            for b in &mut buckets {
                *b = r.u64()?;
            }
            buckets
        },
        injected_delays: r.u64()?,
        injected_duplicates: r.u64()?,
        injected_reorders: r.u64()?,
        duplicates_dropped: r.u64()?,
        antis_deferred: r.u64()?,
        early_annihilations: r.u64()?,
        checkpoints_written: r.u64()?,
        checkpoint_bytes: r.u64()?,
        restores_attempted: r.u64()?,
        restores_succeeded: r.u64()?,
        recovery_retries: r.u64()?,
        ..Default::default()
    })
}

// ---------------------------------------------------------------------------
// Capture (both kernels)
// ---------------------------------------------------------------------------

/// Whether the round that just committed `gvt` is a checkpoint boundary.
/// Every input is identical on every PE, so all PEs of a parallel run enter
/// — or skip — the barriered capture protocol together.
pub(crate) fn due(config: &EngineConfig, round: u64, gvt: u64, last_ckpt_gvt: u64) -> bool {
    config
        .checkpoint_every
        .is_some_and(|n| n != 0 && round.is_multiple_of(n))
        && gvt > last_ckpt_gvt
        && gvt < config.end_time.0
}

/// Serialize one kernel's (one PE's) slice of a committed frame: every LP in
/// `lps` — model state via [`Model::save_state`], RNG position, audit
/// fingerprint — plus the whole pending queue. The queue is drained and
/// re-pushed — content is unchanged, so the auditor's scheduler mirror stays
/// consistent without any toggles.
pub(crate) fn capture_part<'a, M: Model>(
    model: &M,
    lps: impl ExactSizeIterator<Item = (LpId, &'a M::State, &'a Clcg4)>,
    queue: &mut dyn EventQueue,
    arena: &EventArena<M::Payload>,
    stats: &EngineStats,
) -> Result<CkptPart, CkptError>
where
    M::State: 'a,
{
    // One scratch writer for every record: each LP state / payload is
    // serialized into the reused buffer, then copied out exactly-sized.
    let mut w = CkptWriter::new();
    let mut records = Vec::with_capacity(lps.len());
    for (lp, state, rng) in lps {
        w.clear();
        model.save_state(lp, state, &mut w)?;
        records.push(LpRecord {
            lp,
            rng_s: rng.state(),
            rng_count: rng.call_count(),
            fingerprint: lp_fingerprint(model, lp, state, rng),
            state: w.as_slice().to_vec(),
        });
    }
    let mut events = Vec::with_capacity(queue.len());
    let mut scratch: Vec<QueueEntry> = Vec::with_capacity(queue.len());
    while let Some(e) = queue.pop() {
        w.clear();
        model.save_payload(arena.get(e.slot), &mut w)?;
        events.push(EventRecord::from_key(&e.key, w.as_slice().to_vec()));
        scratch.push(e);
    }
    for e in scratch {
        queue.push(e);
    }
    Ok(CkptPart {
        lps: records,
        events,
        stats: stats.clone(),
    })
}

/// The writer's half of a capture (PE 0, or the sequential kernel): assemble
/// `parts` into the frame at (`gvt`, `round`), write it durably, tear the
/// file if the fault plan poisons this write, then count and flight-record
/// it. `writes` counts the snapshots of this incarnation and indexes
/// [`FaultPlan::poison_ckpt`](crate::fault::FaultPlan).
pub(crate) fn write_frame(
    config: &EngineConfig,
    gvt: u64,
    round: u64,
    parts: Vec<CkptPart>,
    writes: &mut u64,
    stats: &mut EngineStats,
    recorder: &mut FlightRecorder,
) -> Result<(), CkptError> {
    let snap = Snapshot::assemble(config, gvt, round, parts);
    let (path, bytes) = write_snapshot(&snap, &config.checkpoint_dir)?;
    if config
        .fault_plan
        .as_ref()
        .is_some_and(|p| p.poison_ckpt == Some(*writes))
    {
        // Tear the file as a crashed writer would; readers must reject it by
        // checksum. A poison step that fails is an error, not a no-op: a
        // recovery test whose fault never fired proves nothing.
        poison_file(&path)?;
    }
    *writes += 1;
    stats.checkpoints_written += 1;
    stats.checkpoint_bytes += bytes;
    if recorder.enabled() {
        recorder.record(ObsRecord::kernel(ObsKind::Checkpoint, bytes));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// File management
// ---------------------------------------------------------------------------

/// Path of the snapshot for GVT round `round` inside `dir`
/// (`ckpt-{round:010}.bin` — zero-padded so lexical order is round order).
pub fn snapshot_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(format!("ckpt-{round:010}.bin"))
}

/// All snapshot files in `dir`, newest (highest round) first. Non-snapshot
/// files and leftover `.tmp` write staging files are ignored; a missing
/// directory is just "no snapshots".
pub fn list_snapshots(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
        })
        .collect();
    paths.sort();
    paths.reverse();
    paths
}

/// Read and checksum-verify one snapshot file.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, CkptError> {
    let bytes = fs::read(path).map_err(|e| CkptError::Io(format!("read {path:?}: {e}")))?;
    Snapshot::decode(&bytes)
}

/// Write `snap` into `dir` (created if missing) atomically — stage to a
/// `.tmp` sibling, then rename — and prune all but the newest
/// [`KEEP_SNAPSHOTS`] files. Returns the final path and the byte size.
///
/// The body is streamed through a buffered [`StreamSink`] record by record
/// rather than assembled with [`Snapshot::encode`]: a 16×16-torus frame is
/// ~13 MB, and materializing it per checkpoint round doubled the capture
/// path's peak memory and burned an allocation spike on every frame. The
/// sink hashes as it writes, so the trailer checksum (and every other byte)
/// matches `encode` exactly.
fn write_snapshot(snap: &Snapshot, dir: &Path) -> Result<(PathBuf, u64), CkptError> {
    fs::create_dir_all(dir).map_err(|e| CkptError::Io(format!("create {dir:?}: {e}")))?;
    let path = snapshot_path(dir, snap.round);
    let tmp = path.with_extension("bin.tmp");
    let file = fs::File::create(&tmp).map_err(|e| CkptError::Io(format!("create {tmp:?}: {e}")))?;
    let mut sink = StreamSink::new(std::io::BufWriter::new(file));
    let res = snap.write_body(&mut sink).and_then(|()| sink.finish());
    let total = match res {
        Ok(total) => total,
        Err(e) => {
            // Don't leave a torn `.tmp` behind on a failed write.
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
    };
    fs::rename(&tmp, &path).map_err(|e| CkptError::Io(format!("rename to {path:?}: {e}")))?;
    for old in list_snapshots(dir).into_iter().skip(KEEP_SNAPSHOTS) {
        // Pruning is best-effort; a leftover old snapshot is harmless.
        let _ = fs::remove_file(old);
    }
    Ok((path, total))
}

/// Fault injection: tear a snapshot file as a crashed writer would, by
/// truncating it to half its length (the checksum trailer is lost, so any
/// validation must reject it).
pub fn poison_file(path: &Path) -> Result<(), CkptError> {
    let bytes = fs::read(path).map_err(|e| CkptError::Io(format!("read {path:?}: {e}")))?;
    fs::write(path, &bytes[..bytes.len() / 2])
        .map_err(|e| CkptError::Io(format!("truncate {path:?}: {e}")))
}

// ---------------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------------

/// The committed frame a kernel boots from: typed LP states, RNG streams,
/// and the pending frontier. [`restore`] decodes one from a snapshot;
/// [`lifecycle::boot`](crate::lifecycle::boot) builds the time-zero one.
pub(crate) struct BootFrame<M: Model> {
    pub(crate) gvt: u64,
    pub(crate) round: u64,
    /// Counters accumulated before the snapshot; seeded into the resumed
    /// run so the merged totals describe the whole logical run.
    pub(crate) base_stats: EngineStats,
    /// `(lp, state, rng)` for every LP, in LP order.
    pub(crate) lps: Vec<(LpId, M::State, Clcg4)>,
    /// The pending frontier in total key order.
    pub(crate) events: Vec<(EventKey, M::Payload)>,
}

/// Decode `snap` against `model`/`config`: verify the run binding (seed,
/// horizon, LP count), rebuild every LP state and RNG, re-verify each LP's
/// audit fingerprint, and decode every frontier payload.
pub(crate) fn restore<M: Model>(
    model: &M,
    config: &EngineConfig,
    snap: &Snapshot,
) -> Result<BootFrame<M>, CkptError> {
    if snap.seed != config.seed {
        return Err(CkptError::Mismatch(format!(
            "snapshot seed {:#x} != config seed {:#x}",
            snap.seed, config.seed
        )));
    }
    if snap.end_time != config.end_time.0 {
        return Err(CkptError::Mismatch(format!(
            "snapshot horizon {} != config horizon {}",
            snap.end_time, config.end_time.0
        )));
    }
    if snap.n_lps != model.n_lps() as u64 {
        return Err(CkptError::Mismatch(format!(
            "snapshot has {} LPs, model has {}",
            snap.n_lps,
            model.n_lps()
        )));
    }
    if snap.lps.len() as u64 != snap.n_lps {
        return Err(CkptError::corrupt(format!(
            "snapshot carries {} LP records for {} LPs",
            snap.lps.len(),
            snap.n_lps
        )));
    }
    let mut lps = Vec::with_capacity(snap.lps.len());
    for (i, rec) in snap.lps.iter().enumerate() {
        if rec.lp as usize != i {
            return Err(CkptError::corrupt(format!(
                "LP record {i} names LP {} (records must cover 0..n_lps in order)",
                rec.lp
            )));
        }
        let rng = Clcg4::from_raw(rec.rng_s, rec.rng_count)
            .ok_or_else(|| CkptError::corrupt(format!("LP {}: RNG state out of range", rec.lp)))?;
        let mut r = CkptReader::new(&rec.state);
        let state = model.load_state(rec.lp, &mut r)?;
        if r.remaining() != 0 {
            return Err(CkptError::corrupt(format!(
                "LP {}: load_state left {} unread state bytes",
                rec.lp,
                r.remaining()
            )));
        }
        // The live fingerprint check: the state we just rebuilt must hash to
        // the fingerprint the auditor recorded at capture.
        let got = lp_fingerprint(model, rec.lp, &state, &rng);
        if got != rec.fingerprint {
            return Err(CkptError::Mismatch(format!(
                "LP {}: restored state fingerprint {got:#018x} != recorded {:#018x}",
                rec.lp, rec.fingerprint
            )));
        }
        lps.push((rec.lp, state, rng));
    }
    let mut events = Vec::with_capacity(snap.events.len());
    let mut prev_key: Option<EventKey> = None;
    for rec in &snap.events {
        let key = rec.key();
        if key.dst >= model.n_lps() {
            return Err(CkptError::corrupt(format!(
                "frontier event addressed to nonexistent LP {}",
                key.dst
            )));
        }
        if prev_key.is_some_and(|p| p >= key) {
            return Err(CkptError::corrupt(
                "frontier events out of order or duplicated",
            ));
        }
        prev_key = Some(key);
        let mut r = CkptReader::new(&rec.payload);
        let payload = model.load_payload(&mut r)?;
        if r.remaining() != 0 {
            return Err(CkptError::corrupt(format!(
                "frontier event at {:?}: load_payload left {} unread bytes",
                key,
                r.remaining()
            )));
        }
        events.push((key, payload));
    }
    Ok(BootFrame {
        gvt: snap.gvt,
        round: snap.round,
        base_stats: snap.stats.clone(),
        lps,
        events,
    })
}

// ---------------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------------

/// Retry policy for [`Run::supervised`](crate::Run::supervised): at most
/// `max_retries` recoveries, sleeping `backoff * backoff_factor^attempt`
/// before each one.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorPolicy {
    /// Recovery attempts after the initial run (0 = never retry).
    pub max_retries: u32,
    /// Sleep before the first recovery attempt.
    pub backoff: Duration,
    /// Multiplier applied to the backoff after every attempt.
    pub backoff_factor: u32,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(10),
            backoff_factor: 2,
        }
    }
}

/// True for failures worth retrying: a crashed PE or a wedged GVT. Config
/// errors, lost workers, and audit violations reproduce deterministically —
/// retrying them would loop.
fn retryable(err: &RunError) -> bool {
    matches!(err, RunError::PePanic { .. } | RunError::GvtStalled { .. })
}

/// Run `attempt` — one run of either kernel, booted from `frame` or from
/// time zero — under crash supervision: on a retryable failure back off,
/// decode the newest snapshot in
/// [`EngineConfig::checkpoint_dir`](crate::config::EngineConfig::checkpoint_dir)
/// that passes its checksum and audit-fingerprint checks (older ones on a
/// mismatch) into the frame the next attempt boots from, or cold-restart if
/// none does, up to [`SupervisorPolicy::max_retries`] times. Crash-injection
/// faults ([`with_kill`](crate::fault::FaultPlan::with_kill) /
/// [`with_poison_ckpt`](crate::fault::FaultPlan::with_poison_ckpt)) are
/// stripped from the retry configuration: they model one-shot failures, not
/// a permanently broken machine.
///
/// The recovery is recorded once, on the final result: retries in
/// `recovery_retries`, snapshot files tried in `restores_attempted`,
/// recoveries that resumed in `restores_succeeded`, and the round each one
/// resumed from in
/// [`Telemetry::resumed_rounds`](crate::obs::Telemetry::resumed_rounds).
/// Rejected snapshots and cold restarts follow by subtraction.
pub(crate) fn supervise<M: Model>(
    model: &M,
    config: &EngineConfig,
    policy: &SupervisorPolicy,
    mut frame: Option<BootFrame<M>>,
    attempt: impl Fn(&EngineConfig, Option<BootFrame<M>>) -> Result<RunResult<M::Output>, RunError>,
) -> Result<RunResult<M::Output>, RunError> {
    let mut cfg = Cow::Borrowed(config);
    let (mut retries, mut restores_attempted) = (0, 0);
    let mut resumed_rounds = Vec::new();
    let mut backoff = policy.backoff;
    loop {
        match attempt(&cfg, frame.take()) {
            Ok(mut result) => {
                result.stats.recovery_retries += retries;
                result.stats.restores_attempted += restores_attempted;
                result.stats.restores_succeeded += resumed_rounds.len() as u64;
                result.telemetry.resumed_rounds = resumed_rounds;
                return Ok(result);
            }
            Err(err) if retryable(&err) && retries < u64::from(policy.max_retries) => {
                retries += 1;
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(policy.backoff_factor.max(1));
                // One-shot injected crashes must not re-fire on the retry.
                cfg.to_mut().fault_plan = cfg.fault_plan.map(|p| p.without_crashes());
                for path in list_snapshots(&cfg.checkpoint_dir) {
                    restores_attempted += 1;
                    if let Ok(restored) =
                        read_snapshot(&path).and_then(|snap| restore(model, &cfg, &snap))
                    {
                        resumed_rounds.push(restored.round);
                        frame = Some(restored);
                        break;
                    }
                }
            }
            Err(err) => return Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let stats = EngineStats {
            events_committed: 42,
            events_processed: 50,
            gvt_rounds: 3,
            checkpoints_written: 1,
            checkpoint_bytes: 999,
            rollback_lengths: [1, 2, 3, 4, 5, 6, 7, 8],
            ..Default::default()
        };
        Snapshot {
            seed: 0xDEAD_BEEF,
            end_time: 1_000_000,
            n_lps: 2,
            gvt: 123_456,
            round: 7,
            stats,
            lps: vec![
                LpRecord {
                    lp: 0,
                    rng_s: [1, 2, 3, 4],
                    rng_count: 9,
                    fingerprint: 0xABCD,
                    state: vec![1, 2, 3],
                },
                LpRecord {
                    lp: 1,
                    rng_s: [5, 6, 7, 8],
                    rng_count: 11,
                    fingerprint: 0xEF01,
                    state: vec![],
                },
            ],
            events: vec![EventRecord {
                recv_time: 200_000,
                dst: 1,
                tie: 3,
                src: 0,
                send_time: 100_000,
                payload: vec![9, 9],
            }],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.seed, snap.seed);
        assert_eq!(back.end_time, snap.end_time);
        assert_eq!(back.n_lps, snap.n_lps);
        assert_eq!(back.gvt, snap.gvt);
        assert_eq!(back.round, snap.round);
        assert_eq!(back.stats, snap.stats);
        assert_eq!(back.lps, snap.lps);
        assert_eq!(back.events, snap.events);
    }

    #[test]
    fn checksum_catches_any_single_byte_flip() {
        let bytes = sample_snapshot().encode();
        // Flip a byte in the header, the LP section, and the trailer.
        for &at in &[9usize, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(
                Snapshot::decode(&bad).is_err(),
                "flip at {at} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample_snapshot().encode();
        assert!(Snapshot::decode(&bytes[..bytes.len() / 2]).is_err());
        assert!(Snapshot::decode(&[]).is_err());
        assert!(Snapshot::decode(b"PDESCKPT").is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut snap = sample_snapshot();
        snap.lps.clear();
        snap.events.clear();
        let mut bytes = snap.encode();
        bytes[8] = 99; // version field, little-endian low byte
        let len = bytes.len();
        let fixed = fnv1a(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&fixed.to_le_bytes());
        let err = Snapshot::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "got: {err}");
    }

    #[test]
    fn writer_reader_primitives_round_trip() {
        let mut w = CkptWriter::new();
        w.u8(7);
        w.u32(0xAABB_CCDD);
        w.u64(u64::MAX - 1);
        w.bool(true);
        w.bool(false);
        w.bytes(&[1, 2, 3]);
        let buf = w.into_bytes();
        let mut r = CkptReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xAABB_CCDD);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err(), "read past end must fail");
    }

    #[test]
    fn bad_bool_byte_is_corruption() {
        let mut r = CkptReader::new(&[2]);
        assert!(matches!(r.bool(), Err(CkptError::Corrupt(_))));
    }

    #[test]
    fn file_round_trip_list_and_prune() {
        let dir = std::env::temp_dir().join(format!("pdes-ckpt-ut-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut snap = sample_snapshot();
        for round in [3u64, 7, 12] {
            snap.round = round;
            write_snapshot(&snap, &dir).unwrap();
        }
        let files = list_snapshots(&dir);
        // KEEP_SNAPSHOTS = 2: round 3 was pruned, newest first.
        assert_eq!(files, vec![snapshot_path(&dir, 12), snapshot_path(&dir, 7)]);
        let back = read_snapshot(&files[0]).unwrap();
        assert_eq!(back.round, 12);
        // Poison the newest: it must now fail to read; the older survives.
        poison_file(&files[0]).unwrap();
        assert!(read_snapshot(&files[0]).is_err());
        assert_eq!(read_snapshot(&files[1]).unwrap().round, 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_snapshots_of_missing_dir_is_empty() {
        assert!(list_snapshots(Path::new("/nonexistent/pdes-ckpt-xyz")).is_empty());
    }

    /// The streamed file path and the in-memory reference encoding must stay
    /// byte-identical — same layout, same incremental checksum — or restore
    /// of old snapshots silently forks from the format `decode` validates.
    #[test]
    fn streamed_file_matches_reference_encoding_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!("pdes-ckpt-stream-ut-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let snap = sample_snapshot();
        let (path, reported_len) = write_snapshot(&snap, &dir).unwrap();
        let streamed = fs::read(&path).unwrap();
        assert_eq!(reported_len, streamed.len() as u64);
        assert_eq!(streamed, snap.encode(), "stream/encode byte divergence");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Reused scratch writer: `clear` keeps the allocation and resets length.
    #[test]
    fn writer_clear_resets_without_losing_capacity() {
        let mut w = CkptWriter::new();
        w.bytes(&[0u8; 4096]);
        let cap = w.buf.capacity();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.buf.capacity(), cap, "clear must retain the allocation");
        w.u64(5);
        assert_eq!(w.as_slice(), &5u64.to_le_bytes());
    }
}
