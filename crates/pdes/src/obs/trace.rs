//! Rollback-aware per-packet causal tracing.
//!
//! The model emits [`HopEmit`]s during forward execution (via
//! [`EventCtx::trace_hop`](crate::model::EventCtx::trace_hop)); the kernel
//! stamps each one with the executing event's full ordering key and buffers
//! it *speculatively*. The buffers follow the Time Warp lifecycle exactly:
//!
//! * **execute** — the event's hops are appended to its KP's pending deque
//!   and their count recorded on the [`Processed`](crate::kp::Processed)
//!   entry (`n_trace`);
//! * **rollback** — `pop_if_at_or_after` unwinds processed events
//!   newest-first, so truncating `n_trace` hops off the *back* of the deque
//!   per popped event erases exactly the undone lineage;
//! * **fossil collection** — commits processed events oldest-first, so
//!   popping `n_trace` hops off the *front* per collected event moves
//!   exactly the committed lineage into the committed log.
//!
//! Because hops only reach the committed log at the fossil-collection commit
//! point, the committed trace contains no speculation. Each hop carries the
//! executing event's total-order key `(recv_time, dst, tie, src, send_time)`
//! plus its emission index within the event, and [`PacketTrace::seal`] sorts
//! by exactly that key — the order the sequential kernel executes in. A
//! parallel run's committed trace is therefore **byte-identical** (as JSONL)
//! to the sequential oracle's, chaos faults and all, whenever nothing was
//! dropped by the capacity cap.

use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::EventKey;

/// One model-emitted lineage point, before the kernel stamps it: a
/// model-defined hop kind, the packet (or other entity) it concerns, and a
/// kind-specific argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopEmit {
    /// Model-defined hop kind code.
    pub kind: u8,
    /// The traced entity (hotpotato: the packed `PacketId`).
    pub packet: u64,
    /// Kind-specific argument (hotpotato packs e.g. deflection counts here).
    pub arg: u64,
}

/// One committed lineage record: a [`HopEmit`] stamped with the executing
/// event's full ordering key and its emission index within that event.
///
/// `(at, lp, tie, src, send, idx)` is a total order identical to sequential
/// execution order; [`PacketTrace::seal`] sorts by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopRecord {
    /// Virtual receive time of the executing event (ticks).
    pub at: u64,
    /// The LP that executed the event.
    pub lp: u32,
    /// The event's tie-break lane.
    pub tie: u64,
    /// The LP that sent the event.
    pub src: u32,
    /// Virtual send time of the event (ticks).
    pub send: u64,
    /// Emission index within the executing event (0-based).
    pub idx: u32,
    /// Model-defined hop kind code.
    pub kind: u8,
    /// The traced entity.
    pub packet: u64,
    /// Kind-specific argument.
    pub arg: u64,
}

impl HopRecord {
    /// The total-order sort key (sequential execution order).
    #[inline]
    pub fn sort_key(&self) -> (u64, u32, u64, u32, u64, u32) {
        (self.at, self.lp, self.tie, self.src, self.send, self.idx)
    }
}

/// Render one hop as a single JSON object (integers only — trivially valid
/// for the in-tree validator, and byte-stable across kernels).
pub fn hop_json(h: &HopRecord) -> String {
    format!(
        concat!(
            "{{\"at\":{},\"lp\":{},\"tie\":{},\"src\":{},\"send\":{},",
            "\"idx\":{},\"kind\":{},\"packet\":{},\"arg\":{}}}"
        ),
        h.at, h.lp, h.tie, h.src, h.send, h.idx, h.kind, h.packet, h.arg
    )
}

/// The committed packet lineage of one run, attached to
/// [`Telemetry::trace`](super::Telemetry::trace). Empty unless packet
/// tracing was enabled
/// ([`ObsConfig::with_packet_trace`](super::ObsConfig::with_packet_trace)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PacketTrace {
    /// Committed hops, sorted into sequential execution order by `seal`.
    pub hops: Vec<HopRecord>,
    /// Committed hops discarded by the per-PE capacity cap. Byte-identity
    /// with the sequential oracle only holds when this is 0.
    pub dropped: u64,
}

impl PacketTrace {
    /// Number of committed hops retained.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True when tracing was off or nothing committed.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Hops concerning one packet, in lineage order (valid after `seal`).
    pub fn packet_hops(&self, packet: u64) -> impl Iterator<Item = &HopRecord> {
        self.hops.iter().filter(move |h| h.packet == packet)
    }

    /// The whole trace as JSONL (one hop object per line). This is the
    /// byte-comparison surface of the determinism tests.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.hops.len() * 96);
        for h in &self.hops {
            out.push_str(&hop_json(h));
            out.push('\n');
        }
        out
    }

    /// Write the JSONL lineage dump to `path`.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for h in &self.hops {
            writeln!(w, "{}", hop_json(h))?;
        }
        w.flush()
    }

    /// Merge another PE's committed hops in (kernel use).
    pub(crate) fn absorb(&mut self, other: PacketTrace) {
        self.hops.extend(other.hops);
        self.dropped += other.dropped;
    }

    /// Sort into sequential execution order (kernel use, after all PEs
    /// merged).
    pub(crate) fn seal(&mut self) {
        self.hops.sort_unstable_by_key(HopRecord::sort_key);
    }
}

/// Sentinel capacity meaning "no cap" (bounded only by memory).
pub const TRACE_UNBOUNDED: usize = usize::MAX;

/// The per-PE (or sequential-kernel) runtime tracer. Speculative hops live
/// in one deque per KP so rollback truncation and fossil commitment can
/// mirror the KP's own processed-event deque; committed hops accumulate in
/// a capacity-capped log.
#[derive(Debug)]
pub(crate) struct PacketTracer {
    /// Committed-log cap (hops); 0 disables the tracer entirely.
    capacity: usize,
    /// Speculative hops per KP, in execution (append) order.
    pending: Vec<std::collections::VecDeque<HopRecord>>,
    committed: Vec<HopRecord>,
    dropped: u64,
}

impl PacketTracer {
    /// A tracer committing at most `capacity` hops (0 = off) over `n_kps`
    /// kernel processes.
    pub(crate) fn new(capacity: usize, n_kps: usize) -> PacketTracer {
        let pending = if capacity == 0 {
            Vec::new()
        } else {
            (0..n_kps)
                .map(|_| std::collections::VecDeque::new())
                .collect()
        };
        PacketTracer {
            capacity,
            pending,
            committed: Vec::new(),
            dropped: 0,
        }
    }

    /// Is the tracer recording? Call before building the hop buffer so a
    /// disabled tracer costs one branch per event.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Stamp the hops one executed event emitted and buffer them
    /// speculatively on its KP. Drains `buf`; returns the hop count to store
    /// on the [`Processed`](crate::kp::Processed) entry.
    pub(crate) fn record_exec(&mut self, kp: usize, key: &EventKey, buf: &mut Vec<HopEmit>) -> u32 {
        if !self.enabled() {
            buf.clear();
            return 0;
        }
        let n = buf.len() as u32;
        let q = &mut self.pending[kp];
        for (idx, e) in buf.drain(..).enumerate() {
            q.push_back(HopRecord {
                at: key.recv_time.0,
                lp: key.dst,
                tie: key.tie,
                src: key.src,
                send: key.send_time.0,
                idx: idx as u32,
                kind: e.kind,
                packet: e.packet,
                arg: e.arg,
            });
        }
        n
    }

    /// Erase the hops of one rolled-back event (rollback pops processed
    /// events newest-first, so the erased hops are the newest `n` on the
    /// KP's deque).
    #[inline]
    pub(crate) fn unwind(&mut self, kp: usize, n: u32) {
        if n == 0 {
            return;
        }
        let q = &mut self.pending[kp];
        let keep = q.len() - n as usize;
        q.truncate(keep);
    }

    /// Commit the hops of one fossil-collected event (fossil collection pops
    /// processed events oldest-first, so the committed hops are the oldest
    /// `n` on the KP's deque).
    pub(crate) fn commit(&mut self, kp: usize, n: u32) {
        for _ in 0..n {
            let h = self.pending[kp]
                .pop_front()
                .expect("trace deque drained: n_trace books out of balance");
            if self.committed.len() < self.capacity {
                self.committed.push(h);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Fast path of the sequential kernel and the windowed arm: every
    /// executed event commits immediately, so stamp and commit in one step.
    /// The capacity cap keeps the first hops in commit order, which is per
    /// PE and, on the windowed arm, LP-major within each window — so a
    /// capped windowed trace keeps other hops than a capped oracle one.
    pub(crate) fn commit_direct(&mut self, key: &EventKey, buf: &mut Vec<HopEmit>) {
        if !self.enabled() {
            buf.clear();
            return;
        }
        for (idx, e) in buf.drain(..).enumerate() {
            if self.committed.len() < self.capacity {
                self.committed.push(HopRecord {
                    at: key.recv_time.0,
                    lp: key.dst,
                    tie: key.tie,
                    src: key.src,
                    send: key.send_time.0,
                    idx: idx as u32,
                    kind: e.kind,
                    packet: e.packet,
                    arg: e.arg,
                });
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Hand the committed log over at end of run. Any hops still pending
    /// belong to uncommitted speculation beyond the final GVT and are
    /// discarded. On a `clean` exit the run has committed everything below
    /// `end_time`, so pending must be empty; on halt/panic paths speculation
    /// legitimately remains and is dropped without complaint.
    pub(crate) fn finish(self, clean: bool) -> PacketTrace {
        debug_assert!(
            !clean || self.pending.iter().all(|q| q.is_empty()),
            "uncommitted speculative hops at end of a clean run"
        );
        PacketTrace {
            hops: self.committed,
            dropped: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualTime;

    fn key(at: u64, dst: u32, tie: u64) -> EventKey {
        EventKey {
            recv_time: VirtualTime(at),
            dst,
            tie,
            src: 9,
            send_time: VirtualTime(at.saturating_sub(1)),
        }
    }

    fn emits(n: u64) -> Vec<HopEmit> {
        (0..n)
            .map(|i| HopEmit {
                kind: 1,
                packet: 100 + i,
                arg: i,
            })
            .collect()
    }

    #[test]
    fn execute_rollback_commit_mirror_the_kp_lifecycle() {
        let mut t = PacketTracer::new(1024, 2);
        assert!(t.enabled());
        // Three events execute on KP 0, one on KP 1.
        let mut b = emits(2);
        let n1 = t.record_exec(0, &key(10, 0, 0), &mut b);
        let mut b = emits(3);
        let n2 = t.record_exec(0, &key(20, 0, 0), &mut b);
        let mut b = emits(1);
        let n3 = t.record_exec(0, &key(30, 0, 0), &mut b);
        let mut b = emits(4);
        let m1 = t.record_exec(1, &key(15, 1, 0), &mut b);
        assert_eq!((n1, n2, n3, m1), (2, 3, 1, 4));
        assert!(b.is_empty(), "record_exec drains the buffer");

        // Rollback unwinds newest-first: the t=30 then the t=20 event.
        t.unwind(0, n3);
        t.unwind(0, n2);
        // Fossil collection commits oldest-first: the t=10 event on KP 0,
        // the t=15 event on KP 1.
        t.commit(0, n1);
        t.commit(1, m1);
        let trace = t.finish(true);
        assert_eq!(trace.len(), 6, "2 committed on KP0 + 4 on KP1");
        assert_eq!(trace.dropped, 0);
        assert!(
            trace.hops.iter().all(|h| h.at == 10 || h.at == 15),
            "speculation leaked"
        );
    }

    #[test]
    fn seal_orders_by_sequential_execution_key() {
        let mut trace = PacketTrace::default();
        let mk = |at, lp, idx| HopRecord {
            at,
            lp,
            tie: 0,
            src: 0,
            send: 0,
            idx,
            kind: 1,
            packet: 7,
            arg: 0,
        };
        trace.hops = vec![mk(20, 1, 0), mk(10, 2, 1), mk(10, 2, 0), mk(10, 1, 0)];
        trace.seal();
        let order: Vec<(u64, u32, u32)> = trace.hops.iter().map(|h| (h.at, h.lp, h.idx)).collect();
        assert_eq!(order, vec![(10, 1, 0), (10, 2, 0), (10, 2, 1), (20, 1, 0)]);
        assert_eq!(trace.packet_hops(7).count(), 4);
        assert_eq!(trace.packet_hops(8).count(), 0);
    }

    #[test]
    fn capacity_cap_counts_drops_instead_of_growing() {
        let mut t = PacketTracer::new(3, 1);
        let mut b = emits(5);
        let n = t.record_exec(0, &key(1, 0, 0), &mut b);
        t.commit(0, n);
        let trace = t.finish(true);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.dropped, 2);

        let mut d = PacketTracer::new(3, 1);
        let mut b = emits(5);
        d.commit_direct(&key(1, 0, 0), &mut b);
        assert!(b.is_empty());
        let direct = d.finish(true);
        assert_eq!((direct.len(), direct.dropped), (3, 2));
    }

    #[test]
    fn disabled_tracer_is_inert_and_still_drains() {
        let mut t = PacketTracer::new(0, 4);
        assert!(!t.enabled());
        let mut b = emits(3);
        assert_eq!(t.record_exec(0, &key(1, 0, 0), &mut b), 0);
        assert!(b.is_empty());
        let mut b = emits(2);
        t.commit_direct(&key(2, 0, 0), &mut b);
        assert!(b.is_empty());
        let trace = t.finish(true);
        assert!(trace.is_empty());
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn jsonl_round_trips_through_the_validator() {
        let mut t = PacketTracer::new(16, 1);
        let mut b = emits(2);
        t.commit_direct(&key(5, 3, 1), &mut b);
        let mut trace = t.finish(true);
        trace.seal();
        let text = trace.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            super::super::json::validate(line).expect("hop line must be valid JSON");
        }
        assert!(text.contains("\"at\":5"), "got: {text}");
        assert!(text.contains("\"packet\":101"), "got: {text}");
    }

    #[test]
    fn direct_commit_equals_staged_commit_byte_for_byte() {
        // The invariant the chaos suite checks end-to-end, in miniature:
        // the staged (execute → fossil) path and the sequential direct path
        // serialize identically.
        let mut staged = PacketTracer::new(64, 2);
        let mut direct = PacketTracer::new(64, 1);
        for (kp, at) in [(0usize, 10u64), (1, 20), (0, 30)] {
            let mut b = emits(2);
            let n = staged.record_exec(kp, &key(at, kp as u32, 0), &mut b);
            staged.commit(kp, n);
            let mut b = emits(2);
            direct.commit_direct(&key(at, kp as u32, 0), &mut b);
        }
        let mut a = staged.finish(true);
        let mut d = direct.finish(true);
        a.seal();
        d.seal();
        assert_eq!(a.to_jsonl(), d.to_jsonl());
    }
}
