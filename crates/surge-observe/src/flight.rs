//! Per-worker flight recorders: fixed-size rings of structured trace
//! events stamped with **logical time**.
//!
//! The recorder answers the crash-time question "what was the mesh doing?"
//! without perturbing the run: recording is a couple of stores into a
//! pre-sized ring, and every event field is logical (slide/flush sequence
//! numbers, byte counts, policy names) — never wall clock —
//! so two runs over the same stream produce **bitwise-identical dumps**,
//! ring wrap included. Wall-clock durations belong in the registry's
//! latency histograms, not here.

/// One structured trace event. All payloads are logical quantities so
/// dumps are deterministic across runs of the same stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A flush began (`seq` is the dense 0-based flush sequence).
    FlushStart {
        /// Flush sequence number.
        seq: u64,
    },
    /// A flush completed.
    FlushEnd {
        /// Flush sequence number.
        seq: u64,
        /// Answers the flush produced.
        answers: u64,
    },
    /// The checkpoint runner stalled the hot path to encode a snapshot.
    SnapshotStall {
        /// Slide at which the snapshot was cut.
        slide: u64,
        /// Encoded snapshot size in bytes.
        bytes: u64,
        /// WAL sync policy in force (static name).
        sync_policy: &'static str,
    },
    /// The write-ahead log rotated to a new segment.
    WalRotation {
        /// Index of the segment that was sealed.
        segment: u64,
    },
    /// A mesh channel pushed back on the driver (send would have blocked
    /// or took unusually long). Only ever *reported*, never acted on.
    Backpressure {
        /// Flush/slide sequence at which pressure was observed.
        seq: u64,
        /// Shard whose channel pushed back.
        shard: u32,
    },
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::FlushStart { seq } => write!(f, "flush_start seq={seq}"),
            TraceEvent::FlushEnd { seq, answers } => {
                write!(f, "flush_end seq={seq} answers={answers}")
            }
            TraceEvent::SnapshotStall {
                slide,
                bytes,
                sync_policy,
            } => write!(
                f,
                "snapshot_stall slide={slide} bytes={bytes} sync_policy={sync_policy}"
            ),
            TraceEvent::WalRotation { segment } => write!(f, "wal_rotation segment={segment}"),
            TraceEvent::Backpressure { seq, shard } => {
                write!(f, "backpressure seq={seq} shard={shard}")
            }
        }
    }
}

/// A fixed-size ring of [`TraceEvent`]s. When full, the oldest event is
/// overwritten and counted in [`dropped`](FlightDump::dropped).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cap: usize,
    buf: Vec<TraceEvent>,
    /// Index the next event will be written at (once the ring is full).
    head: usize,
    /// Total events ever recorded (≥ `buf.len()`).
    total: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events
    /// (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        FlightRecorder {
            cap,
            buf: Vec::with_capacity(cap),
            head: 0,
            total: 0,
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records one event, overwriting the oldest when the ring is full.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.cap;
        }
        self.total += 1;
    }

    /// The retained events, oldest first, plus the number of events that
    /// were overwritten. Non-destructive — a dump can be taken mid-run.
    pub fn dump(&self) -> (Vec<TraceEvent>, u64) {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        (out, self.total - self.buf.len() as u64)
    }

    /// [`dump`](Self::dump), then clears the ring (the drain-on-demand
    /// path; `total` keeps counting across drains).
    pub fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let out = self.dump();
        self.buf.clear();
        self.head = 0;
        out
    }
}

/// One worker's drained/dumped ring, as assembled by
/// [`Observe::trace_dump`](crate::Observe::trace_dump).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// The worker label the ring was registered under.
    pub worker: String,
    /// Events overwritten by ring wrap before the dump.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A whole-process trace dump: every registered worker ring, in label
/// order. `Display` renders the deterministic text form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDump {
    /// Per-worker dumps, sorted by worker label.
    pub workers: Vec<FlightDump>,
}

impl TraceDump {
    /// Total events across all workers' retained rings.
    pub fn len(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// Whether no worker retained any events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Display for TraceDump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for w in &self.workers {
            writeln!(f, "=== {} (dropped {}) ===", w.worker, w.dropped)?;
            for ev in &w.events {
                writeln!(f, "  {ev}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut r = FlightRecorder::new(3);
        for seq in 0..5 {
            r.record(TraceEvent::FlushStart { seq });
        }
        let (events, dropped) = r.dump();
        assert_eq!(dropped, 2);
        assert_eq!(
            events,
            vec![
                TraceEvent::FlushStart { seq: 2 },
                TraceEvent::FlushStart { seq: 3 },
                TraceEvent::FlushStart { seq: 4 },
            ]
        );
    }

    #[test]
    fn dump_is_nondestructive_drain_clears() {
        let mut r = FlightRecorder::new(4);
        r.record(TraceEvent::WalRotation { segment: 1 });
        assert_eq!(r.dump().0.len(), 1);
        assert_eq!(r.dump().0.len(), 1);
        let (events, dropped) = r.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(dropped, 0);
        assert!(r.dump().0.is_empty());
        assert_eq!(r.total(), 1);
    }

    #[test]
    fn wrap_is_deterministic() {
        // Two identical event sequences must produce identical dumps,
        // including across a ring wrap.
        let run = |cap: usize| {
            let mut r = FlightRecorder::new(cap);
            for seq in 0..17 {
                r.record(TraceEvent::FlushStart { seq });
                r.record(TraceEvent::FlushEnd { seq, answers: 1 });
            }
            r.dump()
        };
        assert_eq!(run(8), run(8));
        assert_eq!(run(8).1, 34 - 8);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = FlightRecorder::new(0);
        r.record(TraceEvent::WalRotation { segment: 0 });
        r.record(TraceEvent::WalRotation { segment: 1 });
        let (events, dropped) = r.dump();
        assert_eq!(events, vec![TraceEvent::WalRotation { segment: 1 }]);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn events_render_stable_text() {
        let texts = [
            TraceEvent::FlushStart { seq: 7 }.to_string(),
            TraceEvent::SnapshotStall {
                slide: 4,
                bytes: 1024,
                sync_policy: "os_flush",
            }
            .to_string(),
            TraceEvent::Backpressure { seq: 2, shard: 1 }.to_string(),
        ];
        assert_eq!(texts[0], "flush_start seq=7");
        assert_eq!(
            texts[1],
            "snapshot_stall slide=4 bytes=1024 sync_policy=os_flush"
        );
        assert_eq!(texts[2], "backpressure seq=2 shard=1");
    }
}
