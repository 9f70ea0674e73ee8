//! The checking event stream.
//!
//! The cluster's choke points — the typed access path, the barrier engine,
//! and the per-protocol consistency actions — emit [`CheckEvent`]s to an
//! optional [`CheckSink`]. With no sink installed the emission sites reduce
//! to one `Option` test and the run is bit-identical (in virtual time and
//! statistics) to an uninstrumented run: events carry borrowed slices, are
//! never charged to any clock, and never mutate cluster state.
//!
//! The analyses themselves (happens-before race detection, the LRC
//! coherence oracle, protocol invariants) live in the `dsm-check` crate;
//! this module only defines the wire format between the cluster and a
//! checker, so that `dsm-core` carries no analysis code.

/// One observation from the running cluster.
///
/// Addresses are segment byte offsets (the same address space the shared
/// handles use); `data` slices borrow from the caller and are only valid
/// for the duration of the callback.
#[derive(Debug)]
pub enum CheckEvent<'a> {
    /// Setup-time write into the golden image, before distribution.
    ImageWrite { addr: usize, data: &'a [u8] },
    /// Application-level read: `pid` observed `data` at `addr`.
    Read {
        pid: usize,
        addr: usize,
        data: &'a [u8],
    },
    /// Application-level write of `data` at `addr`.
    Write {
        pid: usize,
        addr: usize,
        data: &'a [u8],
    },
    /// `pid` arrived at protocol barrier `epoch`.
    BarrierArrive { pid: usize, epoch: u64 },
    /// All processes released from protocol barrier `epoch`; the epoch
    /// counter advances after this event.
    BarrierRelease { epoch: u64 },
    /// A reduction folded at a barrier (`len` elements combined).
    Reduction { op: &'static str, len: usize },
    /// `pid` fetched page content (diffs or a full copy) from `from`.
    Fetch { pid: usize, from: usize, page: u32 },
    /// `writer` pushed its diff of `page` toward the members of `copyset`:
    /// `pushes` messages (the copyset minus the writer, the home for the
    /// bar family, and bar-r's elided members), each carrying `diff`
    /// (bar-r clips it per reader).
    UpdateFlush {
        writer: usize,
        page: u32,
        copyset: &'a crate::proto::CopySet,
        pushes: usize,
        diff: &'a dyn dsm_vm::Delta,
    },
    /// The per-page version index moved `old` → `new` (home-based family).
    VersionBump { page: u32, old: u32, new: u32 },
    /// `pid` filed a write notice: `writer` modified `page` in `epoch`.
    NoticeRecord {
        pid: usize,
        page: u32,
        writer: u16,
        epoch: u64,
    },
    /// `pid` consumed (validated or discarded as self-authored) a notice.
    NoticeConsume {
        pid: usize,
        page: u32,
        writer: u16,
        epoch: u64,
    },
    /// `pid` discarded all retained diffs/notices in a garbage collection;
    /// `retained` is the diff count dropped.
    GcDiscard { pid: usize, retained: usize },
    /// A droppable flush was duplicated in flight: `dst` receives `writer`'s
    /// update of `page` twice. The checker verifies the double application
    /// is idempotent (update application must tolerate at-least-once
    /// delivery on the lossy wire).
    DupDelivery {
        writer: usize,
        page: u32,
        dst: usize,
    },
    /// Region-granularity traffic elision (`bar-r`): `writer` flushed its
    /// delta of `page` but skipped the update push to the `elided` copyset
    /// members, on the strength of a static certificate proving none of
    /// them ever reads the writer's proven spans. The checker grounds
    /// every elision against the certificate — an elided member outside
    /// the proof is a violation, not an optimization.
    FalseShareElided {
        writer: usize,
        page: u32,
        elided: &'a crate::proto::CopySet,
    },
    /// A reliable message from `src` to `dst` needed `attempts` (> 1)
    /// transmissions before its ack landed. Pure wire telemetry: never
    /// affects protocol state, but lets the oracles assert that faults
    /// stayed below the transport (and folds into the trace hash so an
    /// explorer cannot conflate a retried schedule with a clean one).
    WireRetransmit {
        src: usize,
        dst: usize,
        attempts: u32,
    },
}

/// Receiver for the cluster's event stream.
///
/// Implementations must not assume anything about call frequency beyond
/// the ordering guarantees documented on [`CheckEvent`]; they are invoked
/// synchronously from inside the cluster and must not re-enter it.
pub trait CheckSink {
    fn on_event(&mut self, ev: CheckEvent<'_>);
}
