//! In-memory spans around the calls the benchmark makes into the
//! system's public layer functions (outside-in: nothing inside the
//! program is instrumented). Kept in memory during the run and written
//! out once it ends.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One timed repetition, ladder level or probe: the parent of the
    /// call spans recorded inside it.
    Phase,
    ClientPipeline,
    ShardedRunBatch,
    KvGet,
    KvPut,
    TieredMaintain,
    LogAppend,
    LogRead,
    LogSync,
}

const NAMES: [&str; 9] = [
    "bench.phase",
    "AriaClient::pipeline",
    "ShardedStore::run_batch",
    "KvStore::get",
    "KvStore::put",
    "TieredStore::maintain",
    "SegmentLog::append",
    "SegmentLog::read",
    "SegmentLog::sync",
];

/// Index of a span within its recorder; `NO_PARENT` for roots.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub parent: SpanId,
    /// Identifier shared by the spans of one request (the op's sequence
    /// number within its phase).
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans beyond this many are counted, not kept: a 10 s run makes
/// millions, and the ledger needs their totals, not each of them.
const KEEP: usize = 1 << 20;
/// Spans written to the trace file (the first ones recorded).
const WRITE: usize = 100_000;

/// One thread's span buffer. Threads each own one; they are merged when
/// the run ends.
pub struct Recorder {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    /// (count, total ns, ns covered by child spans) per name, over
    /// every span including the ones not kept.
    totals: [(u64, u64, u64); NAMES.len()],
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (shared by all
    /// threads of a run so their spans line up).
    pub fn new(epoch: Instant, thread: u32) -> Recorder {
        Recorder { epoch, thread, spans: Vec::new(), totals: [(0, 0, 0); NAMES.len()] }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a parent span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: Name, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.push(Span { name, parent: NO_PARENT, request, start_ns, end_ns: start_ns })
    }

    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
            let t = &mut self.totals[span.name as usize];
            t.1 += end_ns - span.start_ns;
        }
    }

    /// Record a finished call span under `parent` (a span id returned
    /// by [`Recorder::open`]).
    pub fn record(&mut self, name: Name, parent: SpanId, request: u64, start_ns: u64, end_ns: u64) {
        let ns = end_ns.saturating_sub(start_ns);
        self.totals[name as usize].1 += ns;
        if let Some(p) = self.spans.get(parent as usize) {
            self.totals[p.name as usize].2 += ns;
        }
        self.push(Span { name, parent, request, start_ns, end_ns });
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.totals[span.name as usize].0 += 1;
        // Parents are few and always kept, so children can name them.
        if self.spans.len() < KEEP || span.name == Name::Phase {
            self.spans.push(span);
            (self.spans.len() - 1) as SpanId
        } else {
            NO_PARENT
        }
    }
}

/// Write the merged recorders as JSON lines: one line per kept span
/// (at most [`WRITE`] per thread), then one summary line per span name
/// with its count, total time and self time (total minus the time its
/// child spans cover). Returns the number of spans recorded.
pub fn write_trace(path: &Path, recorders: &[Recorder]) -> std::io::Result<u64> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut count = [0u64; NAMES.len()];
    let mut total = [0u64; NAMES.len()];
    let mut child = [0u64; NAMES.len()];
    for rec in recorders {
        for (i, (n, ns, covered)) in rec.totals.iter().enumerate() {
            count[i] += n;
            total[i] += ns;
            child[i] += covered;
        }
        for (id, span) in rec.spans.iter().take(WRITE).enumerate() {
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                format!("\"{}.{}\"", rec.thread, span.parent)
            };
            writeln!(
                out,
                "{{\"id\": \"{}.{}\", \"name\": \"{}\", \"parent\": {}, \"request\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                rec.thread,
                id,
                NAMES[span.name as usize],
                parent,
                span.request,
                span.start_ns,
                span.end_ns
            )?;
        }
    }
    for i in 0..NAMES.len() {
        if count[i] > 0 {
            writeln!(
                out,
                "{{\"summary\": \"{}\", \"spans\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                NAMES[i],
                count[i],
                total[i],
                total[i].saturating_sub(child[i])
            )?;
        }
    }
    out.flush()?;
    Ok(count.iter().sum())
}
