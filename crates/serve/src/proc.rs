//! Shard workers and how they are spawned.
//!
//! The worker side of the multi-process shard host is one function,
//! [`run_worker`]: a read-frames/compute/write-frames loop that is
//! *transport-agnostic* — it takes any `Read`/`Write` pair. The real
//! `sparseloop-shard-worker` binary calls [`worker_main`], which wires
//! it to stdin/stdout; the deterministic in-crate tests wire it to
//! in-memory [`pipe`]s via [`ThreadSpawner`] so every fault schedule
//! runs without forking. Both transports execute the *same* worker
//! loop, and the same parent-side reader thread, which also executes
//! injected faults on the frames it reads, so the thread-backed tests
//! exercise the protocol, fault and supervision logic the processes
//! use. The worker carries no fault code at all.
//!
//! The supervisor stays transport-agnostic through [`WorkerSpawner`]:
//! spawning yields a [`WorkerHandle`] (send frames, kill) plus a stream
//! of [`WorkerEvent`]s (frames in, exit notices) on a shared channel.
//! [`ProcessSpawner`] backs it with real OS processes — its `kill` is a
//! genuine SIGKILL; [`ThreadSpawner`] backs it with threads — its
//! `kill` closes the pipes, which a live worker observes as EOF.

use crate::fault::{DiePoint, WorkerFault};
use crate::protocol::{
    read_frame, write_frame, write_frame_raw, ExpResult, Frame, ProtocolError, PROTOCOL_VERSION,
};
use sparseloop_core::{EvalSession, JobPlan};
use sparseloop_designs::Scenario;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// In-memory pipes (the thread-backed transport)
// ---------------------------------------------------------------------------

struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

struct PipeShared {
    state: Mutex<PipeState>,
    cond: Condvar,
}

/// Read end of an in-memory [`pipe`].
pub struct PipeReader(Arc<PipeShared>);

/// Write end of an in-memory [`pipe`].
pub struct PipeWriter(Arc<PipeShared>);

/// An in-memory unidirectional byte pipe with OS-pipe semantics: reads
/// block until data or close, buffered bytes still drain after close,
/// writes to a closed pipe fail with `BrokenPipe`, and dropping either
/// end closes it.
pub fn pipe() -> (PipeWriter, PipeReader) {
    let shared = Arc::new(PipeShared {
        state: Mutex::new(PipeState {
            buf: VecDeque::new(),
            closed: false,
        }),
        cond: Condvar::new(),
    });
    (PipeWriter(Arc::clone(&shared)), PipeReader(shared))
}

impl PipeShared {
    fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.closed = true;
        self.cond.notify_all();
    }
}

impl PipeReader {
    /// Closes the pipe from the read end (subsequent writes fail).
    pub fn close(&self) {
        self.0.close();
    }
}

impl PipeWriter {
    /// Closes the pipe from the write end (readers drain, then see EOF).
    pub fn close(&self) {
        self.0.close();
    }
}

impl Read for PipeReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !st.buf.is_empty() {
                let n = buf.len().min(st.buf.len());
                for slot in buf.iter_mut().take(n) {
                    *slot = st.buf.pop_front().expect("len checked");
                }
                return Ok(n);
            }
            if st.closed {
                return Ok(0);
            }
            st = self.0.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        st.buf.extend(buf.iter().copied());
        self.0.cond.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.0.close();
    }
}

// ---------------------------------------------------------------------------
// The worker loop
// ---------------------------------------------------------------------------

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker task panicked".to_string()
    }
}

/// Worker-side phase timings and counters for one task, measured with
/// the worker's own monotonic clock and shipped to the parent as a
/// [`Frame::Stats`] when the task asked for it.
#[derive(Debug, Clone, Copy, Default)]
struct TaskPhases {
    compile_nanos: u64,
    search_nanos: u64,
    generated: u64,
    evaluated: u64,
}

/// Most compiled specs a worker keeps. A fleet serves a handful of
/// distinct scenarios over and over; the bound only stops a stream of
/// distinct specs from growing a worker without limit.
const SPEC_CACHE_CAPACITY: usize = 64;

/// The worker's compiled scenarios, keyed by their exact spec text and
/// evicted oldest-first once [`SPEC_CACHE_CAPACITY`] are held. A spec
/// that fails to compile is never cached, so it fails again, the same
/// way, every time it is sent.
#[derive(Default)]
struct SpecCache(VecDeque<(String, Scenario)>);

impl SpecCache {
    /// The scenario `spec` compiles to, compiling it on a miss.
    fn get_or_compile(&mut self, spec: &str) -> Result<&Scenario, String> {
        let at = match self.0.iter().position(|(text, _)| text == spec) {
            Some(at) => at,
            None => {
                let scenario = sparseloop_spec::compile_str(spec)
                    .map_err(|e| e.to_string())?
                    .into_scenario();
                if self.0.len() == SPEC_CACHE_CAPACITY {
                    self.0.pop_front();
                }
                self.0.push_back((spec.to_string(), scenario));
                self.0.len() - 1
            }
        };
        Ok(&self.0[at].1)
    }
}

/// Compiles `spec` (through the worker's cache) and walks one shard of
/// every search experiment; fixed-mapping experiments are
/// [`ExpResult::Skipped`] (the parent evaluates them locally — no
/// candidate stream to shard). A compile error is a deterministic
/// failure.
///
/// Worker `worker` of `shards` walks logical shard `(worker + j) %
/// shards` of its `j`-th search experiment. Logical shard 0 also draws
/// the seeded sample tail, so the tails rotate across the workers
/// instead of all landing on worker 0. The parent merges every worker's
/// part of an experiment by `(value, key)` and sums the stats, so the
/// rotation never shows in the reply.
fn run_task(
    specs: &mut SpecCache,
    spec: &str,
    worker: usize,
    shards: usize,
) -> Result<(Vec<ExpResult>, TaskPhases), String> {
    let mut phases = TaskPhases::default();
    let compile_start = std::time::Instant::now();
    let scenario = specs.get_or_compile(spec)?;
    phases.compile_nanos = elapsed_nanos(compile_start);
    if worker >= shards {
        return Err(format!("shard index {worker} out of {shards}"));
    }
    let session = EvalSession::new();
    let mut results = Vec::new();
    let mut searches = 0;
    let search_start = std::time::Instant::now();
    for exp in scenario.experiments() {
        let job = exp.job();
        match job.plan {
            JobPlan::Fixed(_) => results.push(ExpResult::Skipped),
            JobPlan::Search {
                space,
                mapper,
                objective,
            } => {
                let shard = (worker + searches) % shards;
                searches += 1;
                let model = session.model(job.workload, job.arch, job.safs);
                let (winner, stats) =
                    model.search_shard_counted(&space, mapper, objective, shard, shards);
                phases.generated += stats.generated as u64;
                phases.evaluated += stats.evaluated as u64;
                results.push(match winner {
                    Some((value, key, mapping)) => ExpResult::Winner {
                        value,
                        key,
                        stats,
                        mapping,
                    },
                    None => ExpResult::NoWinner { stats },
                });
            }
        }
    }
    phases.search_nanos = elapsed_nanos(search_start);
    Ok((results, phases))
}

fn elapsed_nanos(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The shard-worker loop: handshake, then read [`Frame::Task`]s,
/// heartbeat while computing, and answer with
/// [`Frame::TaskDone`]/[`Frame::TaskFailed`] until shutdown or EOF.
///
/// Returning from this function *is* worker death for every transport:
/// the pipes drop, the parent reads EOF. Injected faults never reach
/// it: the parent executes them on its end of the frame stream (see
/// [`crate::fault`]).
pub fn run_worker<R, W>(mut reader: R, writer: W)
where
    R: Read,
    W: Write + Send + 'static,
{
    let mut specs = SpecCache::default();
    let writer = Arc::new(Mutex::new(writer));
    {
        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
        if write_frame(
            &mut *w,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            },
        )
        .is_err()
        {
            return;
        }
    }
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(_) => return,
        };
        match frame {
            Frame::Task {
                id,
                shard,
                shards,
                heartbeat_ms,
                spec,
                want_stats,
                trace_request,
                trace_parent,
            } => {
                // Dropping `alive` wakes the heartbeater mid-wait, so the
                // join below returns at once instead of outsleeping a
                // cadence, and no heartbeat can follow the reply.
                let (alive, stopped) = mpsc::channel::<()>();
                let heartbeater = (heartbeat_ms > 0).then(|| {
                    let writer = Arc::clone(&writer);
                    let cadence = Duration::from_millis(heartbeat_ms as u64);
                    std::thread::spawn(move || {
                        let mut seq = 0u64;
                        while stopped.recv_timeout(cadence) == Err(mpsc::RecvTimeoutError::Timeout)
                        {
                            seq += 1;
                            let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                            if write_frame(&mut *w, &Frame::Heartbeat { id, seq }).is_err() {
                                return;
                            }
                        }
                    })
                });
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_task(&mut specs, &spec, shard as usize, shards as usize)
                }));
                drop(alive);
                if let Some(h) = heartbeater {
                    let _ = h.join();
                }
                let mut stats_frame = None;
                let reply = match outcome {
                    Ok(Ok((results, phases))) => {
                        if want_stats {
                            // Echo the task's trace context so the
                            // parent can anchor these phase timings
                            // under the originating request's dispatch
                            // span.
                            stats_frame = Some(Frame::Stats {
                                id,
                                shard,
                                compile_nanos: phases.compile_nanos,
                                search_nanos: phases.search_nanos,
                                generated: phases.generated,
                                evaluated: phases.evaluated,
                                trace_request,
                                trace_parent,
                            });
                        }
                        Frame::TaskDone { id, results }
                    }
                    Ok(Err(message)) => Frame::TaskFailed { id, message },
                    Err(p) => Frame::TaskFailed {
                        id,
                        message: panic_message(p),
                    },
                };
                // phase timings ride immediately ahead of the result
                let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                let mut frames = stats_frame.iter().chain([&reply]);
                if !frames.all(|f| write_frame(&mut *w, f).is_ok()) {
                    return;
                }
            }
            Frame::Shutdown => return,
            // anything else on the command stream is a protocol breach;
            // dying loudly beats computing the wrong thing
            _ => return,
        }
    }
}

/// Entry point for the `sparseloop-shard-worker` binary: runs
/// [`run_worker`] over stdin/stdout.
pub fn worker_main() {
    run_worker(io::stdin(), io::stdout());
}

// ---------------------------------------------------------------------------
// Spawning
// ---------------------------------------------------------------------------

/// What happened on a worker's output stream.
#[derive(Debug)]
pub enum EventKind {
    /// A frame arrived.
    Frame(Frame),
    /// The stream ended: `None` for clean EOF, `Some(why)` for a
    /// protocol violation (corrupt frame, truncation, pipe error) —
    /// either way the worker is unusable and must be replaced.
    Exited(Option<String>),
}

/// One event from one worker, tagged with the slot it came from and the
/// spawn epoch that produced it — the supervisor discards events from
/// stale epochs (a killed worker's last gasp must not race its
/// replacement).
#[derive(Debug)]
pub struct WorkerEvent {
    /// Worker slot index.
    pub slot: u32,
    /// Spawn epoch of the worker that produced the event.
    pub epoch: u64,
    /// The event.
    pub kind: EventKind,
}

/// The supervisor's grip on one live worker.
pub trait WorkerHandle: Send {
    /// Sends a command frame to the worker.
    fn send(&mut self, frame: &Frame) -> io::Result<()>;
    /// Forcibly terminates the worker (SIGKILL for processes, pipe
    /// close for threads). Idempotent.
    fn kill(&mut self);
}

/// Spawns workers and routes their output onto a shared event channel.
pub trait WorkerSpawner {
    /// Starts one worker for `slot` at `epoch`. Frames and the eventual
    /// exit notice arrive on `events`, with `fault` (if any) executed on
    /// them as they arrive (see [`crate::fault`];
    /// [`WorkerFault::KillAfterFrames`] is the supervisor's and passes
    /// through).
    fn spawn(
        &self,
        slot: u32,
        epoch: u64,
        fault: Option<WorkerFault>,
        events: mpsc::Sender<WorkerEvent>,
    ) -> io::Result<Box<dyn WorkerHandle>>;
}

/// Forwards a worker's output frames onto `events` from a thread of its
/// own, until the stream ends. The worker's first frame must be a
/// [`Frame::Hello`] at this build's [`PROTOCOL_VERSION`]: a worker that
/// opens with anything else is reported as exited, with the reason,
/// and nothing more of its output is read.
///
/// A scheduled `fault` is executed here, on the parent's end of the
/// stream, by [`tap`]; without one every event is forwarded as read.
fn forward_events<R: Read + Send + 'static>(
    mut reader: R,
    slot: u32,
    epoch: u64,
    mut fault: Option<WorkerFault>,
    events: mpsc::Sender<WorkerEvent>,
) {
    std::thread::spawn(move || {
        let mut greeted = false;
        loop {
            let kind = match fault {
                // the worker counts as dead before anything more is read
                Some(WorkerFault::DieAt(DiePoint::Startup)) => EventKind::Exited(None),
                _ => match read_frame(&mut reader) {
                    Ok(frame) if greeted => EventKind::Frame(frame),
                    Ok(
                        hello @ Frame::Hello {
                            version: PROTOCOL_VERSION,
                        },
                    ) => {
                        greeted = true;
                        EventKind::Frame(hello)
                    }
                    Ok(Frame::Hello { version }) => EventKind::Exited(Some(format!(
                        "worker speaks protocol v{version}, parent v{PROTOCOL_VERSION}"
                    ))),
                    Ok(_) => {
                        EventKind::Exited(Some("worker sent a frame before its Hello".to_string()))
                    }
                    Err(ProtocolError::Eof) => EventKind::Exited(None),
                    Err(e) => EventKind::Exited(Some(e.to_string())),
                },
            };
            let Some(kind) = tap(&mut fault, kind, &mut reader) else {
                continue;
            };
            let done = matches!(kind, EventKind::Exited(_));
            if events.send(WorkerEvent { slot, epoch, kind }).is_err() || done {
                return;
            }
        }
    });
}

/// Executes a scheduled [`WorkerFault`] on one event read from the
/// worker and returns what to forward in its place (`None`: nothing).
/// `DieAt(Startup)` ends the stream before anything is read, and
/// `DieAt(AfterHello)` turns into it once the Hello is through; the
/// other stream faults fire at the first result frame (`Stats`,
/// `TaskDone` or `TaskFailed`). A stall drains the rest of the stream
/// until the heartbeat audit kills the worker, and a corrupt frame is
/// re-encoded with a flipped payload byte and decoded again, so the
/// stream ends on the protocol's own checksum error. `fault` is cleared
/// once spent; `KillAfterFrames` is the supervisor's and passes all.
fn tap<R: Read>(
    fault: &mut Option<WorkerFault>,
    kind: EventKind,
    reader: &mut R,
) -> Option<EventKind> {
    let (Some(armed), EventKind::Frame(frame)) = (*fault, &kind) else {
        return Some(kind);
    };
    let result = matches!(
        frame,
        Frame::Stats { .. } | Frame::TaskDone { .. } | Frame::TaskFailed { .. }
    );
    match armed {
        WorkerFault::DieAt(DiePoint::AfterHello) => {
            *fault = Some(WorkerFault::DieAt(DiePoint::Startup));
            Some(kind)
        }
        WorkerFault::KillAfterFrames(_) => Some(kind),
        _ if !result => Some(kind),
        WorkerFault::DieAt(_) => Some(EventKind::Exited(None)),
        WorkerFault::StallBeforeResult => {
            let _ = io::copy(reader, &mut io::sink());
            None
        }
        WorkerFault::DropResult => {
            if !matches!(frame, Frame::Stats { .. }) {
                *fault = None;
            }
            None
        }
        WorkerFault::SlowFrames { delay_ms } => {
            std::thread::sleep(Duration::from_millis(delay_ms));
            *fault = None;
            Some(kind)
        }
        WorkerFault::CorruptResult => {
            let mut bytes = Vec::new();
            write_frame_raw(&mut bytes, frame, /* corrupt */ true)
                .expect("a Vec takes every write");
            Some(match read_frame(&mut bytes.as_slice()) {
                Ok(frame) => EventKind::Frame(frame),
                Err(e) => EventKind::Exited(Some(e.to_string())),
            })
        }
    }
}

/// Thread-backed workers over in-memory pipes — the deterministic
/// transport for fault-injection tests. `kill` closes both pipes: a
/// worker blocked on its command stream dies immediately; one
/// mid-compute finishes into a dead pipe and exits, its late frames
/// discarded by the epoch check.
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadSpawner;

struct ThreadHandle {
    commands: PipeWriter,
    worker_output: Arc<PipeShared>,
}

impl WorkerHandle for ThreadHandle {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.commands, frame)
    }

    fn kill(&mut self) {
        self.commands.close();
        self.worker_output.close();
    }
}

impl WorkerSpawner for ThreadSpawner {
    fn spawn(
        &self,
        slot: u32,
        epoch: u64,
        fault: Option<WorkerFault>,
        events: mpsc::Sender<WorkerEvent>,
    ) -> io::Result<Box<dyn WorkerHandle>> {
        let (commands_w, commands_r) = pipe();
        let (results_w, results_r) = pipe();
        let worker_output = Arc::clone(&results_r.0);
        std::thread::spawn(move || run_worker(commands_r, results_w));
        forward_events(results_r, slot, epoch, fault, events);
        Ok(Box::new(ThreadHandle {
            commands: commands_w,
            worker_output,
        }))
    }
}

/// Process-backed workers: spawns `program` with piped stdin/stdout
/// (the `sparseloop-shard-worker` binary) and delivers `kill` as a real
/// signal.
#[derive(Debug, Clone)]
pub struct ProcessSpawner {
    program: PathBuf,
}

impl ProcessSpawner {
    /// A spawner launching `program` per worker.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        ProcessSpawner {
            program: program.into(),
        }
    }
}

struct ProcessHandle {
    child: std::process::Child,
    stdin: Option<std::process::ChildStdin>,
}

impl WorkerHandle for ProcessHandle {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        match self.stdin.as_mut() {
            Some(stdin) => write_frame(stdin, frame),
            None => Err(io::Error::new(io::ErrorKind::BrokenPipe, "worker killed")),
        }
    }

    fn kill(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ProcessHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

impl WorkerSpawner for ProcessSpawner {
    fn spawn(
        &self,
        slot: u32,
        epoch: u64,
        fault: Option<WorkerFault>,
        events: mpsc::Sender<WorkerEvent>,
    ) -> io::Result<Box<dyn WorkerHandle>> {
        let mut child = std::process::Command::new(&self.program)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        forward_events(stdout, slot, epoch, fault, events);
        Ok(Box::new(ProcessHandle {
            child,
            stdin: Some(stdin),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipes_behave_like_os_pipes() {
        let (mut w, mut r) = pipe();
        w.write_all(b"abc").unwrap();
        let mut buf = [0u8; 2];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ab");
        w.close();
        // buffered data drains after close, then clean EOF
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"c");
        assert!(w.write_all(b"x").is_err(), "write after close fails");
    }

    #[test]
    fn blocked_reader_wakes_on_close() {
        let (w, mut r) = pipe();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 1];
            r.read(&mut buf).unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        w.close();
        assert_eq!(t.join().unwrap(), 0);
    }

    #[test]
    fn worker_handshakes_and_shuts_down() {
        let (tx, rx) = mpsc::channel();
        let mut handle = ThreadSpawner.spawn(0, 1, None, tx).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            WorkerEvent {
                slot: 0,
                epoch: 1,
                kind: EventKind::Frame(Frame::Hello { version }),
            } => assert_eq!(version, PROTOCOL_VERSION),
            other => panic!("expected hello, got {other:?}"),
        }
        handle.send(&Frame::Shutdown).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap().kind {
            EventKind::Exited(None) => {}
            other => panic!("expected clean exit, got {other:?}"),
        }
    }

    #[test]
    fn startup_fault_spawns_a_silent_corpse() {
        let (tx, rx) = mpsc::channel();
        let _handle = ThreadSpawner
            .spawn(2, 7, Some(WorkerFault::DieAt(DiePoint::Startup)), tx)
            .unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            WorkerEvent {
                slot: 2,
                epoch: 7,
                kind: EventKind::Exited(None),
            } => {}
            other => panic!("expected exit without hello, got {other:?}"),
        }
    }

    #[test]
    fn bad_spec_fails_deterministically() {
        let (tx, rx) = mpsc::channel();
        let mut handle = ThreadSpawner.spawn(0, 1, None, tx).unwrap();
        // hello
        let _ = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // a failed compile is not cached: the resend fails the same way
        let mut messages = Vec::new();
        for id in [3, 4] {
            handle.send(&task(id, 0, BAD_SPEC)).unwrap();
            match next_frame(&rx) {
                Frame::TaskFailed { id: got, message } if got == id => messages.push(message),
                other => panic!("task {id}: expected deterministic failure, got {other:?}"),
            }
        }
        assert_eq!(messages[0], messages[1]);
        handle.kill();
    }

    #[test]
    fn spec_cache_compiles_each_text_once() {
        let mut specs = SpecCache::default();
        let text = spmspm_spec(4, Some(16));
        let first: *const Scenario = specs.get_or_compile(&text).unwrap();
        let again: *const Scenario = specs.get_or_compile(&text).unwrap();
        assert_eq!(specs.0.len(), 1);
        assert!(std::ptr::eq(first, again), "a hit must not recompile");

        // one byte apart: its own entry and its own answer
        let at = text.find("density: 0.5").expect("emitted density") + "density: 0.".len();
        let mut tweaked = text.clone().into_bytes();
        tweaked[at] = b'6';
        let tweaked = String::from_utf8(tweaked).unwrap();
        let (ours, _) = run_task(&mut specs, &text, 0, 1).unwrap();
        let (theirs, _) = run_task(&mut specs, &tweaked, 0, 1).unwrap();
        assert_eq!(specs.0.len(), 2);
        assert_ne!(ours, theirs, "a denser operand must change the search");
        let fresh = |spec: &str| run_task(&mut SpecCache::default(), spec, 0, 1).unwrap().0;
        assert_eq!(ours, fresh(&text));
        assert_eq!(theirs, fresh(&tweaked));

        for _ in 0..2 {
            assert!(specs.get_or_compile(BAD_SPEC).is_err());
        }
        assert_eq!(specs.0.len(), 2, "a failed compile is never cached");
    }

    #[test]
    fn spec_cache_holds_at_most_its_capacity() {
        let mut specs = SpecCache::default();
        let text = spmspm_spec(4, None);
        let named = |i: usize| text.replacen("tiny", &format!("tiny{i}"), 1);
        for i in 0..SPEC_CACHE_CAPACITY + 3 {
            let scenario = specs.get_or_compile(&named(i)).unwrap();
            assert_eq!(scenario.name(), format!("tiny{i}"));
            assert!(specs.0.len() <= SPEC_CACHE_CAPACITY);
        }
        assert_eq!(specs.0.len(), SPEC_CACHE_CAPACITY);
        // the oldest entries went first
        assert!(specs
            .0
            .iter()
            .all(|(t, _)| *t != named(0) && *t != named(2)));
        assert!(specs.0.iter().any(|(t, _)| *t == named(3)));
    }

    /// Enumerated prefix of every [`hybrid_scenario`] search: far short
    /// of its mapspace, so each search draws a sample tail.
    const TAIL_PREFIX: usize = 8;

    /// Four hybrid searches that each draw a sample tail, with a
    /// fixed-mapping experiment second (it takes no turn in the
    /// rotation).
    fn hybrid_scenario() -> sparseloop_designs::Scenario {
        use sparseloop_designs::{Experiment, MappingPolicy, Scenario};
        use sparseloop_mapping::{Mapper, Mapspace};
        Scenario::new("tails", "hybrid searches with sample tails", || {
            let mut exps = Vec::new();
            for (j, dim) in [6u64, 8, 10, 12].into_iter().enumerate() {
                let layer = sparseloop_workloads::spmspm(dim, dim, dim, 0.5, 0.3);
                let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
                let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
                if j == 1 {
                    let mapping = space.enumerate(1).remove(0);
                    let (dp, layer) = (dp.clone(), layer.clone());
                    exps.push(Experiment::fixed("tails@fixed", dp, layer, mapping));
                }
                let mut exp = Experiment::search(format!("tails@{dim}"), dp, layer, space);
                if let MappingPolicy::Search { mapper, .. } = &mut exp.policy {
                    *mapper = Mapper::Hybrid {
                        enumerate: TAIL_PREFIX,
                        samples: 6,
                        seed: j as u64 + 1,
                    };
                }
                exps.push(exp);
            }
            exps
        })
    }

    /// Logical shard `s` of `shards` of every search experiment of
    /// `scenario`, walked in process, in experiment order.
    fn logical_shards(
        scenario: &sparseloop_designs::Scenario,
        mapper_of: impl Fn(sparseloop_mapping::Mapper) -> sparseloop_mapping::Mapper,
        s: usize,
        shards: usize,
    ) -> Vec<ExpResult> {
        let session = EvalSession::new();
        let mut walks = Vec::new();
        for exp in scenario.experiments() {
            let job = exp.job();
            if let JobPlan::Search {
                space,
                mapper,
                objective,
            } = job.plan
            {
                let model = session.model(job.workload, job.arch, job.safs);
                let (winner, stats) =
                    model.search_shard_counted(&space, mapper_of(mapper), objective, s, shards);
                walks.push(match winner {
                    Some((value, key, mapping)) => ExpResult::Winner {
                        value,
                        key,
                        stats,
                        mapping,
                    },
                    None => ExpResult::NoWinner { stats },
                });
            }
        }
        walks
    }

    fn stats_of(result: &ExpResult) -> sparseloop_mapping::SearchStats {
        match result {
            ExpResult::Winner { stats, .. } | ExpResult::NoWinner { stats } => *stats,
            ExpResult::Skipped => panic!("a search experiment came back skipped"),
        }
    }

    #[test]
    fn worker_walks_a_rotated_logical_shard_per_search() {
        let text = sparseloop_spec::emit_scenario(&hybrid_scenario());
        let scenario = sparseloop_spec::compile_str(&text).unwrap().into_scenario();
        for shards in [2usize, 3] {
            let walks: Vec<_> = (0..shards)
                .map(|s| logical_shards(&scenario, |m| m, s, shards))
                .collect();
            for worker in 0..shards {
                let (results, _) =
                    run_task(&mut SpecCache::default(), &text, worker, shards).unwrap();
                assert!(matches!(results[1], ExpResult::Skipped));
                let searches: Vec<_> = results
                    .iter()
                    .filter(|r| !matches!(r, ExpResult::Skipped))
                    .collect();
                assert_eq!(searches.len(), 4);
                for (j, got) in searches.into_iter().enumerate() {
                    let want = &walks[(worker + j) % shards][j];
                    assert_eq!(got, want, "worker {worker}/{shards}, search {j}");
                }
            }
        }
        let refused = run_task(&mut SpecCache::default(), &text, 2, 2);
        assert!(refused.is_err(), "a worker index past the shard count");
    }

    #[test]
    fn every_worker_draws_some_sample_tail() {
        use sparseloop_mapping::Mapper;
        let text = sparseloop_spec::emit_scenario(&hybrid_scenario());
        let scenario = sparseloop_spec::compile_str(&text).unwrap().into_scenario();
        // logical shard 0's prefix share is the larger one; a walk that
        // generated more than it drew a tail
        let prefix_only = logical_shards(
            &scenario,
            |_| Mapper::Exhaustive { limit: TAIL_PREFIX },
            0,
            2,
        );
        // the workers that drew each search's tail
        let mut owners = vec![Vec::new(); prefix_only.len()];
        for worker in 0..2 {
            let (tx, rx) = mpsc::channel();
            let mut handle = ThreadSpawner.spawn(worker, 1, None, tx).unwrap();
            assert!(matches!(next_frame(&rx), Frame::Hello { .. }));
            let mut frame = task(9, 0, text.clone());
            if let Frame::Task { shard, shards, .. } = &mut frame {
                (*shard, *shards) = (worker, 2);
            }
            handle.send(&frame).unwrap();
            let results = match next_frame(&rx) {
                Frame::TaskDone { results, .. } => results,
                other => panic!("worker {worker}: expected TaskDone, got {other:?}"),
            };
            handle.kill();
            let searches = results.iter().filter(|r| !matches!(r, ExpResult::Skipped));
            for (j, (got, prefix)) in searches.zip(&prefix_only).enumerate() {
                if stats_of(got).generated > stats_of(prefix).generated {
                    owners[j].push(worker);
                }
            }
        }
        assert!(
            owners.iter().all(|o| o.len() == 1),
            "one tail per search: {owners:?}"
        );
        for worker in 0..2 {
            assert!(
                owners.contains(&vec![worker]),
                "worker {worker} drew no tail: {owners:?}"
            );
        }
    }

    #[test]
    fn rotated_fleet_matches_the_in_process_run() {
        use crate::supervisor::{HostConfig, ShardHost};
        let text = sparseloop_spec::emit_scenario(&hybrid_scenario());
        let scenario = sparseloop_spec::compile_str(&text).unwrap().into_scenario();
        for shards in [2usize, 3] {
            let want =
                crate::service::scenario_reply(scenario.run(&EvalSession::new(), Some(shards)));
            let config = HostConfig::default()
                .with_shards(shards)
                .with_heartbeat(10, Duration::from_secs(5));
            let mut host = ShardHost::new(config, ThreadSpawner);
            // twice: the second request hits every worker's spec cache
            for round in 0..2 {
                let got = host
                    .run(&scenario, &text, &EvalSession::new(), None)
                    .unwrap();
                assert_eq!(
                    crate::service::reply_drift(&want, &got),
                    None,
                    "shards={shards} round={round}"
                );
            }
        }
    }

    /// Spec text of a one-experiment spMspM scenario on a `dim`³ layer:
    /// one fixed mapping when `limit` is `None` (the worker compiles it
    /// and has nothing to search), otherwise an exhaustive search over
    /// up to `limit` temporal mappings.
    fn spmspm_spec(dim: u64, limit: Option<usize>) -> String {
        use sparseloop_designs::{Experiment, MappingPolicy, Scenario};
        use sparseloop_mapping::{Mapper, Mapspace};
        let scenario = Scenario::new("tiny", "one spMspM layer", move || {
            let layer = sparseloop_workloads::spmspm(dim, dim, dim, 0.5, 0.5);
            let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
            let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
            let Some(limit) = limit else {
                let mapping = space.enumerate(1).remove(0);
                return vec![Experiment::fixed("tiny@fixed", dp, layer, mapping)];
            };
            let mut exp = Experiment::search("tiny@search", dp, layer, space);
            if let MappingPolicy::Search { mapper, .. } = &mut exp.policy {
                *mapper = Mapper::Exhaustive { limit };
            }
            vec![exp]
        });
        sparseloop_spec::emit_scenario(&scenario)
    }

    /// A spec that fails to compile: the worker answers `TaskFailed`.
    const BAD_SPEC: &str = "scenario:\n  nonsense: true\n";

    fn task(id: u64, heartbeat_ms: u32, spec: impl Into<String>) -> Frame {
        Frame::Task {
            id,
            shard: 0,
            shards: 1,
            heartbeat_ms,
            spec: spec.into(),
            want_stats: false,
            trace_request: 0,
            trace_parent: 0,
        }
    }

    fn next_frame(rx: &mpsc::Receiver<WorkerEvent>) -> Frame {
        match rx.recv_timeout(Duration::from_secs(10)).unwrap().kind {
            EventKind::Frame(frame) => frame,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn finished_task_replies_without_waiting_out_the_heartbeat() {
        // the reply waits on the heartbeat thread's join, so that join
        // must not wait out the rest of a cadence
        let (tx, rx) = mpsc::channel();
        let mut handle = ThreadSpawner.spawn(0, 1, None, tx).unwrap();
        assert!(matches!(next_frame(&rx), Frame::Hello { .. }));
        let cases = [
            (1, BAD_SPEC.to_string(), false),
            (2, spmspm_spec(4, None), true),
        ];
        for (id, spec, ok) in cases {
            let started = std::time::Instant::now();
            handle.send(&task(id, 200, spec)).unwrap();
            let reply = next_frame(&rx);
            let elapsed = started.elapsed();
            match reply {
                Frame::TaskDone { id: got, .. } if ok => assert_eq!(got, id),
                Frame::TaskFailed { id: got, .. } if !ok => assert_eq!(got, id),
                other => panic!("task {id}: unexpected reply {other:?}"),
            }
            assert!(
                elapsed < Duration::from_millis(50),
                "task {id}: round trip {elapsed:?} must stay under a quarter of the 200ms cadence"
            );
        }
        handle.kill();
    }

    #[test]
    fn no_heartbeat_follows_its_task_result() {
        let (tx, rx) = mpsc::channel();
        let mut handle = ThreadSpawner.spawn(0, 1, None, tx).unwrap();
        assert!(matches!(next_frame(&rx), Frame::Hello { .. }));
        // ~4k evaluated candidates: many 1ms cadences, even in release
        handle
            .send(&task(7, 1, spmspm_spec(120, Some(4096))))
            .unwrap();
        let mut heartbeats = 0;
        loop {
            match next_frame(&rx) {
                Frame::Heartbeat { id: 7, .. } => heartbeats += 1,
                Frame::TaskDone { id: 7, .. } => break,
                other => panic!("unexpected frame while computing: {other:?}"),
            }
        }
        assert!(
            heartbeats >= 1,
            "a long task must heartbeat before its result"
        );
        // frames arrive in write order, so the reply to a second,
        // heartbeat-free task fences off anything the worker wrote after
        // its first result
        handle.send(&task(8, 0, BAD_SPEC)).unwrap();
        match next_frame(&rx) {
            Frame::TaskFailed { id: 8, .. } => {}
            other => panic!("frame between TaskDone and the fence: {other:?}"),
        }
        handle.kill();
    }

    /// Runs `forward_events` with `fault` over `frames` written back to
    /// back and collects every event it sends until it hangs up.
    fn forwarded(fault: Option<WorkerFault>, frames: &[Frame]) -> Vec<EventKind> {
        let mut bytes = Vec::new();
        for f in frames {
            write_frame(&mut bytes, f).unwrap();
        }
        let (tx, rx) = mpsc::channel();
        forward_events(io::Cursor::new(bytes), 0, 1, fault, tx);
        let mut kinds = Vec::new();
        while let Ok(ev) = rx.recv_timeout(Duration::from_secs(5)) {
            kinds.push(ev.kind);
        }
        kinds
    }

    #[test]
    fn parent_refuses_a_worker_without_a_matching_hello() {
        let done = Frame::TaskDone {
            id: 4,
            results: vec![ExpResult::Skipped],
        };
        let stale = PROTOCOL_VERSION - 1;
        match forwarded(None, &[Frame::Hello { version: stale }, done.clone()]).as_slice() {
            [EventKind::Exited(Some(why))] => {
                assert!(
                    why.contains(&format!("v{stale}"))
                        && why.contains(&format!("v{PROTOCOL_VERSION}")),
                    "message must name both versions: {why}"
                );
            }
            other => panic!("expected one refusal, got {other:?}"),
        }
        match forwarded(None, std::slice::from_ref(&done)).as_slice() {
            [EventKind::Exited(Some(_))] => {}
            other => panic!("expected a refusal without Hello, got {other:?}"),
        }

        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
        };
        let stream = [hello, Frame::Heartbeat { id: 4, seq: 1 }, done];
        let kinds = forwarded(None, &stream);
        assert_eq!(kinds.len(), stream.len() + 1, "{kinds:?}");
        for (kind, sent) in kinds.iter().zip(&stream) {
            match kind {
                EventKind::Frame(got) => assert_eq!(got, sent),
                other => panic!("expected {sent:?}, got {other:?}"),
            }
        }
        assert!(matches!(kinds.last(), Some(EventKind::Exited(None))));
    }

    #[test]
    fn every_stream_fault_is_executed_on_the_parents_end() {
        use crate::fault::DiePoint::{AfterHello, BeforeResult, Startup};
        use WorkerFault::*;
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
        };
        let beat = |id| Frame::Heartbeat { id, seq: 1 };
        let done = |id| Frame::TaskDone {
            id,
            results: vec![ExpResult::Skipped],
        };
        let stats = Frame::Stats {
            id: 1,
            shard: 0,
            compile_nanos: 1,
            search_nanos: 2,
            generated: 3,
            evaluated: 4,
            trace_request: 0,
            trace_parent: 0,
        };
        // two tasks, the first answered with its phase timings
        let stream = [hello.clone(), beat(1), stats, done(1), beat(2), done(2)];
        let cases = [
            (DieAt(Startup), vec![]),
            (DieAt(AfterHello), vec![hello.clone()]),
            (DieAt(BeforeResult), vec![hello.clone(), beat(1)]),
            (StallBeforeResult, vec![hello.clone(), beat(1)]),
            (DropResult, vec![hello.clone(), beat(1), beat(2), done(2)]),
            (SlowFrames { delay_ms: 20 }, stream.to_vec()),
            (KillAfterFrames(1), stream.to_vec()),
            (CorruptResult, vec![hello.clone(), beat(1)]),
        ];
        for (fault, want) in cases {
            let started = std::time::Instant::now();
            let mut kinds = forwarded(Some(fault), &stream);
            let elapsed = started.elapsed();
            let end = match kinds.pop() {
                Some(EventKind::Exited(why)) => why,
                other => panic!("{fault:?}: the stream must end, got {other:?}"),
            };
            let got: Vec<Frame> = kinds
                .into_iter()
                .map(|kind| match kind {
                    EventKind::Frame(frame) => frame,
                    other => panic!("{fault:?}: an end mid-stream: {other:?}"),
                })
                .collect();
            assert_eq!(got, want, "{fault:?}");
            if fault == CorruptResult {
                let why = end.expect("a corrupt frame ends the stream on an error");
                assert!(
                    why.starts_with("frame checksum mismatch"),
                    "the protocol's own checksum error, got {why}"
                );
            } else {
                assert_eq!(end, None, "{fault:?}: a clean end of stream");
            }
            if let SlowFrames { delay_ms } = fault {
                assert!(elapsed >= Duration::from_millis(delay_ms), "{elapsed:?}");
            }
        }
    }
}
