//! Shard workers and how they are spawned.
//!
//! The worker side of the multi-process shard host is one function,
//! [`run_worker`]: a read-frames/compute/write-frames loop that is
//! *transport-agnostic* — it takes any `Read`/`Write` pair. The real
//! `sparseloop-shard-worker` binary calls [`worker_main`], which wires
//! it to stdin/stdout; the deterministic in-crate tests wire it to
//! in-memory [`pipe`]s via [`ThreadSpawner`] so every fault schedule
//! runs without forking. Both transports execute the *same* worker
//! loop, so the thread-backed tests exercise the protocol and
//! supervision logic the processes use.
//!
//! The supervisor stays transport-agnostic through [`WorkerSpawner`]:
//! spawning yields a [`WorkerHandle`] (send frames, kill) plus a stream
//! of [`WorkerEvent`]s (frames in, exit notices) on a shared channel.
//! [`ProcessSpawner`] backs it with real OS processes — its `kill` is a
//! genuine SIGKILL; [`ThreadSpawner`] backs it with threads — its
//! `kill` closes the pipes, which a live worker observes as EOF.

use crate::fault::{DiePoint, WorkerFault, FAULT_ENV};
use crate::protocol::{
    read_frame, write_frame, write_frame_raw, ExpResult, Frame, ProtocolError, PROTOCOL_VERSION,
};
use sparseloop_core::{EvalSession, JobPlan};
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

/// Compiles `spec` and evaluates this worker's shard of every search
/// experiment; fixed-mapping experiments are [`ExpResult::Skipped`]
/// (the parent evaluates them locally — no candidate stream to shard).
/// A compile error is a deterministic failure.
fn run_task(
    spec: &str,
    shard: usize,
    shards: usize,
) -> Result<(Vec<ExpResult>, TaskPhases), String> {
    let mut phases = TaskPhases::default();
    let compile_start = std::time::Instant::now();
    let scenario = sparseloop_spec::compile_str(spec)
        .map_err(|e| e.to_string())?
        .into_scenario();
    phases.compile_nanos = elapsed_nanos(compile_start);
    let session = EvalSession::new();
    let mut results = Vec::new();
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
/// `fault` injects at most one worker-side failure (see
/// [`WorkerFault`]); it is consumed by the first opportunity to fire.
/// Returning from this function *is* worker death for every transport:
/// the pipes drop, the parent reads EOF.
pub fn run_worker<R, W>(mut reader: R, writer: W, fault: Option<WorkerFault>)
where
    R: Read,
    W: Write + Send + 'static,
{
    let mut fault = fault;
    let writer = Arc::new(Mutex::new(writer));
    if matches!(fault, Some(WorkerFault::DieAt(DiePoint::Startup))) {
        return;
    }
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
    if matches!(fault, Some(WorkerFault::DieAt(DiePoint::AfterHello))) {
        return;
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
                    run_task(&spec, shard as usize, shards as usize)
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
                match fault.take() {
                    Some(WorkerFault::DieAt(DiePoint::BeforeResult)) => return,
                    Some(WorkerFault::StallBeforeResult) => {
                        // hold the result long past any heartbeat
                        // timeout, then die without sending it
                        for _ in 0..50 {
                            std::thread::sleep(Duration::from_millis(100));
                        }
                        return;
                    }
                    Some(WorkerFault::CorruptResult) => {
                        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                        if write_frame_raw(&mut *w, &reply, /* corrupt */ true).is_err() {
                            return;
                        }
                    }
                    Some(WorkerFault::DropResult) => {}
                    Some(WorkerFault::SlowFrames { delay_ms }) => {
                        // a deterministic straggler: the result is late,
                        // not lost — the heartbeater was woken and joined
                        // above, so the delay runs silent and must stay
                        // under the supervisor's heartbeat timeout
                        // (seeded plans keep it small)
                        std::thread::sleep(Duration::from_millis(delay_ms));
                        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                        if let Some(stats) = &stats_frame {
                            if write_frame(&mut *w, stats).is_err() {
                                return;
                            }
                        }
                        if write_frame(&mut *w, &reply).is_err() {
                            return;
                        }
                    }
                    _ => {
                        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                        // Phase timings ride immediately ahead of the
                        // result; a faulting worker (the arms above)
                        // never sends them, keeping fault frame
                        // schedules unchanged.
                        if let Some(stats) = &stats_frame {
                            if write_frame(&mut *w, stats).is_err() {
                                return;
                            }
                        }
                        if write_frame(&mut *w, &reply).is_err() {
                            return;
                        }
                    }
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
/// [`run_worker`] over stdin/stdout, with the worker-side fault (if
/// any) taken from the [`FAULT_ENV`] environment variable.
pub fn worker_main() {
    let fault = std::env::var(FAULT_ENV)
        .ok()
        .and_then(|v| WorkerFault::from_env(&v));
    run_worker(io::stdin(), io::stdout(), fault);
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
    /// Starts one worker for `slot` at `epoch`, injecting `fault`
    /// (worker-side faults only; parent-side faults are the
    /// supervisor's job). Frames and the eventual exit notice arrive on
    /// `events`.
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
fn forward_events<R: Read + Send + 'static>(
    mut reader: R,
    slot: u32,
    epoch: u64,
    events: mpsc::Sender<WorkerEvent>,
) {
    std::thread::spawn(move || {
        let mut greeted = false;
        loop {
            let kind = match read_frame(&mut reader) {
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
            };
            let done = matches!(kind, EventKind::Exited(_));
            if events.send(WorkerEvent { slot, epoch, kind }).is_err() || done {
                return;
            }
        }
    });
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
        std::thread::spawn(move || run_worker(commands_r, results_w, fault));
        forward_events(results_r, slot, epoch, events);
        Ok(Box::new(ThreadHandle {
            commands: commands_w,
            worker_output,
        }))
    }
}

/// Process-backed workers: spawns `program` with piped stdin/stdout
/// (the `sparseloop-shard-worker` binary), ships worker-side faults via
/// [`FAULT_ENV`], and delivers `kill` as a real signal.
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
        let mut cmd = std::process::Command::new(&self.program);
        cmd.stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null());
        // a worker with nothing scheduled must not inherit the parent's
        // fault: restarts come up clean
        match fault.and_then(WorkerFault::to_env) {
            Some(env) => cmd.env(FAULT_ENV, env),
            None => cmd.env_remove(FAULT_ENV),
        };
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        forward_events(stdout, slot, epoch, events);
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
        handle.send(&task(3, 0, BAD_SPEC)).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap().kind {
            EventKind::Frame(Frame::TaskFailed { id: 3, .. }) => {}
            other => panic!("expected deterministic failure, got {other:?}"),
        }
        handle.kill();
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

    /// Runs `forward_events` over `frames` written back to back and
    /// collects every event it sends until it hangs up.
    fn forwarded(frames: &[Frame]) -> Vec<EventKind> {
        let mut bytes = Vec::new();
        for f in frames {
            write_frame(&mut bytes, f).unwrap();
        }
        let (tx, rx) = mpsc::channel();
        forward_events(io::Cursor::new(bytes), 0, 1, tx);
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
        match forwarded(&[Frame::Hello { version: stale }, done.clone()]).as_slice() {
            [EventKind::Exited(Some(why))] => {
                assert!(
                    why.contains(&format!("v{stale}"))
                        && why.contains(&format!("v{PROTOCOL_VERSION}")),
                    "message must name both versions: {why}"
                );
            }
            other => panic!("expected one refusal, got {other:?}"),
        }
        match forwarded(std::slice::from_ref(&done)).as_slice() {
            [EventKind::Exited(Some(_))] => {}
            other => panic!("expected a refusal without Hello, got {other:?}"),
        }

        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
        };
        let stream = [hello, Frame::Heartbeat { id: 4, seq: 1 }, done];
        let kinds = forwarded(&stream);
        assert_eq!(kinds.len(), stream.len() + 1, "{kinds:?}");
        for (kind, sent) in kinds.iter().zip(&stream) {
            match kind {
                EventKind::Frame(got) => assert_eq!(got, sent),
                other => panic!("expected {sent:?}, got {other:?}"),
            }
        }
        assert!(matches!(kinds.last(), Some(EventKind::Exited(None))));
    }
}
