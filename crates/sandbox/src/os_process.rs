//! Real OS-process workers and a pre-warmer: a standalone demonstration.
//!
//! The simulated provider reproduces the paper's latency *model*; this
//! module demonstrates the worker lifecycle and speculative pre-warming
//! against real operating-system processes, which is the "process"
//! isolation level of §4. It is used by the `os_process_demo` example and
//! by integration tests to show the orchestration concepts are not
//! simulation-only; the simulated platform does not run through it.
//!
//! A worker here is a child process that performs a tiny amount of real
//! startup work (allocating its stack/heap, executing a shell) and then
//! sleeps until a request is dispatched, mimicking a warm function runtime
//! waiting for work.

use std::io;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};

/// A real process-backed worker.
///
/// The process is spawned at construction (the cold start) and killed on
/// [`shutdown`](Self::shutdown) or drop.
#[derive(Debug)]
pub struct OsProcessWorker {
    child: Child,
    function: String,
    cold_start: Duration,
}

impl OsProcessWorker {
    /// Spawns a new worker process for `function`, measuring the real cold
    /// start (process creation + shell startup).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from process spawning.
    pub fn spawn(function: impl Into<String>) -> io::Result<Self> {
        let function = function.into();
        let started = Instant::now();
        // `sh -c 'read x'` starts a real shell and then blocks on stdin —
        // a minimal stand-in for a function runtime waiting for a request.
        let child = Command::new("sh")
            .arg("-c")
            .arg("read _line")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let cold_start = started.elapsed();
        Ok(OsProcessWorker {
            child,
            function,
            cold_start,
        })
    }

    /// The hosted function's name.
    pub fn function(&self) -> &str {
        &self.function
    }

    /// The measured real cold-start latency of this worker.
    pub fn cold_start(&self) -> Duration {
        self.cold_start
    }

    /// Whether the underlying process is still alive.
    pub fn is_alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Dispatches a "request": executes `work` on the caller thread while
    /// the worker process stands in for the runtime, then returns the
    /// simulated handler result. Returns the end-to-end latency.
    pub fn invoke<T>(&mut self, work: impl FnOnce() -> T) -> (T, Duration) {
        let started = Instant::now();
        let out = work();
        (out, started.elapsed())
    }

    /// Terminates the worker process, waiting for it to exit.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from killing or waiting on the process.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for OsProcessWorker {
    fn drop(&mut self) {
        // Best-effort teardown; destructors must not fail.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A tiny pre-warming pool of real process workers, demonstrating
/// speculative provisioning against a real substrate: workers are spawned
/// ahead of time on a background thread and handed out warm.
#[derive(Debug)]
pub struct OsProcessPrewarmer {
    rx: Receiver<io::Result<OsProcessWorker>>,
    _tx: SyncSender<io::Result<OsProcessWorker>>,
}

impl OsProcessPrewarmer {
    /// Starts pre-warming `count` workers for `function` in the background.
    pub fn start(function: &str, count: usize) -> Self {
        let (tx, rx) = sync_channel(count.max(1));
        let tx_bg = tx.clone();
        let function = function.to_string();
        std::thread::spawn(move || {
            for _ in 0..count {
                if tx_bg.send(OsProcessWorker::spawn(&function)).is_err() {
                    break;
                }
            }
        });
        OsProcessPrewarmer { rx, _tx: tx }
    }

    /// Takes the next pre-warmed worker, blocking up to `timeout`.
    ///
    /// Returns `None` on timeout, or the spawn error if pre-warming failed.
    pub fn take(&self, timeout: Duration) -> Option<io::Result<OsProcessWorker>> {
        self.rx.recv_timeout(timeout).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_measures_real_cold_start() {
        let mut w = OsProcessWorker::spawn("f").expect("spawn");
        assert!(w.cold_start() > Duration::ZERO);
        assert!(w.is_alive());
        assert_eq!(w.function(), "f");
        w.shutdown().expect("shutdown");
    }

    #[test]
    fn invoke_returns_result_and_latency() {
        let mut w = OsProcessWorker::spawn("adder").expect("spawn");
        let ((), d) = w.invoke(|| std::thread::sleep(Duration::from_millis(5)));
        assert!(d >= Duration::from_millis(5));
        let (sum, _) = w.invoke(|| 2 + 3);
        assert_eq!(sum, 5);
    }

    #[test]
    fn shutdown_kills_process() {
        let w = OsProcessWorker::spawn("f").expect("spawn");
        w.shutdown().expect("shutdown");
    }

    #[test]
    fn drop_is_clean() {
        {
            let _w = OsProcessWorker::spawn("f").expect("spawn");
        } // dropped here; must not panic or leak zombies visibly
    }

    #[test]
    fn prewarmer_hands_out_warm_workers() {
        let pre = OsProcessPrewarmer::start("hot", 2);
        let w1 = pre
            .take(Duration::from_secs(5))
            .expect("first worker in time")
            .expect("spawn ok");
        let w2 = pre
            .take(Duration::from_secs(5))
            .expect("second worker in time")
            .expect("spawn ok");
        assert_eq!(w1.function(), "hot");
        assert_eq!(w2.function(), "hot");
        // Third take must time out — only two were requested.
        assert!(pre.take(Duration::from_millis(100)).is_none());
        w1.shutdown().unwrap();
        w2.shutdown().unwrap();
    }
}
