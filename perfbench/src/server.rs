//! Building, starting, observing and stopping the `vmplace serve`
//! process under test.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vmplace_net::Client;
use vmplace_obs::json::Json;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which
/// the kernel ABI fixes at 100 per second.
const TICKS_PER_SECOND: f64 = 100.0;
/// Longest wait for a starting server to report its address, or for a
/// stopping one to exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(20);

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Builds the release `vmplace` binary from the repository's sources and
/// returns its path (cargo reports it, wherever `CARGO_TARGET_DIR`
/// points).
pub fn build_vmplace(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--offline",
            "--release",
            "-p",
            "vmplace",
            "--bin",
            "vmplace",
            "--message-format=json-render-diagnostics",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building vmplace failed ({})", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|msg| {
            msg.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Json::as_str)
                == Some("vmplace")
        })
        .find_map(|msg| {
            msg.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no vmplace executable".to_string())
}

/// A running `vmplace serve` child process.
pub struct ServerProc {
    child: Child,
    /// Address the server listens on.
    pub addr: String,
    /// The I/O backend the server reported at start-up.
    pub io_backend: String,
    /// Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Drains the server's stderr until it exits.
    stderr: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `bin` with `args` and waits until it reports its listening
    /// address and its I/O backend.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let stderr = BufReader::new(child.stderr.take().expect("piped stderr"));

        // The banner names the backend (`… io Threads, wire ≤ v2) …`).
        let (banner_tx, banner_rx) = mpsc::channel();
        let stderr = std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                if let Some(rest) = line.split_once(", io ").map(|(_, r)| r) {
                    let backend = rest.split([',', ' ']).next().unwrap_or("").to_string();
                    let _ = banner_tx.send(backend);
                } else if !line.starts_with('#') {
                    eprintln!("server: {line}");
                }
            }
        });

        let mut proc = ServerProc {
            child,
            addr: String::new(),
            io_backend: String::new(),
            _stdout: stdout,
            stderr: Some(stderr),
        };
        let mut line = String::new();
        match proc._stdout.read_line(&mut line) {
            Ok(0) => return Err("server exited before listening".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("reading the server's banner: {e}")),
        }
        proc.addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string)
            .ok_or_else(|| format!("unexpected server banner `{}`", line.trim()))?;
        proc.io_backend = banner_rx
            .recv_timeout(PROCESS_TIMEOUT)
            .map_err(|_| "server never reported its I/O backend".to_string())?;
        Ok(proc)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time (user + system) the server has used so far.
    pub fn cpu_time(&self) -> Result<Duration, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name: state is field 3,
        // utime field 14 and stime field 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i - 3)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("{path}: no field {i}"))
        };
        Ok(Duration::from_secs_f64(
            (ticks(14)? + ticks(15)?) / TICKS_PER_SECOND,
        ))
    }

    /// Peak resident set size (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// Drains and stops the server through the wire `shutdown` verb and
    /// waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let drained = Client::connect_with(self.addr.as_str(), 2)
            .and_then(|c| c.shutdown_server())
            .map_err(|e| format!("shutdown: {e}"));
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
        drained.map(|_| ())
    }
}

impl Drop for ServerProc {
    /// A server not shut down cleanly (an error path) is killed, and the
    /// process and its stderr reader are always waited for.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}

/// One `stats` snapshot from a running server.
pub struct Stats(Json);

impl Stats {
    /// Fetches a snapshot over `client` (which must have nothing
    /// pending).
    pub fn fetch(client: &mut Client) -> Result<Stats, String> {
        let text = client.stats().map_err(|e| format!("stats: {e}"))?;
        Json::parse(&text)
            .map(Stats)
            .map_err(|e| format!("unparseable stats ({e})"))
    }

    /// Counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    /// Field `field` (e.g. `p50_us`) of histogram `name` (0 when absent).
    pub fn histogram(&self, name: &str, field: &str) -> f64 {
        self.0
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }
}
