//! The served system as a user runs it: `xmlprime save` then
//! `xmlprime serve` over a Unix socket, each in a process of its own.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use xp_server::Client;

/// How long a server may take to answer its first `Ping`.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// Paths shared by every server process of one run. The socket and store
/// are named relative to `run_dir`, which is the server's working
/// directory, so the socket path stays short wherever the checkout lives.
#[derive(Debug, Clone)]
pub struct Layout {
    /// The `xmlprime` executable.
    pub bin: PathBuf,
    /// The run's scratch directory.
    pub run_dir: PathBuf,
}

impl Layout {
    /// The socket path as the load generator reaches it.
    pub fn socket(&self) -> PathBuf {
        self.run_dir.join(SOCKET)
    }
}

const SOCKET: &str = "srv.sock";

/// A running `xmlprime serve`. Dropping it kills the process and waits for
/// it, so no error path leaves a server behind.
pub struct ServerProc {
    child: Child,
}

impl ServerProc {
    /// SIGKILLs the server and reaps it.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.reap();
    }
}

/// `xmlprime save <xml> --store <store> --uri <uri>`.
pub fn save(layout: &Layout, xml_file: &str, store: &str, uri: &str) -> Result<(), String> {
    let out = Command::new(&layout.bin)
        .args(["save", xml_file, "--store", store, "--uri", uri])
        .current_dir(&layout.run_dir)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("running {}: {e}", layout.bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "xmlprime save failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}

/// Starts `xmlprime serve --store <store> --unix <socket> <flags>` and
/// waits for its first `Ping` reply. Returns the process, a connected
/// client, and the time from spawn to that reply.
pub fn serve(
    layout: &Layout,
    store: &str,
    flags: &[&str],
) -> Result<(ServerProc, Client, Duration), String> {
    let socket = layout.socket();
    let _ = std::fs::remove_file(&socket);
    let start = Instant::now();
    let child = Command::new(&layout.bin)
        .args(["serve", "--store", store, "--unix", SOCKET])
        .args(flags)
        .current_dir(&layout.run_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("running {}: {e}", layout.bin.display()))?;
    let mut proc = ServerProc { child };
    let client = wait_ready(&mut proc, &socket)?;
    Ok((proc, client, start.elapsed()))
}

fn wait_ready(proc: &mut ServerProc, socket: &Path) -> Result<Client, String> {
    let deadline = Instant::now() + READY_TIMEOUT;
    loop {
        if let Ok(Some(status)) = proc.child.try_wait() {
            return Err(format!("xmlprime serve exited before serving: {status}"));
        }
        if let Ok(mut client) = Client::connect_unix(socket) {
            if client.ping().is_ok() {
                return Ok(client);
            }
        }
        if Instant::now() > deadline {
            return Err("xmlprime serve did not answer a ping in time".into());
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copies the regular files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_file() {
            std::fs::copy(&path, to.join(entry.file_name()))
                .map_err(|e| format!("copying {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// The filesystem type of `dir` (fsync cost differs on tmpfs), or
/// `unknown`.
pub fn fs_type(dir: &Path) -> String {
    Command::new("stat")
        .args(["-f", "-c", "%T"])
        .arg(dir)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
