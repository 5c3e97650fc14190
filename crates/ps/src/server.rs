//! The shard-server side of the socket backend, plus the process manager
//! that spawns one server per shard.
//!
//! A shard server (`hetkg ps-server`) is handed a [`ShardServerConfig`]
//! and rebuilds the *same* deterministic [`KvStore`] the trainer builds —
//! same router, same init, same seed — then serves its shard's keys over
//! length-prefixed [`WireFrame`] messages ([`hetkg_netsim::stream`]).
//! Because initialization is placement-independent and the interleaved
//! trainer issues every request in a deterministic order, the server's
//! shard state stays bitwise-equal to the trainer's in-process mirror; the
//! differential test in `tests/transport.rs` holds both to that.
//!
//! The accept loop is sequential (one connection at a time): the driving
//! trainer is single-process and workers take turns, so a second
//! concurrent client would only mask bugs. A disconnected client is not an
//! error — the server goes back to `accept` — which is what makes the
//! transport's drop-and-redial retry loop work. Only [`OP_SHUTDOWN`]
//! (or a fatal protocol violation on `accept`) ends the process.

use crate::kvstore::KvStore;
use crate::optimizer::OptimizerKind;
use crate::router::ShardRouter;
use crate::transport::{
    answer_newer, ServerAddr, OP_ACK, OP_PULL, OP_PULL_NEWER, OP_PUSH, OP_SHUTDOWN, OP_WRITE,
};
use hetkg_embed::init::Init;
use hetkg_kgraph::{KeySpace, ParamKey};
use hetkg_netsim::compress::{decode_row, encoded_len};
use hetkg_netsim::stream::{self, StreamMessage};
use hetkg_netsim::{Codec, WireFrame};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The handshake line a shard server prints on stdout once it is bound
/// and accepting, followed by the actual listen spec (ports resolve
/// `:0` to the kernel-assigned port).
pub const READY_PREFIX: &str = "HETKG-PS-READY ";

/// Everything a shard-server process needs to rebuild the trainer's store
/// bit-for-bit: the key space, the entity→shard assignment, table shapes,
/// the init scheme + seed, and the optimizer (for server-side updates and
/// the state width).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardServerConfig {
    /// Entity count of the key space.
    pub num_entities: usize,
    /// Relation count of the key space.
    pub num_relations: usize,
    /// Shard of each entity (relations are replicated everywhere by the
    /// router, same as in-process).
    pub entity_shard: Vec<u32>,
    /// Total number of shards in the cluster.
    pub num_shards: usize,
    /// Entity embedding width.
    pub entity_dim: usize,
    /// Relation embedding width.
    pub relation_dim: usize,
    /// Initialization scheme (deterministic in `seed`).
    pub init: Init,
    /// Init seed — must equal the trainer's.
    pub seed: u64,
    /// Server-side optimizer applied at push time.
    pub optimizer: OptimizerKind,
}

impl ShardServerConfig {
    /// Rebuild the full store exactly as the trainer does. Each server
    /// holds the whole (deterministically initialized) table but only ever
    /// reads or writes its own shard's keys.
    pub fn build_store(&self) -> KvStore {
        let ks = KeySpace::new(self.num_entities, self.num_relations);
        let router = ShardRouter::new(ks, self.num_shards, &self.entity_shard);
        let state_width = self.optimizer.build().state_width();
        KvStore::new(
            router,
            self.entity_dim,
            self.relation_dim,
            state_width,
            self.init,
            self.seed,
        )
    }

    /// Total key count — the guard against out-of-range wire keys.
    fn num_keys(&self) -> u64 {
        (self.num_entities + self.num_relations) as u64
    }
}

/// A bound listener for one shard server.
pub enum ShardListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    #[cfg(unix)]
    Uds(UnixListener),
}

impl ShardListener {
    /// Bind per the `tcp:HOST:PORT` / `uds:PATH` spec. TCP port `0` binds
    /// an ephemeral port; [`Self::local_spec`] reports the real one.
    pub fn bind(spec: &str) -> io::Result<Self> {
        match ServerAddr::parse(spec).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))? {
            ServerAddr::Tcp(addr) => Ok(ShardListener::Tcp(TcpListener::bind(addr)?)),
            #[cfg(unix)]
            ServerAddr::Uds(path) => {
                // A stale socket file from a dead process blocks bind.
                let _ = std::fs::remove_file(&path);
                Ok(ShardListener::Uds(UnixListener::bind(path)?))
            }
            #[cfg(not(unix))]
            ServerAddr::Uds(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            )),
        }
    }

    /// The spec clients should dial (ephemeral TCP ports resolved).
    pub fn local_spec(&self) -> io::Result<String> {
        match self {
            ShardListener::Tcp(l) => Ok(format!("tcp:{}", l.local_addr()?)),
            #[cfg(unix)]
            ShardListener::Uds(l) => {
                let addr = l.local_addr()?;
                let path = addr.as_pathname().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "unnamed unix socket")
                })?;
                Ok(format!("uds:{}", path.display()))
            }
        }
    }

    fn accept(&self) -> io::Result<ServerStream> {
        match self {
            ShardListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(ServerStream::Tcp(s))
            }
            #[cfg(unix)]
            ShardListener::Uds(l) => {
                let (s, _) = l.accept()?;
                Ok(ServerStream::Uds(s))
            }
        }
    }
}

enum ServerStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Read for ServerStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ServerStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ServerStream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for ServerStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ServerStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            ServerStream::Uds(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            ServerStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            ServerStream::Uds(s) => s.flush(),
        }
    }
}

/// Serve `shard` on `listener` until an [`OP_SHUTDOWN`] arrives.
///
/// Call after printing the [`READY_PREFIX`] handshake. Connections are
/// served one at a time; a peer disconnect (clean or torn) sends the loop
/// back to `accept`, a protocol violation closes the offending connection
/// with a note on stderr.
pub fn serve(config: &ShardServerConfig, shard: usize, listener: &ShardListener) -> io::Result<()> {
    assert!(shard < config.num_shards, "shard id out of range");
    let store = config.build_store();
    let optimizer = config.optimizer.build();
    let mut row = Vec::new();
    loop {
        let conn = listener.accept()?;
        let mut conn = BufWriter::new(BufReaderStream::new(conn));
        loop {
            let msg = match stream::read_message_or_eof(conn.get_mut()) {
                Ok(Some(m)) => m,
                Ok(None) => break, // clean disconnect → next accept
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break, // torn → ditto
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    eprintln!("ps-server shard {shard}: bad frame: {e}");
                    break;
                }
                Err(e) => return Err(e),
            };
            match handle(
                config,
                shard,
                &store,
                optimizer.as_ref(),
                &mut row,
                &mut conn,
                msg,
            ) {
                Ok(Served::Continue) => {}
                Ok(Served::Shutdown) => return Ok(()),
                Err(e) => {
                    eprintln!("ps-server shard {shard}: dropping connection: {e}");
                    break;
                }
            }
        }
    }
}

enum Served {
    Continue,
    Shutdown,
}

fn handle<W: Write>(
    config: &ShardServerConfig,
    shard: usize,
    store: &KvStore,
    optimizer: &dyn crate::optimizer::Optimizer,
    row: &mut Vec<f32>,
    conn: &mut W,
    msg: StreamMessage,
) -> io::Result<Served> {
    let StreamMessage { op, mut frame } = msg;
    if op == OP_SHUTDOWN {
        write_ack(conn)?;
        return Ok(Served::Shutdown);
    }
    // Every data op must verify end-to-end and address only this shard.
    if !frame.verify() {
        return Err(protocol("frame failed checksum"));
    }
    // Versions belong to pull-if-newer requests — at most one per key, a
    // request's trailing keys — and to nothing else.
    let versions_allowed = if op == OP_PULL_NEWER {
        frame.keys.len()
    } else {
        0
    };
    if frame.versions.len() > versions_allowed {
        return Err(protocol(
            "versions on an op that takes none, or more than keys",
        ));
    }
    for &k in &frame.keys {
        if k >= config.num_keys() {
            return Err(protocol("key outside the key space"));
        }
        if store.router().shard_of(ParamKey(k)) != shard {
            return Err(protocol("key routed to another shard"));
        }
    }
    match op {
        OP_PULL => {
            // Response: echo the keys, rows concatenated in request order,
            // sealed fresh so the client can verify the reply leg.
            let mut payload = Vec::new();
            for &k in &frame.keys {
                let key = ParamKey(k);
                let width = store.row_bytes(key) as usize / 4;
                let off = payload.len();
                payload.resize(off + width, 0.0);
                store.pull(key, &mut payload[off..off + width]);
            }
            let resp = WireFrame::seal(frame.keys, payload);
            stream::write_frame(conn, OP_PULL, &resp)
        }
        OP_PULL_NEWER => {
            if frame.codec() != Codec::Dense || !frame.payload.is_empty() {
                return Err(protocol("a pull-if-newer request carries no rows"));
            }
            answer_newer(store, &mut frame);
            stream::write_frame(conn, OP_PULL_NEWER, &frame)
        }
        OP_PUSH | OP_WRITE => {
            apply_frame(store, optimizer, row, &frame, op == OP_PUSH)?;
            write_ack(conn)
        }
        _ => Err(protocol("unknown op")),
    }?;
    Ok(Served::Continue)
}

/// Apply a push (through the optimizer) or write (raw store) frame, row by
/// row in frame order — the same order the client's mirror applies them,
/// so both sides stay bitwise-equal. Compressed frames are walked by
/// `encoded_len` exactly like the client's decode-and-commit: row
/// boundaries are a pure function of codec and row width, never trusted
/// from the wire.
fn apply_frame(
    store: &KvStore,
    optimizer: &dyn crate::optimizer::Optimizer,
    row: &mut Vec<f32>,
    frame: &WireFrame,
    is_push: bool,
) -> io::Result<()> {
    if frame.codec() == Codec::Dense {
        let mut off = 0;
        for &k in &frame.keys {
            let key = ParamKey(k);
            let width = store.row_bytes(key) as usize / 4;
            let slice = frame
                .payload
                .get(off..off + width)
                .ok_or_else(|| protocol("payload shorter than its keys' rows"))?;
            if is_push {
                store.push_grad(key, slice, optimizer);
            } else {
                store.store(key, slice);
            }
            off += width;
        }
        if off != frame.payload.len() {
            return Err(protocol("payload longer than its keys' rows"));
        }
    } else {
        if !is_push {
            return Err(protocol("compressed frames are push-only"));
        }
        let codec = frame.codec();
        let mut off = 0;
        for &k in &frame.keys {
            let key = ParamKey(k);
            let width = store.row_bytes(key) as usize / 4;
            let len = encoded_len(codec, width);
            let bytes = frame
                .encoded
                .get(off..off + len)
                .ok_or_else(|| protocol("encoded bytes shorter than its keys' rows"))?;
            row.clear();
            row.resize(width, 0.0);
            decode_row(codec, bytes, row);
            store.push_grad(key, row, optimizer);
            off += len;
        }
        if off != frame.encoded.len() {
            return Err(protocol("encoded bytes longer than its keys' rows"));
        }
    }
    Ok(())
}

fn write_ack<W: Write>(conn: &mut W) -> io::Result<()> {
    let ack = WireFrame::seal(Vec::new(), Vec::new());
    stream::write_frame(conn, OP_ACK, &ack)
}

fn protocol(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// `BufWriter<T>` needs `T: Write`; we also read from the same stream.
/// This thin wrapper buffers reads while passing writes straight through,
/// so one object can sit inside the `BufWriter`.
struct BufReaderStream {
    inner: BufReader<ServerStream>,
}

impl BufReaderStream {
    fn new(s: ServerStream) -> Self {
        Self {
            inner: BufReader::new(s),
        }
    }
}

impl Read for BufReaderStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for BufReaderStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.get_mut().write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.get_mut().flush()
    }
}

/// Monotonic suffix so concurrent clusters in one process never collide on
/// a scratch directory.
static CLUSTER_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Socket family for a spawned cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketMode {
    /// Loopback TCP with kernel-assigned ports.
    Tcp,
    /// Unix-domain sockets in the cluster's scratch directory.
    Uds,
}

/// Spawns and owns one `hetkg ps-server` process per shard.
///
/// Lifecycle: [`spawn`](Self::spawn) writes the shared config JSON into a
/// scratch directory, launches every server, and blocks until each prints
/// its [`READY_PREFIX`] line. [`transport`](Self::transport) then builds
/// the [`ProcessTransport`](crate::transport::ProcessTransport) dialing
/// them. Shut down with `transport.send_shutdown()` followed by
/// [`wait`](Self::wait); dropping the cluster kills any still-running
/// children so a panicking test cannot leak processes.
#[derive(Debug)]
pub struct ProcessCluster {
    children: Vec<Child>,
    addrs: Vec<ServerAddr>,
    dir: PathBuf,
    waited: bool,
}

impl ProcessCluster {
    /// Spawn `config.num_shards` servers using the `hetkg` binary at
    /// `bin` (the trainer passes the running executable; tests pass
    /// `env!("CARGO_BIN_EXE_hetkg")`).
    pub fn spawn(bin: &Path, config: &ShardServerConfig, mode: SocketMode) -> io::Result<Self> {
        let dir = std::env::temp_dir().join(format!(
            "hetkg-ps-{}-{}",
            std::process::id(),
            CLUSTER_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let config_path = dir.join("shard-config.json");
        let json = serde_json::to_string(config)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(&config_path, json)?;

        let mut cluster = Self {
            children: Vec::with_capacity(config.num_shards),
            addrs: Vec::with_capacity(config.num_shards),
            dir,
            waited: false,
        };
        for shard in 0..config.num_shards {
            let listen = match mode {
                SocketMode::Tcp => "tcp:127.0.0.1:0".to_string(),
                SocketMode::Uds => format!(
                    "uds:{}",
                    cluster.dir.join(format!("shard-{shard}.sock")).display()
                ),
            };
            let mut child = Command::new(bin)
                .arg("ps-server")
                .arg("--config")
                .arg(&config_path)
                .arg("--shard")
                .arg(shard.to_string())
                .arg("--listen")
                .arg(&listen)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()?;
            let stdout = child.stdout.take().expect("stdout was piped");
            cluster.children.push(child);
            let mut lines = BufReader::new(stdout);
            let mut line = String::new();
            let addr = loop {
                line.clear();
                if lines.read_line(&mut line)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("ps-server shard {shard} exited before READY"),
                    ));
                }
                if let Some(spec) = line.trim_end().strip_prefix(READY_PREFIX) {
                    break ServerAddr::parse(spec)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                }
            };
            cluster.addrs.push(addr);
            // Keep draining stdout so later server prints can't fill the
            // pipe (or hit EPIPE) for the process's whole lifetime.
            std::thread::spawn(move || {
                let _ = io::copy(&mut lines, &mut io::sink());
            });
        }
        Ok(cluster)
    }

    /// The shard servers' dial addresses (index = shard id).
    pub fn addrs(&self) -> &[ServerAddr] {
        &self.addrs
    }

    /// A transport dialing this cluster, with timeouts suited to local
    /// sockets.
    pub fn transport(&self) -> crate::transport::ProcessTransport {
        crate::transport::ProcessTransport::new(self.addrs.clone())
            .with_timeouts(Duration::from_secs(5), Duration::from_secs(30))
    }

    /// Reap every server after an orderly
    /// [`send_shutdown`](crate::transport::ProcessTransport::send_shutdown).
    /// Any child that did not exit cleanly is killed; the first failure is
    /// reported after all children are reaped.
    pub fn wait(&mut self) -> io::Result<()> {
        self.waited = true;
        let mut first_err = None;
        for child in &mut self.children {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    first_err.get_or_insert_with(|| {
                        io::Error::other(format!("ps-server exited with {status}"))
                    });
                }
                Err(e) => {
                    let _ = child.kill();
                    first_err.get_or_insert(e);
                }
            }
        }
        self.cleanup_dir();
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Kill every server immediately (the torn-connection test uses this
    /// to sever live streams mid-run).
    pub fn kill_all(&mut self) {
        self.waited = true;
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.cleanup_dir();
    }

    fn cleanup_dir(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for ProcessCluster {
    fn drop(&mut self) {
        if !self.waited {
            self.kill_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ShardServerConfig {
        ShardServerConfig {
            num_entities: 8,
            num_relations: 4,
            entity_shard: (0..8u32).map(|e| e % 2).collect(),
            num_shards: 2,
            entity_dim: 4,
            relation_dim: 4,
            init: Init::Uniform { bound: 0.1 },
            seed: 7,
            optimizer: OptimizerKind::Sgd { lr: 0.1 },
        }
    }

    #[test]
    fn config_round_trips_as_json() {
        let cfg = tiny_config();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ShardServerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_entities, cfg.num_entities);
        assert_eq!(back.entity_shard, cfg.entity_shard);
        assert_eq!(back.init, cfg.init);
        assert_eq!(back.optimizer, cfg.optimizer);
    }

    #[test]
    fn rebuilt_store_matches_an_identically_seeded_one() {
        let cfg = tiny_config();
        let a = cfg.build_store();
        let b = cfg.build_store();
        let mut row_a = [0.0f32; 4];
        let mut row_b = [0.0f32; 4];
        for k in 0..12u64 {
            a.pull(ParamKey(k), &mut row_a);
            b.pull(ParamKey(k), &mut row_b);
            assert_eq!(row_a.map(f32::to_bits), row_b.map(f32::to_bits));
        }
    }

    #[test]
    fn listener_reports_resolved_tcp_port() {
        let l = ShardListener::bind("tcp:127.0.0.1:0").unwrap();
        let spec = l.local_spec().unwrap();
        assert!(spec.starts_with("tcp:127.0.0.1:"));
        assert!(!spec.ends_with(":0"), "ephemeral port must be resolved");
    }

    #[cfg(unix)]
    #[test]
    fn listener_binds_uds_and_reclaims_stale_socket() {
        let path = std::env::temp_dir().join(format!("hetkg-test-{}.sock", std::process::id()));
        let spec = format!("uds:{}", path.display());
        let a = ShardListener::bind(&spec).unwrap();
        assert_eq!(a.local_spec().unwrap(), spec);
        drop(a);
        // The socket file lingers; a rebind must reclaim it.
        let b = ShardListener::bind(&spec).unwrap();
        assert_eq!(b.local_spec().unwrap(), spec);
        drop(b);
        let _ = std::fs::remove_file(&path);
    }

    /// End-to-end over a real socket, in-process: serve one shard on a
    /// thread, drive pull/push/shutdown through a `ProcessTransport`-style
    /// message exchange, and check the server's rows against a mirror
    /// store receiving the same operations.
    #[test]
    fn serve_loop_answers_pull_push_write_shutdown() {
        let mut cfg = tiny_config();
        cfg.num_shards = 1;
        cfg.entity_shard = vec![0; 8];
        let listener = ShardListener::bind("tcp:127.0.0.1:0").unwrap();
        let spec = listener.local_spec().unwrap();
        let server_cfg = cfg.clone();
        let handle = std::thread::spawn(move || serve(&server_cfg, 0, &listener));

        let mirror = cfg.build_store();
        let initial_version_of_3 = mirror.version(ParamKey(3));
        let optimizer = cfg.optimizer.build();
        let addr = spec.strip_prefix("tcp:").unwrap();
        let mut sock = TcpStream::connect(addr).unwrap();

        // Pull key 3: must equal the mirror's row bitwise.
        let keys = vec![3u64];
        let digest = hetkg_netsim::frame::frame_digest(&keys, &[]);
        stream::write_message(
            &mut sock,
            OP_PULL,
            &keys,
            &[],
            &[],
            &[],
            Codec::Dense,
            digest,
        )
        .unwrap();
        let msg = stream::read_message(&mut sock).unwrap();
        assert_eq!(msg.op, OP_PULL);
        assert!(msg.frame.verify());
        let mut expect = [0.0f32; 4];
        mirror.pull(ParamKey(3), &mut expect);
        assert_eq!(msg.frame.payload, expect);

        // Push a gradient to key 3 on both sides; re-pull must agree.
        let grad = [0.5f32, -0.25, 0.125, 1.0];
        let push = WireFrame::seal(vec![3], grad.to_vec());
        stream::write_frame(&mut sock, OP_PUSH, &push).unwrap();
        let ack = stream::read_message(&mut sock).unwrap();
        assert_eq!(ack.op, OP_ACK);
        mirror.push_grad(ParamKey(3), &grad, optimizer.as_ref());
        stream::write_message(
            &mut sock,
            OP_PULL,
            &keys,
            &[],
            &[],
            &[],
            Codec::Dense,
            digest,
        )
        .unwrap();
        let msg = stream::read_message(&mut sock).unwrap();
        mirror.pull(ParamKey(3), &mut expect);
        assert_eq!(
            msg.frame.payload, expect,
            "server optimizer == mirror optimizer"
        );

        // Pull-if-newer: key 3 is held from before the push above, key 5
        // was never written.
        let request = WireFrame::seal_versioned(
            vec![3, 5],
            vec![initial_version_of_3, mirror.version(ParamKey(5))],
            Vec::new(),
        );
        stream::write_frame(&mut sock, OP_PULL_NEWER, &request).unwrap();
        let msg = stream::read_message(&mut sock).unwrap();
        assert_eq!(msg.op, OP_PULL_NEWER);
        assert!(msg.frame.verify());
        assert_eq!(msg.frame.keys, [3], "only the row whose version differs");
        assert_eq!(msg.frame.versions, [mirror.version(ParamKey(3))]);
        mirror.pull(ParamKey(3), &mut expect);
        assert_eq!(msg.frame.payload, expect);
        // Asking with what came back returns an empty, sealed frame.
        let request = WireFrame::seal_versioned(vec![3], msg.frame.versions.clone(), Vec::new());
        stream::write_frame(&mut sock, OP_PULL_NEWER, &request).unwrap();
        let msg = stream::read_message(&mut sock).unwrap();
        assert!(msg.frame.keys.is_empty() && msg.frame.verify());

        // Orderly shutdown ends the serve loop.
        stream::write_message(&mut sock, OP_SHUTDOWN, &[], &[], &[], &[], Codec::Dense, 0).unwrap();
        let ack = stream::read_message(&mut sock).unwrap();
        assert_eq!(ack.op, OP_ACK);
        handle.join().unwrap().unwrap();
    }

    /// Keys that route to another shard are a protocol violation: the
    /// server closes the connection rather than serving foreign state.
    #[test]
    fn foreign_shard_key_drops_the_connection() {
        let cfg = tiny_config(); // 2 shards, entities alternate
        let listener = ShardListener::bind("tcp:127.0.0.1:0").unwrap();
        let spec = listener.local_spec().unwrap();
        let server_cfg = cfg.clone();
        let handle = std::thread::spawn(move || {
            // Serve shard 0; the test then shuts it down over a second
            // connection.
            serve(&server_cfg, 0, &listener)
        });
        let addr = spec.strip_prefix("tcp:").unwrap().to_string();
        let mut sock = TcpStream::connect(&addr).unwrap();
        let keys = vec![1u64]; // entity 1 lives on shard 1
        let digest = hetkg_netsim::frame::frame_digest(&keys, &[]);
        stream::write_message(
            &mut sock,
            OP_PULL,
            &keys,
            &[],
            &[],
            &[],
            Codec::Dense,
            digest,
        )
        .unwrap();
        // Server closes without answering.
        assert!(stream::read_message(&mut sock).is_err());
        drop(sock);
        let mut sock = TcpStream::connect(&addr).unwrap();
        stream::write_message(&mut sock, OP_SHUTDOWN, &[], &[], &[], &[], Codec::Dense, 0).unwrap();
        let _ = stream::read_message(&mut sock);
        handle.join().unwrap().unwrap();
    }

    /// Run one request's bytes through the stream decoder and the shard-0
    /// handler of a two-shard store, as `serve` does; returns the bytes the
    /// handler wrote back.
    fn feed(cfg: &ShardServerConfig, store: &KvStore, bytes: &[u8]) -> io::Result<Vec<u8>> {
        let msg = stream::read_message(&mut io::Cursor::new(bytes))?;
        let optimizer = cfg.optimizer.build();
        let mut reply = Vec::new();
        handle(
            cfg,
            0,
            store,
            optimizer.as_ref(),
            &mut Vec::new(),
            &mut reply,
            msg,
        )?;
        Ok(reply)
    }

    fn request_bytes(op: u8, frame: &WireFrame) -> Vec<u8> {
        let mut bytes = Vec::new();
        stream::write_frame(&mut bytes, op, frame).unwrap();
        bytes
    }

    mod fuzz {
        use super::*;
        use crate::kvstore::NO_VERSION;
        use proptest::prelude::*;

        /// Distinct keys of `tiny_config`'s shard 0: the even entities and
        /// the even relations (keys 8 and 10).
        fn shard0_keys(picks: &[u8]) -> Vec<u64> {
            let mut keys: Vec<u64> = picks.iter().map(|p| u64::from(p % 6) * 2).collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Whatever arrives, the handler answers or refuses; it never
            /// panics (an out-of-range key, a foreign shard's key, a payload
            /// that does not match its keys, versions where none belong).
            #[test]
            fn arbitrary_bytes_never_panic_the_handler(
                bytes in prop::collection::vec(any::<u8>(), 0..200),
            ) {
                let cfg = tiny_config();
                let _ = feed(&cfg, &cfg.build_store(), &bytes);
            }

            /// Sealed, well-framed messages with arbitrary contents — the
            /// ones that get past the checksum — are still only data.
            #[test]
            fn sealed_frames_with_arbitrary_contents_never_panic_the_handler(
                op in 0u8..7,
                keys in prop::collection::vec(0u64..16, 0..6),
                versions in prop::collection::vec(any::<u32>(), 0..6),
                words in prop::collection::vec(any::<u32>(), 0..24),
            ) {
                // Every op byte but shutdown's (4), which acknowledges
                // whatever frame it rides on.
                let op = if op >= OP_SHUTDOWN { op + 1 } else { op };
                let cfg = tiny_config();
                let store = cfg.build_store();
                let payload = words.iter().map(|&w| f32::from_bits(w)).collect();
                // Built directly: the stream decoder is not the only thing
                // standing between the handler and a bad version count.
                let msg = StreamMessage {
                    op,
                    frame: WireFrame::seal_versioned(keys.clone(), versions.clone(), payload),
                };
                let mut reply = Vec::new();
                let optimizer = cfg.optimizer.build();
                let out = handle(&cfg, 0, &store, optimizer.as_ref(), &mut Vec::new(), &mut reply, msg);
                if op == OP_PULL_NEWER && versions.len() > keys.len() {
                    prop_assert!(out.is_err(), "more versions than keys were served");
                }
                if op != OP_PULL_NEWER && !versions.is_empty() {
                    prop_assert!(out.is_err(), "versions were accepted on op {op}");
                }
            }

            /// A valid pull-if-newer request round-trips: the reply decodes,
            /// verifies and is a well-formed answer; one flipped bit anywhere
            /// in the request is refused or changes nothing the seal covers.
            #[test]
            fn valid_requests_round_trip_and_mutated_ones_are_refused(
                picks in prop::collection::vec(any::<u8>(), 1..8),
                plain in 0usize..8,
                hold in prop::collection::vec(any::<bool>(), 8),
                pushed in prop::collection::vec(any::<u8>(), 0..4),
                at in any::<usize>(),
                bit in 0u8..8,
            ) {
                let cfg = tiny_config();
                let store = cfg.build_store();
                let optimizer = cfg.optimizer.build();
                let keys = shard0_keys(&picks);
                // The first `plain` keys are pulled unconditionally.
                let plain = plain % (keys.len() + 1);
                let held: Vec<u32> = keys[plain..]
                    .iter()
                    .zip(&hold)
                    .map(|(&k, &h)| if h { store.version(ParamKey(k)) } else { NO_VERSION })
                    .collect();
                for k in shard0_keys(&pushed) {
                    store.push_grad(ParamKey(k), &[0.5; 4], optimizer.as_ref());
                }
                let request = WireFrame::seal_versioned(keys.clone(), held.clone(), Vec::new());
                let bytes = request_bytes(OP_PULL_NEWER, &request);
                let reply = feed(&cfg, &store, &bytes).unwrap();
                let msg = stream::read_message(&mut io::Cursor::new(&reply)).unwrap();
                prop_assert_eq!(msg.op, OP_PULL_NEWER);
                prop_assert!(msg.frame.verify());
                let expect: Vec<u64> = keys[plain..]
                    .iter()
                    .zip(&held)
                    .filter(|&(&k, &h)| store.version(ParamKey(k)) != h)
                    .map(|(&k, _)| k)
                    .collect();
                prop_assert_eq!(&msg.frame.keys, &expect);
                prop_assert_eq!(msg.frame.versions.len(), expect.len());
                prop_assert_eq!(msg.frame.payload.len(), (plain + expect.len()) * 4);

                let mut bad = bytes.clone();
                let at = at % bad.len();
                bad[at] ^= 1 << bit;
                // The op byte (offset 4) is not under the seal; every other
                // flip must be refused by the decoder or the checksum.
                if at != 4 {
                    prop_assert!(feed(&cfg, &store, &bad).is_err(), "flip at {at} was served");
                }
            }
        }
    }
}
