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
    answer_read, apply_frame, ProcessTransport, RowWidths, ServerAddr, OP_ACK, OP_PULL_NEWER,
    OP_PUSH, OP_SHUTDOWN, OP_WRITE,
};
use hetkg_embed::init::Init;
use hetkg_kgraph::{KeySpace, ParamKey};
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
    // A trailer belongs to a read (the versions held) or a push (the
    // energies of rows written back) — at most one word per key, the
    // frame's trailing keys — and to nothing else.
    let trailer_allowed = if matches!(op, OP_PULL_NEWER | OP_PUSH) {
        frame.keys.len()
    } else {
        0
    };
    if frame.versions.len() > trailer_allowed {
        return Err(protocol(
            "a trailer on an op that takes none, or longer than the keys",
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
        OP_PULL_NEWER => {
            if frame.codec() != Codec::Dense || !frame.payload.is_empty() {
                return Err(protocol("a read request carries no rows"));
            }
            answer_read(store, shard, &mut frame);
            stream::write_frame(conn, OP_PULL_NEWER, &frame)
        }
        OP_PUSH | OP_WRITE => {
            let places = frame.keys.iter().map(|&k| store.place(ParamKey(k)));
            let optimizer = (op == OP_PUSH).then_some(optimizer);
            apply_frame(store, shard, &frame, places, optimizer, row).map_err(protocol)?;
            write_ack(conn)
        }
        _ => Err(protocol("unknown op")),
    }?;
    Ok(Served::Continue)
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
/// the [`ProcessTransport`] dialing them. Shut down with
/// `transport.send_shutdown()` followed by [`wait`](Self::wait); dropping the
/// cluster kills any still-running children so a panicking test cannot leak
/// processes.
#[derive(Debug)]
pub struct ProcessCluster {
    children: Vec<Child>,
    addrs: Vec<ServerAddr>,
    /// Row widths of the servers' tables.
    widths: RowWidths,
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
            widths: RowWidths {
                num_entities: config.num_entities as u64,
                entity_dim: config.entity_dim,
                relation_dim: config.relation_dim,
            },
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

    /// A transport dialing this cluster.
    pub fn transport(&self) -> ProcessTransport {
        ProcessTransport::new(self.addrs.clone(), self.widths)
    }

    /// Reap every server after an orderly
    /// [`send_shutdown`](ProcessTransport::send_shutdown).
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
    use hetkg_netsim::compress::encode_row;

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

        // Pull key 3 with nothing held: must equal the mirror's row bitwise.
        let plain_pull = WireFrame::seal(vec![3], Vec::new());
        stream::write_frame(&mut sock, OP_PULL_NEWER, &plain_pull).unwrap();
        let msg = stream::read_message(&mut sock).unwrap();
        assert_eq!(msg.op, OP_PULL_NEWER);
        assert!(msg.frame.verify());
        assert!(msg.frame.keys.is_empty(), "plain rows are not named");
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
        stream::write_frame(&mut sock, OP_PULL_NEWER, &plain_pull).unwrap();
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
        let plain_pull = WireFrame::seal(vec![1], Vec::new()); // entity 1 lives on shard 1
        stream::write_frame(&mut sock, OP_PULL_NEWER, &plain_pull).unwrap();
        // Server closes without answering.
        assert!(stream::read_message(&mut sock).is_err());
        drop(sock);
        let mut sock = TcpStream::connect(&addr).unwrap();
        stream::write_message(&mut sock, OP_SHUTDOWN, &[], &[], &[], &[], Codec::Dense, 0).unwrap();
        let _ = stream::read_message(&mut sock);
        handle.join().unwrap().unwrap();
    }

    /// Run one request's bytes through the stream decoder and `shard`'s
    /// handler, as `serve` does; returns the bytes the handler wrote back.
    fn feed(
        cfg: &ShardServerConfig,
        shard: usize,
        store: &KvStore,
        bytes: &[u8],
    ) -> io::Result<Vec<u8>> {
        let msg = stream::read_message(&mut io::Cursor::new(bytes))?;
        let optimizer = cfg.optimizer.build();
        let mut reply = Vec::new();
        handle(
            cfg,
            shard,
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

    /// `tiny_config` with AdaGrad, so a push moves optimizer state too, and
    /// TransR-shaped rows (a relation row is wider than an entity row), so
    /// one frame mixes two widths.
    fn two_width_config() -> ShardServerConfig {
        ShardServerConfig {
            relation_dim: 6,
            optimizer: OptimizerKind::AdaGrad { lr: 0.1 },
            ..tiny_config()
        }
    }

    /// Every key's row and optimizer state, as bits, and its version.
    fn contents(store: &KvStore) -> Vec<(u64, Vec<u32>, Vec<u32>, u32)> {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut all = Vec::new();
        store.for_each_row_with_state(|key, row, state| {
            all.push((key.0, bits(row), bits(state), 0));
        });
        for entry in &mut all {
            entry.3 = store.version(ParamKey(entry.0));
        }
        all
    }

    /// A frame whose body is shorter or longer than its keys' rows is
    /// refused before a row is written.
    #[test]
    fn a_refused_frame_has_written_nothing() {
        let cfg = two_width_config();
        let store = cfg.build_store();
        // An entity row (4 wide) and a relation row (6 wide) of shard 0.
        let keys = vec![2u64, 8];
        let rows = [0.25f32; 10];
        let frame = |codec: Codec, resized: fn(usize) -> usize| {
            if codec == Codec::Dense {
                let mut payload = rows.to_vec();
                payload.resize(resized(payload.len()), 0.5);
                return WireFrame::seal(keys.clone(), payload);
            }
            let mut bytes = Vec::new();
            for row in [&rows[..4], &rows[4..]] {
                encode_row(codec, row, &mut bytes, &mut Vec::new());
            }
            bytes.resize(resized(bytes.len()), 7);
            WireFrame::seal_encoded_versioned(keys.clone(), Vec::new(), Vec::new(), bytes, codec)
        };
        for (op, codec) in [
            (OP_PUSH, Codec::Dense),
            (OP_PUSH, Codec::Int8),
            (OP_PUSH, Codec::TopKQuarter),
            (OP_WRITE, Codec::Dense),
        ] {
            let before = contents(&store);
            let wrong: [fn(usize) -> usize; 2] = [|n| n - 1, |n| n + 1];
            for resized in wrong {
                let bytes = request_bytes(op, &frame(codec, resized));
                assert!(feed(&cfg, 0, &store, &bytes).is_err());
                assert_eq!(
                    contents(&store),
                    before,
                    "op {op}, {codec:?}: a refused frame wrote"
                );
            }
            // The body that does match is applied.
            feed(&cfg, 0, &store, &request_bytes(op, &frame(codec, |n| n))).unwrap();
            assert_ne!(contents(&store), before);
        }
    }

    /// A push's trailer is checked like its body, before the first row is
    /// written: an energy that is not a finite, non-negative number, more
    /// energies than keys, energies on a write — dense and compressed.
    #[test]
    fn a_push_with_a_bad_trailer_has_written_nothing() {
        let cfg = two_width_config();
        let store = cfg.build_store();
        let keys = vec![2u64, 8];
        let rows = [0.25f32; 10];
        let frame = |codec: Codec, trailer: &[f32]| {
            let trailer = trailer.iter().map(|e| e.to_bits()).collect();
            if codec == Codec::Dense {
                return WireFrame::seal_versioned(keys.clone(), trailer, rows.to_vec());
            }
            let mut bytes = Vec::new();
            for row in [&rows[..4], &rows[4..]] {
                encode_row(codec, row, &mut bytes, &mut Vec::new());
            }
            WireFrame::seal_encoded_versioned(keys.clone(), trailer, Vec::new(), bytes, codec)
        };
        let before = contents(&store);
        for codec in [Codec::Dense, Codec::Int8] {
            let bad: [&[f32]; 6] = [
                &[f32::NAN],
                &[f32::INFINITY],
                &[-1.0],
                &[1.0, f32::NEG_INFINITY],
                &[-f32::MIN_POSITIVE, 1.0],
                &[1.0, 1.0, 1.0],
            ];
            for trailer in bad {
                let bytes = request_bytes(OP_PUSH, &frame(codec, trailer));
                // More energies than keys does not even frame.
                assert!(
                    feed(&cfg, 0, &store, &bytes).is_err(),
                    "{codec:?} {trailer:?}"
                );
                assert_eq!(contents(&store), before, "{codec:?} {trailer:?} wrote");
            }
        }
        // Handed to `apply_frame` directly (the handler's own count check
        // aside), the longer trailer is refused there too.
        let long = frame(Codec::Dense, &[1.0, 1.0, 1.0]);
        let places = || keys.iter().map(|&k| store.place(ParamKey(k)));
        let optimizer = cfg.optimizer.build();
        let refused = apply_frame(
            &store,
            0,
            &long,
            places(),
            Some(optimizer.as_ref()),
            &mut Vec::new(),
        );
        assert_eq!(refused, Err("more energies than keys"));
        // A write takes no energies, however good.
        let bytes = request_bytes(OP_WRITE, &frame(Codec::Dense, &[1.0]));
        assert!(feed(&cfg, 0, &store, &bytes).is_err());
        assert_eq!(contents(&store), before);
        // A good trailer is applied — and not as a plain push would be: the
        // energy reaches the optimizer's state.
        for codec in [Codec::Dense, Codec::Int8] {
            let with = cfg.build_store();
            feed(
                &cfg,
                0,
                &with,
                &request_bytes(OP_PUSH, &frame(codec, &[9.0])),
            )
            .unwrap();
            let without = cfg.build_store();
            feed(
                &cfg,
                0,
                &without,
                &request_bytes(OP_PUSH, &frame(codec, &[])),
            )
            .unwrap();
            let (with, without) = (contents(&with), contents(&without));
            assert_ne!(with, before);
            assert_eq!(with[0], without[0], "{codec:?}: key 2 went as a plain row");
            assert_ne!(with, without, "{codec:?}: key 8 went with its energy");
        }
    }

    #[test]
    fn the_retired_plain_pull_byte_is_an_unknown_op() {
        let cfg = tiny_config();
        let plain_pull = WireFrame::seal(vec![0], Vec::new());
        let refused = feed(&cfg, 0, &cfg.build_store(), &request_bytes(0, &plain_pull));
        assert!(refused.unwrap_err().to_string().contains("unknown op"));
    }

    mod fuzz {
        use super::*;
        use crate::client::{PsClient, PsScratch};
        use crate::error::RpcError;
        use crate::kvstore::NO_VERSION;
        use crate::transport::{FrameOp, Transport};
        use hetkg_netsim::{ClusterTopology, CompressionMode, TrafficMeter};
        use proptest::prelude::*;
        use std::sync::Arc;

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
                let _ = feed(&cfg, 0, &cfg.build_store(), &bytes);
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
                let takes_a_trailer = matches!(op, OP_PULL_NEWER | OP_PUSH);
                if takes_a_trailer && versions.len() > keys.len() {
                    prop_assert!(out.is_err(), "a trailer longer than the keys was served");
                }
                if !takes_a_trailer && !versions.is_empty() {
                    prop_assert!(out.is_err(), "a trailer was accepted on op {op}");
                }
                let energy_ok = |&v: &u32| {
                    let e = f32::from_bits(v);
                    e.is_finite() && e >= 0.0
                };
                if op == OP_PUSH && !versions.iter().all(energy_ok) {
                    prop_assert!(out.is_err(), "a push with a bad energy was applied");
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
                let reply = feed(&cfg, 0, &store, &bytes).unwrap();
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
                    prop_assert!(feed(&cfg, 0, &store, &bad).is_err(), "flip at {at} was served");
                }
            }
        }

        /// Carries every frame the client exchanges to a shard server's
        /// connection handler — over an in-memory stream, on the servers'
        /// own table — and hands the server's reply back, as a socket does,
        /// after requiring the simulated backend's answer (`answer_read` on
        /// the client's own store; an acknowledgement for a push or a
        /// write) to be the same bytes.
        #[derive(Debug)]
        struct BothSides {
            cfg: ShardServerConfig,
            /// What the `ps-server` processes hold. Each touches only its
            /// own shard's rows, so one table stands for all of them.
            served: KvStore,
            /// The client's own store.
            sim: Arc<KvStore>,
        }

        impl Transport for BothSides {
            fn carry(
                &self,
                shard: usize,
                op: FrameOp,
                frame: &mut WireFrame,
            ) -> Result<(), RpcError> {
                let request = request_bytes(op.wire_op(), frame);
                let served = feed(&self.cfg, shard, &self.served, &request)
                    .expect("a shard server refused a frame the client sealed");
                let simulated = match op {
                    FrameOp::PullNewer => {
                        answer_read(&self.sim, shard, frame);
                        request_bytes(OP_PULL_NEWER, frame)
                    }
                    FrameOp::Push | FrameOp::Write => {
                        request_bytes(OP_ACK, &WireFrame::seal(Vec::new(), Vec::new()))
                    }
                };
                assert_eq!(served, simulated, "shard {shard}, {op:?}");
                if op == FrameOp::PullNewer {
                    *frame = stream::read_message(&mut io::Cursor::new(&served))
                        .expect("the reply decodes")
                        .frame;
                }
                Ok(())
            }
        }

        // The default case count, so `PROPTEST_CASES` deepens the run.
        proptest! {
            /// sim ≡ server: a random sequence of the client's calls — reads
            /// mixing plain keys (duplicates included) with conditional keys
            /// held at the current, a stale or no version; dense, int8, int4
            /// and top-k pushes with duplicate keys, their trailing rows
            /// written back with an energy; writes — draws the same
            /// response frame, seal included, from a shard server and from
            /// the simulated exchange, and leaves the same rows, optimizer
            /// state and versions in both tables after every call.
            #[test]
            fn a_shard_server_and_the_simulated_exchange_agree_on_every_frame(
                calls in prop::collection::vec(
                    (
                        0u8..7,
                        prop::collection::vec(0u64..12, 1..8),
                        prop::collection::vec(any::<u8>(), 0..5),
                        any::<u32>(),
                    ),
                    1..12,
                ),
            ) {
                let cfg = two_width_config();
                let sim = Arc::new(cfg.build_store());
                let both = Arc::new(BothSides {
                    cfg: cfg.clone(),
                    served: cfg.build_store(),
                    sim: sim.clone(),
                });
                let client = PsClient::new(
                    0,
                    ClusterTopology::new(2, 1),
                    sim.clone(),
                    Arc::new(TrafficMeter::new()),
                )
                .with_transport(both.clone());
                let optimizer = cfg.optimizer.build();
                let first_version: Vec<u32> = (0..12).map(|k| sim.version(ParamKey(k))).collect();
                // One scratch per push codec, so a codec's error-feedback
                // residuals carry from one of its pushes to the next.
                let mut scratches = [
                    CompressionMode::Off,
                    CompressionMode::Int8,
                    CompressionMode::Int4,
                    CompressionMode::TopK,
                ]
                .map(|mode| {
                    let mut scratch = PsScratch::new();
                    scratch.set_compression(mode);
                    scratch
                });
                for (call, picks, holds, mut word) in calls {
                    let mut keys: Vec<ParamKey> = picks.iter().map(|&k| ParamKey(k)).collect();
                    let values: Vec<Vec<f32>> = keys
                        .iter()
                        .map(|k| {
                            let width = if k.0 < 8 { cfg.entity_dim } else { cfg.relation_dim };
                            (0..width)
                                .map(|_| {
                                    word = word.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                                    (word >> 8) as f32 / (1u32 << 23) as f32 - 1.0
                                })
                                .collect()
                        })
                        .collect();
                    let rows: Vec<&[f32]> = values.iter().map(Vec::as_slice).collect();
                    let done = match call {
                        0..=3 => {
                            // The last rows (none, some or all) are written
                            // back, energies from zero up.
                            let energies: Vec<f32> = holds
                                .iter()
                                .take(keys.len())
                                .map(|&h| f32::from(h) * 0.37)
                                .collect();
                            client.try_push_coalesced_rows(
                                &keys,
                                &energies,
                                |i| rows[i],
                                optimizer.as_ref(),
                                &mut scratches[usize::from(call)],
                            )
                        }
                        4 => client.try_write_batch_with(&keys, &rows, &mut scratches[0]),
                        _ => {
                            // `keys` ride in front as plain pulls; behind
                            // them, distinct keys are asked about.
                            let mut asked: Vec<u64> = holds.iter().map(|h| u64::from(h % 12)).collect();
                            asked.sort_unstable();
                            asked.dedup();
                            let held: Vec<u32> = asked
                                .iter()
                                .zip(&holds)
                                .map(|(&k, h)| match h / 12 % 3 {
                                    0 => sim.version(ParamKey(k)),
                                    1 => first_version[k as usize],
                                    _ => NO_VERSION,
                                })
                                .collect();
                            keys.extend(asked.iter().map(|&k| ParamKey(k)));
                            // Call 6 asks about the first of them as a fresh row.
                            let fresh = usize::from(call == 6).min(held.len());
                            client.try_pull_newer_with(&keys, fresh, &held[fresh..], &mut scratches[0], |_, _, _| {})
                        }
                    };
                    prop_assert!(done.is_ok(), "call {call} failed: {done:?}");
                    prop_assert!(
                        contents(&sim) == contents(&both.served),
                        "the tables differ after call {call} on {keys:?}"
                    );
                }
            }
        }
    }
}
