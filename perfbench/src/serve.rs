//! The serve workload: an open-loop query stream against `linkclustd`.
//!
//! All traffic runs over **one** TCP connection (the daemon serves
//! connections one at a time), driven by two threads: the caller sends
//! each request when it falls due, a receiver thread reads the answers
//! in order. Latency is timed from when a request was *due*, so a stall
//! also charges the requests queued behind it; how late the sender ran
//! is reported per phase, and a phase whose sender ran late is marked
//! invalid.
//!
//! A run has four parts:
//!
//! 1. **Set-up** — the daemon is spawned several times over the graph
//!    file and its prebuilt index; each spawn is timed to `LISTENING`.
//! 2. **Nominal phase** — the query mix at the nominal rate, with a
//!    `recluster` admission at a fixed cadence, so writes run beside
//!    reads. Each admission is timed by the daemon (its recluster, from
//!    its log) and by the client (from its `enqueued` answer to the
//!    first answer carrying the new generation).
//! 3. **Closed loop** — one request in flight at a time: the answer rate
//!    a synchronous client gets, reported as `max_qps`.
//! 4. **Rate ladder** — the query mix at each rate of a fixed ladder,
//!    climbed until a rung's p99 misses [`LIMIT_MS`] or its backlog
//!    grows; every rung is reported.
//!
//! Every [`SAMPLE_EVERY`]-th answer is checked against the index loaded
//! in-process. Reclustering the same graph is bit-identical, so the
//! answers may not change across generations.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use linkclust_core::dendrogram::DensityCut;
use linkclust_serve::json::{self, Json};
use linkclust_serve::{DendrogramIndex, ServeGraph, Server, ServerConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::inputs::Loaded;
use crate::{array, median, other_process_cpu_s, peak_rss_mb, quantile, Obj};

/// Every `SAMPLE_EVERY`-th answer over the socket is checked.
pub const SAMPLE_EVERY: usize = 8;

/// Every `CHECK_EVERY`-th in-process answer is checked (checking costs
/// no socket time there, so more of them are).
pub const CHECK_EVERY: usize = 4;

/// The p99 latency limit (ms) a ladder rung must meet.
pub const LIMIT_MS: f64 = 250.0;

/// How long a request-response exchange waits for its answer.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// The query kinds, in the order of `linkclust_bench::serve::KINDS`.
pub const KINDS: [&str; 6] = linkclust_bench::serve::KINDS;

/// Queries per block of the mix. Every block holds exactly 7 cut, 4
/// edge, 3 vertex, 3 topk, 2 profile and 1 best query — the 35/20/15/
/// 15/10/5% mix of `bench::serve` — in a seeded shuffled order, so the
/// kind proportions do not vary between seeds or run lengths.
pub const BLOCK: usize = 20;
const BLOCK_COUNTS: [usize; 6] = [7, 4, 3, 3, 2, 1];

/// A seeded stream of queries drawn block by block.
///
/// The seed sets the order of kinds within each block and the edge and
/// vertex ids. Thresholds step through the 64-value palette of
/// `bench::serve` per kind in a fixed golden-ratio order (and `topk`'s
/// `k` through 1..=15 likewise), so any prefix of a kind's queries
/// covers the palette evenly and the same way for every seed: the cost
/// of a `topk` answer varies tenfold with the cut level, and drawing
/// levels at random made every query figure depend on the seed.
pub struct Mix {
    rng: SmallRng,
    vertices: usize,
    edges: usize,
    block: Vec<usize>,
    drawn: [u32; 6],
}

impl Mix {
    /// A stream over a graph of `vertices` and `edges`.
    #[must_use]
    pub fn new(seed: u64, vertices: usize, edges: usize) -> Self {
        Mix {
            rng: SmallRng::seed_from_u64(seed),
            vertices,
            edges,
            block: Vec::new(),
            drawn: [0; 6],
        }
    }

    /// Where in its `1/rate` slot a request falls, uniform in [0, 1).
    /// Arrivals stay one per slot, so the rate is exact and no gap
    /// exceeds two slots, but answers no longer line up on a grid.
    pub fn jitter(&mut self) -> f64 {
        self.rng.gen()
    }

    /// The next query.
    pub fn next_query(&mut self) -> Query {
        if self.block.is_empty() {
            for (kind, &n) in BLOCK_COUNTS.iter().enumerate() {
                self.block.extend(std::iter::repeat_n(kind, n));
            }
            for i in (1..self.block.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.block.swap(i, j);
            }
        }
        let kind = self.block.pop().expect("a refilled block is not empty");
        let palette = linkclust_bench::serve::THETA_PALETTE as u32;
        // 39/64 is close to the golden ratio's fractional part and odd,
        // so the steps visit every palette value once per 64 draws.
        let n = self.drawn[kind];
        self.drawn[kind] += 1;
        let theta = f64::from(n * 39 % palette) / f64::from(palette);
        let arg = match kind {
            1 => self.rng.gen_range(0..self.edges) as u64,
            2 => self.rng.gen_range(0..self.vertices) as u64,
            // k in 1..=15, stepping by 7 (coprime with 15).
            3 => u64::from(1 + n * 7 % 15),
            _ => 0,
        };
        Query { kind, theta, arg }
    }
}

/// One query of the mix.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    /// Index into [`KINDS`].
    pub kind: usize,
    /// Similarity threshold (cut, edge, vertex, topk).
    pub theta: f64,
    /// Edge id (edge), vertex id (vertex) or `k` (topk).
    pub arg: u64,
}

impl Query {
    /// The request line.
    #[must_use]
    pub fn render(&self) -> String {
        let (theta, arg) = (self.theta, self.arg);
        match self.kind {
            0 => format!("{{\"op\":\"cut\",\"theta\":{theta}}}"),
            1 => format!("{{\"op\":\"edge\",\"id\":{arg},\"theta\":{theta}}}"),
            2 => format!("{{\"op\":\"vertex\",\"id\":{arg},\"theta\":{theta}}}"),
            3 => format!("{{\"op\":\"topk\",\"theta\":{theta},\"k\":{arg}}}"),
            4 => "{\"op\":\"profile\"}".to_string(),
            _ => "{\"op\":\"best\"}".to_string(),
        }
    }

    /// The answer `index` gives in-process, rendered in the wire
    /// format of the `linkclustd` protocol for `generation`.
    #[must_use]
    pub fn expected(&self, index: &DendrogramIndex, generation: u64) -> String {
        let mut out = format!("{{\"ok\":true,\"generation\":{generation}");
        let level = index.level_for_threshold(self.theta);
        let list = |items: Vec<String>| format!("[{}]", items.join(","));
        let cut = |c: &DensityCut| {
            let mut d = String::new();
            json::write_f64(&mut d, c.density);
            format!("{{\"level\":{},\"clusters\":{},\"density\":{d}}}", c.level, c.cluster_count)
        };
        let arg = usize::try_from(self.arg).unwrap_or(usize::MAX);
        let _ = match self.kind {
            0 => write!(
                out,
                ",\"level\":{level},\"clusters\":{}",
                index.cluster_count_at_level(level)
            ),
            1 => match index.edge_label_at_level(arg, level) {
                Some(label) => write!(out, ",\"label\":{label}"),
                None => write!(out, ",\"label\":null"),
            },
            2 => {
                let labels = index.vertex_labels_at_level(arg, level).unwrap_or_default();
                write!(out, ",\"labels\":{}", list(labels.iter().map(u32::to_string).collect()))
            }
            3 => {
                let top = index.top_communities_at_level(level, arg);
                let items = top
                    .iter()
                    .map(|c| {
                        format!(
                            "{{\"label\":{},\"edges\":{},\"vertices\":{}}}",
                            c.label, c.edge_count, c.vertex_count
                        )
                    })
                    .collect();
                write!(out, ",\"communities\":{}", list(items))
            }
            4 => write!(out, ",\"points\":{}", list(index.profile().iter().map(cut).collect())),
            _ => match index.best_cut() {
                Some(c) => write!(out, ",\"cut\":{}", cut(&c)),
                None => write!(out, ",\"cut\":null"),
            },
        };
        out.push('}');
        out
    }

    /// Checks `answer` against [`expected`](Self::expected) at the
    /// generation the answer carries.
    ///
    /// # Errors
    ///
    /// The first differing answer, truncated.
    pub fn check(&self, index: &DendrogramIndex, answer: &str) -> Result<(), String> {
        let generation = generation_of(answer).unwrap_or(0);
        if answer == self.expected(index, generation) {
            Ok(())
        } else {
            Err(format!("{} answer differs from the index: {answer:.160}", KINDS[self.kind]))
        }
    }
}

/// A running `linkclustd`, killed and reaped on drop if still alive.
pub struct Daemon {
    child: Option<Child>,
    /// The `LISTENING` address.
    pub addr: String,
    /// Process id.
    pub pid: u32,
}

impl Daemon {
    /// Spawns `bin` over `graph` and `index` and waits for `LISTENING`;
    /// returns the daemon and the seconds from spawn to that line. With
    /// `log`, the daemon appends its lifecycle events there.
    ///
    /// # Errors
    ///
    /// Spawn failures or a daemon that exits before listening.
    pub fn spawn(
        bin: &Path,
        graph: &Path,
        index: &Path,
        threads: usize,
        log: Option<&Path>,
    ) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg(graph).arg("--index").arg(index).args(["--threads", &threads.to_string()]);
        if let Some(log) = log {
            cmd.arg("--log").arg(log);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut line = String::new();
        let stdout = child.stdout.take().ok_or("daemon stdout missing")?;
        let read = BufReader::new(stdout).read_line(&mut line);
        let setup_s = start.elapsed().as_secs_f64();
        let mut daemon = Daemon { child: Some(child), addr: String::new(), pid };
        match (read, line.trim().strip_prefix("LISTENING ")) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr.to_string();
                Ok((daemon, setup_s))
            }
            _ => Err(format!("daemon did not report LISTENING (got {line:?})")),
        }
    }

    /// Sends `shutdown` on a fresh connection and reaps the process.
    ///
    /// # Errors
    ///
    /// Socket failures or a non-zero exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Connection::open(&self.addr)?;
        conn.send("{\"op\":\"shutdown\"}").map_err(|e| e.to_string())?;
        let _ = conn.recv();
        let status =
            self.child.take().ok_or("already reaped")?.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The one client connection.
struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Connection {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection { reader, writer: BufWriter::new(stream) })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads one answer, waiting up to [`ANSWER_TIMEOUT`].
    fn recv(&mut self) -> std::io::Result<String> {
        self.reader.get_ref().set_read_timeout(Some(ANSWER_TIMEOUT))?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line)
    }
}

/// One scheduled request of a phase.
#[derive(Clone, Copy, Debug)]
enum Op {
    Query(Query),
    Admit,
}

/// What a phase sends: the query mix at `rate` for `seconds`, plus
/// admissions at the given offsets.
struct Plan {
    rate: f64,
    seconds: f64,
    admit_at: Vec<f64>,
}

/// Everything one phase observed, indexed like its schedule.
struct Phase {
    ops: Vec<Op>,
    due: Vec<f64>,
    sent: Vec<f64>,
    recv: Vec<f64>,
    ok: Vec<bool>,
    generation: Vec<u64>,
    bytes: Vec<usize>,
    /// `(op index, answer)` of every sampled answer.
    sampled: Vec<(usize, String)>,
}

/// Generation field of an answer, without a full parse.
fn generation_of(answer: &str) -> Option<u64> {
    linkclust_bench::serve::int_field(answer, "generation")
}

/// Runs one phase of `plan` over `conn`. `grace` bounds how long the
/// receiver waits for the last answers after the schedule ends.
fn run_phase(conn: &mut Connection, plan: &Plan, mix: &mut Mix, grace: Duration) -> Phase {
    let count = (plan.rate * plan.seconds).round().max(1.0) as usize;
    let mut schedule: Vec<(f64, Op)> = (0..count)
        .map(|i| ((i as f64 + mix.jitter()) / plan.rate, Op::Query(mix.next_query())))
        .collect();
    for &at in &plan.admit_at {
        let pos = schedule.partition_point(|(d, _)| *d <= at);
        schedule.insert(pos, (at, Op::Admit));
    }
    let (due, ops): (Vec<f64>, Vec<Op>) = schedule.into_iter().unzip();
    let lines: Vec<String> = ops
        .iter()
        .map(|op| match op {
            Op::Query(q) => q.render(),
            Op::Admit => "{\"op\":\"recluster\"}".to_string(),
        })
        .collect();
    let n = ops.len();
    let last_due = due.last().copied().unwrap_or(0.0);
    let t0 = Instant::now() + Duration::from_millis(20);
    let deadline = t0 + Duration::from_secs_f64(last_due) + grace;
    let _ = conn.reader.get_ref().set_read_timeout(Some(Duration::from_millis(200)));

    let Connection { reader, writer } = conn;
    let (sent, received) = std::thread::scope(|s| {
        let ops = &ops;
        let receiver = s.spawn(move || {
            let mut recv = vec![f64::NAN; n];
            let mut ok = vec![false; n];
            let mut generation = vec![0u64; n];
            let mut bytes = vec![0usize; n];
            let mut sampled = Vec::new();
            let mut newest = 0u64;
            let mut line = String::new();
            let mut i = 0;
            while i < n && Instant::now() < deadline {
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) if line.ends_with('\n') => {}
                    Ok(_) | Err(_) => continue, // timeout tick; partial line kept
                }
                recv[i] = t0.elapsed().as_secs_f64();
                bytes[i] = line.len() - 1;
                ok[i] = line.starts_with("{\"ok\":true");
                let g = generation_of(&line).unwrap_or(newest);
                generation[i] = g;
                if matches!(ops[i], Op::Query(_)) && i.is_multiple_of(SAMPLE_EVERY) {
                    sampled.push((i, line.trim_end().to_string()));
                }
                newest = newest.max(g);
                line.clear();
                i += 1;
            }
            (recv, ok, generation, bytes, sampled)
        });
        let mut sent = vec![f64::NAN; n];
        for (i, line) in lines.iter().enumerate() {
            let at = t0 + Duration::from_secs_f64(due[i]);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let result = writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush());
            if result.is_err() {
                break;
            }
            sent[i] = t0.elapsed().as_secs_f64();
        }
        let received = receiver.join().expect("receiver thread panicked");
        (sent, received)
    });
    let (recv, ok, generation, bytes, sampled) = received;
    // Answers still in flight at the deadline count as failed; read them
    // off so the next request's answer is the next line.
    let unanswered = recv.iter().zip(&sent).filter(|(r, s)| r.is_nan() && !s.is_nan()).count();
    for _ in 0..unanswered {
        if conn.recv().is_err() {
            break;
        }
    }
    Phase { ops, due, sent, recv, ok, generation, bytes, sampled }
}

/// Per-phase figures reduced from a [`Phase`].
struct Summary {
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    per_kind_ms: Vec<Vec<f64>>,
    per_kind_bytes: Vec<Vec<f64>>,
    queries: u64,
    failed: u64,
    /// `(admit_s, queries answered by the old generation)`.
    admissions: Vec<(f64, u64)>,
    admissions_lost: u64,
    /// Largest latency over the last tenth of the schedule.
    tail_ms: f64,
    /// Answers received per second between the first and last due time.
    throughput: f64,
}

fn summarize(p: &Phase, index: &DendrogramIndex) -> (Summary, Vec<String>) {
    let mut s = Summary {
        latency_ms: Vec::new(),
        lateness_ms: Vec::new(),
        wait_ms: Vec::new(),
        per_kind_ms: vec![Vec::new(); KINDS.len()],
        per_kind_bytes: vec![Vec::new(); KINDS.len()],
        queries: 0,
        failed: 0,
        admissions: Vec::new(),
        admissions_lost: 0,
        tail_ms: 0.0,
        throughput: f64::NAN,
    };
    let n = p.ops.len();
    if let (Some(&first), Some(&last)) = (p.due.first(), p.due.last()) {
        let answered = p.recv.iter().filter(|&&t| t >= first && t <= last).count();
        s.throughput = answered as f64 / (last - first);
    }
    let tail_from = n - n / 10;
    for i in 0..n {
        let Op::Query(q) = p.ops[i] else { continue };
        s.queries += 1;
        if p.recv[i].is_nan() || !p.ok[i] {
            s.failed += 1;
            continue;
        }
        let latency = (p.recv[i] - p.due[i]) * 1e3;
        s.latency_ms.push(latency);
        s.lateness_ms.push((p.sent[i] - p.due[i]) * 1e3);
        // On one sequential connection a request waits while the daemon
        // still works on the one before it.
        let busy_until = if i > 0 { p.recv[i - 1] } else { 0.0 };
        s.wait_ms.push(((busy_until - p.sent[i]) * 1e3).max(0.0));
        s.per_kind_ms[q.kind].push(latency);
        s.per_kind_bytes[q.kind].push(p.bytes[i] as f64);
        if i >= tail_from {
            s.tail_ms = s.tail_ms.max(latency);
        }
    }
    for j in (0..n).filter(|&j| matches!(p.ops[j], Op::Admit)) {
        let before = p.generation[..j].iter().copied().max().unwrap_or(0);
        let swap = (j + 1..n).find(|&k| !p.recv[k].is_nan() && p.generation[k] > before);
        match swap {
            Some(k) => {
                let during = (j + 1..k).filter(|&i| matches!(p.ops[i], Op::Query(_))).count();
                s.admissions.push((p.recv[k] - p.recv[j], during as u64));
            }
            None => s.admissions_lost += 1,
        }
    }
    let mut errors = Vec::new();
    for (i, answer) in &p.sampled {
        if let Op::Query(q) = p.ops[*i] {
            if let Err(e) = q.check(index, answer) {
                s.failed += 1;
                errors.push(e);
            }
        }
    }
    (s, errors)
}

/// Settings of one serve run.
pub struct ServeArgs<'a> {
    /// The graph file the daemon serves.
    pub graph: &'a Path,
    /// The index the daemon loads at start-up.
    pub index: &'a Path,
    /// The `linkclustd` binary.
    pub daemon: &'a Path,
    /// Query-stream seed.
    pub seed: u64,
    /// Daemon `--threads`.
    pub threads: usize,
    /// Timed spawns for `setup_s`.
    pub spawns: usize,
    /// Nominal rate (queries/s) and phase length (s).
    pub nominal: (f64, f64),
    /// Admission cadence in the nominal phase (s between admissions).
    pub admit_every: f64,
    /// Queries of the closed-loop burst that measures `max_qps`.
    pub closed_queries: usize,
    /// Ladder rates (queries/s) and seconds per rung.
    pub ladder: (Vec<f64>, f64),
    /// Corrupt the sampled answers before checking them.
    pub corrupt: bool,
}

/// Runs set-up, the nominal phase, the closed loop and the ladder;
/// renders the result.
///
/// # Errors
///
/// Spawn, load or connection failures, rendered as strings.
#[allow(clippy::too_many_lines)]
pub fn run(args: &ServeArgs<'_>) -> Result<String, String> {
    let (graph, index_path) = (args.graph, args.index);
    let reference = DendrogramIndex::read(BufReader::new(
        std::fs::File::open(index_path).map_err(|e| e.to_string())?,
    ))
    .map_err(|e| e.to_string())?;
    let vertices = Loaded::load(graph)?.vertex_count();

    // The measured daemon logs its lifecycle events, among them each
    // admission's recluster time; the earlier spawns only time start-up.
    let log = index_path.with_file_name(format!("linkclustd-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for i in 0..args.spawns.max(1) {
        let last = i + 1 >= args.spawns;
        let (d, s) =
            Daemon::spawn(args.daemon, graph, index_path, args.threads, last.then_some(&*log))?;
        setup_s.push(s);
        if last {
            daemon = Some(d);
        } else {
            d.shutdown()?;
        }
    }
    let daemon = daemon.ok_or("no daemon")?;
    let mut conn = Connection::open(&daemon.addr)?;
    let mut mix = Mix::new(args.seed, vertices, reference.edge_count());
    let grace = Duration::from_secs(10);

    let (rate, seconds) = args.nominal;
    let cpu_before = other_process_cpu_s(daemon.pid);
    let admit_at: Vec<f64> = (0..)
        .map(|i| 0.5 + f64::from(i) * args.admit_every)
        .take_while(|&t| t < seconds - 1.0)
        .collect();
    let mut nominal = run_phase(&mut conn, &Plan { rate, seconds, admit_at }, &mut mix, grace);
    let nominal_cpu_s = other_process_cpu_s(daemon.pid) - cpu_before;
    if args.corrupt {
        for (_, answer) in &mut nominal.sampled {
            answer.insert_str(1, "\"corrupted\":true,");
        }
    }
    let (nom, mut errors) = summarize(&nominal, &reference);

    let closed = closed_loop(&mut conn, &mut mix, args.closed_queries, &reference)?;
    errors.extend(closed.errors.iter().cloned());

    // The ladder climbs until the first rung that misses the limit.
    let mut phase_docs = Vec::new();
    let mut ladder_max = f64::NAN;
    let (mut ladder_queries, mut ladder_failed) = (0u64, 0u64);
    for &r in args.ladder.0.iter().filter(|&&r| r > rate) {
        let phase = run_phase(
            &mut conn,
            &Plan { rate: r, seconds: args.ladder.1, admit_at: Vec::new() },
            &mut mix,
            grace,
        );
        let (s, e) = summarize(&phase, &reference);
        errors.extend(e);
        ladder_queries += s.queries;
        ladder_failed += s.failed;
        let p99 = quantile(&s.latency_ms, 0.99);
        let late_p99 = quantile(&s.lateness_ms, 0.99);
        // The sender is late when it could not keep its own schedule (a
        // tenth of the limit); a backlog shows as a tail latency beyond
        // the limit.
        let valid = late_p99 <= LIMIT_MS / 10.0;
        let met = valid && s.failed == 0 && p99 <= LIMIT_MS && s.tail_ms <= LIMIT_MS;
        phase_docs.push(
            Obj::new()
                .num("rate", r)
                .int("samples", s.latency_ms.len() as u64)
                .num("p50_ms", median(&s.latency_ms))
                .num("p99_ms", p99)
                .num("tail_ms", s.tail_ms)
                .num("lateness_p99_ms", late_p99)
                .num("lateness_max_ms", quantile(&s.lateness_ms, 1.0))
                .num("queue_wait_p99_ms", quantile(&s.wait_ms, 0.99))
                .num("throughput", s.throughput)
                .boolean("valid", valid)
                .boolean("met_limit", met)
                .finish(),
        );
        if !met {
            break;
        }
        ladder_max = r;
    }

    conn.send("{\"op\":\"stats\"}").map_err(|e| e.to_string())?;
    let stats = conn.recv().map_err(|e| e.to_string())?;
    let hit_ratio = json::parse(stats.trim())
        .ok()
        .and_then(|d| d.get("cache").and_then(|c| c.get("hit_rate")).and_then(Json::as_f64))
        .unwrap_or(f64::NAN);
    let rss = peak_rss_mb(Some(daemon.pid));
    drop(conn);
    daemon.shutdown()?;
    // The daemon's own time for each admission's recluster (graph to new
    // index), from its `admit_swap` events; the ladder admits nothing.
    let events = std::fs::read_to_string(&log).map_err(|e| format!("daemon log: {e}"))?;
    let _ = std::fs::remove_file(&log);
    let build_s: Vec<f64> = events
        .lines()
        .filter(|l| l.contains("\"event\":\"admit_swap\""))
        .filter_map(|l| linkclust_bench::serve::int_field(l, "build_nanos"))
        .map(|ns| ns as f64 / 1e9)
        .collect();

    let admit_s: Vec<f64> = nom.admissions.iter().map(|a| a.0).collect();
    let max_qps = closed.queries as f64 / closed.elapsed_s;
    // The highest percentile with at least ten samples beyond it.
    let tail_q = 1.0 - 10.0 / (nom.latency_ms.len() as f64).max(10.0);
    let during: Vec<f64> = nom.admissions.iter().map(|a| a.1 as f64).collect();
    let kinds: Vec<String> = KINDS
        .iter()
        .enumerate()
        .map(|(k, name)| {
            Obj::new()
                .str("kind", name)
                .int("samples", nom.per_kind_ms[k].len() as u64)
                .num("p50_ms", median(&nom.per_kind_ms[k]))
                .num("p99_ms", quantile(&nom.per_kind_ms[k], 0.99))
                .num("bytes_median", median(&nom.per_kind_bytes[k]))
                .finish()
        })
        .collect();
    let attempted = nom.queries
        + closed.queries
        + ladder_queries
        + nom.admissions.len() as u64
        + nom.admissions_lost;
    let failed = nom.failed + closed.failed + ladder_failed + nom.admissions_lost;
    Ok(Obj::new()
        .num("setup_s", median(&setup_s))
        .raw("spawn_s", &crate::num_array(&setup_s))
        .num("run_s", median(&build_s))
        .raw("admit_build_s", &crate::num_array(&build_s))
        .num("cpu_s", nominal_cpu_s)
        .num("admit_s", median(&admit_s))
        .raw("admit_client_s", &crate::num_array(&admit_s))
        .num("peak_rss_mb", rss)
        .num("query_p50_ms", median(&nom.latency_ms))
        .num("query_p99_ms", quantile(&nom.latency_ms, 0.99))
        .int("query_samples", nom.latency_ms.len() as u64)
        .num("query_tail_q", tail_q)
        .num("query_tail_ms", quantile(&nom.latency_ms, tail_q))
        .num("nominal_rate", rate)
        .num("nominal_share_of_capacity", rate / max_qps)
        .num("admit_every_s", args.admit_every)
        .num("admit_duty", median(&admit_s) / args.admit_every)
        .num("lateness_p99_ms", quantile(&nom.lateness_ms, 0.99))
        .num("lateness_max_ms", quantile(&nom.lateness_ms, 1.0))
        .num("queue_wait_p99_ms", quantile(&nom.wait_ms, 0.99))
        .num("max_qps", max_qps)
        .int("closed_loop_queries", closed.queries)
        .num("ladder_max_rate", ladder_max)
        .num("limit_ms", LIMIT_MS)
        .raw("ladder", &array(&phase_docs))
        .raw("kinds", &array(&kinds))
        .num("cache_hit_ratio", hit_ratio)
        .num("admit_queries_during", median(&during))
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("errors", &crate::string_array(&errors[..errors.len().min(5)]))
        .finish())
}

/// What the closed-loop burst observed.
struct ClosedLoop {
    queries: u64,
    failed: u64,
    elapsed_s: f64,
    errors: Vec<String>,
}

/// Sends `queries` of the mix (rounded up to whole blocks) one request at
/// a time, each after the previous answer: the rate the daemon sustains
/// on one connection.
fn closed_loop(
    conn: &mut Connection,
    mix: &mut Mix,
    queries: usize,
    index: &DendrogramIndex,
) -> Result<ClosedLoop, String> {
    let mut c = ClosedLoop { queries: 0, failed: 0, elapsed_s: 0.0, errors: Vec::new() };
    let mut kept = Vec::new();
    let start = Instant::now();
    while !(c.queries as usize).is_multiple_of(BLOCK) || (c.queries as usize) < queries {
        let q = mix.next_query();
        conn.send(&q.render()).map_err(|e| e.to_string())?;
        let answer = conn.recv().map_err(|e| e.to_string())?;
        let sampled = (c.queries as usize).is_multiple_of(SAMPLE_EVERY);
        if sampled || !answer.starts_with("{\"ok\":true") {
            kept.push((q, answer));
        }
        c.queries += 1;
    }
    c.elapsed_s = start.elapsed().as_secs_f64();
    // Checked after the timed loop, so checking costs no throughput.
    for (q, answer) in kept {
        if let Err(e) = q.check(index, answer.trim_end()) {
            c.failed += 1;
            c.errors.push(e);
        }
    }
    Ok(c)
}

/// What the in-process answer phase observed.
pub struct Answers {
    /// Service time of each answered query, per kind (µs).
    pub per_kind_us: Vec<Vec<f64>>,
    /// Answer size in bytes, per kind.
    pub per_kind_bytes: Vec<Vec<f64>>,
    /// Summed service time (s).
    pub busy_s: f64,
    /// Queries answered.
    pub queries: u64,
    /// Answers that were not `ok` or differed from the index.
    pub failed: u64,
    /// Answer-cache hit ratio from the server's `stats` op.
    pub hit_ratio: f64,
    /// The first few mismatches.
    pub errors: Vec<String>,
}

impl Answers {
    /// Every service time, all kinds together (µs).
    #[must_use]
    pub fn all_us(&self) -> Vec<f64> {
        self.per_kind_us.iter().flatten().copied().collect()
    }
}

/// Answers the query mix through a fresh in-process [`Server`] (empty
/// answer cache) over `index` — `Server::handle_line`, the whole
/// protocol without the socket — in whole blocks until `seconds` of wall
/// time or `max_queries` queries, timing each call and checking every
/// [`CHECK_EVERY`]-th answer against the index. The same `seed` gives
/// the same queries in the same order.
///
/// # Errors
///
/// An index that does not describe the graph.
pub fn answer_in_process(
    graph: &Loaded,
    index: &DendrogramIndex,
    threads: usize,
    seed: u64,
    seconds: f64,
    max_queries: usize,
) -> Result<Answers, String> {
    let vertices = graph.vertex_count();
    let graph = match graph.clone() {
        Loaded::Text(g) => ServeGraph::Weighted(g),
        Loaded::Binary(g) => ServeGraph::Csr(g),
    };
    let config = ServerConfig { threads, ..ServerConfig::default() };
    let server = Server::with_index(graph, index.clone(), config).map_err(|e| e.to_string())?;
    let mut mix = Mix::new(seed, vertices, index.edge_count());
    let mut a = Answers {
        per_kind_us: vec![Vec::new(); KINDS.len()],
        per_kind_bytes: vec![Vec::new(); KINDS.len()],
        busy_s: 0.0,
        queries: 0,
        failed: 0,
        hit_ratio: f64::NAN,
        errors: Vec::new(),
    };
    let start = Instant::now();
    // Whole blocks only, so every kind keeps its share of the mix.
    while !(a.queries as usize).is_multiple_of(BLOCK)
        || ((a.queries as usize) < max_queries && start.elapsed().as_secs_f64() < seconds)
    {
        let q = mix.next_query();
        let line = q.render();
        let t = Instant::now();
        let (answer, _) = server.handle_line(&line);
        let took = t.elapsed().as_secs_f64();
        a.busy_s += took;
        a.per_kind_us[q.kind].push(took * 1e6);
        a.per_kind_bytes[q.kind].push(answer.len() as f64);
        let checked = (a.queries as usize).is_multiple_of(CHECK_EVERY);
        if checked || !answer.starts_with("{\"ok\":true") {
            if let Err(e) = q.check(index, &answer) {
                a.failed += 1;
                if a.errors.len() < 5 {
                    a.errors.push(e);
                }
            }
        }
        a.queries += 1;
    }
    let (stats, _) = server.handle_line("{\"op\":\"stats\"}");
    a.hit_ratio = json::parse(&stats)
        .ok()
        .and_then(|d| d.get("cache").and_then(|c| c.get("hit_rate")).and_then(Json::as_f64))
        .unwrap_or(f64::NAN);
    Ok(a)
}
