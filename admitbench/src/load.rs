//! The load generator: one closed-loop writer and one open-loop reader,
//! each on its own connection, plus the client-side spans of a traced
//! run.

use crate::trace::Spans;
use crate::workload::{Stream, Workload, BRANCH_ROWS};
use ccpi_server::AdmissionClient;
use ccpi_storage::Update;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Every request's deadline. A failed read counts as this latency.
pub const DEADLINE: Duration = Duration::from_secs(30);

/// Open-loop read rate: one read every 5 ms.
const READ_PERIOD: Duration = Duration::from_millis(5);

/// One acknowledged `Submit`: its updates and per-update verdicts.
pub struct Request {
    pub updates: Vec<Update>,
    pub admitted: Vec<bool>,
}

/// A connected writer and the stream it submits.
pub struct Writer {
    client: AdmissionClient,
    stream: Stream,
    batch: usize,
    /// Every acknowledged request, warm-up included, in admission order.
    pub log: Vec<Request>,
    pub digest: u64,
}

impl Writer {
    pub fn connect(addr: SocketAddr, workload: Workload, seed: u64) -> Writer {
        Writer {
            client: AdmissionClient::connect(addr).with_deadline(DEADLINE),
            stream: workload.stream(seed),
            batch: workload.batch(),
            log: Vec::new(),
            digest: 0,
        }
    }

    /// Submits the stream's next request and returns its latency, ms.
    /// Any error ends the run: the request's fate is unknown, so no twin
    /// could check it. (With one request in flight the admission queue
    /// never fills, so the server has no reason to answer `Busy`.)
    fn submit_next(&mut self, spans: Option<&mut Spans>) -> Result<f64, String> {
        let updates = self.stream.next_request(self.batch);
        self.digest = crate::workload::digest(self.digest, &updates);
        let start = Instant::now();
        let result = self.client.submit(&updates);
        let end = Instant::now();
        if let Some(spans) = spans {
            spans.push("client.submit", None, self.log.len() as u64, start, end);
        }
        let results = result.map_err(|e| format!("submit failed: {e}"))?;
        if results.len() != updates.len() {
            return Err(format!(
                "submit of {} updates got {} verdicts",
                updates.len(),
                results.len()
            ));
        }
        self.log.push(Request {
            admitted: results.iter().map(|r| r.admitted).collect(),
            updates,
        });
        Ok(ms(end - start))
    }

    pub fn warm_up(&mut self, submits: usize) -> Result<(), String> {
        for _ in 0..submits {
            self.submit_next(None)?;
        }
        Ok(())
    }
}

/// An acknowledged request of the timed phase.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Seconds from the start of the timed phase to the ack.
    pub done_s: f64,
    /// Latency, ms.
    pub ms: f64,
}

/// What the writer measured in the timed phase.
#[derive(Default)]
pub struct WriterRun {
    pub samples: Vec<Sample>,
    pub spans: Spans,
}

/// Runs the writer's closed loop from `start` until `until`.
pub fn run_writer(
    w: &mut Writer,
    start: Instant,
    until: Instant,
    trace: bool,
) -> Result<WriterRun, String> {
    let mut run = WriterRun::default();
    while Instant::now() < until {
        let ms = w.submit_next(trace.then_some(&mut run.spans))?;
        let done_s = (Instant::now() - start).as_secs_f64();
        run.samples.push(Sample { done_s, ms });
    }
    Ok(run)
}

/// A connected open-loop reader.
pub struct Reader {
    client: AdmissionClient,
    relation: &'static str,
    check_rows: Option<usize>,
    last_version: u64,
    reads: u64,
}

/// What the reader measured in the timed phase.
#[derive(Default)]
pub struct ReaderRun {
    /// Due-to-completion latencies in due order, ms; a failed read counts
    /// as [`DEADLINE`].
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
    /// The largest start-minus-due delay, ms.
    pub max_late_ms: f64,
    pub spans: Spans,
}

impl Reader {
    pub fn connect(addr: SocketAddr, workload: Workload) -> Reader {
        let relation = workload.read_relation();
        Reader {
            client: AdmissionClient::connect(addr).with_deadline(DEADLINE),
            relation,
            check_rows: (relation == "branch").then_some(BRANCH_ROWS),
            last_version: 0,
            reads: 0,
        }
    }

    /// One `Query`, which also returns the snapshot's version. Every read
    /// is the same request, so the read latencies form one population.
    /// `Err` is a correctness failure (a version going backwards or a
    /// torn scan); `Ok(false)` a failed request.
    fn read(&mut self, spans: Option<&mut Spans>) -> Result<bool, String> {
        let start = Instant::now();
        let result = self.client.query(self.relation);
        if let Some(spans) = spans {
            spans.push("client.query", None, self.reads, start, Instant::now());
        }
        self.reads += 1;
        let Ok((version, rows)) = result else {
            return Ok(false);
        };
        if version < self.last_version {
            return Err(format!(
                "snapshot version went backwards: {} after {}",
                version, self.last_version
            ));
        }
        self.last_version = version;
        if self.check_rows.is_some_and(|want| want != rows.len()) {
            return Err(format!(
                "torn `{}` scan: {} rows, expected {BRANCH_ROWS}",
                self.relation,
                rows.len()
            ));
        }
        Ok(true)
    }

    pub fn warm_up(&mut self, reads: usize) -> Result<(), String> {
        for _ in 0..reads {
            self.read(None)?;
        }
        Ok(())
    }
}

/// Runs the reader's open loop from `start` until `until`: read `i` is
/// due at `start + i * READ_PERIOD` and timed from that due time.
pub fn run_reader(
    r: &mut Reader,
    start: Instant,
    until: Instant,
    trace: bool,
) -> Result<ReaderRun, String> {
    let mut run = ReaderRun::default();
    let mut due = start;
    while due < until {
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        run.max_late_ms = run
            .max_late_ms
            .max(ms(Instant::now().saturating_duration_since(due)));
        let ok = r.read(trace.then_some(&mut run.spans))?;
        if ok {
            run.latencies_ms.push(ms(Instant::now() - due));
        } else {
            run.failed += 1;
            run.latencies_ms.push(ms(DEADLINE));
        }
        due += READ_PERIOD;
    }
    Ok(run)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
