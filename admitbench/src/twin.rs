//! The correctness gate and the per-layer replay.
//!
//! A single-threaded soundness twin — a fresh [`DurableManager`] over the
//! same seeded store — replays every acknowledged request in admission
//! order and must reach every verdict the server returned. The server's
//! recovered store must then equal the twin's final state, or an
//! acknowledged write was lost. On `acct` every verdict must also follow
//! the amount-sign rule.
//!
//! The twin judges each request in one `process_updates_grouped` call.
//! With one writer and one request in flight, that is exactly the commit
//! group the server ran, which the caller checks against `ServerStats`.
//! Traced, the twin also publishes a snapshot and releases the previous
//! one after each group, like the server's admit thread, so each layer's
//! cost is measured through its own public call.

use crate::load::Request;
use crate::trace::Spans;
use crate::workload::{expected_verdict, Workload, PARALLEL_CHECKING};
use ccpi::durable::DurableManager;
use ccpi::prelude::{CheckReport, Method};
use ccpi_storage::{tuple, Database, Update};
use std::path::Path;
use std::time::{Duration, Instant};

/// How the twin replays.
pub struct Replay {
    /// Publish a snapshot per group and record spans and stage times.
    pub traced: bool,
    /// Invert the amount-sign rule: a deliberately wrong expectation the
    /// gate must catch.
    pub wrong_expectation: bool,
}

/// What a traced replay measured. Times are µs unless named otherwise.
#[derive(Default)]
pub struct Layers {
    pub updates: usize,
    pub spans: Spans,
    pub stage_total_us: f64,
    pub subsumption_us: f64,
    pub prefilter_us: f64,
    pub pretest_us: f64,
    pub independence_us: f64,
    pub local_test_us: Vec<f64>,
    pub stage4_us: f64,
    pub outcomes: usize,
    pub settled_before_stage4: usize,
    pub full_checks: usize,
    pub unknown_updates: usize,
    pub delta_tuples_joined: usize,
    pub wal_bytes: u64,
    pub recover_ms: f64,
    pub apply_pinned_us: f64,
    pub apply_unpinned_us: f64,
}

/// Replays `requests` (in admission order) and checks every verdict, then
/// recovers the server's store from `server_dir` and compares it with the
/// twin's final state. `Err` names the first violation.
pub fn check(
    workload: Workload,
    seed: u64,
    requests: &[Request],
    server_dir: &Path,
    twin_dir: &Path,
    replay: &Replay,
) -> Result<Layers, String> {
    let mut twin = DurableManager::create(twin_dir, workload.database(seed))
        .map_err(|e| format!("twin store: {e}"))?;
    for (name, source) in workload.constraints() {
        twin.add_constraint(name, source)
            .map_err(|e| format!("twin constraint {name}: {e}"))?;
    }
    twin.manager_mut().set_parallel_checking(PARALLEL_CHECKING);
    let updates = requests
        .iter()
        .flat_map(|r| r.updates.iter().zip(&r.admitted));
    for (k, (u, &admitted)) in updates.enumerate() {
        if let Some(rule) = expected_verdict(u) {
            if admitted != (rule != replay.wrong_expectation) {
                return Err(format!(
                    "update #{k} {u:?}: server admitted={admitted} breaks the amount-sign rule"
                ));
            }
        }
    }

    let mut layers = Layers::default();
    let bytes_before = twin.bytes_written();
    let mut published = twin.database().snapshot();
    for (r, request) in requests.iter().enumerate() {
        let start = Instant::now();
        let result = twin.process_updates_grouped(&request.updates);
        let judged = Instant::now();
        if let Some(e) = result.error {
            return Err(format!("twin replay failed: {e}"));
        }
        if result.completed.len() != request.updates.len() {
            return Err("twin acknowledged a partial group".into());
        }
        let mut stage_us = 0.0;
        for (i, ((report, applied), u)) in result.completed.iter().zip(&request.updates).enumerate()
        {
            if *applied != request.admitted[i] {
                return Err(format!(
                    "request #{r} update {u:?}: server admitted={} but the serial twin admitted={applied}",
                    request.admitted[i],
                ));
            }
            if replay.traced {
                stage_us += report.stage_times.total_us();
                layers.absorb(report);
            }
        }
        layers.updates += request.updates.len();
        if replay.traced {
            let id = r as u64;
            let parent = layers.spans.push("twin.request", None, id, start, start);
            let group = layers.spans.push(
                "durable.process_updates_grouped",
                Some(parent),
                id,
                start,
                judged,
            );
            // The stages report their own time; it is placed at the start
            // of the group so the group's self time excludes it.
            let checked = (start + Duration::from_secs_f64(stage_us * 1e-6)).min(judged);
            layers
                .spans
                .push("manager.stages", Some(group), id, start, checked);
            // What the admit thread does after every group: publish the
            // post-group snapshot, releasing the previous one.
            let next = twin.database().snapshot();
            drop(std::mem::replace(&mut published, next));
            let end = Instant::now();
            layers
                .spans
                .push("storage.publish", Some(parent), id, judged, end);
            layers.spans.set_end(parent, end);
        }
    }
    drop(published);
    layers.wal_bytes = twin.bytes_written() - bytes_before;

    let start = Instant::now();
    let (recovered, _) = DurableManager::recover(server_dir)
        .map_err(|e| format!("server store does not recover: {e}"))?;
    layers.recover_ms = start.elapsed().as_secs_f64() * 1e3;
    for decl in twin.database().decls() {
        let name = decl.name.as_str();
        if recovered.database().relation(name) != twin.database().relation(name) {
            return Err(format!(
                "recovered `{name}` differs from the serial twin's: an acknowledged write was lost"
            ));
        }
    }
    drop(recovered);

    if replay.traced {
        let mut db = twin.database().clone();
        drop(twin);
        let probe = match workload {
            Workload::EmpMixed => Update::insert("emp", tuple!["probe", "d0", 50]),
            Workload::CommitSmall | Workload::CommitLarge => Update::insert("acct", tuple![-1, 5]),
        };
        layers.apply_unpinned_us = apply_us(&mut db, &probe, false)?;
        layers.apply_pinned_us = apply_us(&mut db, &probe, true)?;
    }
    Ok(layers)
}

/// Median µs of `Database::apply(probe)` on the end-state store, with or
/// without a live snapshot pinning it; the probe is undone after each.
fn apply_us(db: &mut Database, probe: &Update, pinned: bool) -> Result<f64, String> {
    let mut times = Vec::with_capacity(APPLY_REPS);
    for _ in 0..APPLY_REPS {
        let pin = pinned.then(|| db.snapshot());
        let start = Instant::now();
        let changed = db.apply(probe).map_err(|e| e.to_string())?;
        times.push(start.elapsed().as_secs_f64() * 1e6);
        drop(pin);
        if !changed || !db.undo(probe).map_err(|e| e.to_string())? {
            return Err(format!("probe {probe:?} did not round-trip"));
        }
    }
    Ok(crate::stats::median(&mut times))
}

const APPLY_REPS: usize = 21;

impl Layers {
    fn absorb(&mut self, report: &CheckReport) {
        let t = &report.stage_times;
        self.stage_total_us += t.total_us();
        self.subsumption_us += t.subsumption_us;
        self.prefilter_us += t.prefilter_us;
        self.pretest_us += t.pretest_us;
        self.independence_us += t.independence_us;
        self.local_test_us.push(t.local_test_us);
        self.stage4_us += t.stage4_us;
        self.outcomes += report.outcomes.len();
        self.settled_before_stage4 += report
            .method_histogram()
            .iter()
            .filter(|(m, _)| *m != Method::FullCheck)
            .map(|(_, n)| n)
            .sum::<usize>();
        self.full_checks += report.full_checks;
        self.unknown_updates += usize::from(!report.unknowns().is_empty());
        self.delta_tuples_joined += report.delta_tuples_joined;
    }
}
