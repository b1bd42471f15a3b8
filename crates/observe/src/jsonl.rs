//! JSON-Lines event export and its replays: the PC trajectory, the
//! distinct match count and the Perfetto trace are all folds of the log.
//!
//! Every event becomes one flat JSON object per line, e.g.
//!
//! ```json
//! {"seq":17,"t":0.0421,"event":"ComparisonEmitted","a":3,"b":9,"weight":2}
//! ```
//!
//! `seq` is the write order, `t` the receive-time seconds since observer
//! creation. Events carrying their own pipeline time (`MatchConfirmed`,
//! `PhaseTiming`) keep it in their payload — for virtual-time (simulator)
//! runs those payload times are the meaningful ones.
//!
//! The format is intentionally flat (no nesting, no arrays) so it can be
//! parsed by the bundled minimal reader and by one `json.loads` per line in
//! `scripts/plot_experiments.py`.

use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use parking_lot::Mutex;
use pier_types::{Comparison, GroundTruth, MatchLedger, ProfileId, ProgressTrajectory};

use crate::{DeadLetterReason, Event, Phase, PipelineObserver, WorkerRole};

/// An observer that appends every event to a JSON-Lines file.
///
/// Writes are buffered and serialized behind one mutex, so lines never
/// interleave even when multiple pipeline threads emit concurrently. The
/// buffer is flushed on [`JsonlObserver::flush`] and on drop.
///
/// Observer hooks cannot fail, so a write error (disk full, revoked
/// permissions) cannot surface where it happens — instead the *first*
/// error is retained and returned by the next [`flush`] or by
/// [`finish`]; an unflushed error still pending at drop is reported on
/// stderr so a truncated export is never silent.
///
/// [`flush`]: JsonlObserver::flush
/// [`finish`]: JsonlObserver::finish
pub struct JsonlObserver {
    start: Instant,
    path: PathBuf,
    inner: Mutex<Inner>,
}

struct Inner {
    writer: BufWriter<File>,
    seq: u64,
    line: String,
    /// First write error, held (kind + message) until a caller collects
    /// it via `flush`/`finish`.
    error: Option<(io::ErrorKind, String)>,
}

impl Inner {
    fn record_error(&mut self, e: &io::Error) {
        if self.error.is_none() {
            self.error = Some((e.kind(), e.to_string()));
        }
    }
}

impl JsonlObserver {
    /// Creates the conventional per-run export
    /// `target/experiments/<run_id>/events.jsonl` (directories are created
    /// as needed).
    ///
    /// The run id becomes a single path component: ids containing path
    /// separators or `..` are rejected so a run can never write outside
    /// `target/experiments/`. Use [`JsonlObserver::create`] for arbitrary
    /// paths.
    pub fn for_run(run_id: &str) -> io::Result<Self> {
        if run_id.is_empty() || run_id == ".." || run_id.contains(['/', '\\']) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("run id {run_id:?} must be a single path component"),
            ));
        }
        let dir = Path::new("target").join("experiments").join(run_id);
        fs::create_dir_all(&dir)?;
        Self::create(dir.join("events.jsonl"))
    }

    /// Creates (truncating) an export at an explicit path.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(&path)?;
        Ok(JsonlObserver {
            start: Instant::now(),
            path,
            inner: Mutex::new(Inner {
                writer: BufWriter::new(file),
                seq: 0,
                line: String::with_capacity(160),
                error: None,
            }),
        })
    }

    /// Where the events are being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flushes buffered lines to disk.
    ///
    /// # Errors
    /// Returns the first write error recorded since the last `flush`
    /// (hooks cannot fail, so errors queue here), or the flush's own
    /// failure. The pending error is consumed: a later `flush` reports
    /// only what failed after this one.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        if let Err(e) = inner.writer.flush() {
            inner.record_error(&e);
        }
        match inner.error.take() {
            Some((kind, msg)) => Err(io::Error::new(kind, msg)),
            None => Ok(()),
        }
    }

    /// Flushes and closes the export, returning its path — the checked
    /// alternative to dropping the observer.
    ///
    /// # Errors
    /// Same contract as [`JsonlObserver::flush`]: any write error from
    /// the run surfaces here instead of disappearing with the observer.
    pub fn finish(self) -> io::Result<PathBuf> {
        self.flush()?;
        Ok(self.path.clone())
    }

    /// Events written so far.
    pub fn events_written(&self) -> u64 {
        self.inner.lock().seq
    }
}

impl JsonlObserver {
    fn write_event(&self, shard: Option<u16>, worker: Option<u16>, event: &Event) {
        let t = self.start.elapsed().as_secs_f64();
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let seq = inner.seq;
        let line = std::mem::take(&mut inner.line);
        let mut line = write_line(line, seq, t, shard, worker, event);
        line.push('\n');
        // Observers cannot fail, so an I/O error (disk full) cannot
        // propagate from here — the line is dropped and the first error is
        // retained for the next `flush`/`finish` to return.
        if let Err(e) = inner.writer.write_all(line.as_bytes()) {
            inner.record_error(&e);
        }
        line.clear();
        inner.line = line;
    }
}

impl PipelineObserver for JsonlObserver {
    fn on_event(&self, event: &Event) {
        self.write_event(None, None, event);
    }

    fn on_shard_event(&self, shard: u16, event: &Event) {
        self.write_event(Some(shard), None, event);
    }

    fn on_worker_event(&self, worker: u16, event: &Event) {
        self.write_event(None, Some(worker), event);
    }
}

impl Drop for JsonlObserver {
    fn drop(&mut self) {
        // A run killed mid-stream must still land its buffered tail; if it
        // (or an earlier hook) failed, say so — a silently truncated
        // events.jsonl costs an afternoon of confused replaying.
        if let Err(e) = self.flush() {
            eprintln!(
                "pier-observe: events.jsonl export {} lost data: {e}",
                self.path.display()
            );
        }
    }
}

/// Serializes one event into `buf` (no trailing newline).
fn write_line(
    mut buf: String,
    seq: u64,
    t: f64,
    shard: Option<u16>,
    worker: Option<u16>,
    event: &Event,
) -> String {
    let _ = write!(buf, "{{\"seq\":{seq},\"t\":{}", json_f64(t));
    if let Some(shard) = shard {
        let _ = write!(buf, ",\"shard\":{shard}");
    }
    if let Some(worker) = worker {
        let _ = write!(buf, ",\"worker\":{worker}");
    }
    match *event {
        Event::IncrementIngested {
            seq: inc_seq,
            profiles,
        } => {
            let _ = write!(
                buf,
                ",\"event\":\"IncrementIngested\",\"inc\":{inc_seq},\"profiles\":{profiles}"
            );
        }
        Event::BlockBuilt { block } => {
            let _ = write!(buf, ",\"event\":\"BlockBuilt\",\"block\":{block}");
        }
        Event::BlockPurged { block, size } => {
            let _ = write!(
                buf,
                ",\"event\":\"BlockPurged\",\"block\":{block},\"size\":{size}"
            );
        }
        Event::BlockGhosted {
            profile,
            kept,
            dropped,
        } => {
            let _ = write!(
                buf,
                ",\"event\":\"BlockGhosted\",\"profile\":{},\"kept\":{kept},\"dropped\":{dropped}",
                profile.0
            );
        }
        Event::ComparisonEmitted { cmp, weight } => {
            let _ = write!(
                buf,
                ",\"event\":\"ComparisonEmitted\",\"a\":{},\"b\":{},\"weight\":{}",
                cmp.a.0,
                cmp.b.0,
                json_f64(weight)
            );
        }
        Event::CfFiltered { cmp } => {
            let _ = write!(
                buf,
                ",\"event\":\"CfFiltered\",\"a\":{},\"b\":{}",
                cmp.a.0, cmp.b.0
            );
        }
        Event::AdaptiveKChanged { old_k, new_k } => {
            let _ = write!(
                buf,
                ",\"event\":\"AdaptiveKChanged\",\"old_k\":{old_k},\"new_k\":{new_k}"
            );
        }
        Event::MatchConfirmed {
            cmp,
            similarity,
            at_secs,
        } => {
            let _ = write!(
                buf,
                ",\"event\":\"MatchConfirmed\",\"a\":{},\"b\":{},\"similarity\":{},\"at_secs\":{}",
                cmp.a.0,
                cmp.b.0,
                json_f64(similarity),
                json_f64(at_secs)
            );
        }
        Event::PhaseTiming { phase, secs } => {
            let _ = write!(
                buf,
                ",\"event\":\"PhaseTiming\",\"phase\":\"{}\",\"secs\":{}",
                phase.name(),
                json_f64(secs)
            );
        }
        Event::WorkerRestarted {
            role,
            lane,
            recovery_secs,
        } => {
            let _ = write!(
                buf,
                ",\"event\":\"WorkerRestarted\",\"role\":\"{}\",\"lane\":{lane},\"recovery_secs\":{}",
                role.name(),
                json_f64(recovery_secs)
            );
        }
        Event::DeadLettered { reason, a, b } => {
            let _ = write!(
                buf,
                ",\"event\":\"DeadLettered\",\"reason\":\"{}\",\"a\":{},\"b\":{}",
                reason.name(),
                a.0,
                b.0
            );
        }
        Event::ComparisonsShed { count } => {
            let _ = write!(buf, ",\"event\":\"ComparisonsShed\",\"count\":{count}");
        }
    }
    buf.push('}');
    buf
}

/// Formats an `f64` as a JSON number (non-finite values, which no event
/// legitimately produces, degrade to 0).
fn json_f64(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// One parsed line of an `events.jsonl` file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Write-order sequence number (1-based).
    pub seq: u64,
    /// Receive-time seconds since observer creation.
    pub t: f64,
    /// The stage-A shard the event was attributed to, if the emitting
    /// handle was shard-tagged (see `Observer::for_shard`).
    pub shard: Option<u16>,
    /// The stage-B match worker the event was attributed to, if the
    /// emitting handle was worker-tagged (see `Observer::for_worker`).
    pub worker: Option<u16>,
    /// The event payload.
    pub event: Event,
}

/// Reads back an `events.jsonl` file written by [`JsonlObserver`].
///
/// # Errors
/// Returns an I/O error if the file cannot be read, or
/// `InvalidData` for lines that do not parse as events.
pub fn read_events(path: impl AsRef<Path>) -> io::Result<Vec<TimedEvent>> {
    let reader = BufReader::new(File::open(path)?);
    let mut events = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let ev = parse_line(&line).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("events.jsonl line {}: unparseable event", lineno + 1),
            )
        })?;
        events.push(ev);
    }
    Ok(events)
}

/// Replays the pair-completeness trajectory of an exported run: every
/// `ComparisonEmitted` event is credited against `ground_truth` (each
/// ground-truth match counted once), timestamped with the export's
/// receive time.
pub fn replay_trajectory(events: &[TimedEvent], ground_truth: &GroundTruth) -> ProgressTrajectory {
    let mut trajectory = ProgressTrajectory::for_ground_truth(ground_truth);
    let mut ledger = MatchLedger::new();
    let mut last_t = 0.0f64;
    for ev in events {
        if let Event::ComparisonEmitted { cmp, .. } = ev.event {
            // Receive times are monotone per observer; clamp defensively
            // for hand-edited files.
            last_t = last_t.max(ev.t);
            trajectory.record(last_t, ledger.credit(ground_truth, cmp));
        }
    }
    trajectory.finish(last_t);
    trajectory
}

/// Counts distinct confirmed matches in an exported run — the replayed
/// analogue of `RuntimeReport::matches.len()`.
pub fn replay_match_count(events: &[TimedEvent]) -> usize {
    let mut seen = std::collections::HashSet::new();
    events
        .iter()
        .filter(|ev| match ev.event {
            Event::MatchConfirmed { cmp, .. } => seen.insert(cmp),
            _ => false,
        })
        .count()
}

/// `progress` counter samples come one per this many emitted comparisons
/// (and one per confirmed match).
const COUNTER_EVERY: u64 = 256;

/// Trace rows: stage A, stage B, then one per shard and one per match
/// worker.
const TID_STAGE_A: u32 = 1;
const TID_STAGE_B: u32 = 2;
const TID_SHARD_BASE: u32 = 100;
const TID_WORKER_BASE: u32 = 200;

/// The trace row an event is drawn on, or `None` for events the trace
/// leaves out. A worker tag wins over a shard tag; an untagged timing sits
/// on its stage's row; a match belongs to stage B or to the worker that
/// confirmed it.
fn trace_row(ev: &TimedEvent) -> Option<u32> {
    let timing = match ev.event {
        Event::PhaseTiming { phase, .. } => Some(phase),
        Event::MatchConfirmed { .. } => None,
        _ => return None,
    };
    Some(match (ev.worker, ev.shard, timing) {
        (Some(w), _, _) => TID_WORKER_BASE + u32::from(w),
        (None, Some(s), Some(_)) => TID_SHARD_BASE + u32::from(s),
        (None, _, Some(Phase::Block | Phase::Weight)) => TID_STAGE_A,
        _ => TID_STAGE_B,
    })
}

fn trace_row_name(tid: u32) -> String {
    match tid {
        TID_STAGE_A => "stage A (block+weight)".to_string(),
        TID_STAGE_B => "stage B (prune+classify)".to_string(),
        t if t >= TID_WORKER_BASE => format!("match worker {}", t - TID_WORKER_BASE),
        t => format!("shard {}", t - TID_SHARD_BASE),
    }
}

/// Replays an exported run as one chrome-trace / Perfetto `trace_event`
/// document (`{"displayTimeUnit":"ms","traceEvents":[...]}`), which opens
/// in `ui.perfetto.dev` or `chrome://tracing`:
///
/// * one `M` thread-name record per row in use — stage A (1), stage B (2),
///   shard `s` (100 + s), match worker `w` (200 + w);
/// * one `X` span per `PhaseTiming`. A phase is reported when it ends, so
///   the span starts at `t − secs` (floored at 0) and lasts at least 1 µs,
///   since Perfetto hides empty spans;
/// * one `match` instant per `MatchConfirmed`, carrying its similarity;
/// * a cumulative `progress` counter (comparisons, matches) every
///   256 emitted comparisons and at every match.
///
/// Times are the log's receive times, in microseconds.
pub fn write_chrome_trace(events: &[TimedEvent], out: impl Write) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    let us = |secs: f64| (secs.max(0.0) * 1e6) as u64;
    let mut records = 0usize;
    let mut record = |out: &mut BufWriter<_>, body: std::fmt::Arguments<'_>| {
        if records > 0 {
            out.write_all(b",\n")?;
        }
        records += 1;
        out.write_fmt(body)
    };
    out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut rows: Vec<u32> = events.iter().filter_map(trace_row).collect();
    rows.sort_unstable();
    rows.dedup();
    for tid in rows {
        let name = trace_row_name(tid);
        record(
            &mut out,
            format_args!("{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"),
        )?;
    }
    let (mut comparisons, mut matches) = (0u64, 0u64);
    for ev in events {
        let ts = us(ev.t);
        let sample = match (ev.event, trace_row(ev)) {
            (Event::PhaseTiming { phase, secs }, Some(tid)) => {
                let (name, dur) = (phase.name(), us(secs));
                let start = ts.saturating_sub(dur);
                let dur = dur.max(1);
                record(
                    &mut out,
                    format_args!("{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{start},\"dur\":{dur},\"cat\":\"phase\",\"name\":\"{name}\"}}"),
                )?;
                false
            }
            (Event::MatchConfirmed { similarity, .. }, Some(tid)) => {
                matches += 1;
                let sim = json_f64(similarity);
                record(
                    &mut out,
                    format_args!("{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":\"match\",\"args\":{{\"similarity\":{sim}}}}}"),
                )?;
                true
            }
            (Event::ComparisonEmitted { .. }, _) => {
                comparisons += 1;
                comparisons.is_multiple_of(COUNTER_EVERY)
            }
            _ => false,
        };
        if sample {
            record(
                &mut out,
                format_args!("{{\"ph\":\"C\",\"pid\":1,\"ts\":{ts},\"name\":\"progress\",\"args\":{{\"comparisons\":{comparisons},\"matches\":{matches}}}}}"),
            )?;
        }
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

// ---------------------------------------------------------------------
// Minimal flat-JSON parsing (exactly the subset `write_line` produces).
// ---------------------------------------------------------------------

fn parse_line(line: &str) -> Option<TimedEvent> {
    let fields = parse_flat_object(line)?;
    let num = |k: &str| -> Option<f64> {
        match fields.iter().find(|(key, _)| key == k)?.1 {
            JsonValue::Num(n) => Some(n),
            _ => None,
        }
    };
    let text = |k: &str| -> Option<&str> {
        match &fields.iter().find(|(key, _)| key == k)?.1 {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    };
    let pair = || -> Option<Comparison> {
        Some(Comparison::new(
            ProfileId(num("a")? as u32),
            ProfileId(num("b")? as u32),
        ))
    };
    let event = match text("event")? {
        "IncrementIngested" => Event::IncrementIngested {
            seq: num("inc")? as u64,
            profiles: num("profiles")? as usize,
        },
        "BlockBuilt" => Event::BlockBuilt {
            block: num("block")? as u32,
        },
        "BlockPurged" => Event::BlockPurged {
            block: num("block")? as u32,
            size: num("size")? as usize,
        },
        "BlockGhosted" => Event::BlockGhosted {
            profile: ProfileId(num("profile")? as u32),
            kept: num("kept")? as usize,
            dropped: num("dropped")? as usize,
        },
        "ComparisonEmitted" => Event::ComparisonEmitted {
            cmp: pair()?,
            weight: num("weight")?,
        },
        "CfFiltered" => Event::CfFiltered { cmp: pair()? },
        "AdaptiveKChanged" => Event::AdaptiveKChanged {
            old_k: num("old_k")? as usize,
            new_k: num("new_k")? as usize,
        },
        "MatchConfirmed" => Event::MatchConfirmed {
            cmp: pair()?,
            similarity: num("similarity")?,
            at_secs: num("at_secs")?,
        },
        "PhaseTiming" => Event::PhaseTiming {
            phase: Phase::from_name(text("phase")?)?,
            secs: num("secs")?,
        },
        "WorkerRestarted" => Event::WorkerRestarted {
            role: WorkerRole::from_name(text("role")?)?,
            lane: num("lane")? as u16,
            recovery_secs: num("recovery_secs")?,
        },
        "DeadLettered" => Event::DeadLettered {
            reason: DeadLetterReason::from_name(text("reason")?)?,
            a: ProfileId(num("a")? as u32),
            b: ProfileId(num("b")? as u32),
        },
        "ComparisonsShed" => Event::ComparisonsShed {
            count: num("count")? as usize,
        },
        _ => return None,
    };
    Some(TimedEvent {
        seq: num("seq")? as u64,
        t: num("t")?,
        shard: num("shard").map(|s| s as u16),
        worker: num("worker").map(|w| w as u16),
        event,
    })
}

enum JsonValue {
    Num(f64),
    Str(String),
}

/// Parses `{"key":value,...}` where values are numbers or simple strings
/// (escapes `\"`, `\\`, `\n`, `\t`, `\r` supported). Returns `None` on any
/// deviation — strict enough for our own output.
fn parse_flat_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let mut chars = line.trim().chars().peekable();
    if chars.next()? != '{' {
        return None;
    }
    let mut fields = Vec::new();
    loop {
        match chars.peek()? {
            '}' => {
                chars.next();
                break;
            }
            ',' => {
                chars.next();
            }
            _ => {}
        }
        let key = parse_string(&mut chars)?;
        if chars.next()? != ':' {
            return None;
        }
        let value = match chars.peek()? {
            '"' => JsonValue::Str(parse_string(&mut chars)?),
            _ => {
                let mut num = String::new();
                while let Some(&c) = chars.peek() {
                    if c == ',' || c == '}' {
                        break;
                    }
                    num.push(c);
                    chars.next();
                }
                JsonValue::Num(num.trim().parse().ok()?)
            }
        };
        fields.push((key, value));
    }
    Some(fields)
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => out.push(match chars.next()? {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                c => c, // \" and \\ fall through as themselves
            }),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Observer;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pier-observe-{}-{name}", std::process::id()))
    }

    fn all_event_kinds() -> Vec<Event> {
        let cmp = Comparison::new(ProfileId(4), ProfileId(11));
        vec![
            Event::IncrementIngested {
                seq: 1,
                profiles: 20,
            },
            Event::BlockBuilt { block: 7 },
            Event::BlockPurged { block: 7, size: 64 },
            Event::BlockGhosted {
                profile: ProfileId(4),
                kept: 3,
                dropped: 2,
            },
            Event::ComparisonEmitted { cmp, weight: 2.5 },
            Event::CfFiltered { cmp },
            Event::AdaptiveKChanged {
                old_k: 64,
                new_k: 83,
            },
            Event::MatchConfirmed {
                cmp,
                similarity: 0.875,
                at_secs: 1.25,
            },
            Event::PhaseTiming {
                phase: Phase::Prune,
                secs: 0.003,
            },
            Event::WorkerRestarted {
                role: WorkerRole::Shard,
                lane: 2,
                recovery_secs: 0.0125,
            },
            Event::DeadLettered {
                reason: DeadLetterReason::PoisonedProfile,
                a: ProfileId(4),
                b: ProfileId(4),
            },
            Event::ComparisonsShed { count: 17 },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        let path = temp_path("roundtrip.jsonl");
        let events = all_event_kinds();
        {
            let obs = JsonlObserver::create(&path).unwrap();
            for e in &events {
                obs.on_event(e);
            }
            assert_eq!(obs.events_written(), events.len() as u64);
        } // drop flushes
        let read = read_events(&path).unwrap();
        assert_eq!(read.len(), events.len());
        for (i, (got, want)) in read.iter().zip(&events).enumerate() {
            assert_eq!(got.seq, i as u64 + 1);
            assert!(got.t >= 0.0);
            assert_eq!(&got.event, want, "event {i}");
        }
        // seq and t are monotone.
        assert!(read
            .windows(2)
            .all(|w| w[0].seq < w[1].seq && w[0].t <= w[1].t));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn for_run_creates_the_conventional_layout() {
        let run_id = format!("jsonl-test-{}", std::process::id());
        let obs = JsonlObserver::for_run(&run_id).unwrap();
        assert!(obs
            .path()
            .ends_with(Path::new("experiments").join(&run_id).join("events.jsonl")));
        obs.on_event(&Event::BlockBuilt { block: 1 });
        obs.flush().unwrap();
        assert_eq!(read_events(obs.path()).unwrap().len(), 1);
        let dir = obs.path().parent().unwrap().to_path_buf();
        drop(obs);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn replay_rebuilds_the_pc_trajectory() {
        let gt =
            GroundTruth::from_pairs([(ProfileId(0), ProfileId(1)), (ProfileId(2), ProfileId(3))]);
        let path = temp_path("replay.jsonl");
        {
            let obs = JsonlObserver::create(&path).unwrap();
            let emit = |a: u32, b: u32| {
                obs.on_event(&Event::ComparisonEmitted {
                    cmp: Comparison::new(ProfileId(a), ProfileId(b)),
                    weight: 1.0,
                })
            };
            emit(0, 1); // match
            emit(0, 2); // miss
            emit(0, 1); // repeat — must not double-credit
            emit(2, 3); // match
        }
        let events = read_events(&path).unwrap();
        let t = replay_trajectory(&events, &gt);
        assert_eq!(t.matches(), 2);
        assert_eq!(t.comparisons(), 4);
        assert!((t.pc() - 1.0).abs() < 1e-12);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn replay_match_count_deduplicates() {
        let cmp = Comparison::new(ProfileId(0), ProfileId(1));
        let mk = |event| TimedEvent {
            seq: 0,
            t: 0.0,
            shard: None,
            worker: None,
            event,
        };
        let events = vec![
            mk(Event::MatchConfirmed {
                cmp,
                similarity: 1.0,
                at_secs: 0.0,
            }),
            mk(Event::MatchConfirmed {
                cmp,
                similarity: 1.0,
                at_secs: 0.1,
            }),
            mk(Event::BlockBuilt { block: 0 }),
        ];
        assert_eq!(replay_match_count(&events), 1);
    }

    fn at(t: f64, shard: Option<u16>, worker: Option<u16>, event: Event) -> TimedEvent {
        TimedEvent {
            seq: 0,
            t,
            shard,
            worker,
            event,
        }
    }

    fn chrome_trace(events: &[TimedEvent]) -> String {
        let mut out = Vec::new();
        write_chrome_trace(events, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn phases_become_spans_on_the_right_rows() {
        let timing = |phase, secs| Event::PhaseTiming { phase, secs };
        let mut events: Vec<TimedEvent> = Phase::ALL
            .into_iter()
            .map(|phase| at(0.002, None, None, timing(phase, 1e-4)))
            .collect();
        events.push(at(0.002, Some(3), None, timing(Phase::Block, 1e-5)));
        events.push(at(0.002, None, Some(1), timing(Phase::Classify, 1e-5)));
        let text = chrome_trace(&events);
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        for phase in ["block", "weight", "prune", "classify"] {
            assert!(text.contains(&format!("\"name\":\"{phase}\"")), "{phase}");
        }
        // Row assignment: untagged block on stage A, shard 3 at 103,
        // worker 1 at 201; metadata rows name them.
        assert!(text.contains("\"tid\":1,"));
        assert!(text.contains("\"tid\":103,"));
        assert!(text.contains("\"tid\":201,"));
        assert!(text.contains("stage A (block+weight)"));
        assert!(text.contains("shard 3"));
        assert!(text.contains("match worker 1"));
        // A span is laid backwards from its report: 2 000 - 100 µs.
        assert!(text.contains("\"tid\":1,\"ts\":1900,\"dur\":100,"));
    }

    #[test]
    fn matches_become_instants_with_a_counter_series() {
        let cmp = Comparison::new(ProfileId(0), ProfileId(1));
        let mut events: Vec<TimedEvent> = (0..COUNTER_EVERY)
            .map(|_| {
                at(
                    0.001,
                    None,
                    None,
                    Event::ComparisonEmitted { cmp, weight: 1.0 },
                )
            })
            .collect();
        let confirmed = Event::MatchConfirmed {
            cmp,
            similarity: 0.875,
            at_secs: 0.01,
        };
        events.push(at(0.01, None, None, confirmed));
        let text = chrome_trace(&events);
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"similarity\":0.875"));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains(&format!("\"comparisons\":{COUNTER_EVERY}")));
        assert!(text.contains("\"matches\":1"));
        // One sample at the 256th comparison, one at the match.
        assert_eq!(text.matches("\"ph\":\"C\"").count(), 2);
    }

    #[test]
    fn span_start_never_underflows() {
        // A duration far longer than the log had run.
        let timing = Event::PhaseTiming {
            phase: Phase::Classify,
            secs: 1e6,
        };
        let text = chrome_trace(&[at(0.001, None, None, timing)]);
        assert!(text.contains("\"ts\":0,"));
    }

    #[test]
    fn shard_tag_round_trips() {
        let path = temp_path("shard.jsonl");
        {
            let obs = JsonlObserver::create(&path).unwrap();
            obs.on_event(&Event::BlockBuilt { block: 1 });
            obs.on_shard_event(3, &Event::BlockBuilt { block: 2 });
            let handle = Observer::from_sink(obs).for_shard(5);
            handle.emit(|| Event::CfFiltered {
                cmp: Comparison::new(ProfileId(0), ProfileId(1)),
            });
        } // drop flushes
        let read = read_events(&path).unwrap();
        assert_eq!(read.len(), 3);
        assert_eq!(read[0].shard, None);
        assert_eq!(read[1].shard, Some(3));
        assert_eq!(read[1].event, Event::BlockBuilt { block: 2 });
        assert_eq!(read[2].shard, Some(5));
        assert!(read.iter().all(|e| e.worker.is_none()));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn worker_tag_round_trips() {
        let path = temp_path("worker.jsonl");
        {
            let obs = JsonlObserver::create(&path).unwrap();
            obs.on_worker_event(
                2,
                &Event::PhaseTiming {
                    phase: Phase::Classify,
                    secs: 0.004,
                },
            );
            let handle = Observer::from_sink(obs).for_worker(7);
            handle.emit(|| Event::PhaseTiming {
                phase: Phase::Classify,
                secs: 0.001,
            });
        } // drop flushes
        let read = read_events(&path).unwrap();
        assert_eq!(read.len(), 2);
        assert_eq!(read[0].worker, Some(2));
        assert_eq!(read[0].shard, None);
        assert_eq!(
            read[0].event,
            Event::PhaseTiming {
                phase: Phase::Classify,
                secs: 0.004
            }
        );
        assert_eq!(read[1].worker, Some(7));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn unparseable_line_is_invalid_data() {
        let path = temp_path("bad.jsonl");
        fs::write(&path, "{\"seq\":1,\"t\":0,\"event\":\"NoSuchEvent\"}\n").unwrap();
        let err = read_events(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn observer_handle_integration() {
        let path = temp_path("handle.jsonl");
        let obs = Observer::from_sink(JsonlObserver::create(&path).unwrap());
        obs.emit(|| Event::BlockBuilt { block: 3 });
        drop(obs); // flush via Drop
        assert_eq!(read_events(&path).unwrap().len(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn finish_flushes_and_returns_the_path() {
        let path = temp_path("finish.jsonl");
        let obs = JsonlObserver::create(&path).unwrap();
        obs.on_event(&Event::BlockBuilt { block: 1 });
        let finished = obs.finish().unwrap();
        assert_eq!(finished, path);
        assert_eq!(read_events(&path).unwrap().len(), 1);
        let _ = fs::remove_file(&path);
    }

    /// `/dev/full` accepts opens and fails every write with ENOSPC — the
    /// canonical disk-full simulation.
    #[cfg(target_os = "linux")]
    fn dev_full_observer() -> Option<JsonlObserver> {
        if !Path::new("/dev/full").exists() {
            return None; // minimal container without device nodes
        }
        JsonlObserver::create("/dev/full").ok()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn write_errors_are_retained_and_surface_on_flush() {
        let Some(obs) = dev_full_observer() else {
            return;
        };
        // Push well past the BufWriter's buffer so write_all hits the
        // device; the hook itself must absorb the failure.
        for i in 0..10_000 {
            obs.on_event(&Event::BlockBuilt { block: i });
        }
        let err = obs.flush().expect_err("ENOSPC must surface");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // The error was consumed; only failures after it resurface (and
        // the still-buffered tail fails again right here).
        assert!(obs.events_written() == 10_000);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn finish_reports_write_errors() {
        let Some(obs) = dev_full_observer() else {
            return;
        };
        for i in 0..10_000 {
            obs.on_event(&Event::BlockBuilt { block: i });
        }
        assert!(obs.finish().is_err());
    }

    #[test]
    fn for_run_rejects_path_escapes() {
        for bad in ["", "..", "a/b", "..\\up"] {
            match JsonlObserver::for_run(bad) {
                Err(err) => assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad:?}"),
                Ok(o) => panic!("{bad:?} accepted, writes to {}", o.path().display()),
            }
        }
    }
}
