//! Deterministic fault injection for the PIER pipeline.
//!
//! A [`FaultPlan`] names exact points in the pipeline (`stage_a_ingest`,
//! `shard_worker`, `merger`, `match_worker`, `entity_apply`) and schedules a
//! fault — a panic, a delay, a simulated channel-send failure, or a malformed
//! ("poison") profile — at an exact event count on an exact lane. Plans are
//! seeded and serializable so a chaos run is reproducible byte-for-byte.
//!
//! The runtime threads a [`ChaosHandle`] through its stages. When no plan is
//! armed the handle is a `None` and every [`ChaosHandle::trip`] call is a
//! single inlined branch — the same zero-cost discipline as
//! `pier_observe::Observer`.
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// A named injection site inside the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Stage-A ingest of one increment (router fan-out or single-topology loop).
    StageAIngest,
    /// A shard worker handling one `Ingest` message.
    ShardWorker,
    /// The stage-B merger pulling the next comparison batch.
    Merger,
    /// A stage-B chunk entering evaluation, whichever thread claimed it:
    /// a match helper (lane = its index), or the classifier or the lane
    /// (lane 0).
    MatchWorker,
    /// Applying a confirmed match: observer emit + match delivery.
    EntityApply,
}

impl FaultPoint {
    /// All fault points, in pipeline order.
    pub const ALL: [FaultPoint; 5] = [
        FaultPoint::StageAIngest,
        FaultPoint::ShardWorker,
        FaultPoint::Merger,
        FaultPoint::MatchWorker,
        FaultPoint::EntityApply,
    ];

    /// Stable wire name used in serialized plans and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::StageAIngest => "stage_a_ingest",
            FaultPoint::ShardWorker => "shard_worker",
            FaultPoint::Merger => "merger",
            FaultPoint::MatchWorker => "match_worker",
            FaultPoint::EntityApply => "entity_apply",
        }
    }

    /// Inverse of [`FaultPoint::name`].
    pub fn from_name(name: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.into_iter().find(|p| p.name() == name)
    }

    fn index(self) -> u8 {
        match self {
            FaultPoint::StageAIngest => 0,
            FaultPoint::ShardWorker => 1,
            FaultPoint::Merger => 2,
            FaultPoint::MatchWorker => 3,
            FaultPoint::EntityApply => 4,
        }
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (`trip` does not return).
    Panic,
    /// Sleep for the given number of milliseconds, then continue.
    Delay(u64),
    /// The site should behave as if its channel send failed once.
    SendFail,
    /// Stage-A ingest should append a poison profile to the increment.
    MalformedProfile,
}

impl FaultKind {
    /// Stable wire name used in serialized plans.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Delay(_) => "delay",
            FaultKind::SendFail => "send_fail",
            FaultKind::MalformedProfile => "malformed_profile",
        }
    }
}

/// One scheduled fault: fire `kind` at `point` the `at_event`-th time the
/// site trips (0-based), optionally restricted to one `lane` (shard or
/// worker index; `None` matches any lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Where the fault fires.
    pub point: FaultPoint,
    /// Lane restriction (`None` = any shard/worker).
    pub lane: Option<u16>,
    /// 0-based event count at the site after which the fault fires.
    pub at_event: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, serializable schedule of faults. Armed via
/// `RuntimeConfig::fault_plan`; the seed makes poison-profile ids and tokens
/// deterministic so equivalence runs are reproducible.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed deriving poison-profile ids and token text.
    pub seed: u64,
    /// Scheduled faults, checked in order at each trip.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults (arming it still exercises the chaos plumbing).
    pub fn empty(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Add a fault and return the plan (builder style).
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// Serialize as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.faults.len() * 80);
        out.push_str(&format!("{{\"seed\":{},\"faults\":[", self.seed));
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"point\":\"{}\"", f.point.name()));
            if let Some(lane) = f.lane {
                out.push_str(&format!(",\"lane\":{lane}"));
            }
            out.push_str(&format!(",\"at_event\":{}", f.at_event));
            out.push_str(&format!(",\"kind\":\"{}\"", f.kind.name()));
            if let FaultKind::Delay(ms) = f.kind {
                out.push_str(&format!(",\"millis\":{ms}"));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parse a plan previously produced by [`FaultPlan::to_json`] (or written
    /// by hand in the same shape). Returns a description of the first problem
    /// on malformed input.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let plan = p.plan()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(plan)
    }
}

/// Minimal recursive-descent parser for the exact plan shape — no general
/// JSON support, no external deps.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.pos < self.bytes.len() && self.bytes[self.pos] == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'"' {
            if self.bytes[self.pos] == b'\\' {
                return Err(format!("escape sequences unsupported at byte {}", self.pos));
            }
            self.pos += 1;
        }
        if self.pos >= self.bytes.len() {
            return Err("unterminated string".into());
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid utf-8 in string".to_string())?
            .to_string();
        self.pos += 1;
        Ok(s)
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected number at byte {}", start));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|_| format!("number out of range at byte {start}"))
    }

    fn plan(&mut self) -> Result<FaultPlan, String> {
        self.expect(b'{')?;
        let mut seed = 0u64;
        let mut faults = Vec::new();
        loop {
            if self.peek() == Some(b'}') {
                self.pos += 1;
                break;
            }
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "seed" => seed = self.number()?,
                "faults" => faults = self.faults()?,
                other => return Err(format!("unknown plan key \"{other}\"")),
            }
            if self.peek() == Some(b',') {
                self.pos += 1;
            }
        }
        Ok(FaultPlan { seed, faults })
    }

    fn faults(&mut self) -> Result<Vec<Fault>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Some(b']') => {
                    self.pos += 1;
                    break;
                }
                Some(b'{') => {
                    out.push(self.fault()?);
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    }
                }
                _ => return Err(format!("expected fault object at byte {}", self.pos)),
            }
        }
        Ok(out)
    }

    fn fault(&mut self) -> Result<Fault, String> {
        self.expect(b'{')?;
        let mut point = None;
        let mut lane = None;
        let mut at_event = 0u64;
        let mut kind_name = None;
        let mut millis = 0u64;
        loop {
            if self.peek() == Some(b'}') {
                self.pos += 1;
                break;
            }
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "point" => {
                    let name = self.string()?;
                    point = Some(
                        FaultPoint::from_name(&name)
                            .ok_or_else(|| format!("unknown fault point \"{name}\""))?,
                    );
                }
                "lane" => {
                    let n = self.number()?;
                    lane = Some(u16::try_from(n).map_err(|_| format!("lane {n} out of range"))?);
                }
                "at_event" => at_event = self.number()?,
                "kind" => kind_name = Some(self.string()?),
                "millis" => millis = self.number()?,
                other => return Err(format!("unknown fault key \"{other}\"")),
            }
            if self.peek() == Some(b',') {
                self.pos += 1;
            }
        }
        let point = point.ok_or_else(|| "fault missing \"point\"".to_string())?;
        let kind = match kind_name.as_deref() {
            Some("panic") => FaultKind::Panic,
            Some("delay") => FaultKind::Delay(millis),
            Some("send_fail") => FaultKind::SendFail,
            Some("malformed_profile") => FaultKind::MalformedProfile,
            Some(other) => return Err(format!("unknown fault kind \"{other}\"")),
            None => return Err("fault missing \"kind\"".into()),
        };
        Ok(Fault {
            point,
            lane,
            at_event,
            kind,
        })
    }
}

/// Lane key inside the injector: `u16::MAX` stands for "no lane" so wildcard
/// and per-lane counters stay distinct.
const NO_LANE: u16 = u16::MAX;

/// Lowest profile id a minted poison profile can carry. High enough to clear
/// any test corpus, but deliberately modest: several pipeline structures
/// (the global profile store, the weighting scratch accumulator) are dense
/// vectors indexed by profile id, so an astronomically large poison id would
/// allocate gigabytes the moment it is stored.
pub const POISON_ID_BASE: u32 = 0x0020_0000;

struct InjectorState {
    /// Per-(point, lane) trip counters. Wildcard faults consume the per-lane
    /// counter of whatever lane trips, so "the 2nd event on any shard" is
    /// well-defined per shard.
    counters: HashMap<(u8, u16), u64>,
    /// One-shot flags, parallel to `plan.faults`.
    fired: Vec<bool>,
    /// Profile ids registered as poison; checked on every ingest.
    poison_ids: HashSet<u32>,
    /// How many poison payloads have been handed out (distinct ids).
    injected_poisons: u32,
}

/// The armed side of a [`ChaosHandle`]: interior-mutable fault schedule.
pub struct ChaosInjector {
    plan: FaultPlan,
    state: Mutex<InjectorState>,
}

impl ChaosInjector {
    fn new(plan: FaultPlan) -> ChaosInjector {
        let fired = vec![false; plan.faults.len()];
        ChaosInjector {
            plan,
            state: Mutex::new(InjectorState {
                counters: HashMap::new(),
                fired,
                poison_ids: HashSet::new(),
                injected_poisons: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, InjectorState> {
        // A panic while holding the lock is exactly what chaos injects; the
        // state is still valid, so recover it.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record one event at `(point, lane)` and return the fault that fires
    /// now, if any. The caller applies the fault.
    fn trip(&self, point: FaultPoint, lane: Option<u16>) -> Option<FaultKind> {
        let lane_key = lane.unwrap_or(NO_LANE);
        let mut st = self.lock();
        let count = st.counters.entry((point.index(), lane_key)).or_insert(0);
        let event = *count;
        *count += 1;
        for (i, f) in self.plan.faults.iter().enumerate() {
            if st.fired[i] || f.point != point || f.at_event != event {
                continue;
            }
            let lane_ok = match f.lane {
                None => true,
                Some(l) => l == lane_key,
            };
            if lane_ok {
                st.fired[i] = true;
                return Some(f.kind);
            }
        }
        None
    }

    /// Mint a deterministic poison profile: a fresh id (derived from the plan
    /// seed, offset past any corpus id) plus attribute text whose tokens
    /// collide with nothing real, so ghost floors of real profiles are
    /// untouched.
    fn poison_payload(&self) -> (u32, String) {
        let mut st = self.lock();
        let n = st.injected_poisons;
        st.injected_poisons += 1;
        let id = POISON_ID_BASE + (((self.plan.seed as u32) & 0xFF) << 8) + (n & 0xFF);
        st.poison_ids.insert(id);
        // Single alphanumeric runs: the pipeline tokenizer splits on
        // non-alphanumerics, so embedding the seed/counter with separators
        // would shed common tokens ("chaos", "7") into real blocks. These
        // two tokens can collide with nothing a corpus generates.
        let seed = self.plan.seed;
        let text = format!("zchaospoison{seed}q{n}a zchaospoison{seed}q{n}b");
        (id, text)
    }

    fn is_poison(&self, profile: u32) -> bool {
        self.lock().poison_ids.contains(&profile)
    }
}

impl fmt::Debug for ChaosInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosInjector")
            .field("plan", &self.plan)
            .finish()
    }
}

/// Shared handle to an optional fault injector. Cloning is cheap; a disabled
/// handle costs one branch per trip.
#[derive(Debug, Clone, Default)]
pub struct ChaosHandle {
    injector: Option<Arc<ChaosInjector>>,
}

impl ChaosHandle {
    /// A handle that never fires.
    pub fn disabled() -> ChaosHandle {
        ChaosHandle { injector: None }
    }

    /// Arm a plan.
    pub fn armed(plan: FaultPlan) -> ChaosHandle {
        ChaosHandle {
            injector: Some(Arc::new(ChaosInjector::new(plan))),
        }
    }

    /// Arm when a plan is present, otherwise disabled.
    pub fn from_plan(plan: Option<FaultPlan>) -> ChaosHandle {
        match plan {
            Some(p) => ChaosHandle::armed(p),
            None => ChaosHandle::disabled(),
        }
    }

    /// Whether a plan is armed. Sites may use this to skip `catch_unwind`
    /// wrappers entirely on the fault-free hot path.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.injector.is_some()
    }

    /// Record one event at a fault point. [`FaultKind::Panic`] panics here;
    /// [`FaultKind::Delay`] sleeps here and then reports itself; the other
    /// kinds are returned for the site to act on. Disabled handles return
    /// `None` after a single branch.
    #[inline]
    pub fn trip(&self, point: FaultPoint, lane: Option<u16>) -> Option<FaultKind> {
        let inj = self.injector.as_ref()?;
        match inj.trip(point, lane) {
            Some(FaultKind::Panic) => {
                panic!("chaos: injected panic at {point}")
            }
            Some(FaultKind::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                Some(FaultKind::Delay(ms))
            }
            other => other,
        }
    }

    /// Panic if `profile` is a registered poison id. Unlike scheduled faults
    /// this fires **every** time, so a post-recovery retry deterministically
    /// re-identifies the poison profile and can quarantine it.
    #[inline]
    pub fn poison_trip(&self, profile: u32) {
        if let Some(inj) = &self.injector {
            if inj.is_poison(profile) {
                panic!("chaos: poison profile {profile}")
            }
        }
    }

    /// Mint and register a poison profile payload (id + attribute text).
    /// Only meaningful on an armed handle; disabled handles return `None`.
    pub fn poison_payload(&self) -> Option<(u32, String)> {
        self.injector.as_ref().map(|inj| inj.poison_payload())
    }

    /// Whether `profile` is a registered poison id.
    #[inline]
    pub fn is_poison(&self, profile: u32) -> bool {
        match &self.injector {
            Some(inj) => inj.is_poison(profile),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::empty(7)
            .with(Fault {
                point: FaultPoint::ShardWorker,
                lane: Some(1),
                at_event: 2,
                kind: FaultKind::Panic,
            })
            .with(Fault {
                point: FaultPoint::Merger,
                lane: None,
                at_event: 3,
                kind: FaultKind::Delay(25),
            })
            .with(Fault {
                point: FaultPoint::StageAIngest,
                lane: None,
                at_event: 1,
                kind: FaultKind::MalformedProfile,
            })
    }

    #[test]
    fn json_round_trip() {
        let p = plan();
        let text = p.to_json();
        let back = FaultPlan::from_json(&text).expect("round trip parses");
        assert_eq!(back, p);
    }

    #[test]
    fn json_round_trip_with_whitespace() {
        let text = r#"
            { "seed": 7,
              "faults": [
                { "point": "match_worker", "lane": 0, "at_event": 5, "kind": "panic" },
                { "point": "entity_apply", "at_event": 0, "kind": "send_fail" }
              ] }
        "#;
        let p = FaultPlan::from_json(text).expect("whitespace tolerated");
        assert_eq!(p.seed, 7);
        assert_eq!(p.faults.len(), 2);
        assert_eq!(p.faults[0].point, FaultPoint::MatchWorker);
        assert_eq!(p.faults[0].lane, Some(0));
        assert_eq!(p.faults[1].kind, FaultKind::SendFail);
        assert_eq!(p.faults[1].lane, None);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(FaultPlan::from_json("").is_err());
        assert!(FaultPlan::from_json("{\"seed\":1,\"faults\":[{\"kind\":\"panic\"}]}").is_err());
        assert!(FaultPlan::from_json(
            "{\"seed\":1,\"faults\":[{\"point\":\"nope\",\"kind\":\"panic\"}]}"
        )
        .is_err());
        assert!(FaultPlan::from_json("{\"seed\":1} extra").is_err());
    }

    #[test]
    fn point_names_round_trip() {
        for p in FaultPoint::ALL {
            assert_eq!(FaultPoint::from_name(p.name()), Some(p));
        }
        assert_eq!(FaultPoint::from_name("bogus"), None);
    }

    #[test]
    fn disabled_handle_never_fires() {
        let h = ChaosHandle::disabled();
        assert!(!h.is_armed());
        for _ in 0..10 {
            assert_eq!(h.trip(FaultPoint::Merger, None), None);
        }
        h.poison_trip(42);
        assert!(h.poison_payload().is_none());
    }

    #[test]
    fn faults_fire_once_at_exact_event() {
        let h = ChaosHandle::armed(FaultPlan::empty(1).with(Fault {
            point: FaultPoint::Merger,
            lane: None,
            at_event: 3,
            kind: FaultKind::SendFail,
        }));
        for _ in 0..3 {
            assert_eq!(h.trip(FaultPoint::Merger, None), None);
        }
        assert_eq!(h.trip(FaultPoint::Merger, None), Some(FaultKind::SendFail));
        // One-shot: never again.
        for _ in 0..10 {
            assert_eq!(h.trip(FaultPoint::Merger, None), None);
        }
    }

    #[test]
    fn lane_restriction_respected() {
        let h = ChaosHandle::armed(FaultPlan::empty(1).with(Fault {
            point: FaultPoint::ShardWorker,
            lane: Some(2),
            at_event: 0,
            kind: FaultKind::SendFail,
        }));
        assert_eq!(h.trip(FaultPoint::ShardWorker, Some(0)), None);
        assert_eq!(h.trip(FaultPoint::ShardWorker, Some(1)), None);
        assert_eq!(
            h.trip(FaultPoint::ShardWorker, Some(2)),
            Some(FaultKind::SendFail)
        );
    }

    #[test]
    fn wildcard_lane_counts_per_lane() {
        let h = ChaosHandle::armed(FaultPlan::empty(1).with(Fault {
            point: FaultPoint::ShardWorker,
            lane: None,
            at_event: 1,
            kind: FaultKind::SendFail,
        }));
        // Event 0 on each lane: nothing fires.
        assert_eq!(h.trip(FaultPoint::ShardWorker, Some(0)), None);
        assert_eq!(h.trip(FaultPoint::ShardWorker, Some(1)), None);
        // Event 1 on lane 1 fires the wildcard fault.
        assert_eq!(
            h.trip(FaultPoint::ShardWorker, Some(1)),
            Some(FaultKind::SendFail)
        );
        // And it is consumed for every lane afterwards.
        assert_eq!(h.trip(FaultPoint::ShardWorker, Some(0)), None);
    }

    #[test]
    fn injected_panic_panics() {
        let h = ChaosHandle::armed(FaultPlan::empty(1).with(Fault {
            point: FaultPoint::MatchWorker,
            lane: None,
            at_event: 0,
            kind: FaultKind::Panic,
        }));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.trip(FaultPoint::MatchWorker, None);
        }));
        assert!(err.is_err());
        // The panic consumed the fault.
        assert_eq!(h.trip(FaultPoint::MatchWorker, None), None);
    }

    #[test]
    fn poison_registration_and_repeat_panic() {
        let h = ChaosHandle::armed(FaultPlan::empty(7));
        let (id, text) = h.poison_payload().expect("armed handle mints poison");
        assert!(id >= POISON_ID_BASE);
        assert!(text.contains("zchaospoison7"));
        assert!(h.is_poison(id));
        assert!(!h.is_poison(id.wrapping_add(1)));
        // Poison trips are not one-shot: every encounter panics.
        for _ in 0..3 {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                h.poison_trip(id);
            }));
            assert!(err.is_err());
        }
        // Distinct payloads get distinct ids.
        let (id2, _) = h.poison_payload().unwrap();
        assert_ne!(id, id2);
    }

    #[test]
    fn delay_reports_itself() {
        let h = ChaosHandle::armed(FaultPlan::empty(1).with(Fault {
            point: FaultPoint::Merger,
            lane: None,
            at_event: 0,
            kind: FaultKind::Delay(1),
        }));
        let start = std::time::Instant::now();
        assert_eq!(h.trip(FaultPoint::Merger, None), Some(FaultKind::Delay(1)));
        assert!(start.elapsed() >= Duration::from_millis(1));
    }
}
