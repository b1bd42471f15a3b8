//! Property-based fuzzing of every emitter over randomized tiny streams.
//!
//! For arbitrary profile contents, increment boundaries and ER kinds, all
//! ten algorithms must: terminate, never emit a pair twice, only emit
//! valid pairs, and stay deterministic.

use proptest::prelude::*;

// `pier::prelude::*` would also glob-import `pier::prelude::Strategy`
// (the PIER strategy enum), which collides with proptest's `Strategy`
// trait — import what the test needs explicitly instead.
use pier::prelude::{
    Comparison, EntityProfile, ErKind, IncrementalBlocker, PierConfig, ProfileId, SourceId,
};
use pier::sim::Method;

/// A randomized tiny corpus: each profile gets 1–3 values assembled from a
/// small token pool (so blocks actually form), plus increments cut at
/// random points.
#[derive(Debug, Clone)]
struct RandomStream {
    profiles: Vec<EntityProfile>,
    cuts: Vec<usize>,
    kind: ErKind,
}

fn random_stream() -> impl proptest::strategy::Strategy<Value = RandomStream> {
    let pool = prop::sample::select(vec![
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
    ]);
    let value = prop::collection::vec(pool, 1..5).prop_map(|ws| ws.join(" "));
    let profile_values = prop::collection::vec(value, 1..4);
    let profiles = prop::collection::vec(profile_values, 2..24);
    (profiles, any::<bool>(), any::<u64>()).prop_map(|(raw, clean_clean, cut_seed)| {
        let kind = if clean_clean {
            ErKind::CleanClean
        } else {
            ErKind::Dirty
        };
        let profiles: Vec<EntityProfile> = raw
            .into_iter()
            .enumerate()
            .map(|(i, values)| {
                let source = if clean_clean { (i % 2) as u8 } else { 0 };
                let mut p = EntityProfile::new(ProfileId(i as u32), SourceId(source));
                for (j, v) in values.into_iter().enumerate() {
                    p = p.with(format!("a{j}"), v);
                }
                p
            })
            .collect();
        // Deterministic pseudo-random increment cuts.
        let mut cuts = Vec::new();
        let mut s = cut_seed;
        for i in 1..profiles.len() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if s >> 62 == 0 {
                cuts.push(i);
            }
        }
        RandomStream {
            profiles,
            cuts,
            kind,
        }
    })
}

fn drive(method: Method, stream: &RandomStream) -> Vec<Comparison> {
    let mut blocker = IncrementalBlocker::new(stream.kind);
    let mut emitter = method.build(PierConfig::default());
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut bounds: Vec<usize> = stream.cuts.clone();
    bounds.push(stream.profiles.len());
    for end in bounds {
        if end <= start {
            continue;
        }
        let ids = blocker.process_increment(&stream.profiles[start..end]);
        emitter.on_increment(&blocker, &ids);
        out.extend(emitter.next_batch(&blocker, 4));
        start = end;
    }
    // Drain with idle ticks, with a hard iteration bound as a liveness
    // guard (termination is part of the property).
    for _ in 0..10_000 {
        let batch = emitter.next_batch(&blocker, 64);
        if !batch.is_empty() {
            out.extend(batch);
            continue;
        }
        let _ = emitter.drain_ops();
        emitter.on_increment(&blocker, &[]);
        if emitter.drain_ops() == 0 && !emitter.has_pending() {
            return out;
        }
    }
    panic!("{} did not terminate", method.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_emitter_upholds_its_contract(stream in random_stream()) {
        for method in [
            Method::Batch,
            Method::Pbs,
            Method::PpsGlobal,
            Method::PpsLocal,
            Method::IBase,
            Method::IPcs,
            Method::IPbs,
            Method::IPes,
            Method::LsPsn,
            Method::GsPsn,
        ] {
            let emitted = drive(method, &stream);
            // No duplicates, only canonical and valid pairs.
            let mut seen = std::collections::HashSet::new();
            for c in &emitted {
                prop_assert!(seen.insert(*c), "{} repeated {c}", method.name());
                prop_assert!(c.a < c.b);
                prop_assert!(c.b.index() < stream.profiles.len());
                if stream.kind == ErKind::CleanClean {
                    prop_assert_ne!(
                        stream.profiles[c.a.index()].source,
                        stream.profiles[c.b.index()].source,
                        "{} emitted same-source pair",
                        method.name()
                    );
                }
            }
            // Determinism.
            let again = drive(method, &stream);
            prop_assert_eq!(emitted, again, "{} non-deterministic", method.name());
        }
    }

    #[test]
    fn pier_methods_cover_the_blocked_pair_space(stream in random_stream()) {
        // The union of generation + fallback must cover every pair sharing
        // a block: repeats are decided exactly, so none is lost.
        let mut blocker = IncrementalBlocker::new(stream.kind);
        for p in &stream.profiles {
            blocker.process_profile(p.clone());
        }
        let expected: std::collections::HashSet<Comparison> = {
            let mut s = std::collections::HashSet::new();
            for a in 0..stream.profiles.len() {
                for b in (a + 1)..stream.profiles.len() {
                    let (pa, pb) = (ProfileId(a as u32), ProfileId(b as u32));
                    if stream.kind == ErKind::CleanClean
                        && stream.profiles[a].source == stream.profiles[b].source
                    {
                        continue;
                    }
                    if blocker.collection().common_blocks(pa, pb) > 0 {
                        s.insert(Comparison::new(pa, pb));
                    }
                }
            }
            s
        };
        for method in Method::pier() {
            let emitted: std::collections::HashSet<Comparison> =
                drive(method, &stream).into_iter().collect();
            for c in &expected {
                prop_assert!(
                    emitted.contains(c),
                    "{} missed blocked pair {c}",
                    method.name()
                );
            }
        }
    }
}
