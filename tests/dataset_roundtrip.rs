//! Dataset export/import and generator-level integration checks.

use pier::prelude::*;
use pier::types::csv;

#[test]
fn generated_dataset_roundtrips_through_csv_files() {
    let d = generate_movies(&MoviesConfig {
        seed: 101,
        source0_size: 120,
        source1_size: 100,
        matches: 90,
    });
    let dir = std::env::temp_dir().join(format!("pier-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ppath = dir.join("profiles.csv");
    let gpath = dir.join("matches.csv");
    {
        let mut pf = std::io::BufWriter::new(std::fs::File::create(&ppath).unwrap());
        csv::write_profiles(&mut pf, &d).unwrap();
        let mut gf = std::io::BufWriter::new(std::fs::File::create(&gpath).unwrap());
        csv::write_ground_truth(&mut gf, &d.ground_truth).unwrap();
    }
    let d2 = csv::read_dataset(
        "movies",
        ErKind::CleanClean,
        std::io::BufReader::new(std::fs::File::open(&ppath).unwrap()),
        std::io::BufReader::new(std::fs::File::open(&gpath).unwrap()),
    )
    .unwrap();
    assert_eq!(d2.profiles, d.profiles);
    assert_eq!(d2.ground_truth.len(), d.ground_truth.len());
    for c in d.ground_truth.iter() {
        assert!(d2.ground_truth.is_match(c));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reimported_dataset_yields_identical_er_results() {
    let d = generate_bibliographic(&BibliographicConfig {
        seed: 55,
        source0_size: 100,
        source1_size: 90,
        matches: 80,
    });
    let mut pbuf = Vec::new();
    let mut gbuf = Vec::new();
    csv::write_profiles(&mut pbuf, &d).unwrap();
    csv::write_ground_truth(&mut gbuf, &d.ground_truth).unwrap();
    let d2 = csv::read_dataset(
        "bib",
        ErKind::CleanClean,
        std::io::BufReader::new(&pbuf[..]),
        std::io::BufReader::new(&gbuf[..]),
    )
    .unwrap();

    // Run the same ER pipeline on both and compare emissions.
    let run = |data: &Dataset| -> Vec<Comparison> {
        let mut stage_a = StageA::new(
            IncrementalBlocker::new(data.kind),
            Strategy::Pes.build(PierConfig::default()),
        );
        for inc in data.into_increments(5).unwrap() {
            stage_a.ingest(&inc.profiles);
        }
        std::iter::from_fn(|| {
            Some(stage_a.turn(true, 32, 32, |m, k| m.pull(k).0)).filter(|b| !b.is_empty())
        })
        .flatten()
        .collect()
    };
    assert_eq!(run(&d), run(&d2));
}

#[test]
fn all_standard_datasets_have_blocking_reachable_matches() {
    // Every ground-truth pair must share at least one token, or no
    // schema-agnostic blocking method could ever find it.
    for ds in StandardDataset::all() {
        // Down-scale for test speed where configs allow.
        let d = match ds {
            StandardDataset::DblpAcm => generate_bibliographic(&BibliographicConfig {
                seed: 7,
                source0_size: 260,
                source1_size: 230,
                matches: 220,
            }),
            StandardDataset::Movies => generate_movies(&MoviesConfig {
                seed: 7,
                source0_size: 300,
                source1_size: 250,
                matches: 230,
            }),
            StandardDataset::Census => generate_census(&CensusConfig {
                seed: 7,
                target_profiles: 500,
            }),
            StandardDataset::Dbpedia => generate_dbpedia(&DbpediaConfig {
                seed: 7,
                source0_size: 150,
                source1_size: 270,
                matches: 120,
            }),
        };
        let tok = Tokenizer::default();
        let mut unreachable = 0;
        for c in d.ground_truth.iter() {
            let ta = tok.profile_tokens(d.profile(c.a));
            let tb: std::collections::HashSet<String> =
                tok.profile_tokens(d.profile(c.b)).into_iter().collect();
            if !ta.iter().any(|t| tb.contains(t)) {
                unreachable += 1;
            }
        }
        assert_eq!(
            unreachable,
            0,
            "{}: {unreachable} matches share no token",
            ds.name()
        );
    }
}

#[test]
fn increment_split_preserves_ground_truth_reachability() {
    // Splitting must not drop or duplicate profiles, whatever the count.
    let d = generate_census(&CensusConfig {
        seed: 13,
        target_profiles: 333,
    });
    for n in [1usize, 2, 7, 50, 333] {
        let incs = d.into_increments(n).unwrap();
        let total: usize = incs.iter().map(|i| i.len()).sum();
        assert_eq!(total, d.len(), "split into {n}");
    }
}
