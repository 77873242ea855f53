//! Integration test for the file-based workflow that backs the `gup-match` CLI:
//! write graphs to disk in the `t/v/e` format, load them back, and run every matcher
//! family on the loaded copies. (The CLI binary itself is a thin argument parser over
//! exactly this path.)

use gup::session::Engine;
use gup::sink::CountOnly;
use gup::{GupConfig, GupMatcher, SearchLimits};
use gup_baselines::{brute_force, BacktrackingBaseline, BaselineKind, JoinBaseline};
use gup_graph::io::{load_graph, save_graph};
use gup_graph::PreparedData;
use gup_workloads::{generate_query_set, Dataset, QueryClass, QuerySetSpec};

/// Spawns the actual `gup-match` binary on fixture graphs written to disk and
/// checks that the count it reports on stdout matches the brute-force oracle, for
/// every matcher family the CLI exposes. This is the only test that exercises the
/// real argument parsing / exit-code / output-format surface end to end.
#[test]
fn gup_match_binary_reports_oracle_counts() {
    let dir = std::env::temp_dir().join(format!("gup_cli_exec_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let (query, data) = gup_graph::fixtures::paper_example();
    let data_path = dir.join("data.graph");
    let query_path = dir.join("query.graph");
    save_graph(&data, &data_path).unwrap();
    save_graph(&query, &query_path).unwrap();
    let expected = brute_force::count(&query, &data);
    assert!(
        expected > 0,
        "fixture must have embeddings for the test to be meaningful"
    );

    // `--method` takes exactly the engines' wire names.
    for method in Engine::ALL.map(Engine::wire_name) {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
            .args([
                "--data",
                data_path.to_str().unwrap(),
                "--query",
                query_path.to_str().unwrap(),
                "--method",
                method,
                "--limit",
                "0",
            ])
            .output()
            .expect("failed to spawn gup-match");
        assert!(
            output.status.success(),
            "gup-match --method {method} exited with {:?}; stderr: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).unwrap();
        let reported: u64 = stdout
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("embeddings=").and_then(|v| v.parse().ok()))
            .unwrap_or_else(|| panic!("no embeddings= field in gup-match output: {stdout:?}"));
        assert_eq!(
            reported, expected,
            "gup-match --method {method} reported {reported}, oracle says {expected}"
        );
    }

    // Any other name is a usage error, `gup-noguards` included.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
        .args([
            "--data",
            data_path.to_str().unwrap(),
            "--query",
            query_path.to_str().unwrap(),
            "--method",
            "gup-noguards",
        ])
        .output()
        .expect("failed to spawn gup-match");
    assert_eq!(output.status.code(), Some(2), "--method gup-noguards");

    // A multi-threaded run through the CLI must agree as well.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
        .args([
            "--data",
            data_path.to_str().unwrap(),
            "--query",
            query_path.to_str().unwrap(),
            "--threads",
            "2",
            "--limit",
            "0",
        ])
        .output()
        .expect("failed to spawn gup-match");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let reported: u64 = stdout
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("embeddings=").and_then(|v| v.parse().ok()))
        .expect("no embeddings= field in threaded gup-match output");
    assert_eq!(reported, expected);

    // The sink-backed output modes: --count-only reports the same count without
    // materializing, and --first-k prints exactly k embeddings.
    for method in ["gup", "daf", "join"] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
            .args([
                "--data",
                data_path.to_str().unwrap(),
                "--query",
                query_path.to_str().unwrap(),
                "--method",
                method,
                "--limit",
                "0",
                "--count-only",
            ])
            .output()
            .expect("failed to spawn gup-match");
        assert!(output.status.success(), "--count-only --method {method}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        let reported: u64 = stdout
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("embeddings=").and_then(|v| v.parse().ok()))
            .expect("no embeddings= field in --count-only output");
        assert_eq!(reported, expected, "--count-only --method {method}");
        assert!(
            !stdout.contains("embedding\t"),
            "--count-only must not print embeddings"
        );

        let k = expected - 1; // truncating: the search must stop early
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
            .args([
                "--data",
                data_path.to_str().unwrap(),
                "--query",
                query_path.to_str().unwrap(),
                "--method",
                method,
                "--limit",
                "0",
                "--first-k",
                &k.to_string(),
            ])
            .output()
            .expect("failed to spawn gup-match");
        assert!(output.status.success(), "--first-k --method {method}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        let printed = stdout.matches("embedding\t").count() as u64;
        assert_eq!(printed, k, "--first-k {k} --method {method} printed lines");
    }

    // Batch mode: a --queries manifest runs every listed query through one shared
    // prepared data graph and appends a per-query timing table (prep time is
    // reported once, on stderr).
    let manifest_path = dir.join("queries.txt");
    std::fs::write(
        &manifest_path,
        format!(
            "# comment lines and blanks are skipped\n\n{}\n{}\n",
            query_path.display(),
            query_path.display()
        ),
    )
    .unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
        .args([
            "--data",
            data_path.to_str().unwrap(),
            "--queries",
            manifest_path.to_str().unwrap(),
            "--limit",
            "0",
        ])
        .output()
        .expect("failed to spawn gup-match");
    assert!(
        output.status.success(),
        "--queries manifest run failed; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let counts: Vec<u64> = stdout
        .split_whitespace()
        .filter_map(|tok| tok.strip_prefix("embeddings=").and_then(|v| v.parse().ok()))
        .collect();
    assert_eq!(
        counts,
        vec![expected, expected],
        "both manifest queries ran"
    );
    assert!(
        stdout.contains("batch:") && stdout.contains("prep"),
        "batch timing table missing from: {stdout:?}"
    );
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert_eq!(
        stderr.matches("prepared in").count(),
        1,
        "prep time must be reported exactly once: {stderr:?}"
    );

    // The output modes are mutually exclusive.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
        .args([
            "--data",
            data_path.to_str().unwrap(),
            "--query",
            query_path.to_str().unwrap(),
            "--count-only",
            "--print-embeddings",
        ])
        .output()
        .expect("failed to spawn gup-match");
    assert!(
        !output.status.success(),
        "--count-only with --print-embeddings must be rejected"
    );

    // Bad usage must fail with a non-zero exit code, not succeed silently.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
        .args(["--data", data_path.to_str().unwrap()])
        .output()
        .expect("failed to spawn gup-match");
    assert!(!output.status.success(), "missing --query must be an error");

    // A zero timeout is a usage error (a zero budget would otherwise silently
    // mean "instantly timed out" or, worse, "no limit" depending on the engine).
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
        .args([
            "--data",
            data_path.to_str().unwrap(),
            "--query",
            query_path.to_str().unwrap(),
            "--timeout-ms",
            "0",
        ])
        .output()
        .expect("failed to spawn gup-match");
    assert!(!output.status.success(), "--timeout-ms 0 must be rejected");
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("--timeout-ms must be positive"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The persistence surface of the binary: `--save-index` alone prepares and
/// persists (exit 0, no query needed), `--index` warm starts and reports the
/// oracle count, and a corrupt or conflicting invocation fails loudly.
#[test]
fn gup_match_binary_saves_and_loads_prepared_indexes() {
    let dir = std::env::temp_dir().join(format!("gup_cli_index_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let (query, data) = gup_graph::fixtures::paper_example();
    let data_path = dir.join("data.graph");
    let query_path = dir.join("query.graph");
    let index_path = dir.join("data.gupi");
    save_graph(&data, &data_path).unwrap();
    save_graph(&query, &query_path).unwrap();
    let expected = brute_force::count(&query, &data);

    // Prepare-only invocation: no --query, saves the index, exits 0.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
        .args([
            "--data",
            data_path.to_str().unwrap(),
            "--save-index",
            index_path.to_str().unwrap(),
        ])
        .output()
        .expect("failed to spawn gup-match");
    assert!(
        output.status.success(),
        "--save-index without --query must succeed; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("saved index to"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The artifact is byte-identical to an in-process save of the same graph.
    let expected_bytes =
        gup_graph::index_io::write_index_bytes(&gup_graph::PreparedData::new(data.clone()));
    assert_eq!(std::fs::read(&index_path).unwrap(), expected_bytes);

    // Warm start: --index answers exactly like --data, for several methods.
    for method in ["gup", "daf", "join"] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
            .args([
                "--index",
                index_path.to_str().unwrap(),
                "--query",
                query_path.to_str().unwrap(),
                "--method",
                method,
                "--limit",
                "0",
            ])
            .output()
            .expect("failed to spawn gup-match");
        assert!(
            output.status.success(),
            "--index --method {method}; stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).unwrap();
        let reported: u64 = stdout
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("embeddings=").and_then(|v| v.parse().ok()))
            .unwrap_or_else(|| panic!("no embeddings= field in --index output: {stdout:?}"));
        assert_eq!(reported, expected, "--index --method {method}");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("loaded index in"),
            "warm start must report load time, not prepare time"
        );
    }

    // A corrupted index fails with exit code 1 and a typed message.
    let corrupt_path = dir.join("corrupt.gupi");
    let mut corrupt = expected_bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xff;
    std::fs::write(&corrupt_path, &corrupt).unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
        .args([
            "--index",
            corrupt_path.to_str().unwrap(),
            "--query",
            query_path.to_str().unwrap(),
        ])
        .output()
        .expect("failed to spawn gup-match");
    assert_eq!(output.status.code(), Some(1), "corrupt index must exit 1");
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("cannot load index"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // A data label above the bound is a typed prepare error, exit 1, where an
    // index sized by label 4294967295 would abort on a 16 GiB allocation.
    let huge_label_path = dir.join("huge_label.graph");
    std::fs::write(&huge_label_path, "t 2 1\nv 0 0\nv 1 4294967295\ne 0 1\n").unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
        .args([
            "--data",
            huge_label_path.to_str().unwrap(),
            "--query",
            query_path.to_str().unwrap(),
        ])
        .output()
        .expect("failed to spawn gup-match");
    assert_eq!(
        output.status.code(),
        Some(1),
        "a huge data label must exit 1"
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("above the largest data label"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // A data header above the vertex-id range is a typed parse error, exit 1,
    // where a builder sized by it would abort on a 160 GB allocation.
    let huge_header_path = dir.join("huge_header.graph");
    std::fs::write(&huge_header_path, "t 40000000000 0\n").unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
        .args([
            "--data",
            huge_header_path.to_str().unwrap(),
            "--query",
            query_path.to_str().unwrap(),
        ])
        .output()
        .expect("failed to spawn gup-match");
    assert_eq!(
        output.status.code(),
        Some(1),
        "a header above the vertex-id range must exit 1"
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("declares 40000000000 vertices"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Usage errors: --data with --index, and --save-index from a loaded index.
    for bad in [
        vec![
            "--data",
            data_path.to_str().unwrap(),
            "--index",
            index_path.to_str().unwrap(),
            "--query",
            query_path.to_str().unwrap(),
        ],
        vec![
            "--index",
            index_path.to_str().unwrap(),
            "--save-index",
            corrupt_path.to_str().unwrap(),
            "--query",
            query_path.to_str().unwrap(),
        ],
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
            .args(&bad)
            .output()
            .expect("failed to spawn gup-match");
        assert_eq!(output.status.code(), Some(2), "{bad:?} must be usage error");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn matchers_work_on_graphs_loaded_from_disk() {
    let dir = std::env::temp_dir().join(format!("gup_cli_roundtrip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let data = Dataset::Yeast.generate(0.05).graph;
    let queries = generate_query_set(
        &data,
        QuerySetSpec {
            vertices: 8,
            class: QueryClass::Sparse,
        },
        2,
        17,
    );
    assert!(
        !queries.is_empty(),
        "workload generator must produce queries"
    );

    let data_path = dir.join("data.graph");
    save_graph(&data, &data_path).unwrap();
    let loaded_data = load_graph(&data_path).unwrap();
    assert_eq!(loaded_data, data);
    let prepared = PreparedData::new(loaded_data);

    for (i, query) in queries.iter().enumerate() {
        let query_path = dir.join(format!("query_{i}.graph"));
        save_graph(query, &query_path).unwrap();
        let loaded_query = load_graph(&query_path).unwrap();
        assert_eq!(&loaded_query, query);

        let expected = brute_force::count(&loaded_query, prepared.graph());

        let gup_count = GupMatcher::<1>::with_prepared(
            &loaded_query,
            &prepared,
            GupConfig {
                limits: SearchLimits::UNLIMITED,
                ..GupConfig::default()
            },
        )
        .unwrap()
        .run_with_sink(&mut CountOnly::new())
        .embeddings;
        assert_eq!(gup_count, expected);

        let daf = BacktrackingBaseline::<1>::with_prepared(
            &loaded_query,
            &prepared,
            BaselineKind::DafFailingSet,
            SearchLimits::UNLIMITED,
        )
        .unwrap()
        .run_with_sink(&mut CountOnly::new())
        .embeddings;
        assert_eq!(daf, expected);

        let join = JoinBaseline::with_prepared(&loaded_query, &prepared, SearchLimits::UNLIMITED)
            .unwrap()
            .run_with_sink(&mut CountOnly::new())
            .embeddings;
        assert_eq!(join, expected);
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// `--help` exits 0, and every line of its options section is indented, so a
/// wrapped description cannot read as an option of its own.
#[test]
fn gup_match_help_indents_every_option_line() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gup-match"))
        .arg("--help")
        .output()
        .expect("failed to spawn gup-match");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stderr);
    let (_, options) = text.split_once("\noptions:\n").expect("an options section");
    assert!(options.lines().count() > 5, "{text}");
    for line in options.lines() {
        assert!(line.starts_with(' '), "unindented help line {line:?}");
    }
}
