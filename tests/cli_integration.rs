//! End-to-end test of the `etap-cli` binary: train → persist → scan →
//! score → companies, all through the real executable.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_etap-cli"))
}

fn temp_model_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("etap_cli_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn full_cli_workflow() {
    let models = temp_model_dir("flow");

    // train (small web, one driver, for speed)
    let out = cli()
        .args([
            "train",
            "--out",
            models.to_str().unwrap(),
            "--docs",
            "900",
            "--driver",
            "cim",
        ])
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let model_file = models.join("change_in_management.model");
    assert!(model_file.exists(), "model file written");

    // scan
    let out = cli()
        .args([
            "scan",
            "--models",
            models.to_str().unwrap(),
            "--docs",
            "80",
            "--top",
            "3",
        ])
        .output()
        .expect("run scan");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("change in management"), "{stdout}");

    // score a canonical trigger snippet
    let out = cli()
        .args([
            "score",
            "--model",
            model_file.to_str().unwrap(),
            "--text",
            "Acme Corp named Jane Roe as its new CEO on Monday.",
        ])
        .output()
        .expect("run score");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TRIGGER"), "{stdout}");

    // score background
    let out = cli()
        .args([
            "score",
            "--model",
            model_file.to_str().unwrap(),
            "--text",
            "Simmer the sauce for twenty minutes, stirring occasionally.",
        ])
        .output()
        .expect("run score bg");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ignore"), "{stdout}");

    // companies
    let out = cli()
        .args([
            "companies",
            "--models",
            models.to_str().unwrap(),
            "--docs",
            "80",
            "--top",
            "3",
        ])
        .output()
        .expect("run companies");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MRR"), "{stdout}");

    let _ = std::fs::remove_dir_all(&models);
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = cli().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn unknown_flags_and_unparsable_values_fail_with_usage() {
    let store = temp_model_dir("flags_store");
    let store_arg = store.to_str().unwrap();
    let cases: [(&[&str], &str); 5] = [
        (
            &["generations", "--store", store_arg, "--format", "v2"],
            "--format",
        ),
        (
            &["publish", "--store", store_arg, "--shards", "abc"],
            "--shards",
        ),
        (&["diff", "--store", store_arg, "--from", "one"], "--from"),
        (&["scan", "--models", store_arg, "--docs"], "--docs"),
        (&["generations", "--store", store_arg, "extra"], "extra"),
    ];
    for (args, named) in cases {
        let out = cli().args(args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(named),
            "{args:?} should name {named}: {stderr}"
        );
    }
    // The arguments are checked before the command touches anything.
    assert!(!store.exists());
}

#[test]
fn missing_required_flag_fails() {
    let out = cli().arg("train").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--out"), "{stderr}");
}

#[test]
fn publish_generations_diff_workflow() {
    let models = temp_model_dir("store_models");
    let store = temp_model_dir("store_root");

    // Train once; both publishes below reuse these models.
    let out = cli()
        .args([
            "train",
            "--out",
            models.to_str().unwrap(),
            "--docs",
            "900",
            "--driver",
            "cim",
        ])
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // publish generation 1: full build from models + crawl.
    let out = cli()
        .args([
            "publish",
            "--store",
            store.to_str().unwrap(),
            "--models",
            models.to_str().unwrap(),
            "--docs",
            "80",
        ])
        .output()
        .expect("run publish");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("published generation 1"),
        "unexpected publish output: {stdout}"
    );
    assert!(store.join("gen-1").join("MANIFEST").exists());

    // publish generation 2: --extend over a different crawl seed.
    let out = cli()
        .args([
            "publish",
            "--store",
            store.to_str().unwrap(),
            "--extend",
            "--docs",
            "40",
            "--seed",
            "11",
        ])
        .output()
        .expect("run publish --extend");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("published generation 2"),
        "unexpected extend output: {stdout}"
    );

    // generations: both listed as valid.
    let out = cli()
        .args(["generations", "--store", store.to_str().unwrap()])
        .output()
        .expect("run generations");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let valid_rows = stdout.lines().filter(|l| l.ends_with("valid")).count();
    assert_eq!(valid_rows, 2, "expected 2 valid generations:\n{stdout}");
    assert!(!stdout.contains("INVALID"), "{stdout}");

    // diff: newest vs previous; extend only adds events, never removes.
    let out = cli()
        .args(["diff", "--store", store.to_str().unwrap()])
        .output()
        .expect("run diff");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("gen 1 → gen 2:"))
        .unwrap_or_else(|| panic!("no diff summary in: {stdout}"));
    assert!(summary.ends_with("/ -0)"), "extend removed events: {summary}");

    // A corrupted generation shows as INVALID but the command succeeds.
    let manifest = store.join("gen-2").join("MANIFEST");
    let text = std::fs::read_to_string(&manifest).expect("read manifest");
    std::fs::write(&manifest, &text[..text.len() - 8]).expect("truncate manifest");
    let out = cli()
        .args(["generations", "--store", store.to_str().unwrap()])
        .output()
        .expect("run generations on corrupt store");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("INVALID"), "{stdout}");

    let _ = std::fs::remove_dir_all(&models);
    let _ = std::fs::remove_dir_all(&store);
}

/// Run `etap-cli serve <args>` until it prints its address, fetch one
/// path with a `Connection: close` GET, kill the server, and return the
/// whole HTTP response.
fn serve_and_get(args: &[&str], path: &str) -> String {
    let mut server = cli()
        .arg("serve")
        .args(args)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut line = String::new();
    BufReader::new(server.stdout.take().expect("stdout"))
        .read_line(&mut line)
        .expect("read address");
    let addr = line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("no address line: {line:?}"))
        .to_string();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let _ = server.kill();
    let _ = server.wait();
    response
}

#[test]
fn owned_and_mapped_generations_of_same_crawl_diff_to_zero() {
    let models = temp_model_dir("fmt_models");
    let store = temp_model_dir("fmt_store");
    let (models_arg, store_arg) = (models.to_str().unwrap(), store.to_str().unwrap());

    let out = cli()
        .args(["train", "--out", models_arg, "--docs", "900", "--driver", "cim"])
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Generation 1: a cold serve builds the book in-process, serves it
    // from memory and seals it in the empty store as LEADS v2.
    let crawl = ["--models", models_arg, "--docs", "80"];
    let mut cold = vec!["--store", store_arg];
    cold.extend(crawl);
    let owned = serve_and_get(&cold, "/leads?top=100");
    assert!(owned.starts_with("HTTP/1.1 200"), "{owned}");
    assert!(store.join("gen-1").join("book.index").exists());
    assert!(store.join("gen-1").join("shards").is_dir());
    assert!(!store.join("gen-1").join("events.leads").exists());

    // A warm start serves the same bytes from the mapped generation.
    let mapped = serve_and_get(&["--store", store_arg], "/leads?top=100");
    assert_eq!(owned, mapped, "in-process and warm-started /leads differ");

    // Generation 2: the identical crawl (same docs, same default seed)
    // re-published with a different shard count.
    let mut publish = vec!["publish", "--store", store_arg, "--shards", "8"];
    publish.extend(crawl);
    let out = cli().args(&publish).output().expect("run publish");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("published generation 2"),
        "unexpected publish output: {stdout}"
    );
    assert_eq!(
        std::fs::read_dir(store.join("gen-2").join("shards"))
            .expect("shards dir")
            .count(),
        8
    );

    let out = cli()
        .args(["generations", "--store", store_arg])
        .output()
        .expect("run generations");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let valid_rows = stdout.lines().filter(|l| l.ends_with("valid")).count();
    assert_eq!(valid_rows, 2, "expected 2 valid generations:\n{stdout}");

    let out = cli()
        .args(["diff", "--store", store_arg])
        .output()
        .expect("run diff");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("gen 1 → gen 2:"))
        .unwrap_or_else(|| panic!("no diff summary in: {stdout}"));
    assert!(
        summary.ends_with("(+0 / -0)"),
        "two generations of the same crawl must hold the same events: {summary}"
    );

    let _ = std::fs::remove_dir_all(&models);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn exit_codes_classify_usage_corruption_and_transient_io() {
    // Usage errors (unknown command, missing flag) exit 2.
    let out = cli().arg("frobnicate").output().expect("run");
    assert_eq!(out.status.code(), Some(2), "unknown command");
    let out = cli().arg("train").output().expect("run");
    assert_eq!(out.status.code(), Some(2), "missing --out");

    // Transient I/O exits 4: the store root collides with a plain file,
    // so opening it fails at the filesystem layer.
    let file = std::env::temp_dir().join(format!("etap_cli_notadir_{}", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("write blocker file");
    let out = cli()
        .args(["generations", "--store", file.to_str().unwrap()])
        .output()
        .expect("run generations");
    assert_eq!(
        out.status.code(),
        Some(4),
        "store under a file: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&file);

    // Corruption exits 3: diff against a generation whose MANIFEST is
    // truncated fails checksum validation.
    let models = temp_model_dir("exitcode_models");
    let store = temp_model_dir("exitcode_store");
    let out = cli()
        .args(["train", "--out", models.to_str().unwrap(), "--docs", "900", "--driver", "cim"])
        .output()
        .expect("run train");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for seed in ["7", "11"] {
        let mut args = vec![
            "publish",
            "--store",
            store.to_str().unwrap(),
            "--models",
            models.to_str().unwrap(),
            "--docs",
            "60",
            "--seed",
            seed,
        ];
        if seed != "7" {
            args.push("--extend");
        }
        let out = cli().args(&args).output().expect("run publish");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let manifest = store.join("gen-2").join("MANIFEST");
    let text = std::fs::read_to_string(&manifest).expect("read manifest");
    std::fs::write(&manifest, &text[..text.len() - 8]).expect("truncate manifest");
    let out = cli()
        .args(["diff", "--store", store.to_str().unwrap(), "--from", "1", "--to", "2"])
        .output()
        .expect("run diff");
    assert_eq!(
        out.status.code(),
        Some(3),
        "diff on torn manifest: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(&models);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn watch_runs_supervised_cycles_and_seals_generations() {
    let models = temp_model_dir("watch_models");
    let store = temp_model_dir("watch_store");

    let out = cli()
        .args(["train", "--out", models.to_str().unwrap(), "--docs", "900", "--driver", "cim"])
        .output()
        .expect("run train");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Cold start: watch builds generation 1, then runs 2 supervised
    // cycles under a deterministic fault plan (one delayed poll, one
    // panicking retrain — both must be absorbed by retries).
    let out = cli()
        .args([
            "watch",
            "--store",
            store.to_str().unwrap(),
            "--models",
            models.to_str().unwrap(),
            "--docs",
            "40",
            "--cycles",
            "2",
            "--interval-ms",
            "0",
        ])
        .env("ETAP_FAULTS", "corpus.poll=delay:2ms@0.5,retrain=panic@once")
        .env("ETAP_FAULT_SEED", "42")
        .output()
        .expect("run watch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("fault injection armed"), "{stderr}");
    assert!(stderr.contains("watch done: 2 cycle(s), 0 failed"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("listening on http://"), "{stdout}");
    // Cold-built gen 1 + two cycles = gens 1..3 sealed on disk.
    for generation in 1..=3 {
        assert!(
            store.join(format!("gen-{generation}")).join("MANIFEST").exists(),
            "generation {generation} missing\n{stderr}"
        );
    }

    // Restarting warm-starts from generation 3 and keeps going.
    let out = cli()
        .args([
            "watch",
            "--store",
            store.to_str().unwrap(),
            "--docs",
            "40",
            "--cycles",
            "1",
            "--interval-ms",
            "0",
        ])
        .output()
        .expect("rerun watch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("warm start from generation 3"), "{stderr}");
    assert!(stderr.contains("final generation 4"), "{stderr}");

    // A malformed fault spec is a usage error (exit 2).
    let out = cli()
        .args(["watch", "--store", store.to_str().unwrap(), "--cycles", "1"])
        .env("ETAP_FAULTS", "persist.write=bogus")
        .output()
        .expect("run watch with bad spec");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(&models);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn publish_extend_on_empty_store_fails() {
    let store = temp_model_dir("empty_store");
    let out = cli()
        .args([
            "publish",
            "--store",
            store.to_str().unwrap(),
            "--extend",
        ])
        .output()
        .expect("run publish");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("existing valid generation"),
        "unexpected error: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&store);
}
