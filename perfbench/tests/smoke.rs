//! Tiny-size smoke runs of every workload, untraced and traced, plus the
//! digest-repeat check and the metric vocabulary against `BENCHMARK.json`.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_hdsampler-perfbench");

/// Run one tiny workload; return its standard output.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", if trace { "1" } else { "0" }])
        .arg("--tiny")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

fn digest_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.contains("digest="))
        .expect("a digest line")
}

/// `(name, unit)` pairs of one list in `BENCHMARK.json`, read without a
/// JSON parser: every `{"name": …, "unit": …}` object after `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = json.find(&format!("\"{key}\"")).expect("list present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
        obj[at..].split('"').next().expect("quoted").to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn assert_reports(line: &str, metrics: &[(String, String)]) {
    assert!(line.starts_with("{\"correct\": true"), "{line}");
    for (name, unit) in metrics {
        let needle = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&needle)
            .unwrap_or_else(|| panic!("{name} missing: {line}"));
        let rest = &line[at + needle.len()..];
        let value: f64 = rest
            .split(',')
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} has no numeric value"));
        assert!(value.is_finite());
        assert!(
            rest.starts_with(&format!("{value:?}, \"unit\": \"{unit}\"")),
            "{name} unit: {rest}"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let e2e = listed("end_to_end");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in ["inproc", "loopback", "direct-l2"] {
        let out = run(workload, 5, false);
        assert_reports(result_line(&out), &e2e);
        for (name, _) in &e2e {
            let needle = format!("\"{name}\": {{\"value\": 0.0,");
            assert!(
                !result_line(&out).contains(&needle),
                "{workload}: {name} is 0"
            );
        }
    }
}

/// The per-layer metrics a workload declares unmeasured, from its
/// `unmeasured (read 0): …` line.
fn unmeasured(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("unmeasured (read 0): "))
        .map(|l| l.split(' ').map(str::to_string).collect())
        .unwrap_or_default()
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    let layers = listed("per_layer");
    let has_prefix = |name: &str, prefixes: &[&str]| prefixes.iter().any(|p| name.starts_with(p));
    // Layers each workload's stack does not run, or runs inside the
    // cooperative driver where no decorator reaches.
    let absent: [(&str, &[&str]); 3] = [
        ("inproc", &["l2.", "server.", "coop."]),
        (
            "loopback",
            &["l2.", "walk.self_ms", "history.self_ms", "adapter.self_ms"],
        ),
        (
            "direct-l2",
            &[
                "form.", "render.", "scrape.", "adapter.", "wire.", "site.", "server.", "coop.",
            ],
        ),
    ];
    for (workload, prefixes) in absent {
        let out = run(workload, 5, true);
        assert_reports(result_line(&out), &layers);
        assert!(
            out.contains("(unattributed)"),
            "{workload}: no self-time table"
        );
        let mut expected: Vec<String> = layers
            .iter()
            .map(|(n, _)| n.clone())
            .filter(|n| has_prefix(n, prefixes))
            .collect();
        let mut declared = unmeasured(&out);
        expected.sort();
        declared.sort();
        assert_eq!(declared, expected, "{workload}");
    }
}

#[test]
fn digests_repeat_for_a_seed_and_differ_across_seeds() {
    for workload in ["inproc", "direct-l2"] {
        let a = run(workload, 9, false);
        let b = run(workload, 9, false);
        let c = run(workload, 10, false);
        assert_eq!(digest_line(&a), digest_line(&b), "{workload}");
        assert_ne!(
            digest_line(&a).split("digest=").nth(1),
            digest_line(&c).split("digest=").nth(1),
            "{workload}"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec!["--workload", "nosuch"],
        vec!["--seed", "1"],
        vec!["--workload", "inproc", "--trace", "2"],
    ] {
        let out = Command::new(BIN).args(&args).output().expect("runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
