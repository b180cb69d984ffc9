//! Self-tests of the benchmark itself: seeded inputs are reproducible
//! and distinct, `rewrite-cold` never repeats an image, and the metrics
//! the command prints are exactly those `BENCHMARK.json` declares.

use rvdyn_benchmark::images::{warm_set, ColdStream};
use rvdyn_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::HashSet;
use std::process::Command;

fn cold_images(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut s = ColdStream::new(seed);
    (0..n).map(|_| s.next_image().elf).collect()
}

#[test]
fn same_seed_gives_identical_images_and_another_seed_different_ones() {
    assert_eq!(cold_images(7, 60), cold_images(7, 60));
    assert_ne!(cold_images(7, 60), cold_images(8, 60));
    let elfs = |seed| {
        warm_set(seed)
            .into_iter()
            .map(|i| i.elf)
            .collect::<Vec<_>>()
    };
    assert_eq!(elfs(7), elfs(7));
    assert_ne!(elfs(7), elfs(8));
}

#[test]
fn rewrite_cold_never_repeats_an_image_within_a_run() {
    // Everything one run sends: each set-up's warm-up stream, then the
    // timed stream (more requests than a run makes at today's speed).
    let mut seen = HashSet::new();
    for rep in 0..rvdyn_benchmark::SETUP_REPS {
        let mut warm = ColdStream::with_stream(0, 100 + rep);
        for _ in 0..40 {
            assert!(seen.insert(warm.next_image().elf), "warm-up image repeated");
        }
    }
    for (i, elf) in cold_images(11, 3000).into_iter().enumerate() {
        assert!(seen.insert(elf), "timed image {i} repeats an earlier one");
    }
}

// -- a minimal JSON reader, enough for BENCHMARK.json and result lines --

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => {
                &kv.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

fn parse(s: &str) -> Json {
    let b = s.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i);
    skip_ws(b, &mut i);
    assert_eq!(i, b.len(), "trailing input");
    v
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Json {
    skip_ws(b, i);
    match b[*i] {
        b'{' => {
            *i += 1;
            let mut kv = Vec::new();
            loop {
                skip_ws(b, i);
                if b[*i] == b'}' {
                    *i += 1;
                    return Json::Obj(kv);
                }
                let Json::Str(k) = value(b, i) else {
                    panic!("object key")
                };
                skip_ws(b, i);
                assert_eq!(b[*i], b':');
                *i += 1;
                kv.push((k, value(b, i)));
                skip_ws(b, i);
                if b[*i] == b',' {
                    *i += 1;
                }
            }
        }
        b'[' => {
            *i += 1;
            let mut v = Vec::new();
            loop {
                skip_ws(b, i);
                if b[*i] == b']' {
                    *i += 1;
                    return Json::Arr(v);
                }
                v.push(value(b, i));
                skip_ws(b, i);
                if b[*i] == b',' {
                    *i += 1;
                }
            }
        }
        b'"' => {
            let start = *i + 1;
            *i = start;
            while b[*i] != b'"' {
                assert_ne!(b[*i], b'\\', "escapes are not used in these files");
                *i += 1;
            }
            *i += 1;
            Json::Str(String::from_utf8(b[start..*i - 1].to_vec()).unwrap())
        }
        b't' | b'f' | b'n' => {
            for (word, v) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if b[*i..].starts_with(word.as_bytes()) {
                    *i += word.len();
                    return v;
                }
            }
            panic!("bad literal")
        }
        _ => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                *i += 1;
            }
            Json::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn declared(section: &str) -> Vec<(String, String)> {
    let Json::Arr(items) = benchmark_json().get(section).clone() else {
        panic!("{section} is a list")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn owned(v: &[(&str, &str)]) -> Vec<(String, String)> {
    v.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
    let Json::Arr(w) = benchmark_json().get("workloads").clone() else {
        panic!()
    };
    let names: Vec<&str> = w.iter().map(|x| x.get("name").str()).collect();
    assert_eq!(names, WORKLOADS);
}

/// Run the command and return its exit code and parsed result line.
fn run(args: &[&str], env: &[(&str, &str)]) -> (i32, Option<Json>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rvdyn-benchmark"));
    cmd.args(args)
        .env_remove("RVDYN_EMU")
        .env_remove("RVDYN_THREADS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout
        .lines()
        .last()
        .filter(|l| l.starts_with('{'))
        .map(parse);
    (out.status.code().unwrap_or(-1), last)
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let args = [
            "--workload",
            "fleet-cold",
            "--seed",
            "1",
            "--seconds",
            "0.2",
            "--trace",
            trace,
        ];
        let (code, result) = run(&args, &[]);
        assert_eq!(code, 0, "trace {trace}");
        let result = result.expect("a result line");
        assert_eq!(result.get("correct"), &Json::Bool(true));
        let Json::Obj(metrics) = result.get("metrics").clone() else {
            panic!()
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
            .collect();
        assert_eq!(printed, declared(section), "trace {trace}");
        if trace == "0" {
            for (name, v) in &metrics {
                let Json::Num(x) = v.get("value") else {
                    panic!()
                };
                assert!(*x > 0.0, "end-to-end metric {name} reads {x}");
            }
        }
    }
}

#[test]
fn refuses_to_run_with_a_library_default_overridden() {
    let args = [
        "--workload",
        "fleet-cold",
        "--seed",
        "1",
        "--seconds",
        "0.2",
        "--trace",
        "0",
    ];
    for var in rvdyn_benchmark::PINNED_ENV {
        let (code, result) = run(&args, &[(var, "1")]);
        assert_eq!(code, 2, "{var}");
        assert!(result.is_none(), "{var}: no result may be printed");
    }
}
