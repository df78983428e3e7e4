//! Differential conformance fuzzer.
//!
//! Drives `lmi-conformance` from the command line: generates safe kernels
//! over the full IR surface, injects one defect per class into each, and
//! runs every case through the mechanism × engine oracle matrix. Any
//! failing case is auto-shrunk (when the failure is a surviving LMI
//! detection) and printed as a ready-to-paste regression test.
//!
//! ```text
//! fuzz [--quick] [--cases N] [--seed S] [--json] [--corpus DIR]
//!      [--mask-defect CLASS]
//! ```
//!
//! * `--quick` — 200 cases (the CI smoke).
//! * `--cases N` — explicit case budget (a case = one oracle invocation).
//! * `--seed S` — base seed (default 3405691582).
//! * `--json` — machine-readable report envelope on stdout.
//! * `--corpus DIR` — replay `*.json` cases from DIR first; persist any
//!   new failing case there.
//! * `--mask-defect CLASS` — treat LMI detections of CLASS as unexpected
//!   (manufactures failures; exercises the shrinker end to end).

use std::collections::BTreeMap;
use std::process::ExitCode;

use lmi_bench::report;
use lmi_conformance::{
    build, case_from_json, case_to_json, generate, lmi_run, mutate, run_case, shrink, Defect,
    DefectClass, OracleConfig, Recipe, ALL_CLASSES,
};
use lmi_telemetry::{Json, SplitMix64};

const DEFAULT_CASES: usize = 200;
const DEFAULT_SEED: u64 = 0xCAFE_BABE;

struct Opts {
    cases: usize,
    seed: u64,
    json: bool,
    corpus: Option<String>,
    masked: Option<DefectClass>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts =
        Opts { cases: DEFAULT_CASES, seed: DEFAULT_SEED, json: false, corpus: None, masked: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.cases = DEFAULT_CASES,
            "--cases" => {
                let v = args.next().ok_or("--cases needs a value")?;
                opts.cases = v.parse().map_err(|_| format!("bad --cases value: {v}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
            }
            "--json" => opts.json = true,
            "--corpus" => opts.corpus = Some(args.next().ok_or("--corpus needs a directory")?),
            "--mask-defect" => {
                let v = args.next().ok_or("--mask-defect needs a class")?;
                opts.masked = Some(
                    DefectClass::parse(&v).ok_or_else(|| format!("unknown defect class: {v}"))?,
                );
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(opts)
}

#[derive(Default)]
struct ClassTally {
    injected: usize,
    detected_by_lmi: usize,
}

struct Failure {
    seed: u64,
    class: Option<DefectClass>,
    message: String,
    shrunk: Option<ShrunkInfo>,
}

struct ShrunkInfo {
    recipe_ops: usize,
    ir_ops: usize,
    test_source: String,
}

struct Session {
    cfg: OracleConfig,
    cases: usize,
    recipes: usize,
    false_positives: usize,
    tallies: BTreeMap<&'static str, ClassTally>,
    failures: Vec<Failure>,
    persisted: usize,
    corpus_dir: Option<String>,
}

impl Session {
    /// Runs one case through the oracle, tallying detection coverage and
    /// shrinking/persisting failures.
    fn run(&mut self, recipe: &Recipe, defect: Option<&Defect>) {
        self.cases += 1;
        match run_case(recipe, defect, &self.cfg) {
            Ok(rep) => {
                if let Some(d) = defect {
                    let tally = self.tallies.entry(d.class.label()).or_default();
                    tally.injected += 1;
                    let lmi_hit = rep.compile_rejected
                        || rep
                            .mechanisms
                            .iter()
                            .any(|m| m.mechanism == lmi_conformance_lmi() && m.detected);
                    if lmi_hit {
                        tally.detected_by_lmi += 1;
                    }
                }
            }
            Err(fail) => {
                if defect.is_none() {
                    self.false_positives += 1;
                }
                let shrunk = defect.and_then(|d| self.try_shrink(recipe, d));
                self.persist(recipe, defect, &fail.to_string());
                self.failures.push(Failure {
                    seed: recipe.seed,
                    class: defect.map(|d| d.class),
                    message: fail.to_string(),
                    shrunk,
                });
            }
        }
    }

    /// Shrinks a failing defect case when the failure is a surviving LMI
    /// detection (the masked-class scenario); other failure shapes are
    /// persisted un-shrunk, since recipe reduction would not preserve them.
    fn try_shrink(&self, recipe: &Recipe, defect: &Defect) -> Option<ShrunkInfo> {
        let point = *self.cfg.points.first()?;
        let fails = if defect.class == DefectClass::IntToPtrEscape {
            true
        } else {
            let func = build(recipe, Some(defect));
            lmi_run(&func, &recipe.globals, point).map(|s| s.violated()).unwrap_or(false)
        };
        if !fails {
            return None;
        }
        let rep = shrink(recipe, defect, point);
        Some(ShrunkInfo {
            recipe_ops: rep.recipe.ops.len(),
            ir_ops: rep.op_count,
            test_source: rep.to_test_source(),
        })
    }

    fn persist(&mut self, recipe: &Recipe, defect: Option<&Defect>, message: &str) {
        let Some(dir) = &self.corpus_dir else { return };
        let entry = case_to_json(recipe, defect, Some(message));
        let class = defect.map(|d| d.class.label()).unwrap_or("safe");
        let path = format!("{dir}/case-{:016x}-{class}.json", recipe.seed);
        if let Err(e) = std::fs::write(&path, entry.to_pretty()) {
            eprintln!("warning: could not persist {path}: {e}");
        } else {
            self.persisted += 1;
        }
    }
}

/// The LMI column of the matrix (avoids importing the enum variant at the
/// use site above).
fn lmi_conformance_lmi() -> lmi_conformance::MechanismKind {
    lmi_conformance::MechanismKind::Lmi
}

fn replay_corpus(session: &mut Session, dir: &str) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut paths: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut replayed = 0;
    for path in paths {
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        let Ok(doc) = lmi_telemetry::json::parse(&text) else {
            eprintln!("warning: skipping malformed corpus entry {}", path.display());
            continue;
        };
        let Some((recipe, defect)) = case_from_json(&doc) else {
            eprintln!("warning: skipping incompatible corpus entry {}", path.display());
            continue;
        };
        session.run(&recipe, defect.as_ref());
        replayed += 1;
    }
    replayed
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    let mut cfg = OracleConfig::quick();
    cfg.masked = opts.masked;

    if let Some(dir) = &opts.corpus {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("fuzz: cannot create corpus dir {dir}: {e}");
            return ExitCode::from(2);
        }
    }

    let mut session = Session {
        cfg,
        cases: 0,
        recipes: 0,
        false_positives: 0,
        tallies: BTreeMap::new(),
        failures: Vec::new(),
        persisted: 0,
        corpus_dir: opts.corpus.clone(),
    };

    let replayed = match &opts.corpus {
        Some(dir) => replay_corpus(&mut session, dir),
        None => 0,
    };

    // Each recipe yields 1 safe case + one mutant per defect class.
    let mut rng = SplitMix64::new(opts.seed);
    while session.cases < opts.cases {
        let seed = opts.seed.wrapping_add(session.recipes as u64);
        let safe = generate(seed);
        session.recipes += 1;
        session.run(&safe, None);
        for class in ALL_CLASSES {
            if session.cases >= opts.cases {
                break;
            }
            let (mutant, defect) = mutate(&safe, class, &mut rng);
            session.run(&mutant, Some(&defect));
        }
    }

    let spatial_injected: usize = session
        .tallies
        .iter()
        .filter(|(k, _)| DefectClass::parse(k).is_some_and(|c| c.is_spatial()))
        .map(|(_, t)| t.injected)
        .sum();
    let spatial_detected: usize = session
        .tallies
        .iter()
        .filter(|(k, _)| DefectClass::parse(k).is_some_and(|c| c.is_spatial()))
        .map(|(_, t)| t.detected_by_lmi)
        .sum();

    if opts.json {
        let mut detections = Json::obj();
        for (class, t) in &session.tallies {
            detections.set(
                class,
                Json::obj().with("injected", t.injected).with("detected_by_lmi", t.detected_by_lmi),
            );
        }
        let points: Vec<Json> =
            session.cfg.points.iter().map(|p| Json::obj().with("traced", p.traced)).collect();
        let failures: Vec<Json> = session
            .failures
            .iter()
            .map(|f| {
                let mut j = Json::obj()
                    .with("seed", f.seed)
                    .with("class", f.class.map(|c| Json::from(c.label())).unwrap_or(Json::Null))
                    .with("message", f.message.as_str());
                if let Some(s) = &f.shrunk {
                    j.set(
                        "shrunk",
                        Json::obj()
                            .with("recipe_ops", s.recipe_ops)
                            .with("ir_ops", s.ir_ops)
                            .with("test_source", s.test_source.as_str()),
                    );
                }
                j
            })
            .collect();
        let body = Json::obj()
            .with("cases", session.cases)
            .with("recipes", session.recipes)
            .with("seed", opts.seed)
            .with(
                "matrix",
                Json::obj()
                    .with(
                        "mechanisms",
                        session.cfg.mechanisms.iter().map(|m| m.label()).collect::<Vec<_>>(),
                    )
                    .with("points", Json::Arr(points)),
            )
            .with("masked", opts.masked.map(|c| Json::from(c.label())).unwrap_or(Json::Null))
            .with("detections", detections)
            .with("false_positives", session.false_positives)
            .with(
                "spatial_detection_rate",
                if spatial_injected == 0 {
                    1.0
                } else {
                    spatial_detected as f64 / spatial_injected as f64
                },
            )
            .with("failures", Json::Arr(failures))
            .with(
                "corpus",
                Json::obj().with("replayed", replayed).with("persisted", session.persisted),
            );
        report::emit(&report::envelope("fuzz", body));
    } else {
        println!(
            "conformance fuzz: {} cases ({} recipes, {} corpus replays) on {} mechanisms x {} engine points",
            session.cases,
            session.recipes,
            replayed,
            session.cfg.mechanisms.len(),
            session.cfg.points.len()
        );
        for (class, t) in &session.tallies {
            println!(
                "  {class:<16} injected {:>4}  lmi-detected {:>4}",
                t.injected, t.detected_by_lmi
            );
        }
        println!("  false positives: {}", session.false_positives);
        if session.failures.is_empty() {
            println!("  all oracle invariants held");
        }
        for f in &session.failures {
            println!(
                "\nFAIL seed={} class={}: {}",
                f.seed,
                f.class.map(|c| c.label()).unwrap_or("safe"),
                f.message
            );
            if let Some(s) = &f.shrunk {
                println!(
                    "  shrunk to {} recipe op(s), {} IR ops; reproducer:\n",
                    s.recipe_ops, s.ir_ops
                );
                println!("{}", s.test_source);
            }
        }
    }

    if session.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
