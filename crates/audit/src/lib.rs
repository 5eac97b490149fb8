//! **dpss-audit** — a workspace lint pass enforcing SmartDPSS's
//! determinism and panic-safety invariants at the source level.
//!
//! The repo's headline guarantees (byte-identical sweeps at any
//! `--threads`, golden-trace stability, warm-start equivalence) are
//! runtime-enforced by release-mode suites, so a stray `HashMap`
//! iteration or wall-clock read in a new result-producing path only
//! fails after an expensive CI run — if at all. This crate checks those
//! invariants *statically, in seconds*: a hand-rolled [`lexer`] strips
//! comments/strings/attributes, then a roster of repo-specific [`lints`]
//! scans what remains.
//!
//! The roster (stable names, see [`lints::LINT_NAMES`]):
//!
//! | lint | family | fires on |
//! |---|---|---|
//! | `hash-container` | determinism | `HashMap`/`HashSet` in result-producing crates |
//! | `wall-clock` | determinism | `std::time`, `SystemTime`, `Instant`, `UNIX_EPOCH` |
//! | `unseeded-rng` | determinism | `thread_rng`, `from_entropy`, `OsRng`, `rand::random` |
//! | `unordered-float-sum` | determinism | `.values()`/`.keys()` chained into `sum`/`fold`/… |
//! | `panic-unwrap` | panic-safety | `.unwrap()` / `.expect(…)` in library code |
//! | `panic-explicit` | panic-safety | `panic!`/`unreachable!`/`todo!`/`unimplemented!` |
//! | `slice-index` | panic-safety | unguarded `xs[i]` indexing in library code |
//! | `crate-attrs` | hygiene | crate roots missing `forbid(unsafe_code)` / `deny(missing_debug_implementations)` |
//! | `unit-cast` | hygiene | raw `as` casts next to `.dollars()`/`.mwh()` extractors |
//! | `pragma-missing-reason` | meta | an `audit:allow` pragma without a reason |
//! | `pragma-unknown-lint` | meta | a pragma naming no known suppressible lint |
//!
//! Findings are suppressed in review with pragmas — the reason is
//! **mandatory** and is itself enforced by the auditor:
//!
//! ```text
//! let x = xs[i]; // audit:allow(slice-index): i < xs.len() checked at entry
//! // audit:allow(panic-unwrap): config was validated by the constructor
//! let v = cfg.v.unwrap();
//! // audit:allow-file(slice-index): dense simplex kernel, bounds proven at build
//! ```
//!
//! A trailing pragma suppresses its own line, a whole-line pragma the
//! next code line, and `audit:allow-file` the entire file. The two
//! pragma meta-lints cannot be suppressed.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(missing_docs)]

pub mod lexer;
pub mod lints;
pub mod report;

pub use lints::{FileClass, LINT_NAMES};
pub use report::{AuditReport, Finding};

use lints::RawFinding;
use std::path::{Path, PathBuf};

/// Crates whose sources feed published results: the determinism lints
/// apply to them, bins included.
const DETERMINISM_CRATES: &[&str] = &["lp", "traces", "sim", "core", "serve", "bench", "audit"];

/// Classifies a workspace-relative, `/`-separated path, or `None` when
/// the file is out of audit scope (tests, benches, examples, vendor).
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let in_crates = rel.strip_prefix("crates/");
    let crate_name = match in_crates {
        Some(rest) => rest.split('/').next().unwrap_or(""),
        None => "facade",
    };
    // Only `src/` trees are in scope: integration tests, benches and
    // examples are exercised by the test suite, not shipped as library
    // surface.
    let under_src = match in_crates {
        Some(rest) => rest
            .split_once('/')
            .is_some_and(|(_, tail)| tail.starts_with("src/")),
        None => rel.starts_with("src/"),
    };
    if !under_src {
        return None;
    }
    let is_bin =
        rel.contains("/src/bin/") || rel.starts_with("src/bin/") || rel.ends_with("/src/main.rs");
    Some(FileClass {
        determinism: DETERMINISM_CRATES.contains(&crate_name),
        panic_safety: !is_bin,
        unit_hygiene: true,
        crate_root: rel.ends_with("src/lib.rs"),
    })
}

/// Audits one file's source text under a given class. `rel` is used only
/// for finding labels.
pub fn audit_source(rel: &str, source: &str, class: FileClass) -> (Vec<Finding>, usize) {
    let scrubbed = lexer::scrub(source);
    let mut raw = lints::scan(&scrubbed, class);
    if class.crate_root {
        crate_attr_findings(source, &mut raw);
    }

    // Pragma policing first: these meta-findings are never suppressible.
    let mut findings = Vec::new();
    let mut honored = 0usize;
    for pragma in &scrubbed.pragmas {
        if pragma.malformed || !lints::is_allowable(&pragma.lint) {
            findings.push(finding_at(
                rel,
                &scrubbed,
                pragma.line,
                "pragma-unknown-lint",
                if pragma.malformed {
                    "malformed pragma; the form is `// audit:allow(<lint>): <reason>`".to_owned()
                } else {
                    format!(
                        "pragma names `{}`, which is not a suppressible lint (see \
                         `dpss-audit --help` for the roster)",
                        pragma.lint
                    )
                },
            ));
            continue;
        }
        if pragma.reason.is_empty() {
            findings.push(finding_at(
                rel,
                &scrubbed,
                pragma.line,
                "pragma-missing-reason",
                format!(
                    "`audit:allow({})` needs a reason after the colon — the written \
                     invariant is the point of the pragma",
                    pragma.lint
                ),
            ));
            continue;
        }
        honored += 1;
    }

    // Suppression: a well-formed, reason-carrying pragma silences its
    // target line (trailing), the next code line (whole-line), or the
    // whole file (`allow-file`).
    raw.retain(|f| !suppressed(f, &scrubbed));
    for f in raw {
        findings.push(finding_at(rel, &scrubbed, f.line, f.lint, f.message));
    }
    findings.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    (findings, honored)
}

fn suppressed(f: &RawFinding, scrubbed: &lexer::Scrubbed) -> bool {
    scrubbed.pragmas.iter().any(|p| {
        if p.malformed || p.reason.is_empty() || p.lint != f.lint {
            return false;
        }
        if p.file_wide {
            return true;
        }
        if p.whole_line {
            // A stack of whole-line pragmas covers the first code line
            // after the run.
            let mut target = p.line + 1;
            while scrubbed
                .pragmas
                .iter()
                .any(|q| q.whole_line && q.line == target)
            {
                target += 1;
            }
            target == f.line
        } else {
            p.line == f.line
        }
    })
}

fn finding_at(
    rel: &str,
    scrubbed: &lexer::Scrubbed,
    line: usize,
    lint: &'static str,
    message: String,
) -> Finding {
    let raw = scrubbed
        .raw_lines
        .get(line.saturating_sub(1))
        .map(String::as_str)
        .unwrap_or("");
    Finding {
        file: rel.to_owned(),
        line,
        lint,
        snippet: report::snippet_of(raw),
        message,
    }
}

/// The two attributes every crate root must carry.
const REQUIRED_CRATE_ATTRS: &[&str] = &[
    "#![forbid(unsafe_code)]",
    "#![deny(missing_debug_implementations)]",
];

fn crate_attr_findings(source: &str, out: &mut Vec<RawFinding>) {
    for attr in REQUIRED_CRATE_ATTRS {
        if !source.contains(attr) {
            out.push(RawFinding {
                line: 1,
                lint: "crate-attrs",
                message: format!("crate root is missing `{attr}`"),
            });
        }
    }
}

/// Audits the whole workspace rooted at `root`: the facade `src/` tree
/// plus every `crates/*/src` tree, classified by [`classify`]. Walk
/// order is sorted, so the report is byte-stable across filesystems.
pub fn audit_workspace(root: &Path) -> std::io::Result<AuditReport> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), root, &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            collect_rs(&entry.join("src"), root, &mut files)?;
        }
    }
    files.sort();
    audit_files(root, &files)
}

/// Audits an explicit file set (still rooted at `root` for labels).
/// Directories are walked recursively; every `.rs` file gets the
/// all-lints-on fixture class. This is the `--path` CLI mode.
pub fn audit_paths(root: &Path, paths: &[PathBuf]) -> std::io::Result<AuditReport> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            collect_rs(p, root, &mut files)?;
        } else {
            files.push(p.clone());
        }
    }
    files.sort();
    let mut report = AuditReport::default();
    for file in &files {
        let source = std::fs::read_to_string(file)?;
        let rel = rel_label(root, file);
        let (found, honored) = audit_source(&rel, &source, FileClass::all());
        report.findings.extend(found);
        report.pragmas_seen += honored;
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(report)
}

fn audit_files(root: &Path, files: &[PathBuf]) -> std::io::Result<AuditReport> {
    let mut report = AuditReport::default();
    for file in files {
        let rel = rel_label(root, file);
        let Some(class) = classify(&rel) else {
            continue;
        };
        let source = std::fs::read_to_string(file)?;
        let (found, honored) = audit_source(&rel, &source, class);
        report.findings.extend(found);
        report.pragmas_seen += honored;
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(report)
}

fn rel_label(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    // `/`-separated labels keep reports identical across platforms.
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Recursively collects `.rs` files under `dir` in sorted order.
fn collect_rs(dir: &Path, _root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs(&entry, _root, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_workspace_policy() {
        let lp = classify("crates/lp/src/model.rs").unwrap();
        assert!(lp.determinism && lp.panic_safety && !lp.crate_root);
        let units = classify("crates/units/src/money.rs").unwrap();
        assert!(!units.determinism && units.panic_safety);
        let root = classify("crates/sim/src/lib.rs").unwrap();
        assert!(root.crate_root);
        let bin = classify("crates/serve/src/bin/dpss-serve.rs").unwrap();
        assert!(bin.determinism && !bin.panic_safety);
        let facade = classify("src/lib.rs").unwrap();
        assert!(!facade.determinism && facade.panic_safety && facade.crate_root);
        let cli = classify("src/bin/dpss.rs").unwrap();
        assert!(!cli.panic_safety);
        assert!(classify("crates/lp/tests/simplex_properties.rs").is_none());
        assert!(classify("perfbench/src/main.rs").is_none());
        assert!(classify("examples/quickstart.rs").is_none());
        assert!(classify("crates/lp/src/notes.md").is_none());
    }

    #[test]
    fn pragmas_suppress_with_reason_only() {
        let src = "let a = x.unwrap(); // audit:allow(panic-unwrap): validated above\n\
                   let b = y.unwrap(); // audit:allow(panic-unwrap)\n\
                   // audit:allow(panic-unwrap): next line is invariant-guarded\n\
                   let c = z.unwrap();\n";
        let (findings, honored) = audit_source("f.rs", src, FileClass::all());
        let got: Vec<(usize, &str)> = findings.iter().map(|f| (f.line, f.lint)).collect();
        // Line 1 suppressed; line 2 keeps its finding AND gains the
        // missing-reason meta-finding; line 4 suppressed by line 3.
        assert_eq!(
            got,
            vec![(2, "panic-unwrap"), (2, "pragma-missing-reason")],
            "{findings:#?}"
        );
        assert_eq!(honored, 2);
    }

    #[test]
    fn stacked_whole_line_pragmas_cover_the_next_code_line() {
        let src = "// audit:allow(panic-unwrap): fallible only on poisoned input\n\
                   // audit:allow(slice-index): i bounded by the loop above\n\
                   let c = z[i].unwrap();\n";
        let (findings, _) = audit_source("f.rs", src, FileClass::all());
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn file_wide_pragmas_cover_everything() {
        let src = "// audit:allow-file(slice-index): dense kernel, bounds proven at build\n\
                   fn f() { a[0]; b[1]; }\nfn g() { c[2].unwrap(); }\n";
        let (findings, _) = audit_source("f.rs", src, FileClass::all());
        let got: Vec<&str> = findings.iter().map(|f| f.lint).collect();
        assert_eq!(got, vec!["panic-unwrap"], "{findings:#?}");
    }

    #[test]
    fn unknown_pragma_lints_are_flagged_and_do_not_suppress() {
        let src = "let a = x.unwrap(); // audit:allow(panic-unwarp): typo\n";
        let (findings, honored) = audit_source("f.rs", src, FileClass::all());
        let got: Vec<&str> = findings.iter().map(|f| f.lint).collect();
        assert_eq!(got, vec!["panic-unwrap", "pragma-unknown-lint"]);
        assert_eq!(honored, 0);
    }

    #[test]
    fn meta_lints_cannot_be_pragmad_away() {
        let src = "// audit:allow(pragma-missing-reason): nope\nlet a = 1;\n";
        let (findings, _) = audit_source("f.rs", src, FileClass::all());
        assert_eq!(findings[0].lint, "pragma-unknown-lint");
    }

    #[test]
    fn crate_root_attr_check() {
        let src = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        let class = FileClass {
            crate_root: true,
            ..FileClass::all()
        };
        let (findings, _) = audit_source("src/lib.rs", src, class);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "crate-attrs");
        assert!(findings[0]
            .message
            .contains("missing_debug_implementations"));
        let clean =
            "#![forbid(unsafe_code)]\n#![deny(missing_debug_implementations)]\npub fn f() {}\n";
        let (findings, _) = audit_source("src/lib.rs", clean, class);
        assert!(findings.is_empty());
    }

    #[test]
    fn workspace_root_discovery() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/audit");
        assert!(root.join("crates/audit/Cargo.toml").is_file());
    }
}
