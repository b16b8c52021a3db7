//! `eagleeye-lint` — a dependency-free, std-only static-analysis
//! engine that mechanically enforces the reproduction's core
//! invariants across the workspace (DESIGN.md §11):
//!
//! | rule id            | enforces |
//! |--------------------|----------|
//! | `no-unwrap`        | no `.unwrap()`/`.expect(...)` in library code |
//! | `determinism`      | no `HashMap`/`HashSet` in crates feeding serialized or scheduled output |
//! | `clock`            | no `Instant::now`/`SystemTime::now` outside `obs`/`exec`/`bench` |
//! | `float-eq`         | no `==`/`!=` against float literals or casts |
//! | `unsafe-hygiene`   | `// SAFETY:` on every `unsafe`; `#![forbid(unsafe_code)]` elsewhere |
//! | `metric-namespace` | literal metric keys match `subsystem/name` (DESIGN.md §10.2) |
//! | `no-exit`          | no `process::exit`/`process::abort` outside bins and the bench harness |
//!
//! Rules run on a token stream from a real lexer
//! ([`lexer`]) — strings, raw strings, char literals, nested block
//! comments, and doc comments can never trip a rule. Field coverage of
//! digests, codecs and folds is not a lint rule: those functions
//! destructure their structs exhaustively, so the compiler rejects a
//! new field they do not handle (DESIGN.md §16). Violations that are
//! correct *by design* carry inline, audited suppressions
//! ([`suppress`]), and the binary's `--baseline` mode pins the full
//! suppression inventory to the checked-in `lint-allowlist.txt`.

#![forbid(unsafe_code)]

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod suppress;

pub use diag::Diagnostic;
pub use engine::{lint_source, lint_workspace, FileRole, LintReport};
