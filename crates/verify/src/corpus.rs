//! The committed regression corpus.
//!
//! Every bug the fuzzer finds is landed with its shrunk reproducer as a
//! `tests/corpus/*.s` file. The file is plain assembly with a
//! `!`-comment header (the parser skips comments), so a reproducer is
//! replayable both by the corpus test and by hand:
//!
//! ```text
//! dagsched diff tests/corpus/interp-001a2b3c.s
//! ```
//!
//! Header fields: `check:` (the [`CheckKind`] the file originally
//! failed), `pair:` (the disagreeing pipeline pair), `detail:` (the
//! diagnosis at discovery time), `seed:`/`shape:` (provenance). Replay
//! ignores everything but the assembly — the whole matrix is re-run, so
//! a reproducer keeps protecting against *any* regression it can reach.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use dagsched_isa::fnv64;

use crate::matrix::{check_text, CheckKind, Disagreement, MatrixConfig};

/// A replayed corpus file that failed the matrix.
#[derive(Debug)]
pub struct ReplayFailure {
    /// The reproducer path.
    pub path: PathBuf,
    /// The assembly text it contains (for the failure report).
    pub text: String,
    /// The disagreement the matrix found.
    pub disagreement: Disagreement,
}

/// Write a shrunk reproducer into `dir`, named
/// `<check>-<texthash>.s`. Returns the path (existing identical
/// reproducers are overwritten idempotently).
pub fn write_reproducer(
    dir: &Path,
    kind: CheckKind,
    pair: &str,
    detail: &str,
    provenance: &str,
    text: &str,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    // FNV-1a of the text keeps reproducer file names stable.
    let hash = fnv64(text.as_bytes()) as u32;
    let path = dir.join(format!("{}-{hash:08x}.s", kind.name()));
    let mut out = String::new();
    out.push_str("! dagsched-verify reproducer (shrunk)\n");
    out.push_str(&format!("! check: {}\n", kind.name()));
    out.push_str(&format!("! pair: {pair}\n"));
    for line in detail.lines() {
        out.push_str(&format!("! detail: {line}\n"));
    }
    out.push_str(&format!("! found-by: {provenance}\n"));
    out.push_str(text);
    if !text.ends_with('\n') {
        out.push('\n');
    }
    fs::write(&path, out)?;
    Ok(path)
}

/// The `check:` header of a reproducer file, when present.
pub fn reproducer_kind(text: &str) -> Option<CheckKind> {
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix("! check:") {
            return CheckKind::from_name(rest.trim());
        }
    }
    None
}

/// Replay every `*.s` file in `dir` through the full matrix. Returns
/// the failures (an empty vector means the corpus is green). A missing
/// directory replays as empty — the corpus starts life with no entries.
pub fn replay_dir(dir: &Path, cfg: &MatrixConfig) -> io::Result<Vec<ReplayFailure>> {
    let mut failures = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(failures),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    paths.sort();
    for path in paths {
        let text = fs::read_to_string(&path)?;
        if let Err(disagreement) = check_text(&text, cfg) {
            failures.push(ReplayFailure {
                path,
                text,
                disagreement,
            });
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_replay_roundtrips() {
        let dir = std::env::temp_dir().join(format!("dagsched-corpus-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // A healthy block: replay must be green.
        let good = "    add %o0, %o1, %o2\n";
        let p = write_reproducer(
            &dir,
            CheckKind::Interp,
            "example vs example",
            "written by a unit test",
            "unit-test",
            good,
        )
        .expect("write");
        let on_disk = fs::read_to_string(&p).expect("read");
        assert_eq!(reproducer_kind(&on_disk), Some(CheckKind::Interp));
        let failures = replay_dir(&dir, &MatrixConfig::default()).expect("replay");
        assert!(failures.is_empty(), "{failures:?}");
        // An unparseable file must be reported with its path.
        fs::write(dir.join("parse-zz.s"), "! check: parse\n    junk here\n").unwrap();
        let failures = replay_dir(&dir, &MatrixConfig::default()).expect("replay");
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].disagreement.kind, CheckKind::Parse);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        let dir = Path::new("/nonexistent/dagsched-corpus");
        let failures = replay_dir(dir, &MatrixConfig::default()).expect("replay");
        assert!(failures.is_empty());
    }
}
