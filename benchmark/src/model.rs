//! The generator's live-file model: which names every directory must
//! hold once a trace has run. The correctness check of the replay
//! workloads compares each directory's `readdir` with it.

use fsapi::ProcFs;
use hare_workloads::trace::{Trace, TraceOp};
use std::collections::{BTreeMap, BTreeSet};

/// Directory path → file names expected in it.
#[derive(Default)]
pub struct LiveModel {
    dirs: BTreeMap<String, BTreeSet<String>>,
}

fn split(path: &str) -> (&str, &str) {
    let i = path.rfind('/').expect("absolute path");
    (&path[..i], &path[i + 1..])
}

impl LiveModel {
    /// Starts tracking `dir` (empty).
    pub fn add_dir(&mut self, dir: &str) {
        self.dirs.entry(dir.to_string()).or_default();
    }

    /// Records that `path` now exists.
    pub fn create(&mut self, path: &str) {
        let (d, n) = split(path);
        self.dirs
            .get_mut(d)
            .unwrap_or_else(|| panic!("model does not track {d}"))
            .insert(n.to_string());
    }

    fn remove(&mut self, path: &str) {
        let (d, n) = split(path);
        let gone = self.dirs.get_mut(d).is_some_and(|s| s.remove(n));
        assert!(gone, "trace removes {path}, which the model never saw");
    }

    /// Applies every record of `trace`. The generators keep each client
    /// on files it created itself, so the result does not depend on how
    /// the replay interleaved the clients.
    pub fn apply(&mut self, trace: &Trace) {
        for r in &trace.records {
            match &r.op {
                TraceOp::Creat { path, .. } => self.create(path),
                TraceOp::Unlink { path } => self.remove(path),
                TraceOp::Rename { old, new } => {
                    self.remove(old);
                    self.create(new);
                }
                _ => {}
            }
        }
    }

    /// Total files expected.
    pub fn files(&self) -> usize {
        self.dirs.values().map(BTreeSet::len).sum()
    }

    /// Lists every tracked directory through `c` and compares it with the
    /// model; reports the first few mismatches on stderr.
    pub fn verify<C: ProcFs>(&self, c: &C) -> bool {
        let mut bad = 0;
        for (dir, want) in &self.dirs {
            let got: Result<BTreeSet<String>, _> = c
                .readdir(dir)
                .map(|es| es.into_iter().map(|e| e.name).collect());
            if got.as_ref() != Ok(want) {
                bad += 1;
                if bad <= 3 {
                    eprintln!(
                        "verify: {dir} lists {:?} entries, model expects {}",
                        got.map(|s| s.len()),
                        want.len()
                    );
                }
            }
        }
        bad == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hare_workloads::trace::TraceRecord;

    #[test]
    fn model_follows_a_trace() {
        let rec = |op| TraceRecord {
            client: 0,
            think: 0,
            op,
        };
        let trace = Trace {
            name: "t".into(),
            dirs: vec![],
            records: vec![
                rec(TraceOp::Creat {
                    path: "/d/a".into(),
                    size: 0,
                }),
                rec(TraceOp::Creat {
                    path: "/d/b".into(),
                    size: 0,
                }),
                rec(TraceOp::Rename {
                    old: "/d/a".into(),
                    new: "/d/c".into(),
                }),
                rec(TraceOp::Stat {
                    path: "/d/c".into(),
                }),
                rec(TraceOp::Unlink {
                    path: "/d/b".into(),
                }),
            ],
        };
        let mut m = LiveModel::default();
        m.add_dir("/d");
        m.apply(&trace);
        assert_eq!(m.files(), 1);
        assert!(m.dirs["/d"].contains("c"));
    }
}
