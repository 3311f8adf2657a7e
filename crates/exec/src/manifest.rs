//! The run manifest: a JSON record of what a run executed and how it went.
//!
//! A [`RunManifest`] captures enough to audit a run — master seed, config
//! key/values, best-effort git commit, per-job seed/status/timings. It is
//! written to the caller's output directory (`repro_out/` for the `repro`
//! binary) as `<tool>_manifest.json`, and nothing reads it back: the
//! determinism contract makes a rerun byte-identical, so the record has no
//! state worth recovering.
//!
//! Seeds are stored as hex *strings*, not JSON numbers: a JSON number is a
//! double and cannot represent every `u64` exactly.

use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Value;

/// Terminal status of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// The job produced its value (and any artifact was written).
    Ok,
    /// The job failed; the payload is the failure message.
    Failed(String),
}

/// One job's row in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Stable job id (commit order).
    pub id: usize,
    /// Job name.
    pub name: String,
    /// Seed the job received.
    pub seed: u64,
    /// Terminal status.
    pub status: JobStatus,
    /// Attempts made.
    pub attempts: u32,
    /// Execution wall time in milliseconds.
    pub wall_ms: f64,
    /// Queue wait in milliseconds.
    pub queue_ms: f64,
    /// Artifact the job produced (e.g. a CSV file name), if any.
    pub artifact: Option<String>,
}

/// A complete run record, serialized to JSON.
///
/// # Examples
///
/// ```
/// use abs_exec::json::Value;
/// use abs_exec::{JobRecord, JobStatus, RunManifest};
///
/// let mut manifest = RunManifest::new("demo", 1);
/// manifest.set_config("reps", "10");
/// manifest.push_record(JobRecord {
///     id: 0,
///     name: "a".into(),
///     seed: 1,
///     status: JobStatus::Ok,
///     attempts: 1,
///     wall_ms: 0.5,
///     queue_ms: 0.0,
///     artifact: None,
/// });
/// let dir = std::env::temp_dir().join("abs_exec_manifest_doctest");
/// let path = manifest.write_to(&dir).unwrap();
/// assert!(path.ends_with("demo_manifest.json"));
/// let doc = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
/// assert_eq!(doc.get("seed").and_then(Value::as_str), Some("0x1"));
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Name of the producing tool (names the manifest file).
    pub tool: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Free-form configuration key/value pairs.
    pub config: Vec<(String, String)>,
    /// Best-effort git commit of the working tree, if discoverable.
    pub git: Option<String>,
    /// Unix timestamp (milliseconds) when the manifest was created.
    pub created_unix_ms: u64,
    /// Worker count of the producing run.
    pub workers: usize,
    /// Total wall time of the producing run, milliseconds.
    pub elapsed_ms: f64,
    /// Per-job rows, in job-id order.
    pub jobs: Vec<JobRecord>,
}

impl RunManifest {
    /// An empty manifest for `tool` with the given master seed.
    pub fn new(tool: impl Into<String>, seed: u64) -> Self {
        Self {
            tool: tool.into(),
            seed,
            config: Vec::new(),
            git: None,
            created_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            workers: 0,
            elapsed_ms: 0.0,
            jobs: Vec::new(),
        }
    }

    /// The manifest file name for `tool`.
    pub fn file_name(tool: &str) -> String {
        format!("{tool}_manifest.json")
    }

    /// Sets (or replaces) a configuration key.
    pub fn set_config(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        if let Some(slot) = self.config.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.config.push((key.to_string(), value));
        }
    }

    /// Appends one job's row.
    pub fn push_record(&mut self, record: JobRecord) {
        self.jobs.push(record);
    }

    /// Serializes the manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                let (status, error) = match &j.status {
                    JobStatus::Ok => ("ok".to_string(), Value::Null),
                    JobStatus::Failed(msg) => ("failed".to_string(), Value::Str(msg.clone())),
                };
                Value::Obj(vec![
                    ("id".into(), Value::Num(j.id as f64)),
                    ("name".into(), Value::Str(j.name.clone())),
                    ("seed".into(), Value::Str(format!("{:#x}", j.seed))),
                    ("status".into(), Value::Str(status)),
                    ("error".into(), error),
                    ("attempts".into(), Value::Num(f64::from(j.attempts))),
                    ("wall_ms".into(), Value::Num(round3(j.wall_ms))),
                    ("queue_ms".into(), Value::Num(round3(j.queue_ms))),
                    (
                        "artifact".into(),
                        match &j.artifact {
                            Some(a) => Value::Str(a.clone()),
                            None => Value::Null,
                        },
                    ),
                ])
            })
            .collect();
        let config = self
            .config
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        Value::Obj(vec![
            ("tool".into(), Value::Str(self.tool.clone())),
            ("seed".into(), Value::Str(format!("{:#x}", self.seed))),
            ("config".into(), Value::Obj(config)),
            (
                "git".into(),
                match &self.git {
                    Some(g) => Value::Str(g.clone()),
                    None => Value::Null,
                },
            ),
            (
                "created_unix_ms".into(),
                Value::Num(self.created_unix_ms as f64),
            ),
            ("workers".into(), Value::Num(self.workers as f64)),
            ("elapsed_ms".into(), Value::Num(round3(self.elapsed_ms))),
            ("jobs".into(), Value::Arr(jobs)),
        ])
        .render_pretty()
    }

    /// Writes `<tool>_manifest.json` into `dir`, creating it if needed.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::file_name(&self.tool));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Best-effort current commit id of the repository at `root`, read straight
/// from `.git` (no subprocess, so it works in sandboxes without git).
pub fn git_commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref: ") {
        let direct = root.join(".git").join(reference);
        if let Ok(commit) = std::fs::read_to_string(direct) {
            return Some(commit.trim().to_string());
        }
        // Packed refs fallback.
        let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
        packed.lines().find_map(|line| {
            let (hash, name) = line.split_once(' ')?;
            (name == reference).then(|| hash.to_string())
        })
    } else {
        // Detached HEAD: the file holds the commit itself.
        Some(head.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("unit", 0xDEAD_BEEF_F00D_CAFE);
        m.set_config("reps", "10");
        m.set_config("max_n", "64");
        m.workers = 2;
        m.elapsed_ms = 12.5;
        m.push_record(JobRecord {
            id: 0,
            name: "fig5".into(),
            seed: u64::MAX,
            status: JobStatus::Ok,
            attempts: 1,
            wall_ms: 3.25,
            queue_ms: 0.125,
            artifact: Some("fig5.csv".into()),
        });
        m.push_record(JobRecord {
            id: 1,
            name: "fig6".into(),
            seed: 7,
            status: JobStatus::Failed("index out of bounds".into()),
            attempts: 2,
            wall_ms: 1.0,
            queue_ms: 0.0,
            artifact: None,
        });
        m
    }

    /// The four things a reader of the written JSON relies on.
    fn assert_records_sample(doc: &Value) {
        // u64::MAX survives as a hex string (the reason seeds are strings).
        let jobs = doc.get("jobs").and_then(Value::as_array).unwrap();
        assert_eq!(
            jobs[0].get("seed").and_then(Value::as_str),
            Some("0xffffffffffffffff")
        );
        assert_eq!(
            doc.get("config"),
            Some(&Value::Obj(vec![
                ("reps".into(), Value::Str("10".into())),
                ("max_n".into(), Value::Str("64".into())),
            ]))
        );
        assert_eq!(
            jobs[0].get("artifact").and_then(Value::as_str),
            Some("fig5.csv")
        );
        // A failed row keeps its status and diagnosis.
        assert_eq!(
            jobs[1].get("status").and_then(Value::as_str),
            Some("failed")
        );
        assert_eq!(
            jobs[1].get("error").and_then(Value::as_str),
            Some("index out of bounds")
        );
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        assert_records_sample(&Value::parse(&sample().to_json()).unwrap());
    }

    #[test]
    fn write_and_load() {
        let dir = std::env::temp_dir().join("abs_exec_manifest_test");
        let path = sample().write_to(&dir).unwrap();
        assert!(path.ends_with("unit_manifest.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_records_sample(&Value::parse(&text).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_config_replaces() {
        let mut m = RunManifest::new("t", 0);
        m.set_config("k", "1");
        m.set_config("k", "2");
        assert_eq!(m.config, vec![("k".to_string(), "2".to_string())]);
    }

    #[test]
    fn git_commit_reads_this_repo() {
        // The workspace is a git repository; HEAD must resolve to a hex id.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let commit = git_commit(&root).expect("repo HEAD resolves");
        assert!(commit.len() >= 7);
        assert!(commit.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
