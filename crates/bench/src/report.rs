//! Machine-readable benchmark results: a tiny hand-rolled JSON value
//! plus a section-keyed read-modify-write into `results/BENCH_exec.json`,
//! so `bench_executor` and `bench_serve` can each own a section of one
//! shared file without a JSON parser dependency.
//!
//! The file format is deliberately line-oriented — one section per line —
//! so merging is a line replace, not a parse.  Only the benches in this
//! crate write the file; anything else should treat it as ordinary JSON.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use batchbb_storage::{CoefficientStore, IoStats, StorageError};
use batchbb_tensor::CoeffKey;

/// A minimal JSON value for rendering benchmark rows.
#[derive(Debug, Clone)]
pub enum Json {
    /// An unsigned integer.
    U64(u64),
    /// A finite float (rendered with enough digits to round-trip).
    F64(f64),
    /// A string (escaped minimally: quotes and backslashes).
    Str(String),
    /// An array of values.
    Arr(Vec<Json>),
    /// An object with insertion-ordered fields.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                // `{:?}` prints shortest round-trip form and keeps a
                // decimal point, so the value stays a JSON number that
                // reads back as a float.
                let _ = write!(out, "{v:?}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// The workspace `results/` directory (benches run with the package as
/// cwd, so this resolves relative to the manifest, not the cwd).
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Replaces (or appends) one section of a section-per-line JSON report
/// and writes the file back with sections sorted by name.
///
/// The resulting file is a JSON object whose top-level values each occupy
/// exactly one line, e.g.
///
/// ```json
/// {
/// "bench_executor": {"configs":[...]},
/// "bench_serve": {"configs":[...]}
/// }
/// ```
pub fn write_section(path: &Path, section: &str, value: &Json) {
    let mut sections: Vec<(String, String)> = Vec::new();
    if let Ok(existing) = fs::read_to_string(path) {
        for line in existing.lines() {
            let line = line.trim().trim_end_matches(',');
            if line == "{" || line == "}" || line.is_empty() {
                continue;
            }
            if let Some((name, body)) = parse_section_line(line) {
                sections.push((name, body));
            }
        }
    }
    sections.retain(|(name, _)| name != section);
    sections.push((section.to_string(), value.render()));
    sections.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{\n");
    for (i, (name, body)) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        let _ = writeln!(out, "\"{name}\": {body}{comma}");
    }
    out.push_str("}\n");
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    fs::write(path, out).expect("write benchmark report");
}

/// Splits a `"name": body` report line into its parts.
fn parse_section_line(line: &str) -> Option<(String, String)> {
    let rest = line.strip_prefix('"')?;
    let quote = rest.find('"')?;
    let name = rest[..quote].to_string();
    let body = rest[quote + 1..].trim_start().strip_prefix(':')?.trim();
    Some((name, body.to_string()))
}

/// Reads a section-per-line report (as written by [`write_section`]) back
/// into `(name, single-line JSON body)` pairs. Missing file reads as
/// empty.
pub fn read_sections(path: &Path) -> Vec<(String, String)> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            if line == "{" || line == "}" || line.is_empty() {
                return None;
            }
            parse_section_line(line)
        })
        .collect()
}

/// Extracts the number following `"key":` in a machine-written section
/// body (the `Json::render` format: no whitespace inside objects). The
/// first occurrence wins; `None` when the key is absent or non-numeric.
pub fn number_field(body: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = &body[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Looks up `field` inside the window row `{"window":w,...}` of a
/// prefetch-sweep section body (`"windows":[...]` as the sweeps write
/// it).
pub fn window_field(body: &str, window: u64, field: &str) -> Option<f64> {
    let needle = format!("{{\"window\":{window},");
    let at = body.find(&needle)?;
    let row = &body[at..];
    let end = row.find('}').unwrap_or(row.len());
    number_field(&row[..end], field)
}

/// A pass-through store that counts *calls* (store round-trips), not
/// logical retrievals: `singleton_calls` counts `get`/`try_get`,
/// `batch_calls` counts `try_get_many` invocations and `batch_keys` the
/// keys they carried.  This is the fetch-count metric of the prefetch
/// sweep — how many times the executor crossed the store boundary — which
/// [`IoStats`] deliberately does not distinguish.
pub struct FetchCounter<S> {
    inner: S,
    singleton_calls: AtomicU64,
    batch_calls: AtomicU64,
    batch_keys: AtomicU64,
}

impl<S: CoefficientStore> FetchCounter<S> {
    /// Wraps a store.
    pub fn new(inner: S) -> Self {
        FetchCounter {
            inner,
            singleton_calls: AtomicU64::new(0),
            batch_calls: AtomicU64::new(0),
            batch_keys: AtomicU64::new(0),
        }
    }

    /// `get`/`try_get` calls seen.
    pub fn singleton_calls(&self) -> u64 {
        self.singleton_calls.load(Ordering::Relaxed)
    }

    /// `try_get_many` calls seen.
    pub fn batch_calls(&self) -> u64 {
        self.batch_calls.load(Ordering::Relaxed)
    }

    /// Keys carried by all `try_get_many` calls.
    pub fn batch_keys(&self) -> u64 {
        self.batch_keys.load(Ordering::Relaxed)
    }

    /// Total store round-trips (singleton + batch calls).
    pub fn total_calls(&self) -> u64 {
        self.singleton_calls() + self.batch_calls()
    }
}

impl<S: CoefficientStore> CoefficientStore for FetchCounter<S> {
    fn get(&self, key: &CoeffKey) -> Option<f64> {
        self.singleton_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.get(key)
    }

    fn try_get(&self, key: &CoeffKey) -> Result<Option<f64>, StorageError> {
        self.singleton_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.try_get(key)
    }

    fn try_get_many(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
        self.batch_calls.fetch_add(1, Ordering::Relaxed);
        self.batch_keys
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        self.inner.try_get_many(keys)
    }

    // `submit` keeps the trait default so the adapter's fetch lands in the
    // counted `try_get_many` above; the quiesce barrier still forwards.
    fn quiesce(&self) {
        self.inner.quiesce()
    }

    fn version_tag(&self) -> u64 {
        self.inner.version_tag()
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_and_escapes() {
        let v = Json::obj([
            ("n", Json::U64(3)),
            ("x", Json::F64(1.5)),
            ("s", Json::Str("a\"b\\c".into())),
            ("a", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
        ]);
        assert_eq!(v.render(), r#"{"n":3,"x":1.5,"s":"a\"b\\c","a":[1,2]}"#);
    }

    #[test]
    fn sections_merge_and_sort() {
        let dir = std::env::temp_dir().join(format!("batchbb-report-{}", std::process::id()));
        let path = dir.join("report.json");
        write_section(&path, "zeta", &Json::obj([("v", Json::U64(1))]));
        write_section(&path, "alpha", &Json::obj([("v", Json::U64(2))]));
        write_section(&path, "zeta", &Json::obj([("v", Json::U64(3))]));
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\n\"alpha\": {\"v\":2},\n\"zeta\": {\"v\":3}\n}\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sections_read_back_and_fields_extract() {
        let dir = std::env::temp_dir().join(format!("batchbb-readback-{}", std::process::id()));
        let path = dir.join("report.json");
        write_section(
            &path,
            "sweep",
            &Json::obj([
                ("speedup", Json::F64(3.5)),
                (
                    "windows",
                    Json::Arr(vec![
                        Json::obj([("window", Json::U64(1)), ("store_calls", Json::U64(6590))]),
                        Json::obj([("window", Json::U64(64)), ("store_calls", Json::U64(103))]),
                    ]),
                ),
            ]),
        );
        let sections = read_sections(&path);
        assert_eq!(sections.len(), 1);
        let (name, body) = &sections[0];
        assert_eq!(name, "sweep");
        assert_eq!(number_field(body, "speedup"), Some(3.5));
        assert_eq!(number_field(body, "absent"), None);
        assert_eq!(window_field(body, 64, "store_calls"), Some(103.0));
        assert_eq!(window_field(body, 1, "store_calls"), Some(6590.0));
        assert_eq!(window_field(body, 16, "store_calls"), None);
        assert!(read_sections(&dir.join("missing.json")).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fetch_counter_counts_calls_not_keys() {
        use batchbb_storage::MemoryStore;
        let keys: Vec<CoeffKey> = (0..6).map(CoeffKey::one).collect();
        let store = FetchCounter::new(MemoryStore::from_entries(
            keys.iter().map(|k| (*k, 1.0)).collect::<Vec<_>>(),
        ));
        store.get(&keys[0]);
        store.try_get(&keys[1]).unwrap();
        store.try_get_many(&keys[2..6]).unwrap();
        assert_eq!(store.singleton_calls(), 2);
        assert_eq!(store.batch_calls(), 1);
        assert_eq!(store.batch_keys(), 4);
        assert_eq!(store.total_calls(), 3);
    }
}
