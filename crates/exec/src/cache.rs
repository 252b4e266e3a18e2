//! Content-addressed result cache.
//!
//! Every sweep cell is a pure function of its inputs: the [`SimConfig`],
//! the workload, the scale, and the instruction window. The cache
//! therefore keys each schema-stamped metrics document by a stable 64-bit FNV-1a hash of the **canonical** JSON
//! encoding of those inputs — canonical meaning object members are
//! sorted recursively before hashing, so two encodings of the same
//! configuration that differ only in field order address the same entry,
//! while any single field *value* change addresses a different one.
//!
//! Layout on disk is one file per entry, `<dir>/<16-hex-digits>.json`,
//! written atomically (temp file + rename) so concurrent workers racing
//! on the same key can never expose a torn document. The directory
//! defaults to [`DEFAULT_CACHE_DIR`] and is created on first store.

use std::io::Write;
use std::path::{Path, PathBuf};

use cpe_core::{config_json, parse_json, BackendKind, JsonValue, METRICS_SCHEMA};
use cpe_workloads::Scale;

use crate::job::{scale_name, Job};
use crate::render::render;

/// Default on-disk location, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = ".cpe-cache";

/// Version of the key derivation itself, folded into every hash: bump it
/// and every prior entry is a clean miss (never a wrong hit).
///
/// History: 2 added the execution backend and its trace-format version
/// to the key document (the record-once/replay-many backend).
pub const CACHE_SCHEMA: u32 = 2;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Recursively sort object members by key; arrays keep their order
/// (position is meaningful there).
fn canonicalize(value: &JsonValue) -> JsonValue {
    match value {
        JsonValue::Object(members) => {
            let mut sorted: Vec<(String, JsonValue)> = members
                .iter()
                .map(|(key, member)| (key.clone(), canonicalize(member)))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            JsonValue::Object(sorted)
        }
        JsonValue::Array(items) => JsonValue::Array(items.iter().map(canonicalize).collect()),
        other => other.clone(),
    }
}

/// The canonical rendering of a JSON document: parsed, members sorted
/// recursively, re-rendered with no whitespace.
///
/// # Errors
///
/// When `text` is not well-formed JSON.
pub fn canonical_json(text: &str) -> Result<String, String> {
    Ok(render(&canonicalize(&parse_json(text)?)))
}

/// The content address of one job's result document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Key for a [`Job`]: hash of the canonical encoding of its config
    /// plus workload id, scale, instruction window, execution backend
    /// (with its trace-format version), and both schema versions
    /// (document and key derivation).
    ///
    /// The backend is part of the address even though direct and replay
    /// promise byte-identical documents: keeping their entries separate
    /// means the promise stays *checkable* (`cpe diff` between a direct
    /// and a replay run exercises both paths instead of one serving the
    /// other from cache), and a replay trace-format bump invalidates
    /// only replay-path entries.
    pub fn for_job(job: &Job) -> CacheKey {
        CacheKey::for_config_backend(
            &config_json(&job.config),
            job.workload.name(),
            job.scale,
            job.max_insts,
            job.backend,
        )
        .expect("config_json emits well-formed JSON")
    }

    /// Key from an already-encoded configuration document, for the
    /// default (direct) backend — the form cache tooling uses. Field
    /// order in `config_text` is irrelevant: the text is canonicalized
    /// first.
    ///
    /// # Errors
    ///
    /// When `config_text` is not well-formed JSON.
    pub fn for_config_text(
        config_text: &str,
        workload: &str,
        scale: Scale,
        max_insts: Option<u64>,
    ) -> Result<CacheKey, String> {
        CacheKey::for_config_backend(config_text, workload, scale, max_insts, BackendKind::Direct)
    }

    /// [`CacheKey::for_config_text`] with an explicit execution backend.
    ///
    /// # Errors
    ///
    /// When `config_text` is not well-formed JSON.
    pub fn for_config_backend(
        config_text: &str,
        workload: &str,
        scale: Scale,
        max_insts: Option<u64>,
        backend: BackendKind,
    ) -> Result<CacheKey, String> {
        let config = canonical_json(config_text)?;
        let window = match max_insts {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        let key_doc = format!(
            "{{\"cache_schema\":{CACHE_SCHEMA},\"metrics_schema\":{METRICS_SCHEMA},\
             \"backend\":\"{}\",\"trace_format\":{},\
             \"config\":{config},\"workload\":\"{workload}\",\"scale\":\"{}\",\
             \"max_insts\":{window}}}",
            backend.name(),
            backend.trace_format(),
            scale_name(scale)
        );
        Ok(CacheKey(fnv1a64(key_doc.as_bytes())))
    }

    /// The 16-hex-digit file stem this key addresses.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Entry count and total size of a cache directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of `*.json` entries.
    pub entries: usize,
    /// Their total size in bytes.
    pub bytes: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} entries, {:.1} KiB",
            self.entries,
            self.bytes as f64 / 1024.0
        )
    }
}

/// A content-addressed store of metrics documents.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (not created until the first store).
    pub fn new(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache { dir: dir.into() }
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// The stored document for `key`, if present and readable.
    pub fn lookup(&self, key: &CacheKey) -> Option<String> {
        let doc = std::fs::read_to_string(self.entry_path(key)).ok()?;
        // A torn or foreign file must read as a miss, not poison a sweep.
        doc.starts_with('{').then_some(doc)
    }

    /// Store `document` under `key`, atomically: the entry appears
    /// complete or not at all, even with concurrent writers.
    ///
    /// # Errors
    ///
    /// On any I/O failure creating, writing, or renaming the entry.
    pub fn store(&self, key: &CacheKey, document: &str) -> std::io::Result<()> {
        // Tmp names must be unique per *writer*, not just per process:
        // two threads storing the same key from one pid would otherwise
        // share a tmp file, and the loser's rename would fail.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        std::fs::create_dir_all(&self.dir)?;
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{seq}-{}", std::process::id(), key.hex()));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(document.as_bytes())?;
        }
        std::fs::rename(&tmp, self.entry_path(key))
    }

    /// Entry count and total bytes (an absent directory is an empty
    /// cache).
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return stats;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                stats.entries += 1;
                stats.bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
        stats
    }

    /// Delete every `*.json` entry, returning how many were removed.
    ///
    /// # Errors
    ///
    /// On any I/O failure other than the directory not existing.
    pub fn clear(&self) -> std::io::Result<usize> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(error) => return Err(error),
        };
        let mut removed = 0;
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                match std::fs::remove_file(&path) {
                    Ok(()) => removed += 1,
                    // Another clearer (or an entry replaced mid-scan)
                    // got there first; the entry is gone either way.
                    Err(error) if error.kind() == std::io::ErrorKind::NotFound => {}
                    Err(error) => return Err(error),
                }
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpe_core::SimConfig;
    use cpe_workloads::Workload;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpe-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn job(config: SimConfig) -> Job {
        Job {
            config,
            workload: Workload::Sort,
            scale: Scale::Test,
            max_insts: Some(5_000),
            backend: BackendKind::Direct,
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn canonical_json_sorts_members_recursively() {
        let canon = canonical_json("{\"b\":1,\"a\":{\"z\":true,\"y\":[2,1]}}").unwrap();
        assert_eq!(canon, "{\"a\":{\"y\":[2,1],\"z\":true},\"b\":1}");
        // Arrays keep their order: position is meaningful.
        assert_ne!(
            canonical_json("[1,2]").unwrap(),
            canonical_json("[2,1]").unwrap()
        );
    }

    #[test]
    fn keys_ignore_member_order_but_not_values() {
        let a = CacheKey::for_config_text("{\"x\":1,\"y\":2}", "sort", Scale::Test, None).unwrap();
        let b = CacheKey::for_config_text("{\"y\":2,\"x\":1}", "sort", Scale::Test, None).unwrap();
        assert_eq!(a, b);
        let c = CacheKey::for_config_text("{\"x\":1,\"y\":3}", "sort", Scale::Test, None).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn keys_separate_workload_scale_and_window() {
        let base = job(SimConfig::dual_port());
        let key = CacheKey::for_job(&base);
        let mut other = base.clone();
        other.workload = Workload::Fft;
        assert_ne!(key, CacheKey::for_job(&other));
        let mut other = base.clone();
        other.scale = Scale::Small;
        assert_ne!(key, CacheKey::for_job(&other));
        let mut other = base.clone();
        other.max_insts = Some(5_001);
        assert_ne!(key, CacheKey::for_job(&other));
        let mut other = base.clone();
        other.max_insts = None;
        assert_ne!(key, CacheKey::for_job(&other));
        let mut other = base;
        other.backend = BackendKind::Replay;
        assert_ne!(
            key,
            CacheKey::for_job(&other),
            "replay and direct entries must not serve each other"
        );
    }

    #[test]
    fn a_schema_bump_invalidates_stale_entries() {
        // Reconstruct the key derivation by hand for the current schema
        // and for stale variants. The rebuilt current-schema key must
        // match `for_job` exactly (proving the reconstruction is
        // faithful), and every stale variant must differ — so a cache
        // populated by an older build misses cleanly after a
        // METRICS_SCHEMA, CACHE_SCHEMA, or replay trace-format bump,
        // with no migration step.
        let base = job(SimConfig::dual_port());
        let current = CacheKey::for_job(&base);
        let config = canonical_json(&config_json(&base.config)).unwrap();
        let key_doc = |metrics_schema: u32, backend: &str, trace_format: u32| {
            format!(
                "{{\"cache_schema\":{CACHE_SCHEMA},\"metrics_schema\":{metrics_schema},\
                 \"backend\":\"{backend}\",\"trace_format\":{trace_format},\
                 \"config\":{config},\"workload\":\"sort\",\"scale\":\"test\",\
                 \"max_insts\":5000}}"
            )
        };
        assert_eq!(
            current,
            CacheKey(fnv1a64(key_doc(METRICS_SCHEMA, "direct", 0).as_bytes()))
        );
        let stale_metrics = CacheKey(fnv1a64(key_doc(METRICS_SCHEMA - 1, "direct", 0).as_bytes()));
        assert_ne!(
            current, stale_metrics,
            "schema bump must change the address"
        );

        // The CACHE_SCHEMA=1 derivation (no backend/trace_format fields)
        // must address different entries than the current one, for both
        // backends: nothing written by a pre-replay build can serve.
        let v1_doc = format!(
            "{{\"cache_schema\":1,\"metrics_schema\":{METRICS_SCHEMA},\
             \"config\":{config},\"workload\":\"sort\",\"scale\":\"test\",\
             \"max_insts\":5000}}"
        );
        let v1 = CacheKey(fnv1a64(v1_doc.as_bytes()));
        let mut replay = base.clone();
        replay.backend = BackendKind::Replay;
        let replay_key = CacheKey::for_job(&replay);
        assert_ne!(v1, current, "cache_schema bump must change the address");
        assert_ne!(v1, replay_key, "for either backend");

        // A replay trace-format bump must re-address replay entries and
        // leave direct entries alone.
        let replay_format = BackendKind::Replay.trace_format();
        assert_eq!(
            replay_key,
            CacheKey(fnv1a64(
                key_doc(METRICS_SCHEMA, "replay", replay_format).as_bytes()
            ))
        );
        let bumped_format = CacheKey(fnv1a64(
            key_doc(METRICS_SCHEMA, "replay", replay_format + 1).as_bytes(),
        ));
        assert_ne!(replay_key, bumped_format, "format bump re-addresses replay");
        assert_eq!(
            current,
            CacheKey(fnv1a64(key_doc(METRICS_SCHEMA, "direct", 0).as_bytes())),
            "direct keys are unaffected by the replay format"
        );

        let dir = tempdir("schema-bump");
        let cache = ResultCache::new(&dir);
        cache.store(&stale_metrics, "{\"schema\":2}").unwrap();
        cache.store(&v1, "{\"schema\":2}").unwrap();
        cache.store(&bumped_format, "{\"schema\":3}").unwrap();
        for key in [current, replay_key] {
            assert!(
                cache.lookup(&key).is_none(),
                "a stale-schema entry must never serve a current-schema job"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_then_lookup_roundtrips_and_stats_count() {
        let dir = tempdir("roundtrip");
        let cache = ResultCache::new(&dir);
        let key = CacheKey::for_job(&job(SimConfig::dual_port()));
        assert!(cache.lookup(&key).is_none());
        assert_eq!(cache.stats(), CacheStats::default());

        cache.store(&key, "{\"schema\":2}").unwrap();
        assert_eq!(cache.lookup(&key).as_deref(), Some("{\"schema\":2}"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);

        assert_eq!(cache.clear().unwrap(), 1);
        assert!(cache.lookup(&key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_entries_read_as_misses() {
        let dir = tempdir("torn");
        let cache = ResultCache::new(&dir);
        let key = CacheKey::for_job(&job(SimConfig::quad_port()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{}.json", key.hex())), "garbage").unwrap();
        assert!(cache.lookup(&key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
