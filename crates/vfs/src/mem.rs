//! In-memory filesystem backend.
//!
//! A `BTreeMap<String, Node>` keyed by normalized path. The BTree ordering
//! makes `list_dir` a range scan over the directory's prefix, mirroring
//! how real directory listings cost O(entries). File bodies are
//! `Arc<[u8]>` so reads are cheap clones.

use crate::path::{ancestors, normalize};
use crate::stats::MetaStats;
use crate::{DirEntry, EntryKind, FileMeta, FileStore, VfsError};
use bistro_base::sync::RwLock;
use bistro_base::{SharedClock, TimePoint};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

#[derive(Clone)]
enum Node {
    File {
        // Arc<Vec> (not Arc<[u8]>) so `append` can extend in place via
        // Arc::get_mut when no reader holds a reference — keeping WAL
        // appends O(appended bytes) instead of O(file size).
        data: Arc<Vec<u8>>,
        mtime: TimePoint,
    },
    Dir {
        mtime: TimePoint,
    },
}

/// In-memory [`FileStore`].
pub struct MemFs {
    clock: SharedClock,
    tree: RwLock<BTreeMap<String, Node>>,
    /// Parent directories already verified (or created) by
    /// `ensure_parents` — the write hot path skips the per-ancestor
    /// tree walk when a file's parent is cached here. Only
    /// `remove_dir` can make a cached entry stale, and it evicts.
    known_dirs: RwLock<HashSet<String>>,
    stats: MetaStats,
}

impl MemFs {
    /// Create an empty store whose mtimes come from `clock`.
    pub fn new(clock: SharedClock) -> Self {
        MemFs {
            clock,
            tree: RwLock::new(BTreeMap::new()),
            known_dirs: RwLock::new(HashSet::new()),
            stats: MetaStats::new(),
        }
    }

    /// Create an empty store wrapped in an `Arc`.
    pub fn shared(clock: SharedClock) -> Arc<Self> {
        Arc::new(Self::new(clock))
    }

    /// Number of files (not directories) in the store.
    pub fn file_count(&self) -> usize {
        self.tree
            .read()
            .values()
            .filter(|n| matches!(n, Node::File { .. }))
            .count()
    }

    fn ensure_parents(
        &self,
        tree: &mut BTreeMap<String, Node>,
        path: &str,
        now: TimePoint,
    ) -> Result<(), VfsError> {
        // fast path: a cached parent means the whole ancestor chain was
        // verified as directories before, and only `remove_dir` (which
        // evicts) could have changed that
        let parent = match path.rsplit_once('/') {
            Some((p, _)) => p,
            None => return Ok(()),
        };
        if self.known_dirs.read().contains(parent) {
            return Ok(());
        }
        for anc in ancestors(path) {
            match tree.get(anc) {
                None => {
                    tree.insert(anc.to_string(), Node::Dir { mtime: now });
                }
                Some(Node::Dir { .. }) => {}
                Some(Node::File { .. }) => {
                    return Err(VfsError::NotADirectory(anc.to_string()));
                }
            }
        }
        self.known_dirs.write().insert(parent.to_string());
        Ok(())
    }

    /// True if `dir` has any children in `tree`.
    fn has_children(tree: &BTreeMap<String, Node>, dir: &str) -> bool {
        let prefix = if dir.is_empty() {
            String::new()
        } else {
            format!("{dir}/")
        };
        tree.range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .next()
            .is_some()
    }
}

impl FileStore for MemFs {
    fn write(&self, path: &str, data: &[u8]) -> Result<(), VfsError> {
        let path = normalize(path)?;
        if path.is_empty() {
            return Err(VfsError::IsADirectory(String::new()));
        }
        let now = self.clock.now();
        let mut tree = self.tree.write();
        self.ensure_parents(&mut tree, path, now)?;
        if let Some(Node::Dir { .. }) = tree.get(path) {
            return Err(VfsError::IsADirectory(path.to_string()));
        }
        tree.insert(
            path.to_string(),
            Node::File {
                data: Arc::new(data.to_vec()),
                mtime: now,
            },
        );
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn append(&self, path: &str, data: &[u8]) -> Result<(), VfsError> {
        let path = normalize(path)?;
        if path.is_empty() {
            return Err(VfsError::IsADirectory(String::new()));
        }
        let now = self.clock.now();
        let mut tree = self.tree.write();
        self.ensure_parents(&mut tree, path, now)?;
        match tree.get_mut(path) {
            Some(Node::File {
                data: existing,
                mtime,
            }) => {
                match Arc::get_mut(existing) {
                    Some(buf) => buf.extend_from_slice(data),
                    None => {
                        // a reader holds the old contents: copy-on-write
                        let mut buf = Vec::with_capacity(existing.len() + data.len());
                        buf.extend_from_slice(existing);
                        buf.extend_from_slice(data);
                        *existing = Arc::new(buf);
                    }
                }
                *mtime = now;
            }
            Some(Node::Dir { .. }) => return Err(VfsError::IsADirectory(path.to_string())),
            None => {
                tree.insert(
                    path.to_string(),
                    Node::File {
                        data: Arc::new(data.to_vec()),
                        mtime: now,
                    },
                );
            }
        }
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn write_owned(&self, path: &str, data: Vec<u8>) -> Result<(), VfsError> {
        let path = normalize(path)?;
        if path.is_empty() {
            return Err(VfsError::IsADirectory(String::new()));
        }
        let now = self.clock.now();
        let len = data.len() as u64;
        let mut tree = self.tree.write();
        self.ensure_parents(&mut tree, path, now)?;
        if let Some(Node::Dir { .. }) = tree.get(path) {
            return Err(VfsError::IsADirectory(path.to_string()));
        }
        // the whole point: adopt the caller's buffer instead of copying it
        tree.insert(
            path.to_string(),
            Node::File {
                data: Arc::new(data),
                mtime: now,
            },
        );
        self.stats.record_write(len);
        Ok(())
    }

    fn append_many(&self, path: &str, parts: &[&[u8]]) -> Result<(), VfsError> {
        let path = normalize(path)?;
        if path.is_empty() {
            return Err(VfsError::IsADirectory(String::new()));
        }
        if parts.is_empty() {
            return Ok(());
        }
        let now = self.clock.now();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut tree = self.tree.write();
        self.ensure_parents(&mut tree, path, now)?;
        match tree.get_mut(path) {
            Some(Node::File {
                data: existing,
                mtime,
            }) => {
                match Arc::get_mut(existing) {
                    Some(buf) => {
                        buf.reserve(total);
                        for part in parts {
                            buf.extend_from_slice(part);
                        }
                    }
                    None => {
                        let mut buf = Vec::with_capacity(existing.len() + total);
                        buf.extend_from_slice(existing);
                        for part in parts {
                            buf.extend_from_slice(part);
                        }
                        *existing = Arc::new(buf);
                    }
                }
                *mtime = now;
            }
            Some(Node::Dir { .. }) => return Err(VfsError::IsADirectory(path.to_string())),
            None => {
                let mut buf = Vec::with_capacity(total);
                for part in parts {
                    buf.extend_from_slice(part);
                }
                tree.insert(
                    path.to_string(),
                    Node::File {
                        data: Arc::new(buf),
                        mtime: now,
                    },
                );
            }
        }
        // ledger contract: one write per part, batched or not
        for part in parts {
            self.stats.record_write(part.len() as u64);
        }
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, VfsError> {
        let path = normalize(path)?;
        let tree = self.tree.read();
        match tree.get(path) {
            Some(Node::File { data, .. }) => {
                self.stats.record_read(data.len() as u64);
                Ok(data.to_vec())
            }
            Some(Node::Dir { .. }) => Err(VfsError::IsADirectory(path.to_string())),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    fn metadata(&self, path: &str) -> Result<FileMeta, VfsError> {
        let path = normalize(path)?;
        self.stats.record_stat();
        if path.is_empty() {
            return Ok(FileMeta {
                size: 0,
                mtime: TimePoint::EPOCH,
                kind: EntryKind::Dir,
            });
        }
        let tree = self.tree.read();
        match tree.get(path) {
            Some(Node::File { data, mtime }) => Ok(FileMeta {
                size: data.len() as u64,
                mtime: *mtime,
                kind: EntryKind::File,
            }),
            Some(Node::Dir { mtime }) => Ok(FileMeta {
                size: 0,
                mtime: *mtime,
                kind: EntryKind::Dir,
            }),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    fn remove(&self, path: &str) -> Result<(), VfsError> {
        let path = normalize(path)?;
        let mut tree = self.tree.write();
        match tree.get(path) {
            Some(Node::File { .. }) => {
                tree.remove(path);
                self.stats.record_remove();
                Ok(())
            }
            Some(Node::Dir { .. }) => Err(VfsError::IsADirectory(path.to_string())),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    fn remove_dir(&self, path: &str) -> Result<(), VfsError> {
        let path = normalize(path)?;
        if path.is_empty() {
            return Err(VfsError::InvalidPath("cannot remove root".to_string()));
        }
        let mut tree = self.tree.write();
        match tree.get(path) {
            Some(Node::Dir { .. }) => {
                if Self::has_children(&tree, path) {
                    return Err(VfsError::Io(format!("directory not empty: {path}")));
                }
                tree.remove(path);
                // the dir may be cached as a verified parent; a later
                // write must re-walk (and re-create) the ancestor chain
                self.known_dirs.write().remove(path);
                self.stats.record_remove();
                Ok(())
            }
            Some(Node::File { .. }) => Err(VfsError::NotADirectory(path.to_string())),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), VfsError> {
        let from = normalize(from)?;
        let to = normalize(to)?;
        let now = self.clock.now();
        let mut tree = self.tree.write();
        if tree.contains_key(to) {
            return Err(VfsError::AlreadyExists(to.to_string()));
        }
        let node = match tree.get(from) {
            Some(Node::File { .. }) => tree.remove(from).unwrap(),
            Some(Node::Dir { .. }) => return Err(VfsError::IsADirectory(from.to_string())),
            None => return Err(VfsError::NotFound(from.to_string())),
        };
        if let Err(e) = self.ensure_parents(&mut tree, to, now) {
            // restore on failure to keep the operation atomic
            tree.insert(from.to_string(), node);
            return Err(e);
        }
        tree.insert(to.to_string(), node);
        self.stats.record_rename();
        Ok(())
    }

    fn replace(&self, from: &str, to: &str) -> Result<(), VfsError> {
        let from = normalize(from)?;
        let to = normalize(to)?;
        let now = self.clock.now();
        let mut tree = self.tree.write();
        match tree.get(from) {
            Some(Node::File { .. }) => {}
            Some(Node::Dir { .. }) => return Err(VfsError::IsADirectory(from.to_string())),
            None => return Err(VfsError::NotFound(from.to_string())),
        }
        if let Some(Node::Dir { .. }) = tree.get(to) {
            return Err(VfsError::IsADirectory(to.to_string()));
        }
        let node = tree.remove(from).unwrap();
        if let Err(e) = self.ensure_parents(&mut tree, to, now) {
            // restore on failure to keep the operation atomic
            tree.insert(from.to_string(), node);
            return Err(e);
        }
        tree.insert(to.to_string(), node);
        self.stats.record_rename();
        Ok(())
    }

    fn create_dir_all(&self, path: &str) -> Result<(), VfsError> {
        let path = normalize(path)?;
        if path.is_empty() {
            return Ok(());
        }
        let now = self.clock.now();
        let mut tree = self.tree.write();
        self.ensure_parents(&mut tree, path, now)?;
        match tree.get(path) {
            Some(Node::Dir { .. }) => Ok(()),
            Some(Node::File { .. }) => Err(VfsError::NotADirectory(path.to_string())),
            None => {
                tree.insert(path.to_string(), Node::Dir { mtime: now });
                Ok(())
            }
        }
    }

    fn list_dir(&self, path: &str) -> Result<Vec<DirEntry>, VfsError> {
        let path = normalize(path)?;
        let tree = self.tree.read();
        if !path.is_empty() {
            match tree.get(path) {
                Some(Node::Dir { .. }) => {}
                Some(Node::File { .. }) => return Err(VfsError::NotADirectory(path.to_string())),
                None => return Err(VfsError::NotFound(path.to_string())),
            }
        }
        let prefix = if path.is_empty() {
            String::new()
        } else {
            format!("{path}/")
        };
        let mut out = Vec::new();
        for (k, node) in tree
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
        {
            let rest = &k[prefix.len()..];
            if rest.contains('/') {
                continue; // deeper descendant; its parent dir node will be seen
            }
            out.push(DirEntry {
                name: rest.to_string(),
                kind: match node {
                    Node::File { .. } => EntryKind::File,
                    Node::Dir { .. } => EntryKind::Dir,
                },
            });
        }
        self.stats.record_list(out.len() as u64);
        Ok(out)
    }

    fn exists(&self, path: &str) -> bool {
        match normalize(path) {
            Ok("") => true,
            Ok(p) => self.tree.read().contains_key(p),
            Err(_) => false,
        }
    }

    fn stats(&self) -> &MetaStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistro_base::{SimClock, TimeSpan};

    fn fs() -> (Arc<bistro_base::clock::SimClock>, MemFs) {
        let clock = SimClock::new();
        let fs = MemFs::new(clock.clone());
        (clock, fs)
    }

    #[test]
    fn write_read_roundtrip() {
        let (_c, fs) = fs();
        fs.write("a/b/file.csv", b"hello").unwrap();
        assert_eq!(fs.read("a/b/file.csv").unwrap(), b"hello");
        assert!(fs.exists("a"));
        assert!(fs.exists("a/b"));
        assert_eq!(fs.metadata("a").unwrap().kind, EntryKind::Dir);
    }

    #[test]
    fn write_overwrites() {
        let (_c, fs) = fs();
        fs.write("f", b"one").unwrap();
        fs.write("f", b"two").unwrap();
        assert_eq!(fs.read("f").unwrap(), b"two");
        assert_eq!(fs.file_count(), 1);
    }

    #[test]
    fn mtime_tracks_clock() {
        let (c, fs) = fs();
        fs.write("f1", b"x").unwrap();
        c.advance(TimeSpan::from_secs(100));
        fs.write("f2", b"y").unwrap();
        let m1 = fs.metadata("f1").unwrap().mtime;
        let m2 = fs.metadata("f2").unwrap().mtime;
        assert_eq!(m2 - m1, TimeSpan::from_secs(100));
    }

    #[test]
    fn list_dir_sorted_and_shallow() {
        let (_c, fs) = fs();
        fs.write("d/b.csv", b"").unwrap();
        fs.write("d/a.csv", b"").unwrap();
        fs.write("d/sub/deep.csv", b"").unwrap();
        let entries = fs.list_dir("d").unwrap();
        let names: Vec<_> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a.csv", "b.csv", "sub"]);
        assert_eq!(entries[2].kind, EntryKind::Dir);
    }

    #[test]
    fn list_root() {
        let (_c, fs) = fs();
        fs.write("top.csv", b"").unwrap();
        fs.write("dir/x.csv", b"").unwrap();
        let names: Vec<_> = fs
            .list_dir("")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["dir", "top.csv"]);
    }

    #[test]
    fn list_missing_dir_errors() {
        let (_c, fs) = fs();
        assert!(matches!(fs.list_dir("nope"), Err(VfsError::NotFound(_))));
    }

    #[test]
    fn rename_moves_atomically() {
        let (_c, fs) = fs();
        fs.write("landing/x.csv", b"data").unwrap();
        fs.rename("landing/x.csv", "staging/feed1/x.csv").unwrap();
        assert!(!fs.exists("landing/x.csv"));
        assert_eq!(fs.read("staging/feed1/x.csv").unwrap(), b"data");
    }

    #[test]
    fn rename_refuses_overwrite() {
        let (_c, fs) = fs();
        fs.write("a", b"1").unwrap();
        fs.write("b", b"2").unwrap();
        assert!(matches!(
            fs.rename("a", "b"),
            Err(VfsError::AlreadyExists(_))
        ));
        assert_eq!(fs.read("a").unwrap(), b"1");
    }

    #[test]
    fn replace_overwrites_destination() {
        let (_c, fs) = fs();
        fs.write("snapshot.tmp", b"new").unwrap();
        fs.write("snapshot.bin", b"old").unwrap();
        fs.replace("snapshot.tmp", "snapshot.bin").unwrap();
        assert!(!fs.exists("snapshot.tmp"));
        assert_eq!(fs.read("snapshot.bin").unwrap(), b"new");
    }

    #[test]
    fn replace_without_destination_acts_like_rename() {
        let (_c, fs) = fs();
        fs.write("a", b"1").unwrap();
        fs.replace("a", "d/b").unwrap();
        assert!(!fs.exists("a"));
        assert_eq!(fs.read("d/b").unwrap(), b"1");
    }

    #[test]
    fn replace_rejects_directories() {
        let (_c, fs) = fs();
        fs.write("f", b"x").unwrap();
        fs.create_dir_all("d").unwrap();
        assert!(matches!(
            fs.replace("d", "e"),
            Err(VfsError::IsADirectory(_))
        ));
        assert!(matches!(
            fs.replace("f", "d"),
            Err(VfsError::IsADirectory(_))
        ));
        assert!(matches!(
            fs.replace("missing", "f"),
            Err(VfsError::NotFound(_))
        ));
        assert_eq!(fs.read("f").unwrap(), b"x");
    }

    #[test]
    fn rename_missing_source_errors() {
        let (_c, fs) = fs();
        assert!(matches!(
            fs.rename("missing", "dest"),
            Err(VfsError::NotFound(_))
        ));
    }

    #[test]
    fn remove_file_and_dir() {
        let (_c, fs) = fs();
        fs.write("d/f", b"x").unwrap();
        assert!(matches!(fs.remove_dir("d"), Err(VfsError::Io(_)))); // not empty
        fs.remove("d/f").unwrap();
        fs.remove_dir("d").unwrap();
        assert!(!fs.exists("d"));
    }

    #[test]
    fn remove_dir_evicts_parent_cache() {
        let (_c, fs) = fs();
        // cache "d" as a verified parent, empty it, remove it...
        fs.write("d/f", b"x").unwrap();
        fs.remove("d/f").unwrap();
        fs.remove_dir("d").unwrap();
        assert!(!fs.exists("d"));
        // ...then a later write must re-create the ancestor chain rather
        // than trust the stale cache entry
        fs.write("d/g", b"y").unwrap();
        assert!(fs.exists("d"));
        assert_eq!(fs.metadata("d").unwrap().kind, EntryKind::Dir);
        assert_eq!(fs.read("d/g").unwrap(), b"y");
    }

    #[test]
    fn cannot_write_over_dir() {
        let (_c, fs) = fs();
        fs.create_dir_all("d").unwrap();
        assert!(matches!(
            fs.write("d", b"x"),
            Err(VfsError::IsADirectory(_))
        ));
    }

    #[test]
    fn cannot_treat_file_as_dir() {
        let (_c, fs) = fs();
        fs.write("f", b"x").unwrap();
        assert!(matches!(
            fs.write("f/child", b"y"),
            Err(VfsError::NotADirectory(_))
        ));
        assert!(matches!(fs.list_dir("f"), Err(VfsError::NotADirectory(_))));
    }

    #[test]
    fn stats_count_scans() {
        let (_c, fs) = fs();
        for i in 0..10 {
            fs.write(&format!("d/f{i}.csv"), b"x").unwrap();
        }
        let before = fs.stats().snapshot();
        fs.list_dir("d").unwrap();
        fs.list_dir("d").unwrap();
        let after = fs.stats().snapshot().since(&before);
        assert_eq!(after.list_dir_calls, 2);
        assert_eq!(after.entries_scanned, 20);
    }

    #[test]
    fn invalid_paths_rejected_everywhere() {
        let (_c, fs) = fs();
        assert!(fs.write("../escape", b"x").is_err());
        assert!(fs.read("/abs").is_err());
        assert!(!fs.exists("a//b"));
    }
}

#[cfg(test)]
mod append_tests {
    use super::*;
    use crate::FileStore;
    use bistro_base::SimClock;

    #[test]
    fn append_creates_and_extends() {
        let fs = MemFs::new(SimClock::new());
        fs.append("wal/seg1", b"abc").unwrap();
        fs.append("wal/seg1", b"def").unwrap();
        assert_eq!(fs.read("wal/seg1").unwrap(), b"abcdef");
    }

    #[test]
    fn append_to_dir_errors() {
        let fs = MemFs::new(SimClock::new());
        fs.create_dir_all("d").unwrap();
        assert!(matches!(
            fs.append("d", b"x"),
            Err(VfsError::IsADirectory(_))
        ));
    }

    #[test]
    fn append_many_matches_per_record_appends_bytes_and_ledger() {
        let a = MemFs::new(SimClock::new());
        let b = MemFs::new(SimClock::new());
        let parts: Vec<&[u8]> = vec![b"one", b"", b"twotwo", b"3"];
        a.append_many("wal/seg1", &parts).unwrap();
        for p in &parts {
            b.append("wal/seg1", p).unwrap();
        }
        assert_eq!(a.read("wal/seg1").unwrap(), b.read("wal/seg1").unwrap());
        let (sa, sb) = (a.stats().snapshot(), b.stats().snapshot());
        assert_eq!(sa.writes, sb.writes, "one ledger write per part");
        assert_eq!(sa.bytes_written, sb.bytes_written);
    }

    #[test]
    fn append_many_extends_existing_and_empty_is_noop() {
        let fs = MemFs::new(SimClock::new());
        fs.append("wal/seg1", b"head").unwrap();
        fs.append_many("wal/seg1", &[b"-a", b"-b"]).unwrap();
        assert_eq!(fs.read("wal/seg1").unwrap(), b"head-a-b");
        let before = fs.stats().snapshot();
        fs.append_many("wal/seg1", &[]).unwrap();
        assert_eq!(fs.stats().snapshot().writes, before.writes);
    }

    #[test]
    fn write_owned_stores_without_changing_ledger_shape() {
        let a = MemFs::new(SimClock::new());
        let b = MemFs::new(SimClock::new());
        a.write_owned("staging/x", b"payload".to_vec()).unwrap();
        b.write("staging/x", b"payload").unwrap();
        assert_eq!(a.read("staging/x").unwrap(), b.read("staging/x").unwrap());
        assert_eq!(a.stats().snapshot().writes, b.stats().snapshot().writes);
        assert_eq!(
            a.stats().snapshot().bytes_written,
            b.stats().snapshot().bytes_written
        );
    }
}
