//! Crash-safe files: the fsync helpers, the atomic write, and the one
//! header-plus-lines log under the batch and sweep journals, the sweep
//! manifest and the serve cache index.
//!
//! A log is a header line followed by one record per line, every line
//! ending in `\n`. Records are appended with `write` + `fdatasync` on one
//! held handle, so a crash at any instant leaves complete lines plus at
//! most one torn tail. `load` applies the one heal rule every owner
//! shares: a line counts only if it ends in a newline and the owner's
//! parser accepts it; every other line is dropped and counted.
//! `Log::open` then compacts — one streamed atomic rewrite — exactly when
//! the load dropped, superseded or evicted anything, and opens an intact
//! file for appending untouched.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Fsyncs a directory so directory-entry mutations (create/rename/remove)
/// inside it become durable. On filesystems where directories cannot be
/// fsynced the error is reported to the caller.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// [`fsync_dir`] on a file's parent directory (a bare filename's parent
/// `""` means the working directory, opened as `.`).
pub fn fsync_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(dir) if dir.as_os_str().is_empty() => fsync_dir(Path::new(".")),
        Some(dir) => fsync_dir(dir),
        None => Ok(()),
    }
}

/// Writes a file atomically: `fill` writes the contents into a buffered
/// temp file in the same directory (so they never have to sit in memory
/// whole), which is fsynced and renamed over `path`; then the directory
/// is fsynced so the new name survives a crash too. A failure removes the
/// temp file and leaves `path` as it was.
pub fn write_atomic(
    path: &Path,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let (Some(dir), Some(name)) = (path.parent(), path.file_name()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "path has no parent/file name",
        ));
    };
    let tmp = dir.join(format!(
        ".{}.tmp-{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut file = BufWriter::new(File::create(&tmp)?);
        fill(&mut file)?;
        file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result?;
    fsync_parent(path)
}

/// Writes a whole log atomically: `header`, then every record, one per
/// line. The records are rendered as the iterator yields them.
pub(crate) fn write_log(
    path: &Path,
    header: &str,
    records: impl IntoIterator<Item = String>,
) -> io::Result<()> {
    write_atomic(path, |w| {
        writeln!(w, "{header}")?;
        for record in records {
            writeln!(w, "{record}")?;
        }
        Ok(())
    })
}

/// What [`load`] found.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Load {
    /// Record lines the owner's parser accepted.
    pub kept: usize,
    /// Lines dropped: torn, not UTF-8, rejected by the parser, or under a
    /// header the owner rejected (the header line included).
    pub dropped: usize,
    /// The header was complete and accepted.
    header_ok: bool,
}

/// Streams the log at `path` a line at a time. The header (`None` when
/// the file is empty or its first line is torn) goes to `header`, which
/// accepts it (`Ok(true)`), rejects it as stale (`Ok(false)`: every
/// record line is dropped unparsed), or refuses the file (`Err`, returned
/// as the inner error). Each complete record line (a trailing `\r`
/// stripped) goes to `record`, which returns whether it accepted the line.
pub(crate) fn load(
    path: &Path,
    header: impl FnOnce(Option<&str>) -> Result<bool, String>,
    mut record: impl FnMut(&str) -> bool,
) -> io::Result<Result<Load, String>> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut buf = Vec::new();
    let mut load = Load::default();
    let first = next_line(&mut reader, &mut buf)?;
    let accepted = match header(first.flatten()) {
        Ok(accepted) => accepted,
        Err(e) => return Ok(Err(e)),
    };
    load.header_ok = accepted && first.flatten().is_some();
    if first.is_some() && !load.header_ok {
        load.dropped += 1;
    }
    while let Some(line) = next_line(&mut reader, &mut buf)? {
        match line {
            Some(line) if load.header_ok && record(line) => load.kept += 1,
            _ => load.dropped += 1,
        }
    }
    Ok(Ok(load))
}

/// Reads the next line into `buf`: `None` at end of file, `Some(None)`
/// for a line that is torn (no newline) or not UTF-8, else the line
/// without its `\n` or `\r\n`.
fn next_line<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Option<&'b str>>> {
    buf.clear();
    if reader.read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    let Some(line) = buf.strip_suffix(b"\n") else {
        return Ok(Some(None));
    };
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    Ok(Some(std::str::from_utf8(line).ok()))
}

/// A log open for appending, on one held handle.
#[derive(Debug)]
pub(crate) struct Log {
    path: PathBuf,
    file: File,
}

impl Log {
    /// Creates (truncating) a log holding only `header`, and makes it
    /// durable: the bytes, and the file's name in its directory.
    pub(crate) fn create(path: &Path, header: &str) -> io::Result<Log> {
        let mut file = File::create(path)?;
        file.write_all(format!("{header}\n").as_bytes())?;
        file.sync_data()?;
        fsync_parent(path)?;
        Ok(Log {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Opens a [`load`]ed log for appending. When the load kept every
    /// line under an accepted header and all `live` owner entries are
    /// those lines (nothing superseded or evicted), the file is reopened
    /// untouched; otherwise it is first compacted to `header` plus
    /// `records`.
    pub(crate) fn open(
        path: &Path,
        load: &Load,
        live: usize,
        header: &str,
        records: impl IntoIterator<Item = String>,
    ) -> io::Result<Log> {
        if !(load.header_ok && load.dropped == 0 && load.kept == live) {
            write_log(path, header, records)?;
        }
        Ok(Log {
            path: path.to_path_buf(),
            file: OpenOptions::new().append(true).open(path)?,
        })
    }

    /// Appends one record line (the newline is added here) and fdatasyncs
    /// it.
    pub(crate) fn append(&mut self, mut line: String) -> io::Result<()> {
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }

    /// Rewrites the log atomically to `header` plus `records`, streamed,
    /// and moves the held handle to the new file (the rename replaced the
    /// inode the old handle points at).
    pub(crate) fn compact(
        &mut self,
        header: &str,
        records: impl IntoIterator<Item = String>,
    ) -> io::Result<()> {
        write_log(&self.path, header, records)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gcatch-durable-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Loads `text` with a parser that accepts lines starting with `ok`.
    fn load_text(path: &Path, text: &[u8]) -> (Load, Vec<String>) {
        std::fs::write(path, text).unwrap();
        let mut kept = Vec::new();
        let got = load(
            path,
            |h| Ok(h == Some("H")),
            |line| {
                let ok = line.starts_with("ok");
                if ok {
                    kept.push(line.to_string());
                }
                ok
            },
        )
        .unwrap()
        .unwrap();
        (got, kept)
    }

    #[test]
    fn load_keeps_complete_accepted_lines_and_counts_the_rest() {
        let dir = scratch("load");
        let path = dir.join("log");
        let (got, kept) = load_text(&path, b"H\nok1\ngarbage\nok2\r\n\xff\xfe\nok3");
        assert_eq!(
            kept,
            vec!["ok1", "ok2"],
            "a bad line in the middle is skipped"
        );
        assert_eq!(got.kept, 2);
        assert_eq!(got.dropped, 3, "garbage, non-UTF-8 and the torn tail");
        assert!(got.header_ok);

        let (got, kept) = load_text(&path, b"stale\nok1\nok2\n");
        assert!(
            kept.is_empty(),
            "records under a rejected header are never parsed"
        );
        assert_eq!((got.kept, got.dropped, got.header_ok), (0, 3, false));

        let (got, _) = load_text(&path, b"");
        assert_eq!((got.kept, got.dropped, got.header_ok), (0, 0, false));
        let (got, _) = load_text(&path, b"H");
        assert_eq!((got.kept, got.dropped, got.header_ok), (0, 1, false));

        std::fs::write(&path, "X\nok\n").unwrap();
        let refused = load(&path, |_| Err("not mine".to_string()), |_| true).unwrap();
        assert_eq!(refused, Err("not mine".to_string()));
        assert_eq!(
            load(&dir.join("missing"), |_| Ok(true), |_| true)
                .unwrap_err()
                .kind(),
            io::ErrorKind::NotFound
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_compacts_only_what_needs_it_and_append_survives_compaction() {
        use std::os::unix::fs::MetadataExt;
        let dir = scratch("open");
        let path = dir.join("log");
        let ino = |p: &Path| std::fs::metadata(p).unwrap().ino();
        let records = || ["ok1".to_string(), "ok2".to_string()];

        // Intact: reopened in place, same inode, same bytes.
        let (got, _) = load_text(&path, b"H\nok1\nok2\n");
        let before = ino(&path);
        let mut log = Log::open(&path, &got, 2, "H", records()).unwrap();
        assert_eq!(ino(&path), before, "an intact log is not rewritten");
        log.append("ok3".to_string()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"H\nok1\nok2\nok3\n");

        // A superseded line (two lines, one live entry) compacts.
        let (got, _) = load_text(&path, b"H\nok1\nok1\n");
        Log::open(&path, &got, 1, "H", ["ok1".to_string()]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"H\nok1\n");

        // A dropped line compacts; appends after compaction land in the
        // new file, not the replaced inode.
        let (got, _) = load_text(&path, b"H\nok1\nbad\nok2\n");
        let mut log = Log::open(&path, &got, 2, "H", records()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"H\nok1\nok2\n");
        log.compact("H", ["ok2".to_string()]).unwrap();
        log.append("ok4".to_string()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"H\nok2\nok4\n");

        // An empty file has no header: it is rewritten with one.
        let (got, _) = load_text(&path, b"");
        Log::open(&path, &got, 0, "H", []).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"H\n");

        // Create truncates to the header alone.
        let mut log = Log::create(&path, "H2").unwrap();
        log.append("r".to_string()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"H2\nr\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_whole_files_and_leaves_no_temp_behind() {
        let dir = scratch("atomic");
        let path = dir.join("f");
        write_atomic(&path, |w| w.write_all(b"hello\n")).unwrap();
        write_atomic(&path, |w| w.write_all(b"replaced\n")).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "replaced\n");
        let err = write_atomic(&path, |w| {
            w.write_all(b"partial")?;
            Err(io::Error::other("fill failed"))
        });
        assert!(err.is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "replaced\n");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("f")]);
        fsync_parent(&path).unwrap();
        fsync_parent(Path::new("bare-name")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
