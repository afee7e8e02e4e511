//! Keyed part streams and their deterministic cross-shard merge.
//!
//! The sharded engine (DESIGN.md §16) runs one `Simulation` per shard, so
//! a traced sharded run produces one *part stream* per shard. Emission
//! order within a shard is deterministic, but interleaving parts by
//! arrival would depend on the partition. Instead, every record in a part
//! stream is prefixed with the **canonical dispatch key** of the event
//! that emitted it:
//!
//! ```text
//! t round k0 k1 k2 seq\t<payload line>
//! ```
//!
//! where `(t, round, k0, k1, k2)` is the engine's
//! [`mpcc_simcore::DispatchStamp`] — the `(time, same-time round,
//! canon-key)` position the canonical dispatcher assigns to the event, the
//! same total order at every shard count — and `seq` numbers the records a
//! single dispatch emits (one event can emit several, e.g. an ACK that
//! completes an MI). Merging the parts by this key (ties broken by part
//! index, which never matters for distinct events because the canon-key is
//! unique within a round) and stripping the prefix therefore reproduces
//! the 1-shard emission order byte-for-byte.
//!
//! [`KeyedSink`] writes a part stream; [`merge_keyed_parts`] performs the
//! k-way merge into the final file, verifying that each part is itself
//! key-sorted (a non-monotonic part means the stamping contract was
//! violated) and reporting per-part row counts so callers can surface
//! silent-truncation bugs instead of merging half a run without noticing.

use crate::event::Record;
use crate::sink::TraceSink;
use mpcc_simcore::DispatchStamp;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The full per-record sort key: the 5-tuple dispatch stamp plus the
/// within-dispatch sequence number.
type Key = [u64; 6];

struct KeyedInner {
    w: Box<dyn Write + Send>,
    /// Stamp value of the most recent record, for `seq` assignment.
    last: (u64, u64, u64, u64, u64),
    seq: u64,
    any: bool,
}

/// A [`TraceSink`] writing one shard's keyed part stream.
///
/// Each record is serialized exactly as the final sink would (one JSONL
/// line) and prefixed with the current [`DispatchStamp`] plus a
/// per-dispatch sequence number. The shard's event loop updates the stamp
/// before dispatching each event, on the same thread that emits, so the
/// read here always observes the position of the emitting dispatch.
pub struct KeyedSink {
    stamp: Arc<DispatchStamp>,
    inner: Mutex<KeyedInner>,
}

impl KeyedSink {
    /// Wraps an arbitrary writer.
    pub fn new(w: Box<dyn Write + Send>, stamp: Arc<DispatchStamp>) -> Self {
        KeyedSink {
            stamp,
            inner: Mutex::new(KeyedInner {
                w,
                last: (0, 0, 0, 0, 0),
                seq: 0,
                any: false,
            }),
        }
    }

    /// Creates (truncating) a part file at `path` and streams to it
    /// buffered.
    pub fn create(path: &Path, stamp: Arc<DispatchStamp>) -> io::Result<Self> {
        Ok(Self::new(
            Box::new(BufWriter::new(File::create(path)?)),
            stamp,
        ))
    }
}

impl TraceSink for KeyedSink {
    fn record(&self, rec: &Record) {
        let k = self.stamp.get();
        let mut g = self.inner.lock().expect("keyed sink poisoned");
        if g.any && g.last == k {
            g.seq += 1;
        } else {
            g.last = k;
            g.seq = 0;
            g.any = true;
        }
        let payload = rec.to_jsonl();
        let seq = g.seq;
        // Best-effort like the plain sinks: an I/O error must not abort
        // the simulation; the merge will surface missing rows.
        let _ = writeln!(
            g.w,
            "{} {} {} {} {} {seq}\t{payload}",
            k.0, k.1, k.2, k.3, k.4
        );
    }

    fn flush(&self) {
        let _ = self.inner.lock().expect("keyed sink poisoned").w.flush();
    }
}

/// One part stream being consumed by the merge.
struct PartHead {
    lines: io::Lines<BufReader<File>>,
    head: Option<(Key, String)>,
    rows: u64,
    path: PathBuf,
}

impl PartHead {
    fn open(path: &Path) -> io::Result<Self> {
        let mut p = PartHead {
            lines: BufReader::new(File::open(path)?).lines(),
            head: None,
            rows: 0,
            path: path.to_path_buf(),
        };
        p.advance()?;
        Ok(p)
    }

    /// Loads the next line, enforcing the sorted-part invariant.
    fn advance(&mut self) -> io::Result<()> {
        let prev = self.head.take().map(|(k, _)| k);
        self.head = match self.lines.next() {
            None => None,
            Some(line) => {
                let line = line?;
                let (key, payload) = parse_keyed_line(&line).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}: malformed keyed line: {line:?}", self.path.display()),
                    )
                })?;
                if let Some(prev) = prev {
                    if key < prev {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "{}: part stream not key-sorted ({key:?} after {prev:?})",
                                self.path.display()
                            ),
                        ));
                    }
                }
                self.rows += 1;
                Some((key, payload.to_string()))
            }
        };
        Ok(())
    }
}

fn parse_keyed_line(line: &str) -> Option<(Key, &str)> {
    let (prefix, payload) = line.split_once('\t')?;
    let mut key = [0u64; 6];
    let mut fields = prefix.split(' ');
    for slot in key.iter_mut() {
        *slot = fields.next()?.parse().ok()?;
    }
    if fields.next().is_some() {
        return None;
    }
    Some((key, payload))
}

/// Merges keyed part streams into `final_path` in global key order,
/// stripping the key prefixes, and returns the per-part row counts.
///
/// The merge **appends**: the final file accumulates across scenario
/// batches exactly like the executor's per-run merge, and earlier
/// scenarios' rows are preserved.
///
/// Parts that are not internally key-sorted are rejected as malformed
/// (`InvalidData`): a sorted-part violation means the dispatch stamping
/// contract broke and a silent best-effort merge would hide it.
pub fn merge_keyed_parts(final_path: &Path, parts: &[PathBuf]) -> io::Result<Vec<u64>> {
    let mut heads = Vec::with_capacity(parts.len());
    for p in parts {
        heads.push(PartHead::open(p)?);
    }
    let mut out = BufWriter::new(
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(final_path)?,
    );
    loop {
        // Smallest (key, part-index) across the live heads. Parts are
        // individually sorted, so comparing heads alone is a full k-way
        // merge.
        let next = heads
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.head.as_ref().map(|(k, _)| (*k, i)))
            .min();
        let Some((_, i)) = next else { break };
        let (_, payload) = heads[i].head.as_ref().expect("picked head is live");
        writeln!(out, "{payload}")?;
        heads[i].advance()?;
    }
    out.flush()?;
    Ok(heads.into_iter().map(|p| p.rows).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LinkEvent;
    use mpcc_simcore::SimTime;

    fn rec(n: u64) -> Record {
        Record {
            t: SimTime::from_nanos(n),
            event: LinkEvent::DropRandom { link: 0, bytes: n }.into(),
        }
    }

    #[test]
    fn keyed_sink_prefixes_and_sequences() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let stamp = Arc::new(DispatchStamp::new());
        let sink = KeyedSink::new(Box::new(Shared(buf.clone())), stamp.clone());
        stamp.set(10, 1, (0, 5, 0));
        sink.record(&rec(10));
        sink.record(&rec(10)); // same dispatch: seq increments
        stamp.set(20, 1, (1, 7, 0));
        sink.record(&rec(20)); // new dispatch: seq resets
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("10 1 0 5 0 0\t{"), "{}", lines[0]);
        assert!(lines[1].starts_with("10 1 0 5 0 1\t{"), "{}", lines[1]);
        assert!(lines[2].starts_with("20 1 1 7 0 0\t{"), "{}", lines[2]);
        assert_eq!(lines[0].split_once('\t').unwrap().1, rec(10).to_jsonl());
    }

    #[test]
    fn merge_interleaves_by_key_and_counts_rows() {
        let dir = std::env::temp_dir().join(format!("mpcc-keyed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.part");
        let b = dir.join("b.part");
        let f = dir.join("merged.jsonl");
        std::fs::write(&a, "1 1 0 0 0 0\tA1\n3 1 0 0 0 0\tA3\n").unwrap();
        std::fs::write(&b, "2 1 0 0 0 0\tB2\n2 1 0 0 0 1\tB2b\n4 1 0 0 0 0\tB4\n").unwrap();
        let _ = std::fs::remove_file(&f);
        let counts = merge_keyed_parts(&f, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(counts, vec![2, 3]);
        assert_eq!(
            std::fs::read_to_string(&f).unwrap(),
            "A1\nB2\nB2b\nA3\nB4\n"
        );
        // Appending a second group preserves the first.
        std::fs::write(&a, "9 1 0 0 0 0\tA9\n").unwrap();
        merge_keyed_parts(&f, std::slice::from_ref(&a)).unwrap();
        assert!(std::fs::read_to_string(&f).unwrap().ends_with("B4\nA9\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_unsorted_and_malformed_parts() {
        let dir = std::env::temp_dir().join(format!("mpcc-keyed-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.part");
        let f = dir.join("out.jsonl");
        std::fs::write(&bad, "5 1 0 0 0 0\tX\n1 1 0 0 0 0\tY\n").unwrap();
        let err = merge_keyed_parts(&f, std::slice::from_ref(&bad)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::write(&bad, "not a key\tX\n").unwrap();
        let err = merge_keyed_parts(&f, std::slice::from_ref(&bad)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
