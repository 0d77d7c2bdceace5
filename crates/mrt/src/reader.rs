//! The zero-copy MRT reader and the snapshot-level convenience API.

use std::io::Read;
use std::path::Path;

use bytes::Bytes;

use bgp_types::{CollectorId, FastMap, PeerId, RibEntry, RibSnapshot, RouteSource};

use crate::error::MrtError;
use crate::record::{MrtHeader, MrtRecord, MrtRecordBody};
use crate::table_dump::PeerIndexTable;

/// Zero-copy MRT reader over an in-memory buffer.
///
/// Record bodies are sliced out of one shared [`Bytes`] buffer — every
/// body is a cheap reference-counted view, so reading a whole file costs
/// a single allocation (the buffer itself). This is the one MRT decoder:
/// [`read_snapshot`], [`read_snapshot_from_path`] and the pipeline's file
/// loader all decode through it.
///
/// ```no_run
/// use bytes::Bytes;
/// use mrt::MrtBytesReader;
///
/// let buf = std::fs::read("rib.20100801.0000.mrt").unwrap();
/// let mut reader = MrtBytesReader::new(Bytes::from(buf));
/// while let Some(record) = reader.next_record().unwrap() {
///     println!("{:?}", record.header);
/// }
/// ```
pub struct MrtBytesReader {
    buf: Bytes,
    records_read: u64,
}

impl MrtBytesReader {
    /// Wrap a buffer holding a whole MRT stream.
    pub fn new(buf: Bytes) -> Self {
        MrtBytesReader { buf, records_read: 0 }
    }

    /// How many records have been decoded so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Decode the next record, or `Ok(None)` at a clean end of buffer.
    ///
    /// A buffer that ends in the middle of a record yields
    /// [`MrtError::Truncated`].
    pub fn next_record(&mut self) -> Result<Option<MrtRecord>, MrtError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        if self.buf.len() < MrtHeader::WIRE_LEN {
            return Err(MrtError::truncated("MRT header", MrtHeader::WIRE_LEN, self.buf.len()));
        }
        let mut header_bytes = self.buf.slice(..MrtHeader::WIRE_LEN);
        let header = MrtHeader::decode(&mut header_bytes)?;
        let body_len = header.length as usize;
        let total = MrtHeader::WIRE_LEN + body_len;
        if self.buf.len() < total {
            return Err(MrtError::truncated(
                "MRT record body",
                body_len,
                self.buf.len() - MrtHeader::WIRE_LEN,
            ));
        }
        // Both slices share the underlying storage: no copies.
        let body = self.buf.slice(MrtHeader::WIRE_LEN..total);
        self.buf = self.buf.slice(total..);
        let record = MrtRecord::decode(header, body)?;
        self.records_read += 1;
        Ok(Some(record))
    }

    /// Iterate the remaining records.
    pub fn records(self) -> BytesRecordIter {
        BytesRecordIter { reader: self }
    }
}

/// Iterator adapter over [`MrtBytesReader`].
pub struct BytesRecordIter {
    reader: MrtBytesReader,
}

impl Iterator for BytesRecordIter {
    type Item = Result<MrtRecord, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.reader.next_record().transpose()
    }
}

/// Decode a whole MRT stream (a TABLE_DUMP_V2 file, optionally followed by
/// or mixed with BGP4MP updates) into a [`RibSnapshot`].
///
/// * RIB records are resolved against the most recent PEER_INDEX_TABLE.
/// * BGP4MP announcements are added with [`RouteSource::MrtUpdates`].
/// * Unsupported records are skipped.
///
/// The source is read to its end into one buffer, then decoded by
/// [`read_snapshot_bytes`].
pub fn read_snapshot(mut source: impl Read) -> Result<RibSnapshot, MrtError> {
    let mut buf = Vec::new();
    source.read_to_end(&mut buf)?;
    read_snapshot_bytes(Bytes::from(buf))
}

/// [`read_snapshot`] over an in-memory buffer, using the zero-copy
/// [`MrtBytesReader`]: record bodies are slices of `buf`, not copies.
pub fn read_snapshot_bytes(buf: Bytes) -> Result<RibSnapshot, MrtError> {
    collect_snapshot(MrtBytesReader::new(buf).records())
}

/// Fold a decoded record stream into a [`RibSnapshot`].
fn collect_snapshot(
    records: impl Iterator<Item = Result<MrtRecord, MrtError>>,
) -> Result<RibSnapshot, MrtError> {
    let mut snapshot = RibSnapshot::default();
    let mut peer_table: Option<PeerIndexTable> = None;
    let mut peer_cache: FastMap<u16, PeerId> = FastMap::default();

    for record in records {
        let record = record?;
        if snapshot.timestamp == 0 {
            snapshot.timestamp = record.header.timestamp as u64;
        }
        match record.body {
            MrtRecordBody::PeerIndexTable(table) => {
                peer_cache.clear();
                if snapshot.collector.is_none() && !table.view_name.is_empty() {
                    snapshot.collector = Some(CollectorId::new(table.view_name.clone()));
                }
                peer_table = Some(table);
            }
            MrtRecordBody::RibEntries(rib) => {
                let table = peer_table.as_ref().ok_or(MrtError::MissingPeerIndexTable)?;
                for entry in rib.entries {
                    let peer = match peer_cache.get(&entry.peer_index) {
                        Some(p) => *p,
                        None => {
                            let pe = table
                                .peers
                                .get(entry.peer_index as usize)
                                .ok_or(MrtError::UnknownPeerIndex(entry.peer_index))?;
                            let p = PeerId::new(pe.asn, pe.addr);
                            peer_cache.insert(entry.peer_index, p);
                            p
                        }
                    };
                    let mut rib_entry = RibEntry::new(peer, rib.prefix, entry.attrs);
                    rib_entry.source = RouteSource::MrtTableDump;
                    snapshot.push(rib_entry);
                }
            }
            MrtRecordBody::Bgp4mp(msg) => {
                if let Some(update) = msg.update {
                    let peer = PeerId::new(msg.peer_asn, msg.peer_addr);
                    for prefix in update.announced {
                        let mut rib_entry = RibEntry::new(peer, prefix, update.attrs.clone());
                        rib_entry.source = RouteSource::MrtUpdates;
                        snapshot.push(rib_entry);
                    }
                }
            }
            MrtRecordBody::Unsupported { .. } => {}
        }
    }
    Ok(snapshot)
}

/// [`read_snapshot`] from a file path.
///
/// The file is read into one buffer and decoded through the zero-copy
/// [`MrtBytesReader`], so the whole load performs a single allocation.
pub fn read_snapshot_from_path(path: impl AsRef<Path>) -> Result<RibSnapshot, MrtError> {
    let buf = std::fs::read(path)?;
    read_snapshot_bytes(Bytes::from(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_snapshot;
    use bgp_types::{Asn, PathAttributes, Prefix};
    use std::net::IpAddr;

    fn peer(asn: u32, addr: &str) -> PeerId {
        PeerId::new(Asn(asn), addr.parse::<IpAddr>().unwrap())
    }

    fn entry(p: PeerId, prefix: &str, path: &str) -> RibEntry {
        RibEntry::new(
            p,
            prefix.parse::<Prefix>().unwrap(),
            PathAttributes::with_path(path.parse().unwrap()).local_pref(100),
        )
    }

    #[test]
    fn empty_stream_gives_empty_snapshot() {
        let snap = read_snapshot(&[][..]).unwrap();
        assert!(snap.is_empty());
        assert_eq!(snap.collector, None);
    }

    #[test]
    fn garbage_header_is_truncated_error() {
        let err = read_snapshot(&[1u8, 2, 3][..]).unwrap_err();
        assert!(matches!(err, MrtError::Truncated { .. }));
    }

    #[test]
    fn write_then_read_roundtrips_routes() {
        let mut snap = RibSnapshot::new(CollectorId::new("sim-collector"), 1_280_000_000);
        snap.push(entry(peer(6939, "2001:db8::1"), "2001:db8:100::/40", "6939 2914 3333"));
        snap.push(entry(peer(174, "2001:db8::2"), "2001:db8:100::/40", "174 3333"));
        snap.push(entry(peer(3356, "192.0.2.1"), "198.51.100.0/24", "3356 112"));

        let mut buf = Vec::new();
        write_snapshot(&mut buf, &snap).unwrap();
        let decoded = read_snapshot(&buf[..]).unwrap();
        assert_eq!(decoded, read_snapshot_bytes(Bytes::from(buf)).unwrap());

        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded.collector, Some(CollectorId::new("sim-collector")));
        assert_eq!(decoded.timestamp, 1_280_000_000);
        // Entries are grouped by prefix on the wire; compare as sets.
        let mut original: Vec<String> = snap.entries.iter().map(|e| e.to_string()).collect();
        let mut round: Vec<String> = decoded.entries.iter().map(|e| e.to_string()).collect();
        original.sort();
        round.sort();
        assert_eq!(original, round);
        assert!(decoded.entries.iter().all(|e| e.source == RouteSource::MrtTableDump));
    }

    #[test]
    fn reader_counts_records() {
        let mut snap = RibSnapshot::new(CollectorId::new("c"), 10);
        snap.push(entry(peer(1, "192.0.2.1"), "10.0.0.0/8", "1 2"));
        snap.push(entry(peer(1, "192.0.2.1"), "10.1.0.0/16", "1 2 3"));
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &snap).unwrap();

        let mut reader = MrtBytesReader::new(Bytes::from(buf));
        let mut count = 0;
        while reader.next_record().unwrap().is_some() {
            count += 1;
        }
        // 1 peer index table + 2 prefixes.
        assert_eq!(count, 3);
        assert_eq!(reader.records_read(), 3);
        assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn record_iterator_matches_manual_loop() {
        let mut snap = RibSnapshot::new(CollectorId::new("c"), 10);
        snap.push(entry(peer(1, "192.0.2.1"), "10.0.0.0/8", "1 2"));
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &snap).unwrap();
        let records: Result<Vec<_>, _> = MrtBytesReader::new(Bytes::from(buf)).records().collect();
        assert_eq!(records.unwrap().len(), 2);
    }

    #[test]
    fn truncated_record_body_is_error() {
        let mut snap = RibSnapshot::new(CollectorId::new("c"), 10);
        snap.push(entry(peer(1, "192.0.2.1"), "10.0.0.0/8", "1 2"));
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &snap).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(read_snapshot(&buf[..]).is_err());
    }

    #[test]
    fn missing_peer_index_table_is_reported() {
        // Write a full file, then drop the first record (the index table).
        let mut snap = RibSnapshot::new(CollectorId::new("c"), 10);
        snap.push(entry(peer(1, "192.0.2.1"), "10.0.0.0/8", "1 2"));
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &snap).unwrap();

        let mut reader = MrtBytesReader::new(Bytes::from(buf.clone()));
        let first = reader.next_record().unwrap().unwrap();
        let first_len = MrtHeader::WIRE_LEN + first.header.length as usize;
        let rest = &buf[first_len..];
        assert!(matches!(read_snapshot(rest), Err(MrtError::MissingPeerIndexTable)));
    }

    #[test]
    fn bytes_reader_reports_truncation() {
        let mut snap = RibSnapshot::new(CollectorId::new("c"), 10);
        snap.push(entry(peer(1, "192.0.2.1"), "10.0.0.0/8", "1 2"));
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &snap).unwrap();
        // Cut inside the last record's body.
        buf.truncate(buf.len() - 3);
        let err = read_snapshot_bytes(Bytes::from(buf.clone())).unwrap_err();
        assert!(matches!(err, MrtError::Truncated { .. }));
        // Cut inside a header.
        buf.truncate(5);
        let err = read_snapshot_bytes(Bytes::from(buf)).unwrap_err();
        assert!(matches!(err, MrtError::Truncated { .. }));
    }

    #[test]
    fn path_roundtrip_via_files() {
        let dir = std::env::temp_dir().join("mrt-reader-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.mrt");
        let mut snap = RibSnapshot::new(CollectorId::new("filetest"), 77);
        snap.push(entry(peer(6939, "2001:db8::1"), "2001:db8::/32", "6939 3333"));
        crate::writer::write_snapshot_to_path(&path, &snap).unwrap();
        let decoded = read_snapshot_from_path(&path).unwrap();
        assert_eq!(decoded.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
