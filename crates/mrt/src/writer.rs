//! MRT writers: record-level and snapshot-level emission.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::net::Ipv4Addr;
use std::path::Path;

use bytes::BytesMut;

use bgp_types::{FastMap, PeerId, Prefix, RibSnapshot};

use crate::error::MrtError;
use crate::record::{td2_subtype, MrtHeader, MrtRecord, MrtRecordBody, MrtType};
use crate::table_dump::{PeerEntry, PeerIndexTable, RibAfiEntries, RibEntryRaw};

/// Writes MRT records to any [`Write`] sink.
pub struct MrtWriter<W> {
    inner: W,
    records_written: u64,
}

impl<W: Write> MrtWriter<W> {
    /// Wrap a byte sink.
    pub fn new(inner: W) -> Self {
        MrtWriter { inner, records_written: 0 }
    }

    /// How many records have been written.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Serialize one record.
    pub fn write_record(&mut self, record: &MrtRecord) -> Result<(), MrtError> {
        let mut buf = BytesMut::new();
        record.encode(&mut buf);
        self.inner.write_all(&buf)?;
        self.records_written += 1;
        Ok(())
    }

    /// Flush the underlying sink.
    pub fn flush(&mut self) -> Result<(), MrtError> {
        self.inner.flush()?;
        Ok(())
    }

    /// Recover the underlying sink.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Serialize a [`RibSnapshot`] as a TABLE_DUMP_V2 file: one
/// PEER_INDEX_TABLE followed by one RIB record per distinct prefix.
///
/// The collector name is stored in the peer-index-table view name so that
/// [`crate::read_snapshot`] can restore it.
pub fn write_snapshot(sink: impl Write, snapshot: &RibSnapshot) -> Result<(), MrtError> {
    let mut writer = MrtWriter::new(BufWriter::new(sink));
    let timestamp = snapshot.timestamp as u32;

    // Build the peer table. Peer indices follow the sorted order that
    // `RibSnapshot::peers` returns, making output deterministic.
    let peers = snapshot.peers();
    let peer_index: FastMap<PeerId, u16> =
        peers.iter().enumerate().map(|(i, p)| (*p, i as u16)).collect();
    let table = PeerIndexTable {
        collector_bgp_id: Ipv4Addr::new(192, 0, 2, 255),
        view_name: snapshot.collector.as_ref().map(|c| c.name().to_string()).unwrap_or_default(),
        peers: peers
            .iter()
            .enumerate()
            .map(|(i, p)| PeerEntry {
                // Synthetic router IDs: stable, unique per index.
                bgp_id: Ipv4Addr::from((0x0A00_0000u32 | i as u32).to_be_bytes()),
                addr: p.addr,
                asn: p.asn,
            })
            .collect(),
    };
    writer.write_record(&MrtRecord::new(
        MrtHeader {
            timestamp,
            mrt_type: MrtType::TableDumpV2.code(),
            subtype: td2_subtype::PEER_INDEX_TABLE,
            length: 0,
        },
        MrtRecordBody::PeerIndexTable(table),
    ))?;

    // Group entries by prefix, preserving first-seen order.
    let mut order: Vec<Prefix> = Vec::new();
    let mut grouped: FastMap<Prefix, Vec<RibEntryRaw>> = FastMap::default();
    for entry in &snapshot.entries {
        let raw = RibEntryRaw {
            peer_index: *peer_index.get(&entry.peer).expect("peer indexed above"),
            originated_time: timestamp,
            attrs: entry.attrs.clone(),
        };
        grouped
            .entry(entry.prefix)
            .or_insert_with(|| {
                order.push(entry.prefix);
                Vec::new()
            })
            .push(raw);
    }

    for (sequence, prefix) in order.iter().enumerate() {
        let rib = RibAfiEntries {
            sequence: sequence as u32,
            prefix: *prefix,
            entries: grouped.remove(prefix).unwrap_or_default(),
        };
        let subtype = rib.subtype();
        writer.write_record(&MrtRecord::new(
            MrtHeader { timestamp, mrt_type: MrtType::TableDumpV2.code(), subtype, length: 0 },
            MrtRecordBody::RibEntries(rib),
        ))?;
    }
    writer.flush()
}

/// [`write_snapshot`] to a file path (parent directories must exist).
pub fn write_snapshot_to_path(
    path: impl AsRef<Path>,
    snapshot: &RibSnapshot,
) -> Result<(), MrtError> {
    let file = File::create(path)?;
    write_snapshot(file, snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{read_snapshot, MrtBytesReader};
    use bgp_types::{Asn, CollectorId, IpVersion, PathAttributes, RibEntry};
    use bytes::Bytes;
    use std::net::IpAddr;

    fn decode_records(buf: &[u8]) -> Vec<MrtRecord> {
        MrtBytesReader::new(Bytes::copy_from_slice(buf))
            .records()
            .collect::<Result<_, _>>()
            .unwrap()
    }

    fn snapshot_with(n_prefixes: usize) -> RibSnapshot {
        let mut snap = RibSnapshot::new(CollectorId::new("writer-test"), 1_280_000_123);
        let peer = PeerId::new(Asn(6939), "2001:db8::1".parse::<IpAddr>().unwrap());
        for i in 0..n_prefixes {
            let prefix: Prefix = format!("2001:db8:{:x}::/48", i + 1).parse().unwrap();
            snap.push(RibEntry::new(
                peer,
                prefix,
                PathAttributes::with_path("6939 3333".parse().unwrap()),
            ));
        }
        snap
    }

    #[test]
    fn writer_counts_records() {
        let snap = snapshot_with(5);
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &snap).unwrap();
        let records = decode_records(&buf);
        assert_eq!(records.len(), 6); // index table + 5 prefixes
                                      // The peer index table must come first.
        assert!(matches!(records[0].body, MrtRecordBody::PeerIndexTable(_)));
        // Header lengths must match encoded bodies.
        for r in &records {
            let mut buf = BytesMut::new();
            r.encode(&mut buf);
            assert_eq!(buf.len(), MrtHeader::WIRE_LEN + r.header.length as usize);
        }
    }

    #[test]
    fn empty_snapshot_still_writes_an_index_table() {
        let snap = RibSnapshot::new(CollectorId::new("empty"), 1);
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &snap).unwrap();
        let decoded = read_snapshot(&buf[..]).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(decoded.collector, Some(CollectorId::new("empty")));
    }

    #[test]
    fn mixed_plane_snapshot_uses_correct_subtypes() {
        let mut snap = RibSnapshot::new(CollectorId::new("planes"), 5);
        let v4_peer = PeerId::new(Asn(3356), "192.0.2.1".parse::<IpAddr>().unwrap());
        let v6_peer = PeerId::new(Asn(3356), "2001:db8::9".parse::<IpAddr>().unwrap());
        snap.push(RibEntry::new(
            v4_peer,
            "10.0.0.0/8".parse().unwrap(),
            PathAttributes::with_path("3356 1".parse().unwrap()),
        ));
        snap.push(RibEntry::new(
            v6_peer,
            "2001:db8::/32".parse().unwrap(),
            PathAttributes::with_path("3356 1".parse().unwrap()),
        ));
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &snap).unwrap();
        let records = decode_records(&buf);
        let subtypes: Vec<u16> = records.iter().skip(1).map(|r| r.header.subtype).collect();
        assert!(subtypes.contains(&td2_subtype::RIB_IPV4_UNICAST));
        assert!(subtypes.contains(&td2_subtype::RIB_IPV6_UNICAST));

        let decoded = read_snapshot(&buf[..]).unwrap();
        assert_eq!(decoded.plane_entries(IpVersion::V4).count(), 1);
        assert_eq!(decoded.plane_entries(IpVersion::V6).count(), 1);
    }

    #[test]
    fn multiple_peers_same_prefix_share_one_record() {
        let mut snap = RibSnapshot::new(CollectorId::new("multi"), 5);
        for asn in [1u32, 2, 3] {
            let peer = PeerId::new(Asn(asn), format!("2001:db8::{asn}").parse::<IpAddr>().unwrap());
            snap.push(RibEntry::new(
                peer,
                "2001:db8:ffff::/48".parse().unwrap(),
                PathAttributes::with_path(format!("{asn} 3333").parse().unwrap()),
            ));
        }
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &snap).unwrap();
        let records = decode_records(&buf);
        assert_eq!(records.len(), 2);
        if let MrtRecordBody::RibEntries(rib) = &records[1].body {
            assert_eq!(rib.entries.len(), 3);
        } else {
            panic!("expected a RIB record");
        }
        let decoded = read_snapshot(&buf[..]).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded.peers().len(), 3);
    }

    #[test]
    fn writer_into_inner_returns_sink() {
        let writer = MrtWriter::new(Vec::<u8>::new());
        let sink = writer.into_inner();
        assert!(sink.is_empty());
    }
}
