//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Every message — request or response — is one **frame**: a 4-byte
//! big-endian payload length followed by the payload. A length of zero is
//! invalid (every payload starts with at least an opcode or status byte)
//! and lengths above [`MAX_FRAME`] are rejected before any allocation, so
//! a malformed or hostile peer cannot make the server reserve gigabytes.
//!
//! Request payloads start with an opcode byte; response payloads start
//! with a status byte (`0` = ok, `1` = error) — ok responses carry a
//! variant tag next, error responses a UTF-8 message. All integers are
//! big-endian; ASNs are `u32`, planes are `0` = IPv4 / `1` = IPv6,
//! relationships are `0` = provider-to-customer, `1` =
//! customer-to-provider, `2` = peer-to-peer, `3` = sibling-to-sibling.
//! Decoding demands full consumption: trailing bytes are an error, so a
//! frame has exactly one valid reading.

use std::fmt;
use std::io::{Read, Write};

use bgp_types::{Asn, IpVersion, Relationship};
use hybrid_tor::service::{ServiceMemory, VisibilityStats, WhatIfReply};

/// Hard cap on one frame's payload bytes (8 MiB — comfortably above the
/// largest legitimate response, the full report JSON at 100k-AS scale).
pub const MAX_FRAME: usize = 8 << 20;

/// Everything that can go wrong encoding, decoding or transporting a
/// frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (includes clean EOF between frames).
    Io(std::io::Error),
    /// A frame header announced more than [`MAX_FRAME`] payload bytes.
    Oversized(usize),
    /// A frame header announced a zero-length payload.
    Empty,
    /// The payload ended before the announced structure was complete.
    Truncated,
    /// The first request byte is not a known opcode.
    UnknownOpcode(u8),
    /// The response tag byte is not a known variant.
    UnknownTag(u8),
    /// A coded enum field (`plane`, `relationship`, `outcome`, option
    /// marker) held an out-of-range value; the field name is carried.
    BadEnum(&'static str, u8),
    /// An error message or JSON body was not valid UTF-8.
    BadUtf8,
    /// The payload decoded fully but left this many unread bytes.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::Empty => write!(f, "zero-length frame"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::UnknownOpcode(op) => write!(f, "unknown request opcode {op}"),
            WireError::UnknownTag(tag) => write!(f, "unknown response tag {tag}"),
            WireError::BadEnum(field, v) => write!(f, "out-of-range {field} value {v}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in text field"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after a complete message"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Read one frame's payload from `r`.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    if len == 0 {
        return Err(WireError::Empty);
    }
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Write one frame (header + payload) to `w`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.is_empty() {
        return Err(WireError::Empty);
    }
    if payload.len() > MAX_FRAME {
        return Err(WireError::Oversized(payload.len()));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// A query the daemon answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// The inferred relationship `a → b` on one plane (opcode 1).
    Relationship {
        /// First endpoint (orientation source).
        a: Asn,
        /// Second endpoint.
        b: Asn,
        /// The plane to read.
        plane: IpVersion,
    },
    /// The customer tree of `root` on one plane (opcode 2).
    CustomerTree {
        /// The tree root.
        root: Asn,
        /// The plane to descend.
        plane: IpVersion,
    },
    /// Per-AS IPv6 path-visibility statistics (opcode 3).
    Visibility {
        /// The AS to report on.
        asn: Asn,
    },
    /// What-if single-link correction: reachability from `root` with the
    /// `a`–`b` relationship on `plane` set to `new` (opcode 4).
    WhatIf {
        /// First endpoint of the corrected link.
        a: Asn,
        /// Second endpoint of the corrected link.
        b: Asn,
        /// The plane the correction applies to.
        plane: IpVersion,
        /// The corrected relationship, oriented `a → b`.
        new: Relationship,
        /// The BFS root whose distances are re-evaluated.
        root: Asn,
    },
    /// The dataset summary as JSON (opcode 5).
    Summary,
    /// The full report as JSON (opcode 6).
    ReportJson,
    /// The snapshot's per-component memory footprint (opcode 7).
    MemStats,
    /// Every AS plus the hybrid pairs — what a load generator needs to
    /// form valid queries (opcode 8).
    Universe,
    /// Rebuild the snapshot and publish it as a new epoch (opcode 9). A
    /// rebuild that panics publishes nothing and answers
    /// [`Response::Error`]; the current epoch keeps serving.
    Reload,
}

/// The daemon's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The relationship, or `None` for an absent/unclassified link
    /// (tag 1).
    Relationship(Option<Relationship>),
    /// The sorted customer tree (tag 2).
    CustomerTree(Vec<Asn>),
    /// Visibility statistics (tag 3).
    Visibility(VisibilityStats),
    /// What-if outcome and distance-change counts (tag 4).
    WhatIf(WhatIfReply),
    /// A JSON body — the summary or the full report (tag 5).
    Json(String),
    /// Per-component snapshot bytes (tag 6). Deliberately carries **no
    /// epoch**, so responses stay byte-identical across a live reload of
    /// an identical scenario.
    MemStats(ServiceMemory),
    /// The AS universe and hybrid pairs (tag 7).
    Universe {
        /// Every AS in the snapshot, sorted ascending.
        asns: Vec<Asn>,
        /// The hybrid findings as `(a, b)` pairs, in report order.
        hybrid_pairs: Vec<(Asn, Asn)>,
    },
    /// A reload was published at this epoch (tag 8). The only response
    /// whose bytes legitimately differ across runs.
    Reloaded {
        /// The epoch the rebuilt snapshot was published at.
        epoch: u64,
    },
    /// The request could not be answered (status byte 1, no tag).
    Error(String),
}

fn plane_code(plane: IpVersion) -> u8 {
    match plane {
        IpVersion::V4 => 0,
        IpVersion::V6 => 1,
    }
}

fn rel_code(rel: Relationship) -> u8 {
    match rel {
        Relationship::ProviderToCustomer => 0,
        Relationship::CustomerToProvider => 1,
        Relationship::PeerToPeer => 2,
        Relationship::SiblingToSibling => 3,
    }
}

/// A consuming byte cursor over one frame payload.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("take(4) returned 4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("take(8) returned 8 bytes")))
    }

    fn asn(&mut self) -> Result<Asn, WireError> {
        Ok(Asn(self.u32()?))
    }

    fn plane(&mut self) -> Result<IpVersion, WireError> {
        match self.u8()? {
            0 => Ok(IpVersion::V4),
            1 => Ok(IpVersion::V6),
            v => Err(WireError::BadEnum("plane", v)),
        }
    }

    fn relationship(&mut self) -> Result<Relationship, WireError> {
        match self.u8()? {
            0 => Ok(Relationship::ProviderToCustomer),
            1 => Ok(Relationship::CustomerToProvider),
            2 => Ok(Relationship::PeerToPeer),
            3 => Ok(Relationship::SiblingToSibling),
            v => Err(WireError::BadEnum("relationship", v)),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(WireError::Trailing(self.bytes.len()))
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_asns(out: &mut Vec<u8>, asns: &[Asn]) {
    put_u32(out, u32::try_from(asns.len()).expect("ASN list exceeds u32 range"));
    for asn in asns {
        put_u32(out, asn.0);
    }
}

fn take_asns(c: &mut Cursor<'_>) -> Result<Vec<Asn>, WireError> {
    let n = c.u32()? as usize;
    // Bounded by the frame cap: never trust a length field further than
    // the bytes actually present.
    if c.bytes.len() < n.saturating_mul(4) {
        return Err(WireError::Truncated);
    }
    (0..n).map(|_| c.asn()).collect()
}

impl Request {
    /// Encode into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match *self {
            Request::Relationship { a, b, plane } => {
                out.push(1);
                put_u32(&mut out, a.0);
                put_u32(&mut out, b.0);
                out.push(plane_code(plane));
            }
            Request::CustomerTree { root, plane } => {
                out.push(2);
                put_u32(&mut out, root.0);
                out.push(plane_code(plane));
            }
            Request::Visibility { asn } => {
                out.push(3);
                put_u32(&mut out, asn.0);
            }
            Request::WhatIf { a, b, plane, new, root } => {
                out.push(4);
                put_u32(&mut out, a.0);
                put_u32(&mut out, b.0);
                out.push(plane_code(plane));
                out.push(rel_code(new));
                put_u32(&mut out, root.0);
            }
            Request::Summary => out.push(5),
            Request::ReportJson => out.push(6),
            Request::MemStats => out.push(7),
            Request::Universe => out.push(8),
            Request::Reload => out.push(9),
        }
        out
    }

    /// Decode one frame payload; demands full consumption.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor { bytes: payload };
        let request = match c.u8()? {
            1 => Request::Relationship { a: c.asn()?, b: c.asn()?, plane: c.plane()? },
            2 => Request::CustomerTree { root: c.asn()?, plane: c.plane()? },
            3 => Request::Visibility { asn: c.asn()? },
            4 => Request::WhatIf {
                a: c.asn()?,
                b: c.asn()?,
                plane: c.plane()?,
                new: c.relationship()?,
                root: c.asn()?,
            },
            5 => Request::Summary,
            6 => Request::ReportJson,
            7 => Request::MemStats,
            8 => Request::Universe,
            9 => Request::Reload,
            op => return Err(WireError::UnknownOpcode(op)),
        };
        c.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Encode into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            Response::Error(message) => {
                out.push(1);
                out.extend_from_slice(message.as_bytes());
                return out;
            }
            Response::Relationship(rel) => {
                out.extend_from_slice(&[0, 1]);
                match rel {
                    None => out.push(0),
                    Some(rel) => {
                        out.push(1);
                        out.push(rel_code(*rel));
                    }
                }
            }
            Response::CustomerTree(tree) => {
                out.extend_from_slice(&[0, 2]);
                put_asns(&mut out, tree);
            }
            Response::Visibility(stats) => {
                out.extend_from_slice(&[0, 3]);
                put_u32(&mut out, stats.paths_through);
                put_u32(&mut out, stats.originated);
                put_u32(&mut out, stats.total_paths);
                put_u32(&mut out, stats.hybrid_incident);
            }
            Response::WhatIf(reply) => {
                out.extend_from_slice(&[0, 4]);
                out.push(match reply.outcome {
                    asgraph::DeltaOutcome::Unchanged => 0,
                    asgraph::DeltaOutcome::Incremental => 1,
                    asgraph::DeltaOutcome::FullRebuild => 2,
                });
                put_u32(&mut out, reply.changed);
                put_u32(&mut out, reply.reachable_before);
                put_u32(&mut out, reply.reachable_after);
            }
            Response::Json(body) => {
                out.extend_from_slice(&[0, 5]);
                out.extend_from_slice(body.as_bytes());
            }
            Response::MemStats(memory) => {
                out.extend_from_slice(&[0, 6]);
                put_u64(&mut out, memory.graph_map_bytes);
                put_u64(&mut out, memory.graph_csr_bytes);
            }
            Response::Universe { asns, hybrid_pairs } => {
                out.extend_from_slice(&[0, 7]);
                put_asns(&mut out, asns);
                put_u32(
                    &mut out,
                    u32::try_from(hybrid_pairs.len()).expect("hybrid pairs exceed u32 range"),
                );
                for &(a, b) in hybrid_pairs {
                    put_u32(&mut out, a.0);
                    put_u32(&mut out, b.0);
                }
            }
            Response::Reloaded { epoch } => {
                out.extend_from_slice(&[0, 8]);
                put_u64(&mut out, *epoch);
            }
        }
        out
    }

    /// Decode one frame payload; demands full consumption.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor { bytes: payload };
        match c.u8()? {
            1 => {
                let message =
                    String::from_utf8(c.bytes.to_vec()).map_err(|_| WireError::BadUtf8)?;
                return Ok(Response::Error(message));
            }
            0 => {}
            status => return Err(WireError::BadEnum("status", status)),
        }
        let response = match c.u8()? {
            1 => Response::Relationship(match c.u8()? {
                0 => None,
                1 => Some(c.relationship()?),
                v => return Err(WireError::BadEnum("relationship marker", v)),
            }),
            2 => Response::CustomerTree(take_asns(&mut c)?),
            3 => Response::Visibility(VisibilityStats {
                paths_through: c.u32()?,
                originated: c.u32()?,
                total_paths: c.u32()?,
                hybrid_incident: c.u32()?,
            }),
            4 => Response::WhatIf(WhatIfReply {
                outcome: match c.u8()? {
                    0 => asgraph::DeltaOutcome::Unchanged,
                    1 => asgraph::DeltaOutcome::Incremental,
                    2 => asgraph::DeltaOutcome::FullRebuild,
                    v => return Err(WireError::BadEnum("outcome", v)),
                },
                changed: c.u32()?,
                reachable_before: c.u32()?,
                reachable_after: c.u32()?,
            }),
            5 => {
                let body = String::from_utf8(c.bytes.to_vec()).map_err(|_| WireError::BadUtf8)?;
                return Ok(Response::Json(body));
            }
            6 => Response::MemStats(ServiceMemory {
                graph_map_bytes: c.u64()?,
                graph_csr_bytes: c.u64()?,
            }),
            7 => {
                let asns = take_asns(&mut c)?;
                let m = c.u32()? as usize;
                if c.bytes.len() < m.saturating_mul(8) {
                    return Err(WireError::Truncated);
                }
                let hybrid_pairs =
                    (0..m).map(|_| Ok((c.asn()?, c.asn()?))).collect::<Result<_, WireError>>()?;
                Response::Universe { asns, hybrid_pairs }
            }
            8 => Response::Reloaded { epoch: c.u64()? },
            tag => return Err(WireError::UnknownTag(tag)),
        };
        c.finish()?;
        Ok(response)
    }
}
