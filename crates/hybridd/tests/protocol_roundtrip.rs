//! Wire-protocol round-trip and error-path suite: every request and
//! response variant survives encode → frame → decode unchanged, and every
//! malformed input class is rejected with the right [`WireError`].

use asgraph::DeltaOutcome;
use bgp_types::{Asn, IpVersion, Relationship};
use hybrid_tor::service::{ServiceMemory, VisibilityStats, WhatIfReply};
use hybridd::{read_frame, write_frame, Request, Response, WireError, MAX_FRAME};

fn every_request() -> Vec<Request> {
    let mut requests = vec![
        Request::Visibility { asn: Asn(64500) },
        Request::Summary,
        Request::ReportJson,
        Request::MemStats,
        Request::Universe,
        Request::Reload,
    ];
    for plane in [IpVersion::V4, IpVersion::V6] {
        requests.push(Request::Relationship { a: Asn(1), b: Asn(2), plane });
        requests.push(Request::CustomerTree { root: Asn(3), plane });
        for new in Relationship::ALL {
            requests.push(Request::WhatIf { a: Asn(4), b: Asn(5), plane, new, root: Asn(6) });
        }
    }
    requests
}

fn every_response() -> Vec<Response> {
    let mut responses = vec![
        Response::Relationship(None),
        Response::CustomerTree(Vec::new()),
        Response::CustomerTree(vec![Asn(1), Asn(2), Asn(u32::MAX)]),
        Response::Visibility(VisibilityStats {
            paths_through: 7,
            originated: 3,
            total_paths: 100,
            hybrid_incident: 2,
        }),
        Response::Json(String::new()),
        Response::Json("{\"dataset\":{}}".to_string()),
        Response::MemStats(ServiceMemory { graph_map_bytes: 1, graph_csr_bytes: u64::MAX }),
        Response::Universe { asns: Vec::new(), hybrid_pairs: Vec::new() },
        Response::Universe {
            asns: vec![Asn(10), Asn(20)],
            hybrid_pairs: vec![(Asn(10), Asn(20)), (Asn(20), Asn(10))],
        },
        Response::Reloaded { epoch: 0 },
        Response::Reloaded { epoch: u64::MAX },
        Response::Error(String::new()),
        Response::Error("no such AS 99".to_string()),
    ];
    for rel in Relationship::ALL {
        responses.push(Response::Relationship(Some(rel)));
    }
    for outcome in [DeltaOutcome::Unchanged, DeltaOutcome::Incremental, DeltaOutcome::FullRebuild] {
        responses.push(Response::WhatIf(WhatIfReply {
            outcome,
            changed: 4,
            reachable_before: 10,
            reachable_after: 8,
        }));
    }
    responses
}

#[test]
fn every_request_round_trips_through_a_frame() {
    for request in every_request() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &request.encode()).expect("encode fits a frame");
        let payload = read_frame(&mut wire.as_slice()).expect("frame reads back");
        assert_eq!(Request::decode(&payload).unwrap(), request);
    }
}

#[test]
fn every_response_round_trips_through_a_frame() {
    for response in every_response() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &response.encode()).expect("encode fits a frame");
        let payload = read_frame(&mut wire.as_slice()).expect("frame reads back");
        assert_eq!(Response::decode(&payload).unwrap(), response);
    }
}

#[test]
fn zero_length_frames_are_rejected_on_both_sides() {
    assert!(matches!(read_frame(&mut [0, 0, 0, 0].as_slice()), Err(WireError::Empty)));
    assert!(matches!(write_frame(&mut Vec::new(), &[]), Err(WireError::Empty)));
}

#[test]
fn oversized_frames_are_rejected_before_allocation() {
    // A header announcing 4 GiB must fail fast, without reserving the
    // announced bytes.
    let header = (u32::MAX).to_be_bytes();
    match read_frame(&mut header.as_slice()) {
        Err(WireError::Oversized(n)) => assert_eq!(n, u32::MAX as usize),
        other => panic!("expected Oversized, got {other:?}"),
    }
    let too_big = vec![0u8; MAX_FRAME + 1];
    assert!(matches!(write_frame(&mut Vec::new(), &too_big), Err(WireError::Oversized(_))));
}

#[test]
fn a_frame_cut_short_is_an_io_error() {
    // Header promises 8 payload bytes; only 3 arrive before EOF.
    let mut wire = 8u32.to_be_bytes().to_vec();
    wire.extend_from_slice(&[1, 2, 3]);
    assert!(matches!(read_frame(&mut wire.as_slice()), Err(WireError::Io(_))));
}

#[test]
fn truncated_request_payloads_are_rejected() {
    for request in every_request() {
        let full = request.encode();
        // Every strict prefix (including the empty payload) must fail to
        // decode — no variant may be ambiguous under truncation.
        for cut in 0..full.len() {
            assert!(
                matches!(Request::decode(&full[..cut]), Err(WireError::Truncated)),
                "prefix of {cut} bytes of {request:?} must be Truncated"
            );
        }
    }
}

#[test]
fn trailing_request_bytes_are_rejected() {
    for request in every_request() {
        let mut padded = request.encode();
        padded.push(0);
        match Request::decode(&padded) {
            Err(WireError::Trailing(1)) => {}
            other => panic!("{request:?} + 1 byte must be Trailing(1), got {other:?}"),
        }
    }
}

#[test]
fn trailing_response_bytes_are_rejected_for_fixed_layouts() {
    // Json and Error consume the rest of the payload by definition, so
    // only the structured variants can detect trailing garbage.
    for response in every_response() {
        if matches!(response, Response::Json(_) | Response::Error(_)) {
            continue;
        }
        let mut padded = response.encode();
        padded.push(7);
        match Response::decode(&padded) {
            Err(WireError::Trailing(1)) => {}
            other => panic!("{response:?} + 1 byte must be Trailing(1), got {other:?}"),
        }
    }
}

#[test]
fn unknown_opcodes_tags_and_enum_codes_are_rejected() {
    assert!(matches!(Request::decode(&[0]), Err(WireError::UnknownOpcode(0))));
    assert!(matches!(Request::decode(&[10]), Err(WireError::UnknownOpcode(10))));
    assert!(matches!(Request::decode(&[255]), Err(WireError::UnknownOpcode(255))));
    assert!(matches!(Response::decode(&[0, 0]), Err(WireError::UnknownTag(0))));
    assert!(matches!(Response::decode(&[0, 9]), Err(WireError::UnknownTag(9))));
    assert!(matches!(Response::decode(&[2]), Err(WireError::BadEnum("status", 2))));

    // Relationship request with an out-of-range plane code.
    let mut bad_plane =
        Request::Relationship { a: Asn(1), b: Asn(2), plane: IpVersion::V4 }.encode();
    *bad_plane.last_mut().unwrap() = 2;
    assert!(matches!(Request::decode(&bad_plane), Err(WireError::BadEnum("plane", 2))));

    // What-if request with an out-of-range relationship code.
    let mut bad_rel = Request::WhatIf {
        a: Asn(1),
        b: Asn(2),
        plane: IpVersion::V4,
        new: Relationship::PeerToPeer,
        root: Asn(3),
    }
    .encode();
    bad_rel[10] = 4;
    assert!(matches!(Request::decode(&bad_rel), Err(WireError::BadEnum("relationship", 4))));

    // Relationship response with an out-of-range option marker.
    assert!(matches!(
        Response::decode(&[0, 1, 2]),
        Err(WireError::BadEnum("relationship marker", 2))
    ));
    // What-if response with an out-of-range outcome code.
    assert!(matches!(Response::decode(&[0, 4, 3]), Err(WireError::BadEnum("outcome", 3))));
}

#[test]
fn hostile_length_fields_cannot_force_allocation() {
    // A customer-tree response claiming u32::MAX ASNs but carrying none:
    // the decoder must bound the count by the bytes present.
    let mut payload = vec![0, 2];
    payload.extend_from_slice(&u32::MAX.to_be_bytes());
    assert!(matches!(Response::decode(&payload), Err(WireError::Truncated)));

    // Same for the hybrid-pair count of a universe response.
    let mut payload = vec![0, 7];
    payload.extend_from_slice(&0u32.to_be_bytes());
    payload.extend_from_slice(&u32::MAX.to_be_bytes());
    assert!(matches!(Response::decode(&payload), Err(WireError::Truncated)));
}

#[test]
fn invalid_utf8_text_bodies_are_rejected() {
    assert!(matches!(Response::decode(&[1, 0xFF, 0xFE]), Err(WireError::BadUtf8)));
    assert!(matches!(Response::decode(&[0, 5, 0xFF, 0xFE]), Err(WireError::BadUtf8)));
}
