//! Golden segments: the exact bytes of every segment the reference client
//! and the simulated server exchange in a fixed conversation — the
//! three-way handshake, `ACK+PSH` data, a passive close, an `RST` abort
//! and the replies of a closed socket, and a stray `ACK` at a listening
//! socket.  The codec may change how it builds and parses segments, but
//! never a byte of what it puts on the wire.
//!
//! Each line is `> request name` or `< response name`, in hex; a request
//! the server answers with silence has no `<` line.

use prognosis_tcp::{ReferenceTcpClient, TcpSegment, TcpServer};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The segment's wire bytes, checked to decode back to the segment.
fn wire(segment: &TcpSegment) -> Vec<u8> {
    let mut bytes = Vec::new();
    segment.encode(&mut bytes);
    assert_eq!(TcpSegment::decode(&bytes), Ok(segment.clone()));
    bytes
}

/// Sends each input and records the request and the response segment,
/// absorbing the response as the adapter does.
fn exchange(
    server: &mut TcpServer,
    client: &mut ReferenceTcpClient,
    inputs: &[&str],
    lines: &mut Vec<String>,
) {
    for input in inputs {
        let request = client.concretize(input).unwrap();
        lines.push(format!(
            "> {} {}",
            hex(&wire(&request)),
            request.abstract_name()
        ));
        if let Some(response) = server.handle_segment(&request) {
            client.absorb(&response);
            lines.push(format!(
                "< {} {}",
                hex(&wire(&response)),
                response.abstract_name()
            ));
        }
    }
}

fn assert_pinned(lines: &[String], pinned: &[&str]) {
    assert_eq!(lines.len(), pinned.len(), "{lines:#?}");
    for (i, (line, pinned)) in lines.iter().zip(pinned).enumerate() {
        assert_eq!(line, pinned, "segment line {i}");
    }
}

/// A client and server as the TCP adapter pairs them.
fn pair() -> (TcpServer, ReferenceTcpClient) {
    (
        TcpServer::with_defaults(),
        ReferenceTcpClient::new(40_965, 44_344, 48_108),
    )
}

#[test]
fn handshake_data_and_passive_close_segments_are_pinned() {
    let (mut server, mut client) = pair();
    let mut lines = Vec::new();
    exchange(
        &mut server,
        &mut client,
        &[
            "SYN(?,?,0)",
            "ACK(?,?,0)",
            "ACK+PSH(?,?,1)",
            "ACK+PSH(?,?,3)",
            "FIN+ACK(?,?,0)",
            "ACK(?,?,0)",
        ],
        &mut lines,
    );
    assert_pinned(&lines, HANDSHAKE_DATA_CLOSE);
}

#[test]
fn rst_abort_and_closed_socket_segments_are_pinned() {
    let (mut server, mut client) = pair();
    let mut lines = Vec::new();
    exchange(
        &mut server,
        &mut client,
        &[
            "SYN(?,?,0)",
            "RST(?,?,0)",
            "SYN(?,?,0)",
            "ACK(?,?,0)",
            "ACK+RST(?,?,0)",
        ],
        &mut lines,
    );
    assert_pinned(&lines, RST_AND_CLOSED);
}

#[test]
fn stray_segments_at_a_listening_socket_are_pinned() {
    let (mut server, mut client) = pair();
    let mut lines = Vec::new();
    exchange(
        &mut server,
        &mut client,
        &[
            "ACK(?,?,0)",
            "FIN+ACK(?,?,0)",
            "ACK+PSH(?,?,1)",
            "RST(?,?,0)",
        ],
        &mut lines,
    );
    assert_pinned(&lines, STRAY_IN_LISTEN);
}

const HANDSHAKE_DATA_CLOSE: &[&str] = &[
    "> a005ad380000bbec000000000220000000 SYN(?,?,0)",
    "< ad38a005000027100000bbed1220000000 ACK+SYN(?,?,0)",
    "> a005ad380000bbed000027111020000000 ACK(?,?,0)",
    "> a005ad380000bbed00002711182000000161 ACK+PSH(?,?,1)",
    "< ad38a005000027110000bbee1020000000 ACK(?,?,0)",
    "> a005ad380000bbee000027111820000003616161 ACK+PSH(?,?,3)",
    "< ad38a005000027110000bbf11020000000 ACK(?,?,0)",
    "> a005ad380000bbf1000027111120000000 ACK+FIN(?,?,0)",
    "< ad38a005000027110000bbf21120000000 ACK+FIN(?,?,0)",
    "> a005ad380000bbf2000027121020000000 ACK(?,?,0)",
];

const RST_AND_CLOSED: &[&str] = &[
    "> a005ad380000bbec000000000220000000 SYN(?,?,0)",
    "< ad38a005000027100000bbed1220000000 ACK+SYN(?,?,0)",
    "> a005ad380000bbed000000000420000000 RST(?,?,0)",
    "> a005ad380000bbed000000000220000000 SYN(?,?,0)",
    "< ad38a005000000000000bbee1420000000 ACK+RST(?,?,0)",
    "> a005ad380000bbee000027111020000000 ACK(?,?,0)",
    "< ad38a00500002711000000000420000000 RST(?,?,0)",
    "> a005ad380000bbee000027111420000000 ACK+RST(?,?,0)",
];

const STRAY_IN_LISTEN: &[&str] = &[
    "> a005ad380000bbec000000001020000000 ACK(?,?,0)",
    "< ad38a005000000000000bbec0420000000 RST(?,?,0)",
    "> a005ad380000bbec000000001120000000 ACK+FIN(?,?,0)",
    "< ad38a005000000000000bbed0420000000 RST(?,?,0)",
    "> a005ad380000bbed00000000182000000161 ACK+PSH(?,?,1)",
    "< ad38a005000000000000bbee0420000000 RST(?,?,0)",
    "> a005ad380000bbee000000000420000000 RST(?,?,0)",
];
