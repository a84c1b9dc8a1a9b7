//! The in-process step ([`Sul::step`]) and the networked step ([`WireSul`]:
//! `wire_request` → `handle_wire` → `absorb_wire` → `finish_step`) share
//! the adapters' memos and Oracle Table recording.  Driving one fixed query
//! set through each path must give the same outputs and the same table,
//! entry by entry — unknown symbols included.

use prognosis_automata::alphabet::Symbol;
use prognosis_core::net_transport::{WireRequest, WireSul};
use prognosis_core::oracle_table::OracleEntry;
use prognosis_core::session::SimTime;
use prognosis_core::sul::Sul;
use prognosis_core::{QuicSul, TcpSul};
use prognosis_quic_sim::profile::ImplementationProfile;

/// The port both paths send from: the adapters' client port, so the
/// server sees the same source in either path.
const QUIC_CLIENT_PORT: u16 = 40_000;
const TCP_CLIENT_PORT: u16 = 40_965;

/// One step through the wire decomposition, with a zero-latency wire:
/// every response is absorbed as soon as the server produces it.
fn wire_step<S: WireSul>(sul: &mut S, input: &Symbol, port: u16) -> Symbol {
    match sul.wire_request(input) {
        WireRequest::Immediate(output) => output,
        WireRequest::Datagram(datagram) => {
            let source = sul.wire_source_port(port);
            let (responses, _) = sul.handle_wire(&datagram, source, SimTime::ZERO);
            for response in &responses {
                sul.absorb_wire(response);
            }
            sul.finish_step()
        }
    }
}

/// Runs every query (reset, then its steps) and a final reset that closes
/// the last query; returns the outputs of each query.
fn run_queries<S: Sul>(
    sul: &mut S,
    queries: &[Vec<&str>],
    mut step: impl FnMut(&mut S, &Symbol) -> Symbol,
) -> Vec<Vec<Symbol>> {
    let outputs = queries
        .iter()
        .map(|query| {
            sul.reset();
            query.iter().map(|s| step(sul, &Symbol::new(s))).collect()
        })
        .collect();
    sul.reset();
    outputs
}

fn assert_parity(
    in_process: (Vec<Vec<Symbol>>, Vec<OracleEntry>),
    wire: (Vec<Vec<Symbol>>, Vec<OracleEntry>),
    queries: usize,
) {
    assert_eq!(in_process.0, wire.0, "the two paths answer differently");
    assert_eq!(in_process.1.len(), queries, "one entry per query");
    assert_eq!(wire.1.len(), queries);
    for (i, (a, b)) in in_process.1.iter().zip(&wire.1).enumerate() {
        assert_eq!(a, b, "entry {i} differs between the two paths");
    }
    for (outputs, entry) in in_process.0.iter().zip(&in_process.1) {
        assert_eq!(entry.abstract_trace.output.as_slice(), &outputs[..]);
    }
}

#[test]
fn tcp_step_and_wire_paths_record_identical_tables() {
    let queries = vec![
        vec![
            "SYN(?,?,0)",
            "ACK(?,?,0)",
            "ACK+PSH(?,?,1)",
            "FIN+ACK(?,?,0)",
        ],
        vec!["SYN(?,?,0)", "NOT_A_SYMBOL", "ACK(?,?,0)", "ACK+PSH(?,?,1)"],
        vec!["ACK(?,?,0)", "RST(?,?,0)", "SYN+ACK(?,?,0)"],
        vec![
            "SYN(?,?,0)",
            "SYN(?,?,0)",
            "ACK+RST(?,?,0)",
            "ACK+PSH(?,?,1)",
        ],
        vec![
            "SYN(?,?,0)",
            "ACK(?,?,0)",
            "ACK+PSH(?,?,1)",
            "ACK+PSH(?,?,1)",
        ],
    ];
    let mut step_sul = TcpSul::with_defaults();
    let step_out = run_queries(&mut step_sul, &queries, |sul, s| sul.step(s));
    let mut wire_sul = TcpSul::with_defaults();
    let wire_out = run_queries(&mut wire_sul, &queries, |sul, s| {
        wire_step(sul, s, TCP_CLIENT_PORT)
    });
    assert_eq!(step_out[1][1].as_str(), "NIL", "unknown symbols are silent");
    assert_parity(
        (step_out, step_sul.oracle_table().entries().collect()),
        (wire_out, wire_sul.oracle_table().entries().collect()),
        queries.len(),
    );
    let unknown = step_sul.oracle_table().entries().nth(1).unwrap();
    assert!(unknown.steps[1].input_fields.is_empty());
    assert!(unknown.steps[1].output_fields.is_empty());
}

#[test]
fn google_quic_step_and_wire_paths_record_identical_tables() {
    let handshake = ["INITIAL(?,?)[CRYPTO]", "HANDSHAKE(?,?)[ACK,CRYPTO]"];
    let mut blocked: Vec<&str> = handshake.to_vec();
    blocked.extend(["SHORT(?,?)[ACK,STREAM]"; 4]);
    blocked.push("SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]");
    blocked.push("SHORT(?,?)[ACK,STREAM]");
    let queries = vec![
        blocked,
        vec![
            "INITIAL(?,?)[CRYPTO]",
            "NOT_A_SYMBOL",
            "HANDSHAKE(?,?)[ACK,CRYPTO]",
            // Parses, but names a frame the client cannot build.
            "SHORT(?,?)[RESET_STREAM]",
            "SHORT(?,?)[ACK,HANDSHAKE_DONE]",
        ],
        vec![
            "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]",
            "INITIAL(?,?)[ACK,HANDSHAKE_DONE]",
            "SHORT(?,?)[ACK,STREAM]",
        ],
        vec![
            "INITIAL(?,?)[CRYPTO]",
            "INITIAL(?,?)[CRYPTO]",
            "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]",
            "SHORT(?,?)[ACK,STREAM]",
        ],
    ];
    let google = || QuicSul::new(ImplementationProfile::google(), 3);
    let mut step_sul = google();
    let step_out = run_queries(&mut step_sul, &queries, |sul, s| sul.step(s));
    let mut wire_sul = google();
    let wire_out = run_queries(&mut wire_sul, &queries, |sul, s| {
        wire_step(sul, s, QUIC_CLIENT_PORT)
    });
    assert_eq!(step_out[1][1].as_str(), "{}", "unknown symbols are silent");
    assert_eq!(
        step_out[1][3].as_str(),
        "{}",
        "unbuildable frames are silent"
    );
    assert!(
        step_out[0]
            .iter()
            .any(|o| o.as_str().contains("STREAM_DATA_BLOCKED")),
        "the first query reaches flow control"
    );
    assert_parity(
        (step_out, step_sul.oracle_table().entries().collect()),
        (wire_out, wire_sul.oracle_table().entries().collect()),
        queries.len(),
    );
}
