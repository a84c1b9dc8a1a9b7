//! Failure-injection integration test: the nondeterminism check must also
//! cope with *environmental* noise (packet loss on the simulated network),
//! which is the other source of nondeterminism §5 distinguishes from
//! implementation bugs.

use bytes::Bytes;
use prognosis::automata::alphabet::Symbol;
use prognosis::core::nondeterminism::{NondeterminismChecker, NondeterminismConfig};
use prognosis::core::sul::Sul;
use prognosis::events::Event;
use prognosis::netsim::{LinkConfig, Network, SimDuration};

/// A toy SUL whose transport is the simulated network: each step sends a
/// datagram across a (possibly lossy) link and reports whether a reply came
/// back.  With a lossless link the behaviour is deterministic; with loss it
/// is not — the environmental-noise case of §5.
struct EchoOverNetwork {
    network: Network,
    client: prognosis::netsim::EndpointId,
    server: prognosis::netsim::EndpointId,
}

impl EchoOverNetwork {
    fn new(loss: f64, seed: u64) -> Self {
        let mut network = Network::with_default_link(seed, LinkConfig::ideal().loss(loss));
        let client = network.bind(1_000).unwrap();
        let server = network.bind(2_000).unwrap();
        EchoOverNetwork {
            network,
            client,
            server,
        }
    }
}

impl Sul for EchoOverNetwork {
    fn step(&mut self, input: &Symbol) -> Symbol {
        self.network
            .send(
                self.client,
                2_000,
                Bytes::from(input.as_str().as_bytes().to_vec()),
            )
            .ok();
        self.network
            .advance_to(self.network.now() + SimDuration::from_millis(1));
        // The "server" echoes whatever arrived; if the datagram was lost
        // there is nothing to echo.
        let arrived = self.network.endpoint_mut(self.server).unwrap().receive();
        match arrived {
            Some(request) => {
                self.network.send(self.server, 1_000, request.payload).ok();
                self.network
                    .advance_to(self.network.now() + SimDuration::from_millis(1));
                match self.network.endpoint_mut(self.client).unwrap().receive() {
                    Some(_) => Symbol::new("echo"),
                    None => Symbol::new("silence"),
                }
            }
            None => Symbol::new("silence"),
        }
    }

    fn reset(&mut self) {
        self.network.endpoint_mut(self.client).unwrap().clear();
        self.network.endpoint_mut(self.server).unwrap().clear();
    }
}

#[test]
fn lossless_links_keep_queries_deterministic() {
    let sul = EchoOverNetwork::new(0.0, 1);
    let mut checker = NondeterminismChecker::with_defaults(sul);
    let word = prognosis::automata::word::InputWord::from_symbols(["ping", "ping", "ping"]);
    let report = checker.check(&word);
    assert!(report.deterministic);
    assert_eq!(report.distinct_outputs(), 1);
}

#[test]
fn packet_loss_is_flagged_as_nondeterminism() {
    let sul = EchoOverNetwork::new(0.3, 7);
    let config = NondeterminismConfig {
        min_repetitions: 5,
        max_repetitions: 60,
        confidence: 0.99,
    };
    let mut checker = NondeterminismChecker::new(sul, config);
    let word = prognosis::automata::word::InputWord::from_symbols(["ping", "ping", "ping"]);
    let report = checker.check(&word);
    assert!(
        !report.deterministic,
        "30% loss must be detected as nondeterministic behaviour"
    );
    assert!(report.distinct_outputs() >= 2);
}

#[test]
fn capture_records_the_injected_loss() {
    let mut network = Network::with_default_link(3, LinkConfig::ideal().loss(0.5));
    let a = network.bind(1).unwrap();
    let b = network.bind(2).unwrap();
    network.begin_wire_scope(a, b);
    for _ in 0..100 {
        network.send(a, 2, Bytes::from_static(b"x")).unwrap();
    }
    // An ideal link delivers at the instant it sends.
    network.advance_to(network.now());
    let mut events = Vec::new();
    network.end_wire_scope(a, &mut events);
    let lost = events
        .iter()
        .filter(|e| matches!(e, Event::WireDrop { .. }))
        .count();
    assert!(lost > 20 && lost < 80, "lost {lost} of 100 at 50% loss");
}
