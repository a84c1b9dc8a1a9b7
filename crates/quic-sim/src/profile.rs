//! Implementation profiles: the observable design choices (and defects) that
//! distinguish the QUIC implementations the paper analyzed.
//!
//! The QUIC specification intentionally leaves room for different design
//! decisions (§6.2.3 calls this out explicitly), so two correct
//! implementations can — and do — have different learned models.  A profile
//! captures exactly the choices that are visible at the abstract-alphabet
//! level, plus the three injected defects corresponding to Issues 2–4.

/// The overall shape of the handshake responses (which packets are emitted
/// when), mirroring the two families visible in Appendix A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandshakeStyle {
    /// Google-style: the first flight already carries early 1-RTT stream
    /// data, and handshake completion is signalled with separate
    /// `SHORT[CRYPTO]` and `SHORT[HANDSHAKE_DONE]` packets.
    Google,
    /// Quiche-style: handshake completion is acknowledged at the handshake
    /// level and `HANDSHAKE_DONE`, session tickets and the first stream data
    /// are coalesced into 1-RTT packets.
    Quiche,
}

/// Observable configuration of one simulated QUIC server implementation.
#[derive(Clone, Debug, PartialEq)]
pub struct ImplementationProfile {
    /// Human-readable name used in reports.
    pub name: String,
    /// Handshake response shape.
    pub handshake_style: HandshakeStyle,
    /// Issue 4: `STREAM_DATA_BLOCKED.Maximum Stream Data` is sent as the
    /// constant 0 instead of the actual blocked offset.
    pub stream_data_blocked_constant_zero: bool,
    /// Issue 2: probability that a packet received after a
    /// protocol-violation close is answered with a stateless reset
    /// (1.0 for implementations that answer deterministically; the paper
    /// measured ≈ 0.82 for mvfst).
    pub reset_probability_after_close: f64,
    /// Initial flow-control credit the *client* grants the server for
    /// stream 1 (server-initiated responses).  A small value makes the
    /// server hit the limit and emit `STREAM_DATA_BLOCKED`, producing the
    /// extra post-handshake states of the Google model.
    pub initial_peer_max_stream_data: u64,
    /// Bytes of response data the server tries to send per client STREAM
    /// frame (relative to `initial_peer_max_stream_data` this determines how
    /// quickly it blocks).
    pub response_chunk: u64,
    /// Whether the server performs Retry-based address validation before
    /// accepting a connection.
    pub supports_retry: bool,
    /// Issue-1 divergence: whether the server aborts the connection when a
    /// client resets its packet-number space after a Retry (the behaviour
    /// the RFC clarification (PR #3990) explicitly allows), or silently
    /// accepts it.
    pub abort_on_pn_reset_after_retry: bool,
}

impl ImplementationProfile {
    /// The Google QUIC profile (Appendix A.2): larger model with
    /// flow-control blocking and the Issue-4 constant-zero defect.
    pub fn google() -> Self {
        ImplementationProfile {
            name: "google".to_string(),
            handshake_style: HandshakeStyle::Google,
            stream_data_blocked_constant_zero: true,
            reset_probability_after_close: 1.0,
            initial_peer_max_stream_data: 150,
            response_chunk: 100,
            supports_retry: false,
            abort_on_pn_reset_after_retry: false,
        }
    }

    /// The Cloudflare Quiche profile (Appendix A.3): smaller model, no
    /// observable blocking, correct `STREAM_DATA_BLOCKED` fields.
    pub fn quiche() -> Self {
        ImplementationProfile {
            name: "quiche".to_string(),
            handshake_style: HandshakeStyle::Quiche,
            stream_data_blocked_constant_zero: false,
            reset_probability_after_close: 1.0,
            initial_peer_max_stream_data: 1_000_000,
            response_chunk: 100,
            supports_retry: false,
            abort_on_pn_reset_after_retry: true,
        }
    }

    /// The Facebook mvfst profile: Quiche-like shape plus the Issue-2
    /// nondeterministic stateless-reset defect (≈ 82% of post-close packets
    /// are answered with a reset, the rest with silence, and there is no
    /// back-off).
    pub fn mvfst() -> Self {
        ImplementationProfile {
            name: "mvfst".to_string(),
            handshake_style: HandshakeStyle::Quiche,
            stream_data_blocked_constant_zero: false,
            reset_probability_after_close: 0.82,
            initial_peer_max_stream_data: 1_000_000,
            response_chunk: 100,
            supports_retry: false,
            abort_on_pn_reset_after_retry: false,
        }
    }

    /// The QUIC-Tracker profile used as the reference implementation; retry
    /// support is enabled because Issue 3 concerns its retry handling.
    pub fn tracker() -> Self {
        ImplementationProfile {
            name: "tracker".to_string(),
            handshake_style: HandshakeStyle::Quiche,
            stream_data_blocked_constant_zero: false,
            reset_probability_after_close: 1.0,
            initial_peer_max_stream_data: 1_000_000,
            response_chunk: 100,
            supports_retry: true,
            abort_on_pn_reset_after_retry: false,
        }
    }

    /// Enables Retry-based address validation on this profile.
    pub fn with_retry(mut self) -> Self {
        self.supports_retry = true;
        self
    }

    /// All three target profiles the paper learned models of.
    pub fn targets() -> Vec<ImplementationProfile> {
        vec![Self::quiche(), Self::google(), Self::mvfst()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_encode_the_documented_defects() {
        let google = ImplementationProfile::google();
        assert!(
            google.stream_data_blocked_constant_zero,
            "Issue 4 lives in the Google profile"
        );
        assert_eq!(google.handshake_style, HandshakeStyle::Google);
        assert!(
            google.initial_peer_max_stream_data < 1_000,
            "Google profile must hit flow control"
        );

        let quiche = ImplementationProfile::quiche();
        assert!(!quiche.stream_data_blocked_constant_zero);
        assert_eq!(quiche.reset_probability_after_close, 1.0);

        let mvfst = ImplementationProfile::mvfst();
        assert!(
            (mvfst.reset_probability_after_close - 0.82).abs() < 1e-9,
            "Issue 2: ≈82% resets"
        );

        let tracker = ImplementationProfile::tracker();
        assert!(
            tracker.supports_retry,
            "Issue 3 concerns the tracker's retry mechanism"
        );
    }

    #[test]
    fn target_list_and_retry_builder() {
        let targets = ImplementationProfile::targets();
        assert_eq!(targets.len(), 3);
        assert!(targets.iter().any(|p| p.name == "google"));
        let with_retry = ImplementationProfile::google().with_retry();
        assert!(with_retry.supports_retry);
    }
}
