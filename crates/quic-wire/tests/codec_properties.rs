//! Property-based tests for the QUIC wire codec: varints, frames and packets
//! survive encode/decode round trips for arbitrary field values, and packet
//! protection fails cleanly under corruption.

use prognosis_quic_wire::connection_id::ConnectionId;
use prognosis_quic_wire::crypto::{CryptoError, EncryptionLevel, Keys, TAG_LEN};
use prognosis_quic_wire::frame::Frame;
use prognosis_quic_wire::packet::{Packet, PacketError, PacketHeader, PacketType, RxBuffers};
use prognosis_quic_wire::varint::{read_varint, write_varint, MAX_VARINT};
use proptest::prelude::*;

fn arb_frame() -> impl Strategy<Value = Frame<'static>> {
    let v = 0u64..(1 << 30);
    prop_oneof![
        Just(Frame::Ping),
        (v.clone(), v.clone(), v.clone()).prop_map(|(a, b, c)| Frame::Ack {
            largest_acknowledged: a,
            ack_delay: b,
            first_ack_range: c
        }),
        (v.clone(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(offset, data)| {
            Frame::Crypto {
                offset,
                data: data.into(),
            }
        }),
        (
            v.clone(),
            v.clone(),
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(stream_id, offset, fin, data)| Frame::Stream {
                stream_id,
                offset,
                fin,
                data: data.into()
            }),
        v.clone().prop_map(|maximum| Frame::MaxData { maximum }),
        (v.clone(), v.clone())
            .prop_map(|(stream_id, maximum)| Frame::MaxStreamData { stream_id, maximum }),
        (v.clone(), v.clone()).prop_map(|(stream_id, maximum_stream_data)| {
            Frame::StreamDataBlocked {
                stream_id,
                maximum_stream_data,
            }
        }),
        (v.clone(), ".{0,32}", any::<bool>()).prop_map(|(error_code, reason, application)| {
            Frame::ConnectionClose {
                error_code,
                frame_type: 0,
                reason: reason.into(),
                application,
            }
        }),
        Just(Frame::HandshakeDone),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn varints_round_trip(value in 0u64..=MAX_VARINT) {
        let mut buf = Vec::new();
        write_varint(&mut buf, value).unwrap();
        prop_assert!(buf.len() <= 8);
        let mut bytes = &buf[..];
        prop_assert_eq!(read_varint(&mut bytes).unwrap(), value);
        prop_assert!(bytes.is_empty());
    }

    #[test]
    fn frame_sequences_round_trip(frames in prop::collection::vec(arb_frame(), 0..8)) {
        let encoded = Frame::encode_all(&frames);
        let decoded = Frame::decode_all(&encoded).unwrap();
        prop_assert_eq!(decoded, frames);
    }

    #[test]
    fn packets_round_trip_with_matching_keys(
        frames in prop::collection::vec(arb_frame(), 1..6),
        pn in 0u64..u32::MAX as u64,
        cid_seed in any::<u64>(),
        short in any::<bool>(),
    ) {
        let dcid = ConnectionId::from_seed(cid_seed);
        let (header, level) = if short {
            (PacketHeader::short(dcid, pn), EncryptionLevel::OneRtt)
        } else {
            (
                PacketHeader::long(PacketType::Handshake, dcid, ConnectionId::from_seed(cid_seed ^ 1), pn),
                EncryptionLevel::Handshake,
            )
        };
        let keys = Keys::derive(dcid.key_material(), level);
        let packet = Packet::new(header, frames);
        let wire = packet.encode(&keys);
        let mut payload = Vec::new();
        let decoded = Packet::decode(&wire, &keys, &mut payload).unwrap();
        prop_assert_eq!(decoded, packet);
    }

    #[test]
    fn corrupted_packets_never_decode_to_a_different_packet(
        frames in prop::collection::vec(arb_frame(), 1..4),
        pn in 0u64..1_000_000,
        flip_at in any::<prop::sample::Index>(),
    ) {
        let dcid = ConnectionId::from_seed(7);
        let keys = Keys::derive(dcid.key_material(), EncryptionLevel::OneRtt);
        let packet = Packet::new(PacketHeader::short(dcid, pn), frames);
        let wire = packet.encode(&keys);
        let mut corrupted = wire.to_vec();
        let idx = flip_at.index(corrupted.len());
        corrupted[idx] ^= 0xFF;
        let mut payload = Vec::new();
        match Packet::decode(&corrupted, &keys, &mut payload) {
            // Either the corruption is detected...
            Err(_) => {}
            // ...or it only hit header bytes that do not affect the frames
            // (e.g. the packet number is part of the keystream, so any
            // successful decode must reproduce the original frames).
            Ok(decoded) => prop_assert_eq!(decoded.frames, packet.frames),
        }
    }

    #[test]
    fn abstract_names_are_stable_under_reencoding(
        frames in prop::collection::vec(arb_frame(), 1..6),
        pn in 0u64..10_000,
    ) {
        let dcid = ConnectionId::from_seed(3);
        let keys = Keys::derive(dcid.key_material(), EncryptionLevel::OneRtt);
        let packet = Packet::new(PacketHeader::short(dcid, pn), frames);
        let wire = packet.encode(&keys);
        let mut payload = Vec::new();
        let decoded = Packet::decode(&wire, &keys, &mut payload).unwrap();
        prop_assert_eq!(decoded.abstract_name(), packet.abstract_name());
        prop_assert!(packet.abstract_name().starts_with("SHORT(?,?)["));
    }

    #[test]
    fn payloads_shorter_than_the_tag_are_truncated(
        cid_seed in any::<u64>(),
        pn in 0u64..u32::MAX as u64,
        short in any::<bool>(),
        cut in 1..=TAG_LEN,
    ) {
        // A frameless packet's sealed payload is exactly the tag; cutting
        // its last bytes leaves a ciphertext shorter than the tag.
        let dcid = ConnectionId::from_seed(cid_seed);
        let header = if short {
            PacketHeader::short(dcid, pn)
        } else {
            PacketHeader::long(PacketType::Handshake, dcid, dcid, pn)
        };
        let keys = Keys::derive(dcid.key_material(), EncryptionLevel::Handshake);
        let mut wire = Packet::new(header, vec![]).encode(&keys);
        wire.truncate(wire.len() - cut);
        if !short {
            // Keep the Length field (one byte: 4 + TAG_LEN) consistent.
            let length_at = wire.len() - (4 + TAG_LEN - cut) - 1;
            wire[length_at] -= cut as u8;
        }
        let (_, protected) = Packet::decode_header(&wire).unwrap();
        prop_assert_eq!(protected.len(), TAG_LEN - cut);
        let mut payload = Vec::new();
        prop_assert_eq!(
            Packet::decode(&wire, &keys, &mut payload),
            Err(PacketError::Crypto(CryptoError::Truncated))
        );
        prop_assert_eq!(
            keys.open_in_place(pn, &mut protected.to_vec()),
            Err(CryptoError::Truncated)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    // The decoders are total: arbitrary bytes give a value or a typed
    // error, never a panic.  The one-parse receive path (header once, then
    // an in-place open into reused buffers and borrowed frames) agrees
    // with the full decode, and whatever frame list decodes survives
    // re-encoding unchanged.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = read_varint(&mut &bytes[..]);
        if let Ok((header, protected)) = Packet::decode_header(&bytes) {
            // Keys for the claimed connection, so decoding reaches the
            // payload checks instead of stopping at a key mismatch.
            let level = match header.packet_type {
                PacketType::Short => EncryptionLevel::OneRtt,
                PacketType::Handshake => EncryptionLevel::Handshake,
                _ => EncryptionLevel::Initial,
            };
            let keys = Keys::derive(header.destination_cid.key_material(), level);
            let mut payload = Vec::new();
            let decoded = Packet::decode(&bytes, &keys, &mut payload);
            let mut rx = RxBuffers::default();
            match rx.open(header, protected, &keys, |packet| decoded.as_ref() == Ok(packet)) {
                Ok(same) => prop_assert!(same, "the receive path disagrees with decode"),
                Err(e) => prop_assert_eq!(decoded.err(), Some(e)),
            }
        }
        if let Ok(frames) = Frame::decode_all(&bytes) {
            let encoded = Frame::encode_all(&frames);
            let reencoded = Frame::decode_all(&encoded);
            prop_assert_eq!(reencoded, Ok(frames));
        }
    }
}
